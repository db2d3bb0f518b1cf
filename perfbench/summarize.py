"""Repeat benchmark runs over several seeds and summarize their spread.

    python3 perfbench/summarize.py --workload deep-keys --seeds 1 2 3 4 5
    python3 perfbench/summarize.py --seeds 1 2 3 4 5 6 7 8 9 10 --baseline
    python3 perfbench/summarize.py --trace --seeds 1 2 --baseline

Runs ``run.py`` one at a time, once per (workload, seed), with ``run_seconds``
from BENCHMARK.json.  For every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, the spread the benchmark's bounds are checked against.
With ``--trace`` it runs the traced variant instead and checks that every
count repeats exactly across seeds.  ``--baseline`` stores the result in
``baseline.json`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
OUT = ROOT / ".bench_out"
REPORT_ONLY = ("wall_s", "key_p50_s", "key_p90_s")


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed ({workload}, seed {seed}, exit {proc.returncode}):\n"
                 f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    # report-only figures (key count, latency samples, per-key latencies) from
    # the report file the run writes next to its spans
    report = json.loads((OUT / f"report-{workload}-seed{seed}-trace{int(trace)}.json").read_text())
    result["keys"] = report["keys"]
    result["latency_samples"] = report["latency_samples"]
    for name in REPORT_ONLY:
        result["metrics"][name] = report["figures"][name]
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0, "values": values}


def machine() -> dict:
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default: all in BENCHMARK.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--baseline", action="store_true", help="write baseline.json")
    args = parser.parse_args()

    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    ok = True
    for name in names:
        runs = [run_once(name, seed, bench["run_seconds"], args.trace) for seed in args.seeds]
        kind = "traced" if args.trace else "runs"
        (OUT / f"{kind}-{name}.json").write_text(json.dumps(runs, indent=1) + "\n")
        entry = baseline.setdefault("workloads", {}).setdefault(name, {})
        if args.trace:
            layers = {}
            for metric in runs[0]["metrics"]:
                values = [r["metrics"][metric]["value"] for r in runs]
                unit = runs[0]["metrics"][metric]["unit"]
                if unit == "count" and len(set(values)) > 1:
                    print(f"{name}: count {metric} differs across seeds: {values}")
                    ok = False
                layers[metric] = {"median": statistics.median(values), "unit": unit}
                print(f"{name:<16} {metric:<44} {layers[metric]['median']:>14.6g} {unit}")
            entry["per_layer"] = {"seeds": args.seeds, "metrics": layers}
            continue
        entry["keys"] = runs[0]["keys"]
        entry["latency_samples"] = [r["latency_samples"] for r in runs]
        entry["seeds"] = args.seeds
        entry["end_to_end"] = {}
        for metric in list(bounds) + list(REPORT_ONLY):
            stats = spread([r["metrics"][metric]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = stats
            flag = ""
            if metric in bounds and stats["iqr_share"] > bounds[metric] / 3:
                flag = f"  above a third of bound {bounds[metric]}"
                ok = False
            print(f"{name:<16} {metric:<12} median {stats['median']:.6g} {stats['unit']}"
                  f"  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}"
                  f"  iqr/median {stats['iqr_share']:.4f}{flag}")
    if args.baseline:
        baseline["machine"] = machine()
        BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
