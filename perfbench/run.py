"""qwk benchmark: cold-memo workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload theorem-grid --seed 1 --seconds 40 --trace 0

Every pass over a workload runs in a fresh interpreter (``worker.py``), so all
qwk memo tables start cold, and one pass runs at a time.  The seed only
permutes the key order.

``--trace 0`` runs cold passes until the next one would end after
``--seconds``, at least one, and reports the end-to-end metrics:

  setup_s      interpreter start to ``import qwk`` done; median over the
               set-up probes (a round before every pass, then rounds until
               ``--seconds`` is up) and the passes' own workers
  wall_ref_s   one cold pass over the whole workload, all checks passing,
               at the host's reference speed (the pass gauges the speed it
               runs at, see ``worker.py``); median over passes.  The raw
               pass time, ``wall_s``, is printed too but swings by half with
               the load on a shared host's other threads, so it is not gated
  key_p50_s    per-key latency (first call to end of check), pooled over passes
  key_p90_s
  peak_rss_mb  the worker's ru_maxrss; median over passes

``--trace 1`` runs one untraced pass and then one traced pass, and reports
the per-layer metrics of the traced pass (see ``tracer.py``), the traced
``wall_s`` and the tracing overhead (traced over untraced ``wall_s``, the
latter less its speed sampling).  Its
spans go to ``.bench_out/trace-<workload>-seed<seed>.jsonl``.

Every run also writes all its figures, with the key and latency sample
counts, to ``.bench_out/report-<workload>-seed<seed>-trace<0|1>.json``;
``summarize.py`` reads them from there.

Every pass checks each key (the two routes agree, or the closed Hurwitz
formula matches the factorization count) and the SHA-256 value hash of the
pass against ``expected.json``; a hash mismatch fails every key of the pass.
The report goes to stdout, and its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"      # workload -> value hash
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5                      # set-up probes per round
WORKER_TIMEOUT_S = 30

END_TO_END = ("setup_s", "wall_ref_s", "peak_rss_mb")
# printed in the report but not gated: raw wall_s moves with the host's load,
# and which key pays for shared memo work depends on the key order, so the
# key latencies move with the seed by design
REPORT_ONLY = ("wall_s", "key_p50_s", "key_p90_s")
PER_LAYER = (
    "qkdv.hamiltonian_density.calls", "qkdv.hamiltonian_density.self_s",
    "qkdv.hamiltonian_density.monomials",
    "qkdv.bracket.calls", "qkdv.bracket.self_s", "qkdv.bracket.monomials_out",
    "qkdv.bracket.distinct_prefix_frac",
    "qkdv.nested_bracket.calls", "qkdv.nested_bracket.self_s",
    "qkdv.nested_bracket.distinct_frac",
    "symbols.eval_string_point.calls", "symbols.eval_string_point.self_s",
    "symbols.eval_string_point.monomials", "symbols.eval_string_point.multilinear_frac",
    "special.ehrhart_convolution.calls", "special.ehrhart_convolution.self_s",
    "special.power_of_sum.calls", "special.power_of_sum.self_s",
    "correlators.correlator.calls", "correlators.correlator.self_s",
    "correlators.correlator_tau0.calls",
    "hurwitz.hurwitz_correlator.calls", "hurwitz.hurwitz_correlator.self_s",
    "hurwitz.one_part_number.calls", "hurwitz.one_part_number.self_s",
    "hurwitz.factorization_count.calls", "hurwitz.factorization_count.self_s",
    "algebra.multipoly_mul.calls", "algebra.multipoly_mul.self_s",
    "algebra.gaussrat_mul.calls", "algebra.nonreal_frac",
    "unwrapped.self_s", "trace.bookkeeping_s", "trace.wall_s", "trace.overhead_ratio",
)


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


class WorkerError(RuntimeError):
    pass


class Worker:
    """A fresh worker process, timed from its start to its ``ready`` line."""

    def __init__(self):
        # a fixed hash seed, so every pass lays out its dicts and sets alike
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        start = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env, cwd=ROOT)
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if ready.strip() != "ready":
            self.close()
            raise WorkerError(f"worker did not start (exit code {self.proc.returncode})")

    def run(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError("worker ended without a result")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_pass(name: str, rng: random.Random, setup: List[float],
             trace_path: Optional[Path] = None) -> dict:
    """One cold pass in a fresh worker, keys in an order drawn from ``rng``."""
    keys = workloads.WORKLOADS[name][0]
    order = [[i, check, list(parts), g] for i, (check, parts, g) in workloads.shuffled(keys, rng)]
    request = {"keys": order, "run_id": uuid.uuid4().hex[:12],
               "trace_path": str(trace_path) if trace_path else None}
    with Worker() as worker:
        setup.append(worker.setup_s)
        return worker.run(request)


def probe_setup(setup: List[float]) -> None:
    """A round of set-up probes: workers that start, import qwk and end."""
    for _ in range(SETUP_PROBES):
        with Worker() as probe:
            setup.append(probe.setup_s)


def check_pass(name: str, result: dict, expected: Optional[str]) -> dict:
    """Failed keys of a pass: a key fails if it raised or its routes disagree
    (or, where the workload needs it, it is zero); a wrong value hash fails them all."""
    keys, nonzero = workloads.WORKLOADS[name]
    values: List[Optional[str]] = [None] * len(keys)
    failed = set()
    errors = []
    for index, ok, value, _, error in result["rows"]:
        values[index] = value
        if not ok or (nonzero and value == "0"):
            failed.add(index)
            errors.append(f"{workloads.key_str(keys[index])}: {error or value}")
    digest = None
    if None not in values:
        digest = workloads.value_hash(name, keys, values)
    if digest is None or digest != expected:
        failed = set(range(len(keys)))
    return {"failed": len(failed), "attempted": len(keys), "hash": digest, "errors": errors}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qwk" / "__init__.py").is_file():
        print(f"run.py: no qwk package under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text()).get(args.workload)
    OUT.mkdir(exist_ok=True)
    rng = random.Random(args.seed)
    started = time.perf_counter()
    setup: List[float] = []
    passes: List[dict] = []
    try:
        with Worker():  # untimed: the first import writes the bytecode caches
            pass
        probe_setup(setup)
        if args.trace:
            passes.append(run_pass(args.workload, rng, setup))
            probe_setup(setup)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            passes.append(run_pass(args.workload, rng, setup, trace_path))
        else:
            while True:
                t0 = time.perf_counter()
                passes.append(run_pass(args.workload, rng, setup))
                pass_s = time.perf_counter() - t0
                probe_setup(setup)
                if time.perf_counter() - started + pass_s > args.seconds:
                    break
            # set-up time swings by a fifth within seconds on a shared host, so
            # the time left after the last pass goes to more set-up probes
            while time.perf_counter() - started < args.seconds:
                probe_setup(setup)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    checks = [check_pass(args.workload, p, expected) for p in passes]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    untraced = passes[:1] if args.trace else passes
    latencies = [row[3] for p in untraced for row in p["rows"]]
    report: Dict[str, float] = {
        "setup_s": statistics.median(setup),
        "wall_ref_s": statistics.median([p["wall_ref_s"] for p in untraced]),
        "wall_s": statistics.median([p["wall_s"] for p in untraced]),
        "key_p50_s": statistics.median(latencies),
        "key_p90_s": statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": statistics.median([p["peak_rss_kb"] for p in untraced]) / 1024,
    }
    names = END_TO_END
    if args.trace:
        layers = passes[1]["layers"]
        report.update(layers)
        report["trace.wall_s"] = passes[1]["wall_s"]
        report["trace.overhead_ratio"] = (passes[1]["wall_s"]
                                          / (passes[0]["wall_s"] - passes[0]["calib_s"]))
        names = PER_LAYER

    keys = len(workloads.WORKLOADS[args.workload][0])
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"keys": keys, "latency_samples": len(latencies),
                    "figures": {name: {"value": value, "unit": unit_of(name)}
                                for name, value in report.items()}}, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"{' (1 untraced, 1 traced)' if args.trace else ''}"
          f"  keys {keys}  latency samples {len(latencies)}  set-up samples {len(setup)}")
    walls = " ".join(f"{p['wall_s']:.4f}" for p in passes)
    print(f"  pass wall_s: {walls}")
    walls = " ".join(f"{p['wall_ref_s']:.4f}" for p in untraced)
    print(f"  pass wall_ref_s: {walls}")
    beyond_p90 = sum(1 for x in latencies if x > report["key_p90_s"])
    for name in END_TO_END + REPORT_ONLY + tuple(sorted(set(report) - set(END_TO_END + REPORT_ONLY))):
        print(f"  {name:<44} {report[name]:>14.6g} {unit_of(name)}")
    print(f"  ({beyond_p90} latency samples lie beyond key_p90_s)")
    print(f"  {'fail_frac':<44} {failed / attempted:>14.6g} ratio  ({failed}/{attempted})")
    for c in checks:
        state = "ok" if c["hash"] == expected else f"MISMATCH (expected {expected})"
        print(f"  value_hash {c['hash']} {state}")
        for err in c["errors"][:10]:
            print(f"  failed {err}")
    if args.trace:
        print(f"  spans written to {trace_path.relative_to(ROOT)}")

    metrics = {name: {"value": report.get(name, 0), "unit": unit_of(name)} for name in names}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
