"""Self-test of the benchmark harness on the few-second ``smoke`` workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "smoke",
                           "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def hashes_of(proc: subprocess.CompletedProcess) -> set:
    return {line.split()[1] for line in proc.stdout.splitlines()
            if line.strip().startswith("value_hash")}


@pytest.fixture(scope="module")
def traced():
    return [run("--seed", str(seed), "--trace", "1") for seed in (1, 2)]


def test_benchmark_json_matches_harness():
    sys.path.insert(0, str(HERE))
    try:
        import run as harness
    finally:
        sys.path.remove(str(HERE))
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [m["name"] for m in BENCH["end_to_end"]] == list(harness.END_TO_END)
    assert [m["name"] for m in BENCH["per_layer"]] == list(harness.PER_LAYER)
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert m["unit"] == harness.unit_of(m["name"])
    expected = json.loads((HERE / "expected.json").read_text())
    for w in BENCH["workloads"]:
        assert w["name"] in expected


def test_ref_seconds_scales_each_stretch_by_its_sample():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        from worker import CALIB_REF_S, SpeedSampler
    finally:
        del sys.path[:2]
    sampler = SpeedSampler()
    # one stretch at the reference speed, one at half of it
    sampler.samples = [(0.0, CALIB_REF_S), (1.0, 2 * CALIB_REF_S)]
    sampler.end = 3.0
    assert sampler.calib_s() == pytest.approx(3 * CALIB_REF_S)
    assert sampler.ref_seconds() == pytest.approx(
        (1.0 - CALIB_REF_S) + (2.0 - 2 * CALIB_REF_S) / 2)


def test_untraced_run_prints_every_end_to_end_metric():
    proc = run("--seed", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 82
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    for name in ("wall_s", "key_p50_s", "key_p90_s", "fail_frac"):
        assert f"  {name} " in proc.stdout


def test_traced_run_prints_every_per_layer_metric(traced):
    for proc in traced:
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = result_of(proc)
        assert result["correct"]
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in BENCH["per_layer"]}


def test_seeds_agree_on_value_hash_and_counts(traced):
    a, b = traced
    assert hashes_of(a) == hashes_of(b) and len(hashes_of(a)) == 1
    counts = [{k: m["value"] for k, m in result_of(p)["metrics"].items()
               if m["unit"] == "count"} for p in traced]
    assert counts[0] == counts[1]
    # smoke enters every layer, so each rebound name must have been called
    assert all(v > 0 for k, v in counts[0].items() if k.endswith(".calls")), counts[0]


def test_traced_self_times_account_for_wall(traced):
    m = {k: v["value"] for k, v in result_of(traced[0])["metrics"].items()}
    layers = sum(v for k, v in m.items() if k.endswith(".self_s") and
                 not k.startswith(("unwrapped.", "trace.")))
    total = layers + m["unwrapped.self_s"] + m["trace.bookkeeping_s"]
    assert total == pytest.approx(m["trace.wall_s"], rel=1e-6)
    assert 0 <= m["unwrapped.self_s"] < 0.02 * m["trace.wall_s"]


def test_spans_nest_inside_their_parents(traced):
    spans = [json.loads(line) for line in
             (ROOT / ".bench_out" / "trace-smoke-seed1.jsonl").read_text().splitlines()]
    assert len({s["run"] for s in spans}) == 1
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
            assert parent["key"] == s["key"]
            child[s["parent"]] += s["end"] - s["start"]
        else:
            assert s["name"] == "key"
    for s, inner in zip(spans, child):
        assert s["end"] - s["start"] - inner >= -1e-9, s


def copy_benchmark(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_tampered_hash_fails(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["smoke"] = "0" * 64
    path.write_text(json.dumps(expected))
    proc = run("--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    result = result_of(proc)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_fails_without_sources(tmp_path):
    copy_benchmark(tmp_path)
    proc = run("--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
