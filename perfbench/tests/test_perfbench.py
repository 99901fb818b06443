"""Tests of the benchmark itself, on its smoke-sized workloads.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import guard  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_is_correct_and_traced_counts_repeat(workload):
    plain = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke")
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0
    assert list(plain["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    # each traced run also compares the counts of its own two traced passes,
    # and the traced output bytes against the untraced ones
    first, second = (
        bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1", "--smoke") for _ in range(2)
    )
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [name for name, _ in spans.PER_LAYER]
    counts = [spans.count_metrics({k: m["value"] for k, m in r["metrics"].items()}) for r in (first, second)]
    assert counts[0] == counts[1]
    assert first["metrics"]["linalg.rref.calls"]["value"] > 0


def test_tracer_replaces_every_binding_and_restores_it():
    import quivalg.cli  # noqa: F401
    from quivalg import algebra, checks, homology, linalg, modules

    before = {m.__name__: dict(vars(m)) for m in (linalg, algebra, modules, homology, checks)}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert modules.solve is not before["quivalg.linalg"]["solve"]
        assert modules.solve is linalg.solve and homology.rref is linalg.rref
        assert checks.bar_ext_oracle is not before["quivalg.checks"]["bar_ext_oracle"]
        field = linalg.PrimeField(7)
        assert field.matrix([[1, 2], [2, 4]]).rank() == 1
    finally:
        tracer.uninstall()
    after = {m.__name__: dict(vars(m)) for m in (linalg, algebra, modules, homology, checks)}
    assert after == before
    assert [s[0] for s in tracer.spans] == ["linalg.rank"]
    assert spans.layer_metrics(tracer.spans, tracer.counters)["linalg.rank.cells"] == 4


def test_guard_caps_memory_and_time(tmp_path):
    env = guard.pinned_env()
    assert all(1 <= int(env[v]) <= guard.cpu_count() for v in guard.THREAD_VARS)
    big = guard.run_child(
        [sys.executable, "-c", "bytearray(1 << 30)"], mem_cap_mb=256, timeout_s=60, env=env, cwd=str(tmp_path)
    )
    assert big.returncode not in (0, None) and "MemoryError" in big.stderr
    slow = guard.run_child(
        [sys.executable, "-c", "import time; time.sleep(60)"], mem_cap_mb=512, timeout_s=1, env=env, cwd=str(tmp_path)
    )
    assert slow.timed_out


def test_memory_overrun_is_recorded_as_failed_operations(monkeypatch):
    # A5 fits in 500 MB of address space, A6 does not
    monkeypatch.setattr(WORKLOADS["gencogen-ladder"], "mem_cap_mb", 500)
    result, lines = run.run_workload("gencogen-ladder", 0, 0.0, 0, False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 4
    assert any("memory cap reached" in line for line in lines)
