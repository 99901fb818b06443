"""Benchmark of quivalg: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Run from the root of a checkout; quivalg is imported from ``src/``.  Each
workload runs in a child process under an address-space cap and a timeout
(see guard.py), as one caller in a closed loop: a call starts when the
previous one returns.  With ``--trace 0`` the child runs untraced passes for
``--seconds`` and the end-to-end metrics are reported; set-up is timed in
separate fresh processes.  With ``--trace 1`` traced and untraced passes
alternate and the per-layer metrics are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it name every metric with its unit, including ``fail_ratio`` and, on
cli-cache, the cache-hit latencies.  Exit code 2 without a result means
the benchmark could not run at all (for example, no quivalg sources).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import guard
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 5
RUN_BUDGET_S = 170.0  # one workload's run, set-up probes included

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchError(Exception):
    """The benchmark cannot run: no result is printed."""


def _child(name: str, seed: int, seconds: float, trace: int, smoke: bool, workdir: Path, *, probe: bool, deadline: float):
    records = workdir / f"records-{time.monotonic_ns()}.jsonl"
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        "--src", str(SRC),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--workdir", str(workdir),
        "--records", str(records),
    ]
    if smoke:
        argv.append("--smoke")
    if probe:
        argv.append("--setup-probe")
    if trace:
        argv += ["--spans-out", str(WORK / f"spans-{name}.jsonl")]
    env = guard.pinned_env({"PYTHONHASHSEED": "0"})
    res = guard.run_child(
        argv, mem_cap_mb=WORKLOADS[name].mem_cap_mb, timeout_s=deadline - time.monotonic(), env=env, cwd=str(ROOT)
    )
    rows = []
    if records.exists():
        rows = [json.loads(line) for line in records.read_text(encoding="utf-8").splitlines() if line.strip()]
    return res, rows


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> tuple[dict, list[str]]:
    """Result object and report lines of one workload run."""
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups = []
        if not trace:
            for _ in range(1 if smoke else SETUP_PROBES):
                res, rows = _child(name, seed, seconds, 0, smoke, workdir, probe=True, deadline=deadline)
                got = [r["setup_s"] for r in rows if r["kind"] == "setup"]
                if res.returncode != 0 or not got:
                    raise BenchError(f"{name}: set-up failed ({res.describe()}): {res.stderr.strip()[-2000:]}")
                setups.append(got[0])
        res, rows = _child(name, seed, seconds, trace, smoke, workdir, probe=False, deadline=deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plan = [r for r in rows if r["kind"] == "plan"]
    if not plan:
        raise BenchError(f"{name}: the workload did not start ({res.describe()}): {res.stderr.strip()[-2000:]}")
    passes = [r for r in rows if r["kind"] == "pass"]
    end = [r for r in rows if r["kind"] == "end"]
    problems: list[str] = []
    attempted = failed = 0
    digest = None
    for r in passes:
        if "error" in r:
            attempted += plan[0]["ops_per_pass"]
            failed += plan[0]["ops_per_pass"]
            problems.append(f"pass raised: {r['error']}")
            continue
        attempted += r["ops"]
        failed += r["failed"]
        problems += r["problems"]
        digest = digest or r["digest"]
        if r["digest"] != digest and not r["failed"]:
            # traced and untraced passes of one seed must print the same bytes
            failed += r["ops"]
            problems.append("pass output differs from the first pass")
    if res.returncode != 0 or not end:
        attempted += plan[0]["ops_per_pass"]
        failed += plan[0]["ops_per_pass"]
        problems.append(f"workload child ended abnormally ({res.describe()}): {res.stderr.strip()[-500:]}")
    # with no completed pass, report how long the failing passes ran
    good = [r for r in passes if "error" not in r] or passes
    if not good:
        raise BenchError(f"{name}: no pass started: {'; '.join(problems)}")

    untraced = [r["wall_s"] for r in good if not r["traced"]]
    traced = [r for r in good if "layers" in r]
    lines = [f"workload {name} seed {seed} trace {trace}: {len(good)} passes ({len(traced)} traced)"]
    metrics: dict[str, dict] = {}

    def put(key: str, value: float, unit: str, note: str = ""):
        metrics[key] = {"value": value, "unit": unit}
        lines.append(f"  {key} = {value:.6g} {unit}{note}")

    if trace:
        counts = [spans.count_metrics(r["layers"]) for r in traced]
        if any(c != counts[0] for c in counts[1:]):
            diff = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts[1:]))
            problems.append(f"traced passes disagree on counts: {', '.join(diff)}")
        for key, unit in spans.PER_LAYER:
            if not traced:  # every traced pass failed; the failures are counted above
                value = 0.0
            elif key == "trace_overhead":
                value = statistics.median(r["wall_s"] for r in traced) / statistics.median(untraced or [1.0]) - 1.0
            elif unit == "s":
                value = statistics.median(r["layers"][key] for r in traced)
            else:
                value = traced[0]["layers"][key]
            put(key, value, unit)
    else:
        q1, q2, q3 = _quartiles(untraced)
        peak = end[0]["peak_rss_mb"] if end else resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        values = {
            "wall_s": (q2, f"  (median of {len(untraced)} passes, quartiles {q1:.4f} {q3:.4f})"),
            "peak_rss_mb": (peak, "  (ru_maxrss of the workload process)"),
            "setup_s": (statistics.median(setups), f"  (median of {len(setups)} set-ups in fresh processes)"),
        }
        for key, unit in END_TO_END:
            put(key, values[key][0], unit, values[key][1])
    lines.append(f"  fail_ratio = {failed / attempted if attempted else 1.0:.6g} ratio  ({failed} of {attempted} operations)")
    hits = [h for r in good for h in r.get("hits_ms", [])]
    if hits and not trace:
        p90 = statistics.quantiles(hits, n=10, method="inclusive")[-1] if len(hits) > 1 else hits[0]
        lines.append(f"  hit_p50_ms = {statistics.median(hits):.6g} ms  (n = {len(hits)} cache hits)")
        lines.append(f"  hit_p90_ms = {p90:.6g} ms  (n = {len(hits)} cache hits)")
    for p in problems[:20]:
        lines.append(f"  problem: {p}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "quivalg" / "__init__.py").is_file():
        print(f"error: no quivalg sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, args.trace, args.smoke)
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
