"""Child process of the benchmark.

Imports quivalg from the given source tree, then either times one set-up
(``--setup-probe``) or runs the passes of one workload, appending one JSON
record per pass to ``--records``.  ``run.py`` starts it under the resource
guard; it is not meant to be run by hand.

A pass builds fresh inputs (untimed), runs the workload once (timed) and
checks the output against the workload's reference.  With ``--trace 1`` the
passes alternate traced and untraced, starting and ending traced, so that
two traced passes can be compared count for count.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time

import spans
from workloads import WORKLOADS


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def one_pass(wl, tracer) -> dict:
    """Build, run and check one pass; ``tracer`` is None for an untraced pass."""
    state = None
    gc.collect()
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            tracer.install()
        try:
            state = wl.build()
            t0 = time.perf_counter()
            result = wl.run(state)
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
            wl.cleanup(state)
    except MemoryError:
        error = "memory cap reached"
    except Exception as e:  # a raising operation is recorded as failed, not fatal
        error = f"{type(e).__name__}: {e}"
    else:
        error = None
    if error is not None:
        return {"kind": "pass", "traced": tracer is not None, "wall_s": time.perf_counter() - t0, "error": error}
    ops, problems = wl.check(result)
    record = {
        "kind": "pass",
        "traced": tracer is not None,
        "wall_s": wall,
        "ops": ops,
        "failed": min(len(problems), ops),
        "problems": problems[:5],
        "digest": hashlib.sha256(result["text"].encode()).hexdigest(),
        "hits_ms": result.get("hits_ms", []),
    }
    if tracer is not None:
        record["layers"] = spans.layer_metrics(tracer.spans, tracer.counters)
    return record


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--records", required=True)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--setup-probe", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import quivalg
    import quivalg.cli  # noqa: F401  (pulls in every module the workloads call)

    if not os.path.abspath(quivalg.__file__).startswith(src + os.sep):
        print(f"error: imported quivalg from {quivalg.__file__}, not from {src}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_start

    wl = WORKLOADS[args.workload](args.seed, args.smoke, args.workdir)
    with open(args.records, "a", encoding="utf-8") as rec:

        def emit(obj: dict):
            rec.write(json.dumps(obj) + "\n")
            rec.flush()

        if args.setup_probe:
            t = time.perf_counter()
            wl.cleanup(wl.build())
            emit({"kind": "setup", "setup_s": import_s + time.perf_counter() - t, "import_s": import_s})
            return 0

        empty = {"text": "", "hits_ms": [], "changed": []}
        emit({"kind": "plan", "ops_per_pass": wl.check(empty)[0]})
        if not args.trace:
            # warm-up on smoke-sized inputs, so lazy imports are not timed.  A
            # traced run skips it: its first pass must see every input fresh,
            # or state leaked between passes would not change the counts.
            one_pass(WORKLOADS[args.workload](args.seed, True, args.workdir), None)

        first_tracer = None
        start = time.perf_counter()
        n = 0
        while True:
            tracer = spans.Tracer() if args.trace and n % 2 == 0 else None
            record = one_pass(wl, tracer)
            emit(record)
            if tracer is not None and first_tracer is None:
                first_tracer = tracer
            n += 1
            if "error" in record:
                break
            min_passes = 3 if args.trace else 1
            if n >= min_passes and (not args.trace or n % 2 == 1) and time.perf_counter() - start >= args.seconds:
                break
        emit({"kind": "end", "peak_rss_mb": _peak_rss_mb(), "import_s": import_s})
    if first_tracer is not None and args.spans_out:
        first_tracer.dump(args.spans_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
