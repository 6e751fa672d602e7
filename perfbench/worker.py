"""One timed run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS [--trace PATH] [--setup-only]

Imports the library from ./src, draws the inputs, then runs them once, one
at a time (a closed loop, one client), and prints one JSON line: the
monotonic clock when set-up ended, each operation's time, output and
check result, the peak resident memory and, when traced, the per-layer
metrics.  Each operation is bracketed by readings of the host-speed
probe (calibrate.py), and one more reading follows set-up.  With --trace the spans are written to PATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import nforders.cli  # noqa: E402,F401  (imports every library module)

import calibrate  # noqa: E402
import workloads  # noqa: E402


def run(workload: str, items: list, expected: dict, tracer=None) -> list:
    """Run the operations in order; one record per operation.  An output
    that fails the independent check or differs from the record marks the
    operation failed.  "probe_s" is the mean of the probe readings taken
    right before and right after the operation."""
    op = workloads.OPS[workload]
    clear = workloads.CLEAR_BEFORE_OP[workload]
    records = []
    calibrate.warm_up()
    before = calibrate.probe()
    for i, item in enumerate(items):
        if clear:
            workloads.clear_caches()
        if tracer is not None:
            tracer.op = i
        key = workloads.input_key(item)
        start = time.perf_counter()
        try:
            out, fail = op(item), None
        except Exception as err:  # an operation that raises counts as failed
            out, fail = None, repr(err)
        took = time.perf_counter() - start
        after = calibrate.probe()
        if fail is None:
            fail = workloads.check(workload, item, out)
        if fail is None and expected.get(key) != out:
            fail = "differs from the record" if key in expected else "no record"
        records.append({"input": key, "s": took, "probe_s": (before + after) / 2,
                        "out": out, "fail": fail})
        before = after
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("seconds", type=float)
    ap.add_argument("--trace", metavar="PATH")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    items = workloads.draw(args.workload, args.seed, args.seconds)
    expected = workloads.load_expected()[args.workload]
    ready = time.monotonic()
    calibrate.warm_up()
    result = {"ready": ready, "probe_s": calibrate.probe()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        from tracing import Tracer

        with Tracer() as tracer:
            records = run(args.workload, items, expected, tracer)
        result["layers"] = tracer.metrics()
        with open(args.trace, "w") as fh:
            json.dump({"spans": tracer.spans, "stats": tracer.stats}, fh)
    else:
        records = run(args.workload, items, expected)
    result["ops"] = records
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["wall_s"] = sum(calibrate.normalised(r["s"], r["probe_s"]) for r in records)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
