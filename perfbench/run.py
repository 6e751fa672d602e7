"""The nforders benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload represent --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout.  The timed run is a fresh
interpreter (perfbench/worker.py) that runs the drawn inputs one at a
time.  Set-up is timed in it and in SETUP_PROBES more fresh interpreters,
started one after another, that stop once their inputs are ready; the
median is reported.  Every time is normalised by the host-speed probe
(calibrate.py), taken on the one CPU this process and its workers are
pinned to.  With --trace 0 the last line holds the end-to-end
metrics.  With --trace 1 the run is made untraced and then traced, the
outputs must agree, and the last line holds the per-layer metrics and the
tracing overhead.  Earlier lines give every metric with its unit, the
environment and any failure.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402  (imports no library code)

SETUP_PROBES = 9
DEADLINE_S = 170.0
TAIL_BEYOND = 10  # samples a tail percentile must have beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
    }


def spawn(args: list, deadline: float) -> dict:
    """Run the worker in a fresh interpreter and wait for it; its JSON,
    with "setup_s" from process start to inputs ready, normalised by the
    probe reading the worker took right after."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s passed the %.0f s deadline" % (args, DEADLINE_S))
    if proc.returncode != 0:
        raise BenchError("worker %s exited %d:\n%s" % (args, proc.returncode, proc.stderr))
    result = json.loads(proc.stdout.splitlines()[-1])
    result["measured_setup_s"] = result["ready"] - start
    result["setup_s"] = calibrate.normalised(result["measured_setup_s"], result["probe_s"])
    return result


def tail(times: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it, or the maximum when a run has too
    few operations for one."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(starts: list, run: dict) -> tuple[dict, str]:
    """The end-to-end metrics from the timed run and every worker started
    (the set-up probes and the run), every time normalised; and a note of
    what was measured."""
    times = [calibrate.normalised(r["s"], r["probe_s"]) for r in run["ops"]]
    wall = sum(times)
    value, pct, beyond = tail(times)
    metrics = {
        "setup_s": statistics.median(w["setup_s"] for w in starts),
        "wall_s": wall,
        "ops_per_s": len(times) / wall,
        "op_p50_ms": 1000 * statistics.median(times),
        "op_tail_ms": 1000 * value,
        "peak_rss_mb": run["peak_rss_kb"] / 1024,
    }
    note = ("op_tail_ms is p%.1f of %d operations, %d beyond it; measured wall %.3f s,"
            " setup %.4f s, probe median %.4f ms against %.4f ms" % (
                pct, len(times), beyond, sum(r["s"] for r in run["ops"]),
                statistics.median(w["measured_setup_s"] for w in starts),
                1000 * statistics.median(r["probe_s"] for r in run["ops"]),
                1000 * calibrate.REFERENCE_PROBE_S))
    return metrics, note


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nforders").is_dir():
        print("error: no library source at %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    env = environment(args.seed)
    # one CPU for the probe and the operations it normalises; the workers
    # inherit it, and they run one at a time
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + DEADLINE_S
    common = [args.workload, str(args.seed), str(args.seconds)]
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d" % (args.workload, args.seed)
    try:
        probes = [spawn(common + ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
        run = spawn(common, deadline)
        if args.trace:
            trace_path = OUT / ("trace-%s.json" % stem)
            traced = spawn(common + ["--trace", str(trace_path)], deadline)
    except BenchError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1

    metrics, note = end_to_end(probes + [run], run)
    failed = [(r["input"], r["fail"]) for r in run["ops"] if r["fail"]]
    attempted = len(run["ops"])
    print("# environment: %s" % json.dumps(env, sort_keys=True))
    print("# %s: %d operations; %s" % (args.workload, attempted, note))
    for name, value in metrics.items():
        print("%-14s %14.6f %s" % (name, value, END_TO_END_UNITS[name]))
    print("%-14s %14.6f %s" % ("failed_ratio", len(failed) / attempted, "ratio"))
    report = {
        "environment": env,
        "end_to_end": metrics,
        "ops": [(r["input"], r["s"], r["probe_s"]) for r in run["ops"]],
    }

    if args.trace:
        layers = dict(traced["layers"])
        layers["trace_overhead_ratio"] = traced["wall_s"] / metrics["wall_s"]
        for r, plain in zip(traced["ops"], run["ops"]):
            if not plain["fail"] and (r["fail"] or r["out"] != plain["out"]):
                why = r["fail"] or "output differs from the untraced run"
                failed.append((r["input"], "traced: %s" % why))
        print("# traced: overhead x%.3f; spans in %s"
              % (layers["trace_overhead_ratio"], trace_path.relative_to(ROOT)))
        for name in sorted(layers):
            print("%-44s %16.6f %s" % (name, layers[name], layer_unit(name)))
        report["per_layer"] = layers
        shown = {n: {"value": v, "unit": layer_unit(n)} for n, v in layers.items()}
    else:
        shown = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in metrics.items()}

    report["failed"] = failed
    for key, why in failed[:20]:
        print("# FAILED %s: %s" % (key, why))
    with open(OUT / ("result-%s-trace%d.json" % (stem, args.trace)), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": shown,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
