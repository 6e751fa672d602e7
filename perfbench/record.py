"""Write expected.json: this commit's output for every input any workload
can draw.  Each run compares its outputs with this record, so a change
that alters an output fails the benchmark.

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    record = {}
    for workload in workloads.WORKLOADS:
        op = workloads.OPS[workload]
        outs = {}
        for pool in workloads.pools(workload):
            for item in pool:
                workloads.clear_caches()
                out = op(item)
                fail = workloads.check(workload, item, out)
                if fail is not None:
                    print("%s %s: %s" % (workload, item, fail), file=sys.stderr)
                    return 1
                outs[workloads.input_key(item)] = out
        record[workload] = outs
        print("%s: %d inputs" % (workload, len(outs)))
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
