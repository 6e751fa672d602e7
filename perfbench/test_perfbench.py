"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def tiny(workload):
    """The cheapest inputs of each sub-pool, one or two of them."""
    return [item for pool in workloads.pools(workload) for item in pool[:2]][:3]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    seconds = BENCHMARK["run_seconds"]
    first = workloads.draw(workload, 7, seconds)
    assert first == workloads.draw(workload, 7, seconds)
    assert first != workloads.draw(workload, 8, seconds)
    assert len(first) >= 10


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_matches_record(workload):
    records = run(workload, tiny(workload), workloads.load_expected()[workload])
    assert records and all(r["fail"] is None for r in records), records
    assert all(r["probe_s"] > 0 for r in records)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_leaves_outputs_unchanged(workload):
    import nforders.criteria
    import nforders.lattice

    expected = workloads.load_expected()[workload]
    plain = run(workload, tiny(workload), expected)
    original = nforders.lattice.find_generator
    with Tracer() as tracer:
        assert nforders.criteria.find_generator is not original
        traced = run(workload, tiny(workload), expected, tracer)
    assert nforders.criteria.find_generator is original
    assert [r["out"] for r in traced] == [r["out"] for r in plain]
    assert sum(calls for calls, _ in tracer.stats.values()) > 0


def test_caches_cleared_through_tracer_wrappers():
    from nforders import biquadratic

    with Tracer():
        biquadratic.class_group(biquadratic.integral_basis(3, 2))
        workloads.clear_caches()
        assert biquadratic.class_group.__wrapped__.cache_info().currsize == 0


def test_checks_reject_bad_outputs():
    item = (59, 2, "1+w")
    assert workloads.check("represent", item, [2, ""]) is not None
    assert workloads.check("represent", item, [3, '{"result":"unknown"}']) == "unknown result"
    bad = '{"p":"1+w","result":"solution","x":"2332+1115*w","y":"3294-531*w"}'
    assert workloads.check("represent", item, [0, bad]) is not None
    assert workloads.check("classgroup", (3, 2), [4, [4, 2]]) is not None
    assert workloads.check("classgroup", (3, 2), [3, []]) is not None
    assert workloads.check("picard", ("zsqrt", 5), [2, None, 2]) is not None
    assert workloads.check("picard", ("zsqrt", 5), [2, 2, 1]) is not None
    assert workloads.check("picard", ("zsqrt", 5), [2, 2, 2]) is None


def test_independent_identity_check():
    # the paper's example: (3 + sqrt(-59))/2 = x^2 + 2 y^2 in Q(sqrt(-59))
    assert workloads.identity_holds("1+w", "2332+1115*w", "3294-532*w", 59, 2)
    assert not workloads.identity_holds("1+w", "2332+1115*w", "3294-531*w", 59, 2)


def test_command_prints_every_metric():
    out = bench("--workload", "picard", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert sorted(out["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    for m in BENCHMARK["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0


def test_traced_command_prints_every_layer_metric():
    out = bench("--workload", "represent", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert out["correct"]
    assert sorted(out["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    for m in BENCHMARK["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "picard", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
