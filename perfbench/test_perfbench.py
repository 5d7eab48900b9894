"""Checks of the benchmark itself: python -m pytest perfbench -q (from the repo root)."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from plasticwalk.plastic import enumerate_terms  # noqa: E402
from tracer import Tracer, per_layer_names  # noqa: E402

# a cheap prefix of each workload's pass
PREFIX = {"kspace_time": 12, "lattice_snapshots": 6, "spacetime_scan": 60}


def _traced_counts(workload: str, seed: int, workdir: Path) -> dict:
    workdir.mkdir()
    ops = workloads.BUILDERS[workload](seed, str(workdir))[:PREFIX[workload]]
    tracer = Tracer()
    run.run_pass(ops, run.PeakWatch(), tracer)
    return dict(tracer.counts)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = _traced_counts(workload, 5, tmp_path / "a")
    second = _traced_counts(workload, 5, tmp_path / "b")
    assert first == second
    assert sum(first.values()) > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pass_is_large_enough_for_p90(workload, tmp_path):
    assert len(workloads.BUILDERS[workload](5, str(tmp_path))) >= workloads.MIN_PASS_OPS


def test_order_one_tuple_count_matches_enumerator():
    for a in workloads.FAREY_8:
        for b in workloads.FAREY_8:
            assert workloads.terms_count(a, b) == len(enumerate_terms(a, b)), (a, b)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    records = [(workloads.Op("check", "x", None, None), 0.002, None)] * 3
    metrics = run.end_to_end([(records, [1.0] * 3)] * 2, setup_s=0.2)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, unit) for name, (_, unit) in metrics.items()]


def test_known_defects_are_tied_to_their_operations(tmp_path):
    ops = {op.label: op for op in workloads.spacetime_scan(5, str(tmp_path))}
    nan, inf = "output is not strict JSON: NaN", "output is not strict JSON: Infinity"
    off = "calibration -0.4 is not -1/2"
    assert ops["pde a=1 b=1 compliant"].known_defect(nan)
    assert not ops["pde a=1 b=1 compliant"].known_defect(off)
    assert ops["pde a=1/5 b=4/5 compliant"].known_defect(off)
    assert ops["pde a=1/2 b=1 divergent"].known_defect(off)
    for pair in ("a=1/2 b=1/2", "a=1/3 b=2/3", "a=2/3 b=1/3"):
        assert not ops[f"pde {pair} compliant"].known_defect(off)
        assert not ops[f"pde {pair} compliant"].known_defect(
            "exception escaped: RuntimeError: calibration constant came out non-real: 0j")
    assert ops["check a=2/3 b=2/3 divergent"].known_defect(inf)
    assert not ops["check a=1/2 b=1/2 compliant"].known_defect(inf)


def test_p90_is_the_harrell_davis_estimate():
    mstats = pytest.importorskip("scipy.stats.mstats")
    values = [1.0 + (7 * i % 11) ** 2 for i in range(112)]
    assert run.p90(values) == pytest.approx(float(mstats.hdquantiles(values, prob=[0.9])[0]),
                                            rel=1e-6)
