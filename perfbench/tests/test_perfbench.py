"""Tests of the benchmark harness itself (not of the solver).

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bench  # noqa: E402
import spans  # noqa: E402
from workloads import (WORKLOADS, CheckFailure, check_fields,  # noqa: E402
                       check_result, load_reference)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    loop = spans.LOOP
    recorded = [
        ("setup.init", 0.0, 1.0, -1),
        (loop, 1.0, 11.0, -1),          # 1
        ("rhs", 2.0, 10.0, 1),          # 2
        ("ghost", 2.5, 5.0, 2),         # 3
        ("cweno", 3.0, 4.0, 3),         # 4
        ("flux", 6.0, 8.0, 2),          # 5
        ("flux", 6.5, 7.5, 5),          # 6: nested in its own layer
        ("eos", 7.6, 7.9, 5),           # 7
    ]
    reduced = spans.reduce_spans(recorded)
    assert reduced["self"] == pytest.approx({
        loop: 2.0, "rhs": 3.5, "ghost": 1.5, "cweno": 1.0,
        "flux": 0.7 + 1.0, "eos": 0.3})
    assert sum(reduced["self"].values()) == pytest.approx(10.0)
    assert reduced["incl"]["flux"] == pytest.approx(2.0)
    assert reduced["calls"]["flux"] == 1
    assert reduced["incl"]["ghost"] == pytest.approx(2.5)
    assert reduced["setup"] == {"setup.init": 1.0}


def test_tracer_restores_every_entry_point():
    import hydrobal.eos as eos
    import hydrobal.operator1d as op1
    import hydrobal.physics as physics

    before = (op1.build_profiles, op1.SpatialOperator1D.__dict__["rhs"],
              physics.FLUXES["roe"],
              eos.IdealGasRadiation.__dict__["_newton"])
    tracer = spans.Tracer()
    with tracer.installed():
        assert op1.build_profiles is not before[0]
        assert isinstance(eos.IdealGasRadiation.__dict__["_newton"],
                          staticmethod)
    after = (op1.build_profiles, op1.SpatialOperator1D.__dict__["rhs"],
             physics.FLUXES["roe"],
             eos.IdealGasRadiation.__dict__["_newton"])
    assert after == before
    assert tracer.skipped == []


def test_loop_time_pools_later_steps():
    samples = [bench.Sample(0.0, 0.0, [5.0, 2.0, 3.0, 2.5], 4, 0),
               bench.Sample(0.0, 0.0, [4.0, 3.0, 1.5, 2.0], 4, 0)]
    # fastest first step, then three later steps at the fastest later one
    assert bench.loop_time(samples) == pytest.approx(4.0 + 3 * 1.5)
    assert bench.loop_time([bench.Sample(0.0, 0.0, [2.0], 1, 0)]) == 2.0
    assert bench.loop_time([]) == 0.0


SMOKE = {"pert-dwb5": dict(n=16, t_end=0.005),
         # the discrete wall equilibrium needs n >= 56 at order 5
         "wall-dwb5": dict(n=64, t_end=0.005),
         "rad-dwb3": dict(n=16, t_end=0.005),
         "polytrope2d-la3": dict(n=8, t_end=0.002)}


def _sample_result(name):
    workload = dataclasses.replace(WORKLOADS[name], **SMOKE[name])
    return workload, workload.run(workload.scenario_for(0))


def test_corrupted_final_field_fails_reference_check():
    workload = WORKLOADS["wall-dwb5"]
    reference = load_reference(workload)
    check_fields(reference.copy(), reference, "identity")
    reordered = reference * (1.0 + 1e-14)
    check_fields(reordered, reference, "reordered")
    corrupted = reference.copy()
    corrupted[2, 7] *= 1.0 + 1e-9
    with pytest.raises(CheckFailure):
        check_fields(corrupted, reference, "corrupted")


def test_corrupted_final_state_fails_result_checks():
    workload, result = _sample_result("pert-dwb5")
    check_result(workload, result)
    result.final.data[0, result.grid.interior][3] += 1e-6  # mass drift
    with pytest.raises(CheckFailure, match="mass"):
        check_result(workload, result)
    result.final.data[2, result.grid.interior][5] = np.nan
    with pytest.raises(CheckFailure, match="non-finite"):
        check_result(workload, result)

    workload, result = _sample_result("wall-dwb5")
    check_result(workload, result)
    result.final.data[1, result.grid.interior][4] = 1e-9
    with pytest.raises(CheckFailure, match="rho u"):
        check_result(workload, result)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_tiny_workload_through_both_passes(name):
    workload = dataclasses.replace(WORKLOADS[name], **SMOKE[name])
    for measure, spec in ((bench.end_to_end, "end_to_end"),
                          (bench.layer_trace, "per_layer")):
        result, details = measure(workload, 3, 0.01, use_reference=False)
        assert details["errors"] == []
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 2
        names = [m["name"] for m in BENCHMARK[spec]]
        assert list(result["metrics"]) == names
        for metric in BENCHMARK[spec]:
            value = result["metrics"][metric["name"]]
            assert value["unit"] == metric["unit"]
            assert np.isfinite(value["value"])
        if spec == "end_to_end":
            assert all(v["value"] > 0 for v in result["metrics"].values())
        else:
            assert details["coverage"] == pytest.approx(1.0, abs=0.02)
            assert details["skipped"] == []


def test_benchmark_file_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["paths"] == ["perfbench"]
