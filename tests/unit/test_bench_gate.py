"""The bench regression gate (``benchmarks/check_regression.py``) and
the committed baselines it guards: the ``bench-kernels/v1`` kernel
micro-bench and the ``bench-serving/v1`` serving smoke."""

import copy
import importlib.util
import json
import pathlib

import pytest

_BENCH_DIR = pathlib.Path(__file__).parents[2] / "benchmarks"


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_regression", _BENCH_DIR / "check_regression.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


gate = _load_gate()


def _doc(**kernels):
    return {
        "schema": "bench-kernels/v1",
        "fixture": {"dataset": "ogbn-products"},
        "timing": {"number": 20, "repeats": 5},
        "kernels": {
            name: {"reference_s": ref, "fast_s": fastv,
                   "speedup": ref / fastv}
            for name, (ref, fastv) in kernels.items()},
    }


BASE = _doc(gather=(1.0, 1.0), table_codes_int8=(4.0, 1.0),
            table_load_int8=(3.0, 1.0))


class TestCompare:
    def test_identical_run_passes(self):
        assert gate.compare(BASE, copy.deepcopy(BASE)) == []

    def test_missing_kernel_fails(self):
        cur = copy.deepcopy(BASE)
        del cur["kernels"]["table_load_int8"]
        problems = gate.compare(BASE, cur)
        assert any("missing" in p for p in problems)

    def test_hard_floor_on_table_codes_int8(self):
        cur = _doc(gather=(1.0, 1.0),
                   table_codes_int8=(4.0, 2.5),       # 1.6x < 2.0
                   table_load_int8=(3.0, 1.0))
        problems = gate.compare(BASE, cur)
        assert any("hard floor" in p for p in problems)

    def test_table_codes_int8_just_under_its_floor_fails(self):
        # 3.0x -> 1.9x is inside the 60% slack; only the hard floor
        # catches it.
        base = _doc(table_codes_int8=(3.0, 1.0))
        cur = _doc(table_codes_int8=(1.9, 1.0))
        problems = gate.compare(base, cur)
        assert len(problems) == 1 and "hard floor 2.00x" in problems[0]
        assert gate.HARD_FLOORS["table_codes_int8"] == 2.0

    def test_hard_floor_on_training_backward(self):
        # 1.4x -> 1.0x (the dead input-feature gradient is back) is
        # inside the 60% slack; only the hard floor catches it.
        base = _doc(table_codes_int8=(4.0, 1.0),
                    train_backward_sage=(1.4, 1.0))
        cur = _doc(table_codes_int8=(4.0, 1.0),
                   train_backward_sage=(1.0, 1.0))
        problems = gate.compare(base, cur)
        assert len(problems) == 1 and "hard floor 1.15x" in problems[0]

    def test_hard_floor_on_sample_neighbor(self):
        # 3.0x -> 1.9x (a sort back in the relabel path, partly hidden
        # by the draws) is inside the 60% slack; only the floor catches
        # it.
        base = _doc(table_codes_int8=(4.0, 1.0),
                    sample_neighbor=(3.0, 1.0))
        cur = _doc(table_codes_int8=(4.0, 1.0),
                   sample_neighbor=(1.9, 1.0))
        problems = gate.compare(base, cur)
        assert len(problems) == 1 and "hard floor 2.00x" in problems[0]
        assert gate.HARD_FLOORS["sample_neighbor"] == 2.0

    def test_speedup_collapse_fails_even_when_floor_holds(self):
        # table_load_int8 falls from 3.0x to 1.0x: above any hard floor,
        # but below 60% of its own baseline.
        cur = _doc(gather=(1.0, 1.0), table_codes_int8=(4.0, 1.0),
                   table_load_int8=(3.0, 3.0))
        problems = gate.compare(BASE, cur)
        assert any("below 60% of baseline" in p for p in problems)

    def test_absolute_time_blowup_fails(self):
        # Ratios intact, but everything 10x slower than baseline — an
        # accidental reference fallback or debug build.
        cur = _doc(gather=(10.0, 10.0),
                   table_codes_int8=(40.0, 10.0),
                   table_load_int8=(30.0, 10.0))
        problems = gate.compare(BASE, cur)
        assert any("exceeds 3.0x baseline" in p for p in problems)

    def test_slack_is_tunable(self):
        cur = _doc(gather=(2.0, 2.0), table_codes_int8=(8.0, 2.0),
                   table_load_int8=(6.0, 2.0))
        assert gate.compare(BASE, cur, time_slack=1.5)
        assert gate.compare(BASE, cur, time_slack=4.0) == []

    def test_unknown_schema_rejected(self):
        bad = copy.deepcopy(BASE)
        bad["schema"] = "bench-kernels/v0"
        assert gate.compare(bad, BASE)
        assert gate.compare(BASE, bad)


class TestCommittedBaseline:
    @pytest.fixture(scope="class")
    def baseline(self):
        with open(_BENCH_DIR / "BENCH_kernels.json") as fh:
            return json.load(fh)

    def test_schema_and_required_kernels(self, baseline):
        assert baseline["schema"] == "bench-kernels/v1"
        assert set(baseline["kernels"]) == {
            "gather", "table_load_int8", "table_codes_int8",
            "train_backward_sage", "sample_neighbor"}
        for name in baseline["kernels"]:
            row = baseline["kernels"][name]
            assert row["reference_s"] > 0 and row["fast_s"] > 0
            assert row["speedup"] == pytest.approx(
                row["reference_s"] / row["fast_s"])

    def test_baseline_meets_acceptance_floor(self, baseline):
        # Every floored row's baseline clears its floor — the int8
        # trainer load at >= 2x over the reference composition on the
        # products-scale fixture among them.
        for name, floor in gate.HARD_FLOORS.items():
            assert baseline["kernels"][name]["speedup"] >= floor

    def test_baseline_passes_its_own_gate(self, baseline):
        assert gate.compare(baseline, copy.deepcopy(baseline)) == []


def _serving_doc(budget_s=0.25, **scenarios):
    return {
        "schema": "bench-serving/v1",
        "latency_budget_s": budget_s,
        "scenarios": {
            name: {"offered": off, "accepted": off - sum(shed.values()),
                   "completed": off - sum(shed.values()),
                   "shed": dict(shed),
                   "shed_rate": sum(shed.values()) / off,
                   "latency_p99_ms": p99_ms,
                   "throughput_rps": rps}
            for name, (off, shed, p99_ms, rps) in scenarios.items()},
    }


SERVING_BASE = _serving_doc(
    nominal=(150, {}, 30.0, 150.0),
    overload=(2000, {"queue_full": 200}, 12.0, 3800.0))


class TestCompareServing:
    def test_identical_run_passes(self):
        assert gate.compare_serving(
            SERVING_BASE, copy.deepcopy(SERVING_BASE)) == []

    def test_missing_scenario_fails(self):
        cur = copy.deepcopy(SERVING_BASE)
        del cur["scenarios"]["overload"]
        assert any("missing" in p
                   for p in gate.compare_serving(SERVING_BASE, cur))

    def test_budget_blowout_fails(self):
        cur = copy.deepcopy(SERVING_BASE)
        cur["scenarios"]["overload"]["latency_p99_ms"] = 400.0
        problems = gate.compare_serving(SERVING_BASE, cur)
        assert any("latency budget" in p for p in problems)

    def test_dropped_requests_fail(self):
        cur = copy.deepcopy(SERVING_BASE)
        cur["scenarios"]["nominal"]["completed"] -= 3
        problems = gate.compare_serving(SERVING_BASE, cur)
        assert any("never completed" in p for p in problems)

    def test_untyped_shed_fails(self):
        cur = copy.deepcopy(SERVING_BASE)
        cur["scenarios"]["overload"]["shed"] = {"vibes": 80}
        problems = gate.compare_serving(SERVING_BASE, cur)
        assert any("untyped" in p for p in problems)

    def test_overload_that_stops_shedding_fails(self):
        cur = copy.deepcopy(SERVING_BASE)
        cur["scenarios"]["overload"]["shed"] = {}
        cur["scenarios"]["overload"]["shed_rate"] = 0.0
        problems = gate.compare_serving(SERVING_BASE, cur)
        assert any("stopped gating" in p for p in problems)

    def test_throughput_collapse_fails_and_slack_is_tunable(self):
        cur = copy.deepcopy(SERVING_BASE)
        cur["scenarios"]["nominal"]["throughput_rps"] = 10.0
        assert any("throughput" in p
                   for p in gate.compare_serving(SERVING_BASE, cur))
        assert gate.compare_serving(SERVING_BASE, cur,
                                    throughput_slack=0.01) == []

    def test_schema_mismatch_rejected(self):
        bad = copy.deepcopy(SERVING_BASE)
        bad["schema"] = "bench-serving/v2"
        assert gate.compare_serving(SERVING_BASE, bad)

    def test_shed_reasons_mirror_the_serving_plane(self):
        # ``failed`` stays out: the accepted == completed check is
        # what catches a failed batch.
        from repro.serving import SHED_REASONS
        assert set(gate.SERVING_SHED_REASONS) == \
            set(SHED_REASONS) - {"failed"}


class TestCommittedServingBaseline:
    @pytest.fixture(scope="class")
    def baseline(self):
        with open(_BENCH_DIR / "BENCH_serving.json") as fh:
            return json.load(fh)

    def test_schema_and_required_scenarios(self, baseline):
        assert baseline["schema"] == "bench-serving/v1"
        budget_ms = baseline["latency_budget_s"] * 1e3
        for name in ("nominal", "overload", "credits"):
            row = baseline["scenarios"][name]
            assert row["completed"] == row["accepted"]
            assert row["latency_p99_ms"] <= budget_ms
            assert row["throughput_rps"] > 0

    def test_baseline_pins_the_acceptance_criteria(self, baseline):
        # The PR's acceptance criterion: typed shed under overload
        # while accepted p99 stays within the budget. The overload
        # scenario must shed above the gate's floor, or the gate's
        # must-still-shed check never covers it.
        overload = baseline["scenarios"]["overload"]
        assert overload["shed"].get("queue_full", 0) > 0
        assert overload["shed_rate"] > gate.SERVING_SHED_FLOOR
        assert baseline["scenarios"]["nominal"]["shed"] == {}
        assert baseline["scenarios"]["credits"]["shed"].get(
            "no_credit", 0) > 0

    def test_baseline_passes_its_own_gate(self, baseline):
        assert gate.compare_serving(baseline,
                                    copy.deepcopy(baseline)) == []
