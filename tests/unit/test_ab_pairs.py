"""The verdicts of the A/B pair tool (``benchmarks/ab_pairs.py``) on
fixed numbers: the claim rule (nine tenths of the pairs won and a
median gap wider than the parent's inter-quartile distance) and the
no-regression rule (the median's worsening within the metric's bound,
unresolved when the runs spread wider than it)."""

import importlib.util
import pathlib

import pytest


def _load_tool():
    path = pathlib.Path(__file__).parents[2] / "benchmarks" / \
        "ab_pairs.py"
    spec = importlib.util.spec_from_file_location("ab_pairs", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


ab = _load_tool()

PARENT = [100.0, 101.0, 102.0, 103.0, 104.0,
          105.0, 106.0, 107.0, 108.0, 109.0]


class TestClaimVerdict:
    def test_ten_of_ten_wins_and_a_wide_gap_is_a_gain(self):
        change = [x - 10.0 for x in PARENT]
        assert ab.pair_wins(PARENT, change, "lower") == (10, 0)
        assert ab.claim_verdict(PARENT, change, "lower")

    def test_higher_is_better_flips_the_direction(self):
        change = [x + 10.0 for x in PARENT]
        assert ab.claim_verdict(PARENT, change, "higher")
        assert not ab.claim_verdict(PARENT, change, "lower")

    def test_eight_of_ten_wins_is_no_gain(self):
        change = [x - 10.0 for x in PARENT[:8]] + PARENT[8:]
        assert ab.pair_wins(PARENT, change, "lower") == (8, 0)
        assert not ab.claim_verdict(PARENT, change, "lower")

    def test_nine_of_ten_wins_with_one_tie_is_a_gain(self):
        change = [x - 10.0 for x in PARENT[:9]] + PARENT[9:]
        assert ab.pair_wins(PARENT, change, "lower") == (9, 0)
        assert ab.claim_verdict(PARENT, change, "lower")

    def test_every_pair_won_by_less_than_the_parent_iqr_is_no_gain(self):
        # The parent's quartiles (exclusive rule) are 101.75 and 107.25.
        q1, _, q3 = ab.quartiles(PARENT)
        assert (q1, q3) == (pytest.approx(101.75), pytest.approx(107.25))
        change = [x - 4.0 for x in PARENT]
        assert ab.pair_wins(PARENT, change, "lower") == (10, 0)
        assert not ab.claim_verdict(PARENT, change, "lower")


class TestRegressionVerdict:
    CALM = [100.0, 100.5, 101.0, 99.5, 100.0, 100.2]

    def test_within_the_bound_is_ok(self):
        change = [x * 1.15 for x in self.CALM]
        assert ab.regression_verdict(self.CALM, change, "lower",
                                     0.2) == "ok"

    def test_beyond_the_bound_regresses(self):
        change = [x * 1.25 for x in self.CALM]
        assert ab.regression_verdict(self.CALM, change, "lower",
                                     0.2) == "regressed"
        assert ab.regression_verdict(self.CALM, change, "higher",
                                     0.2) == "ok"
        assert ab.regression_verdict(self.CALM,
                                     [x / 1.3 for x in self.CALM],
                                     "higher", 0.2) == "regressed"

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        wide = [60.0, 80.0, 100.0, 120.0, 140.0, 100.0]
        assert ab.spread(wide) > 0.2
        assert ab.regression_verdict(self.CALM, wide, "lower",
                                     0.2) == "unresolved"

    def test_every_change_run_better_resolves_a_wide_spread(self):
        parent = [100.0, 150.0, 200.0, 120.0]
        change = [50.0, 60.0, 90.0, 99.0]
        assert ab.spread(parent) > 0.2
        assert ab.regression_verdict(parent, change, "lower",
                                     0.2) == "ok"

    def test_one_run_a_side_has_no_spread(self):
        assert ab.quartiles([5.0]) == (5.0, 5.0, 5.0)
        assert ab.spread([5.0]) == 0.0
        assert ab.regression_verdict([5.0], [5.5], "lower", 0.2) == "ok"


class TestFailedPairs:
    """A pair with a failed run leaves both series, and wins count out
    of every pair run."""

    @staticmethod
    def _fake_runs(fail):
        """A ``run_once`` whose ``op_p50_ms`` falls pair by pair on both
        sides, the change 5 ms under the parent of its own pair;
        ``fail`` holds the ``(side, pair)`` runs that produce no
        result."""
        calls = {"parent": 0, "change": 0}

        def run_once(checkout, workload, seed):
            side = checkout.name
            pair = calls[side]
            calls[side] += 1
            if (side, pair) in fail:
                return None
            value = 200.0 - 10.0 * pair - (5.0 if side == "change" else 0)
            return {"correct": True, "failed": 0, "attempted": 3,
                    "metrics": {"op_p50_ms": {"value": value}}}
        return run_once

    def test_each_side_failing_in_a_different_pair(self, tmp_path,
                                                   monkeypatch, capsys):
        for side in ("parent", "change"):
            (tmp_path / side).mkdir()
        (tmp_path / "parent" / "BENCHMARK.json").write_text(
            '{"end_to_end": [{"name": "op_p50_ms", "unit": "ms", '
            '"better": "lower", "bound": 0.2}]}')
        monkeypatch.setattr(ab, "run_once", self._fake_runs(
            {("parent", 2), ("change", 5)}))
        code = ab.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                        "--workload", "w", "--pairs", "10"])
        out = capsys.readouterr().out
        assert code == 1
        assert "failed runs: parent 1, change 1" in out
        row, = [line for line in out.splitlines()
                if line.startswith("op_p50_ms")]
        # Eight whole pairs, each won by the change; had the series
        # shifted past the failures, pairs 3 to 5 would be lost. Eight
        # of ten pairs run is no claim.
        assert "8/10" in row.split()
        assert row.split()[4] == "no"

    def test_nine_wins_of_ten_pairs_run(self):
        parent = PARENT[:9]
        change = [x - 10.0 for x in parent]
        assert ab.claim_verdict(parent, change, "lower", pairs=10)
        assert not ab.claim_verdict(parent[:8], change[:8], "lower",
                                    pairs=10)


class TestPairDeltas:
    """Each pair's change − parent delta, and the deltas' quartiles —
    a readout beside the verdicts, which do not read it."""

    def test_deltas_on_fixed_numbers(self):
        change = [x - d for x, d in zip(PARENT, range(10))]
        deltas = ab.pair_deltas(PARENT, change)
        assert deltas == [-float(d) for d in range(10)]
        assert ab.quartiles(deltas) == (pytest.approx(-7.25),
                                        pytest.approx(-4.5),
                                        pytest.approx(-1.75))

    def test_main_prints_each_pair_delta_and_their_quartiles(
            self, tmp_path, monkeypatch, capsys):
        for side in ("parent", "change"):
            (tmp_path / side).mkdir()
        (tmp_path / "parent" / "BENCHMARK.json").write_text(
            '{"end_to_end": [{"name": "op_p50_ms", "unit": "ms", '
            '"better": "lower", "bound": 0.2}]}')
        monkeypatch.setattr(ab, "run_once",
                            TestFailedPairs._fake_runs({("change", 1)}))
        ab.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                 "--workload", "w", "--pairs", "4"])
        out = capsys.readouterr().out.splitlines()
        # The failed pair prints no delta; every whole pair reads -5.
        assert [line for line in out if " delta: " in line] == [
            f"pair {i} delta: op_p50_ms=-5" for i in (0, 2, 3)]
        assert out[-1].split() == ["delta", "op_p50_ms", "-5/-5/-5"]
