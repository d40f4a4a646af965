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
