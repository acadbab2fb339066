import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    FractionLedger,
    offline_lp_bound,
    offline_optimum_all_masks,
    walk_best_utility,
    walk_random,
    walk_threshold,
)
from ppvf.cache import select_candidates_best_utility, select_candidates_random
from ppvf.scheduler import (
    CandidateSet,
    CompetitiveRatioViolation,
    InstanceTooLarge,
    PrivacyLedger,
    ThresholdConfig,
    admit_picked,
    empirical_cr,
    offline_optimum,
    random_cr_utilities,
    select_candidates,
    threshold,
)


def charge(ledger, video):
    """One charge of ``video`` through the ledger's one charge path."""
    admit_picked(np.array([video]), ledger)


def spent(ledger):
    """Each video's exact committed spend, as a list of ``Fraction``."""
    return [int(count) * ledger.cost for count in ledger.counts]


class FixedOrder:
    """Stand-in random source yielding a predetermined draw order."""

    def __init__(self, order):
        self.order = np.asarray(order)

    def permutation(self, n):
        assert n == len(self.order)
        return self.order.copy()


class TestThreshold:
    def test_zero_consumption_gives_lower_bound(self):
        cfg = ThresholdConfig(upper=20.0, lower=2.0)
        assert threshold(0.0, cfg) == 2.0

    def test_full_consumption_gives_upper_bound(self):
        cfg = ThresholdConfig(upper=20.0, lower=2.0)
        assert threshold(1.0, cfg) == pytest.approx(20.0, rel=1e-12)

    def test_continuity_at_knee_with_e_bounds(self):
        cfg = ThresholdConfig(upper=math.e, lower=1.0)
        assert cfg.knee == pytest.approx(0.5)
        lower_branch = threshold(cfg.knee, cfg)
        upper_branch = (cfg.upper * math.e / cfg.lower) ** cfg.knee * cfg.lower / math.e
        assert lower_branch == pytest.approx(1.0)
        assert upper_branch == pytest.approx(1.0, rel=1e-12)

    def test_monotone_on_grid(self):
        cfg = ThresholdConfig(upper=50.0, lower=0.5)
        grid = np.linspace(0.0, 1.0, 10_001)
        values = [threshold(g, cfg) for g in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=1.0, max_value=100.0),
    )
    def test_monotone_property(self, g1, g2, lower, ratio):
        cfg = ThresholdConfig(upper=lower * ratio, lower=lower)
        lo, hi = sorted((g1, g2))
        assert threshold(lo, cfg) <= threshold(hi, cfg) * (1 + 1e-12)

    def test_out_of_range_fraction_rejected(self):
        cfg = ThresholdConfig(upper=2.0, lower=1.0)
        with pytest.raises(ValueError):
            threshold(1.5, cfg)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            ThresholdConfig(upper=1.0, lower=2.0)


class TestLedger:
    def test_zero_budget_blocks_everything(self):
        ledger = PrivacyLedger.uniform(3, 0, 1, 2)
        assert not ledger.chargeable()[0]
        assert ledger.residual_fractions()[0] == 1.0

    def test_charge_is_exact_rational(self):
        ledger = PrivacyLedger.uniform(1, Fraction(15), Fraction(1), 4)
        for _ in range(15):
            charge(ledger, 0)
        assert spent(ledger)[0] == Fraction(15)
        assert ledger.residual_fractions()[0] == 0.0
        with pytest.raises(ValueError):
            charge(ledger, 0)

    def test_admit_picked_refuses_a_charge_past_the_limit(self):
        ledger = PrivacyLedger(Fraction(5, 2), 1, 3, [2, 1, 0])  # charge limit 2
        with pytest.raises(ValueError, match="exceed the per-video budget"):
            admit_picked(np.array([2, 0]), ledger)
        assert ledger.counts.tolist() == [2, 1, 0]  # a refused admission charges nothing
        chosen, ledger = admit_picked(np.array([2, 1]), ledger)
        assert chosen.videos == (2, 1) and ledger.counts.tolist() == [2, 2, 1]

    def test_candidate_set_validation(self):
        with pytest.raises(ValueError):
            CandidateSet(videos=(1, 2, 3), cap=2)
        with pytest.raises(ValueError):
            CandidateSet(videos=(1, 1), cap=4)


class TestSelectCandidates:
    def test_fresh_ledger_admits_first_draws(self):
        cfg = ThresholdConfig(upper=10.0, lower=1.0)
        ledger = PrivacyLedger.uniform(6, 15, 1, 3)
        utilities = np.full(6, 5.0)  # every ratio strictly above the lower bound
        rng = np.random.default_rng(7)
        expected_order = [int(v) for v in np.random.default_rng(7).permutation(6)[:3]]
        cands, ledger = select_candidates(utilities, ledger, cfg, rng)
        assert list(cands) == expected_order
        assert sum(spent(ledger)) == Fraction(3)

    def test_budget_guard_blocks_high_utility(self):
        cfg = ThresholdConfig(upper=1000.0, lower=0.001)
        ledger = PrivacyLedger.uniform(2, 1, 1, 2)  # cost equals the whole budget
        cands, _ = select_candidates(np.array([999.0, 999.0]), ledger, cfg, np.random.default_rng(0))
        assert len(cands) == 0

    def test_ratio_exactly_at_lower_bound_rejected_all_orders(self):
        lower, mid, high = 2.0, 5.0, 9.0
        cfg = ThresholdConfig(upper=10.0, lower=lower)
        from itertools import permutations

        for order in permutations(range(3)):
            ledger = PrivacyLedger.uniform(3, 2, 1, 2)
            utilities = np.array([lower, mid, high])  # unit costs: ratio == utility
            cands, _ = select_candidates(utilities, ledger, cfg, FixedOrder(order))
            assert 0 not in cands
            assert set(cands) == {1, 2}

    def test_scale_invariance_of_decisions(self):
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        utilities = np.random.default_rng(5).uniform(1.0, 9.0, 8)
        cfg = ThresholdConfig(upper=10.0, lower=0.5)
        scaled_cfg = ThresholdConfig(upper=10.0 * 37.0, lower=0.5 * 37.0)
        led_a = PrivacyLedger.uniform(8, 3, 1, 2)
        led_b = PrivacyLedger.uniform(8, 3, 1, 2)
        for _ in range(6):
            a, led_a = select_candidates(utilities, led_a, cfg, rng_a)
            b, led_b = select_candidates(utilities * 37.0, led_b, scaled_cfg, rng_b)
            assert tuple(a) == tuple(b)

    def test_budget_never_exceeded_randomized(self):
        rng = np.random.default_rng(11)
        cfg = ThresholdConfig(upper=40.0, lower=0.1)
        ledger = PrivacyLedger.uniform(5, Fraction(3), Fraction(1, 2), 3)
        for _ in range(500):
            utilities = rng.uniform(0.05, 20.0, 5)
            _, ledger = select_candidates(utilities, ledger, cfg, rng)
        for v in range(5):
            assert spent(ledger)[v] <= ledger.total_budget
            per_charge = spent(ledger)[v] / ledger.unit_cost[v]
            assert per_charge.denominator == 1  # whole number of committed charges


@st.composite
def ledger_pairs(draw):
    """A count ledger and its fraction-list twin with the same prior charges."""
    n = draw(st.integers(min_value=1, max_value=10))
    cost = draw(st.sampled_from([Fraction(1), Fraction(1, 3)]))
    budget = draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(5, 3), Fraction(4)]))
    cap = draw(st.integers(min_value=0, max_value=4))
    counts = draw(st.lists(st.integers(min_value=0, max_value=int(budget // cost)), min_size=n, max_size=n))
    twin = FractionLedger(n, budget, cost, cap)
    for video, count in enumerate(counts):
        for _ in range(count):
            twin.charge(video)
    return PrivacyLedger(budget, cost, cap, counts), twin


class TestSelectorsMatchSequentialWalk:
    """Each selector equals a literal walk over exact fractions: same
    candidates, same ledger, and the same random draws."""

    @settings(max_examples=200, deadline=None)
    @given(
        ledger_pairs(),
        st.lists(st.sampled_from([0.0, 0.4, 0.5, 1.0, 2.5, 7.0]), min_size=10, max_size=10),
        st.sampled_from(["threshold", "random", "best"]),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=3),
    )
    def test_equivalence(self, pair, values, selector, seed, steps):
        ledger, twin = pair
        utilities = np.array(values[: ledger.catalog_size])
        cfg = ThresholdConfig(upper=6.0, lower=0.5)
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(steps):
            if selector == "threshold":
                cands, ledger = select_candidates(utilities, ledger, cfg, rng)
                expected = walk_threshold(utilities, twin, cfg, rng_ref)
            elif selector == "random":
                cands, ledger = select_candidates_random(utilities, ledger, rng)
                expected = walk_random(twin, rng_ref)
            else:
                cands, ledger = select_candidates_best_utility(utilities, ledger)
                expected = walk_best_utility(utilities, twin)
            assert cands.videos == expected
            assert spent(ledger) == twin.consumed
            assert rng.bit_generator.state == rng_ref.bit_generator.state
        residuals = [float(1 - twin.consumed_fraction(v)) for v in range(ledger.catalog_size)]
        assert ledger.residual_fractions().tolist() == residuals


    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=30),
        st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]), min_size=1, max_size=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_best_utility_ties_straddling_the_cap(self, cap, extra, levels, seed):
        # Catalogs larger than the cap whose cap-th and (cap+1)-th chargeable
        # utilities tie, on fresh and partly spent ledgers.
        rng = np.random.default_rng(seed)
        n = cap + extra
        utilities = rng.choice(levels, n)
        ledger = PrivacyLedger.uniform(n, 3, 1, cap)
        twin = FractionLedger(n, 3, 1, cap)
        for video in rng.choice(n, int(rng.integers(0, n + 1))).tolist():
            if ledger.chargeable()[video]:
                charge(ledger, video)
                twin.charge(video)
        feasible = np.sort(utilities[ledger.chargeable()])[::-1]
        if len(feasible) > cap:
            utilities[utilities == feasible[cap]] = feasible[cap - 1]
        for _ in range(3):
            cands, ledger = select_candidates_best_utility(utilities, ledger)
            assert cands.videos == walk_best_utility(utilities, twin)
            assert spent(ledger) == twin.consumed


    def test_best_utility_nan_utilities_sort_last(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n, cap = int(rng.integers(2, 12)), int(rng.integers(1, 5))
            utilities = rng.choice([np.nan, 1.0, 2.0, -0.0, 0.0], n)
            ledger, twin = PrivacyLedger.uniform(n, 2, 1, cap), FractionLedger(n, 2, 1, cap)
            for _ in range(2):
                cands, ledger = select_candidates_best_utility(utilities, ledger)
                assert cands.videos == walk_best_utility(utilities, twin)


class TestThresholdBars:
    """The per-count bar table equals ``threshold`` evaluated per video."""

    @staticmethod
    def per_count_bars(ledger, cfg):
        num, den = ledger.charge_fraction.numerator, ledger.charge_fraction.denominator
        return np.array([threshold(int(count) * num / den, cfg) for count in ledger.counts])

    @settings(max_examples=200, deadline=None)
    @given(
        ledger_pairs(),
        st.sampled_from([ThresholdConfig(upper=6.0, lower=0.5), ThresholdConfig(upper=3.0, lower=3.0)]),
        st.lists(st.integers(min_value=0, max_value=9), max_size=12),
    )
    def test_table_equals_per_count(self, pair, cfg, charges):
        ledger, _ = pair
        assert ledger.threshold_bars(cfg).tolist() == self.per_count_bars(ledger, cfg).tolist()
        for video in charges:
            video %= ledger.catalog_size
            if ledger.counts[video] < ledger.charge_limit:
                ledger.counts[video] += 1  # admit_picked refuses any video at cap 0
            assert ledger.threshold_bars(cfg).tolist() == self.per_count_bars(ledger, cfg).tolist()

    def test_zero_budget_bars_sit_at_lower_bound(self):
        cfg = ThresholdConfig(upper=6.0, lower=0.5)
        ledger = PrivacyLedger.uniform(3, 0, 1, 2)
        assert ledger.threshold_bars(cfg).tolist() == self.per_count_bars(ledger, cfg).tolist() == [0.5] * 3

    def test_table_covers_only_counts_that_occur(self):
        cfg = ThresholdConfig(upper=6.0, lower=0.5)
        ledger = PrivacyLedger.uniform(4, 10**6, 1, 2)
        for _ in range(3):
            charge(ledger, 2)
        assert ledger.threshold_bars(cfg).tolist() == self.per_count_bars(ledger, cfg).tolist()
        assert len(ledger._bars) == 4

    def test_changed_config_rebuilds_the_table(self):
        first, second = ThresholdConfig(upper=6.0, lower=0.5), ThresholdConfig(upper=3.0, lower=1.0)
        ledger = PrivacyLedger.uniform(3, 4, 1, 2)
        charge(ledger, 1)
        for cfg in (first, second, first):
            assert ledger.threshold_bars(cfg).tolist() == self.per_count_bars(ledger, cfg).tolist()
            charge(ledger, 0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            PrivacyLedger(Fraction(4), Fraction(1), 2, np.array([0, -1]))

    def test_counts_past_the_charge_limit_rejected(self):
        with pytest.raises(ValueError, match="charge limit 4"):
            PrivacyLedger(4, 1, 2, [9, 0])
        assert PrivacyLedger(4, 1, 2, [4, 0]).residual_fractions().tolist() == [0.0, 1.0]


class TestOfflineOptimum:
    def test_single_step_ample_budget_takes_everything(self):
        ledger = PrivacyLedger.uniform(4, 100, 1, 4)
        util = np.array([[1.0, 2.0, 3.0, 4.0]])
        assert offline_optimum(util, ledger) == pytest.approx(10.0)

    def test_hand_enumerated_two_step_case(self):
        ledger = PrivacyLedger.uniform(2, 1, 1, 1)  # each video at most once overall
        util = np.array([[3.0, 1.0], [2.0, 5.0]])
        assert offline_optimum(util, ledger) == pytest.approx(8.0)

    def test_zero_budget_gives_zero(self):
        ledger = PrivacyLedger.uniform(3, 0, 1, 2)
        util = np.ones((2, 3))
        assert offline_optimum(util, ledger) == 0.0

    def test_guard_rejects_large_instances(self):
        ledger = PrivacyLedger.uniform(5, 10, 1, 2)
        with pytest.raises(InstanceTooLarge):
            offline_optimum(np.ones((6, 5)), ledger)

    def test_lp_bound_dominates_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            util = rng.uniform(0.0, 5.0, size=(3, 4))
            ledger = PrivacyLedger.uniform(4, 2, 1, 2)
            exact = offline_optimum(util, ledger)
            bound = offline_lp_bound(util, ledger)
            assert bound >= exact - 1e-9

    def test_matches_exhaustive_enumeration(self):
        # Independent oracle: enumerate every binary matrix.
        rng = np.random.default_rng(17)
        util = rng.uniform(0.0, 3.0, size=(3, 3))
        ledger = PrivacyLedger.uniform(3, 2, 1, 2)
        best = 0.0
        for mask in range(1 << 9):
            a = np.array([(mask >> k) & 1 for k in range(9)]).reshape(3, 3)
            if np.any(a.sum(axis=1) > 2) or np.any(a.sum(axis=0) > 2):
                continue
            best = max(best, float(np.sum(a * util)))
        assert offline_optimum(util, ledger) == pytest.approx(best)

    def test_equals_all_masks_oracle_with_ties(self):
        # Utilities on a coarse grid tie often, within and across steps.
        rng = np.random.default_rng(23)
        for _ in range(300):
            n_videos = int(rng.integers(1, 7))
            steps = int(rng.integers(1, 24 // n_videos + 1))
            util = rng.integers(0, 4, size=(steps, n_videos)) * rng.choice([0.5, 0.1, 1 / 3])
            ledger = PrivacyLedger.uniform(n_videos, int(rng.integers(0, 4)), 1, int(rng.integers(1, 5)))
            assert offline_optimum(util, ledger) == offline_optimum_all_masks(util, ledger)

    def test_guard_sized_single_step_takes_top_cap_quickly(self):
        # 24 videos in one step: the 2,325 subsets of at most 3, not 2**24 masks.
        util = np.random.default_rng(29).uniform(0.0, 5.0, size=(1, 24))
        ledger = PrivacyLedger.uniform(24, 20, 1, 3)
        started = time.perf_counter()
        value = offline_optimum(util, ledger)
        elapsed = time.perf_counter() - started
        assert value == pytest.approx(float(np.sort(util[0])[-3:].sum()), rel=1e-12)
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds the 5 s budget"


class TestEmpiricalCr:
    def test_equal_bounds_capacity_slack_is_optimal(self):
        value = 4.0
        cfg = ThresholdConfig(upper=value, lower=value * (1 - 1e-9))
        utilities = np.full((1, 3, 2), value)
        worst = empirical_cr(utilities, PrivacyLedger.uniform(2, 20, 1, 2), cfg, seed=0)
        assert worst == pytest.approx(1.0)

    def test_single_step_equals_optimum_when_capacity_covers_admissible(self):
        cfg = ThresholdConfig(upper=10.0, lower=1.0)
        utilities = random_cr_utilities(count=20, n_videos=3, steps=1, cfg=cfg, seed=5)
        worst = empirical_cr(utilities, PrivacyLedger.uniform(3, 20, 1, 3), cfg, seed=6)
        assert worst == pytest.approx(1.0)

    def test_small_suite_within_bound(self):
        cfg = ThresholdConfig(upper=10.0, lower=1.0)
        utilities = random_cr_utilities(count=40, n_videos=4, steps=6, cfg=cfg, seed=9)
        worst = empirical_cr(utilities, PrivacyLedger.uniform(4, 20, 1, 3), cfg, seed=10)
        assert worst <= cfg.cr_bound * 1.15

    def test_binding_budget_exercises_rising_threshold(self):
        # 24 steps against a 20-charge budget force the upper threshold branch.
        cfg = ThresholdConfig(upper=8.0, lower=1.0)
        utilities = random_cr_utilities(count=30, n_videos=1, steps=24, cfg=cfg, seed=21)
        template = PrivacyLedger.uniform(1, 20, 1, 1)
        rng = np.random.default_rng(1)
        saturated = 0
        for instance in utilities:
            ledger = template.copy()
            for step in instance:
                _, ledger = select_candidates(step, ledger, cfg, rng)
            saturated += spent(ledger)[0] / ledger.total_budget > Fraction(1, 2)
        assert saturated > 0
        worst = empirical_cr(utilities, template, cfg, seed=22)
        assert worst <= cfg.cr_bound * 1.15

    @pytest.mark.xfail(strict=True, raises=CompetitiveRatioViolation)
    def test_binding_prefetch_cap_within_bound(self):
        # The shape of the eval-cr guard run (24 videos, one step, cap 3, two
        # instances) over seeds 0-11. A step admits the first 3 eligible videos
        # of a random order and can lose up to upper/lower against the best 3;
        # 1 + ln(upper/lower) bounds per-video budgets, not that cap.
        cfg = ThresholdConfig(upper=10.0, lower=1.0)
        ledger = PrivacyLedger.uniform(24, 20, 1, 3)
        for seed in range(12):
            utilities = random_cr_utilities(count=2, n_videos=24, steps=1, cfg=cfg, seed=seed)
            empirical_cr(utilities, ledger, cfg, seed=seed + 1)

    def test_assumption_violation_rejected(self):
        cfg = ThresholdConfig(upper=10.0, lower=1.0)
        ledger = PrivacyLedger.uniform(2, 10, 1, 2)  # cost > budget/20
        with pytest.raises(ValueError, match="total_budget / 20"):
            empirical_cr(np.full((1, 2, 2), 5.0), ledger, cfg, seed=0)

    def test_violation_raises(self):
        # A rigged "online" comparison cannot happen through the public API,
        # so exercise the guard directly with an impossible slack.
        cfg = ThresholdConfig(upper=10.0, lower=1.0)
        utilities = random_cr_utilities(count=5, n_videos=4, steps=6, cfg=cfg, seed=30)
        ledger = PrivacyLedger.uniform(4, 20, 1, 1)
        worst = empirical_cr(utilities, ledger, cfg, seed=31)
        if worst > 1.0:
            with pytest.raises(CompetitiveRatioViolation):
                empirical_cr(utilities, ledger, cfg, seed=31, slack_factor=(worst - 1.0) / cfg.cr_bound - 1.0)


def test_online_allocation_totals_admitted_utility():
    cfg = ThresholdConfig(upper=10.0, lower=1.0)
    (instance,) = random_cr_utilities(1, 3, 4, cfg, seed=40)
    ledger, rng, total = PrivacyLedger.uniform(3, 20, 1, 2), np.random.default_rng(41), 0.0
    for step in instance:
        chosen, ledger = select_candidates(step, ledger, cfg, rng)
        total += float(step[list(chosen.videos)].sum())
    assert total > 0.0
