import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from scipy.stats import chisquare

from ppvf import cdp, predictor
from ppvf.cdp import (
    CorrelationState,
    PrefetchDecision,
    correlation_degree,
    dp_ratio_check,
    em_sample,
    em_weights,
    global_sensitivity,
    update_correlation,
    video_sensitivity,
)
from ppvf.predictor import KernelState, ModelParams, advance_state, rebuild_state
from ppvf.scheduler import CandidateSet


def random_params(rng, catalog=6, dim=2):
    return ModelParams(
        base_rate=rng.uniform(0.1, 0.5, catalog),
        target_factors=rng.uniform(0.05, 0.3, (catalog, dim)),
        source_factors=rng.uniform(0.05, 0.3, (catalog, dim)),
        decay=0.01,
    )


class TestCorrelationState:
    def test_single_update_is_rank_one(self):
        state = CorrelationState(3)
        lam = np.array([1.0, 2.0, 3.0])
        update_correlation(state, lam)
        assert np.allclose(state.cross, np.outer(lam, lam))
        assert np.allclose(state.sums, lam)
        assert np.allclose(state.sq_sums, lam**2)
        assert state.steps == 1

    def test_two_identical_updates_double(self):
        state = CorrelationState(3)
        lam = np.array([1.0, 2.0, 3.0])
        update_correlation(state, lam)
        update_correlation(state, lam)
        assert np.allclose(state.cross, 2 * np.outer(lam, lam))
        assert state.steps == 2

    def test_fifty_updates_match_batch_recomputation(self):
        rng = np.random.default_rng(0)
        sweeps = rng.uniform(0.0, 4.0, size=(50, 4))
        state = CorrelationState(4)
        for lam in sweeps:
            update_correlation(state, lam)
        assert np.allclose(state.cross, sweeps.T @ sweeps, rtol=1e-9)
        assert np.allclose(state.sums, sweeps.sum(axis=0), rtol=1e-9)
        assert np.allclose(state.sq_sums, (sweeps**2).sum(axis=0), rtol=1e-9)
        batch = np.corrcoef(sweeps.T)
        for i in range(4):
            for j in range(4):
                assert correlation_degree(state, i, j) == pytest.approx(batch[i, j], abs=1e-9)

    def test_diagonal_equals_square_sums(self):
        rng = np.random.default_rng(1)
        state = CorrelationState(3)
        for _ in range(10):
            update_correlation(state, rng.uniform(0, 1, 3))
        assert np.allclose(np.diag(state.cross), state.sq_sums, rtol=1e-12)
        assert np.allclose(state.cross, state.cross.T)

    def test_non_finite_rejected(self):
        state = CorrelationState(2)
        with pytest.raises(ValueError):
            update_correlation(state, np.array([1.0, np.inf]))


class TestCorrelationDegree:
    def test_identical_series_fully_correlated(self):
        state = CorrelationState(2)
        for v in (1.0, 3.0, 2.0, 5.0):
            update_correlation(state, np.array([v, v]))
        assert correlation_degree(state, 0, 1) == pytest.approx(1.0)

    def test_anti_correlated_series(self):
        state = CorrelationState(2)
        for v in (1.0, 3.0, 2.0, 5.0):
            update_correlation(state, np.array([v, 10.0 - v]))
        assert correlation_degree(state, 0, 1) == pytest.approx(-1.0)

    def test_constant_series_degenerate_zero(self):
        state = CorrelationState(2)
        for v in (1.0, 2.0, 3.0):
            update_correlation(state, np.array([4.0, v]))
        assert correlation_degree(state, 0, 1) == 0.0
        assert correlation_degree(state, 0, 0) == 0.0

    def test_undefined_before_two_steps(self):
        state = CorrelationState(2)
        update_correlation(state, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            correlation_degree(state, 0, 1)

    def test_factored_epochs_match_full_history_past_old_limit(self):
        # 5000 videos, past the old 4096-video dense limit: every pair reads
        # its Pearson correlation over the full history, across a refit.
        rng = np.random.default_rng(2)
        catalog, dim = 5000, 3
        state = CorrelationState(catalog)
        history = []
        for _ in range(2):
            base = rng.uniform(0.1, 0.5, catalog)
            factors = rng.uniform(0.05, 0.3, (catalog, dim))
            state.start_epoch(base, factors)
            for _ in range(15):
                mix = rng.uniform(0.0, 2.0, dim)
                lam = base + factors @ mix
                update_correlation(state, lam, mix)
                history.append(lam[[17, 4321]])
        batch = np.corrcoef(np.array(history).T)[0, 1]
        assert correlation_degree(state, 17, 4321) == pytest.approx(batch, abs=1e-9)


def warm_corr(catalog, rng, steps=12):
    state = CorrelationState(catalog)
    for _ in range(steps):
        update_correlation(state, rng.uniform(0.1, 2.0, catalog))
    return state


class TestVideoSensitivity:
    def test_empty_history_zero(self):
        rng = np.random.default_rng(3)
        params = random_params(rng)
        corr = warm_corr(6, rng)
        cands = CandidateSet(videos=(0, 2), cap=4)
        state = KernelState.empty(6, 2)
        assert video_sensitivity(params, state, corr, cands, 0) == 0.0

    def test_single_candidate_own_zero_lag_event(self):
        rng = np.random.default_rng(4)
        params = random_params(rng)
        # Perfectly correlated self-series: correlation 1, counts 1.
        corr = warm_corr(6, rng)
        state = advance_state(params, KernelState.empty(6, 2), 5.0, [5.0], [1])
        cands = CandidateSet(videos=(1,), cap=4)
        expected = float(params.target_factors[1] @ params.source_factors[1])
        assert video_sensitivity(params, state, corr, cands, 1) == pytest.approx(expected, rel=1e-12)

    def test_closed_form_matches_deletion_rebuild(self):
        rng = np.random.default_rng(5)
        params = random_params(rng)
        times = np.sort(rng.uniform(0, 40, 30))
        vids = rng.integers(0, 6, 30)
        at = 41.0
        corr = warm_corr(6, rng)
        state = rebuild_state(params, times, vids, at)
        cands = CandidateSet(videos=(0, 2, 4, 5), cap=4)
        for i in cands:
            closed = video_sensitivity(params, state, corr, cands, i)
            literal = 0.0
            full = predictor.intensity(params, state, i)
            for j in cands:
                keep = vids != j
                reduced_state = rebuild_state(params, times[keep], vids[keep], at)
                reduced = predictor.intensity(params, reduced_state, i)
                literal += abs(correlation_degree(corr, i, j)) * abs(full - reduced)
            assert closed == pytest.approx(literal, rel=1e-9, abs=1e-12)

    def test_undefined_correlation_reads_zero(self):
        rng = np.random.default_rng(6)
        params = random_params(rng)
        corr = CorrelationState(6)
        update_correlation(corr, rng.uniform(0, 1, 6))
        state = advance_state(params, KernelState.empty(6, 2), 1.0, [1.0], [0])
        cands = CandidateSet(videos=(0,), cap=4)
        assert video_sensitivity(params, state, corr, cands, 0) == 0.0

    def test_non_candidate_rejected(self):
        rng = np.random.default_rng(7)
        params = random_params(rng)
        corr = warm_corr(6, rng)
        cands = CandidateSet(videos=(0, 1), cap=4)
        with pytest.raises(ValueError):
            video_sensitivity(params, KernelState.empty(6, 2), corr, cands, 3)


class TestGlobalSensitivity:
    def test_singleton(self):
        assert global_sensitivity({3: 0.7}) == 0.7

    def test_independent_videos_reduce_to_self_terms(self):
        rng = np.random.default_rng(8)
        params = random_params(rng, catalog=2)
        corr = CorrelationState(2)
        # Orthogonal non-degenerate series: off-diagonal Pearson exactly zero.
        for lam in ([1.0, 1.0], [2.0, 1.0], [1.0, 2.0], [2.0, 2.0]):
            update_correlation(corr, np.array(lam))
        assert correlation_degree(corr, 0, 1) == pytest.approx(0.0, abs=1e-12)
        state = rebuild_state(params, np.array([0.5, 0.7]), np.array([0, 1]), 1.0)
        cands = CandidateSet(videos=(0, 1), cap=4)
        sens = cdp.candidate_sensitivities(params, state, corr, cands)
        for i in cands:
            self_term = float(params.target_factors[i] @ params.source_factors[i]) * float(
                state.decayed_counts[i]
            )
            assert sens[i] == pytest.approx(self_term, rel=1e-9)
        assert global_sensitivity(sens) == pytest.approx(max(sens.values()))

    def test_four_candidate_max(self):
        values = {0: 0.1, 3: 0.9, 5: 0.4, 6: 0.2}
        assert global_sensitivity(values) == 0.9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            global_sensitivity({})


class TestEmSample:
    def test_equal_utilities_uniform(self):
        cands = CandidateSet(videos=(0, 1, 2, 3), cap=4)
        rng = np.random.default_rng(9)
        counts = np.zeros(4)
        for _ in range(100_000):
            d = em_sample(cands, np.full(4, 2.5), 1.0, 1.0, 1, rng)
            counts[list(cands).index(d.chosen[0])] += 1
        _, p_value = chisquare(counts)
        assert p_value > 0.01

    def test_two_candidate_probabilities(self):
        sensitivity = 0.8
        utilities = np.array([2 * sensitivity, 0.0])
        cands = CandidateSet(videos=(7, 9), cap=4)
        rng = np.random.default_rng(10)
        first = 0
        n = 100_000
        for _ in range(n):
            d = em_sample(cands, utilities, 1.0, sensitivity, 1, rng)
            first += d.chosen[0] == 7
        expected = math.e / (math.e + 1.0)
        assert expected == pytest.approx(0.7311, abs=1e-4)
        assert first / n == pytest.approx(expected, abs=0.01)

    def test_zero_budget_uniform_regardless_of_utilities(self):
        probs = em_weights(np.array([100.0, 1.0, 0.1]), 0.0, 5.0)
        assert np.allclose(probs, 1 / 3)

    def test_zero_sensitivity_uniform(self):
        probs = em_weights(np.array([100.0, 1.0]), 1.0, 0.0)
        assert np.allclose(probs, 0.5)

    def test_empty_candidates_empty_decision(self):
        d = em_sample(CandidateSet(videos=(), cap=4), np.array([]), 1.0, 1.0, 4, np.random.default_rng(0))
        assert d.chosen == ()

    def test_without_replacement_matches_enumeration(self):
        utilities = np.array([1.0, 0.4, 0.1])
        cands = CandidateSet(videos=(5, 6, 7), cap=4)
        eps, sens, draws = 1.2, 0.5, 2
        exact = {}
        base = em_weights(utilities, eps, sens)
        for a, b in permutations(range(3), draws):
            remaining = [k for k in range(3) if k != a]
            second = em_weights(utilities[remaining], eps, sens)
            exact[(5 + a, 5 + b)] = base[a] * second[remaining.index(b)]
        rng = np.random.default_rng(11)
        n = 100_000
        counts = {key: 0 for key in exact}
        for _ in range(n):
            d = em_sample(cands, utilities, eps, sens, draws, rng)
            counts[d.chosen] += 1
        tv = 0.5 * sum(abs(counts[k] / n - exact[k]) for k in exact)
        assert tv <= 0.005

    def test_draw_count_capped_by_pool(self):
        cands = CandidateSet(videos=(1, 2), cap=4)
        d = em_sample(cands, np.array([1.0, 2.0]), 1.0, 1.0, 4, np.random.default_rng(12))
        assert sorted(d.chosen) == [1, 2]

    def test_composition_accounting_identity(self):
        # Charged cost at admission equals draws * per-draw budget when the
        # candidate set fills the cap: (1/f) * sum(costs) * f == sum(costs).
        costs = [Fraction(1), Fraction(1), Fraction(1), Fraction(1)]
        cap = 4
        eps_step = sum(costs) / cap
        assert eps_step * cap == sum(costs)


class TestDpRatioCheck:
    def _cands(self, n):
        return CandidateSet(videos=tuple(range(n)), cap=8)

    def test_identical_vectors_zero(self):
        lam = np.array([1.0, 2.0, 3.0])
        assert dp_ratio_check(self._cands(3), lam, lam.copy(), 1.0, 0.5) == 0.0

    def test_singleton_degenerate_zero(self):
        lam = np.array([1.0])
        adj = np.array([1.0 + 0.5])
        assert dp_ratio_check(self._cands(1), lam, adj, 1.0, 0.5) == pytest.approx(0.0)

    def test_three_candidates_bounded_by_budget(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            lam = rng.uniform(0, 3, 3)
            sens = float(rng.uniform(0.1, 1.0))
            adj = lam.copy()
            adj[int(rng.integers(0, 3))] += sens  # worst allowed perturbation
            eps = float(rng.uniform(0.1, 2.0))
            ratio = dp_ratio_check(self._cands(3), lam, adj, eps, sens)
            assert ratio <= eps

    def test_premise_violation_rejected(self):
        lam = np.array([1.0, 2.0])
        adj = np.array([1.0, 4.0])
        with pytest.raises(ValueError):
            dp_ratio_check(self._cands(2), lam, adj, 1.0, 0.5)
