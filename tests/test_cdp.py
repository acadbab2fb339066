import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from scipy.stats import chisquare

from oracles import (
    ListCorrelationState,
    correlation_block_from_lists,
    correlation_block_from_running_sums,
    correlation_degree,
    dp_ratio_check,
    em_sample_per_draw,
    em_weights,
    identity_correlation_state,
    intensity,
    rebuild_state,
    update_correlation,
    video_sensitivity,
)
from ppvf import cdp
from ppvf.cdp import CorrelationState, em_sample
from ppvf.predictor import KernelState, ModelParams, advance_state
from ppvf.scheduler import CandidateSet


def random_params(rng, catalog=6, dim=2):
    return ModelParams(
        base_rate=rng.uniform(0.1, 0.5, catalog),
        target_factors=rng.uniform(0.05, 0.3, (catalog, dim)),
        source_factors=rng.uniform(0.05, 0.3, (catalog, dim)),
        decay=0.01,
    )


def fill_epoch(table, epoch, base, factors):
    """Write one epoch's rows of a correlation table. A state reads only the
    epochs it has reached, so a test may fill each one just before
    ``next_epoch`` moves the state to it."""
    table[epoch, :, 0] = base
    table[epoch, :, 1:] = factors


class TestCorrelationState:
    def test_single_update_is_rank_one(self):
        state = identity_correlation_state(3)
        lam = np.array([1.0, 2.0, 3.0])
        update_correlation(state, lam)
        assert np.allclose(state.cross, np.outer(lam, lam))
        assert np.allclose(state.sums, lam)
        assert np.allclose(state.sq_sums, lam**2)
        assert state.steps == 1

    def test_two_identical_updates_double(self):
        state = identity_correlation_state(3)
        lam = np.array([1.0, 2.0, 3.0])
        update_correlation(state, lam)
        update_correlation(state, lam)
        assert np.allclose(state.cross, 2 * np.outer(lam, lam))
        assert state.steps == 2

    def test_fifty_updates_match_batch_recomputation(self):
        rng = np.random.default_rng(0)
        sweeps = rng.uniform(0.0, 4.0, size=(50, 4))
        state = identity_correlation_state(4)
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
        state = identity_correlation_state(3)
        for _ in range(10):
            update_correlation(state, rng.uniform(0, 1, 3))
        assert np.allclose(np.diag(state.cross), state.sq_sums, rtol=1e-12)
        assert np.allclose(state.cross, state.cross.T)

    def test_non_finite_rejected(self):
        state = identity_correlation_state(2)
        with pytest.raises(ValueError):
            update_correlation(state, np.array([1.0, np.inf]))

    def test_keeps_no_catalog_sized_array_of_its_own(self):
        # Across epochs, only views of the shared table span the catalog:
        # the sums and squares are derived from the moments, not kept.
        rng = np.random.default_rng(16)
        catalog, dim, epochs = 40, 3, 3
        table = rng.uniform(0.05, 0.5, (epochs, catalog, 1 + dim))
        state = CorrelationState(table)
        for epoch in range(epochs):
            if epoch:
                state.next_epoch()
            for _ in range(4):
                state.update(rng.uniform(0.0, 2.0, dim))
        held = [v for v in vars(state).values() if isinstance(v, np.ndarray) and catalog in v.shape]
        assert held
        for value in held:
            assert np.shares_memory(value, table)


class TestCorrelationDegree:
    def test_identical_series_fully_correlated(self):
        state = identity_correlation_state(2)
        for v in (1.0, 3.0, 2.0, 5.0):
            update_correlation(state, np.array([v, v]))
        assert correlation_degree(state, 0, 1) == pytest.approx(1.0)

    def test_anti_correlated_series(self):
        state = identity_correlation_state(2)
        for v in (1.0, 3.0, 2.0, 5.0):
            update_correlation(state, np.array([v, 10.0 - v]))
        assert correlation_degree(state, 0, 1) == pytest.approx(-1.0)

    def test_constant_series_degenerate_zero(self):
        state = identity_correlation_state(2)
        for v in (1.0, 2.0, 3.0):
            update_correlation(state, np.array([4.0, v]))
        assert correlation_degree(state, 0, 1) == 0.0
        assert correlation_degree(state, 0, 0) == 0.0

    def test_factored_epochs_match_full_history_past_old_limit(self):
        # 5000 videos, past the old 4096-video dense limit: every pair reads
        # its Pearson correlation over the full history, across a refit.
        rng = np.random.default_rng(2)
        catalog, dim = 5000, 3
        table = np.empty((2, catalog, 1 + dim))
        state = CorrelationState(table)
        history = []
        for epoch in range(2):
            base = rng.uniform(0.1, 0.5, catalog)
            factors = rng.uniform(0.05, 0.3, (catalog, dim))
            fill_epoch(table, epoch, base, factors)
            if epoch:
                state.next_epoch()
            for _ in range(15):
                mix = rng.uniform(0.0, 2.0, dim)
                lam = base + factors @ mix
                update_correlation(state, mix)
                history.append(lam[[17, 4321]])
        batch = np.corrcoef(np.array(history).T)[0, 1]
        assert correlation_degree(state, 17, 4321) == pytest.approx(batch, abs=1e-9)


def epoch_histories(epochs, rng, catalog=60, dim=10):
    """A state and its list reference fed the same random sweeps, 2 to 5 per
    epoch, yielded after each epoch's sweeps."""
    table = np.empty((epochs, catalog, 1 + dim))
    state, ref = CorrelationState(table), ListCorrelationState(catalog)
    for epoch in range(epochs):
        base = rng.uniform(0.1, 0.5, catalog)
        factors = rng.uniform(0.05, 0.3, (catalog, dim))
        fill_epoch(table, epoch, base, factors)
        if epoch:
            state.next_epoch()
        ref.start_epoch(base, factors)
        for _ in range(int(rng.integers(2, 6))):
            mix = rng.uniform(0.0, 2.0, dim)
            state.update(mix)
            ref.update(base + factors @ mix, mix)
        yield state, ref


class TestCorrelationBlockMatchesEpochLists:
    """The shared epoch table gives the per-epoch list stacking's block, bit for bit."""

    @pytest.mark.parametrize("epochs", [1, 2, 15])
    def test_bit_for_bit(self, epochs):
        rng = np.random.default_rng(epochs)
        for state, ref in epoch_histories(epochs, rng):
            for k in (1, 4, 12):
                videos = rng.choice(60, k, replace=False)
                block = cdp.correlation_block(state, videos)
                assert block.tobytes() == correlation_block_from_lists(ref, videos).tobytes()

    @pytest.mark.parametrize("epochs", [1, 2, 15])
    def test_derived_sums_match_running_sums(self, epochs):
        # The sums and squares that the moments imply read as the running
        # sums of every sweep, and so does the block built from them.
        rng = np.random.default_rng(100 + epochs)
        for _ in range(10):
            for state, ref in epoch_histories(epochs, rng):
                videos = rng.choice(60, 12, replace=False)
                block = cdp.correlation_block(state, videos)
                assert block == pytest.approx(correlation_block_from_running_sums(ref, videos), rel=0, abs=1e-9)
            assert np.allclose(state.sums, ref.sums, rtol=1e-12, atol=0)
            assert np.allclose(state.sq_sums, ref.sq_sums, rtol=1e-12, atol=0)

    def test_next_epoch_stops_at_table_end(self):
        state = CorrelationState(np.ones((2, 3, 3)))
        state.next_epoch()
        assert len(state.epochs) == len(state.moments) == 2
        with pytest.raises(ValueError):
            state.next_epoch()

    def test_epoch_table_rows_hold_base_then_target_factors(self):
        rng = np.random.default_rng(14)
        params_list = [random_params(rng) for _ in range(3)]
        table = cdp.epoch_table(params_list)
        assert table.shape == (3, 6, 3)
        for rows, params in zip(table, params_list):
            assert rows[:, 0].tobytes() == params.base_rate.tobytes()
            assert rows[:, 1:].tobytes() == params.target_factors.tobytes()


def warm_corr(catalog, rng, steps=12):
    state = identity_correlation_state(catalog)
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
        state = advance_state(params, KernelState.empty(6, 2), 5.0, [1])
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
            full = intensity(params, state, i)
            for j in cands:
                keep = vids != j
                reduced_state = rebuild_state(params, times[keep], vids[keep], at)
                reduced = intensity(params, reduced_state, i)
                literal += abs(correlation_degree(corr, i, j)) * abs(full - reduced)
            assert closed == pytest.approx(literal, rel=1e-9, abs=1e-12)

    def test_undefined_correlation_reads_zero(self):
        rng = np.random.default_rng(6)
        params = random_params(rng)
        corr = identity_correlation_state(6)
        update_correlation(corr, rng.uniform(0, 1, 6))
        state = advance_state(params, KernelState.empty(6, 2), 1.0, [0])
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
    def test_zero_before_two_steps(self):
        # The one guard before correlation_block reads the state.
        params = random_params(np.random.default_rng(9), catalog=2)
        state = rebuild_state(params, np.array([0.5, 0.7]), np.array([0, 1]), 1.0)
        corr = identity_correlation_state(2)
        cands = CandidateSet(videos=(0, 1), cap=4)
        for _ in range(2):
            assert cdp.candidate_sensitivities(params, state, corr, cands).tolist() == [0.0, 0.0]
            update_correlation(corr, np.array([1.0, 2.0]))

    def test_independent_videos_reduce_to_self_terms(self):
        rng = np.random.default_rng(8)
        params = random_params(rng, catalog=2)
        corr = identity_correlation_state(2)
        # Orthogonal non-degenerate series: off-diagonal Pearson exactly zero.
        for lam in ([1.0, 1.0], [2.0, 1.0], [1.0, 2.0], [2.0, 2.0]):
            update_correlation(corr, np.array(lam))
        assert correlation_degree(corr, 0, 1) == pytest.approx(0.0, abs=1e-12)
        state = rebuild_state(params, np.array([0.5, 0.7]), np.array([0, 1]), 1.0)
        cands = CandidateSet(videos=(0, 1), cap=4)
        sens = cdp.candidate_sensitivities(params, state, corr, cands)
        assert sens.shape == (len(cands),)
        assert cdp.candidate_sensitivities(params, state, corr, CandidateSet(videos=(), cap=4)).shape == (0,)
        for k, i in enumerate(cands):
            self_term = float(params.target_factors[i] @ params.source_factors[i]) * float(
                state.decayed_counts[i]
            )
            assert sens[k] == pytest.approx(self_term, rel=1e-9)


class TestEmSample:
    def test_equal_utilities_uniform(self):
        cands = CandidateSet(videos=(0, 1, 2, 3), cap=4)
        rng = np.random.default_rng(9)
        counts = np.zeros(4)
        for _ in range(100_000):
            d = em_sample(cands, np.full(4, 2.5), 1.0, 1.0, 1, rng)
            counts[list(cands).index(d[0])] += 1
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
            first += d[0] == 7
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
        for sensitivity in (0.0, 1.0):
            rng = np.random.default_rng(0)
            before = rng.bit_generator.state
            d = em_sample(CandidateSet(videos=(), cap=4), np.array([]), 1.0, sensitivity, 4, rng)
            assert d == ()
            assert rng.bit_generator.state == before  # nothing drawn

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
            counts[d] += 1
        tv = 0.5 * sum(abs(counts[k] / n - exact[k]) for k in exact)
        assert tv <= 0.005

    def test_draw_count_capped_by_pool(self):
        cands = CandidateSet(videos=(1, 2), cap=4)
        d = em_sample(cands, np.array([1.0, 2.0]), 1.0, 1.0, 4, np.random.default_rng(12))
        assert sorted(d) == [1, 2]

    def test_composition_accounting_identity(self):
        # Charged cost at admission equals draws * per-draw budget when the
        # candidate set fills the cap: (1/f) * sum(costs) * f == sum(costs).
        costs = [Fraction(1), Fraction(1), Fraction(1), Fraction(1)]
        cap = 4
        eps_step = sum(costs) / cap
        assert eps_step * cap == sum(costs)


def em_case(rng):
    """A random ``em_sample`` input: pools of 0-12 candidates, caps of 1-12,
    utilities over seven decades (a fifth of them tied), sensitivity 0, inf
    or positive, and eps 0 or positive."""
    n = int(rng.integers(0, 13))
    scale = 10.0 ** rng.uniform(-3.0, 4.0)
    if rng.random() < 0.2:
        utilities = rng.integers(0, 3, n) * scale
    else:
        utilities = rng.uniform(0.0, 1.0, n) * scale
    sensitivity = [0.0, math.inf, float(10.0 ** rng.uniform(-3.0, 1.0))][int(rng.choice(3, p=[0.1, 0.1, 0.8]))]
    eps = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.01, 5.0))
    cands = CandidateSet(videos=tuple(rng.permutation(60)[:n].tolist()), cap=12)
    return cands, utilities, eps, sensitivity, int(rng.integers(1, 13))


class BoundaryUniforms:
    """Random source for the per-draw oracle whose every uniform lands on an
    entry of the normalized cumulative sum ``choice`` searches, or on the
    float just below it, so a one-ulp change in any probability moves a draw.
    ``choice`` searches as numpy's does (pinned by a test below)."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.uniforms = []

    def choice(self, n, p):
        cdf = p.cumsum()
        cdf /= cdf[-1]
        u = float(cdf[int(self.rng.integers(0, n))])
        if u >= 1.0 or self.rng.random() < 0.5:
            u = float(np.nextafter(u, 0.0))
        self.uniforms.append(u)
        return int(cdf.searchsorted(u, side="right"))


class ScriptedUniforms:
    """Random source whose ``random(k)`` returns the given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = uniforms

    def random(self, size):
        assert size == len(self.uniforms)
        return np.array(self.uniforms)


class TestEmSampleMatchesPerDrawOracle:
    """``em_sample`` draws what one ``rng.choice`` per draw over
    ``em_weights`` draws, from the same random stream."""

    def test_same_draws_and_stream_on_random_cases(self):
        cases = np.random.default_rng(8)
        for seed in range(10_000):
            cands, utilities, eps, sensitivity, cap = em_case(cases)
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = em_sample(cands, utilities, eps, sensitivity, cap, ours)
            assert got == em_sample_per_draw(cands, utilities, eps, sensitivity, cap, ref)
            assert ours.random() == ref.random()

    def test_same_draws_on_boundary_uniforms(self):
        cases = np.random.default_rng(9)
        for seed in range(5_000):
            cands, utilities, eps, sensitivity, cap = em_case(cases)
            boundary = BoundaryUniforms(seed)
            expected = em_sample_per_draw(cands, utilities, eps, sensitivity, cap, boundary)
            if not expected:
                continue
            got = em_sample(cands, utilities, eps, sensitivity, cap, ScriptedUniforms(boundary.uniforms))
            assert got == expected

    def test_choice_is_one_uniform_searched_in_the_cdf(self):
        cases = np.random.default_rng(10)
        for seed in range(2_000):
            p = cases.random(int(cases.integers(1, 13)))
            p /= p.sum()
            real, manual = np.random.default_rng(seed), np.random.default_rng(seed)
            cdf = p.cumsum()
            cdf /= cdf[-1]
            assert int(real.choice(len(p), p=p)) == int(cdf.searchsorted(manual.random(), side="right"))
            assert real.random() == manual.random()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
    def test_same_outcome_on_non_finite_scores(self, bad):
        cases = np.random.default_rng(11)
        for seed in range(300):
            n = int(cases.integers(1, 10))
            utilities = cases.uniform(0.0, 3.0, n)
            utilities[cases.choice(n, int(cases.integers(1, n + 1)), replace=False)] = bad
            cands = CandidateSet(videos=tuple(range(n)), cap=12)
            args = (cands, utilities, 1.5, [0.0, 1e-3, 0.5][seed % 3], int(cases.integers(1, 13)))
            try:
                expected = em_sample_per_draw(*args, np.random.default_rng(seed))
            except ValueError:
                with pytest.raises(ValueError):
                    em_sample(*args, np.random.default_rng(seed))
            else:
                assert em_sample(*args, np.random.default_rng(seed)) == expected

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("eps, sensitivity", [(1.0, -0.5), (1.0, math.nan), (math.inf, 1.0)])
    def test_same_rejection_of_bad_scales(self, eps, sensitivity):
        args = (CandidateSet(videos=(4, 5), cap=4), np.array([0.0, 1.0]), eps, sensitivity, 2)
        with pytest.raises(ValueError):
            em_sample_per_draw(*args, np.random.default_rng(0))
        with pytest.raises(ValueError):
            em_sample(*args, np.random.default_rng(0))


def signed_mixture(rng, n):
    """Floats with signed zeros, subnormals, ties and magnitudes over many
    decades, all of one sign or mixed."""
    kinds = rng.integers(0, 5, n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    values[kinds == 0] = rng.choice([0.0, -0.0], int(np.sum(kinds == 0)))
    values[kinds == 1] = rng.choice([5e-324, -5e-324, 1e-310, -2.2e-308], int(np.sum(kinds == 1)))
    values[kinds == 2] = rng.choice([1.0, -1.0, 0.1], int(np.sum(kinds == 2)))
    sign = rng.integers(0, 3)
    return np.abs(values) if sign == 0 else -np.abs(values) if sign == 1 else values


class TestPairwiseSum:
    """``pairwise_sum`` is ``np.add.reduce`` of a float64 vector, bit for bit."""

    def test_matches_numpy_reduce_bitwise(self):
        rng = np.random.default_rng(13)
        for n in [*range(1, 301), 512, 4096]:
            for _ in range(4):
                values = signed_mixture(rng, n)
                want = np.add.reduce(values)
                assert np.float64(cdp.pairwise_sum(values.tolist())).tobytes() == want.tobytes(), n

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 128, 129, 300])
    def test_all_negative_zeros_sum_to_positive_zero(self, n):
        got = cdp.pairwise_sum([-0.0] * n)
        assert np.float64(got).tobytes() == np.add.reduce(np.full(n, -0.0)).tobytes() == np.float64(0.0).tobytes()

    def test_empty_is_positive_zero(self):
        assert np.float64(cdp.pairwise_sum([])).tobytes() == np.add.reduce(np.empty(0)).tobytes()


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
