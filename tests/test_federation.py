import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import fit_round_evaluating_everything, sort_then_sum

from ppvf import federation, predictor, trace
from ppvf.federation import (
    AggregationError,
    LocalContribution,
    TrainConfig,
    aggregate_and_step,
    global_loss,
    local_round,
    run_fit_round,
)
from ppvf.predictor import GradientBundle, ModelParams, TrainWindow


def make_log(times, vids, catalog, horizon, edge=0, edge_count=1):
    n = len(times)
    return trace.EventLog(
        edge_ids=np.full(n, edge, dtype=np.int64),
        user_ids=np.zeros(n, dtype=np.int64),
        video_ids=np.asarray(vids, dtype=np.int64),
        timestamps=np.asarray(times, dtype=np.float64),
        catalog_size=catalog,
        edge_count=edge_count,
        horizon=horizon,
    )


def random_params(rng, catalog=4, dim=2):
    return ModelParams(
        base_rate=rng.uniform(0.1, 0.5, catalog),
        target_factors=rng.uniform(0.02, 0.1, (catalog, dim)),
        source_factors=rng.uniform(0.02, 0.1, (catalog, dim)),
        decay=0.01,
    )


class TestLocalRound:
    def test_empty_log_reduction(self):
        params = random_params(np.random.default_rng(0))
        window = TrainWindow(end=50.0, length=20.0)
        contrib = local_round(make_log([], [], 4, 50.0), params, window)
        assert contrib.ll == pytest.approx(-20.0 * float(np.sum(params.base_rate)))
        assert np.allclose(contrib.grads.base_rate, -20.0)
        assert np.allclose(contrib.grads.target_factors, 0.0)
        assert np.allclose(contrib.grads.source_factors, 0.0)

    def test_equals_direct_predictor_calls(self):
        rng = np.random.default_rng(1)
        params = random_params(rng)
        times = np.sort(rng.uniform(0, 50, 25))
        vids = rng.integers(0, 4, 25)
        log = make_log(times, vids, 4, 50.0)
        window = TrainWindow(end=50.0, length=30.0)
        contrib = local_round(log, params, window)
        assert contrib.ll == predictor.window_log_likelihood(params, log, window)
        direct = predictor.window_gradients(params, log, window)
        assert np.array_equal(contrib.grads.base_rate, direct.base_rate)
        assert np.array_equal(contrib.grads.target_factors, direct.target_factors)
        assert np.array_equal(contrib.grads.source_factors, direct.source_factors)

    def test_disjoint_halves_do_not_sum_to_union(self):
        # Per-edge likelihoods condition on per-edge histories; splitting one
        # log across two edges severs cross-half excitation, so the sum of
        # parts differs from the single-edge value.
        rng = np.random.default_rng(2)
        params = random_params(rng, catalog=2)
        times = np.linspace(1.0, 19.0, 10)
        vids = np.array([0, 1] * 5)
        window = TrainWindow(end=20.0, length=15.0)
        union = local_round(make_log(times, vids, 2, 20.0), params, window).ll
        first = local_round(make_log(times[:5], vids[:5], 2, 20.0), params, window).ll
        second = local_round(make_log(times[5:], vids[5:], 2, 20.0), params, window).ll
        assert first + second != pytest.approx(union, rel=1e-12)


def zero_grads(catalog, dim):
    return GradientBundle(np.zeros(catalog), np.zeros((catalog, dim)), np.zeros((catalog, dim)))


class TestAggregateAndStep:
    def test_zero_gradients_no_reg_leaves_params(self):
        params = random_params(np.random.default_rng(3))
        contribs = [LocalContribution(ll=-5.0, grads=zero_grads(4, 2))]
        new, loss = aggregate_and_step(params, contribs, TrainConfig())
        assert loss == pytest.approx(5.0)
        assert np.array_equal(new.base_rate, params.base_rate)
        assert np.array_equal(new.target_factors, params.target_factors)

    def test_split_contribution_gives_identical_step(self):
        rng = np.random.default_rng(4)
        params = random_params(rng)
        g = GradientBundle(rng.normal(size=4), rng.normal(size=(4, 2)), rng.normal(size=(4, 2)))
        half = GradientBundle(g.base_rate / 2, g.target_factors / 2, g.source_factors / 2)
        cfg = TrainConfig(learning_rate=0.01)
        whole, _ = aggregate_and_step(params, [LocalContribution(-3.0, g)], cfg)
        split, _ = aggregate_and_step(
            params,
            [LocalContribution(-1.5, half), LocalContribution(-1.5, half)],
            cfg,
        )
        assert np.allclose(whole.base_rate, split.base_rate, atol=1e-12)
        assert np.allclose(whole.target_factors, split.target_factors, atol=1e-12)
        assert np.allclose(whole.source_factors, split.source_factors, atol=1e-12)

    def test_hand_computed_update(self):
        # base_rate 1, rho 0.1, eta 0.5, likelihood gradient 0.3:
        # d(loss)/d(base) = 0.1 * 1 - 0.3 = -0.2, so the step adds 0.1.
        params = ModelParams(np.array([1.0]), np.full((1, 1), 1.0), np.full((1, 1), 1.0), 0.01)
        grads = GradientBundle(np.array([0.3]), np.zeros((1, 1)), np.zeros((1, 1)))
        cfg = TrainConfig(rho_base=0.1, learning_rate=0.5)
        new, _ = aggregate_and_step(params, [LocalContribution(-1.0, grads)], cfg)
        assert new.base_rate[0] == pytest.approx(1.1, rel=1e-12)

    def test_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(5)
        params = random_params(rng)
        contribs = [
            LocalContribution(
                ll=float(rng.normal()),
                grads=GradientBundle(
                    rng.normal(size=4), rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
                ),
            )
            for _ in range(7)
        ]
        cfg = TrainConfig(learning_rate=0.05, rho_base=0.01, rho_target=0.01, rho_source=0.01)
        forward, loss_f = aggregate_and_step(params, contribs, cfg)
        shuffled = [contribs[i] for i in rng.permutation(len(contribs))]
        backward, loss_b = aggregate_and_step(params, shuffled, cfg)
        assert loss_f == loss_b
        assert np.array_equal(forward.base_rate, backward.base_rate)
        assert np.array_equal(forward.target_factors, backward.target_factors)
        assert np.array_equal(forward.source_factors, backward.source_factors)

    def test_non_finite_contribution_names_edge(self):
        params = random_params(np.random.default_rng(6))
        bad = GradientBundle(np.array([np.nan] * 4), np.zeros((4, 2)), np.zeros((4, 2)))
        contribs = [
            LocalContribution(-1.0, zero_grads(4, 2)),
            LocalContribution(-1.0, bad),
        ]
        with pytest.raises(AggregationError, match="edge index 1"):
            aggregate_and_step(params, contribs, TrainConfig())

    def test_empty_contributions_rejected(self):
        params = random_params(np.random.default_rng(7))
        with pytest.raises(AggregationError):
            aggregate_and_step(params, [], TrainConfig())

    def test_positivity_floor_after_step(self):
        params = ModelParams(np.array([0.01]), np.full((1, 1), 0.01), np.full((1, 1), 0.01), 0.01)
        grads = GradientBundle(np.array([-100.0]), np.full((1, 1), -100.0), np.full((1, 1), -100.0))
        new, _ = aggregate_and_step(params, [LocalContribution(-1.0, grads)], TrainConfig(learning_rate=1.0))
        assert new.base_rate[0] == predictor.PARAM_FLOOR
        assert new.target_factors[0, 0] == predictor.PARAM_FLOOR


# Ties, signed zeros, and magnitudes from 1e-9 to 1e9 side by side.
_ADDENDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 1.0, -1.0, 1e9, -1e9]),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sorted_sum_is_bitwise_the_sort_reference(data):
    count = data.draw(st.integers(min_value=1, max_value=30))
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=5))
    arrays = [data.draw(hnp.arrays(np.float64, shape, elements=_ADDENDS)) for _ in range(count)]
    want = sort_then_sum(arrays)
    got = federation._sorted_sum(arrays)
    assert got.shape == want.shape
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


class TestRunFitRound:
    def _setup(self, seed=8):
        rng = np.random.default_rng(seed)
        gt = ModelParams(
            base_rate=rng.uniform(0.1, 0.4, 4),
            target_factors=rng.uniform(0.005, 0.03, (4, 2)),
            source_factors=rng.uniform(0.005, 0.03, (4, 2)),
            decay=0.01,
        )
        spec = trace.SyntheticSpec(4, 2, 100.0, gt, rng_seed=seed)
        log = trace.generate_synthetic(spec)
        parts = trace.partition_by_edge(log)
        window = TrainWindow(end=100.0, length=48.0)
        return parts, window

    def test_max_iters_zero_returns_params(self):
        parts, window = self._setup()
        params = ModelParams.constant(4, 2, 1.0, 0.01)
        result = run_fit_round(parts, params, window, TrainConfig(max_iters=0))
        assert np.array_equal(result.params.base_rate, params.base_rate)
        assert result.losses == []

    def test_loss_monotone_nonincreasing(self):
        parts, window = self._setup()
        params = ModelParams.constant(4, 2, 1.0, 0.01)
        result = run_fit_round(parts, params, window, TrainConfig(learning_rate=0.01, max_iters=15))
        assert len(result.losses) >= 2
        assert all(b <= a + 1e-12 for a, b in zip(result.losses, result.losses[1:]))

    def test_single_edge_single_iteration_equals_one_step(self):
        parts, window = self._setup()
        params = ModelParams.constant(4, 2, 1.0, 0.01)
        cfg = TrainConfig(learning_rate=1e-4, max_iters=1)
        result = run_fit_round(parts[:1], params, window, cfg)
        contrib = local_round(parts[0], params, window)
        stepped, _ = aggregate_and_step(params, [contrib], cfg)
        assert np.allclose(result.params.base_rate, stepped.base_rate, atol=1e-15)
        assert np.allclose(result.params.target_factors, stepped.target_factors, atol=1e-15)

    def _three_edges(self):
        rng = np.random.default_rng(21)
        gt = ModelParams(
            base_rate=rng.uniform(0.1, 0.4, 6),
            target_factors=rng.uniform(0.005, 0.03, (6, 2)),
            source_factors=rng.uniform(0.005, 0.03, (6, 2)),
            decay=0.01,
        )
        log = trace.generate_synthetic(trace.SyntheticSpec(6, 3, 120.0, gt, rng_seed=21))
        return trace.partition_by_edge(log), TrainWindow(end=120.0, length=60.0)

    # Backtracking steps; a run cut by max_iters; a run cut by the tolerance.
    _CONFIGS = [
        TrainConfig(learning_rate=0.5, max_iters=8, rho_base=0.01),
        TrainConfig(learning_rate=1e-3, max_iters=3),
        TrainConfig(learning_rate=0.01, max_iters=20, tolerance=1e-2),
    ]

    @pytest.mark.parametrize("cfg", _CONFIGS)
    def test_matches_evaluate_everything_loop_bitwise(self, cfg):
        parts, window = self._three_edges()
        params = ModelParams.constant(6, 2, 1.0, 0.01)
        got = run_fit_round(parts, params, window, cfg)
        want = fit_round_evaluating_everything(parts, params, window, cfg)
        assert got.losses == want.losses
        for name in ("base_rate", "target_factors", "source_factors"):
            assert getattr(got.params, name).tobytes() == getattr(want.params, name).tobytes()

    @pytest.mark.parametrize("cfg", _CONFIGS)
    def test_gradients_only_where_a_step_starts(self, cfg, monkeypatch):
        parts, window = self._three_edges()
        grad_points, step_origins = [], []
        real_gradients, real_step = federation.window_gradients, federation.aggregate_and_step

        def counting_gradients(p, *args, **kwargs):
            grad_points.append(p)
            return real_gradients(p, *args, **kwargs)

        def counting_step(p, *args, **kwargs):
            step_origins.append(p)
            return real_step(p, *args, **kwargs)

        monkeypatch.setattr(federation, "window_gradients", counting_gradients)
        monkeypatch.setattr(federation, "aggregate_and_step", counting_step)
        result = run_fit_round(parts, ModelParams.constant(6, 2, 1.0, 0.01), window, cfg)
        origins = [p for i, p in enumerate(step_origins) if i == 0 or p is not step_origins[i - 1]]
        assert [id(p) for p in grad_points] == [id(p) for p in origins for _ in parts]
        if cfg.learning_rate == 0.5:
            assert len(step_origins) > len(result.losses) - 1  # some candidates were rejected

    def test_all_params_above_floor_after_fit(self):
        parts, window = self._setup()
        params = ModelParams.constant(4, 2, 1.0, 0.01)
        result = run_fit_round(parts, params, window, TrainConfig(learning_rate=0.05, max_iters=10))
        assert result.params.base_rate.min() >= predictor.PARAM_FLOOR
        assert result.params.target_factors.min() >= predictor.PARAM_FLOOR
        assert result.params.source_factors.min() >= predictor.PARAM_FLOOR


def test_global_loss_includes_regularizers():
    params = ModelParams(np.array([2.0]), np.full((1, 1), 3.0), np.full((1, 1), 4.0), 0.01)
    contribs = [LocalContribution(-7.0, zero_grads(1, 1))]
    cfg = TrainConfig(rho_base=1.0, rho_target=1.0, rho_source=1.0)
    expected = 7.0 + 0.5 * (4.0 + 9.0 + 16.0)
    assert global_loss(params, contribs, cfg) == pytest.approx(expected)
