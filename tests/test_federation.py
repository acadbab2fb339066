import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import (
    aggregate_and_step_out_of_place,
    fit_round_evaluating_everything,
    gradients,
    log_likelihood,
    sort_then_sum,
)

from ppvf import federation, predictor, trace
from ppvf.federation import (
    AggregationError,
    TrainConfig,
    aggregate_and_step,
    global_loss,
    run_fit_round,
    sum_gradients,
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


def recording(calls, fn):
    """``fn``, appending its first argument to ``calls`` on every call."""

    def wrapper(first, *args, **kwargs):
        calls.append(first)
        return fn(first, *args, **kwargs)

    return wrapper


def random_params(rng, catalog=4, dim=2):
    return ModelParams(
        base_rate=rng.uniform(0.1, 0.5, catalog),
        target_factors=rng.uniform(0.02, 0.1, (catalog, dim)),
        source_factors=rng.uniform(0.02, 0.1, (catalog, dim)),
        decay=0.01,
    )


class TestLocalRound:
    """An edge's upload: its window likelihood and gradients on its own log."""

    def test_empty_log_reduction(self):
        params = random_params(np.random.default_rng(0))
        window = TrainWindow(end=50.0, length=20.0)
        log = make_log([], [], 4, 50.0)
        ll = log_likelihood(params, log, window)
        grads = gradients(params, log, window)
        assert ll == pytest.approx(-20.0 * float(np.sum(params.base_rate)))
        assert np.allclose(grads.base_rate, -20.0)
        assert np.allclose(grads.target_factors, 0.0)
        assert np.allclose(grads.source_factors, 0.0)

    def test_disjoint_halves_do_not_sum_to_union(self):
        # Per-edge likelihoods condition on per-edge histories; splitting one
        # log across two edges severs cross-half excitation, so the sum of
        # parts differs from the single-edge value.
        rng = np.random.default_rng(2)
        params = random_params(rng, catalog=2)
        times = np.linspace(1.0, 19.0, 10)
        vids = np.array([0, 1] * 5)
        window = TrainWindow(end=20.0, length=15.0)

        def ll(t, v):
            return log_likelihood(params, make_log(t, v, 2, 20.0), window)

        assert ll(times[:5], vids[:5]) + ll(times[5:], vids[5:]) != pytest.approx(ll(times, vids), rel=1e-12)


def zero_grads(catalog, dim):
    return GradientBundle(np.zeros(catalog), np.zeros((catalog, dim)), np.zeros((catalog, dim)))


def random_grads(rng, catalog=4, dim=2):
    return GradientBundle(rng.normal(size=catalog), rng.normal(size=(catalog, dim)), rng.normal(size=(catalog, dim)))


def assert_same_bundle(a, b):
    for name in ("base_rate", "target_factors", "source_factors"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


class TestAggregateAndStep:
    def test_zero_gradients_no_reg_leaves_params(self):
        params = random_params(np.random.default_rng(3))
        new = aggregate_and_step(params, sum_gradients([zero_grads(4, 2)]), TrainConfig())
        assert global_loss(params, [-5.0], TrainConfig()) == pytest.approx(5.0)
        assert np.array_equal(new.base_rate, params.base_rate)
        assert np.array_equal(new.target_factors, params.target_factors)

    def test_split_contribution_gives_identical_step(self):
        rng = np.random.default_rng(4)
        params = random_params(rng)
        g = random_grads(rng)
        half = GradientBundle(g.base_rate / 2, g.target_factors / 2, g.source_factors / 2)
        cfg = TrainConfig(learning_rate=0.01)
        whole = aggregate_and_step(params, sum_gradients([g]), cfg)
        split = aggregate_and_step(params, sum_gradients([half, half]), cfg)
        assert global_loss(params, [-3.0], cfg) == global_loss(params, [-1.5, -1.5], cfg)
        assert np.allclose(whole.base_rate, split.base_rate, atol=1e-12)
        assert np.allclose(whole.target_factors, split.target_factors, atol=1e-12)
        assert np.allclose(whole.source_factors, split.source_factors, atol=1e-12)

    def test_hand_computed_update(self):
        # base_rate 1, rho 0.1, eta 0.5, likelihood gradient 0.3:
        # d(loss)/d(base) = 0.1 * 1 - 0.3 = -0.2, so the step adds 0.1.
        params = ModelParams(np.array([1.0]), np.full((1, 1), 1.0), np.full((1, 1), 1.0), 0.01)
        grads = GradientBundle(np.array([0.3]), np.zeros((1, 1)), np.zeros((1, 1)))
        cfg = TrainConfig(rho_base=0.1, learning_rate=0.5)
        new = aggregate_and_step(params, grads, cfg)
        assert new.base_rate[0] == pytest.approx(1.1, rel=1e-12)

    def test_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(5)
        params = random_params(rng)
        lls = [float(rng.normal()) for _ in range(7)]
        grads = [random_grads(rng) for _ in range(7)]
        cfg = TrainConfig(learning_rate=0.05, rho_base=0.01, rho_target=0.01, rho_source=0.01)
        order = rng.permutation(7)
        forward, backward = sum_gradients(grads), sum_gradients([grads[i] for i in order])
        assert global_loss(params, lls, cfg) == global_loss(params, [lls[i] for i in order], cfg)
        assert_same_bundle(forward, backward)
        assert_same_bundle(aggregate_and_step(params, forward, cfg), aggregate_and_step(params, backward, cfg))

    def test_non_finite_contribution_names_edge(self):
        params = random_params(np.random.default_rng(6))
        bad = GradientBundle(np.array([np.nan] * 4), np.zeros((4, 2)), np.zeros((4, 2)))
        with pytest.raises(AggregationError, match="edge index 1"):
            sum_gradients([zero_grads(4, 2), bad])
        with pytest.raises(AggregationError, match="edge index 1"):
            global_loss(params, [-1.0, math.inf], TrainConfig())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("block", ["base_rate", "target_factors", "source_factors"])
    def test_non_finite_entry_names_its_edge_among_many(self, bad, block):
        rng = np.random.default_rng(9)
        grads = [random_grads(rng, catalog=6, dim=3) for _ in range(25)]
        getattr(grads[2], block)[(4,) if block == "base_rate" else (4, 1)] = bad
        # A later edge's opposite infinity must not hide the first culprit.
        getattr(grads[20], block)[(4,) if block == "base_rate" else (4, 1)] = -bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AggregationError, match="edge index 2$"):
                sum_gradients(grads)

    def test_finite_addends_that_overflow_return_the_overflowed_sum(self):
        rng = np.random.default_rng(10)
        grads = [random_grads(rng, catalog=6, dim=3) for _ in range(25)]
        for g in grads[3:6]:
            g.target_factors[1, 2] = 1e308
        with np.errstate(over="ignore"):
            summed = sum_gradients(grads)
            want = sort_then_sum([g.target_factors for g in grads])
        assert summed.target_factors[1, 2] == math.inf
        assert summed.target_factors.tobytes() == want.tobytes()

    def test_empty_contributions_rejected(self):
        with pytest.raises(AggregationError):
            sum_gradients([])

    def test_positivity_floor_after_step(self):
        params = ModelParams(np.array([0.01]), np.full((1, 1), 0.01), np.full((1, 1), 0.01), 0.01)
        grads = GradientBundle(np.array([-100.0]), np.full((1, 1), -100.0), np.full((1, 1), -100.0))
        new = aggregate_and_step(params, grads, TrainConfig(learning_rate=1.0))
        assert new.base_rate[0] == predictor.PARAM_FLOOR
        assert new.target_factors[0, 0] == predictor.PARAM_FLOOR


@pytest.mark.parametrize("rho", [0.0, 1e-4, 3.0])
def test_aggregate_and_step_matches_out_of_place_oracle(rho):
    rng = np.random.default_rng(int(rho * 10) + 1)
    cfg = TrainConfig(rho_base=rho, rho_target=rho / 2, rho_source=rho, learning_rate=0.05)
    clamped = 0
    for _ in range(20):
        params = ModelParams(
            rng.uniform(0.0, 2.0, 40), rng.uniform(0.0, 2.0, (40, 3)), rng.uniform(0.0, 2.0, (40, 3)), 0.01
        )
        # Gradients from -1e3 to 1e3, with signed zeros: some steps clamp.
        scale = 10.0 ** rng.integers(-3, 4)
        signed_zeros = np.zeros((40, 3)) * rng.choice([-1.0, 1.0], (40, 3))
        summed = GradientBundle(rng.normal(0.0, scale, 40), rng.normal(0.0, scale, (40, 3)), signed_zeros)
        for eta in (None, 1.0, 1e-9):
            got = aggregate_and_step(params, summed, cfg, learning_rate=eta)
            want = aggregate_and_step_out_of_place(params, summed, cfg, learning_rate=eta)
            for block in ("base_rate", "target_factors", "source_factors"):
                assert getattr(got, block).tobytes() == getattr(want, block).tobytes(), block
            clamped += int(np.count_nonzero(got.base_rate == predictor.PARAM_FLOOR))
    assert clamped


def test_sorted_sum_reuses_scratch_across_edge_counts():
    rng = np.random.default_rng(12)
    scratch: dict = {}
    buffers = {}
    for count in (3, 1, 4, 2, 5, 5, 3, 1):
        arrays = [rng.choice([-0.0, 0.0, 1.0, -2.5, 1e9], size=(6, 2)) for _ in range(count)]
        got = federation._sorted_sum(arrays, scratch)
        assert got.view(np.int64).tolist() == sort_then_sum(arrays).view(np.int64).tolist()
        buf = scratch[count, (6, 2)]
        # One row per array plus a spare, allocated on an edge count's first call only.
        assert buf.shape == (count + 1, 6, 2)
        assert buffers.setdefault(count, buf) is buf
    assert sorted(scratch) == [(count, (6, 2)) for count in (1, 2, 3, 4, 5)]


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
        grads = gradients(params, parts[0], window)
        stepped = aggregate_and_step(params, sum_gradients([grads]), cfg)
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
        monkeypatch.setattr(federation, "window_gradients", recording(grad_points, federation.window_gradients))
        monkeypatch.setattr(federation, "aggregate_and_step", recording(step_origins, federation.aggregate_and_step))
        result = run_fit_round(parts, ModelParams.constant(6, 2, 1.0, 0.01), window, cfg)
        origins = [p for i, p in enumerate(step_origins) if i == 0 or p is not step_origins[i - 1]]
        assert [id(p) for p in grad_points] == [id(p) for p in origins for _ in parts]
        if cfg.learning_rate == 0.5:
            assert len(step_origins) > len(result.losses) - 1  # some candidates were rejected

    @pytest.mark.parametrize("cfg", _CONFIGS)
    def test_one_gradient_sum_per_step_origin(self, cfg, monkeypatch):
        # Backtracking reuses the origin's summed gradients: each of the three
        # blocks is summed once per origin, not once per candidate. The loss
        # is computed once per scored point: the start and each candidate.
        parts, window = self._three_edges()
        block_sums, step_origins, scored = [], [], []
        monkeypatch.setattr(federation, "_sorted_sum", recording(block_sums, federation._sorted_sum))
        monkeypatch.setattr(federation, "aggregate_and_step", recording(step_origins, federation.aggregate_and_step))
        monkeypatch.setattr(federation, "global_loss", recording(scored, federation.global_loss))
        run_fit_round(parts, ModelParams.constant(6, 2, 1.0, 0.01), window, cfg)
        origins = [p for i, p in enumerate(step_origins) if i == 0 or p is not step_origins[i - 1]]
        assert len(block_sums) == 3 * len(origins)
        assert len(scored) == 1 + len(step_origins)

    def test_all_params_above_floor_after_fit(self):
        parts, window = self._setup()
        params = ModelParams.constant(4, 2, 1.0, 0.01)
        result = run_fit_round(parts, params, window, TrainConfig(learning_rate=0.05, max_iters=10))
        assert result.params.base_rate.min() >= predictor.PARAM_FLOOR
        assert result.params.target_factors.min() >= predictor.PARAM_FLOOR
        assert result.params.source_factors.min() >= predictor.PARAM_FLOOR


def test_global_loss_includes_regularizers():
    params = ModelParams(np.array([2.0]), np.full((1, 1), 3.0), np.full((1, 1), 4.0), 0.01)
    cfg = TrainConfig(rho_base=1.0, rho_target=1.0, rho_source=1.0)
    expected = 7.0 + 0.5 * (4.0 + 9.0 + 16.0)
    assert global_loss(params, [-7.0], cfg) == pytest.approx(expected)
