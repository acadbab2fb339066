import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import (
    advance_event_by_event,
    assert_gradients_close,
    brute_intensity_all,
    fd_gradients,
    gradients,
    intensity,
    intensity_sweep_at,
    kernel_integral,
    log_before,
    log_likelihood,
    quadrature_ll,
    rebuild_state,
    window_gradients_reference,
    window_log_likelihood_reference,
    window_stats_by_masks,
)
from ppvf import DataError, predictor, trace
from ppvf.federation import TrainConfig, run_fit_round
from ppvf.predictor import (
    GradientBundle,
    KernelState,
    ModelParams,
    TrainWindow,
    advance_state,
    intensity_sweep,
    window_gradients,
    window_log_likelihood,
    window_stats,
)


def random_params(rng, catalog=5, dim=2, decay=0.01):
    return ModelParams(
        base_rate=rng.uniform(0.05, 0.5, catalog),
        target_factors=rng.uniform(0.01, 0.2, (catalog, dim)),
        source_factors=rng.uniform(0.01, 0.2, (catalog, dim)),
        decay=decay,
    )


def random_events(rng, catalog, horizon, n):
    times = np.sort(rng.uniform(0.0, horizon, n))
    vids = rng.integers(0, catalog, n)
    return times, vids


class TestKernelState:
    def test_pure_decay(self):
        params = random_params(np.random.default_rng(0))
        state = KernelState(np.arange(1.0, 6.0), np.zeros(2), 10.0)
        state.rebuild_mix(params)
        out = advance_state(params, state, 35.0)
        assert np.allclose(out.decayed_counts, np.arange(1.0, 6.0) * math.exp(-0.01 * 25.0))

    def test_event_at_advance_time_counts_fully(self):
        params = random_params(np.random.default_rng(1))
        state = KernelState.empty(5, 2)
        out = advance_state(params, state, 4.0, [3])
        assert out.decayed_counts[3] == pytest.approx(1.0)

    def test_repeated_video_counts_each_request(self):
        params = random_params(np.random.default_rng(10))
        out = advance_state(params, KernelState.empty(5, 2), 2.0, np.array([1, 3, 1]))
        assert out.decayed_counts.tolist() == [0.0, 2.0, 0.0, 1.0, 0.0]
        assert np.allclose(out.source_mix, 2 * params.source_factors[1] + params.source_factors[3], rtol=1e-12)

    def test_event_48h_back_decays_to_known_value(self):
        params = random_params(np.random.default_rng(2), decay=0.01)
        state = advance_state(params, KernelState.empty(5, 2), 0.0 + 1e-12, [2])
        out = advance_state(params, state, 48.0)
        assert out.decayed_counts[2] == pytest.approx(math.exp(-0.48), rel=1e-9)

    def test_backwards_advance_rejected(self):
        params = random_params(np.random.default_rng(3))
        state = KernelState(np.zeros(5), np.zeros(2), 10.0)
        with pytest.raises(ValueError):
            advance_state(params, state, 5.0)

    def test_mix_matches_rebuild(self):
        rng = np.random.default_rng(5)
        params = random_params(rng)
        times, vids = random_events(rng, 5, 50.0, 40)
        state = advance_event_by_event(params, KernelState.empty(5, 2), times, vids, 50.0)
        rebuilt = rebuild_state(params, times, vids, 50.0)
        assert np.allclose(state.source_mix, rebuilt.source_mix, rtol=1e-9)


class TestIntensity:
    def test_empty_history_gives_base_rates(self):
        params = random_params(np.random.default_rng(6))
        state = KernelState.empty(5, 2)
        assert np.allclose(intensity_sweep(params, state), params.base_rate)
        assert intensity(params, state, 3) == pytest.approx(params.base_rate[3])

    def test_single_zero_lag_event(self):
        params = random_params(np.random.default_rng(7))
        state = advance_state(params, KernelState.empty(5, 2), 3.0, [1])
        expected = params.base_rate + params.target_factors @ params.source_factors[1]
        assert np.allclose(intensity_sweep(params, state), expected, rtol=1e-12)

    def test_matches_brute_force_double_sum(self):
        rng = np.random.default_rng(8)
        params = random_params(rng)
        times, vids = random_events(rng, 5, 80.0, 20)
        at = 80.5
        state = advance_event_by_event(params, KernelState.empty(5, 2), times, vids, at)
        brute = brute_intensity_all(params, times, vids, at)
        assert np.allclose(intensity_sweep(params, state), brute, rtol=1e-9)

    def test_sweep_at_decays_without_mutation(self):
        rng = np.random.default_rng(9)
        params = random_params(rng)
        times, vids = random_events(rng, 5, 10.0, 8)
        state = advance_event_by_event(params, KernelState.empty(5, 2), times, vids, 10.0)
        later = intensity_sweep_at(params, state, 25.0)
        brute = brute_intensity_all(params, times, vids, 25.0)
        assert np.allclose(later, brute, rtol=1e-9)
        assert state.last_update == 10.0


class TestKernelIntegral:
    def test_zero_width(self):
        assert kernel_integral(3.0, 3.0, 0.01) == 0.0

    def test_total_mass(self):
        assert kernel_integral(0.0, math.inf, 0.01) == pytest.approx(100.0)

    def test_matches_quadrature(self):
        val = kernel_integral(0.0, 48.0, 0.01)
        assert val == pytest.approx((1 - math.exp(-0.48)) / 0.01, rel=1e-12)
        num, _ = quad(lambda t: math.exp(-0.01 * t), 0.0, 48.0, epsabs=1e-12, epsrel=1e-12)
        assert val == pytest.approx(num, abs=1e-8)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            kernel_integral(5.0, 1.0, 0.01)


class TestTrainWindow:
    def test_truncation_length(self):
        w = TrainWindow.from_truncation(96.0, math.exp(-0.48), 0.01)
        assert w.length == pytest.approx(48.0, rel=1e-12)
        assert w.start == pytest.approx(48.0)


def make_log(times, vids, catalog, horizon):
    from ppvf.trace import EventLog

    n = len(times)
    return EventLog(
        edge_ids=np.zeros(n, dtype=np.int64),
        user_ids=np.zeros(n, dtype=np.int64),
        video_ids=np.asarray(vids, dtype=np.int64),
        timestamps=np.asarray(times, dtype=np.float64),
        catalog_size=catalog,
        edge_count=1,
        horizon=horizon,
    )


class TestWindowLikelihood:
    def test_no_events_constant_intensity(self):
        params = random_params(np.random.default_rng(10))
        window = TrainWindow(end=100.0, length=48.0)
        log = make_log([], [], 5, 100.0)
        expected = -window.length * float(np.sum(params.base_rate))
        assert log_likelihood(params, log, window) == pytest.approx(expected, rel=1e-12)

    def test_single_event_poisson_reduction(self):
        catalog = 4
        params = ModelParams(
            base_rate=np.array([0.2, 0.3, 0.4, 0.5]),
            target_factors=np.zeros((catalog, 2)),
            source_factors=np.zeros((catalog, 2)),
            decay=0.01,
        )
        window = TrainWindow(end=50.0, length=20.0)
        log = make_log([40.0], [2], catalog, 50.0)
        expected = math.log(0.4) - 20.0 * float(np.sum(params.base_rate))
        assert log_likelihood(params, log, window) == pytest.approx(expected, rel=1e-12)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(11)
        params = random_params(rng, catalog=5)
        times, vids = random_events(rng, 5, 100.0, 30)
        window = TrainWindow(end=100.0, length=40.0)
        log = make_log(times, vids, 5, 100.0)
        closed = log_likelihood(params, log, window)
        numeric = quadrature_ll(params, times, vids, window)
        assert closed == pytest.approx(numeric, rel=1e-6)

    def test_zero_intensity_at_event_is_an_error(self):
        catalog = 2
        params = ModelParams(
            base_rate=np.zeros(catalog),
            target_factors=np.zeros((catalog, 1)),
            source_factors=np.zeros((catalog, 1)),
            decay=0.01,
        )
        window = TrainWindow(end=10.0, length=5.0)
        log = make_log([7.0], [0], catalog, 10.0)
        # Each evaluator builds fresh statistics, so gradients too are taken
        # first at this point and must meet the check themselves.
        for evaluate in (log_likelihood, gradients):
            with pytest.raises(DataError, match="non-positive intensity"):
                evaluate(params, log, window)

    def test_requests_at_or_after_window_end_change_nothing(self):
        # The window drops every request at or after its end, so a whole log
        # gives the bits of its prefix before the window end.
        rng = np.random.default_rng(12)
        params = random_params(rng)
        window = TrainWindow(end=60.0, length=24.0)
        times, vids = random_events(rng, 5, 60.0, 25)
        later = np.concatenate(([60.0, 60.0], np.sort(rng.uniform(60.0, 90.0, 10))))
        prefix = make_log(times, vids, 5, 60.0)
        whole = make_log(np.concatenate((times, later)), np.concatenate((vids, rng.integers(0, 5, 12))), 5, 90.0)
        assert np.float64(log_likelihood(params, whole, window)).tobytes() == np.float64(
            log_likelihood(params, prefix, window)
        ).tobytes()
        got, want = gradients(params, whole, window), gradients(params, prefix, window)
        for block in ("base_rate", "target_factors", "source_factors"):
            assert getattr(got, block).tobytes() == getattr(want, block).tobytes(), block


class TestWindowGradients:
    def test_no_events(self):
        params = random_params(np.random.default_rng(13))
        window = TrainWindow(end=60.0, length=24.0)
        log = make_log([], [], 5, 60.0)
        g = gradients(params, log, window)
        assert np.allclose(g.base_rate, -24.0)
        assert np.allclose(g.target_factors, 0.0)
        assert np.allclose(g.source_factors, 0.0)

    def test_doubling_empty_window_doubles_base_gradient(self):
        params = random_params(np.random.default_rng(14))
        log = make_log([], [], 5, 100.0)
        g1 = gradients(params, log, TrainWindow(end=100.0, length=10.0))
        g2 = gradients(params, log, TrainWindow(end=100.0, length=20.0))
        assert np.allclose(np.abs(g2.base_rate), 2 * np.abs(g1.base_rate))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        params = random_params(rng, catalog=4, dim=2)
        times, vids = random_events(rng, 4, 60.0, 18)
        window = TrainWindow(end=60.0, length=25.0)
        log = make_log(times, vids, 4, 60.0)
        analytic = gradients(params, log, window)
        numeric = fd_gradients(params, log, window)
        assert_gradients_close(analytic, numeric)

    def test_matches_finite_differences_with_prewindow_history(self):
        rng = np.random.default_rng(16)
        params = random_params(rng, catalog=3, dim=2)
        times = np.array([1.0, 5.0, 12.0, 30.0, 41.0, 44.0, 44.0, 47.5])
        vids = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        window = TrainWindow(end=48.0, length=12.0)
        log = make_log(times, vids, 3, 48.0)
        analytic = gradients(params, log, window)
        numeric = fd_gradients(params, log, window)
        assert_gradients_close(analytic, numeric)


@pytest.fixture(scope="module")
def multi_edge_fit():
    """Catalog 500, D = 10, four edge logs (the last with no in-window
    events), and constant, fitted and perturbed parameters."""
    rng = np.random.default_rng(2024)
    catalog, dim = 500, 10
    truth = ModelParams(
        base_rate=0.25 / np.arange(1, catalog + 1),
        target_factors=rng.uniform(0.1, 1.0, (catalog, dim)) * 0.002,
        source_factors=rng.uniform(0.1, 1.0, (catalog, dim)) * 0.002,
        decay=0.01,
    )
    log = trace.generate_synthetic(trace.SyntheticSpec(catalog, 4, 144.0, truth, rng_seed=7, users_per_edge=5))
    window = TrainWindow(end=144.0, length=48.0)
    logs = trace.partition_by_edge(log)
    logs[-1] = log_before(logs[-1], window.start)
    start = ModelParams.constant(catalog, dim, 1.0, 0.01)
    fitted = run_fit_round(logs, start, window, TrainConfig(rho_base=1e-4, learning_rate=2e-3, max_iters=4)).params
    noise = lambda shape: rng.lognormal(0.0, 0.3, shape)  # noqa: E731
    perturbed = ModelParams(
        fitted.base_rate * noise(catalog),
        fitted.target_factors * noise((catalog, dim)),
        fitted.source_factors * noise((catalog, dim)),
        fitted.decay,
    )
    return logs, window, (start.clamped(), fitted, perturbed)


class TestWindowBitsMatchReference:
    """Likelihood and gradients equal the uncached reference to the last bit,
    whichever of the two is evaluated first at a point."""

    def test_fixture_has_an_edge_without_window_events(self, multi_edge_fit):
        logs, window, (start, _, _) = multi_edge_fit
        counts = [len(window_stats(start, log, window).event_videos) for log in logs]
        assert counts[-1] == 0 and min(counts[:-1]) > 0

    @pytest.mark.parametrize("likelihood_first", [True, False])
    def test_bitwise(self, multi_edge_fit, likelihood_first):
        logs, window, points = multi_edge_fit
        for params in points:
            for log in logs:
                stats = window_stats(params, log, window)
                ll_ref = window_log_likelihood_reference(params, window, stats)
                g_ref = window_gradients_reference(params, window, stats)
                if likelihood_first:
                    ll = window_log_likelihood(params, stats)
                    g = window_gradients(params, stats)
                else:
                    g = window_gradients(params, stats)
                    ll = window_log_likelihood(params, stats)
                assert np.float64(ll).tobytes() == np.float64(ll_ref).tobytes()
                for block in ("base_rate", "target_factors", "source_factors"):
                    assert getattr(g, block).tobytes() == getattr(g_ref, block).tobytes(), block

    def test_gradients_written_into_a_row(self, multi_edge_fit):
        # The middle row of a NaN-filled buffer: every entry is written, and
        # nothing outside the row is.
        logs, window, points = multi_edge_fit
        for params in points:
            rows = np.full((3, GradientBundle.row_size(params.catalog_size, params.dim)), np.nan)
            for log in logs:
                stats = window_stats(params, log, window)
                into = window_gradients(params, stats, out=rows[1])
                fresh = window_gradients(params, stats)
                for block in ("base_rate", "target_factors", "source_factors"):
                    assert np.shares_memory(getattr(into, block), rows[1]), block
                    assert getattr(into, block).tobytes() == getattr(fresh, block).tobytes(), block
                assert np.isnan(rows[[0, 2]]).all()


    @pytest.mark.parametrize(
        "case", ["no-window-events", "zero-integral-videos", "empty-history", "overflowing-target-sums"]
    )
    def test_sparse_logs_gradients_bitwise(self, case):
        # window_gradients takes the source gradient straight from the event
        # product; the reference adds it to zeros first, on every row.
        rng = np.random.default_rng(5)
        catalog, window = 20, TrainWindow(end=100.0, length=48.0)
        params = random_params(rng, catalog=catalog, dim=3)
        times = np.sort(rng.uniform(0.0, 99.0, 30))
        vids = rng.choice([1, 3, 4], size=30)
        if case == "no-window-events":
            times, vids = times[times < window.start], vids[times < window.start]
        elif case == "empty-history":
            times, vids = times[:0], vids[:0]
        elif case == "overflowing-target-sums":
            # target_sums overflows, so 0 * target_sums is NaN on every row.
            tgt = params.target_factors.copy()
            tgt[[0, 5]] = 1e308
            params = ModelParams(params.base_rate, tgt, params.source_factors, params.decay)
        stats = window_stats(params, make_log(times, vids, catalog, 100.0), window)
        assert (len(stats.event_videos) == 0) == (case in ("no-window-events", "empty-history"))
        assert np.count_nonzero(stats.integral_weights) < catalog
        with np.errstate(over="ignore", invalid="ignore"):
            got = window_gradients(params, stats)
            want = window_gradients_reference(params, window, stats)
        for block in ("base_rate", "target_factors", "source_factors"):
            assert getattr(got, block).tobytes() == getattr(want, block).tobytes(), block


class TestSerialization:
    def test_round_trip(self, tmp_path):
        params = random_params(np.random.default_rng(17))
        path = tmp_path / "params.json"
        params.save(path)
        back = ModelParams.load(path)
        assert np.array_equal(back.base_rate, params.base_rate)
        assert np.array_equal(back.target_factors, params.target_factors)
        assert np.array_equal(back.source_factors, params.source_factors)
        assert back.decay == params.decay

    def test_dimension_mismatch_rejected(self):
        doc = {"beta": [1.0], "p": [[1.0, 2.0]], "q": [[1.0, 2.0]], "delta": 0.01, "D": 7}
        with pytest.raises(ValueError):
            ModelParams.from_json_dict(doc)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(np.array([-0.1]), np.ones((1, 1)), np.ones((1, 1)), 0.01)

    def test_clamped_floor(self):
        p = ModelParams(np.array([0.0]), np.zeros((1, 1)), np.zeros((1, 1)), 0.01).clamped()
        assert p.base_rate[0] == predictor.PARAM_FLOOR


class TestWindowStatsMatchesMasks:
    """The sliced construction equals the whole-log mask construction, bit for bit."""

    @pytest.mark.parametrize("case", ["mixed", "empty-window", "history-only", "empty-log", "at-window-end"])
    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise(self, case, seed):
        rng = np.random.default_rng(seed)
        catalog, decay, window = 12, 0.03, TrainWindow(end=80.0, length=30.0)
        n = int(rng.integers(1, 60))
        # Quarter-hour stamps repeat, and some fall on the window's ends.
        times = np.sort(rng.integers(0, 4 * 100, size=n) / 4.0)
        if case == "empty-window":
            times = np.where((times >= window.start) & (times < window.end), window.end, times)
        elif case == "history-only":
            times = times * (window.start / 100.0)
        elif case == "empty-log":
            times = times[:0]
        elif case == "at-window-end":
            times = np.sort(np.concatenate([times, [window.start, window.end, window.end]]))
        log = make_log(times, rng.integers(0, catalog, size=len(times)), catalog, 100.0)
        got = predictor.WindowStats(log, catalog, decay, window)
        want = window_stats_by_masks(log, catalog, decay, window)
        for name in want._fields:
            x, y = getattr(got, name), getattr(want, name)
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
        in_window = np.count_nonzero((times >= window.start) & (times < window.end))
        assert (in_window == 0) == (case in ("empty-window", "history-only", "empty-log"))

