import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import RequestEvent, event_log_from_events, log_before, replay_reference, schedule_of
from ppvf import cache as cache_mod
from ppvf import DataError, cdp, predictor, sim, trace
from ppvf.federation import TrainConfig, run_fit_round
from ppvf.predictor import ModelParams, TrainWindow
from ppvf.sim import (
    SimConfig,
    SimReport,
    jaccard_similarity,
    run_simulation,
)


def small_ground_truth(catalog, seed=0, base=0.15):
    rng = np.random.default_rng(seed)
    return ModelParams(
        base_rate=np.full(catalog, base) * rng.uniform(0.5, 1.5, catalog),
        target_factors=rng.uniform(0.002, 0.02, (catalog, 2)),
        source_factors=rng.uniform(0.002, 0.02, (catalog, 2)),
        decay=0.01,
    )


def synthetic_log(catalog=20, edges=2, horizon=120.0, seed=3):
    gt = small_ground_truth(catalog, seed)
    return trace.generate_synthetic(
        trace.SyntheticSpec(catalog, edges, horizon, gt, rng_seed=seed, users_per_edge=4)
    )


def record_decisions(mp) -> tuple[list[tuple[int, ...]], list[float]]:
    """Patch the caches' entry points and ``cdp.em_sample`` through ``mp`` to
    record each request's upstream fetch, empty for a hit, in serving order,
    and the sensitivity of each test miss's prefetch draw."""
    fetches, sensitivities = [], []
    real_lookup, real_admit, real_step = cache_mod.EdgeCache.lookup, cache_mod.EdgeCache.admit, cache_mod.baseline_step
    real_em_sample = cdp.em_sample

    def lookup(self, video):
        fetches.append(())
        return real_lookup(self, video)

    def admit(self, videos):  # a scored miss offers the cache its whole fetch
        fetches[-1] = tuple(videos)
        return real_admit(self, videos)

    def step(cache, video):
        result = real_step(cache, video)
        fetches.append(result.fetched)
        return result

    def em_sample(candidates, utilities, eps_step, sensitivity, *args):
        sensitivities.append(sensitivity)
        return real_em_sample(candidates, utilities, eps_step, sensitivity, *args)

    mp.setattr(cache_mod.EdgeCache, "lookup", lookup)
    mp.setattr(cache_mod.EdgeCache, "admit", admit)
    mp.setattr(cache_mod, "baseline_step", step)
    mp.setattr(cdp, "em_sample", em_sample)
    return fetches, sensitivities


def run_recording(cfg: SimConfig, log, schedule=None):
    """``run_simulation``'s report, each request's fetch, edge by edge in log
    order, and each test miss's draw sensitivity."""
    with pytest.MonkeyPatch.context() as mp:
        fetches, sensitivities = record_decisions(mp)
        report = run_simulation(cfg, log, schedule)
    return report, fetches, sensitivities


def assert_replays_as_reference(cfg: SimConfig, log, schedule=None):
    """Require ``run_simulation`` to make ``oracles.replay_reference``'s fetch
    at every request and to write its report; return the reference's replay."""
    reference = replay_reference(cfg, log, schedule)
    report, fetches, sensitivities = run_recording(cfg, log, schedule)
    assert (report, fetches) == (reference.report, reference.fetches), cfg.policy
    # A draw takes every candidate, so its sensitivity sets only their
    # order. The two sides sum in other orders, and Pearson sums cancel.
    np.testing.assert_allclose(sensitivities, reference.sensitivities, rtol=1e-6, atol=1e-12)
    return reference


def random_schedule(cfg: SimConfig, catalog: int, rng) -> sim.FitSchedule:
    """A schedule on ``cfg``'s barriers whose epochs hold random parameters,
    so that no two epochs, and no two utilities, are alike."""
    barriers = sim.barrier_times(cfg, cfg.test_horizon)
    params = [
        ModelParams(rng.uniform(0.05, 0.5, catalog), *rng.uniform(0.002, 0.05, (2, catalog, 2)), cfg.decay)
        for _ in range(len(barriers) + 1)
    ]
    return schedule_of(params, sim.fit_settings(cfg, catalog, cfg.test_horizon), barriers)


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard_similarity({1, 2}, {1, 2}) == 1.0

    def test_disjoint_sets(self):
        assert jaccard_similarity({1}, {2}) == 0.0

    def test_partial_overlap(self):
        assert jaccard_similarity({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)


class TestChr:
    def _chr(self, hits, requests):
        return SimReport(hits=hits, requests=requests).chr_value

    def test_all_hits(self):
        assert self._chr(12, 12) == 1.0

    def test_no_hits(self):
        assert self._chr(0, 7) == 0.0

    def test_fraction(self):
        assert self._chr(3, 12) == 0.25


class TestBudgetCdf:
    """The ``budget_cdf.csv`` points ``write_reports`` writes from the edges'
    pooled residual fractions."""

    def _points(self, *ledgers):
        return sim._cdf_points([r for ledger in ledgers for r in ledger.residual_fractions().tolist()])

    def _ledger(self, consumed_units, total=4):
        from ppvf.scheduler import PrivacyLedger

        return PrivacyLedger(total, 1, 4, consumed_units)

    def test_untouched_budgets_jump_at_one(self):
        points = self._points(self._ledger([0, 0, 0]))
        assert points == [(1.0, 1.0)]

    def test_exhausted_budgets_jump_at_zero(self):
        points = self._points(self._ledger([4, 4]))
        assert points == [(0.0, 1.0)]

    def test_half_exhausted(self):
        points = self._points(self._ledger([4, 4, 0, 0]))
        assert points == [(0.0, 0.5), (1.0, 1.0)]

    def test_monotone(self):
        points = self._points(self._ledger([4, 3, 1, 0]))
        fractions = [c for _, c in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0


def test_write_csv_writes_a_numpy_float_as_its_digits(tmp_path):
    path = tmp_path / "rows.csv"
    sim.write_csv(path, ["policy", "x", "round"], [("ppvf", np.float64(0.5), 3), ("lru", 0.1, 0)])
    assert path.read_text(encoding="utf-8") == "policy,x,round\nppvf,0.5,3\nlru,0.1,0\n"


class TestSimConfig:
    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(policy="magic")

    def test_bad_horizons_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(init_horizon=100.0, test_horizon=50.0)

    def test_fitted_horizon_past_barrier_limit_rejected(self):
        # 1e17 h at 48 h intervals would be about 2e15 refits.
        for policy in ("ppvf", "sage", "bestfit"):
            with pytest.raises(ValueError, match="fitting barriers"):
                SimConfig(policy=policy, test_horizon=1e17)
        # A policy that never fits has no schedule to bound.
        assert SimConfig(policy="lru", test_horizon=1e17).test_horizon == 1e17

    def test_fixed_bounds_checked_as_threshold_bounds(self):
        # A bad setting, so a plain ValueError: the CLI reports it as a usage error.
        with pytest.raises(ValueError, match="upper \\* e / lower finite") as info:
            SimConfig(bounds=(1e-300, 1e300))
        assert not isinstance(info.value, DataError)

    @pytest.mark.parametrize("workers", [0, -4])
    def test_thread_count_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            SimConfig(workers=workers)


class TestBarrierTimes:
    def test_values_are_repeated_sums(self):
        cfg = SimConfig(train=TrainConfig(update_interval_hours=0.1))
        expected, barrier = [], 0.1
        while barrier < 720.0:
            expected.append(barrier)
            barrier += 0.1
        assert sim.barrier_times(cfg, 720.0) == expected
        assert sim.barrier_times(SimConfig(), 720.0) == [48.0 * k for k in range(1, 15)]

    def test_limit_is_inclusive(self):
        cfg = SimConfig(train=TrainConfig(update_interval_hours=1.0))
        times = sim.barrier_times(cfg, sim.MAX_BARRIERS + 1.0)
        assert len(times) == sim.MAX_BARRIERS and times[-1] == float(sim.MAX_BARRIERS)
        with pytest.raises(ValueError, match="fitting barriers"):
            sim.barrier_times(cfg, sim.MAX_BARRIERS + 1.5)


def repeated_video_log(n, spacing=0.5):
    events = [RequestEvent(0, 0, 0, i * spacing) for i in range(n)]
    return event_log_from_events(events, catalog_size=1, edge_count=1, horizon=n * spacing + 1)


class TestRunSimulation:
    def _cfg(self, policy, **kw):
        defaults = dict(
            policy=policy,
            init_horizon=24.0,
            test_horizon=121.0,
            cache_fraction=0.2,
            latent_dim=2,
            seed=9,
            train=TrainConfig(learning_rate=1e-3, max_iters=3, update_interval_hours=48.0),
        )
        defaults.update(kw)
        return SimConfig(**defaults)

    def test_single_video_repeats(self):
        for policy in sim.POLICIES:
            cfg = SimConfig(
                policy=policy,
                init_horizon=0.0,
                test_horizon=100.0,
                cache_fraction=1.0,
                latent_dim=2,
                seed=1,
            )
            report = run_simulation(cfg, repeated_video_log(12))
            assert report.requests == 12
            assert report.chr_value == pytest.approx(11 / 12)

    def test_empty_test_period(self):
        log = synthetic_log(horizon=20.0)
        cfg = self._cfg("ppvf", init_horizon=20.0, test_horizon=21.0)
        report = run_simulation(cfg, log)
        assert report.requests == 0
        assert report.chr_value == 0.0
        assert all(r == 1.0 for r in report.residual_fractions)

    def test_estimated_bounds_whose_top_bar_overflows_data_error(self):
        # Fitted utilities of 1e-300 and 1e300 leave no finite threshold bar.
        log = synthetic_log()
        cfg = self._cfg("ppvf")
        base = np.ones(log.catalog_size)
        base[:2] = 1e-300, 1e300
        flat = ModelParams(base, np.zeros((log.catalog_size, 2)), np.zeros((log.catalog_size, 2)), cfg.decay)
        barriers = sim.barrier_times(cfg, cfg.test_horizon)
        fit = sim.fit_settings(cfg, log.catalog_size, cfg.test_horizon)
        with pytest.raises(DataError, match="estimated ratio bounds"):
            run_simulation(cfg, log, schedule_of([flat] * (len(barriers) + 1), fit, barriers))

    def test_zero_budget_spends_nothing(self):
        log = synthetic_log()
        report = run_simulation(self._cfg("ppvf", total_budget=0.0), log)
        assert all(r == 1.0 for r in report.residual_fractions)

    def test_zero_budget_equals_eviction_only_reference(self):
        # With the prefetch path disabled the run is the reference's cache
        # fed only viewed videos, event for event. Flooring the stamps to the
        # hour makes requests simultaneous; a sweep must not see the requests
        # that share its stamp.
        log = synthetic_log(catalog=15, edges=2, horizon=90.0, seed=7)
        same_hour = trace.EventLog(
            log.edge_ids, log.user_ids, log.video_ids, np.floor(log.timestamps),
            log.catalog_size, log.edge_count, log.horizon,
        )
        cfg = self._cfg(
            "ppvf",
            total_budget=0.0,
            init_horizon=10.0,
            test_horizon=91.0,
            train=TrainConfig(update_interval_hours=1000.0),  # no fitting rounds
        )
        for log in (log, same_hour):
            reference = assert_replays_as_reference(cfg, log, sim.fit_schedule(cfg, log, cfg.test_horizon))
            assert {len(fetched) for fetched in reference.fetches} == {0, 1}  # hits, and the viewed video alone

    def test_deterministic_across_worker_counts(self):
        log = synthetic_log(catalog=25, edges=3, horizon=120.0, seed=5)
        a, b = [run_recording(self._cfg("ppvf", workers=w), log) for w in (None, 3)]
        assert a == b

    def test_deterministic_across_repeat_runs(self):
        log = synthetic_log(catalog=25, edges=2, horizon=120.0, seed=6)
        a = run_simulation(self._cfg("sage"), log)
        b = run_simulation(self._cfg("sage"), log)
        assert a.hits == b.hits
        assert a.per_user_js == b.per_user_js
        assert a.residual_fractions == b.residual_fractions

    def test_every_policy_runs(self):
        log = synthetic_log(catalog=15, edges=2, horizon=100.0, seed=8)
        for policy in sim.POLICIES:
            cfg = self._cfg(policy, test_horizon=101.0)
            report = run_simulation(cfg, log)
            assert report.requests > 0
            assert 0.0 <= report.chr_value <= 1.0
            assert 0.0 <= report.mean_js <= 1.0

    def test_budget_consumption_bounded(self):
        log = synthetic_log(catalog=10, edges=2, horizon=110.0, seed=10)
        report = run_simulation(self._cfg("ppvf", total_budget=3.0), log)
        assert all(0.0 <= r <= 1.0 for r in report.residual_fractions)
        assert any(r < 1.0 for r in report.residual_fractions)  # something was spent

    def test_fl_losses_recorded_for_mep_policies(self):
        log = synthetic_log(catalog=12, edges=2, horizon=120.0, seed=11)
        with_fl = run_simulation(self._cfg("ppvf"), log)
        assert with_fl.fl_losses
        t_thetas = {t for t, _, _ in with_fl.fl_losses}
        assert t_thetas == {48.0, 96.0}
        without = run_simulation(self._cfg("mav"), log)
        assert without.fl_losses == []

    def test_exposed_contains_missed_videos(self):
        log = synthetic_log(catalog=12, edges=1, horizon=100.0, seed=12)
        cfg = self._cfg("ppvf", test_horizon=101.0)
        report = run_simulation(cfg, log)
        # the misses' fetches expose some user's videos
        assert max(report.per_user_js.values()) > 0


class TestPolicyShapedRuntime:
    """Each policy's edge runtime builds and calls only the state it reads."""

    # policy: (builds kernel and correlation state, observes ratio bounds, seeded stream keys)
    SHAPES = {
        "ppvf": (True, True, {0, 1}),
        "sage": (True, False, {0, 1}),
        "bestfit": (True, False, {1}),
        "mav": (False, True, {0, 1}),
        "lru": (False, False, set()),
        "lfu": (False, False, set()),
    }

    @pytest.mark.parametrize("policy", sim.POLICIES)
    def test_builds_only_what_the_policy_reads(self, policy):
        log = synthetic_log(catalog=20, edges=2, horizon=120.0, seed=3)
        built = Counter()
        streams = []
        real_empty = predictor.KernelState.empty.__func__
        real_corr_init = cdp.CorrelationState.__init__
        real_observe = sim._BoundTracker.observe
        real_seed_sequence = np.random.SeedSequence
        real_fit_schedule = sim.fit_schedule
        schedules, tables = [], []
        real_constant = ModelParams.constant.__func__

        def empty(cls, *args, **kwargs):
            built["kernel"] += 1
            return real_empty(cls, *args, **kwargs)

        def corr_init(self, table):
            built["corr"] += 1
            tables.append(table)
            real_corr_init(self, table)

        def observe(self, *args):
            built["observe"] += 1
            real_observe(self, *args)

        def fit_schedule(*args, **kwargs):
            schedules.append(real_fit_schedule(*args, **kwargs))
            return schedules[-1]

        def constant(cls, *args, **kwargs):
            built["constant"] += 1
            return real_constant(cls, *args, **kwargs)

        def seed_sequence(*args, spawn_key=()):
            streams.append(spawn_key)
            return real_seed_sequence(*args, spawn_key=spawn_key)

        cfg = SimConfig(
            policy=policy, init_horizon=24.0, test_horizon=121.0, cache_fraction=0.2, latent_dim=2, seed=9,
            train=TrainConfig(max_iters=3, update_interval_hours=48.0),
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(predictor.KernelState, "empty", classmethod(empty))
            mp.setattr(cdp.CorrelationState, "__init__", corr_init)
            mp.setattr(sim._BoundTracker, "observe", observe)
            mp.setattr(np.random, "SeedSequence", seed_sequence)
            mp.setattr(sim, "fit_schedule", fit_schedule)
            mp.setattr(ModelParams, "constant", classmethod(constant))
            report = run_simulation(cfg, log)
        fitted, observes, keys = self.SHAPES[policy]
        assert report.requests > 0
        assert built["kernel"] == built["corr"] == (log.edge_count if fitted else 0)
        # Only a fit starts from constant parameters, and no run builds an epoch
        # table: every correlation state reads the fitted schedule's own.
        assert built["constant"] == len(schedules) == (1 if fitted else 0)
        assert all(table is schedules[0].table for table in tables)
        assert (built["observe"] > 0) == observes
        assert sorted(streams) == sorted((edge, key) for edge in range(log.edge_count) for key in keys)


class TestFitSchedule:
    """A run replays a schedule only if it was fitted under the run's fit settings."""

    CFG = SimConfig(
        init_horizon=24.0, test_horizon=121.0, latent_dim=2,
        train=TrainConfig(max_iters=2, update_interval_hours=48.0),
    )

    @pytest.mark.parametrize(
        "change",
        [
            {"latent_dim": 3},
            {"decay": 0.02},
            {"truncation": 0.5},
            {"train": TrainConfig(max_iters=3, update_interval_hours=48.0)},
            {"test_horizon": 150.0},
            {"catalog": 25},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_replay_rejects_a_schedule_of_other_fit_settings(self, change):
        log = synthetic_log(catalog=20)
        schedule = sim.fit_schedule(self.CFG, log, self.CFG.test_horizon)
        change = dict(change)
        other_log = synthetic_log(catalog=change.pop("catalog", 20))
        if not change:  # the other catalog is the only difference
            assert other_log.catalog_size != log.catalog_size
        for policy in sim.POLICIES:
            with pytest.raises(ValueError, match="schedule fitted under"):
                run_simulation(dataclasses.replace(self.CFG, policy=policy, **change), other_log, schedule)

    def test_whole_logs_fit_as_prefix_logs(self):
        # Each barrier's fit reads the whole edge logs and its window drops
        # what is stamped at or after the barrier, so it equals a fit over
        # the requests stamped strictly before the barrier, bit for bit.
        log = synthetic_log(catalog=20)
        schedule = sim.fit_schedule(self.CFG, log, self.CFG.test_horizon)
        edge_logs = trace.partition_by_edge(log)
        params, losses = [schedule.params[0]], []
        for barrier in schedule.barriers:
            window = TrainWindow.from_truncation(barrier, self.CFG.truncation, self.CFG.decay)
            assert any(len(el) > len(log_before(el, barrier)) for el in edge_logs)  # a later request exists
            result = run_fit_round([log_before(el, barrier) for el in edge_logs], params[-1], window, self.CFG.train)
            params.append(result.params)
            losses.extend((barrier, idx, loss) for idx, loss in enumerate(result.losses))
        assert schedule.losses == losses
        assert len(schedule.params) == len(params)
        for got, want in zip(schedule.params, params):
            for name in ("base_rate", "target_factors", "source_factors"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert got.decay == want.decay

    def test_each_epoch_is_stored_once(self):
        # The fit writes each epoch's base rates and target factors into the
        # schedule's table and keeps its parameters as views of that row; the
        # source factors stay an array of their own. Every fitted runtime's
        # correlation state reads the table itself: no run copies it.
        log = synthetic_log(catalog=20)
        schedule = sim.fit_schedule(self.CFG, log, self.CFG.test_horizon)
        assert schedule.table.shape == (3, 20, 1 + self.CFG.latent_dim)
        for rows, params in zip(schedule.table, schedule.params, strict=True):
            assert np.shares_memory(params.base_rate, rows) and np.shares_memory(params.target_factors, rows)
            assert params.source_factors.flags.c_contiguous
            assert not np.shares_memory(params.source_factors, schedule.table)
        runtimes = []
        real_fold = sim._fold_edge

        def fold_edge(report, rt):
            runtimes.append(rt)
            real_fold(report, rt)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_fold_edge", fold_edge)
            for policy in sorted(sim.FITTED_POLICIES):
                run_simulation(dataclasses.replace(self.CFG, policy=policy), log, schedule)
        assert len(runtimes) == len(sim.FITTED_POLICIES) * log.edge_count
        assert all(rt.corr.table is schedule.table for rt in runtimes)
        last = sim.fit_schedule(self.CFG, log, self.CFG.test_horizon, keep_all=False)
        assert len(last.table) == len(last.params) == 1
        assert np.shares_memory(last.params[0].base_rate, last.table)

    def test_replay_rejects_a_schedule_that_kept_only_its_last_fit(self):
        log = synthetic_log(catalog=20)
        full = sim.fit_schedule(self.CFG, log, self.CFG.test_horizon)
        last = sim.fit_schedule(self.CFG, log, self.CFG.test_horizon, keep_all=False)
        assert len(full.params) == 1 + len(full.barriers) == 3 and len(last.params) == 1
        np.testing.assert_array_equal(last.params[0].base_rate, full.params[-1].base_rate)
        assert (last.settings, last.barriers, last.losses) == (full.settings, full.barriers, full.losses)
        with pytest.raises(ValueError, match="schedule fitted under"):
            run_simulation(self.CFG, log, last)


@st.composite
def replay_cases(draw):
    """Run settings, an hourly trace of repeated videos, and a hand-built
    schedule whose epochs hold different random parameters. Edge 0 has a
    request at every barrier, if any, and at the warm-up boundary; the last
    edge may fall silent for up to 30 h, across barriers."""
    catalog, edges, n = draw(st.integers(2, 60)), draw(st.integers(1, 3)), draw(st.integers(20, 150))
    interval, horizon = draw(st.sampled_from([12.0, 24.0, 96.0])), draw(st.integers(30, 72))
    init, quiet, span = draw(st.integers(0, horizon - 1)), draw(st.integers(0, horizon)), draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stamps = np.floor(rng.uniform(0, horizon, n))
    edge_ids = rng.integers(0, edges, n)
    keep = (edge_ids < edges - 1) | (stamps < quiet) | (stamps >= quiet + span)
    pinned = np.concatenate((np.arange(interval, horizon, interval), [init]))
    stamps = np.concatenate((stamps[keep], pinned))
    edge_ids = np.concatenate((edge_ids[keep], np.zeros(len(pinned), dtype=np.int64)))
    weights = 1.0 / np.arange(1, catalog + 1)
    videos = rng.choice(catalog, len(stamps), p=weights / weights.sum())
    users = edge_ids * 4 + rng.integers(0, 4, len(stamps))
    order = np.argsort(stamps, kind="stable")
    log = trace.EventLog(edge_ids[order], users[order], videos[order], stamps[order], catalog, edges, float(horizon))
    lower = draw(st.sampled_from([None, 0.05, 0.3, 1.0]))
    cfg = SimConfig(
        init_horizon=float(init), test_horizon=horizon + 1.0, total_budget=draw(st.sampled_from([0.0, 2.0, 5.0])),
        prefetch_cap=draw(st.integers(1, 4)), cache_fraction=draw(st.sampled_from([0.05, 0.1, 0.25])),
        bounds=lower and (lower, lower * draw(st.sampled_from([1.0, 3.0, 10.0]))), latent_dim=2,
        seed=draw(st.integers(0, 99)), train=TrainConfig(learning_rate=1e-3, max_iters=3, update_interval_hours=interval),
    )
    return cfg, log, random_schedule(cfg, catalog, rng)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(replay_cases())
def test_every_policy_replays_as_the_reference(case):
    # Each fitted policy replays the trace's own fit, which starts from
    # constant parameters and keeps many utilities exactly tied, and the
    # hand-built schedule, whose random epochs tie none and differ widely.
    cfg, log, hand_built = case
    fitted = sim.fit_schedule(cfg, log, cfg.test_horizon)
    for policy in sim.POLICIES:
        for schedule in (fitted, hand_built) if policy in sim.FITTED_POLICIES else (None,):
            reference = assert_replays_as_reference(dataclasses.replace(cfg, policy=policy), log, schedule)
            # Random epochs leave no exact tie, so their equality rests on no tie-break.
            assert schedule is not hand_built or reference.ties == 0


class TestSharedStampSweep:
    """Misses at one edge and stamp share one utility sweep (mav: one read of
    its averages) and one re-scoring of the residents. The reference replay
    shares nothing and decides alike, so its misses give the expected counts."""

    @pytest.mark.parametrize("policy", ["ppvf", "sage", "bestfit", "mav"])
    def test_one_sweep_per_miss_stamp(self, policy):
        log = synthetic_log(catalog=30, edges=2, horizon=120.0, seed=4)
        hourly = trace.EventLog(
            log.edge_ids, log.user_ids, log.video_ids, np.floor(log.timestamps),
            log.catalog_size, log.edge_count, log.horizon,
        )
        cfg = SimConfig(
            policy=policy, init_horizon=24.0, test_horizon=121.0, cache_fraction=0.3, latent_dim=2, seed=9,
            train=TrainConfig(max_iters=3, update_interval_hours=48.0),
        )
        schedule = sim.fit_schedule(cfg, hourly, cfg.test_horizon) if policy in sim.FITTED_POLICIES else None
        order = np.argsort(hourly.edge_ids, kind="stable")
        requests = list(zip(hourly.edge_ids[order].tolist(), hourly.timestamps[order].tolist()))
        fetches = replay_reference(cfg, hourly, schedule).fetches
        stamps, miss_stamps = len(set(requests)), len({r for r, fetched in zip(requests, fetches) if fetched})
        misses = sum(map(bool, fetches))
        assert stamps > miss_stamps and misses > miss_stamps  # some stamps only hit, some misses share one
        calls = Counter()

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        with pytest.MonkeyPatch.context() as mp:
            for owner, name in (
                (sim, "intensity_sweep"), (sim, "advance_state"), (cdp.CorrelationState, "update"),
                (cache_mod.MavState, "scores"), (cache_mod.EdgeCache, "refresh_scores"),
            ):
                mp.setattr(owner, name, counted(name, getattr(owner, name)))
            run_simulation(cfg, hourly, schedule)
        if policy == "mav":
            expected = {"scores": miss_stamps, "refresh_scores": miss_stamps}
        else:
            # Every stamp folds its requests; a stamp with a miss also takes a left limit.
            expected = {"intensity_sweep": miss_stamps, "refresh_scores": miss_stamps,
                        "advance_state": stamps + miss_stamps, "update": misses}
        assert calls == Counter(expected)


def barrier_crossing_log():
    """Edge 0 has requests on every 12 h barrier (two on 24 h), edge 1 has
    none, and edge 2 is silent from 10 h to 30 h, across two barriers."""
    rng = np.random.default_rng(41)
    stamps = {
        0: np.concatenate((np.floor(rng.uniform(0.0, 72.0, 60) * 2) / 2, [12.0, 24.0, 24.0, 36.0, 48.0, 60.0])),
        2: np.concatenate((rng.uniform(0.0, 10.0, 12), [10.0, 30.0, 48.0], rng.uniform(30.0, 72.0, 25))),
    }
    events = [
        RequestEvent(edge, int(rng.integers(0, 3)), int(rng.integers(0, 12)), float(t))
        for edge, times in stamps.items()
        for t in times
    ]
    return event_log_from_events(events, catalog_size=12, edge_count=3, horizon=73.0)


class TestBarrierSwitch:
    """Each edge switches to the next fitted parameters when a request
    reaches that barrier. The hashes were recorded with every edge driven in
    lock-step to each barrier, so the one-pass replay must match them; lru
    and lfu, which read no barrier, pin the bytes of their runtime too."""

    EXPECTED = {
        "ppvf": "5558b71041133544c6a2bb40a79a27029c0dbd4fb319c12bed057abc9ce6c92c",
        "sage": "156e3a26d8995f8a291d146f30c664f912ab244fa328f1fc8cdd44b57e65a23a",
        "bestfit": "d35bbb22e76e82537681beb00dee76bb11914bc20eeb612674f414e799f241d6",
        "mav": "040de8e9e462c82854cb31175eeccf072c2608ada35ef363ff51d8a4f03d23fa",
        "lru": "d711d0add809d00bf3df328a243bf26ef78ff08b85938831653f2549c7e2a96d",
        "lfu": "c8f9424dd8b7d6a080c9531e849bdac7eee5737424d9f87b362ec218f3a08f05",
    }

    @staticmethod
    def _cfg(policy):
        return SimConfig(
            policy=policy,
            init_horizon=6.0,
            test_horizon=73.0,
            cache_fraction=0.25,
            latent_dim=2,
            seed=4,
            train=TrainConfig(max_iters=3, update_interval_hours=12.0),
        )

    @pytest.mark.parametrize("policy", sorted(EXPECTED))
    def test_report_csvs_unchanged(self, policy, tmp_path):
        cfg = self._cfg(policy)
        report = run_simulation(cfg, barrier_crossing_log())
        digest = hashlib.sha256()
        for name in sim.write_reports(tmp_path, [(policy, cfg.cache_fraction, report)], "c", cfg.cache_fraction):
            digest.update(name.encode() + (tmp_path / name).read_bytes())
        assert digest.hexdigest() == self.EXPECTED[policy]

    def test_requests_fold_under_their_stamps_epoch(self):
        # Epochs of random parameters differ widely, so a fold under the
        # wrong epoch, a left limit that sees its own stamp, or a correlation
        # state that miscounts the barriers an edge crossed in a gap changes
        # the run. It must replay as the reference, which rebuilds each
        # miss's kernel from the strict past under its stamp's epoch.
        cfg = self._cfg("ppvf")
        schedule = random_schedule(cfg, 12, np.random.default_rng(5))
        for policy in sorted(sim.FITTED_POLICIES):
            run_cfg = dataclasses.replace(cfg, policy=policy)
            assert assert_replays_as_reference(run_cfg, barrier_crossing_log(), schedule).ties == 0


def test_non_finite_sweep_refused_at_first_miss():
    # A sweep that overflows is refused once per stamp, where the stamp's
    # first miss takes it, before any of its requests fold in.
    cfg = SimConfig(init_horizon=6.0, test_horizon=73.0, latent_dim=2)
    edge_log = trace.partition_by_edge(barrier_crossing_log())[0]
    params = ModelParams(np.ones(12), np.full((12, 2), 1e300), np.ones((12, 2)), cfg.decay)
    rt = sim._EdgeRuntime(0, edge_log, cfg, schedule_of([params]).table, 3)
    first = float(edge_log.timestamps[0])
    rt.kernel = predictor.KernelState(np.zeros(12), np.full(2, 1e300), first)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        rt.run([], [params])
    assert rt.kernel.last_update == first
    assert rt.corr.steps == 0


def test_eps_steps_stop_at_the_catalog():
    # A candidate set never holds more videos than the catalog, so a prefetch
    # cap past it adds no reachable candidate count to the per-draw budgets.
    cfg = SimConfig(prefetch_cap=10**5, init_horizon=6.0, test_horizon=73.0, latent_dim=2)
    edge_log = trace.partition_by_edge(barrier_crossing_log())[0]
    rt = sim._EdgeRuntime(0, edge_log, cfg, schedule_of([ModelParams.constant(12, 2)]).table, 3)
    assert len(rt.eps_steps) == 13
    assert rt.eps_steps == [float(k * rt.ledger.cost / cfg.prefetch_cap) for k in range(13)]
