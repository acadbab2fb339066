import bisect
import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest

from oracles import event_log_from_events, rebuild_state
from ppvf import cache as cache_mod
from ppvf import cdp, predictor, sim, trace
from ppvf.federation import TrainConfig
from ppvf.predictor import ModelParams
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


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard_similarity({1, 2}, {1, 2}) == 1.0

    def test_disjoint_sets(self):
        assert jaccard_similarity({1}, {2}) == 0.0

    def test_partial_overlap(self):
        assert jaccard_similarity({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert jaccard_similarity(set(), set()) == 0.0


class TestChr:
    def _chr(self, hits, requests):
        return SimReport(policy="lru", hits=hits, requests=requests).chr_value

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
    events = [trace.RequestEvent(0, 0, 0, i * spacing) for i in range(n)]
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

    def test_zero_budget_spends_nothing(self):
        log = synthetic_log()
        report = run_simulation(self._cfg("ppvf", total_budget=0.0), log)
        assert all(r == 1.0 for r in report.residual_fractions)

    def test_zero_budget_equals_eviction_only_reference(self):
        # With the prefetch path disabled the run must reproduce, event for
        # event, a plain utility-scored cache fed only by viewed videos.
        # Flooring the stamps to the hour makes requests simultaneous; a
        # sweep must not see the requests that share its stamp.
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
            report = run_simulation(cfg, log)

            params = ModelParams.constant(log.catalog_size, cfg.latent_dim, 1.0, cfg.decay)
            capacity = max(1, round(cfg.cache_fraction * log.catalog_size))
            reference_hits = []
            for e in range(log.edge_count):
                mask = log.edge_ids == e
                times, vids = log.timestamps[mask], log.video_ids[mask]
                from ppvf.cache import EdgeCache

                cache = EdgeCache(capacity)
                for idx, (t, v) in enumerate(zip(times, vids)):
                    hit = cache.lookup(int(v))
                    if t >= cfg.init_horizon:
                        reference_hits.append(hit)
                    if not hit:
                        past = times < t  # brute-force left-limit sweep
                        state = rebuild_state(params, times[past], vids[past], t)
                        lam = predictor.intensity_sweep(params, state)
                        cache.refresh_scores(lam)
                        cache.admit([(int(v), lam[int(v)])])
            assert report.hit_sequence == reference_hits

    def test_deterministic_across_worker_counts(self):
        log = synthetic_log(catalog=25, edges=3, horizon=120.0, seed=5)
        reports = [
            run_simulation(self._cfg("ppvf", workers=w), log) for w in (None, 3)
        ]
        a, b = reports
        assert a.hits == b.hits and a.requests == b.requests
        assert a.per_user_js == b.per_user_js
        assert a.residual_fractions == b.residual_fractions
        assert a.fl_losses == b.fl_losses
        assert a.hit_sequence == b.hit_sequence

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
        # every test-period request either hit or was fetched upstream
        assert report.per_edge_fetches[0] > 0


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
        real_epoch_table = cdp.epoch_table
        real_constant = ModelParams.constant.__func__

        def empty(cls, *args, **kwargs):
            built["kernel"] += 1
            return real_empty(cls, *args, **kwargs)

        def corr_init(self, *args):
            built["corr"] += 1
            real_corr_init(self, *args)

        def observe(self, *args):
            built["observe"] += 1
            real_observe(self, *args)

        def epoch_table(*args):
            built["epoch_table"] += 1
            return real_epoch_table(*args)

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
            mp.setattr(cdp, "epoch_table", epoch_table)
            mp.setattr(ModelParams, "constant", classmethod(constant))
            report = run_simulation(cfg, log)
        fitted, observes, keys = self.SHAPES[policy]
        assert report.requests > 0
        assert built["kernel"] == built["corr"] == (log.edge_count if fitted else 0)
        # Only a fit starts from constant parameters and only fitted runs read an epoch table.
        assert built["constant"] == built["epoch_table"] == (1 if fitted else 0)
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

    def test_replay_rejects_a_schedule_that_kept_only_its_last_fit(self):
        log = synthetic_log(catalog=20)
        full = sim.fit_schedule(self.CFG, log, self.CFG.test_horizon)
        last = sim.fit_schedule(self.CFG, log, self.CFG.test_horizon, keep_all=False)
        assert len(full.params) == 1 + len(full.barriers) == 3 and len(last.params) == 1
        np.testing.assert_array_equal(last.params[0].base_rate, full.params[-1].base_rate)
        assert (last.settings, last.barriers, last.losses) == (full.settings, full.barriers, full.losses)
        with pytest.raises(ValueError, match="schedule fitted under"):
            run_simulation(self.CFG, log, last)


class TestSharedStampSweep:
    """Misses at one edge, stamp and parameter epoch share one utility sweep
    (mav: one read of its average) and one re-scoring of the residents."""

    @staticmethod
    def _run(policy, share=True):
        log = synthetic_log(catalog=30, edges=2, horizon=120.0, seed=4)
        hourly = trace.EventLog(
            log.edge_ids, log.user_ids, log.video_ids, np.floor(log.timestamps),
            log.catalog_size, log.edge_count, log.horizon,
        )
        calls = []
        sweeps, refreshes, misses = Counter(), Counter(), Counter()
        real_on_miss = sim._EdgeRuntime._on_miss

        def spy(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)

            return wrapped

        def on_miss_spy(self, params, video, ts, in_test):
            if not share:
                self.stamp_sweep = None  # forget the stamp's utilities
            before = len(calls)
            fetched = real_on_miss(self, params, video, ts, in_test)
            key = (self.edge_id, ts, id(params))
            for name in calls[before:]:
                (sweeps if name == "sweep" else refreshes)[key] += 1
            misses[key] += 1
            return fetched

        cfg = SimConfig(
            policy=policy, init_horizon=24.0, test_horizon=121.0, cache_fraction=0.1, latent_dim=2, seed=9,
            train=TrainConfig(max_iters=3, update_interval_hours=48.0),
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "intensity_sweep", spy("sweep", sim.intensity_sweep))
            mp.setattr(cache_mod.MavState, "scores", spy("sweep", cache_mod.MavState.scores))
            mp.setattr(cache_mod.EdgeCache, "refresh_scores", spy("refresh", cache_mod.EdgeCache.refresh_scores))
            mp.setattr(sim._EdgeRuntime, "_on_miss", on_miss_spy)
            return run_simulation(cfg, hourly), sweeps, refreshes, misses

    @pytest.mark.parametrize("policy", ["ppvf", "sage", "bestfit", "mav"])
    def test_one_sweep_per_miss_stamp(self, policy):
        report, sweeps, refreshes, misses = self._run(policy)
        assert sweeps == refreshes == Counter(dict.fromkeys(misses, 1))
        assert sum(misses.values()) > len(misses)  # some misses share a stamp
        # Sweeping every miss afresh, and refreshing every score, changes nothing.
        fresh, fresh_sweeps, fresh_refreshes, _ = self._run(policy, share=False)
        assert sum(fresh_sweeps.values()) == sum(fresh_refreshes.values()) == sum(misses.values())
        assert report.hit_sequence == fresh.hit_sequence
        assert report.per_user_js == fresh.per_user_js
        assert report.residual_fractions == fresh.residual_fractions


def barrier_crossing_log():
    """Edge 0 has requests on every 12 h barrier (two on 24 h), edge 1 has
    none, and edge 2 is silent from 10 h to 30 h, across two barriers."""
    rng = np.random.default_rng(41)
    stamps = {
        0: np.concatenate((np.floor(rng.uniform(0.0, 72.0, 60) * 2) / 2, [12.0, 24.0, 24.0, 36.0, 48.0, 60.0])),
        2: np.concatenate((rng.uniform(0.0, 10.0, 12), [10.0, 30.0, 48.0], rng.uniform(30.0, 72.0, 25))),
    }
    events = [
        trace.RequestEvent(edge, int(rng.integers(0, 3)), int(rng.integers(0, 12)), float(t))
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

    def test_requests_fold_under_their_stamps_epoch(self, monkeypatch):
        # Every fold uses the parameters of the epoch its requests were
        # stamped in, and each edge's correlation state ends in the epoch of
        # its last request: barriers after it, or in a gap, are all counted.
        cfg = self._cfg("ppvf")
        barriers = sim.barrier_times(cfg, cfg.test_horizon)
        params_list = [ModelParams.constant(12, 2, 1.0 + 0.1 * e, cfg.decay) for e in range(len(barriers) + 1)]
        folds, limits = [], []
        real_advance = sim.advance_state

        def spy(params, state, to_time, *args, **kwargs):
            # A call that passes videos folds them; one without is a left limit.
            (folds if args or kwargs else limits).append((params, to_time))
            return real_advance(params, state, to_time, *args, **kwargs)

        monkeypatch.setattr(sim, "advance_state", spy)
        for edge_id, edge_log in enumerate(trace.partition_by_edge(barrier_crossing_log())):
            folds.clear()
            limits.clear()
            rt = sim._EdgeRuntime(edge_id, edge_log, cfg, cdp.epoch_table(params_list), 3)
            rt.run(barriers, params_list)
            for params, stamp in folds + limits:
                assert params is params_list[bisect.bisect_right(barriers, stamp)]
            # Each stamp folds once, after it; nothing reads the last.
            assert [stamp for _, stamp in folds] == sorted(set(edge_log.timestamps.tolist()))[:-1]
            # At most one left limit per stamp.
            assert len({stamp for _, stamp in limits}) == len(limits)
            last = edge_log.timestamps[-1] if len(edge_log) else 0.0
            assert len(rt.corr.epochs) == 1 + bisect.bisect_right(barriers, last)


def test_eps_steps_stop_at_the_catalog():
    # A candidate set never holds more videos than the catalog, so a prefetch
    # cap past it adds no reachable candidate count to the per-draw budgets.
    cfg = SimConfig(prefetch_cap=10**5, init_horizon=6.0, test_horizon=73.0, latent_dim=2)
    edge_log = trace.partition_by_edge(barrier_crossing_log())[0]
    rt = sim._EdgeRuntime(0, edge_log, cfg, cdp.epoch_table([ModelParams.constant(12, 2)]), 3)
    assert len(rt.eps_steps) == 13
    assert rt.eps_steps == [float(k * rt.ledger.cost / cfg.prefetch_cap) for k in range(13)]
