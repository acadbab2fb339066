import math

import numpy as np
import pytest

from oracles import rebuild_state
from ppvf import predictor, sim, trace
from ppvf.federation import TrainConfig
from ppvf.predictor import ModelParams
from ppvf.sim import (
    FetchRecord,
    SimConfig,
    budget_cdf,
    cache_hit_ratio,
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
    def test_all_hits(self):
        assert cache_hit_ratio(12, 12) == 1.0

    def test_no_hits(self):
        assert cache_hit_ratio(0, 7) == 0.0

    def test_fraction(self):
        assert cache_hit_ratio(3, 12) == 0.25

    def test_zero_requests_rejected(self):
        with pytest.raises(ValueError):
            cache_hit_ratio(0, 0)


class TestBudgetCdf:
    def _ledger(self, consumed_units, total=4):
        from ppvf.scheduler import PrivacyLedger

        ledger = PrivacyLedger.uniform(len(consumed_units), total, 1, 4)
        for video, units in enumerate(consumed_units):
            for _ in range(units):
                ledger.charge(video)
        return ledger

    def test_untouched_budgets_jump_at_one(self):
        points = budget_cdf([self._ledger([0, 0, 0])])
        assert points == [(1.0, 1.0)]

    def test_exhausted_budgets_jump_at_zero(self):
        points = budget_cdf([self._ledger([4, 4])])
        assert points == [(0.0, 1.0)]

    def test_half_exhausted(self):
        points = budget_cdf([self._ledger([4, 4, 0, 0])])
        assert points == [(0.0, 0.5), (1.0, 1.0)]

    def test_monotone(self):
        points = budget_cdf([self._ledger([4, 3, 1, 0])])
        fractions = [c for _, c in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0


class TestFetchRecord:
    def test_viewed_always_fetched(self):
        rec = FetchRecord(edge_id=0, step=1, viewed=5, prefetched=(7, 5, 9))
        assert rec.fetched[0] == 5
        assert set(rec.fetched) == {5, 7, 9}


class TestSimConfig:
    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(policy="magic")

    def test_bad_horizons_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(init_horizon=100.0, test_horizon=50.0)


def repeated_video_log(n, spacing=0.5):
    events = [trace.RequestEvent(0, 0, 0, i * spacing) for i in range(n)]
    return trace.EventLog.from_events(events, catalog_size=1, edge_count=1, horizon=n * spacing + 1)


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
