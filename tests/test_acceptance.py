"""Acceptance suite: one test per release criterion, at its stated tolerance
and runtime budget. Each prints a single PASS/FAIL line; run with

    pytest tests/test_acceptance.py -v -s
"""

import hashlib
import json
import math
import os
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

from oracles import (
    advance_event_by_event,
    assert_gradients_close,
    brute_intensity_all,
    correlation_degree,
    dp_ratio_check,
    em_weights,
    fd_gradients,
    gradients,
    identity_correlation_state,
    intensity,
    log_likelihood,
    quadrature_ll,
    rebuild_state,
    update_correlation,
    video_sensitivity,
)
from ppvf import cdp, cli, federation, predictor, scheduler, sim, trace
from ppvf.federation import TrainConfig
from ppvf.predictor import KernelState, ModelParams, TrainWindow
from ppvf.scheduler import CandidateSet, PrivacyLedger, ThresholdConfig


@contextmanager
def criterion(name: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    elapsed = time.perf_counter() - started
    if elapsed >= budget_seconds:
        print(f"ACCEPTANCE FAIL: {name} (runtime {elapsed:.1f}s over {budget_seconds}s budget)")
        raise AssertionError(f"{name}: runtime {elapsed:.1f}s exceeds {budget_seconds}s")
    print(f"ACCEPTANCE PASS: {name} ({elapsed:.1f}s)")


def make_log(times, vids, catalog, horizon):
    n = len(times)
    return trace.EventLog(
        edge_ids=np.zeros(n, dtype=np.int64),
        user_ids=np.zeros(n, dtype=np.int64),
        video_ids=np.asarray(vids, dtype=np.int64),
        timestamps=np.asarray(times, dtype=np.float64),
        catalog_size=catalog,
        edge_count=1,
        horizon=horizon,
    )


def test_competitive_ratio_bound():
    with criterion("competitive ratio bound on 200 seeded instances", 30.0):
        cfg = ThresholdConfig(upper=10.0, lower=1.0)
        instances = scheduler.random_cr_instances(
            count=200, n_videos=4, steps=6, prefetch_cap=3, cfg=cfg, budget_units=20, seed=2024
        )
        worst = scheduler.empirical_cr(instances, seed=2025)
        assert worst <= cfg.cr_bound * 1.15, (worst, cfg.cr_bound)
        assert worst >= 1.0


def test_threshold_identities():
    with criterion("threshold identities and monotonicity", 1.0):
        for lower, upper in ((1.0, 10.0), (0.3, 0.3 * math.e), (2.5, 400.0)):
            cfg = ThresholdConfig(upper=upper, lower=lower)
            assert scheduler.threshold(0.0, cfg) == lower
            assert abs(scheduler.threshold(1.0, cfg) - upper) <= 1e-12 * upper
            knee = cfg.knee
            from_below = scheduler.threshold(knee, cfg)
            from_above = (upper * math.e / lower) ** knee * lower / math.e
            assert abs(from_below - from_above) <= 1e-12 * max(from_below, from_above)
            grid = np.linspace(0.0, 1.0, 10_000)
            values = np.array([scheduler.threshold(g, cfg) for g in grid])
            assert np.all(np.diff(values) >= -1e-15)


def test_gradient_correctness_fifty_instances():
    with criterion("analytic gradients vs central finite differences (50 instances)", 60.0):
        rng = np.random.default_rng(314)
        for _ in range(50):
            catalog = int(rng.integers(3, 7))
            dim = int(rng.integers(1, 4))
            n_events = int(rng.integers(5, 26))
            params = ModelParams(
                base_rate=rng.uniform(0.05, 0.6, catalog),
                target_factors=rng.uniform(0.01, 0.25, (catalog, dim)),
                source_factors=rng.uniform(0.01, 0.25, (catalog, dim)),
                decay=float(rng.uniform(0.005, 0.05)),
            )
            horizon = 60.0
            times = np.sort(rng.uniform(0.0, horizon, n_events))
            vids = rng.integers(0, catalog, n_events)
            window = TrainWindow(end=horizon, length=float(rng.uniform(10.0, 45.0)))
            log = make_log(times, vids, catalog, horizon)
            analytic = gradients(params, log, window)
            numeric = fd_gradients(params, log, window, step=1e-5)
            assert_gradients_close(analytic, numeric, rel=1e-4, tiny=1e-6)


def test_likelihood_matches_quadrature():
    with criterion("closed-form window likelihood vs quadrature", 10.0):
        for seed in (11, 99):
            rng = np.random.default_rng(seed)
            catalog = 5
            params = ModelParams(
                base_rate=rng.uniform(0.05, 0.5, catalog),
                target_factors=rng.uniform(0.01, 0.2, (catalog, 2)),
                source_factors=rng.uniform(0.01, 0.2, (catalog, 2)),
                decay=0.01,
            )
            times = np.sort(rng.uniform(0.0, 100.0, 30))
            vids = rng.integers(0, catalog, 30)
            window = TrainWindow(end=100.0, length=40.0)
            log = make_log(times, vids, catalog, 100.0)
            closed = log_likelihood(params, log, window)
            numeric = quadrature_ll(params, times, vids, window)
            assert abs(closed - numeric) <= 1e-6 * abs(numeric), (closed, numeric)


def test_intensity_brute_force_equivalence():
    with criterion("incremental intensity vs brute-force double sum (1000 events)", 10.0):
        rng = np.random.default_rng(2718)
        catalog, dim = 8, 3
        params = ModelParams(
            base_rate=rng.uniform(0.05, 0.5, catalog),
            target_factors=rng.uniform(0.01, 0.15, (catalog, dim)),
            source_factors=rng.uniform(0.01, 0.15, (catalog, dim)),
            decay=0.01,
        )
        times = np.sort(rng.uniform(0.0, 500.0, 1000))
        vids = rng.integers(0, catalog, 1000)
        state = KernelState.empty(catalog, dim)
        for at in (100.3, 250.9, 500.0):
            # Fold the events since the last instant one at a time, then decay to it.
            new = (times > state.last_update) & (times <= at)
            state = advance_event_by_event(params, state, times[new], vids[new], at)
            brute = brute_intensity_all(params, times[times < at], vids[times < at], at)
            # events exactly at `at` never exist here (continuous draws)
            fast = predictor.intensity_sweep(params, state)
            assert np.allclose(fast, brute, rtol=1e-9)


def test_em_distribution():
    with criterion("exponential mechanism empirical distribution", 10.0):
        # Four-candidate case: exact vs empirical total variation.
        utilities = np.array([1.5, 0.9, 0.3, 0.05])
        cands = CandidateSet(videos=(3, 6, 9, 12), cap=4)
        eps_step, sens = 1.1, 0.6
        exact = em_weights(utilities, eps_step, sens)
        rng = np.random.default_rng(161803)
        n = 100_000
        counts = np.zeros(4)
        for _ in range(n):
            decision = cdp.em_sample(cands, utilities, eps_step, sens, 1, rng)
            counts[list(cands).index(decision[0])] += 1
        tv = 0.5 * float(np.abs(counts / n - exact).sum())
        assert tv <= 0.005, tv

        # Two-candidate closed form: probabilities e/(e+1) and 1/(e+1).
        sens2 = 0.7
        two = CandidateSet(videos=(0, 1), cap=4)
        util2 = np.array([2 * sens2, 0.0])
        first = 0
        for _ in range(n):
            decision = cdp.em_sample(two, util2, 1.0, sens2, 1, rng)
            first += decision[0] == 0
        p_first = first / n
        assert abs(p_first - math.e / (math.e + 1)) <= 0.01
        assert abs(math.e / (math.e + 1) - 0.7311) < 5e-5


def test_dp_ratio_bound_hundred_pairs():
    with criterion("DP log-probability ratio bounded by per-draw budget", 5.0):
        rng = np.random.default_rng(271828)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            cands = CandidateSet(videos=tuple(range(n)), cap=8)
            lam = rng.uniform(0.0, 4.0, n)
            sens = float(rng.uniform(0.05, 1.5))
            adj = lam + rng.uniform(-sens, sens, n)
            adj = np.clip(adj, 0.0, None)
            eps = float(rng.uniform(0.05, 3.0))
            ratio = dp_ratio_check(cands, lam, adj, eps, sens)
            assert ratio <= eps, (ratio, eps)


def test_correlation_and_sensitivity_oracles():
    with criterion("incremental Pearson and closed-form sensitivity oracles", 10.0):
        rng = np.random.default_rng(577)
        catalog = 6
        sweeps = rng.uniform(0.0, 3.0, size=(1000, catalog))
        state = identity_correlation_state(catalog)
        for lam in sweeps:
            update_correlation(state, lam)
        batch = np.corrcoef(sweeps.T)
        for i in range(catalog):
            for j in range(catalog):
                assert abs(correlation_degree(state, i, j) - batch[i, j]) <= 1e-9

        params = ModelParams(
            base_rate=rng.uniform(0.1, 0.5, catalog),
            target_factors=rng.uniform(0.05, 0.3, (catalog, 2)),
            source_factors=rng.uniform(0.05, 0.3, (catalog, 2)),
            decay=0.01,
        )
        times = np.sort(rng.uniform(0.0, 60.0, 40))
        vids = rng.integers(0, catalog, 40)
        at = 61.0
        kstate = rebuild_state(params, times, vids, at)
        cands = CandidateSet(videos=(0, 1, 3, 5), cap=4)
        for i in cands:
            closed = video_sensitivity(params, kstate, state, cands, i)
            literal = 0.0
            full = intensity(params, kstate, i)
            for j in cands:
                keep = vids != j
                reduced = intensity(
                    params, rebuild_state(params, times[keep], vids[keep], at), i
                )
                literal += abs(correlation_degree(state, i, j)) * abs(full - reduced)
            assert abs(closed - literal) <= 1e-9 * max(abs(literal), 1e-12), (closed, literal)


def test_budget_safety_exhaustive():
    with criterion("budget never exceeded over 10^4 allocation steps", 30.0):
        rng = np.random.default_rng(8128)
        cfg = ThresholdConfig(upper=50.0, lower=0.05)
        ledgers = [
            PrivacyLedger.uniform(40, Fraction(15), Fraction(1), 4),
            PrivacyLedger.uniform(40, Fraction(5), Fraction(1, 3), 4),
        ]
        for ledger in ledgers:
            for _ in range(10_000):
                utilities = rng.uniform(0.01, 2.0, 40)
                _, ledger = scheduler.select_candidates(utilities, ledger, cfg, rng)
            for video in range(ledger.catalog_size):
                assert ledger.consumed[video] <= ledger.total_budget  # exact rationals
                charges = ledger.consumed[video] / ledger.unit_cost[video]
                assert charges.denominator == 1
                assert 0 <= ledger.consumed_fraction(video) <= 1


def _recovery_ground_truth(seed):
    rng = np.random.default_rng(seed)
    catalog, dim = 10, 2
    base = 0.2 * (np.arange(1, catalog + 1) ** -0.8)
    tgt = rng.uniform(0.1, 1.0, (catalog, dim))
    src = rng.uniform(0.1, 1.0, (catalog, dim))
    first = ModelParams(base, tgt, src, 0.01)
    scale = math.sqrt(0.55 / trace.excitation_branching_ratio(first))
    return ModelParams(base, tgt * scale, src * scale, 0.01)


def _clip(log, before):
    stop = int(np.searchsorted(log.timestamps, before, side="left"))
    return trace.EventLog(
        log.edge_ids[:stop], log.user_ids[:stop], log.video_ids[:stop],
        log.timestamps[:stop], log.catalog_size, log.edge_count, before,
    )


def test_parameter_recovery():
    with criterion("parameter recovery: held-out intensity Spearman > 0.8", 300.0):
        gt = _recovery_ground_truth(42)
        log = trace.generate_synthetic(trace.SyntheticSpec(10, 3, 480.0, gt, rng_seed=42))
        assert 1300 <= len(log) <= 2700  # the spec's ~2000-event scale
        parts = trace.partition_by_edge(log)
        fit_end = 432.0
        cfg = TrainConfig(
            rho_base=1e-4, rho_target=1e-4, rho_source=1e-4,
            learning_rate=4e-3, max_iters=800, tolerance=1e-10,
        )
        window = TrainWindow(end=fit_end, length=fit_end)
        result = federation.run_fit_round([_clip(p, fit_end) for p in parts], ModelParams.constant(10, 2, 1.0, 0.01), window, cfg)
        fitted, true = [], []
        for part in parts:
            for at in np.arange(438.0, 480.0, 3.0):
                past = part.timestamps < at
                state_f = rebuild_state(result.params, part.timestamps[past], part.video_ids[past], at)
                state_t = rebuild_state(gt, part.timestamps[past], part.video_ids[past], at)
                fitted.extend(predictor.intensity_sweep(result.params, state_f))
                true.extend(predictor.intensity_sweep(gt, state_t))
        rho = spearmanr(fitted, true).statistic
        assert rho > 0.8, rho


def _directional_trace(seed):
    rng = np.random.default_rng(seed)
    catalog, dim = 500, 10
    base = 0.25 * (np.arange(1, catalog + 1) ** -1.0)
    tgt = rng.uniform(0.1, 1.0, (catalog, dim))
    src = rng.uniform(0.1, 1.0, (catalog, dim))
    first = ModelParams(base, tgt, src, 0.01)
    scale = math.sqrt(0.35 / trace.excitation_branching_ratio(first))
    gt = ModelParams(base, tgt * scale, src * scale, 0.01)
    return trace.generate_synthetic(
        trace.SyntheticSpec(catalog, 5, 720.0, gt, rng_seed=seed, users_per_edge=20)
    )


def test_directional_experiment_reproduction():
    with criterion(
        "directional orderings: JS(ppvf) < JS(bestfit) and CHR(ppvf) > CHR(lru)", 600.0
    ):
        log = _directional_trace(1001)
        train = TrainConfig(
            rho_base=1e-4, rho_target=1e-4, rho_source=1e-4,
            learning_rate=2e-3, max_iters=20, update_interval_hours=48.0,
        )
        reports = {}
        for policy in ("ppvf", "bestfit", "lru"):
            cfg = sim.SimConfig(
                policy=policy,
                init_horizon=240.0,
                test_horizon=720.0,
                total_budget=15.0,
                unit_cost=1.0,
                prefetch_cap=4,
                cache_fraction=0.01,
                latent_dim=10,
                train=train,
                seed=5,
            )
            reports[policy] = sim.run_simulation(cfg, log)
        assert reports["ppvf"].mean_js < reports["bestfit"].mean_js, (
            reports["ppvf"].mean_js,
            reports["bestfit"].mean_js,
        )
        assert reports["ppvf"].chr_value > reports["lru"].chr_value, (
            reports["ppvf"].chr_value,
            reports["lru"].chr_value,
        )


def _sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_simulation_determinism_across_thread_counts(tmp_path):
    with criterion("byte-identical CSV outputs across --threads values", 600.0):
        config = tmp_path / "det.cfg"
        config.write_text(
            "catalog_size = 60\nedges = 3\nhorizon = 360\ninit_horizon = 72\n"
            "mean_base = 0.1\nbranching = 0.25\nc = 0.05\nmax_iters = 5\n"
            "latent_dim = 4\neta = 0.002\n"
        )
        trace_path = str(tmp_path / "det_trace.csv")
        assert cli.main(["gen-trace", "--config", str(config), "--seed", "17", "--out", trace_path]) == 0
        digests = []
        for threads in ("1", "4"):
            out = str(tmp_path / f"det_out_{threads}")
            code = cli.main(
                [
                    "simulate", "--config", str(config), "--trace", trace_path,
                    "--policy", "ppvf,sage,lru", "--seed", "17",
                    "--threads", threads, "--out", out,
                ]
            )
            assert code == 0
            manifest = json.loads(Path(out, "manifest.json").read_text())
            digests.append(
                {name: _sha(os.path.join(out, name)) for name in manifest["outputs"]}
            )
        assert digests[0] == digests[1]
