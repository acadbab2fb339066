"""Trace-driven simulation of privacy-preserving prefetching at the edge.

Every request first probes its edge's cache. A miss triggers one utility
sweep shared by candidate selection, sensitivity calibration, noisy
prefetch sampling, and cache scoring; the fetch sent upstream is the viewed
video plus the sampled prefetches, and that union is all the content
provider ever observes. Model parameters refresh on a fixed schedule
through federated fitting over the edges' private logs. The warmup period
exercises caches and state but spends no privacy budget and counts toward
no metric.

The trace is the only record of requests. It is split by edge once, and
each edge replays its own log up to the next fitting barrier, one edge at a
time on the calling thread (the per-event loop holds the GIL, so threads
give no speedup). Each barrier's fit (:func:`fit_barriers`, which ``ppvf
fit`` runs too) reads the requests stamped before it from the edge logs, so
the fitted sequence depends on the trace and the settings alone. All
randomness flows from per-edge seeded streams and all reductions are
order-independent, so reports depend on the seed alone.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import cache as cache_mod
from . import cdp, scheduler
from .federation import TrainConfig, require_finite, run_fit_round
from .predictor import KernelState, ModelParams, TrainWindow, advance_state, intensity_sweep
from .trace import EventLog, partition_by_edge

POLICIES = ("ppvf", "sage", "bestfit", "mav", "lru", "lfu")
_MEP_POLICIES = {"ppvf", "sage", "bestfit"}


@dataclass(frozen=True)
class SimConfig:
    policy: str = "ppvf"
    init_horizon: float = 240.0
    test_horizon: float = 720.0
    total_budget: float = 15.0
    unit_cost: float = 1.0
    prefetch_cap: int = 4
    cache_fraction: float = 0.01
    bounds: tuple[float, float] | None = None  # (lower, upper); None = warmup estimate
    decay: float = 0.01
    latent_dim: int = 10
    truncation: float = math.exp(-0.48)
    train: TrainConfig = field(default_factory=TrainConfig)
    slot_hours: float = 1.0
    mav_weight: float = 0.9
    seed: int = 0
    workers: int | None = None  # accepted for compatibility; execution is sequential

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; choose from {POLICIES}")
        require_finite(self)
        if not 0 <= self.init_horizon < self.test_horizon:
            raise ValueError("need 0 <= init_horizon < test_horizon")
        if self.total_budget < 0 or self.unit_cost <= 0:
            raise ValueError("total_budget must be >= 0 and unit_cost positive")
        if self.prefetch_cap < 1:
            raise ValueError("prefetch_cap must be >= 1")
        if not 0 < self.cache_fraction <= 1:
            raise ValueError("cache_fraction must lie in (0, 1]")
        if self.bounds is not None and not 0 < self.bounds[0] <= self.bounds[1] < math.inf:
            raise ValueError("bounds need 0 < lower <= upper, both finite")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if not 0 < self.truncation < 1:
            raise ValueError("truncation must lie in (0, 1)")
        if self.decay <= 0:
            raise ValueError("decay must be positive")
        if self.slot_hours <= 0:
            raise ValueError("slot_hours must be positive")
        if not 0 <= self.mav_weight < 1:
            raise ValueError("mav_weight must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class FetchRecord:
    """One upstream fetch: the viewed video joined with its prefetch noise."""

    edge_id: int
    step: int
    viewed: int
    prefetched: tuple[int, ...]

    @property
    def fetched(self) -> tuple[int, ...]:
        return (self.viewed,) + tuple(v for v in self.prefetched if v != self.viewed)


@dataclass
class SimReport:
    policy: str
    cache_capacity: int
    hits: int = 0
    requests: int = 0
    per_edge_fetches: list[int] = field(default_factory=list)
    per_user_js: dict[tuple[int, int], float] = field(default_factory=dict)
    residual_fractions: list[float] = field(default_factory=list)
    fl_losses: list[tuple[float, int, float]] = field(default_factory=list)
    hit_sequence: list[bool] = field(default_factory=list)

    @property
    def chr_value(self) -> float:
        return 0.0 if self.requests == 0 else self.hits / self.requests

    @property
    def mean_js(self) -> float:
        if not self.per_user_js:
            return 0.0
        return float(np.mean(list(self.per_user_js.values())))


def jaccard_similarity(profile_a: set, profile_b: set) -> float:
    """Overlap of two request supports; both empty counts as identical-empty 0."""
    if not profile_a and not profile_b:
        return 0.0
    union = profile_a | profile_b
    return len(profile_a & profile_b) / len(union)


def cache_hit_ratio(hits: int, requests: int) -> float:
    if requests <= 0:
        raise ValueError("cache hit ratio undefined without requests")
    value = hits / requests
    if not 0 <= value <= 1:
        raise ValueError("hit count exceeds request count")
    return value


def budget_cdf(ledgers) -> list[tuple[float, float]]:
    """Empirical CDF of per-video residual budget fractions, pooled over edges."""
    residuals = [ledger.residual_fractions() for ledger in ledgers]
    return _cdf_points(np.concatenate(residuals) if residuals else [])


class _BoundTracker:
    """Running utility/cost ratio extremes during warmup, frozen at test time."""

    def __init__(self, fixed: tuple[float, float] | None):
        self.lo = math.inf
        self.hi = 0.0
        self.cfg = (
            scheduler.ThresholdConfig(lower=fixed[0], upper=fixed[1]) if fixed else None
        )

    def observe(self, ratios: np.ndarray) -> None:
        if self.cfg is not None:
            return
        positive = ratios[ratios > 0]
        if positive.size:
            self.lo = min(self.lo, float(positive.min()))
            self.hi = max(self.hi, float(positive.max()))

    def frozen(self, fallback_ratios: np.ndarray) -> scheduler.ThresholdConfig:
        if self.cfg is None:
            if self.hi <= 0.0:
                self.observe(fallback_ratios)
            if self.hi <= 0.0:
                self.lo = self.hi = 1.0
            self.cfg = scheduler.ThresholdConfig(lower=min(self.lo, self.hi), upper=self.hi)
        return self.cfg


class _EdgeRuntime:
    """All mutable per-edge state, driven by a replay of that edge's log.

    ``cursor`` indexes the next request to replay. Fitted policies fold
    requests into the kernel one timestamp at a time: ``[folded, cursor)``
    are replayed requests that share one stamp and are not folded yet, so a
    sweep at that stamp sees only the strictly earlier past (left limit).
    """

    def __init__(self, edge_id: int, log: EventLog, cfg: SimConfig, epochs: np.ndarray, capacity: int):
        catalog_size = epochs.shape[1]
        self.edge_id = edge_id
        self.log = log
        self.cfg = cfg
        self.cursor = 0
        self.folded = 0
        self.kernel = KernelState.empty(catalog_size, cfg.latent_dim)
        self.ledger = scheduler.PrivacyLedger.uniform(
            catalog_size, cfg.total_budget, cfg.unit_cost, cfg.prefetch_cap
        )
        # The exponential mechanism's per-draw budget for each candidate count.
        self.eps_steps = [
            float(k * self.ledger.cost / cfg.prefetch_cap) for k in range(cfg.prefetch_cap + 1)
        ]
        self.corr = cdp.CorrelationState(catalog_size)
        self.corr.start_epoch(epochs)
        self.bounds = _BoundTracker(cfg.bounds)
        if cfg.policy == "lru":
            self.cache = cache_mod.LruCache(capacity)
        elif cfg.policy == "lfu":
            self.cache = cache_mod.LfuCache(capacity)
        else:
            self.cache = cache_mod.EdgeCache(capacity)
        self.mav = (
            cache_mod.MavState(catalog_size, cfg.slot_hours, cfg.mav_weight)
            if cfg.policy == "mav"
            else None
        )
        self.rng_sched = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(edge_id, 0))
        )
        self.rng_em = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(edge_id, 1))
        )
        self.hits = 0
        self.miss_step = 0
        self.exposed: set[int] = set()
        self.hit_sequence: list[bool] = []

    # -- kernel bookkeeping ------------------------------------------------

    def fold(self, params: ModelParams, before: float = math.inf) -> None:
        """Fold the replayed requests ``[folded, cursor)`` if stamped before ``before``.

        They share one stamp, so they fold together or not at all.
        """
        if self.folded == self.cursor or self.log.timestamps[self.folded] >= before:
            return
        times = self.log.timestamps[self.folded : self.cursor]
        videos = self.log.video_ids[self.folded : self.cursor]
        advance_state(params, self.kernel, float(times[0]), times, videos, in_place=True)
        self.folded = self.cursor

    def _left_limit_state(self, params: ModelParams, at_time: float) -> KernelState:
        """Kernel state at ``at_time`` excluding any event at exactly that instant."""
        fade = math.exp(-params.decay * (at_time - self.kernel.last_update))
        return KernelState(
            self.kernel.decayed_counts * fade, self.kernel.source_mix * fade, at_time
        )

    # -- event processing ----------------------------------------------------

    def replay(self, params: ModelParams, until: float) -> None:
        """Process this edge's requests stamped before ``until``."""
        times = self.log.timestamps
        stop = int(np.searchsorted(times, until, side="left"))
        videos = self.log.video_ids[self.cursor : stop].tolist()
        for video, ts in zip(videos, times[self.cursor : stop].tolist()):
            self.process(params, video, ts)
            self.cursor += 1

    def process(self, params: ModelParams, video: int, ts: float) -> None:
        cfg = self.cfg
        in_test = ts >= cfg.init_horizon
        if cfg.policy in ("lru", "lfu"):
            step = cache_mod.baseline_step(cfg.policy, self.cache, video)
            if in_test:
                self.hits += int(step.hit)
                self.hit_sequence.append(step.hit)
                self.exposed.update(step.fetched)
            return

        if cfg.policy in _MEP_POLICIES:
            self.fold(params, before=ts)
        hit = self.cache.lookup(video)
        if in_test:
            self.hits += int(hit)
            self.hit_sequence.append(hit)
        if not hit:
            self._on_miss(params, video, ts, in_test)

        if self.mav is not None:
            self.mav.record(video, ts)

    def _on_miss(self, params: ModelParams, video: int, ts: float, in_test: bool) -> None:
        cfg = self.cfg
        self.miss_step += 1
        if self.mav is None:
            state = self._left_limit_state(params, ts)
            lam = intensity_sweep(params, state)
            self.corr.update(lam, state.source_mix)
        else:
            # mav scores carry no excitation history: every sensitivity is 0.
            lam = self.mav.scores(ts)
        ratios = lam / cfg.unit_cost

        prefetched: tuple[int, ...] = ()
        if not in_test:
            # Warmup exercises the cache and state only; no budget is spent.
            self.bounds.observe(ratios)
        else:
            candidates = self._select_candidates(lam, ratios)
            if len(candidates):
                worst = 0.0
                if self.mav is None:
                    sens = cdp.candidate_sensitivities(params, state, self.corr, candidates)
                    worst = cdp.global_sensitivity(sens)
                decision = cdp.em_sample(
                    candidates,
                    lam[list(candidates)],
                    self.eps_steps[len(candidates)],
                    worst,
                    self.ledger.prefetch_cap,
                    self.rng_em,
                )
                prefetched = decision.chosen

        record = FetchRecord(
            edge_id=self.edge_id, step=self.miss_step, viewed=video, prefetched=prefetched
        )
        if in_test:
            self.exposed.update(record.fetched)
        self.cache.refresh_scores(lam)
        self.cache.admit([(v, lam[v]) for v in record.fetched])

    def _select_candidates(self, lam: np.ndarray, ratios: np.ndarray) -> scheduler.CandidateSet:
        cfg = self.cfg
        if cfg.policy == "bestfit":
            cands, _ = cache_mod.select_candidates_best_utility(lam, self.ledger)
        elif cfg.policy == "sage":
            cands, _ = cache_mod.select_candidates_random(lam, self.ledger, self.rng_sched)
        else:  # ppvf, mav: threshold rule
            tc = self.bounds.frozen(ratios)
            cands, _ = scheduler.select_candidates(lam, self.ledger, tc, self.rng_sched)
        return cands


def fit_barriers(edge_logs, params: ModelParams, cfg: SimConfig, horizon: float):
    """Yield ``(barrier, FitResult)`` for each federated refit before ``horizon``.

    Barriers fall every ``cfg.train.update_interval_hours``. The fit at a
    barrier reads each edge's requests stamped before it and starts from the
    previous fit's parameters, so no replay state enters the sequence.
    """
    for barrier in barrier_times(cfg, horizon):
        window = TrainWindow.from_truncation(barrier, cfg.truncation, cfg.decay)
        result = run_fit_round([el.before(barrier) for el in edge_logs], params, window, cfg.train)
        yield barrier, result
        params = result.params


def barrier_times(cfg: SimConfig, horizon: float) -> list[float]:
    """The fitting barriers before ``horizon``, every ``cfg.train.update_interval_hours``."""
    interval = cfg.train.update_interval_hours
    times = []
    barrier = interval
    while barrier < horizon:
        times.append(barrier)
        barrier += interval
    return times


def run_simulation(cfg: SimConfig, log: EventLog) -> SimReport:
    if log.horizon > cfg.test_horizon:
        raise ValueError("log horizon extends past the configured test horizon")
    capacity = max(1, round(cfg.cache_fraction * log.catalog_size))
    params = ModelParams.constant(log.catalog_size, cfg.latent_dim, 1.0, cfg.decay)
    edge_logs = partition_by_edge(log)
    fitted = cfg.policy in _MEP_POLICIES
    # One parameter table for the whole schedule, shared by every edge's
    # correlation state; barrier e fills epoch e.
    refits = len(barrier_times(cfg, cfg.test_horizon)) if fitted else 0
    table = np.empty((1 + refits, log.catalog_size, 1 + cfg.latent_dim))
    epochs = cdp.set_epoch(table, 0, params.base_rate, params.target_factors)
    edges = [_EdgeRuntime(e, el, cfg, epochs, capacity) for e, el in enumerate(edge_logs)]
    report = SimReport(policy=cfg.policy, cache_capacity=capacity)

    fits = fit_barriers(edge_logs, params, cfg, cfg.test_horizon) if fitted else ()
    for epoch, (barrier, result) in enumerate(fits, start=1):
        for rt in edges:
            rt.replay(params, barrier)
            rt.fold(params)
        params = result.params
        report.fl_losses.extend((barrier, idx, loss) for idx, loss in enumerate(result.losses))
        epochs = cdp.set_epoch(table, epoch, params.base_rate, params.target_factors)
        for rt in edges:
            rt.kernel.rebuild_mix(params)
            rt.corr.start_epoch(epochs)
    for rt in edges:
        rt.replay(params, math.inf)

    _finalize_report(report, edges)
    return report


def _finalize_report(report: SimReport, edges) -> None:
    for rt in edges:
        test = rt.log.timestamps >= rt.cfg.init_horizon
        report.hits += rt.hits
        report.requests += int(np.count_nonzero(test))
        report.per_edge_fetches.append(len(rt.exposed))
        profiles: dict[int, set[int]] = {}
        for user, video in zip(rt.log.user_ids[test].tolist(), rt.log.video_ids[test].tolist()):
            profiles.setdefault(user, set()).add(video)
        for user, profile in sorted(profiles.items()):
            report.per_user_js[(rt.edge_id, user)] = jaccard_similarity(profile, rt.exposed)
        report.residual_fractions.extend(rt.ledger.residual_fractions().tolist())
        report.hit_sequence.extend(rt.hit_sequence)


# -- CSV serialization -------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_reports(
    out_dir,
    runs: list[tuple[str, float, SimReport]],
    sweep_name: str,
    cache_fraction: float,
) -> list[str]:
    """Emit the metric CSVs for a batch of (policy, sweep value, report) runs.

    Returns the written file names. Per-run distribution files carry the
    policy and sweep value in their names once more than one run is present.
    """
    written = []

    chr_rows = [(policy, cache_fraction if sweep_name != "c" else value, rep.chr_value) for policy, value, rep in runs]
    write_csv(os.path.join(out_dir, "chr.csv"), ["policy", "capacity", "chr"], chr_rows)
    written.append("chr.csv")

    js_rows = [(policy, value, rep.mean_js) for policy, value, rep in runs]
    write_csv(os.path.join(out_dir, "js.csv"), ["policy", sweep_name, "mean_js"], js_rows)
    written.append("js.csv")

    single = len(runs) == 1
    for policy, value, rep in runs:
        suffix = "" if single else f".{policy}.{_fmt(float(value))}"
        cdf_name = f"budget_cdf{suffix}.csv"
        write_csv(os.path.join(out_dir, cdf_name), ["x", "cdf"], _cdf_points(rep.residual_fractions))
        written.append(cdf_name)
        loss_name = f"fl_loss{suffix}.csv"
        write_csv(
            os.path.join(out_dir, loss_name),
            ["t_theta", "round", "loss"],
            rep.fl_losses,
        )
        written.append(loss_name)
    return written


def _cdf_points(residual_fractions) -> list[tuple[float, float]]:
    residuals = np.asarray(residual_fractions, dtype=np.float64)
    if residuals.size == 0:
        return []
    values, counts = np.unique(residuals, return_counts=True)
    fractions = np.cumsum(counts) / residuals.size
    return [(float(x), float(c)) for x, c in zip(values, fractions)]
