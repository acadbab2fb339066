"""Trace-driven simulation of privacy-preserving prefetching at the edge.

Every request first probes its edge's cache. A miss triggers one utility
sweep shared by candidate selection, sensitivity calibration, noisy
prefetch sampling, and cache scoring; the fetch sent upstream is the viewed
video plus the sampled prefetches, and that union is all the content
provider ever observes. Model parameters refresh on a fixed schedule
through federated fitting over the edges' private logs. The warmup period
exercises caches and state but spends no privacy budget and counts toward
no metric.

The trace is the only record of requests. It is split by edge once. A
run first fits the whole barrier sequence (:func:`fit_barriers`, which
``ppvf fit`` runs too): each barrier's fit reads the requests stamped
before it from the edge logs, so the fitted sequence depends on the trace
and the settings alone. Then each edge replays its whole log in one pass,
on its own and in edge order, switching to the next fitted parameters when
a request reaches that barrier, and is folded into the report before the
next edge starts. All randomness flows from per-edge seeded streams and
all reductions are order-independent, so reports depend on the seed alone.
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
# The most fitting barriers one schedule may hold: 55 years at the default
# 48 h interval. Each barrier is a federated fit, one more kept parameter
# set (catalog x (1 + 2 * latent_dim) floats) and one more epoch in the
# simulator's parameter table (catalog x (1 + latent_dim) floats).
MAX_BARRIERS = 10_000


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
        if self.policy in _MEP_POLICIES:
            barrier_times(self, self.test_horizon)


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
    """All mutable per-edge state, driven by one pass over that edge's log.

    ``cursor`` indexes the next request to replay. Fitted policies fold
    requests into the kernel one timestamp at a time: ``[folded, cursor)``
    are replayed requests that share one stamp and are not folded yet, so a
    sweep at that stamp sees only the strictly earlier past (left limit).
    """

    def __init__(self, edge_id: int, log: EventLog, cfg: SimConfig, table: np.ndarray, capacity: int):
        catalog_size = log.catalog_size
        self.edge_id = edge_id
        self.log = log
        self.cfg = cfg
        self.cursor = 0
        self.folded = 0
        self.kernel = KernelState.empty(catalog_size, cfg.latent_dim)
        self.ledger = scheduler.PrivacyLedger.uniform(
            catalog_size, cfg.total_budget, cfg.unit_cost, cfg.prefetch_cap
        )
        # The exponential mechanism's per-draw budget for each candidate
        # count; a candidate set never holds more videos than the catalog.
        self.eps_steps = [
            float(k * self.ledger.cost / cfg.prefetch_cap)
            for k in range(min(cfg.prefetch_cap, catalog_size) + 1)
        ]
        self.corr = cdp.CorrelationState(table)
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
        self.exposed: set[int] = set()
        self.hit_sequence: list[bool] = []
        # (stamp, left-limit state, sweep) of the last fitted-policy miss.
        self._last_sweep: tuple = (None, None, None)

    # -- kernel bookkeeping ------------------------------------------------

    def fold(self, params: ModelParams, before: float = math.inf) -> None:
        """Fold the replayed requests ``[folded, cursor)`` if stamped before ``before``.

        They share one stamp, so they fold together or not at all.
        """
        if self.folded == self.cursor or self.log.timestamps[self.folded] >= before:
            return
        times = self.log.timestamps[self.folded : self.cursor]
        videos = self.log.video_ids[self.folded : self.cursor]
        self.kernel = advance_state(params, self.kernel, float(times[0]), times, videos)
        self.folded = self.cursor

    def _left_limit_state(self, params: ModelParams, at_time: float) -> KernelState:
        """Kernel state at ``at_time`` excluding any event at exactly that instant."""
        fade = math.exp(-params.decay * (at_time - self.kernel.last_update))
        return KernelState(
            self.kernel.decayed_counts * fade, self.kernel.source_mix * fade, at_time
        )

    # -- event processing ----------------------------------------------------

    def run(self, barriers: list[float], params_list: list[ModelParams]) -> None:
        """Replay the whole log; ``params_list[e]`` holds from ``barriers[e - 1]`` on.

        A request stamped at or after the next barrier first folds the
        pending requests under the old parameters, then moves the kernel
        and the correlation state to the epoch it falls in. Barriers after
        the last request need nothing: no later read sees them.
        """
        epoch = 0
        params = params_list[0]
        upcoming = barriers + [math.inf]
        videos = self.log.video_ids.tolist()
        for video, ts in zip(videos, self.log.timestamps.tolist()):
            if ts >= upcoming[epoch]:
                self.fold(params)
                while ts >= upcoming[epoch]:
                    epoch += 1
                    self.corr.next_epoch()
                params = params_list[epoch]
                self.kernel.rebuild_mix(params)
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
        refresh = True
        if self.mav is None:
            # Requests at one stamp fold together after it, and parameters
            # change only before a stamp's first request, so a miss at the
            # last miss's stamp sees the same left limit, and every resident
            # already holds its score from that sweep.
            refresh = self._last_sweep[0] != ts
            if refresh:
                state = self._left_limit_state(params, ts)
                self._last_sweep = (ts, state, intensity_sweep(params, state))
            _, state, lam = self._last_sweep
            self.corr.update(lam, state.source_mix)
        else:
            # mav scores carry no excitation history: every sensitivity is 0.
            lam = self.mav.scores(ts)
        ratios = lam / cfg.unit_cost

        fetched = [video]
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
                prefetched = cdp.em_sample(
                    candidates,
                    lam[list(candidates)],
                    self.eps_steps[len(candidates)],
                    worst,
                    self.ledger.prefetch_cap,
                    self.rng_em,
                )
                # The fetch sent upstream: the viewed video, then the prefetches.
                fetched += [v for v in prefetched if v != video]
            self.exposed.update(fetched)
        if refresh:
            self.cache.refresh_scores(lam)
        self.cache.admit([(v, lam[v]) for v in fetched])

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
    """The fitting barriers before ``horizon``, every ``cfg.train.update_interval_hours``.

    Each barrier is the previous one plus the interval. Raises
    ``ValueError`` as soon as the schedule would hold more than
    :data:`MAX_BARRIERS` barriers. The limit also keeps the sum advancing:
    adding the interval stops moving a barrier only after about 2**53 of them.
    """
    interval = cfg.train.update_interval_hours
    times = []
    barrier = interval
    while barrier < horizon:
        if len(times) == MAX_BARRIERS:
            raise ValueError(
                f"a horizon of {horizon} h needs more than {MAX_BARRIERS} fitting barriers {interval} h apart"
            )
        times.append(barrier)
        barrier += interval
    return times


def run_simulation(cfg: SimConfig, log: EventLog) -> SimReport:
    if log.horizon > cfg.test_horizon:
        raise ValueError("log horizon extends past the configured test horizon")
    capacity = max(1, round(cfg.cache_fraction * log.catalog_size))
    edge_logs = partition_by_edge(log)
    report = SimReport(policy=cfg.policy, cache_capacity=capacity)
    barriers: list[float] = []
    params_list = [ModelParams.constant(log.catalog_size, cfg.latent_dim, 1.0, cfg.decay)]
    if cfg.policy in _MEP_POLICIES:
        for barrier, result in fit_barriers(edge_logs, params_list[0], cfg, cfg.test_horizon):
            barriers.append(barrier)
            params_list.append(result.params)
            report.fl_losses.extend((barrier, idx, loss) for idx, loss in enumerate(result.losses))
    table = cdp.epoch_table(params_list)
    for edge_id, edge_log in enumerate(edge_logs):
        rt = _EdgeRuntime(edge_id, edge_log, cfg, table, capacity)
        rt.run(barriers, params_list)
        _fold_edge(report, rt)
    return report


def _fold_edge(report: SimReport, rt: _EdgeRuntime) -> None:
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
