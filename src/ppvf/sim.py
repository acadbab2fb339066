"""Trace-driven simulation of privacy-preserving prefetching at the edge.

Every request first probes its edge's cache; lru and lfu fetch only the
missed video. A miss of the scored policies (ppvf, sage, bestfit, mav)
reads its stamp's utilities, which the stamp's first miss computes from the
left limit, for candidate selection, sensitivity calibration, noisy
prefetch sampling and cache scoring; the fetch sent upstream, the viewed
video plus the sampled prefetches, is all the content provider ever
observes. mav's utilities are moving averages. The fitted policies (ppvf,
sage, bestfit) alone keep a kernel and a correlation state of its mix, and
refit on a fixed schedule over the edges' private logs. The warmup period
exercises caches and state but spends no privacy budget and counts toward
no metric.

The trace is the only record of requests. The fit is a stage of its own
(:func:`fit_schedule`, which ``ppvf fit`` runs too): each barrier's fit
window keeps the requests stamped before it, so a :class:`FitSchedule`
depends on the trace and the fit settings alone and every fitted run under
them can replay it. Then each edge replays its whole log in one pass,
on its own and in edge order, stamp by stamp: a stamp that reaches a
barrier switches to the next fitted parameters, the stamp's first miss
moves the kernel to the stamp's left limit, and the stamp's requests fold
in once after it. Each edge's results join the report before the next
edge starts. All randomness flows from per-edge seeded streams and all
reductions are order-independent, so reports depend on the seed alone.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import cache as cache_mod
from . import DataError, cdp, scheduler
from .federation import TrainConfig, require_finite, run_fit_round
from .predictor import KernelState, ModelParams, TrainWindow, advance_state, intensity_sweep
from .trace import EventLog, partition_by_edge

POLICIES = ("ppvf", "sage", "bestfit", "mav", "lru", "lfu")
FITTED_POLICIES = {"ppvf", "sage", "bestfit"}
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
    seed: int = 0
    # Read by nothing but the check below: runs are sequential. bench/workloads.py
    # still passes it; ROADMAP item 1 removes it.
    workers: int | None = None

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
        if self.bounds is not None:
            scheduler.ThresholdConfig(lower=self.bounds[0], upper=self.bounds[1])
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if not 0 < self.truncation < 1:
            raise ValueError("truncation must lie in (0, 1)")
        if self.decay <= 0:
            raise ValueError("decay must be positive")
        if self.slot_hours <= 0:
            raise ValueError("slot_hours must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be a positive thread count")
        if self.policy in FITTED_POLICIES:
            if -math.log(self.truncation) / self.decay == math.inf:
                raise ValueError("the likelihood window -ln(truncation) / decay is infinite")
            barrier_times(self, self.test_horizon)


@dataclass
class SimReport:
    hits: int = 0
    requests: int = 0
    per_user_js: dict[tuple[int, int], float] = field(default_factory=dict)
    residual_fractions: list[float] = field(default_factory=list)
    fl_losses: list[tuple[float, int, float]] = field(default_factory=list)

    @property
    def chr_value(self) -> float:
        return 0.0 if self.requests == 0 else self.hits / self.requests

    @property
    def mean_js(self) -> float:
        if not self.per_user_js:
            return 0.0
        return float(np.mean(list(self.per_user_js.values())))


def jaccard_similarity(profile_a: set, profile_b: set) -> float:
    """Overlap of two request supports, at least one of them non-empty."""
    return len(profile_a & profile_b) / len(profile_a | profile_b)


class _BoundTracker:
    """Running utility/cost ratio extremes during warmup, frozen at test time."""

    def __init__(self, fixed: tuple[float, float] | None, unit_cost: float):
        self.lo = math.inf
        self.hi = 0.0
        self.unit_cost = unit_cost
        self.cfg = (
            scheduler.ThresholdConfig(lower=fixed[0], upper=fixed[1]) if fixed else None
        )

    def observe(self, utilities: np.ndarray) -> None:
        if self.cfg is not None:
            return
        with np.errstate(over="ignore"):  # frozen reports infinite bounds
            ratios = utilities / self.unit_cost
        positive = ratios[ratios > 0]
        if positive.size:
            self.lo = min(self.lo, float(positive.min()))
            self.hi = max(self.hi, float(positive.max()))

    def frozen(self, fallback_utilities: np.ndarray) -> scheduler.ThresholdConfig:
        """The bounds seen in warmup, else those of ``fallback_utilities``, else (1, 1).
        Ratios too far apart for :class:`scheduler.ThresholdConfig` are a
        :class:`~ppvf.DataError`: the trace made them."""
        if self.cfg is None:
            if self.hi <= 0.0:
                self.observe(fallback_utilities)
            if self.hi <= 0.0:
                self.lo = self.hi = 1.0
            try:
                self.cfg = scheduler.ThresholdConfig(lower=self.lo, upper=self.hi)
            except ValueError as exc:
                raise DataError(f"estimated ratio bounds: {exc}") from None
        return self.cfg


class _EdgeRuntime:
    """All mutable per-edge state, driven by one pass over that edge's log.

    Only the constructor reads the policy; it builds what the policy reads
    and leaves the rest ``None``. All keep the cache, the test-period
    records and the ledger (lru and lfu never charge it). The scored
    policies add ``eps_steps``, ``rng_em`` and ``select``; mav adds
    ``mav``, the fitted policies ``kernel`` and ``corr``, and the threshold
    rule (ppvf, mav) ``bounds``.

    The log is replayed stamp by stamp. Requests that share a stamp see
    only the strictly earlier past (the left limit): a stamp's first miss
    moves the fitted policies' ``kernel`` to it, and a stamp's requests
    fold into the kernel, or into mav's slot, after the stamp. So every
    miss at one stamp reads the same utilities; ``stamp_utilities`` keeps them.
    """

    kernel = corr = mav = bounds = None

    def __init__(self, edge_id: int, log: EventLog, cfg: SimConfig, table: np.ndarray | None, capacity: int):
        catalog_size = log.catalog_size
        policy = cfg.policy
        self.edge_id = edge_id
        self.log = log
        self.cfg = cfg
        self.hits = 0
        self.exposed: set[int] = set()
        self.ledger = ledger = scheduler.PrivacyLedger.uniform(
            catalog_size, cfg.total_budget, cfg.unit_cost, cfg.prefetch_cap
        )
        if policy in ("lru", "lfu"):
            self.cache = (cache_mod.LruCache if policy == "lru" else cache_mod.LfuCache)(capacity)
            return
        self.cache = cache_mod.EdgeCache(capacity)
        # The exponential mechanism's per-draw budget for each candidate
        # count; a candidate set never holds more videos than the catalog.
        self.eps_steps = [
            float(k * ledger.cost / cfg.prefetch_cap)
            for k in range(min(cfg.prefetch_cap, catalog_size) + 1)
        ]
        self.rng_em = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(edge_id, 1)))
        if policy == "mav":
            self.mav = cache_mod.MavState(catalog_size, cfg.slot_hours)
        else:
            self.kernel = KernelState.empty(catalog_size, cfg.latent_dim)
            self.corr = cdp.CorrelationState(table)
        # Each call looks its selector up in the module, so a patch sees it.
        if policy == "bestfit":
            self.select = lambda lam: cache_mod.select_candidates_best_utility(lam, ledger)[0]
            return
        rng_sched = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(edge_id, 0)))
        if policy == "sage":
            self.select = lambda _: cache_mod.select_candidates_random(ledger, rng_sched)[0]
        else:  # ppvf, mav: the threshold rule
            self.bounds = bounds = _BoundTracker(cfg.bounds, cfg.unit_cost)
            self.select = lambda lam: scheduler.select_candidates(lam, ledger, bounds.frozen(lam), rng_sched)[0]

    def run(self, barriers: list[float], params_list: list[ModelParams | None]) -> None:
        """Replay the whole log; ``params_list[e]`` holds from ``barriers[e - 1]`` on.

        Only fitted runs have barriers: a stamp at or after the next one
        first moves the kernel and the correlation state to the epoch it
        falls in. Each request is served: lru and lfu through
        :func:`cache.baseline_step`, the scored policies by a lookup and, on
        a miss, :meth:`_on_miss`. Test-period hits and upstream fetches are
        recorded here for all six policies. After the stamp, a warmup stamp
        that missed widens the threshold rule's ratio bounds, and the
        stamp's requests fold in once, into the kernel under that epoch's
        parameters (from the previous stamp if none missed) or into mav's
        slot. Barriers after the last request need nothing: no later read
        sees them.
        """
        stamps, starts = np.unique(self.log.timestamps, return_index=True)
        epochs = np.searchsorted(barriers, stamps, side="right").tolist()
        groups = np.split(self.log.video_ids, starts[1:])
        baseline = not isinstance(self.cache, cache_mod.EdgeCache)
        epoch = 0
        for ts, stamp_epoch, videos in zip(stamps.tolist(), epochs, groups):
            params = params_list[stamp_epoch]
            if stamp_epoch > epoch:
                for _ in range(stamp_epoch - epoch):
                    self.corr.next_epoch()
                epoch = stamp_epoch
                self.kernel.rebuild_mix(params)
            self.stamp_utilities = None
            in_test = ts >= self.cfg.init_horizon
            for video in videos.tolist():
                if baseline:
                    step = cache_mod.baseline_step(self.cache, video)
                    hit, fetched = step.hit, step.fetched
                else:
                    hit = self.cache.lookup(video)
                    fetched = () if hit else self._on_miss(params, video, ts, in_test)
                if in_test:
                    self.hits += hit
                    self.exposed.update(fetched)
            if self.bounds is not None and not in_test and self.stamp_utilities is not None:
                self.bounds.observe(self.stamp_utilities)
            if self.kernel is not None:
                self.kernel = advance_state(params, self.kernel, ts, videos)
            elif self.mav is not None:
                self.mav.record(videos, ts)

    def _on_miss(self, params: ModelParams, video: int, ts: float, in_test: bool) -> list[int]:
        """Serve a scored-policy miss and return the fetch sent upstream.

        The stamp's first miss moves ``kernel`` to the left limit and sweeps
        it, refusing a non-finite sweep (mav reads its averages), and
        installs it as the cache's ranking; later misses reuse it. Every
        fitted miss folds the kernel's mix alone into the correlation state.
        A test miss draws its prefetches from its candidates, maybe none, at
        their worst sensitivity (mav's, free of excitation, is 0); a warmup
        miss fetches the viewed video alone and spends no budget. The fetched
        videos are then offered to the cache.
        """
        if self.stamp_utilities is None:
            if self.mav is None:
                self.kernel = advance_state(params, self.kernel, ts)
                self.stamp_utilities = intensity_sweep(params, self.kernel)
                if not np.isfinite(self.stamp_utilities).all():
                    raise ValueError("utilities must be finite")
            else:
                self.stamp_utilities = self.mav.scores(ts)
            self.cache.refresh_scores(self.stamp_utilities)
        lam = self.stamp_utilities
        if self.corr is not None:
            self.corr.update(self.kernel.source_mix)

        # The fetch sent upstream: the viewed video, then the prefetches.
        fetched = [video]
        if in_test:
            candidates = self.select(lam)
            worst = 0.0
            if self.corr is not None:
                worst = float(cdp.candidate_sensitivities(params, self.kernel, self.corr, candidates).max(initial=0.0))
            prefetched = cdp.em_sample(
                candidates,
                lam[list(candidates)],
                self.eps_steps[len(candidates)],
                worst,
                self.ledger.prefetch_cap,
                self.rng_em,
            )
            fetched += [v for v in prefetched if v != video]
        self.cache.admit(fetched)
        return fetched


@dataclass(frozen=True)
class FitSchedule:
    """One trace's fit: ``params[e]`` holds from ``barriers[e - 1]`` on, ``params[0]`` is the start."""

    settings: tuple  # the fit's fit_settings
    barriers: list[float]
    params: list[ModelParams]
    losses: list[tuple[float, int, float]]  # (barrier, iteration, loss) rows


def fit_settings(cfg: SimConfig, catalog_size: int, horizon: float) -> tuple:
    """All a fit reads besides the trace and its start."""
    return (catalog_size, cfg.latent_dim, cfg.decay, cfg.truncation, cfg.train, horizon)


def fit_schedule(cfg: SimConfig, log: EventLog, horizon: float, start=None, keep_all=True) -> FitSchedule:
    """Fit ``log`` at every barrier before ``horizon``, first from ``start`` (else every
    parameter at 1.0), then each fit from the last. Each fit reads the whole edge logs;
    its window keeps what precedes the barrier. Unless ``keep_all``, ``params`` keeps
    the last fit alone."""
    params = [ModelParams.constant(log.catalog_size, cfg.latent_dim, 1.0, cfg.decay) if start is None else start]
    schedule = FitSchedule(fit_settings(cfg, params[0].catalog_size, horizon), barrier_times(cfg, horizon), params, [])
    edge_logs = partition_by_edge(log)
    for barrier in schedule.barriers:
        window = TrainWindow.from_truncation(barrier, cfg.truncation, cfg.decay)
        result = run_fit_round(edge_logs, params[-1], window, cfg.train)
        params.append(result.params)
        if not keep_all:
            del params[0]
        schedule.losses.extend((barrier, idx, loss) for idx, loss in enumerate(result.losses))
    return schedule


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


def run_simulation(cfg: SimConfig, log: EventLog, schedule: FitSchedule | None = None) -> SimReport:
    """A fitted policy replays ``schedule``, else fits its own; a schedule of other
    :func:`fit_settings`, or one that kept only its last fit, raises ``ValueError``."""
    if log.horizon > cfg.test_horizon:
        raise ValueError("log horizon extends past the configured test horizon")
    fitted = cfg.policy in FITTED_POLICIES
    if schedule is None and fitted:
        schedule = fit_schedule(cfg, log, cfg.test_horizon)
    wanted = fit_settings(cfg, log.catalog_size, cfg.test_horizon)
    if schedule is not None and (schedule.settings != wanted or len(schedule.params) != 1 + len(schedule.barriers)):
        raise ValueError(f"a schedule fitted under {schedule.settings} cannot replay a run under {wanted}")
    capacity = max(1, round(cfg.cache_fraction * log.catalog_size))
    report = SimReport(fl_losses=list(schedule.losses) if fitted else [])
    barriers, params_list, table = [], [None], None  # unfitted policies read no parameters
    if fitted:
        barriers, params_list, table = schedule.barriers, schedule.params, cdp.epoch_table(schedule.params)
    for edge_id, edge_log in enumerate(partition_by_edge(log)):
        rt = _EdgeRuntime(edge_id, edge_log, cfg, table, capacity)
        rt.run(barriers, params_list)
        _fold_edge(report, rt)
    return report


def _fold_edge(report: SimReport, rt: _EdgeRuntime) -> None:
    test = rt.log.timestamps >= rt.cfg.init_horizon
    report.hits += rt.hits
    report.requests += int(np.count_nonzero(test))
    profiles: dict[int, set[int]] = {}
    for user, video in zip(rt.log.user_ids[test].tolist(), rt.log.video_ids[test].tolist()):
        profiles.setdefault(user, set()).add(video)
    for user, profile in sorted(profiles.items()):
        report.per_user_js[(rt.edge_id, user)] = jaccard_similarity(profile, rt.exposed)
    report.residual_fractions.extend(rt.ledger.residual_fractions().tolist())


# -- CSV serialization -------------------------------------------------------


def write_csv(path, header: list[str], rows) -> None:
    """One line per row of ``str`` values: a float, numpy or not, as its shortest round-trip digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


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
        suffix = "" if single else f".{policy}.{float(value)}"
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
    values, counts = np.unique(residuals, return_counts=True)
    fractions = np.cumsum(counts) / residuals.size
    return [(float(x), float(c)) for x, c in zip(values, fractions)]
