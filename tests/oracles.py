"""Independent reference implementations used to check production paths.

Everything here recomputes quantities from raw inputs (literal double sums,
numeric quadrature, finite differences, sequential budget walks over exact
fractions, an evaluate-everything fitting loop, the window likelihood and
gradients with every parameter reduction redone, per-draw ``rng.choice``
sampling, Ogata thinning with per-video counts, per-event trace writing,
per-epoch correlation lists, out-of-place coordinator steps, a cache
that scans its residents for each eviction) and deliberately avoids the machinery under
test. The exponential-mechanism weights, the DP ratio check and the LP
relaxation of the offline allocation live here too: only tests read them. The test-only helpers that follow the oracles wrap
production code for single-value queries.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog

from ppvf.cdp import CorrelationState, candidate_sensitivities, correlation_block
from ppvf.federation import FitResult, TrainConfig, aggregate_and_step, global_loss, sum_gradients
from ppvf.predictor import (
    PARAM_FLOOR,
    GradientBundle,
    KernelState,
    LikelihoodError,
    ModelParams,
    TrainWindow,
    window_gradients,
    window_log_likelihood,
    window_stats,
)
from ppvf.scheduler import CandidateSet, PrivacyLedger, threshold
from ppvf.trace import EventLog


def brute_intensity_all(params: ModelParams, times, vids, at: float) -> np.ndarray:
    """Literal double sum over raw events strictly before ``at``."""
    counts = np.zeros(params.catalog_size)
    for t, v in zip(times, vids):
        if t < at:
            counts[v] += math.exp(-params.decay * (at - t))
    out = np.empty(params.catalog_size)
    for i in range(params.catalog_size):
        acc = params.base_rate[i]
        for j in range(params.catalog_size):
            acc += float(params.target_factors[i] @ params.source_factors[j]) * counts[j]
        out[i] = acc
    return out


def quadrature_ll(params: ModelParams, times, vids, window: TrainWindow) -> float:
    """Numeric-integral likelihood oracle (piecewise quad between events)."""
    total = 0.0
    in_window = [(t, v) for t, v in zip(times, vids) if window.start <= t < window.end]
    for t, v in in_window:
        total += math.log(brute_intensity_all(params, times, vids, t)[v])

    breakpoints = sorted(
        {window.start, window.end, *[t for t in times if window.start < t < window.end]}
    )
    for i in range(params.catalog_size):
        integral = 0.0
        for a, b in zip(breakpoints[:-1], breakpoints[1:]):
            val, _ = quad(
                lambda t, i=i: brute_intensity_all(params, times, vids, t)[i],
                a,
                b,
                epsabs=1e-11,
                epsrel=1e-11,
                limit=200,
            )
            integral += val
        total -= integral
    return total


def fd_gradients(params: ModelParams, log, window: TrainWindow, step=1e-5) -> GradientBundle:
    """Central finite differences of the window log-likelihood."""

    def ll_with(base, tgt, src):
        p = ModelParams(base, tgt, src, params.decay)
        return log_likelihood(p, log, window)

    g_base = np.zeros_like(params.base_rate)
    for i in range(params.catalog_size):
        up, dn = params.base_rate.copy(), params.base_rate.copy()
        up[i] += step
        dn[i] -= step
        g_base[i] = (
            ll_with(up, params.target_factors, params.source_factors)
            - ll_with(dn, params.target_factors, params.source_factors)
        ) / (2 * step)

    g_tgt = np.zeros_like(params.target_factors)
    for i in range(params.catalog_size):
        for d in range(params.dim):
            up, dn = params.target_factors.copy(), params.target_factors.copy()
            up[i, d] += step
            dn[i, d] -= step
            g_tgt[i, d] = (
                ll_with(params.base_rate, up, params.source_factors)
                - ll_with(params.base_rate, dn, params.source_factors)
            ) / (2 * step)

    g_src = np.zeros_like(params.source_factors)
    for j in range(params.catalog_size):
        for d in range(params.dim):
            up, dn = params.source_factors.copy(), params.source_factors.copy()
            up[j, d] += step
            dn[j, d] -= step
            g_src[j, d] = (
                ll_with(params.base_rate, params.target_factors, up)
                - ll_with(params.base_rate, params.target_factors, dn)
            ) / (2 * step)
    return GradientBundle(g_base, g_tgt, g_src)


def assert_gradients_close(analytic: GradientBundle, numeric: GradientBundle, rel=1e-4, tiny=1e-6):
    for a, n in (
        (analytic.base_rate, numeric.base_rate),
        (analytic.target_factors, numeric.target_factors),
        (analytic.source_factors, numeric.source_factors),
    ):
        a, n = np.asarray(a).ravel(), np.asarray(n).ravel()
        for x, y in zip(a, n):
            if abs(y) > tiny:
                assert abs(x - y) <= rel * abs(y), (x, y)
            else:
                assert abs(x - y) <= tiny, (x, y)


class FractionLedger:
    """Per-video budget ledger kept as a list of exact ``Fraction`` spends."""

    def __init__(self, catalog_size: int, total_budget, unit_cost, prefetch_cap: int):
        self.total_budget = Fraction(total_budget)
        self.unit_cost = [Fraction(unit_cost)] * catalog_size
        self.prefetch_cap = prefetch_cap
        self.consumed = [Fraction(0)] * catalog_size

    def consumed_fraction(self, video: int) -> Fraction:
        if self.total_budget == 0:
            return Fraction(0)
        return self.consumed[video] / self.total_budget

    def can_charge(self, video: int) -> bool:
        return self.unit_cost[video] < self.total_budget - self.consumed[video]

    def charge(self, video: int) -> None:
        if self.consumed[video] + self.unit_cost[video] > self.total_budget:
            raise ValueError("charge would exceed the per-video budget")
        self.consumed[video] += self.unit_cost[video]


def walk_threshold(utilities, ledger: FractionLedger, cfg, rng) -> tuple[int, ...]:
    """Sequential threshold rule: visit a random order, test, charge, stop at cap."""
    admitted = []
    for video in rng.permutation(len(ledger.consumed)):
        if len(admitted) >= ledger.prefetch_cap:
            break
        video = int(video)
        gamma = float(ledger.consumed_fraction(video))
        ratio = utilities[video] / float(ledger.unit_cost[video])
        if ratio > threshold(gamma, cfg) and ledger.can_charge(video):
            ledger.charge(video)
            admitted.append(video)
    return tuple(admitted)


def walk_feasible(order, ledger: FractionLedger) -> tuple[int, ...]:
    """Sequential budget-feasible picks in ``order`` up to the cap."""
    admitted = []
    for video in order:
        if len(admitted) >= ledger.prefetch_cap:
            break
        video = int(video)
        if ledger.can_charge(video):
            ledger.charge(video)
            admitted.append(video)
    return tuple(admitted)


def walk_random(ledger: FractionLedger, rng) -> tuple[int, ...]:
    return walk_feasible(rng.permutation(len(ledger.consumed)), ledger)


def walk_best_utility(utilities, ledger: FractionLedger) -> tuple[int, ...]:
    return walk_feasible(np.argsort(-np.asarray(utilities, dtype=np.float64), kind="stable"), ledger)


def sort_then_sum(arrays) -> np.ndarray:
    """Sum of the arrays after sorting each entry's addends with ``np.sort``."""
    return np.sum(np.sort(np.stack(arrays), axis=0), axis=0)


def aggregate_and_step_out_of_place(
    params: ModelParams, summed: GradientBundle, cfg: TrainConfig, learning_rate: float | None = None
) -> ModelParams:
    """The coordinator step with each block's arithmetic written out as one expression."""
    eta = cfg.learning_rate if learning_rate is None else learning_rate
    return ModelParams(
        base_rate=np.maximum(
            params.base_rate - eta * (cfg.rho_base * params.base_rate - summed.base_rate), PARAM_FLOOR
        ),
        target_factors=np.maximum(
            params.target_factors - eta * (cfg.rho_target * params.target_factors - summed.target_factors),
            PARAM_FLOOR,
        ),
        source_factors=np.maximum(
            params.source_factors - eta * (cfg.rho_source * params.source_factors - summed.source_factors),
            PARAM_FLOOR,
        ),
        decay=params.decay,
    )


def admit_by_scan(scores: dict, capacity: int, incoming) -> list:
    """``EdgeCache.admit`` on a plain ``scores`` dict, finding the weakest
    resident by a keyed scan of every resident for each full-cache arrival."""
    evicted = []
    for video, score in incoming:
        score = float(score)
        if video in scores:
            scores[video] = score
            continue
        if len(scores) < capacity:
            scores[video] = score
            continue
        weakest = min(scores, key=lambda v: (scores[v], v))
        if score > scores[weakest]:
            del scores[weakest]
            evicted.append(weakest)
            scores[video] = score
    return evicted


def fit_round_evaluating_everything(edge_logs, params: ModelParams, window: TrainWindow, cfg: TrainConfig) -> FitResult:
    """Backtracking fit that computes likelihood and gradients at every point,
    rejected candidates and the final point included."""
    params = params.clamped(PARAM_FLOOR)
    stats = [window_stats(params, log, window) for log in edge_logs]

    def evaluate(p: ModelParams) -> tuple[list[float], list[GradientBundle]]:
        lls = [window_log_likelihood(p, st) for st in stats]
        grads = [window_gradients(p, st) for st in stats]
        return lls, grads

    losses: list[float] = []
    if cfg.max_iters == 0 or not stats:
        return FitResult(params=params, losses=losses)

    lls, grads = evaluate(params)
    loss = global_loss(params, lls, cfg)
    losses.append(loss)
    eta = cfg.learning_rate
    for _ in range(cfg.max_iters):
        accepted = False
        for _backtrack in range(60):
            candidate = aggregate_and_step(params, sum_gradients(grads), cfg, learning_rate=eta)
            cand_lls, cand_grads = evaluate(candidate)
            cand_loss = global_loss(candidate, cand_lls, cfg)
            if cand_loss <= loss:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
        params, grads = candidate, cand_grads
        losses.append(cand_loss)
        if abs(cand_loss - loss) < cfg.tolerance * max(abs(loss), 1.0):
            loss = cand_loss
            break
        loss = cand_loss
    return FitResult(params=params, losses=losses)


def window_log_likelihood_reference(params: ModelParams, window: TrainWindow, stats) -> float:
    """The window log-likelihood as computed before parameter-only terms were
    cached: every reduction redone from the parameters and the statistics'
    parameter-independent arrays."""
    mix_ev = (stats.counts_at @ params.source_factors)[stats.event_group]
    tgt_ev = params.target_factors[stats.event_videos]
    lam = params.base_rate[stats.event_videos] + np.einsum("nd,nd->n", tgt_ev, mix_ev)
    if np.any(lam <= 0):
        raise LikelihoodError("non-positive intensity at an event; parameters or state corrupted")
    event_term = math.fsum(np.log(lam).tolist())
    source_total = params.source_factors.T @ stats.integral_weights  # (D,)
    integral = window.length * float(np.sum(params.base_rate)) + float(
        params.target_factors.sum(axis=0) @ source_total
    )
    return event_term - integral


def window_gradients_reference(params: ModelParams, window: TrainWindow, stats) -> GradientBundle:
    """The window gradients as computed before parameter-only terms were
    cached, with the integral term from ``np.outer``: every row starts at
    0.0, takes its event terms and then subtracts its integral terms."""
    I, D = params.catalog_size, params.dim
    g_base = np.full(I, -window.length)
    g_tgt = np.zeros((I, D))
    g_src = np.zeros((I, D))
    if stats.n_events:
        mix_ev = (stats.counts_at @ params.source_factors)[stats.event_group]
        tgt_ev = params.target_factors[stats.event_videos]
        lam = params.base_rate[stats.event_videos] + np.einsum("nd,nd->n", tgt_ev, mix_ev)
        if np.any(lam <= 0):
            raise LikelihoodError("non-positive intensity at an event; parameters or state corrupted")
        inv = 1.0 / lam
        np.add.at(g_base, stats.event_videos, inv)
        np.add.at(g_tgt, stats.event_videos, mix_ev * inv[:, None])
        weights = np.zeros((stats.counts_at.shape[0], D))
        np.add.at(weights, stats.event_group, tgt_ev * inv[:, None])
        g_src += stats.counts_at.T @ weights
    source_total = params.source_factors.T @ stats.integral_weights  # (D,)
    g_tgt -= source_total[None, :]
    g_src -= np.outer(stats.integral_weights, params.target_factors.sum(axis=0))
    return GradientBundle(g_base, g_tgt, g_src)


def em_weights(utilities: np.ndarray, eps_step: float, sensitivity: float) -> np.ndarray:
    """Normalized exponential-mechanism probabilities for a single draw."""
    lam = np.asarray(utilities, dtype=np.float64)
    if sensitivity < 0:
        raise ValueError("sensitivity must be non-negative")
    if sensitivity == 0.0 or eps_step == 0.0:
        # No usable signal: the uniform draw is the privacy-safe limit.
        return np.full(lam.shape, 1.0 / lam.shape[0])
    scores = eps_step * lam / (2.0 * sensitivity)
    scores -= scores.max()
    w = np.exp(scores)
    return w / w.sum()


def dp_ratio_check(
    candidates: CandidateSet,
    utilities: np.ndarray,
    adjacent_utilities: np.ndarray,
    eps_step: float,
    sensitivity: float,
) -> float:
    """Worst log-probability ratio of one draw under adjacent utility vectors.

    The premise is that the vectors differ by at most the sensitivity per
    entry; the returned ratio is then guaranteed at most ``eps_step``.
    """
    lam = np.asarray(utilities, dtype=np.float64)
    adj = np.asarray(adjacent_utilities, dtype=np.float64)
    if lam.shape != adj.shape or lam.shape[0] != len(candidates):
        raise ValueError("utility vectors must match the candidate set")
    if sensitivity <= 0:
        raise ValueError("sensitivity must be positive for the ratio premise")
    if np.any(np.abs(lam - adj) > sensitivity * (1 + 1e-12)):
        raise ValueError("adjacent utilities differ by more than the sensitivity")
    p = em_weights(lam, eps_step, sensitivity)
    p_adj = em_weights(adj, eps_step, sensitivity)
    ratios = np.abs(np.log(p) - np.log(p_adj))
    return float(ratios.max())


def offline_lp_bound(utilities_per_step: np.ndarray, ledger_template: PrivacyLedger) -> float:
    """LP relaxation of the offline problem; an upper bound on the optimum."""
    util = np.asarray(utilities_per_step, dtype=np.float64)
    steps, n_videos = util.shape
    n = steps * n_videos
    # Variables x[k, i] flattened row-major; maximize sum(util * x).
    a_rows, b_vals = [], []
    for k in range(steps):
        row = np.zeros(n)
        row[k * n_videos : (k + 1) * n_videos] = 1.0
        a_rows.append(row)
        b_vals.append(float(ledger_template.prefetch_cap))
    for i in range(n_videos):
        row = np.zeros(n)
        row[i::n_videos] = float(ledger_template.cost)
        a_rows.append(row)
        b_vals.append(float(ledger_template.total_budget))
    res = linprog(
        c=-util.ravel(),
        A_ub=np.array(a_rows),
        b_ub=np.array(b_vals),
        bounds=[(0.0, 1.0)] * n,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"LP relaxation failed: {res.message}")
    return float(-res.fun)


def em_sample_per_draw(candidates, utilities, eps_step, sensitivity, prefetch_cap, rng) -> tuple[int, ...]:
    """Sequential exponential-mechanism draws: ``em_weights`` of the remaining
    pool, one ``rng.choice`` with those probabilities, delete, repeat."""
    pool = list(candidates)
    lam = np.asarray(utilities, dtype=np.float64)
    if lam.shape[0] != len(pool):
        raise ValueError("need one utility per candidate")
    chosen: list[int] = []
    while pool and len(chosen) < prefetch_cap:
        probs = em_weights(lam, eps_step, sensitivity)
        idx = int(rng.choice(len(pool), p=probs))
        chosen.append(pool.pop(idx))
        lam = np.delete(lam, idx)
    return tuple(chosen)


def thin_one_edge_with_choice(spec, edge: int, rng):
    """Ogata thinning of one edge that keeps the decayed per-video counts
    beside their latent projection and draws each accepted video with
    ``rng.choice(p=lam / total)``."""
    gt = spec.ground_truth
    base, tgt, src, decay = gt.base_rate, gt.target_factors, gt.source_factors, gt.decay
    times: list[float] = []
    vids: list[int] = []
    counts = np.zeros(spec.catalog_size)
    mix = np.zeros(gt.dim)
    t = 0.0
    while True:
        bound = float(base.sum() + tgt.sum(axis=0) @ mix)
        if bound <= 0:
            break
        dt = rng.exponential(1.0 / bound)
        t += dt
        if t >= spec.horizon:
            break
        fade = np.exp(-decay * dt)
        counts *= fade
        mix *= fade
        lam = base + tgt @ mix
        total = float(lam.sum())
        if rng.random() * bound > total:
            continue
        video = int(rng.choice(spec.catalog_size, p=lam / total))
        times.append(t)
        vids.append(video)
        counts[video] += 1.0
        mix += src[video]
    n = len(times)
    users = edge * spec.users_per_edge + rng.integers(0, spec.users_per_edge, size=n)
    return (
        np.full(n, edge, dtype=np.int64),
        users.astype(np.int64),
        np.array(vids, dtype=np.int64),
        np.array(times, dtype=np.float64),
    )


def write_trace_per_event(log, path) -> None:
    """The trace CSV written one ``RequestEvent`` at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# edge_id,user_id,video_id,timestamp\n")
        for e, u, v, t in zip(log.edge_ids, log.user_ids, log.video_ids, log.timestamps):
            fh.write(f"{int(e)},{int(u)},{int(v)},{float(t)!r}\n")


class ListCorrelationState:
    """Correlation sums with each epoch's ``base_rate``, ``target_factors``
    and mix moments kept in three parallel lists."""

    def __init__(self, catalog_size: int):
        self.steps = 0
        self.sums = np.zeros(catalog_size)
        self.sq_sums = np.zeros(catalog_size)
        self.bases: list[np.ndarray] = []
        self.factors: list[np.ndarray] = []
        self.moments: list[np.ndarray] = []

    def start_epoch(self, base_rate: np.ndarray, target_factors: np.ndarray) -> None:
        self.bases.append(base_rate)
        self.factors.append(target_factors)
        self.moments.append(np.zeros((target_factors.shape[1] + 1,) * 2))

    def update(self, utilities: np.ndarray, mix: np.ndarray) -> None:
        lam = np.asarray(utilities, dtype=np.float64)
        z = np.concatenate(([1.0], mix))
        self.moments[-1] += np.outer(z, z)
        self.steps += 1
        self.sums += lam
        self.sq_sums += lam * lam


def correlation_block_from_lists(state: ListCorrelationState, videos) -> np.ndarray:
    """Pearson block of ``videos``, each epoch's rows stacked from the lists."""
    if state.steps < 2:
        raise ValueError("correlation undefined before two incorporated steps")
    c = np.asarray(videos, dtype=np.intp)
    bases = np.array([b[c] for b in state.bases])[..., None]
    feats = np.concatenate((bases, np.array([t.take(c, axis=0) for t in state.factors])), axis=2)
    shape = (len(c), feats.shape[0] * feats.shape[2])
    weighted = (feats @ np.array(state.moments)).transpose(1, 0, 2).reshape(shape)
    cross = weighted @ feats.transpose(1, 0, 2).reshape(shape).T
    n = state.steps
    s = state.sums[c]
    var = n * state.sq_sums[c] - s * s
    sd = np.sqrt(np.where(var > 1e-12, var, np.inf))
    value = (n * cross - np.outer(s, s)) / np.outer(sd, sd)
    return np.clip(value, -1.0, 1.0, out=value)


# -- test-only helpers -------------------------------------------------------


def event_log_from_events(events, catalog_size=None, edge_count=None, horizon=None) -> EventLog:
    """An ``EventLog`` of ``RequestEvent`` tuples, stably sorted by time; the
    catalog, edge count and horizon default to the smallest that hold them."""
    evs = sorted(events, key=lambda ev: ev.timestamp)
    edge = np.array([ev.edge_id for ev in evs], dtype=np.int64)
    user = np.array([ev.user_id for ev in evs], dtype=np.int64)
    vid = np.array([ev.video_id for ev in evs], dtype=np.int64)
    ts = np.array([ev.timestamp for ev in evs], dtype=np.float64)
    if catalog_size is None:
        catalog_size = int(vid.max()) + 1 if len(evs) else 1
    if edge_count is None:
        edge_count = int(edge.max()) + 1 if len(evs) else 1
    if horizon is None:
        horizon = float(ts[-1]) + 1.0 if len(evs) else 1.0
    return EventLog(edge, user, vid, ts, catalog_size, edge_count, horizon)


def log_likelihood(params: ModelParams, log, window: TrainWindow) -> float:
    """``window_log_likelihood`` of one log, its statistics built for this call."""
    return window_log_likelihood(params, window_stats(params, log, window))


def gradients(params: ModelParams, log, window: TrainWindow) -> GradientBundle:
    """``window_gradients`` of one log, its statistics built for this call."""
    return window_gradients(params, window_stats(params, log, window))


def rebuild_state(params: ModelParams, event_times, event_videos, at_time: float) -> KernelState:
    """Recompute the state from raw events (consistency oracle for advance_state)."""
    times = np.asarray(event_times, dtype=np.float64)
    vids = np.asarray(event_videos, dtype=np.int64)
    keep = times <= at_time
    times, vids = times[keep], vids[keep]
    counts = np.zeros(params.catalog_size)
    np.add.at(counts, vids, np.exp(-params.decay * (at_time - times)))
    state = KernelState(counts, np.zeros(params.dim), at_time)
    state.rebuild_mix(params)
    return state


def intensity(params: ModelParams, state: KernelState, video: int) -> float:
    """Request rate of one video at the state's time; O(D)."""
    return float(params.base_rate[video] + params.target_factors[video] @ state.source_mix)


def intensity_sweep_at(params: ModelParams, state: KernelState, at_time: float) -> np.ndarray:
    """Sweep at a later instant without mutating the state (pure decay)."""
    if at_time < state.last_update:
        raise ValueError("cannot evaluate before the state's time")
    fade = math.exp(-params.decay * (at_time - state.last_update))
    return params.base_rate + params.target_factors @ (state.source_mix * fade)


def kernel_integral(a: float, b: float, decay: float) -> float:
    """Integral of exp(-decay * t) over [a, b]; b may be infinite."""
    if a < 0 or a > b:
        raise ValueError("need 0 <= a <= b")
    hi = 0.0 if math.isinf(b) else math.exp(-decay * b)
    return (math.exp(-decay * a) - hi) / decay


def identity_correlation_state(catalog_size: int) -> CorrelationState:
    """A correlation state of one identity epoch: zero base rate in column 0,
    identity factors after it. Fed each sweep as its own mix, its ``cross``
    is exactly the sum of ``outer(utilities, utilities)``; it is
    O(catalog^2), for generic test vectors only."""
    return CorrelationState(np.eye(catalog_size, catalog_size + 1, 1)[None])


def update_correlation(state: CorrelationState, utilities: np.ndarray, mix=None) -> CorrelationState:
    """Fold one sweep; without a mix the sweep is its own (identity-epoch) mix."""
    state.update(utilities, utilities if mix is None else mix)
    return state


def correlation_degree(state: CorrelationState, i: int, j: int) -> float:
    """Pearson correlation of two videos' utility histories; see ``correlation_block``."""
    return float(correlation_block(state, (i, j))[0, 1])


def video_sensitivity(
    params: ModelParams,
    kernel_state: KernelState,
    corr: CorrelationState,
    candidates: CandidateSet,
    video: int,
) -> float:
    """One candidate's entry of ``candidate_sensitivities``."""
    if video not in candidates:
        raise ValueError("sensitivity is defined for candidate videos only")
    return candidate_sensitivities(params, kernel_state, corr, candidates)[video]
