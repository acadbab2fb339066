"""Independent reference implementations used to check production paths.

Everything here recomputes quantities from raw inputs (literal double sums,
numeric quadrature, finite differences, sequential budget walks over exact
fractions, an evaluate-everything fitting loop) and deliberately avoids the
machinery under test.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from ppvf.federation import FitResult, TrainConfig, aggregate_and_step, global_loss, sum_gradients
from ppvf.predictor import (
    PARAM_FLOOR,
    GradientBundle,
    ModelParams,
    TrainWindow,
    window_gradients,
    window_log_likelihood,
    window_stats,
)
from ppvf.scheduler import threshold


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
        return window_log_likelihood(p, log, window)

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


def fit_round_evaluating_everything(edge_logs, params: ModelParams, window: TrainWindow, cfg: TrainConfig) -> FitResult:
    """Backtracking fit that computes likelihood and gradients at every point,
    rejected candidates and the final point included."""
    params = params.clamped(PARAM_FLOOR)
    stats = [window_stats(params, log, window) for log in edge_logs]

    def evaluate(p: ModelParams) -> tuple[list[float], list[GradientBundle]]:
        lls = [window_log_likelihood(p, None, window, stats=st) for st in stats]
        grads = [window_gradients(p, None, window, stats=st) for st in stats]
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
