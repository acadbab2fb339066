"""Federated fitting of the excitation model.

Edges compute window log-likelihoods and gradients on their private logs;
the coordinator only ever sees those summaries, sums them with a
permutation-invariant reduction, applies L2 regularization, and takes
projected gradient steps. Raw events never cross the edge boundary: each
edge's log enters :func:`run_fit_round` once, as the window statistics it
keeps, and the coordinator receives one likelihood per edge at every point
it scores and one gradient bundle per edge at every point a step starts
from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .predictor import (
    PARAM_FLOOR,
    GradientBundle,
    ModelParams,
    TrainWindow,
    window_gradients,
    window_log_likelihood,
    window_stats,
)


class AggregationError(ValueError):
    """Raised when a contribution is unusable; names the offending edge."""


def require_finite(config) -> None:
    """Reject a dataclass instance whose float fields hold NaN or an infinity."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class TrainConfig:
    rho_base: float = 0.0
    rho_target: float = 0.0
    rho_source: float = 0.0
    learning_rate: float = 1e-3
    max_iters: int = 20
    tolerance: float = 1e-6
    update_interval_hours: float = 48.0

    def __post_init__(self):
        require_finite(self)
        if min(self.rho_base, self.rho_target, self.rho_source) < 0:
            raise ValueError("regularization weights must be non-negative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.update_interval_hours <= 0:
            raise ValueError("update_interval_hours must be positive")


def _merge_network(n: int) -> tuple[tuple[int, int], ...]:
    """Comparators of Batcher's odd-even merge sort on ``n`` inputs."""
    pairs = []
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(min(k, n - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    return tuple(pairs)


@lru_cache(maxsize=None)
def _merge_plan(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """The merge network on ``n`` inputs, and the row copies ``(to, from)``
    that put :func:`_sorted_sum`'s rotated buffer back in rank order."""
    pairs = _merge_network(n)
    # where[k]: the buffer row holding rank k after the rotating network.
    where, free = list(range(n)), n
    for a, _ in pairs:
        where[a], free = free, where[a]
    moves = []
    while True:
        if free < n:  # row `free` is rank `free`'s home: fill it
            moves.append((free, where[free]))
            where[free], free = free, where[free]
            continue
        stray = next((k for k in range(n) if where[k] != k), None)
        if stray is None:
            return pairs, tuple(moves)
        # A cycle that avoids the free row: open it by parking one rank there.
        moves.append((free, where[stray]))
        where[stray], free = free, where[stray]


def _sorted_sum(arrays: list[np.ndarray], scratch: dict | None = None) -> np.ndarray:
    """Sum of the arrays with each entry's addends sorted ascending first.

    Sorting makes the reduction exactly permutation-invariant. A merge
    network of min/max compare-exchanges sorts every entry at once; it
    differs from a sort only on tied zeros of opposite sign, which the
    axis-0 sum (it starts from +0.0) cannot tell apart. The addends are
    stacked into a buffer with one spare row. Each compare-exchange writes
    the minimum into the spare row and the maximum over its larger input,
    and the smaller input's row becomes the next spare: two numpy calls per
    comparator instead of a third to copy the minimum back. At most
    ``len(arrays) + 1`` row copies then restore rank order for the sum.
    A ``scratch`` dict keeps one buffer per array count and shape across
    calls.
    """
    n, shape = len(arrays), arrays[0].shape
    pairs, moves = _merge_plan(n)
    scratch = {} if scratch is None else scratch
    if (n, shape) not in scratch:
        scratch[n, shape] = np.empty((n + 1,) + shape)
    buf = scratch[n, shape]
    np.stack(arrays, out=buf[:-1])
    rows = list(buf)
    spare = rows.pop()
    for a, b in pairs:
        lo, hi = rows[a], rows[b]
        np.minimum(lo, hi, out=spare)
        np.maximum(lo, hi, out=hi)
        rows[a], spare = spare, lo
    for to, src in moves:
        buf[to] = buf[src]
    return np.sum(buf[:-1], axis=0)


def global_loss(params: ModelParams, lls: list[float], cfg: TrainConfig) -> float:
    """Negated sum of the edges' window log-likelihoods plus L2 penalties."""
    for idx, ll in enumerate(lls):
        if not math.isfinite(ll):
            raise AggregationError(f"non-finite likelihood from edge index {idx}")
    ll_sum = math.fsum(lls)
    reg = (
        0.5 * cfg.rho_base * float(params.base_rate @ params.base_rate)
        + 0.5 * cfg.rho_target * float(np.sum(params.target_factors**2))
        + 0.5 * cfg.rho_source * float(np.sum(params.source_factors**2))
    )
    return -ll_sum + reg


# Non-finite gradients are reported below, naming their edge, so numpy's
# warnings about the NaNs they make would only repeat it.
@np.errstate(invalid="ignore")
def sum_gradients(grads: list[GradientBundle], scratch: dict | None = None) -> GradientBundle:
    """The edges' likelihood gradients, summed block by block in an
    order-independent way.

    A NaN or infinite addend always makes its entry's sum non-finite, so
    only a non-finite sum needs the edges scanned: the first edge holding a
    non-finite entry is named in an :class:`AggregationError`. When every
    addend is finite, an overflowed sum is returned as it is. ``scratch``
    keeps :func:`_sorted_sum`'s stacking buffers between calls.
    """
    if not grads:
        raise AggregationError("no gradients to sum")
    summed = GradientBundle(
        base_rate=_sorted_sum([g.base_rate for g in grads], scratch),
        target_factors=_sorted_sum([g.target_factors for g in grads], scratch),
        source_factors=_sorted_sum([g.source_factors for g in grads], scratch),
    )
    if not summed.is_finite():
        for idx, g in enumerate(grads):
            if not g.is_finite():
                raise AggregationError(f"non-finite gradients from edge index {idx}")
    return summed


def aggregate_and_step(
    params: ModelParams, summed: GradientBundle, cfg: TrainConfig, learning_rate: float | None = None
) -> ModelParams:
    """One coordinator update from the summed gradients: regularize, descend, clamp."""
    eta = cfg.learning_rate if learning_rate is None else learning_rate

    # d(loss)/d(theta) = rho * theta - sum of likelihood gradients; the
    # descent step projects back onto the positive orthant, in one buffer.
    def step(theta: np.ndarray, rho: float, grad: np.ndarray) -> np.ndarray:
        out = np.multiply(theta, rho)
        out -= grad
        out *= eta
        np.subtract(theta, out, out=out)
        return np.maximum(out, PARAM_FLOOR, out=out)

    return ModelParams(
        base_rate=step(params.base_rate, cfg.rho_base, summed.base_rate),
        target_factors=step(params.target_factors, cfg.rho_target, summed.target_factors),
        source_factors=step(params.source_factors, cfg.rho_source, summed.source_factors),
        decay=params.decay,
    )


@dataclass
class FitResult:
    params: ModelParams
    losses: list[float] = field(default_factory=list)


# A diverging fit overflows to infinities or NaNs; global_loss and
# sum_gradients report those as an AggregationError, so numpy's warnings
# would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def run_fit_round(edge_logs, params: ModelParams, window: TrainWindow, cfg: TrainConfig) -> FitResult:
    """Iterate coordinator steps with backtracking until convergence.

    The step size halves whenever a step would increase the loss, so the
    accepted-loss sequence is non-increasing. Per-edge statistics are
    precomputed once per call; only parameter-dependent terms are
    re-evaluated inside the loop. Each iteration sums the edges' gradients
    once, at the point its steps start from; a candidate step needs only
    its loss.
    """
    params = params.clamped(PARAM_FLOOR)
    stats = [window_stats(params, log, window) for log in edge_logs]
    if cfg.max_iters == 0 or not stats:
        return FitResult(params=params)

    def loss_at(p: ModelParams) -> float:
        return global_loss(p, [window_log_likelihood(p, st) for st in stats], cfg)

    loss = loss_at(params)
    losses = [loss]
    eta = cfg.learning_rate
    scratch: dict = {}
    for _ in range(cfg.max_iters):
        summed = sum_gradients([window_gradients(params, st) for st in stats], scratch)
        for _backtrack in range(60):
            candidate = aggregate_and_step(params, summed, cfg, learning_rate=eta)
            cand_loss = loss_at(candidate)
            if cand_loss <= loss:
                break
            eta *= 0.5
        else:
            break
        params = candidate
        losses.append(cand_loss)
        if abs(cand_loss - loss) < cfg.tolerance * max(abs(loss), 1.0):
            break
        loss = cand_loss
    return FitResult(params=params, losses=losses)
