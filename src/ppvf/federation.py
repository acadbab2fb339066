"""Federated fitting of the excitation model.

Edges compute window log-likelihoods and gradients on their private logs;
the coordinator only ever sees those summaries. Each edge writes its
gradients into its row of one buffer per fit, and one merge-network pass
sums the rows in rank order, independent of edge order to the last bit. The
coordinator then applies L2 regularization and takes projected gradient
steps. Raw events never cross the edge boundary: each
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

from . import DataError
from .predictor import (
    PARAM_FLOOR,
    GradientBundle,
    ModelParams,
    TrainWindow,
    WindowStats,
    window_gradients,
    window_log_likelihood,
    window_stats,
)


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


@lru_cache(maxsize=None)
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


def _sorted_sum(rows: np.ndarray) -> np.ndarray:
    """Sum of all rows but the last, with each entry's addends sorted
    ascending first; the last row is scratch space. Overwrites ``rows``.

    Sorting makes the reduction exactly permutation-invariant. A merge
    network of min/max compare-exchanges sorts every entry at once; it
    differs from a sort only on tied zeros of opposite sign, which a sum
    from +0.0 cannot tell apart. Each compare-exchange writes the minimum
    into the spare row and the maximum over its larger input, and the
    smaller input's row becomes the next spare: two numpy calls per
    comparator instead of a third to copy the minimum back. The rows are
    then added from +0.0 in rank order into the last spare, which is
    returned.
    """
    ranked = list(rows)
    spare = ranked.pop()
    for a, b in _merge_network(len(ranked)):
        lo, hi = ranked[a], ranked[b]
        np.minimum(lo, hi, out=spare)
        np.maximum(lo, hi, out=hi)
        ranked[a], spare = spare, lo
    spare.fill(0.0)
    for row in ranked:
        spare += row
    return spare


def global_loss(params: ModelParams, lls: list[float], cfg: TrainConfig) -> float:
    """Negated sum of the edges' window log-likelihoods plus L2 penalties. A non-finite
    likelihood, or finite ones whose sum overflows, is a :class:`~ppvf.DataError`."""
    for idx, ll in enumerate(lls):
        if not math.isfinite(ll):
            raise DataError(f"non-finite likelihood from edge index {idx}")
    try:
        ll_sum = math.fsum(lls)
    except OverflowError:
        raise DataError(f"the {len(lls)} edge likelihoods sum past the float range") from None
    reg = (
        0.5 * cfg.rho_base * float(params.base_rate @ params.base_rate)
        + 0.5 * cfg.rho_target * float(np.sum(params.target_factors**2))
        + 0.5 * cfg.rho_source * float(np.sum(params.source_factors**2))
    )
    return -ll_sum + reg


# Non-finite gradients are reported below, naming their edge, so numpy's
# warnings about the NaNs they make would only repeat it.
@np.errstate(invalid="ignore")
def sum_gradients(params: ModelParams, stats: list[WindowStats], rows: np.ndarray) -> GradientBundle:
    """The edges' likelihood gradients at ``params``, summed in an
    order-independent way.

    Each edge writes its gradients into its row of ``rows``, whose last row
    is spare, and one :func:`_sorted_sum` pass sums them in place; the
    result views ``rows``. A NaN or infinite addend always makes its entry's
    sum non-finite, so only a non-finite sum needs the edges scanned: their
    gradients are taken again, into a fresh row, until the first edge
    holding a non-finite entry is named in an :class:`~ppvf.DataError`.
    When every addend is finite, an overflowed sum is returned as it is.
    """
    for st, row in zip(stats, rows):
        window_gradients(params, st, out=row)
    summed = _sorted_sum(rows)
    if not np.isfinite(summed).all():
        fresh = np.empty_like(summed)
        for idx, st in enumerate(stats):
            window_gradients(params, st, out=fresh)
            if not np.isfinite(fresh).all():
                raise DataError(f"non-finite gradients from edge index {idx}")
    return GradientBundle.of_row(summed, params.catalog_size, params.dim)


def aggregate_and_step(params: ModelParams, summed: GradientBundle, cfg: TrainConfig, eta: float) -> ModelParams:
    """One coordinator update from the summed gradients: regularize with
    ``cfg``'s weights, descend by step size ``eta``, clamp. A step that
    overflows a parameter is a :class:`~ppvf.DataError`."""

    # d(loss)/d(theta) = rho * theta - sum of likelihood gradients; the
    # descent step projects back onto the positive orthant, in one buffer.
    def step(theta: np.ndarray, rho: float, grad: np.ndarray) -> np.ndarray:
        out = np.multiply(theta, rho)
        out -= grad
        out *= eta
        np.subtract(theta, out, out=out)
        return np.maximum(out, PARAM_FLOOR, out=out)

    try:
        return ModelParams(
            base_rate=step(params.base_rate, cfg.rho_base, summed.base_rate),
            target_factors=step(params.target_factors, cfg.rho_target, summed.target_factors),
            source_factors=step(params.source_factors, cfg.rho_source, summed.source_factors),
            decay=params.decay,
        )
    except ValueError:  # only non-finite entries: the step keeps the shapes and the decay
        raise DataError(f"a descent step of size {eta} makes the parameters non-finite") from None


@dataclass
class FitResult:
    params: ModelParams
    losses: list[float] = field(default_factory=list)


# A diverging fit overflows to infinities or NaNs; global_loss,
# sum_gradients and aggregate_and_step report those as a DataError, so
# numpy's warnings would only repeat it.
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
    params = params.clamped()
    stats = [window_stats(params, log, window) for log in edge_logs]
    if cfg.max_iters == 0 or not stats:
        return FitResult(params=params)

    def loss_at(p: ModelParams) -> float:
        return global_loss(p, [window_log_likelihood(p, st) for st in stats], cfg)

    loss = loss_at(params)
    losses = [loss]
    eta = cfg.learning_rate
    rows = np.empty((len(stats) + 1, GradientBundle.row_size(params.catalog_size, params.dim)))
    for _ in range(cfg.max_iters):
        summed = sum_gradients(params, stats, rows)
        for _backtrack in range(60):
            candidate = aggregate_and_step(params, summed, cfg, eta)
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
