"""Federated fitting of the excitation model.

Edges compute window log-likelihoods and gradients on their private logs;
the coordinator only ever sees those summaries, sums them with a
permutation-invariant reduction, applies L2 regularization, and takes
projected gradient steps. Raw events never cross the edge boundary: the
only operation here that touches an event log is :func:`local_round`, and
its output carries scalars and gradient arrays only.
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


@dataclass(frozen=True)
class LocalContribution:
    """One edge's upload; ``grads`` is None where only the loss is needed."""

    ll: float
    grads: GradientBundle | None = None


def local_round(edge_log, params: ModelParams, window: TrainWindow) -> LocalContribution:
    """One edge's likelihood and gradients on its own log."""
    stats = window_stats(params, edge_log, window)
    return LocalContribution(
        ll=window_log_likelihood(params, edge_log, window, stats=stats),
        grads=window_gradients(params, edge_log, window, stats=stats),
    )


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


def _sorted_sum(arrays: list[np.ndarray]) -> np.ndarray:
    """Sum of the arrays with each entry's addends sorted ascending first.

    Sorting makes the reduction exactly permutation-invariant. A merge
    network of in-place min/max compare-exchanges sorts every entry at once;
    it differs from a sort only on tied zeros of opposite sign, which the
    axis-0 sum (it starts from +0.0) cannot tell apart.
    """
    stacked = np.stack(arrays, axis=0)
    tmp = np.empty_like(stacked[0])
    for a, b in _merge_network(len(arrays)):
        lo, hi = stacked[a], stacked[b]
        np.minimum(lo, hi, out=tmp)
        np.maximum(lo, hi, out=hi)
        lo[...] = tmp
    return np.sum(stacked, axis=0)


def _check_contributions(contributions, with_grads: bool) -> None:
    for idx, c in enumerate(contributions):
        if not (math.isfinite(c.ll) and (not with_grads or c.grads.is_finite())):
            raise AggregationError(f"non-finite contribution from edge index {idx}")


def global_loss(params: ModelParams, contributions, cfg: TrainConfig) -> float:
    """Negated likelihood sum plus L2 penalties at the contribution params.

    Reads only each contribution's ``ll``.
    """
    _check_contributions(contributions, with_grads=False)
    ll_sum = math.fsum(sorted(c.ll for c in contributions))
    reg = (
        0.5 * cfg.rho_base * float(params.base_rate @ params.base_rate)
        + 0.5 * cfg.rho_target * float(np.sum(params.target_factors**2))
        + 0.5 * cfg.rho_source * float(np.sum(params.source_factors**2))
    )
    return -ll_sum + reg


def aggregate_and_step(
    params: ModelParams, contributions, cfg: TrainConfig, learning_rate: float | None = None
) -> tuple[ModelParams, float]:
    """One coordinator update: sum gradients, regularize, descend, clamp.

    Returns the stepped parameters and the loss evaluated at the *input*
    parameters (the contributions were computed there).
    """
    if not contributions:
        raise AggregationError("no contributions to aggregate")
    _check_contributions(contributions, with_grads=True)
    eta = cfg.learning_rate if learning_rate is None else learning_rate

    loss = global_loss(params, contributions, cfg)
    g_base = _sorted_sum([c.grads.base_rate for c in contributions])
    g_tgt = _sorted_sum([c.grads.target_factors for c in contributions])
    g_src = _sorted_sum([c.grads.source_factors for c in contributions])

    # d(loss)/d(theta) = rho * theta - sum of likelihood gradients; the
    # descent step projects back onto the positive orthant.
    new = ModelParams(
        base_rate=np.maximum(
            params.base_rate - eta * (cfg.rho_base * params.base_rate - g_base), PARAM_FLOOR
        ),
        target_factors=np.maximum(
            params.target_factors - eta * (cfg.rho_target * params.target_factors - g_tgt),
            PARAM_FLOOR,
        ),
        source_factors=np.maximum(
            params.source_factors - eta * (cfg.rho_source * params.source_factors - g_src),
            PARAM_FLOOR,
        ),
        decay=params.decay,
    )
    return new, loss


@dataclass
class FitResult:
    params: ModelParams
    losses: list[float] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.losses)


def run_fit_round(edge_logs, params: ModelParams, window: TrainWindow, cfg: TrainConfig) -> FitResult:
    """Iterate local rounds and coordinator steps until convergence.

    The step size halves whenever a step would increase the loss, so the
    accepted-loss sequence is non-increasing. Per-edge statistics are
    precomputed once per call; only parameter-dependent terms are
    re-evaluated inside the loop. A candidate step needs only its loss, so
    edges compute gradients only at the points a step is taken from.
    """
    params = params.clamped(PARAM_FLOOR)
    stats = [window_stats(params, log, window) for log in edge_logs]

    def likelihoods(p: ModelParams) -> list[LocalContribution]:
        return [LocalContribution(window_log_likelihood(p, None, window, stats=st)) for st in stats]

    losses: list[float] = []
    if cfg.max_iters == 0 or not stats:
        return FitResult(params=params, losses=losses)

    contribs = likelihoods(params)
    loss = global_loss(params, contribs, cfg)
    losses.append(loss)
    eta = cfg.learning_rate
    for _ in range(cfg.max_iters):
        contribs = [
            LocalContribution(c.ll, window_gradients(params, None, window, stats=st))
            for c, st in zip(contribs, stats)
        ]
        accepted = False
        for _backtrack in range(60):
            candidate, _ = aggregate_and_step(params, contribs, cfg, learning_rate=eta)
            cand_contribs = likelihoods(candidate)
            cand_loss = global_loss(candidate, cand_contribs, cfg)
            if cand_loss <= loss:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
        params, contribs = candidate, cand_contribs
        losses.append(cand_loss)
        if abs(cand_loss - loss) < cfg.tolerance * max(abs(loss), 1.0):
            break
        loss = cand_loss
    return FitResult(params=params, losses=losses)
