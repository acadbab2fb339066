"""Correlated differential privacy for prefetch obfuscation.

Each fitted cache miss adds one utility sweep to a Pearson state. Between
refits every sweep is affine in the edge's latent mix, ``utilities =
base_rate + target_factors @ mix``, so the state keeps only the moments of
the mix per parameter epoch, next to the (epoch, video, 1+D) table of every
epoch's parameters, which the fit writes once and all edges share
read-only; a miss costs O(D^2), and any video's sums and any pair's cross
sum follow in O(E * D^2), for every catalog size. Sensitivity
of a candidate video is the correlation-weighted sum of how much deleting
each co-candidate's history would move its utility; with the exponential
kernel that deletion difference has the closed form
``influence(i,j) * decayed_counts[j]``, so no rebuild is needed. Prefetch
decisions sample candidates without replacement through an exponential
mechanism scaled by the worst candidate sensitivity.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math

import numpy as np

from .predictor import KernelState, ModelParams
from .scheduler import CandidateSet

_VARIANCE_EPS = 1e-12


class CorrelationState:
    """The epoch moments behind the per-pair Pearson correlation of utilities.

    ``table`` is the read-only (E, I, 1+D) table of a fit schedule
    (:class:`ppvf.sim.FitSchedule`): row ``table[e, i]`` is ``(base_rate[i],
    *target_factors[i])`` under epoch ``e``'s parameters, shared by every edge.
    The state starts in epoch 0 and :meth:`reach` moves it to a later one;
    ``epochs`` and ``moments`` cover the epochs up to the current one.
    ``moments[e]`` sums ``outer(z, z)`` over epoch ``e``'s sweeps,
    ``epochs[e] @ z`` with ``z = (1, mix)``; only ``moments[-1]`` changes. So
    the full-history cross sum of videos ``i`` and ``j`` is ``sum_e epochs[e,
    i] @ moments[e] @ epochs[e, j]`` (squares at ``j = i``) and video ``i``'s
    utility sum is ``sum_e epochs[e, i] @ moments[e][:, 0]``, exact for every
    catalog size; besides views of the table, the state keeps nothing
    catalog-sized.
    """

    # bench/tracing.py sizes the state as the derived sums + sq_sums + cross when set.
    dense = True

    def __init__(self, table: np.ndarray):
        self.table = table
        self.steps = 0
        self._moments = np.zeros((len(table),) + (table.shape[2],) * 2)
        self.epochs, self.moments = table[:1], self._moments[:1]

    def reach(self, epoch: int) -> None:
        """Fold later sweeps as ``table[epoch] @ (1, mix)``, from the current epoch or a later one."""
        if not len(self.epochs) <= epoch + 1 <= len(self.table):
            raise ValueError(f"epoch {epoch} is before the current one or past the table's last")
        self.epochs, self.moments = self.table[: epoch + 1], self._moments[: epoch + 1]

    @property
    def cross(self) -> np.ndarray:
        """The current epoch's sum of ``outer(mix, mix)``."""
        return self.moments[-1, 1:, 1:]

    @property
    def sums(self) -> np.ndarray:
        """Each video's sum of utilities, derived from the moments."""
        return sum(rows @ m[:, 0] for rows, m in zip(self.epochs, self.moments))

    @property
    def sq_sums(self) -> np.ndarray:
        """Each video's sum of squared utilities, derived from the moments."""
        return sum(((rows @ m) * rows).sum(axis=1) for rows, m in zip(self.epochs, self.moments))

    def update(self, mix: np.ndarray) -> None:
        """Fold the mix of one sweep, ``epochs[-1] @ (1, mix)``, into the state; O(D^2)."""
        z = np.concatenate(([1.0], mix))
        if not np.isfinite(z).all():
            raise ValueError("the mix must be finite")
        self.moments[-1] += z[:, None] * z
        self.steps += 1


def correlation_block(state: CorrelationState, videos) -> np.ndarray:
    """Pearson correlations of the videos' full utility histories, in [-1, 1].

    Degenerate (near-constant) series read as uncorrelated. The state holds
    at least two steps: :func:`candidate_sensitivities` asks for no fewer.
    """
    c = np.asarray(videos, dtype=np.intp)
    feats = state.epochs.take(c, axis=1)
    # Column 0 of each epoch's product sums the utilities, and the cross
    # block's diagonal their squares. All epochs sum as one product over the
    # flattened (epoch, feature) axis.
    prod = feats @ state.moments
    s = prod[:, :, 0].sum(axis=0)
    shape = (len(c), feats.shape[0] * feats.shape[2])
    weighted = prod.transpose(1, 0, 2).reshape(shape)
    cross = weighted @ feats.transpose(1, 0, 2).reshape(shape).T
    n = state.steps
    var = n * cross.diagonal() - s * s
    # An infinite spread zeroes every pair of a degenerate series.
    sd = np.sqrt(np.where(var > _VARIANCE_EPS, var, np.inf))
    # Broadcast products and a max/min pair: what np.outer and np.clip
    # compute, without their Python-level wrappers.
    value = (n * cross - s[:, None] * s) / (sd[:, None] * sd)
    return np.minimum(np.maximum(value, -1.0, out=value), 1.0, out=value)


def candidate_sensitivities(
    params: ModelParams,
    kernel_state: KernelState,
    corr: CorrelationState,
    candidates: CandidateSet,
) -> np.ndarray:
    """Correlation-weighted utility shift from deleting any co-candidate's history.

    Deleting all of video ``j``'s requests removes exactly its excitation
    term, so the per-pair deletion difference is
    ``(target_factors[i] . source_factors[j]) * decayed_counts[j]``.
    Correlation magnitudes weight the terms: anti-correlation still implies
    exposure, and the scale must stay non-negative. One k x k correlation
    block serves all k candidates; entry ``k`` of the result belongs to the
    ``k``-th candidate, and the largest entry scales the exponential
    mechanism.
    """
    if corr.steps < 2:
        # Correlation is undefined this early; zero sensitivity makes the
        # sampler fall back to its uniform, budget-charging limit.
        return np.zeros(len(candidates))
    c = np.asarray(candidates.videos, dtype=np.intp)
    deletion = (params.target_factors[c] @ params.source_factors[c].T) * kernel_state.decayed_counts[c]
    return (np.abs(correlation_block(corr, c)) * deletion).sum(axis=1)


@functools.lru_cache(maxsize=64)
def _uniform_cdf(n: int) -> tuple[float, ...]:
    """The normalized cumulative sum ``rng.choice`` searches for a uniform ``p`` over ``n``."""
    cdf = np.full(n, 1.0 / n).cumsum()
    return tuple((cdf / cdf[-1]).tolist())


def pairwise_sum(values) -> float:
    """``np.add.reduce`` of a float64 vector, bit for bit.

    numpy sums fewer than 8 terms in order from +0.0, which a Python loop
    repeats without building an array; longer vectors go to numpy itself.
    """
    if len(values) < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    return float(np.add.reduce(np.array(values)))


def em_sample(
    candidates: CandidateSet,
    utilities: np.ndarray,
    eps_step: float,
    sensitivity: float,
    prefetch_cap: int,
    rng,
) -> tuple[int, ...]:
    """Draw up to ``prefetch_cap`` distinct candidates, utility-weighted.

    Each sequential draw is an exponential mechanism over the remaining pool;
    the accounted cost of the step is draws * eps_step under composition. An
    empty candidate set yields an empty tuple.

    Draw for draw, this is ``rng.choice(len(pool), p=w / w.sum())`` over
    the remaining pool, bit for bit and with the same random stream, where
    ``w = np.exp(scores - scores.max())`` (uniform when the sensitivity or
    ``eps_step`` is 0) and ``scores = eps_step * utilities / (2 *
    sensitivity)``. ``choice`` searches the normalized cumulative sum of
    ``p`` for one ``rng.random()`` (``side="right"``), and ``rng.random(k)``
    yields k such values at once. Each draw takes one ``np.exp`` over its
    survivors' scores minus their maximum (``math.exp``'s last bit differs
    on some inputs); the rest is Python float arithmetic in numpy's order:
    the survivors' total is :func:`pairwise_sum`, the cumulative sum runs
    left to right, and the search is ``bisect_right``. A draw pops the drawn
    candidate from the pool and its score from the scores, so the survivors
    keep pool order.
    """
    pool = list(candidates)
    lam = np.asarray(utilities, dtype=np.float64)
    if lam.shape[0] != len(pool):
        raise ValueError("need one utility per candidate")
    draws = min(len(pool), prefetch_cap)
    if draws <= 0:
        return ()
    if sensitivity < 0:
        raise ValueError("sensitivity must be non-negative")
    chosen: list[int] = []
    if sensitivity == 0.0 or eps_step == 0.0:
        # No usable signal: the uniform draw is the privacy-safe limit.
        for u in rng.random(draws).tolist():
            chosen.append(pool.pop(bisect.bisect_right(_uniform_cdf(len(pool)), u)))
        return tuple(chosen)
    scores = eps_step * lam / (2.0 * sensitivity)
    listed = scores.tolist()
    finite = sum(map(math.isfinite, listed))
    if finite < draws or finite + listed.count(-math.inf) < len(pool):
        # A NaN or +inf score, or a pool left with only -inf scores before
        # the last draw, makes NaN probabilities. Zero-weight -inf scores
        # are never drawn while a finite one survives.
        raise ValueError("exponential-mechanism scores must be finite for every draw")
    for u in rng.random(draws).tolist():
        # What ``w / w.sum()``, ``cumsum``, ``cdf /= cdf[-1]`` and
        # ``searchsorted(u, side="right")`` compute on the survivors' weights.
        top = max(listed)
        w = np.exp(np.array([s - top for s in listed])).tolist()
        total = pairwise_sum(w)
        cdf = list(itertools.accumulate([x / total for x in w]))
        last = cdf[-1]
        drawn = bisect.bisect_right([c / last for c in cdf], u)
        chosen.append(pool.pop(drawn))
        del listed[drawn]
    return tuple(chosen)
