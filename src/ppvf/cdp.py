"""Correlated differential privacy for prefetch obfuscation.

Each cache miss contributes one utility sweep to a running Pearson state.
Between refits every sweep is affine in the edge's latent mix,
``utilities = base_rate + target_factors @ mix``, so the state keeps the
moments of the mix per parameter epoch, next to one (epoch, video, 1+D)
table of every epoch's parameters, built once from the fitted sequence
and shared read-only by all edges; any pair's full-history cross sum
follows from those in O(E * D^2), for every catalog size. Sensitivity of
a candidate video is the correlation-weighted sum of how much deleting
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
    """Running sums behind the per-pair Pearson correlation of utilities.

    ``sums`` and ``sq_sums`` accumulate each video's utilities directly.
    Cross sums stay factored over parameter epochs. ``table`` is the
    read-only (E, I, 1+D) table of :func:`epoch_table`: row ``table[e, i]``
    is ``(base_rate[i], *target_factors[i])`` under epoch ``e``'s
    parameters, built once per run and shared by every edge. The state
    starts in epoch 0 and :meth:`next_epoch` moves it on; ``epochs`` and
    ``moments`` cover the epochs reached so far. ``moments[e]`` is the sum
    of ``outer(z, z)`` over epoch ``e``'s sweeps with ``z = (1, mix)``, and
    only ``moments[-1]`` changes. The full-history cross sum of videos ``i``
    and ``j`` is ``sum_e epochs[e, i] @ moments[e] @ epochs[e, j]``, exact
    for every catalog size.
    """

    # bench/tracing.py sizes the state as sums + sq_sums + cross when this is set.
    dense = True

    def __init__(self, table: np.ndarray):
        self.table = table
        self.catalog_size = table.shape[1]
        self.steps = 0
        self.sums = np.zeros(self.catalog_size)
        self.sq_sums = np.zeros(self.catalog_size)
        self._moments = np.zeros((len(table),) + (table.shape[2],) * 2)
        self.epochs, self.moments = table[:1], self._moments[:1]

    def next_epoch(self) -> None:
        """Fold later sweeps as ``table[e + 1] @ (1, mix)``."""
        reached = len(self.epochs) + 1
        if reached > len(self.table):
            raise ValueError("the epoch table holds no later epoch")
        self.epochs, self.moments = self.table[:reached], self._moments[:reached]

    @property
    def cross(self) -> np.ndarray:
        """The current epoch's sum of ``outer(mix, mix)``."""
        return self.moments[-1, 1:, 1:]

    def update(self, utilities: np.ndarray, mix: np.ndarray) -> None:
        """Fold one utility sweep, and the mix it was computed from, into the state."""
        lam = np.asarray(utilities, dtype=np.float64)
        if lam.shape[0] != self.catalog_size:
            raise ValueError("utility vector length must match the catalog")
        if not np.isfinite(lam).all():
            raise ValueError("utilities must be finite")
        z = np.concatenate(([1.0], mix))
        self.moments[-1] += z[:, None] * z
        self.steps += 1
        self.sums += lam
        self.sq_sums += lam * lam


def epoch_table(params_list) -> np.ndarray:
    """The (E, I, 1+D) table whose row ``[e, i]`` is ``(base_rate[i], *target_factors[i])``
    under ``params_list[e]``."""
    first = params_list[0]
    table = np.empty((len(params_list), first.catalog_size, 1 + first.dim))
    for rows, params in zip(table, params_list):
        rows[:, 0] = params.base_rate
        rows[:, 1:] = params.target_factors
    return table


def correlation_block(state: CorrelationState, videos) -> np.ndarray:
    """Pearson correlations of the videos' full utility histories, in [-1, 1].

    Degenerate (near-constant) series read as uncorrelated; fewer than two
    incorporated steps is an error.
    """
    if state.steps < 2:
        raise ValueError("correlation undefined before two incorporated steps")
    c = np.asarray(videos, dtype=np.intp)
    feats = state.epochs.take(c, axis=1)
    # All epochs sum as one product over the flattened (epoch, feature) axis.
    shape = (len(c), feats.shape[0] * feats.shape[2])
    weighted = (feats @ state.moments).transpose(1, 0, 2).reshape(shape)
    cross = weighted @ feats.transpose(1, 0, 2).reshape(shape).T
    n = state.steps
    s = state.sums[c]
    var = n * state.sq_sums[c] - s * s
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
) -> dict[int, float]:
    """Correlation-weighted utility shift from deleting any co-candidate's history.

    Deleting all of video ``j``'s requests removes exactly its excitation
    term, so the per-pair deletion difference is
    ``(target_factors[i] . source_factors[j]) * decayed_counts[j]``.
    Correlation magnitudes weight the terms: anti-correlation still implies
    exposure, and the scale must stay non-negative. One k x k correlation
    block serves all k candidates.
    """
    if corr.steps < 2:
        # Correlation is undefined this early; zero sensitivity makes the
        # sampler fall back to its uniform, budget-charging limit.
        return dict.fromkeys(candidates, 0.0)
    c = np.asarray(candidates.videos, dtype=np.intp)
    deletion = (params.target_factors[c] @ params.source_factors[c].T) * kernel_state.decayed_counts[c]
    sens = (np.abs(correlation_block(corr, c)) * deletion).sum(axis=1)
    return dict(zip(candidates, sens.tolist()))


def global_sensitivity(per_video: dict[int, float]) -> float:
    """Worst candidate sensitivity; scales the exponential mechanism."""
    if not per_video:
        raise ValueError("candidate set must be non-empty")
    return max(per_video.values())


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


@functools.lru_cache(maxsize=64)
def _uniform_cdf(n: int) -> tuple[float, ...]:
    """The normalized cumulative sum ``rng.choice`` searches for ``em_weights``' uniform limit."""
    cdf = np.full(n, 1.0 / n).cumsum()
    return tuple((cdf / cdf[-1]).tolist())


def pairwise_sum(values) -> float:
    """``np.add.reduce`` of a float64 vector, bit for bit, in Python floats.

    numpy adds from +0.0 and, within one contiguous run, sums fewer than 8
    terms in order, up to 128 terms in eight interleaved lanes combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` plus the leftover terms in
    order, and longer runs as two halves split at a multiple of 8
    (Higham 1993's pairwise summation).
    """
    if len(values) < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(a, lo: int, n: int) -> float:
    if n < 8:
        total = 0.0
        for v in a[lo : lo + n]:
            total += v
        return total
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = a[lo : lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r0 += a[i]
            r1 += a[i + 1]
            r2 += a[i + 2]
            r3 += a[i + 3]
            r4 += a[i + 4]
            r5 += a[i + 5]
            r6 += a[i + 6]
            r7 += a[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for v in a[end : lo + n]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return _pairwise(a, lo, half) + _pairwise(a, lo + half, n - half)


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

    Draw for draw, this is ``rng.choice(len(pool), p=em_weights(...))`` over
    the remaining pool, bit for bit and with the same random stream:
    ``choice`` searches the normalized cumulative sum of ``p`` for one
    ``rng.random()`` (``side="right"``), and ``rng.random(k)`` yields k such
    values at once. A score minus the pool maximum does not depend on the
    rest of the pool, so one ``np.exp`` call weighs the pool against each
    maximum it can reach, and each draw reads its survivors' weights from
    the row of the current maximum. Everything else is Python float
    arithmetic in numpy's order: the survivors' total is
    :func:`pairwise_sum`, the cumulative sum runs left to right, and the
    search is ``bisect_right``.
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
    if any(map(math.isnan, listed)):
        raise ValueError("exponential-mechanism scores must be finite for every draw")
    tops = sorted(listed, reverse=True)[:draws]
    if not (tops[0] < math.inf and tops[-1] > -math.inf):
        # A +inf score, or a pool left with only -inf scores before the
        # last draw, makes NaN probabilities.
        raise ValueError("exponential-mechanism scores must be finite for every draw")
    # Every pool maximum is one of the top ``draws`` scores: one weight row
    # per candidate maximum, from np.exp (math.exp's last bit differs on
    # some inputs). Drawn entries may lie above a later maximum; capping
    # them at 0 keeps their unread weights from overflowing.
    rows = np.exp(np.minimum(scores - np.array(tops)[:, None], 0.0)).tolist()
    left = list(range(len(pool)))  # undrawn pool positions, in pool order
    for u in rng.random(draws).tolist():
        if len(left) == 1:
            # One survivor: its normalised cumulative sum is [1.0] and u < 1.
            chosen.append(pool[left.pop()])
            break
        # What ``w / w.sum()``, ``cumsum``, ``cdf /= cdf[-1]`` and
        # ``searchsorted(u, side="right")`` compute on the survivors' weights.
        row = rows[tops.index(max([listed[i] for i in left]))]
        w = [row[i] for i in left]
        total = pairwise_sum(w)
        cdf = list(itertools.accumulate([x / total for x in w]))
        last = cdf[-1]
        chosen.append(pool[left.pop(bisect.bisect_right([c / last for c in cdf], u))])
    return tuple(chosen)


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
