"""Correlated differential privacy for prefetch obfuscation.

Each cache miss contributes one utility sweep to a running Pearson state.
Between refits every sweep is affine in the edge's latent mix,
``utilities = base_rate + target_factors @ mix``, so the state keeps the
moments of the mix per parameter epoch, next to one (epoch, video, 1+D)
table of every epoch's parameters, allocated once for the whole fitting
schedule and shared by all edges; any pair's full-history cross sum
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
import math
from dataclasses import dataclass

import numpy as np

from .predictor import KernelState, ModelParams
from .scheduler import CandidateSet

_VARIANCE_EPS = 1e-12


class CorrelationState:
    """Running sums behind the per-pair Pearson correlation of utilities.

    ``sums`` and ``sq_sums`` accumulate each video's utilities directly.
    Cross sums stay factored over parameter epochs. ``epochs`` is the
    (E, I, 1+D) table filled by :func:`set_epoch`: row ``epochs[e, i]`` is
    ``(base_rate[i], *target_factors[i])`` under epoch ``e``'s parameters.
    The simulator allocates one table for every barrier of its schedule,
    fills epoch ``e`` at barrier ``e`` and gives every edge the same view
    of the filled epochs. ``moments[e]`` is the sum of
    ``outer(z, z)`` over epoch ``e``'s sweeps with ``z = (1, mix)``, and only
    ``moments[-1]`` changes. The full-history cross sum of videos ``i`` and
    ``j`` is ``sum_e epochs[e, i] @ moments[e] @ epochs[e, j]``, exact for
    every catalog size. A state fed sweeps without their mix holds one
    identity epoch (zero base, identity factors, mix = the sweep), whose
    ``cross`` is exactly the sum of ``outer(utilities, utilities)``; it is
    O(catalog^2), so the simulator always passes the mix.
    """

    # bench/tracing.py sizes the state as sums + sq_sums + cross when this is set.
    dense = True

    def __init__(self, catalog_size: int):
        self.catalog_size = catalog_size
        self.steps = 0
        self.sums = np.zeros(catalog_size)
        self.sq_sums = np.zeros(catalog_size)
        self.epochs: np.ndarray | None = None
        self.moments: np.ndarray | None = None

    def start_epoch(self, epochs: np.ndarray) -> None:
        """Fold later sweeps as ``epochs[-1] @ (1, mix)``.

        ``epochs`` is the state's table with one more epoch filled in.
        """
        if len(epochs) != (0 if self.epochs is None else len(self.epochs)) + 1:
            raise ValueError("epochs must extend the state's table by one epoch")
        fresh = np.zeros((1,) + (epochs.shape[2],) * 2)
        self.moments = fresh if self.moments is None else np.concatenate((self.moments, fresh))
        self.epochs = epochs

    @property
    def cross(self) -> np.ndarray:
        """The current epoch's sum of ``outer(mix, mix)``."""
        return self.moments[-1, 1:, 1:]

    def update(self, utilities: np.ndarray, mix: np.ndarray | None = None) -> None:
        """Fold one utility sweep, and the mix it was computed from, into the state."""
        lam = np.asarray(utilities, dtype=np.float64)
        if lam.shape[0] != self.catalog_size:
            raise ValueError("utility vector length must match the catalog")
        if not np.isfinite(lam).all():
            raise ValueError("utilities must be finite")
        if mix is None:
            if self.epochs is None:
                # Zero base rate in column 0, identity factors after it.
                self.start_epoch(np.eye(self.catalog_size, self.catalog_size + 1, 1)[None])
            mix = lam
        z = np.concatenate(([1.0], mix))
        self.moments[-1] += z[:, None] * z
        self.steps += 1
        self.sums += lam
        self.sq_sums += lam * lam


def set_epoch(table: np.ndarray, epoch: int, base_rate: np.ndarray, target_factors: np.ndarray) -> np.ndarray:
    """Fill ``table[epoch]`` with the rows ``(base_rate[i], *target_factors[i])``.

    Returns the view of epochs ``0..epoch`` that :meth:`CorrelationState.start_epoch` takes.
    """
    table[epoch, :, 0] = base_rate
    table[epoch, :, 1:] = target_factors
    return table[: epoch + 1]


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


@dataclass(frozen=True)
class PrefetchDecision:
    """Videos chosen for redundant fetching, in draw order."""

    chosen: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.chosen)

    def __iter__(self):
        return iter(self.chosen)


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


def em_sample(
    candidates: CandidateSet,
    utilities: np.ndarray,
    eps_step: float,
    sensitivity: float,
    prefetch_cap: int,
    rng,
) -> PrefetchDecision:
    """Draw up to ``prefetch_cap`` distinct candidates, utility-weighted.

    Each sequential draw is an exponential mechanism over the remaining pool;
    the accounted cost of the step is draws * eps_step under composition. An
    empty candidate set yields an empty decision.

    Draw for draw, this is ``rng.choice(len(pool), p=em_weights(...))`` over
    the remaining pool, bit for bit and with the same random stream:
    ``choice`` searches the normalized cumulative sum of ``p`` for one
    ``rng.random()`` (``side="right"``), and ``rng.random(k)`` yields k such
    values at once. A score minus the pool maximum does not depend on the
    rest of the pool, so one ``np.exp`` call weighs the pool against each
    maximum it can reach, and each draw reads its survivors' weights from
    the row of the current maximum.
    """
    pool = list(candidates)
    lam = np.asarray(utilities, dtype=np.float64)
    if lam.shape[0] != len(pool):
        raise ValueError("need one utility per candidate")
    draws = min(len(pool), prefetch_cap)
    if draws <= 0:
        return PrefetchDecision(chosen=())
    if sensitivity < 0:
        raise ValueError("sensitivity must be non-negative")
    chosen: list[int] = []
    if sensitivity == 0.0 or eps_step == 0.0:
        # No usable signal: the uniform draw is the privacy-safe limit.
        for u in rng.random(draws).tolist():
            chosen.append(pool.pop(bisect.bisect_right(_uniform_cdf(len(pool)), u)))
        return PrefetchDecision(chosen=tuple(chosen))
    scores = eps_step * lam / (2.0 * sensitivity)
    # NaN sorts last, so it leads the descending order.
    ranked = np.sort(scores)[::-1][:draws]
    if not (ranked[0] < math.inf and ranked[-1] > -math.inf):
        # A NaN or +inf score, or a pool left with only -inf scores before
        # the last draw, makes NaN probabilities.
        raise ValueError("exponential-mechanism scores must be finite for every draw")
    # Every pool maximum is one of the top ``draws`` scores: one weight row
    # per candidate maximum, from np.exp (math.exp's last bit differs on
    # some inputs). Drawn entries may lie above a later maximum; capping
    # them at 0 keeps their unread weights from overflowing.
    rows = np.exp(np.minimum(scores - ranked[:, None], 0.0))
    tops = ranked.tolist()
    listed = scores.tolist()
    left = list(range(len(pool)))  # undrawn pool positions, in pool order
    for u in rng.random(draws).tolist():
        # The survivors' weights, normalised and searched with the same
        # numpy reductions as em_weights and rng.choice.
        w = rows[tops.index(max(listed[i] for i in left)), left]
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        chosen.append(pool[left.pop(int(cdf.searchsorted(u, side="right")))])
    return PrefetchDecision(chosen=tuple(chosen))


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
