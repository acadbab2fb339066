"""Correlated differential privacy for prefetch obfuscation.

Each cache miss contributes one utility sweep to a running Pearson state.
Between refits every sweep is affine in the edge's latent mix,
``utilities = base_rate + target_factors @ mix``, so the state keeps, per
parameter epoch, the epoch's parameters and the moments of the mix; any
pair's full-history cross sum follows from those in O(D^2), for every
catalog size. Sensitivity of a candidate video is the correlation-weighted
sum of how much deleting each co-candidate's history would move its
utility; with the exponential kernel that deletion difference has the
closed form ``influence(i,j) * decayed_counts[j]``, so no rebuild is
needed. Prefetch decisions sample candidates without replacement through an
exponential mechanism scaled by the worst candidate sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .predictor import KernelState, ModelParams
from .scheduler import CandidateSet

_VARIANCE_EPS = 1e-12


class CorrelationState:
    """Running sums behind the per-pair Pearson correlation of utilities.

    ``sums`` and ``sq_sums`` accumulate each video's utilities directly.
    Cross sums stay factored: epoch ``e`` holds its ``base_rate`` and
    ``target_factors`` by reference and ``moments[e]``, the sum of
    ``outer(z, z)`` over its sweeps with ``z = (1, mix)``. With
    ``phi_e(i) = (base_rate[i], target_factors[i])`` the full-history cross
    sum of videos ``i`` and ``j`` is ``sum_e phi_e(i) @ moments[e] @ phi_e(j)``,
    exact for every catalog size. A state fed sweeps without their mix
    holds one identity epoch (zero base, identity factors, mix = the sweep),
    whose ``cross`` is exactly the sum of ``outer(utilities, utilities)``;
    it is O(catalog^2), so the simulator always passes the mix.
    """

    # bench/tracing.py sizes the state as sums + sq_sums + cross when this is set.
    dense = True

    def __init__(self, catalog_size: int):
        self.catalog_size = catalog_size
        self.steps = 0
        self.sums = np.zeros(catalog_size)
        self.sq_sums = np.zeros(catalog_size)
        self.bases: list[np.ndarray] = []
        self.factors: list[np.ndarray] = []
        self.moments: list[np.ndarray] = []

    def start_epoch(self, base_rate: np.ndarray, target_factors: np.ndarray) -> None:
        """Fold later sweeps as ``base_rate + target_factors @ mix``."""
        self.bases.append(base_rate)
        self.factors.append(target_factors)
        self.moments.append(np.zeros((target_factors.shape[1] + 1,) * 2))

    @property
    def cross(self) -> np.ndarray:
        """The current epoch's sum of ``outer(mix, mix)``."""
        return self.moments[-1][1:, 1:]

    def update(self, utilities: np.ndarray, mix: np.ndarray | None = None) -> None:
        """Fold one utility sweep, and the mix it was computed from, into the state."""
        lam = np.asarray(utilities, dtype=np.float64)
        if lam.shape[0] != self.catalog_size:
            raise ValueError("utility vector length must match the catalog")
        if not np.all(np.isfinite(lam)):
            raise ValueError("utilities must be finite")
        if mix is None:
            if not self.bases:
                self.start_epoch(np.zeros(self.catalog_size), np.eye(self.catalog_size))
            mix = lam
        z = np.concatenate(([1.0], mix))
        self.moments[-1] += np.outer(z, z)
        self.steps += 1
        self.sums += lam
        self.sq_sums += lam * lam


def update_correlation(state: CorrelationState, utilities: np.ndarray, mix=None) -> CorrelationState:
    state.update(utilities, mix)
    return state


def correlation_block(state: CorrelationState, videos) -> np.ndarray:
    """Pearson correlations of the videos' full utility histories, in [-1, 1].

    Degenerate (near-constant) series read as uncorrelated; fewer than two
    incorporated steps is an error.
    """
    if state.steps < 2:
        raise ValueError("correlation undefined before two incorporated steps")
    c = np.asarray(videos, dtype=np.intp)
    bases = np.array([b[c] for b in state.bases])[..., None]
    feats = np.concatenate((bases, np.array([t.take(c, axis=0) for t in state.factors])), axis=2)
    # All epochs sum as one product over the flattened (epoch, feature) axis.
    shape = (len(c), feats.shape[0] * feats.shape[2])
    weighted = (feats @ np.array(state.moments)).transpose(1, 0, 2).reshape(shape)
    cross = weighted @ feats.transpose(1, 0, 2).reshape(shape).T
    n = state.steps
    s = state.sums[c]
    var = n * state.sq_sums[c] - s * s
    # An infinite spread zeroes every pair of a degenerate series.
    sd = np.sqrt(np.where(var > _VARIANCE_EPS, var, np.inf))
    value = (n * cross - np.outer(s, s)) / np.outer(sd, sd)
    return np.clip(value, -1.0, 1.0, out=value)


def correlation_degree(state: CorrelationState, i: int, j: int) -> float:
    """Pearson correlation of two videos' utility histories; see ``correlation_block``."""
    return float(correlation_block(state, (i, j))[0, 1])


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
    """
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
