"""Per-video utility via a mutual-exciting point process with exponential kernel.

The request rate of video ``i`` at time ``t`` is

    rate_i(t) = base_rate[i] + target_factors[i] . mix(t)
    mix(t)    = sum_j source_factors[j] * decayed_counts[j](t)
    decayed_counts[j](t) = sum over past requests of j of exp(-decay * lag)

so a full sweep costs O(I*D) and a single video O(D) once the latent mix is
cached. The pairwise influence ``target_factors[i] . source_factors[j]`` is
never materialized as an I x I matrix. Model fitting maximizes the
log-likelihood restricted to a recent window while keeping the full history
inside each intensity evaluation; the window integral has a closed form, so
quadrature appears only in test oracles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

PARAM_FLOOR = 1e-8


class LikelihoodError(ValueError):
    """Raised when an event intensity is non-positive (corrupted state)."""


@dataclass(frozen=True)
class ModelParams:
    """Positive parameters of the excitation model.

    base_rate: (I,) spontaneous request rates.
    target_factors: (I, D) how strongly each video responds to excitation.
    source_factors: (I, D) how strongly each video's requests excite others.
    decay: kernel decay per hour, exp(-decay * lag).

    Parameters are immutable, so the reductions every edge's likelihood and
    gradients need at one point (:attr:`base_total`, :attr:`target_sums`)
    are computed once, on first use, and kept with the object.
    """

    base_rate: np.ndarray
    target_factors: np.ndarray
    source_factors: np.ndarray
    decay: float

    def __post_init__(self):
        base = np.asarray(self.base_rate, dtype=np.float64)
        tgt = np.asarray(self.target_factors, dtype=np.float64)
        src = np.asarray(self.source_factors, dtype=np.float64)
        object.__setattr__(self, "base_rate", base)
        object.__setattr__(self, "target_factors", tgt)
        object.__setattr__(self, "source_factors", src)
        if base.ndim != 1 or tgt.ndim != 2 or src.ndim != 2:
            raise ValueError("base_rate must be 1-D; factor matrices 2-D")
        if tgt.shape != src.shape or tgt.shape[0] != base.shape[0]:
            raise ValueError("parameter shapes disagree")
        if tgt.shape[1] < 1:
            raise ValueError("latent dimension must be >= 1")
        if not 0 < self.decay < math.inf:
            raise ValueError("decay must be positive and finite")
        # A NaN entry makes min NaN, so min and max decide both properties.
        if not all(a.min(initial=0.0) >= 0 and a.max(initial=0.0) < math.inf for a in (base, tgt, src)):
            raise ValueError("parameters must be finite and non-negative")

    @property
    def catalog_size(self) -> int:
        return self.base_rate.shape[0]

    @cached_property
    def base_total(self) -> float:
        """``float(np.sum(base_rate))``."""
        return float(np.sum(self.base_rate))

    @cached_property
    def target_sums(self) -> np.ndarray:
        """``target_factors.sum(axis=0)``, the (D,) column sums."""
        return self.target_factors.sum(axis=0)

    @property
    def dim(self) -> int:
        return self.target_factors.shape[1]

    @classmethod
    def constant(cls, catalog_size: int, dim: int, value: float = 1.0, decay: float = 0.01) -> "ModelParams":
        """All-ones style initialization used before any fitting."""
        return cls(
            base_rate=np.full(catalog_size, value),
            target_factors=np.full((catalog_size, dim), value),
            source_factors=np.full((catalog_size, dim), value),
            decay=decay,
        )

    def clamped(self, floor: float = PARAM_FLOOR) -> "ModelParams":
        """Project all entries onto [floor, inf); keeps log-intensities finite."""
        return replace(
            self,
            base_rate=np.maximum(self.base_rate, floor),
            target_factors=np.maximum(self.target_factors, floor),
            source_factors=np.maximum(self.source_factors, floor),
        )

    def to_json_dict(self) -> dict:
        return {
            "beta": self.base_rate.tolist(),
            "p": self.target_factors.tolist(),
            "q": self.source_factors.tolist(),
            "delta": self.decay,
            "D": self.dim,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ModelParams":
        params = cls(
            base_rate=np.array(doc["beta"], dtype=np.float64),
            target_factors=np.array(doc["p"], dtype=np.float64),
            source_factors=np.array(doc["q"], dtype=np.float64),
            decay=float(doc["delta"]),
        )
        if "D" in doc and int(doc["D"]) != params.dim:
            raise ValueError("declared latent dimension disagrees with factor shape")
        return params

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path) -> "ModelParams":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass
class KernelState:
    """Incrementally maintained kernel sums for one edge.

    ``decayed_counts[j]`` is the kernel-weighted count of video ``j``'s past
    requests; ``source_mix`` caches its projection through the source factors
    so per-video intensity queries cost O(D). The mix must be rebuilt whenever
    the source factors change (after a federated update).
    """

    decayed_counts: np.ndarray
    source_mix: np.ndarray
    last_update: float

    @classmethod
    def empty(cls, catalog_size: int, dim: int, at_time: float = -math.inf) -> "KernelState":
        # Starting before any representable instant lets events at t = 0 fold
        # in through the strict (last_update, to_time] contract.
        return cls(np.zeros(catalog_size), np.zeros(dim), at_time)

    def rebuild_mix(self, params: ModelParams) -> None:
        self.source_mix = params.source_factors.T @ self.decayed_counts


def advance_state(
    params: ModelParams,
    state: KernelState,
    to_time: float,
    event_times=(),
    event_videos=(),
) -> KernelState:
    """The state decayed to ``to_time`` with new events folded in, as a new state.

    Events must be sorted, lie in ``(last_update, to_time]``, and an event at
    exactly ``to_time`` contributes kernel weight 1 (zero lag).
    """
    if to_time < state.last_update:
        raise ValueError("cannot advance state backwards in time")
    times = np.asarray(event_times, dtype=np.float64)
    vids = np.asarray(event_videos, dtype=np.int64)
    if times.shape != vids.shape:
        raise ValueError("event_times and event_videos must have equal length")
    if len(times):
        if (times[1:] < times[:-1]).any():
            raise ValueError("new events must be sorted by time")
        if times[0] <= state.last_update or times[-1] > to_time:
            raise ValueError("new events must lie in (last_update, to_time]")
    fade = math.exp(-params.decay * (to_time - state.last_update))
    counts = state.decayed_counts * fade
    mix = state.source_mix * fade
    if len(times):
        weights = np.exp(-params.decay * (to_time - times))
        np.add.at(counts, vids, weights)
        mix += params.source_factors[vids].T @ weights
    return KernelState(counts, mix, to_time)


def intensity_sweep(params: ModelParams, state: KernelState) -> np.ndarray:
    """Request rates of every video at the state's time; O(I*D)."""
    return params.base_rate + params.target_factors @ state.source_mix


@dataclass(frozen=True)
class TrainWindow:
    """Half-open likelihood window [end - length, end)."""

    end: float
    length: float

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("window length must be positive")

    @property
    def start(self) -> float:
        return self.end - self.length

    @classmethod
    def from_truncation(cls, end: float, truncation: float, decay: float) -> "TrainWindow":
        """Window whose far edge is where the kernel falls to ``truncation``."""
        if not 0 < truncation < 1:
            raise ValueError("truncation must lie in (0, 1)")
        return cls(end=end, length=-math.log(truncation) / decay)


class WindowStats:
    """Parameter-independent kernel statistics of one (log, window) pair.

    Everything here depends only on the event times and the decay, so one
    precomputation serves every likelihood/gradient evaluation of a fitting
    loop. ``counts_at`` holds, for each distinct in-window event time, the
    left-limit decayed counts vector (history strictly before that instant:
    simultaneous requests do not excite each other).
    """

    def __init__(self, event_times, event_videos, catalog_size: int, decay: float, window: TrainWindow):
        times = np.asarray(event_times, dtype=np.float64)
        vids = np.asarray(event_videos, dtype=np.int64)
        if len(times):
            if np.any(np.diff(times) < 0):
                raise ValueError("events must be sorted by time")
            if times[0] < 0 or times[-1] >= window.end:
                raise ValueError("log must cover [0, window.end) only")
        self.catalog_size = catalog_size
        self.decay = decay
        self.window = window

        start, end = window.start, window.end
        pre = times < start
        ins = (times >= start) & (times < end)
        pre_t, pre_v = times[pre], vids[pre]
        in_t, in_v = times[ins], vids[ins]

        counts0 = np.zeros(catalog_size)
        np.add.at(counts0, pre_v, np.exp(-decay * (start - pre_t)))

        uniq, inverse = np.unique(in_t, return_inverse=True)
        counts_at = np.empty((len(uniq), catalog_size))
        running = counts0
        prev = start
        for k, t in enumerate(uniq):
            running = running * math.exp(-decay * (t - prev))
            counts_at[k] = running
            group = in_v[inverse == k]
            np.add.at(running, group, 1.0)  # zero-lag kernel weight
            prev = t

        # Closed-form window integral weights per source video: events before
        # the window contribute over [start - tau, end - tau], in-window
        # events over [0, end - tau].
        integral_w = np.zeros(catalog_size)
        if len(pre_t):
            vals = (np.exp(-decay * (start - pre_t)) - np.exp(-decay * (end - pre_t))) / decay
            np.add.at(integral_w, pre_v, vals)
        if len(in_t):
            vals = (1.0 - np.exp(-decay * (end - in_t))) / decay
            np.add.at(integral_w, in_v, vals)

        self.event_videos = in_v
        self.event_group = inverse
        self.counts_at = counts_at
        self.integral_weights = integral_w
        self.n_events = len(in_t)
        self._last_terms: tuple[ModelParams, tuple] | None = None

    def _event_terms(self, params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per in-window event: latent mix, target factor row, and intensity;
        then the (D,) source projection of the window integral weights.

        The terms of the last ``params`` object are kept (parameters are
        immutable), so gradients taken right after the likelihood at the
        same point reuse its intensities and projection.
        """
        if self._last_terms is not None and self._last_terms[0] is params:
            return self._last_terms[1]
        mix_ev = (self.counts_at @ params.source_factors)[self.event_group]  # (n, D)
        tgt_ev = params.target_factors[self.event_videos]
        lam = params.base_rate[self.event_videos] + np.einsum("nd,nd->n", tgt_ev, mix_ev)
        source_total = params.source_factors.T @ self.integral_weights
        terms = (mix_ev, tgt_ev, lam, source_total)
        self._last_terms = (params, terms)
        return terms


def window_stats(params: ModelParams, log, window: TrainWindow) -> WindowStats:
    """Precompute reusable kernel statistics for a per-edge log."""
    return WindowStats(log.timestamps, log.video_ids, params.catalog_size, params.decay, window)


def window_log_likelihood(params: ModelParams, stats: WindowStats) -> float:
    """Log-likelihood of the in-window events given the full history.

    Sum over window events of log rate, minus the integral of the total rate
    over ``stats.window`` (closed form via the exponential kernel).
    """
    _, _, lam, source_total = stats._event_terms(params)
    if (lam <= 0).any():
        raise LikelihoodError("non-positive intensity at an event; parameters or state corrupted")
    event_term = math.fsum(np.log(lam).tolist())
    integral = stats.window.length * params.base_total + float(params.target_sums @ source_total)
    return event_term - integral


@dataclass
class GradientBundle:
    """Analytic gradients of the window log-likelihood."""

    base_rate: np.ndarray
    target_factors: np.ndarray
    source_factors: np.ndarray

    def is_finite(self) -> bool:
        return bool(
            np.all(np.isfinite(self.base_rate))
            and np.all(np.isfinite(self.target_factors))
            and np.all(np.isfinite(self.source_factors))
        )


def window_gradients(params: ModelParams, stats: WindowStats) -> GradientBundle:
    """Gradients of :func:`window_log_likelihood` in the same parameterization.

    Event terms accumulate 1/rate weights; integral terms reuse the
    closed-form per-source weights, shared across all target rows.
    """
    I, D = params.catalog_size, params.dim
    mix_ev, tgt_ev, lam, source_total = stats._event_terms(params)
    g_base = np.full(I, -stats.window.length)
    g_tgt = np.zeros((I, D))

    if stats.n_events:
        if (lam <= 0).any():
            raise LikelihoodError("non-positive intensity at an event; parameters or state corrupted")
        inv = 1.0 / lam
        np.add.at(g_base, stats.event_videos, inv)
        np.add.at(g_tgt, stats.event_videos, mix_ev * inv[:, None])
        weights = np.zeros((stats.counts_at.shape[0], D))
        np.add.at(weights, stats.event_group, tgt_ev * inv[:, None])
        g_src = stats.counts_at.T @ weights  # non-negative: 0.0 + it is itself
    else:
        g_src = np.zeros((I, D))

    g_tgt -= source_total
    g_src -= stats.integral_weights[:, None] * params.target_sums
    return GradientBundle(g_base, g_tgt, g_src)
