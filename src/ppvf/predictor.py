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

from . import DataError

PARAM_FLOOR = 1e-8


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

    def clamped(self) -> "ModelParams":
        """Project all entries onto [PARAM_FLOOR, inf); keeps log-intensities finite."""
        return replace(
            self,
            base_rate=np.maximum(self.base_rate, PARAM_FLOOR),
            target_factors=np.maximum(self.target_factors, PARAM_FLOOR),
            source_factors=np.maximum(self.source_factors, PARAM_FLOOR),
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
    def empty(cls, catalog_size: int, dim: int) -> "KernelState":
        # Starting before any representable instant lets the first advance
        # go to any stamp, t = 0 included.
        return cls(np.zeros(catalog_size), np.zeros(dim), -math.inf)

    def rebuild_mix(self, params: ModelParams) -> None:
        self.source_mix = params.source_factors.T @ self.decayed_counts


def advance_state(params: ModelParams, state: KernelState, to_time: float, videos=()) -> KernelState:
    """The state decayed to ``to_time``, then one request of each of ``videos``
    added at ``to_time`` (zero lag, kernel weight 1), as a new state."""
    if to_time < state.last_update:
        raise ValueError("cannot advance state backwards in time")
    fade = math.exp(-params.decay * (to_time - state.last_update))
    counts = state.decayed_counts * fade
    mix = state.source_mix * fade
    if len(videos):
        vids = np.asarray(videos, dtype=np.int64)
        ones = np.ones(len(vids))
        np.add.at(counts, vids, ones)
        mix += params.source_factors[vids].T @ ones
    return KernelState(counts, mix, to_time)


def intensity_sweep(params: ModelParams, state: KernelState) -> np.ndarray:
    """Request rates of every video at the state's time; O(I*D)."""
    return params.base_rate + params.target_factors @ state.source_mix


@dataclass(frozen=True)
class TrainWindow:
    """Half-open likelihood window [end - length, end)."""

    end: float
    length: float

    @property
    def start(self) -> float:
        return self.end - self.length

    @classmethod
    def from_truncation(cls, end: float, truncation: float, decay: float) -> "TrainWindow":
        """Window whose far edge is where the kernel falls to ``truncation``."""
        return cls(end=end, length=-math.log(truncation) / decay)


class WindowStats:
    """Parameter-independent kernel statistics of one (log, window) pair.

    The window is the one place a fit cuts a log: requests before
    ``window.start`` are history, those in ``[start, end)`` are the
    likelihood's events, and those at or after ``window.end`` are ignored,
    so a whole edge log serves every barrier. Everything here depends only
    on the event times and the decay, so one precomputation serves every
    likelihood/gradient evaluation of a fitting loop. ``counts_at`` holds,
    for each distinct in-window event time, the left-limit decayed counts
    vector (history strictly before that instant: simultaneous requests do
    not excite each other).
    """

    def __init__(self, log, catalog_size: int, decay: float, window: TrainWindow):
        times, vids = log.timestamps, log.video_ids
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
        np.add.at(integral_w, pre_v, (np.exp(-decay * (start - pre_t)) - np.exp(-decay * (end - pre_t))) / decay)
        np.add.at(integral_w, in_v, (1.0 - np.exp(-decay * (end - in_t))) / decay)

        self.event_videos = in_v
        self.event_group = inverse
        self.counts_at = counts_at
        self.integral_weights = integral_w
        self._last_terms: tuple[ModelParams, tuple] | None = None

    def _event_terms(self, params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per in-window event: latent mix, target factor row, and intensity, which
        must be positive (else :class:`~ppvf.DataError`); then the (D,) source
        projection of the window integral weights.

        The terms of the last ``params`` object are kept (parameters are
        immutable), so gradients taken right after the likelihood at the
        same point reuse its intensities and projection.
        """
        if self._last_terms is not None and self._last_terms[0] is params:
            return self._last_terms[1]
        mix_ev = (self.counts_at @ params.source_factors)[self.event_group]  # (n, D)
        tgt_ev = params.target_factors[self.event_videos]
        lam = params.base_rate[self.event_videos] + np.einsum("nd,nd->n", tgt_ev, mix_ev)
        if (lam <= 0).any():
            raise DataError("non-positive intensity at an event; parameters or state corrupted")
        source_total = params.source_factors.T @ self.integral_weights
        terms = (mix_ev, tgt_ev, lam, source_total)
        self._last_terms = (params, terms)
        return terms


def window_stats(params: ModelParams, log, window: TrainWindow) -> WindowStats:
    """Precompute reusable kernel statistics for a per-edge log."""
    return WindowStats(log, params.catalog_size, params.decay, window)


def window_log_likelihood(params: ModelParams, stats: WindowStats) -> float:
    """Log-likelihood of the in-window events given the full history.

    Sum over window events of log rate, minus the integral of the total rate
    over ``stats.window`` (closed form via the exponential kernel).
    """
    _, _, lam, source_total = stats._event_terms(params)
    event_term = math.fsum(np.log(lam).tolist())
    integral = stats.window.length * params.base_total + float(params.target_sums @ source_total)
    return event_term - integral


@dataclass
class GradientBundle:
    """Analytic gradients of the window log-likelihood. The blocks may view
    one flat row of :meth:`row_size` floats, in field order, each row-major."""

    base_rate: np.ndarray
    target_factors: np.ndarray
    source_factors: np.ndarray

    @staticmethod
    def row_size(catalog_size: int, dim: int) -> int:
        return catalog_size * (1 + 2 * dim)

    @classmethod
    def of_row(cls, row: np.ndarray, catalog_size: int, dim: int) -> "GradientBundle":
        """The three blocks as views of ``row``."""
        I, D = catalog_size, dim
        return cls(row[:I], row[I : I * (1 + D)].reshape(I, D), row[I * (1 + D) :].reshape(I, D))

    def is_finite(self) -> bool:
        return bool(
            np.all(np.isfinite(self.base_rate))
            and np.all(np.isfinite(self.target_factors))
            and np.all(np.isfinite(self.source_factors))
        )


def window_gradients(params: ModelParams, stats: WindowStats, out: np.ndarray | None = None) -> GradientBundle:
    """Gradients of :func:`window_log_likelihood` in the same parameterization.

    Event terms accumulate 1/rate weights; integral terms reuse the
    closed-form per-source weights, shared across all target rows. A window
    without events gives empty event terms, so only the integral terms
    remain. The blocks are written into ``out``, a flat row of
    :meth:`GradientBundle.row_size` floats, else into a new row.
    """
    I, D = params.catalog_size, params.dim
    mix_ev, tgt_ev, lam, source_total = stats._event_terms(params)
    g = GradientBundle.of_row(np.empty(GradientBundle.row_size(I, D)) if out is None else out, I, D)
    g.base_rate.fill(-stats.window.length)
    g.target_factors.fill(0.0)
    inv = 1.0 / lam
    np.add.at(g.base_rate, stats.event_videos, inv)
    np.add.at(g.target_factors, stats.event_videos, mix_ev * inv[:, None])
    weights = np.zeros((stats.counts_at.shape[0], D))
    np.add.at(weights, stats.event_group, tgt_ev * inv[:, None])
    np.matmul(stats.counts_at.T, weights, out=g.source_factors)  # non-negative: 0.0 + it is itself

    g.target_factors -= source_total
    g.source_factors -= stats.integral_weights[:, None] * params.target_sums
    return g
