"""Request traces: loading real-format logs, synthetic generation, edge partitioning.

A trace is an ordered sequence of viewing requests ``(edge, user, video, t)``
with timestamps in hours. Synthetic traces are drawn from a multivariate
mutual-exciting process with exponential kernel by Ogata thinning, so tests
can recover known ground-truth parameters without an external dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import DataError
from .predictor import ModelParams


_INT64 = np.iinfo(np.int64)
# The largest ids load_trace accepts. A run allocates catalog-sized state
# for every edge id up to the largest one and for every fitting epoch, so an
# id is an index into that state, not a label: remap sparse or hashed ids to
# 0, 1, ... first. At latent_dim 10 the fit holds about 540 bytes per video for
# each edge, 8 per in-window stamp (an hourly window holds up to 48) and its
# gradient row's 8 * (1 + 2 * latent_dim), and each epoch keeps its parameters
# in 8 * (1 + 2 * latent_dim). 1024 edges then take about 270 MiB of fit state
# at a 500-video catalog; 2**18 videos, 140 MiB per edge and 42 MiB per epoch.
MAX_EDGE_ID = 2**10 - 1
MAX_VIDEO_ID = 2**18 - 1
# The most events generate_synthetic may expect to draw. Thinning holds each
# event in Python lists until the log's arrays are built, about 120 bytes per
# event at the peak, so 10**7 events take about 1.2 GB before any is written.
MAX_EXPECTED_EVENTS = 10**7


@dataclass(frozen=True)
class EventLog:
    """Time-sorted viewing requests over a fixed catalog and edge set.

    Events are stored as parallel arrays (int64 ids, float64 stamps) for fast
    scanning. All timestamps lie in ``[0, horizon)`` and ties preserve input
    order (stable sort), so replays are deterministic.
    """

    edge_ids: np.ndarray
    user_ids: np.ndarray
    video_ids: np.ndarray
    timestamps: np.ndarray
    catalog_size: int
    edge_count: int
    horizon: float

    def __post_init__(self):
        n = len(self.timestamps)
        if not (len(self.edge_ids) == len(self.user_ids) == len(self.video_ids) == n):
            raise ValueError("parallel event arrays must have equal length")
        if n:
            if np.any(np.diff(self.timestamps) < 0):
                raise ValueError("events must be sorted by timestamp")
            if self.timestamps[0] < 0 or self.timestamps[-1] >= self.horizon:
                raise ValueError("timestamps must lie in [0, horizon)")
            if self.video_ids.min() < 0 or int(self.video_ids.max()) >= self.catalog_size:
                raise ValueError("video id outside catalog")
            if self.edge_ids.min() < 0 or int(self.edge_ids.max()) >= self.edge_count:
                raise ValueError("edge id outside edge set")

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class SyntheticSpec:
    """Ground-truth configuration for synthetic trace generation.

    ``users_per_edge`` controls how many synthetic user identities each edge
    draws events for; user ids are globally unique (edge * users_per_edge + k),
    so every id fits in int64 only while edge_count * users_per_edge <= 2**63.
    """

    catalog_size: int
    edge_count: int
    horizon: float
    ground_truth: ModelParams
    rng_seed: int = 0
    users_per_edge: int = 8

    def __post_init__(self):
        if self.catalog_size < 1 or self.edge_count < 1:
            raise ValueError("catalog_size and edge_count must be >= 1")
        if not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        if self.users_per_edge < 1:
            raise ValueError("users_per_edge must be >= 1")
        if self.edge_count * self.users_per_edge > 2**63:
            raise ValueError("edge_count * users_per_edge must be at most 2**63, so user ids fit in int64")
        if self.ground_truth.catalog_size != self.catalog_size:
            raise ValueError("ground_truth catalog size mismatch")


def slot_index(t, slot_hours: float):
    """``floor(t / slot_hours)`` of stamp(s) ``t``, as float64; a tiny bias floors a quantized
    stamp's quotient, 2.9999999 say, to its own slot, which keeps quantizing idempotent."""
    return np.floor(t / slot_hours + 1e-9)


def load_trace(path, quantize_hours: float = 1.0) -> EventLog:
    """Parse a line-delimited ``edge_id,user_id,video_id,timestamp`` file.

    Timestamps are floored to multiples of ``quantize_hours``. Lines starting
    with ``#`` and blank lines are skipped. Duplicate records are preserved:
    request multiplicity carries signal for frequency-based policies and for
    the likelihood. The catalog is ``1 + max(video_id)``.
    """
    if not 0 < quantize_hours < math.inf:
        raise ValueError("quantize_hours must be positive and finite")
    edges, users, vids, tss, line_nos = [], [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                if len(parts) != 4:
                    raise DataError(f"line {line_no}: expected 4 comma-separated fields, got {len(parts)}")
                try:
                    e, u, v = int(parts[0]), int(parts[1]), int(parts[2])
                    t = float(parts[3])
                except ValueError as exc:
                    raise DataError(f"line {line_no}: {exc}") from None
                if not 0 <= t < math.inf:
                    raise DataError(f"line {line_no}: timestamp must be finite and non-negative")
                if not 0 <= e <= MAX_EDGE_ID:
                    raise DataError(f"line {line_no}: edge id {e} outside 0..{MAX_EDGE_ID}")
                if not 0 <= v <= MAX_VIDEO_ID:
                    raise DataError(f"line {line_no}: video id {v} outside 0..{MAX_VIDEO_ID}")
                if not _INT64.min <= u <= _INT64.max:
                    raise DataError(f"line {line_no}: user id does not fit in a 64-bit integer")
                edges.append(e)
                users.append(u)
                vids.append(v)
                tss.append(t)
                line_nos.append(line_no)
        except UnicodeDecodeError:
            raise DataError("trace file is not valid UTF-8") from None
    if not edges:
        raise DataError("trace file contains no records")

    edge_arr, user_arr, vid_arr = (np.array(ids, dtype=np.int64) for ids in (edges, users, vids))
    ts = np.array(tss, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowing stamp is reported below
        ts = slot_index(ts, quantize_hours) * quantize_hours
    order = np.argsort(ts, kind="stable")

    # The horizon is one slot past the last stamp, so that stamp needs a
    # slot that ends at a larger finite time.
    last = int(ts.argmax())
    horizon = float(ts[last]) + quantize_hours
    if not ts[last] < horizon < math.inf:
        raise DataError(
            f"line {line_nos[last]}: timestamp {tss[last]!r} has no finite {quantize_hours} h slot after it"
        )
    return EventLog(
        edge_ids=edge_arr[order],
        user_ids=user_arr[order],
        video_ids=vid_arr[order],
        timestamps=ts[order],
        catalog_size=int(vid_arr.max()) + 1,
        edge_count=int(edge_arr.max()) + 1,
        horizon=horizon,
    )


def excitation_branching_ratio(params: ModelParams) -> float:
    """Spectral radius of the excitation matrix integrated over all lags.

    The pairwise influence is ``target_factors[i] . source_factors[j]`` with
    total kernel mass ``1/decay``; the process is stable (finite expected
    event count) iff this radius is < 1. Computed on the latent ``D x D``
    product so the full catalog-squared matrix is never materialized.
    """
    small = params.source_factors.T @ params.target_factors
    eigs = np.linalg.eigvals(small)
    return float(np.max(np.abs(eigs)) / params.decay)


def stationary_total_rate(params: ModelParams) -> float:
    """The stable process's stationary total rate, ``1^T (I - P Q^T / decay)^-1 base_rate``
    (P, Q the target and source factors), which no process started empty exceeds in
    expectation. Woodbury makes it one D x D solve: ``1^T base_rate + (1^T P) (decay I -
    Q^T P)^-1 (Q^T base_rate)`` (Laub, Taimre & Pollett 2015). Overflow reads as inf or nan."""
    tgt, src, base = params.target_factors, params.source_factors, params.base_rate
    with np.errstate(over="ignore", invalid="ignore"):
        excited = np.linalg.solve(params.decay * np.eye(params.dim) - src.T @ tgt, src.T @ base)
        return float(base.sum() + params.target_sums @ excited)


def generate_synthetic(spec: SyntheticSpec) -> EventLog:
    """Draw a trace by Ogata thinning from the mutual-exciting intensity.

    Each edge runs an independent process seeded from ``rng_seed`` via
    deterministic spawn keys, so identical specs produce bit-identical logs
    regardless of generation order. An explosive spec, or one expecting more
    than :data:`MAX_EXPECTED_EVENTS` events, raises ``ValueError``.
    """
    ratio = excitation_branching_ratio(spec.ground_truth)
    if ratio >= 1.0:
        raise ValueError(f"excitation branching ratio {ratio:.4f} >= 1; the process is explosive")
    expected = spec.edge_count * spec.horizon * stationary_total_rate(spec.ground_truth)
    if not expected <= MAX_EXPECTED_EVENTS:
        raise ValueError(f"the spec expects {expected:.4g} events, past the limit of {MAX_EXPECTED_EVENTS}")
    per_edge = [_thin_one_edge(spec, e, _edge_rng(spec, e)) for e in range(spec.edge_count)]
    edges = np.concatenate([p[0] for p in per_edge])
    users = np.concatenate([p[1] for p in per_edge])
    vids = np.concatenate([p[2] for p in per_edge])
    tss = np.concatenate([p[3] for p in per_edge])
    order = np.argsort(tss, kind="stable")
    return EventLog(
        edge_ids=edges[order],
        user_ids=users[order],
        video_ids=vids[order],
        timestamps=tss[order],
        catalog_size=spec.catalog_size,
        edge_count=spec.edge_count,
        horizon=spec.horizon,
    )


def _edge_rng(spec: SyntheticSpec, edge: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(spec.rng_seed, spawn_key=(edge,)))


def _thin_one_edge(spec: SyntheticSpec, edge: int, rng: np.random.Generator):
    gt = spec.ground_truth
    base, tgt, src, decay = gt.base_rate, gt.target_factors, gt.source_factors, gt.decay
    base_total, tgt_totals = base.sum(), tgt.sum(axis=0)

    times: list[float] = []
    vids: list[int] = []
    # The latent projection of the decayed event counts decays by one factor
    # between events, so the total intensity right after an event
    # upper-bounds it until the next one (exponential kernel).
    mix = np.zeros(gt.dim)
    t = 0.0
    while True:
        bound = float(base_total + tgt_totals @ mix)
        if bound <= 0:
            break
        dt = rng.exponential(1.0 / bound)
        t += dt
        if t >= spec.horizon:
            break
        mix *= np.exp(-decay * dt)
        lam = base + tgt @ mix
        total = float(lam.sum())
        if rng.random() * bound > total:
            continue  # thinned out
        # The intensities are non-negative, so rng.choice(p=lam / total)
        # rejects p exactly when total is zero or not finite; otherwise it
        # draws one uniform and searches it in this normalised CDF.
        if not 0 < total < math.inf:
            raise ValueError(f"total intensity {total} cannot normalise a video distribution")
        cdf = (lam / total).cumsum()
        cdf /= cdf[-1]
        video = int(cdf.searchsorted(rng.random(), side="right"))
        times.append(t)
        vids.append(video)
        mix += src[video]

    n = len(times)
    users = edge * spec.users_per_edge + rng.integers(0, spec.users_per_edge, size=n)
    return (
        np.full(n, edge, dtype=np.int64),
        users.astype(np.int64),
        np.array(vids, dtype=np.int64),
        np.array(times, dtype=np.float64),
    )


def partition_by_edge(log: EventLog) -> list[EventLog]:
    """Split a log into per-edge logs, each in log order; the union of parts equals the input.

    One stable sort by edge groups the events, and the parts are slices of
    the sorted columns, so the split costs O(events log events), not
    O(edges * events).
    """
    order = np.argsort(log.edge_ids, kind="stable")
    columns = [c[order] for c in (log.edge_ids, log.user_ids, log.video_ids, log.timestamps)]
    cuts = np.searchsorted(columns[0], np.arange(1, log.edge_count))
    parts = zip(*(np.split(c, cuts) for c in columns))
    return [EventLog(*part, log.catalog_size, log.edge_count, log.horizon) for part in parts]


def write_trace(log: EventLog, path) -> None:
    """Emit the flat CSV format accepted by :func:`load_trace`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# edge_id,user_id,video_id,timestamp\n")
        # tolist() turns the int64 and float64 columns into the same Python
        # ints and floats as per-element int()/float(), in one pass per column.
        columns = (log.edge_ids, log.user_ids, log.video_ids, log.timestamps)
        fh.writelines(f"{e},{u},{v},{t!r}\n" for e, u, v, t in zip(*(c.tolist() for c in columns)))
