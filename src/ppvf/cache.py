"""Edge caches and baseline policies.

The primary cache ranks residents by the stamp's utility sweep: a video
displaces the lowest-utility resident only if its utility is strictly
higher, with ties kept by the incumbent. LRU and LFU are eviction-only
baselines that fetch nothing but the viewed video. SAGE and BESTFIT replace
the threshold-based candidate selection (random feasible picks, respectively
top-utility feasible picks) and share the downstream exponential-mechanism
path; MAV replaces the utility predictor with a per-slot moving average.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .scheduler import CandidateSet, PrivacyLedger, admit_in_order, admit_picked


class EdgeCache:
    """Fixed-capacity video cache for one edge, ranked by the utility sweep
    that :meth:`refresh_scores` installs. The cache keeps that array, not a
    copy, so nothing may write into an installed sweep.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.residents: set[int] = set()
        self.utilities: np.ndarray | None = None
        # The weakest resident as (utility, video); None once it may have changed.
        self._weakest: tuple[float, int] | None = None

    def lookup(self, video: int) -> bool:
        """Pure membership test; access bookkeeping happens elsewhere."""
        return video in self.residents

    def refresh_scores(self, utilities: np.ndarray) -> None:
        """Rank residents by ``utilities``, the latest sweep, from now on."""
        self.utilities = utilities
        self._weakest = None

    def admit(self, videos) -> list[int]:
        """Admit videos, evicting the weakest resident when full.

        A video enters if there is room or its utility strictly exceeds the
        weakest resident's (the smallest id among equals); ties favor the
        incumbent. Returns the evicted videos.
        """
        evicted: list[int] = []
        residents, utilities = self.residents, self.utilities
        for video in videos:
            if video in residents:
                continue
            if len(residents) == self.capacity:
                if self._weakest is None:
                    order = list(residents)
                    self._weakest = min(zip(utilities[order].tolist(), order))
                weakest_utility, weakest = self._weakest
                if utilities[video] <= weakest_utility:
                    continue
                residents.remove(weakest)
                evicted.append(weakest)
            residents.add(video)
            self._weakest = None
        return evicted


class LruCache:
    """Classic least-recently-used cache; always admits on miss.

    Residents are kept in recency order, least recent first.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.residents: OrderedDict[int, None] = OrderedDict()

    def access(self, video: int) -> tuple[bool, list[int]]:
        """Serve one request; returns (hit, evicted)."""
        if video in self.residents:
            self.residents.move_to_end(video)
            return True, []
        evicted = []
        if len(self.residents) >= self.capacity:
            victim, _ = self.residents.popitem(last=False)
            evicted.append(victim)
        self.residents[video] = None
        return False, evicted


class LfuCache:
    """Frequency-gated cache: a miss enters only if its lifetime request
    count reaches the weakest resident's; ties evict the least recently
    accessed resident, so all-distinct traffic degenerates to insertion-order
    eviction."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.clock = 0
        self.counts: dict[int, int] = {}  # lifetime request counts, all videos
        self.resident_access: dict[int, int] = {}

    def access(self, video: int) -> tuple[bool, list[int]]:
        self.clock += 1
        self.counts[video] = self.counts.get(video, 0) + 1
        if video in self.resident_access:
            self.resident_access[video] = self.clock
            return True, []
        if len(self.resident_access) < self.capacity:
            self.resident_access[video] = self.clock
            return False, []
        victim = min(
            self.resident_access,
            key=lambda v: (self.counts[v], self.resident_access[v]),
        )
        evicted = []
        if self.counts[video] >= self.counts[victim]:
            del self.resident_access[victim]
            evicted.append(victim)
            self.resident_access[video] = self.clock
        return False, evicted


MAV_SMOOTHING = 0.9


class MavState:
    """Per-video exponentially weighted moving average of per-slot requests.

    Folding happens at slot boundaries: each completed slot contributes its
    request count with weight (1 - MAV_SMOOTHING); older slots decay by
    MAV_SMOOTHING.
    """

    def __init__(self, catalog_size: int, slot_hours: float = 1.0):
        self.slot_hours = slot_hours
        self.values = np.zeros(catalog_size)
        self.pending = np.zeros(catalog_size)
        self.current_slot = 0

    def _slot_of(self, time: float) -> int:
        return int(np.floor(time / self.slot_hours + 1e-9))

    def fold_until(self, time: float) -> None:
        """Complete every slot strictly before ``time``'s slot."""
        slot = self._slot_of(time)
        if slot <= self.current_slot:
            return
        self.values = MAV_SMOOTHING * self.values + (1 - MAV_SMOOTHING) * self.pending
        self.pending[:] = 0.0
        gap = slot - self.current_slot - 1
        if gap:
            self.values *= MAV_SMOOTHING**gap
        self.current_slot = slot

    def record(self, videos, time: float) -> None:
        """Count one request of each of ``videos`` (repeats count again) at ``time``."""
        self.fold_until(time)
        np.add.at(self.pending, videos, 1.0)

    def scores(self, time: float) -> np.ndarray:
        """Averages over completed slots as of ``time``: ``values`` itself, which
        no later fold writes into, as each binds a new array before scaling it."""
        self.fold_until(time)
        return self.values


def select_candidates_random(ledger: PrivacyLedger, rng) -> tuple[CandidateSet, PrivacyLedger]:
    """Random budget-feasible candidate picks (no utility filter), charging
    the ledger per admission until the cap or the feasible pool runs out.

    Feasibility is tested beyond the permutation's head only when
    :func:`admit_in_order` reads further."""
    return admit_in_order(rng.permutation(ledger.catalog_size), ledger.chargeable, ledger)


def select_candidates_best_utility(
    utilities: np.ndarray, ledger: PrivacyLedger
) -> tuple[CandidateSet, PrivacyLedger]:
    """Top-utility budget-feasible candidate picks, charging per admission.

    The picks are the first ``prefetch_cap`` chargeable videos of the stable
    descending-utility order (ties by ascending video id); the utilities are
    finite, as the replay checks each sweep. ``np.partition`` finds the
    cap-th largest chargeable utility, and only the chargeable videos at or
    above it are stably sorted.
    """
    chargeable = ledger.chargeable()
    feasible = np.flatnonzero(chargeable)
    neg = -np.asarray(utilities, dtype=np.float64)[chargeable]
    cap = ledger.prefetch_cap
    if 0 < cap < len(neg):
        top = neg.copy()
        top.partition(cap - 1)
        keep = neg <= top[cap - 1]
        feasible, neg = feasible[keep], neg[keep]
    return admit_picked(feasible[neg.argsort(kind="stable")[:cap]], ledger)


@dataclass
class BaselineStep:
    hit: bool
    fetched: tuple[int, ...]
    evicted: tuple[int, ...]


def baseline_step(cache: LruCache | LfuCache, video: int) -> BaselineStep:
    """One eviction-only baseline access (LRU or LFU): fetch only on miss."""
    hit, evicted = cache.access(video)
    fetched = () if hit else (video,)
    return BaselineStep(hit=hit, fetched=fetched, evicted=tuple(evicted))
