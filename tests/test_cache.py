from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest

from oracles import admit_by_scan
from ppvf.cache import (
    EdgeCache,
    LfuCache,
    LruCache,
    MavState,
    baseline_step,
    select_candidates_best_utility,
    select_candidates_random,
)
from ppvf.scheduler import PrivacyLedger, admit_picked


@pytest.mark.parametrize("seed", range(12))
def test_admit_matches_scanning_oracle(seed):
    # Few distinct utilities (ties), few videos (re-admitted residents), and
    # new sweeps between admits, against a cache that scans for each eviction.
    rng = np.random.default_rng(seed)
    capacity = int(rng.integers(1, 9))
    cached, scores = EdgeCache(capacity), {}
    lam = rng.integers(0, 4, 12).astype(float)
    cached.refresh_scores(lam)
    evictions = 0
    for _ in range(80):
        if rng.random() < 0.2:
            lam = rng.integers(0, 4, 12).astype(float)
            cached.refresh_scores(lam)
            scores.update((v, float(lam[v])) for v in scores)
            continue
        videos = rng.integers(0, 12, int(rng.integers(1, 6))).tolist()
        evicted = cached.admit(videos)
        assert evicted == admit_by_scan(scores, capacity, [(v, lam[v]) for v in videos])
        assert cached.residents == set(scores)
        evictions += len(evicted)
    assert evictions


def cache_with(capacity, utilities, videos=()):
    """An ``EdgeCache`` ranking by ``utilities`` that has admitted ``videos``."""
    c = EdgeCache(capacity)
    c.refresh_scores(np.asarray(utilities, dtype=float))
    c.admit(videos)
    return c


class TestLookup:
    def test_empty_cache_misses(self):
        assert not EdgeCache(2).lookup(5)

    def test_admitted_video_hits(self):
        c = cache_with(2, np.arange(6.0), [5])
        assert c.lookup(5)

    def test_evicted_video_misses(self):
        c = cache_with(1, np.arange(7.0), [5])
        c.admit([6])
        assert not c.lookup(5)
        assert c.lookup(6)


class TestAdmit:
    def test_below_capacity_admits_everything(self):
        c = cache_with(3, [0.0, 0.5, 0.1])
        evicted = c.admit([1, 2])
        assert evicted == []
        assert c.residents == {1, 2}

    def test_full_cache_rejects_lower_score(self):
        c = cache_with(1, [0.0, 5.0, 4.0], [1])
        evicted = c.admit([2])
        assert evicted == []
        assert c.residents == {1}

    def test_replaces_minimum_scored_resident(self):
        c = cache_with(2, [0.0] * 10 + [1.0, 5.0, 3.0], [10, 11])
        evicted = c.admit([12])
        assert evicted == [10]
        assert c.residents == {11, 12}

    def test_tie_favors_incumbent(self):
        c = cache_with(1, [0.0, 2.0, 2.0], [1])
        evicted = c.admit([2])
        assert evicted == []
        assert c.residents == {1}

    def test_equal_residents_evict_the_smaller_id(self):
        c = cache_with(2, [0.0, 0.0, 1.0, 1.0, 3.0], [3, 2])
        assert c.admit([4]) == [2]
        assert c.residents == {3, 4}

    def test_refresh_scores_changes_victim(self):
        c = cache_with(2, [0.0, 10.0, 1.0, 0.0], [1, 2])
        sweep = np.array([0.0, 0.5, 9.0, 4.0])  # video 1 collapses, video 2 rises
        c.refresh_scores(sweep)
        evicted = c.admit([3])
        assert evicted == [1]
        assert c.residents == {2, 3}

    def test_capacity_never_exceeded(self):
        rng = np.random.default_rng(0)
        c = cache_with(4, rng.uniform(0, 10, 30))
        for _ in range(500):
            if rng.random() < 0.1:
                c.refresh_scores(rng.uniform(0, 10, 30))
            c.admit([int(rng.integers(0, 30))])
            assert len(c.residents) <= 4


class ReferenceLru:
    """Ordered-map reference implementation."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = OrderedDict()

    def access(self, key):
        if key in self.items:
            self.items.move_to_end(key)
            return True
        if len(self.items) >= self.capacity:
            self.items.popitem(last=False)
        self.items[key] = True
        return False


class TestLru:
    def test_capacity_one_thrash(self):
        c = LruCache(1)
        results = [c.access(v)[0] for v in ("a", "b", "a")]
        assert results == [False, False, False]

    def test_matches_reference_on_random_sequence(self):
        rng = np.random.default_rng(1)
        ours, ref = LruCache(16), ReferenceLru(16)
        for _ in range(10_000):
            v = int(rng.zipf(1.3)) % 60
            hit, _ = ours.access(v)
            assert hit == ref.access(v)
        assert set(ours.residents) == set(ref.items)

    def test_eviction_is_least_recent(self):
        c = LruCache(2)
        c.access(1)
        c.access(2)
        c.access(1)
        _, evicted = c.access(3)
        assert evicted == [2]


class TestLfu:
    def test_low_count_incoming_does_not_displace(self):
        c = LfuCache(1)
        pattern = [c.access(v)[0] for v in ("a", "a", "b", "a")]
        assert pattern == [False, True, False, True]
        assert set(c.resident_access) == {"a"}

    def test_all_distinct_degenerates_to_insertion_order(self):
        c = LfuCache(3)
        evictions = []
        for v in range(8):
            _, ev = c.access(v)
            evictions.extend(ev)
        assert evictions == [0, 1, 2, 3, 4]
        assert set(c.resident_access) == {5, 6, 7}

    def test_counts_accumulate_across_eviction(self):
        c = LfuCache(1)
        c.access("a")
        c.access("b")  # rejected, count parity
        c.access("b")  # now b's lifetime count is 2 > a's 1
        assert set(c.resident_access) == {"b"}


class TestMav:
    def test_two_slot_example(self):
        mav = MavState(1, slot_hours=1.0)
        # slot 0 has zero requests; slot 1 collects ten.
        for _ in range(10):
            mav.record(0, 1.2)
        scores = mav.scores(2.0)
        assert scores[0] == pytest.approx(0.9 * 0.0 + 0.1 * 10.0)

    def test_empty_gap_slots_decay(self):
        mav = MavState(1, slot_hours=1.0)
        mav.record(0, 0.5)
        value_after = mav.scores(5.0)[0]  # slots 1..4 empty
        assert value_after == pytest.approx(0.1 * (0.9**4), rel=1e-12)

    def test_record_counts_repeated_videos(self):
        mav = MavState(6, slot_hours=1.0)
        mav.record([3, 3, 5], 0.5)
        assert mav.scores(1.0) == pytest.approx([0.0, 0.0, 0.0, 0.1 * 2.0, 0.0, 0.1 * 1.0], rel=1e-12)

    def test_scores_exclude_current_slot(self):
        mav = MavState(1, slot_hours=1.0)
        mav.record(0, 0.1)
        assert mav.scores(0.9)[0] == 0.0

    def test_returned_scores_keep_their_values(self):
        # scores hands out ``values`` itself; no later record or fold may
        # write into an array it returned.
        mav = MavState(3, slot_hours=1.0)
        mav.record([0, 1, 1], 0.5)
        first = mav.scores(1.0)
        kept = first.copy()
        mav.record([2, 2], 1.5)
        mav.record([0], 4.5)  # folds slot 1, then decays across the empty slots 2 and 3
        later = mav.scores(6.0)
        assert first.tobytes() == kept.tobytes()
        assert later.tobytes() != kept.tobytes()


class TestSage:
    def test_charges_budget_and_stops_at_cap(self):
        ledger = PrivacyLedger.uniform(10, 15, 1, 3)
        cands, ledger = select_candidates_random(ledger, np.random.default_rng(2))
        assert len(cands) == 3
        assert int(ledger.counts.sum()) * ledger.cost == Fraction(3)

    def test_stops_when_budget_exhausted(self):
        ledger = PrivacyLedger.uniform(2, 1, 1, 4)  # one charge would equal the budget
        cands, _ = select_candidates_random(ledger, np.random.default_rng(3))
        assert len(cands) == 0

    def test_uniform_over_feasible_videos(self):
        hits = np.zeros(4)
        for seed in range(400):
            ledger = PrivacyLedger.uniform(4, 15, 1, 1)
            cands, _ = select_candidates_random(ledger, np.random.default_rng(seed))
            hits[cands.videos[0]] += 1
        assert hits.min() > 0.15 * hits.sum()


class TestBestFit:
    def test_top_utility_matches_sort_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            utilities = rng.uniform(0, 5, 12)
            ledger = PrivacyLedger.uniform(12, 15, 1, 4)
            cands, _ = select_candidates_best_utility(utilities, ledger)
            oracle = list(np.argsort(-utilities, kind="stable")[:4])
            assert list(cands) == oracle

    def test_skips_budget_exhausted_videos(self):
        utilities = np.array([9.0, 5.0, 1.0])
        ledger = PrivacyLedger.uniform(3, 2, 1, 2)
        admit_picked(np.array([0]), ledger)  # one more charge would not fit strictly below budget
        cands, _ = select_candidates_best_utility(utilities, ledger)
        assert list(cands) == [1, 2]


class TestBaselineStep:
    def test_lru_fetches_only_on_miss(self):
        c = LruCache(2)
        step = baseline_step(c, 4)
        assert not step.hit and step.fetched == (4,)
        step = baseline_step(c, 4)
        assert step.hit and step.fetched == ()
