"""Online privacy-budget allocation for prefetch candidates.

A video becomes a prefetch candidate only if its utility-per-budget ratio
clears a threshold that rises as the video's budget depletes, and only if
enough budget remains for one more charge. The ledger stores integer charge
counts per video; the count limits are derived once from the rational budget
and cost, so the per-video cap is never violated by float drift.
An exact offline optimum (branch and bound over the step/budget feasible
assignments) backs an empirical check of the online rule's competitive
ratio against ``1 + ln(upper/lower)``. That bound covers per-video budgets,
not the per-step prefetch cap: when the cap binds, a step can lose up to
``upper/lower`` and the check can fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

# The share by which an empirical competitive ratio may exceed its bound.
CR_SLACK = 0.15


class CompetitiveRatioViolation(AssertionError):
    """Empirical worst ratio exceeded the theoretical bound plus slack."""


@dataclass(frozen=True)
class ThresholdConfig:
    """Ratio bounds: every utility/cost ratio is assumed inside (lower, upper).

    :func:`threshold` raises its bar towards ``upper * e / lower``, so that
    ratio must be finite; otherwise the knee falls to 0 and the bar to inf.
    """

    upper: float
    lower: float

    def __post_init__(self):
        if not (0 < self.lower <= self.upper and self.upper * math.e / self.lower < math.inf):
            raise ValueError(f"need 0 < lower <= upper with upper * e / lower finite, got ({self.lower}, {self.upper})")

    @property
    def knee(self) -> float:
        """Consumed fraction below which the threshold stays at the lower bound."""
        return 1.0 / (1.0 + math.log(self.upper / self.lower))

    @property
    def cr_bound(self) -> float:
        return 1.0 + math.log(self.upper / self.lower)


def threshold(fraction: float, cfg: ThresholdConfig) -> float:
    """Admission bar for a video that has spent ``fraction`` of its budget.

    Flat at the lower bound up to the knee, then exponential up to the upper
    bound at full consumption; continuous and non-decreasing.
    """
    if not 0 <= fraction <= 1:
        raise ValueError("the spent fraction must lie in [0, 1]")
    if fraction <= cfg.knee:
        return cfg.lower
    return (cfg.upper * math.e / cfg.lower) ** fraction * cfg.lower / math.e


@dataclass(eq=False)
class PrivacyLedger:
    """Per-video budget accounting for one edge, as integer charge counts.

    ``total_budget`` is the lifetime allowance per video, ``cost`` the charge
    for selecting any video once, and ``counts[i]`` the number of committed
    charges of video ``i``. The exact limits on a count are derived once from
    the rational budget and cost, so no check ever rounds. A zero total
    budget is legal and makes every admission impossible.
    """

    total_budget: Fraction
    cost: Fraction
    prefetch_cap: int
    counts: np.ndarray

    def __post_init__(self):
        self.total_budget = Fraction(self.total_budget)
        self.cost = Fraction(self.cost)
        if self.total_budget < 0:
            raise ValueError("total_budget must be non-negative")
        if self.cost <= 0:
            raise ValueError("unit cost must be positive")
        if self.prefetch_cap < 0:
            raise ValueError("prefetch_cap must be non-negative")
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if np.any(self.counts < 0):
            raise ValueError("charge counts must be non-negative")
        # admit_picked() needs count + 1 <= budget / cost; chargeable() needs
        # count + 1 < budget / cost, i.e. count + 1 <= ceil(budget / cost) - 1.
        self.charge_limit = int(self.total_budget // self.cost)
        if self.counts.size and int(self.counts.max()) > self.charge_limit:
            raise ValueError(f"charge counts must not exceed the charge limit {self.charge_limit}")
        self.strict_limit = -(-self.total_budget // self.cost) - 1
        self.charge_fraction = self.cost / self.total_budget if self.total_budget else Fraction(0)
        # Read-only per-video view of the one cost (stride 0, one element).
        self.unit_cost = np.broadcast_to(np.array(self.cost, dtype=object), self.counts.shape)
        self._bars_cfg: ThresholdConfig | None = None
        self._bars = np.empty(0)

    @classmethod
    def uniform(cls, catalog_size: int, total_budget, unit_cost, prefetch_cap: int) -> "PrivacyLedger":
        return cls(total_budget, unit_cost, prefetch_cap, np.zeros(catalog_size, dtype=np.int64))

    @property
    def catalog_size(self) -> int:
        return len(self.counts)

    def threshold_bars(self, cfg: ThresholdConfig, videos: np.ndarray) -> np.ndarray:
        """The admission bar of each of ``videos``, ``threshold`` at its consumed fraction.

        The bars come from a table of ``threshold`` per charge count for the
        last ``cfg`` asked for. It is extended only when a count outgrows
        it, so its size follows the largest count looked up, not the budget.
        """
        if cfg is not self._bars_cfg and cfg != self._bars_cfg:
            self._bars_cfg, self._bars = cfg, np.empty(0)
        counts = self.counts[videos]
        try:
            return self._bars[counts]
        except IndexError:
            # Integer true division rounds correctly, as float(Fraction) does,
            # so this is the consumed fraction's nearest float without a Fraction.
            num, den = self.charge_fraction.numerator, self.charge_fraction.denominator
            missing = range(self._bars.size, int(counts.max()) + 1)
            self._bars = np.append(self._bars, [threshold(count * num / den, cfg) for count in missing])
            return self._bars[counts]

    def residual_fractions(self) -> np.ndarray:
        """Each video's unspent budget share, the float nearest ``1 - count * cost / budget``."""
        num, den = self.charge_fraction.numerator, self.charge_fraction.denominator
        table = [(den - count * num) / den for count in range(int(self.counts.max(initial=0)) + 1)]
        return np.array(table)[self.counts]

    def chargeable(self, videos: np.ndarray | None = None) -> np.ndarray:
        """Mask of the videos (all, or ``videos``) where cost < remaining budget."""
        return (self.counts if videos is None else self.counts[videos]) < self.strict_limit

    def copy(self) -> "PrivacyLedger":
        return PrivacyLedger(self.total_budget, self.cost, self.prefetch_cap, self.counts.copy())


@dataclass(frozen=True)
class CandidateSet:
    """Videos admitted for one prefetch step, in admission order."""

    videos: tuple[int, ...]
    cap: int

    def __post_init__(self):
        if len(self.videos) > self.cap:
            raise ValueError("candidate set exceeds the prefetch cap")
        if len(set(self.videos)) != len(self.videos):
            raise ValueError("candidate set contains duplicates")

    def __len__(self) -> int:
        return len(self.videos)

    def __iter__(self):
        return iter(self.videos)


def admit_picked(picked: np.ndarray, ledger: PrivacyLedger) -> tuple[CandidateSet, PrivacyLedger]:
    """Charge the ledger once for each of the distinct ``picked`` videos.

    The one place a charge count rises. A charge past ``charge_limit``
    raises ``ValueError`` and charges nothing.
    """
    chosen = CandidateSet(videos=tuple(picked.tolist()), cap=ledger.prefetch_cap)
    if (ledger.counts[picked] >= ledger.charge_limit).any():
        raise ValueError("charge would exceed the per-video budget")
    ledger.counts[picked] += 1
    return chosen, ledger


def admit_in_order(order: np.ndarray, eligible, ledger: PrivacyLedger) -> tuple[CandidateSet, PrivacyLedger]:
    """Admit and charge the first ``prefetch_cap`` eligible videos of ``order``.

    ``eligible(videos)`` gives the eligibility mask of an array of videos.
    ``order`` visits each video at most once, so eligibility taken before
    any charge equals eligibility checked during a sequential walk. The walk
    usually ends within the first ``2 * prefetch_cap`` videos, so only those
    are tested first; the whole of ``order`` is tested only when they leave
    the cap unfilled.
    """
    cap = ledger.prefetch_cap
    head = order[: 2 * cap]
    picked = head[eligible(head)]
    if len(picked) < cap and len(order) > len(head):
        picked = order[eligible(order)]
    return admit_picked(picked[:cap], ledger)


def select_candidates(
    utilities: np.ndarray,
    ledger: PrivacyLedger,
    cfg: ThresholdConfig,
    rng,
) -> tuple[CandidateSet, PrivacyLedger]:
    """Admit up to ``prefetch_cap`` videos drawn uniformly without replacement.

    A drawn video is admitted iff its utility/cost ratio strictly clears the
    threshold at its current consumed fraction and one more charge fits in
    its remaining budget; admissions charge the ledger immediately. The
    ledger is updated in place and returned. The whole permutation is drawn
    (it fixes the random stream), but eligibility is tested beyond its head
    only when :func:`admit_in_order` reads further.
    """
    utilities = np.asarray(utilities, dtype=np.float64)
    if utilities.shape[0] != ledger.catalog_size:
        raise ValueError("utility vector length must match the ledger catalog")
    cost = float(ledger.cost)

    def eligible(videos: np.ndarray) -> np.ndarray:
        return (utilities[videos] / cost > ledger.threshold_bars(cfg, videos)) & ledger.chargeable(videos)

    return admit_in_order(rng.permutation(ledger.catalog_size), eligible, ledger)


def offline_optimum(utilities_per_step: np.ndarray, ledger_template: PrivacyLedger) -> float:
    """Exact maximum total utility over all feasible binary assignments.

    Feasibility: at most ``prefetch_cap`` videos per step, and each video's
    total charges within its budget. Solved by depth-first branch and bound
    over each step's subsets of at most ``cap`` videos with a top-``cap``
    suffix bound; guarded to at most 24 binary variables.
    """
    util = np.asarray(utilities_per_step, dtype=np.float64)
    if util.ndim != 2:
        raise ValueError("utilities_per_step must be a steps x videos matrix")
    steps, n_videos = util.shape
    if n_videos != ledger_template.catalog_size:
        raise ValueError("utility matrix width must match the ledger catalog")
    if steps * n_videos > 24:
        raise ValueError(f"{steps * n_videos} binary variables exceed the exact-search guard of 24")
    if np.any(util < 0):
        raise ValueError("utilities must be non-negative")
    cap = ledger_template.prefetch_cap

    # Upper bound on the remaining steps: the top-cap utilities of each,
    # ignoring budgets (admissible, never underestimates).
    step_best = []
    for k in range(steps):
        top = np.sort(util[k])[::-1][: min(cap, n_videos)]
        step_best.append(float(np.sum(top)))
    suffix = [0.0] * (steps + 1)
    for k in range(steps - 1, -1, -1):
        suffix[k] = suffix[k + 1] + step_best[k]

    # Each step's subsets of at most ``cap`` videos, best first. Ties keep
    # bit-mask order, so the search and its float bound prune exactly as a
    # walk over every mask would.
    chosen_sets = [c for size in range(min(cap, n_videos) + 1) for c in combinations(range(n_videos), size)]
    chosen_sets.sort(key=lambda chosen: sum(1 << v for v in chosen))
    subsets_cache: list[list[tuple[float, tuple[int, ...]]]] = []
    for k in range(steps):
        options = [(float(sum(util[k][v] for v in chosen)), chosen) for chosen in chosen_sets]
        options.sort(key=lambda t: -t[0])
        subsets_cache.append(options)

    best = 0.0
    remaining = [ledger_template.charge_limit] * n_videos

    def search(k: int, value: float):
        nonlocal best
        if value + suffix[k] <= best:
            return
        if k == steps:
            best = max(best, value)
            return
        for subset_value, chosen in subsets_cache[k]:
            if any(remaining[v] <= 0 for v in chosen):
                continue
            for v in chosen:
                remaining[v] -= 1
            search(k + 1, value + subset_value)
            for v in chosen:
                remaining[v] += 1

    search(0, 0.0)
    return best


def random_cr_utilities(count: int, n_videos: int, steps: int, cfg: ThresholdConfig, seed: int) -> np.ndarray:
    """A ``count x steps x n_videos`` array of unit-cost utilities whose
    ratios lie strictly inside (lower, upper), log-uniformly drawn."""
    rng = np.random.default_rng(seed)
    margin = 1e-9 * (cfg.upper - cfg.lower)
    lo, hi = cfg.lower + margin, cfg.upper - margin
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size=(count, steps, n_videos)))


def empirical_cr(utilities: np.ndarray, ledger: PrivacyLedger, cfg: ThresholdConfig, seed: int) -> float:
    """Worst observed offline/online utility ratio over the instances.

    ``utilities[i]`` is instance ``i``'s steps x videos matrix, and each
    instance starts from a copy of ``ledger``. Enforces the small-cost
    assumption (unit cost at most budget/20) and raises
    :class:`CompetitiveRatioViolation` if the worst ratio exceeds the
    theoretical bound inflated by :data:`CR_SLACK`.
    """
    if ledger.cost * 20 > ledger.total_budget:
        raise ValueError("instances must satisfy unit_cost <= total_budget / 20")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for instance in utilities:
        online, spent = 0.0, ledger.copy()
        for step in instance:
            chosen, spent = select_candidates(step, spent, cfg, rng)
            online += float(sum(step[v] for v in chosen))
        optimum = offline_optimum(instance, ledger)
        if optimum > 0.0:
            worst = max(worst, optimum / online if online else math.inf)
    if worst > cfg.cr_bound * (1.0 + CR_SLACK):
        raise CompetitiveRatioViolation(
            f"worst ratio {worst:.4f} exceeds bound {cfg.cr_bound:.4f} with slack {CR_SLACK:.2f}"
        )
    return worst
