"""Per-layer tracing of ppvf from outside the package.

:class:`Tracer` replaces public functions and methods of the ``ppvf``
modules with wrappers that record a span per call (name, start, end, parent,
policy, thread) or only bump counters. Where a module binds a name imported
from another module (``ppvf.sim`` binds ``intensity_sweep``,
``advance_state`` and ``run_fit_round``; ``ppvf.federation`` binds the
``window_*`` functions) the wrapper replaces the name in the importing
module. Spans stay in memory; :func:`layer_metrics` reduces them and
:meth:`Tracer.write_spans` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import threading
import time
from collections import defaultdict

import numpy as np

from ppvf import cache, cdp, federation, scheduler, sim, trace

# Payload of one sparse-mode pair: five float sums and an int count.
_PAIR_BYTES = 6 * 8
NAME, START, END, PARENT, POLICY, THREAD = range(6)
# Counts that must repeat exactly on the same seed.
DETERMINISTIC = (
    "sim.events",
    "sim.misses",
    "scheduler.admitted",
    "scheduler.budget_spent",
    "cdp.em.uniform_share",
    "federation.local_evals",
    "federation.backtracks",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.policy: str | None = None
        self._local = threading.local()
        self._main_stack: list = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, after=None):
        spans, stack_of, now, ident = self.spans, self._stack, time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            # A pool worker starts with an empty stack; its caller is the
            # span the submitting (main) thread is blocked in.
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            rec = [name, 0, 0, parent, self.policy, ident()]
            spans.append(rec)
            stack.append(rec)
            rec[START] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = now()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    @staticmethod
    def _probe(fn, after):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return probed

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced entry point; :meth:`uninstall` restores them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._main_stack = self._stack()
        c = self.counts

        def on_sim(args, report):
            c["sim.events"] += len(args[1])

        def on_fit(args, result):
            c["federation.accepted_steps"] += max(0, len(result.losses) - 1)

        def on_gradients(args, grads):
            params = args[0]
            c["federation.upload_bytes"] += params.catalog_size * (1 + 2 * params.dim) * 8

        def on_select(args, result):
            cands, ledger = result
            c["scheduler.admitted"] += len(cands)
            c["scheduler.empty"] += len(cands) == 0
            c["scheduler.slots"] += ledger.prefetch_cap
            c["scheduler.budget_spent"] += sum(float(ledger.unit_cost[v]) for v in cands)

        def on_corr(args, _):
            st = args[0]
            extra = st.cross.nbytes if st.dense else len(st.pairs) * _PAIR_BYTES
            size = st.sums.nbytes + st.sq_sums.nbytes + extra
            c["cdp.corr_state_bytes"] = max(c["cdp.corr_state_bytes"], size)

        def on_em(args, decision):
            c["cdp.em.draws"] += len(decision)
            if args[2] == 0.0 or args[3] == 0.0:  # em_weights falls back to uniform
                c["cdp.em.uniform_draws"] += len(decision)

        def on_admit(args, evicted):
            c["cache.evictions"] += len(evicted)

        def on_lookup(args, hit):
            c["cache.lookups"] += 1
            c["cache.hits"] += hit

        def on_baseline(args, step):
            c["cache.lookups"] += 1
            c["cache.hits"] += step.hit
            c["cache.evictions"] += len(step.evicted)

        span, probe = self._span, self._probe
        for owner, attr, name, after in (
            (trace, "generate_synthetic", "trace.generate", None),
            (trace, "write_trace", "trace.write", None),
            (trace, "load_trace", "trace.load", None),
            (sim, "run_simulation", "sim.run", on_sim),
            (sim, "intensity_sweep", "predictor.sweep", None),
            (sim, "advance_state", "predictor.advance", None),
            (sim, "run_fit_round", "federation.fit", on_fit),
            (federation, "window_stats", "predictor.window_stats", None),
            (federation, "window_log_likelihood", "predictor.likelihood", None),
            (federation, "window_gradients", "predictor.gradients", on_gradients),
            (federation, "global_loss", "federation.global_loss", None),
            (federation, "aggregate_and_step", "federation.aggregate", None),
            (scheduler, "select_candidates", "scheduler.select", on_select),
            (cache, "select_candidates_best_utility", "cache.select_best", None),
            (cache, "select_candidates_random", "cache.select_random", None),
            (cdp.CorrelationState, "update", "cdp.corr_update", on_corr),
            (cdp, "candidate_sensitivities", "cdp.sensitivity", None),
            (cdp, "em_sample", "cdp.em", on_em),
            (cache.EdgeCache, "admit", "cache.admit", on_admit),
            (cache.EdgeCache, "refresh_scores", "cache.refresh", None),
            (cache.MavState, "scores", "cache.mav_scores", None),
        ):
            self._patch(owner, attr, span(name, getattr(owner, attr), after))
        self._patch(cache.EdgeCache, "lookup", probe(cache.EdgeCache.lookup, on_lookup))
        self._patch(cache, "baseline_step", probe(cache.baseline_step, on_baseline))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """Write spans as gzipped CSV, parents given by row index."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,policy,thread\n")
            for rec in self.spans:
                parent = index[id(rec[PARENT])] if rec[PARENT] is not None else -1
                fh.write(f"{rec[NAME]},{rec[START]},{rec[END]},{parent},{rec[POLICY]},{rec[THREAD]}\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list] = defaultdict(list)
    for rec in spans:
        if rec[PARENT] is not None:
            children[id(rec[PARENT])].append(rec)
    out = []
    for rec in spans:
        start, end = rec[START], rec[END]
        covered, reach = 0, start
        for kid in sorted(children.get(id(rec), ()), key=lambda k: k[START]):
            lo, hi = max(kid[START], reach), min(kid[END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_table(spans) -> dict[tuple[str, str | None], dict[str, float]]:
    """Calls, busy and self seconds per (span name, policy)."""
    table: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for rec, own in zip(spans, self_times(spans)):
        row = table[(rec[NAME], rec[POLICY])]
        row["calls"] += 1
        row["busy_s"] += (rec[END] - rec[START]) / 1e9
        row["self_s"] += own / 1e9
    return dict(table)


def _durations_us(spans, name: str) -> np.ndarray:
    return np.array([(r[END] - r[START]) / 1e3 for r in spans if r[NAME] == name])


def layer_metrics(setup: Tracer, setup_reps: int, tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of a traced set-up and one traced pass over the policies.

    ``trace.*`` times are per set-up repetition; everything else is summed
    over the workload's policies.
    """
    m: dict[str, float] = {}
    for name in ("trace.generate", "trace.write", "trace.load"):
        busy = sum(r[END] - r[START] for r in setup.spans if r[NAME] == name)
        m[f"{name}.busy_s"] = busy / 1e9 / setup_reps

    spans, c = tracer.spans, tracer.counts
    by_name: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for (name, _policy), row in layer_table(spans).items():
        for key, value in row.items():
            by_name[name][key] += value
    for name in (
        "predictor.sweep", "predictor.advance", "predictor.window_stats", "predictor.likelihood",
        "predictor.gradients", "scheduler.select", "cache.select_best", "cache.select_random",
        "cdp.corr_update", "cdp.sensitivity", "cdp.em", "cache.admit", "cache.refresh",
        "cache.mav_scores", "federation.aggregate", "federation.global_loss",
    ):
        m[f"{name}.calls"] = by_name[name]["calls"]
        m[f"{name}.busy_s"] = by_name[name]["busy_s"]
    m["federation.aggregate.self_s"] = by_name["federation.aggregate"]["self_s"]
    for name in ("scheduler.select", "cdp.corr_update"):
        durations = _durations_us(spans, name)
        m[f"{name}.p50_us"] = float(np.percentile(durations, 50)) if durations.size else 0.0
        m[f"{name}.p99_us"] = float(np.percentile(durations, 99)) if durations.size else 0.0

    m["sim.events"] = c["sim.events"]
    m["sim.misses"] = c["cache.lookups"] - c["cache.hits"]
    m["sim.self_s"] = by_name["sim.run"]["self_s"]

    select_calls = by_name["scheduler.select"]["calls"]
    m["scheduler.admitted"] = c["scheduler.admitted"]
    m["scheduler.fill_ratio"] = c["scheduler.admitted"] / c["scheduler.slots"] if c["scheduler.slots"] else 0.0
    m["scheduler.empty_share"] = c["scheduler.empty"] / select_calls if select_calls else 0.0
    m["scheduler.budget_spent"] = c["scheduler.budget_spent"]

    m["cdp.corr_state_bytes"] = c["cdp.corr_state_bytes"]
    m["cdp.em.draws"] = c["cdp.em.draws"]
    m["cdp.em.uniform_share"] = c["cdp.em.uniform_draws"] / c["cdp.em.draws"] if c["cdp.em.draws"] else 0.0

    m["cache.lookups"] = c["cache.lookups"]
    m["cache.hit_share"] = c["cache.hits"] / c["cache.lookups"] if c["cache.lookups"] else 0.0
    m["cache.evictions"] = c["cache.evictions"]

    barrier_s = np.array([(r[END] - r[START]) / 1e9 for r in spans if r[NAME] == "federation.fit"])
    m["federation.barriers"] = barrier_s.size
    m["federation.barrier_s.p50"] = float(np.median(barrier_s)) if barrier_s.size else 0.0
    m["federation.barrier_s.max"] = float(barrier_s.max()) if barrier_s.size else 0.0
    m["federation.busy_s"] = by_name["federation.fit"]["busy_s"]
    m["federation.self_s"] = by_name["federation.fit"]["self_s"]
    tried = by_name["federation.aggregate"]["calls"]
    m["federation.local_evals"] = by_name["predictor.likelihood"]["calls"]
    m["federation.accepted_steps"] = c["federation.accepted_steps"]
    m["federation.backtracks"] = tried - c["federation.accepted_steps"]
    m["federation.accept_ratio"] = c["federation.accepted_steps"] / tried if tried else 0.0
    m["federation.upload_bytes"] = c["federation.upload_bytes"]
    return m


def accounting_lines(tracer: Tracer, untraced_s: dict[str, float]) -> list[str]:
    """Per policy: untraced and traced ``run_simulation`` seconds, and the
    layer self times that make up the traced span (they overlap when a
    workload runs worker threads)."""
    table = layer_table(tracer.spans)
    lines = []
    for policy in sorted({p for (_name, p) in table if p is not None}):
        rows = {name: row for (name, p), row in table.items() if p == policy}
        top = sorted(rows.items(), key=lambda kv: -kv[1]["self_s"])[:5]
        lines.append(
            f"accounting {policy}: untraced {untraced_s.get(policy, float('nan')):.3f} s, "
            f"traced {rows['sim.run']['busy_s']:.3f} s, "
            f"layer self sum {sum(row['self_s'] for row in rows.values()):.3f} s; top "
            + ", ".join(f"{name} {row['self_s']:.3f}" for name, row in top)
        )
    return lines
