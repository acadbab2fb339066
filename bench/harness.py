"""Set-up, policy rounds, checks and reporting behind ``bench/run.py``."""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import ppvf
import tracing
from ppvf import sim, trace
from workloads import POLICIES, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")
SETUP_REPS = 5
IMPORT_REPS = 3
# Their one to three samples per run spread by 16-28% of the median between
# runs on a 2-vCPU VM (directional, wide_catalog), too close to the 0.25 cap
# on a bound, so their untraced seconds are per-layer metrics instead.
BASELINE_POLICIES = ("bestfit", "sage", "mav")


def _parse_args(argv):
    ap = argparse.ArgumentParser(prog="bench/run.py", description="Benchmark of the ppvf simulator.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument(
        "--record-golden",
        action="store_true",
        help="store this run's CSV hashes (and, traced, its deterministic counts) in bench/golden.json",
    )
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def _metric_units(traced: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _environment(args) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        commit = out.stdout.strip() or None
    src_digest = hashlib.sha256()
    pkg = os.path.join(SRC, "ppvf")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            src_digest.update(f"{name} {_sha256(os.path.join(pkg, name))}\n".encode())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    workload = WORKLOADS[args.workload]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "workload": workload.name,
        "seed": args.seed,
        "reference_seed": workload.reference_seed,
        "held_out_seed": workload.held_out_seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _check_report(report, policy: str) -> list[str]:
    """Invariants every policy run must satisfy; returns the broken ones."""
    broken = []
    if report.hits > report.requests:
        broken.append(f"{policy}: hits {report.hits} > requests {report.requests}")
    if not all(0.0 <= r <= 1.0 for r in report.residual_fractions):
        broken.append(f"{policy}: residual budget fraction outside [0, 1]")
    by_barrier: dict[float, list[float]] = {}
    for barrier, _round, loss in report.fl_losses:
        by_barrier.setdefault(barrier, []).append(loss)
    for barrier, losses in by_barrier.items():
        if any(b > a for a, b in zip(losses, losses[1:])):
            broken.append(f"{policy}: fit losses increase at barrier t={barrier}")
    for name, value in (("CHR", report.chr_value), ("JS", report.mean_js)):
        if not 0.0 <= value <= 1.0:
            broken.append(f"{policy}: {name} {value} outside [0, 1]")
    return broken


def _orderings(reports) -> list[tuple[str, bool]]:
    """The acceptance suite's directional orderings, each with whether it holds."""
    ppvf_r, bestfit, lru = reports["ppvf"], reports["bestfit"], reports["lru"]
    return [
        (f"JS(ppvf) {ppvf_r.mean_js:.5f} < JS(bestfit) {bestfit.mean_js:.5f}", ppvf_r.mean_js < bestfit.mean_js),
        (f"CHR(ppvf) {ppvf_r.chr_value:.5f} > CHR(lru) {lru.chr_value:.5f}", ppvf_r.chr_value > lru.chr_value),
    ]


def _import_seconds() -> float:
    """Median wall time of a fresh interpreter starting and importing ppvf."""
    cmd = [sys.executable, "-c", "import ppvf.sim, ppvf.trace"]
    env = {**os.environ, "PYTHONPATH": SRC}
    seconds = []
    for _ in range(IMPORT_REPS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120)
        seconds.append(time.perf_counter() - t0)
    return statistics.median(seconds)


class Bench:
    """One workload on one seed: its trace, policy runs and their outcomes."""

    def __init__(self, workload, seed: int, out_dir: str):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.csv_sha256: dict[str, str] = {}
        self.reports: dict = {}
        self.orderings: list[tuple[str, bool]] = []

    def setup(self, tracer=None):
        """Generate, write and load the trace ``SETUP_REPS`` times; returns
        the loaded log and the seconds of each repetition."""
        path = os.path.join(self.out_dir, "trace.csv")
        seconds = []
        if tracer is not None:
            tracer.install()
        try:
            for _ in range(SETUP_REPS):
                gc.collect()
                t0 = time.perf_counter()
                log = trace.generate_synthetic(self.workload.spec(self.seed))
                trace.write_trace(log, path)
                loaded = trace.load_trace(path)
                seconds.append(time.perf_counter() - t0)
        finally:
            if tracer is not None:
                tracer.uninstall()
        os.remove(path)
        # The file keeps every field; load_trace floors stamps to whole hours.
        same = (
            len(loaded) == len(log)
            and np.array_equal(loaded.edge_ids, log.edge_ids)
            and np.array_equal(loaded.user_ids, log.user_ids)
            and np.array_equal(loaded.video_ids, log.video_ids)
            and np.array_equal(loaded.timestamps, np.floor(log.timestamps + 1e-9))
        )
        if not same:
            raise RuntimeError("write_trace/load_trace round trip changed the events")
        return loaded, seconds

    def run_round(self, log, tracer=None) -> dict[str, float]:
        """One simulation per policy; returns host seconds of those that passed."""
        seconds, reports = {}, {}
        self.reports = {}  # free the last round's reports before this one runs
        if tracer is not None:
            tracer.install()
        try:
            for policy in POLICIES:
                self.attempted += 1
                cfg = self.workload.sim_config(policy)
                if tracer is not None:
                    tracer.policy = policy
                gc.collect()
                t0 = time.perf_counter()
                try:
                    report = sim.run_simulation(cfg, log)
                except Exception:
                    self._fail([f"{policy}: raised\n{traceback.format_exc()}"])
                    continue
                elapsed = time.perf_counter() - t0
                broken = _check_report(report, policy) + self._hash_csv(cfg, report)
                if broken:
                    self._fail(broken)
                    continue
                seconds[policy] = elapsed
                reports[policy] = report
        finally:
            if tracer is not None:
                tracer.uninstall()
        if self.workload.orderings and {"ppvf", "bestfit", "lru"} <= reports.keys():
            # The acceptance suite asserts the orderings on its own trace
            # (the reference seed) only; other seeds report them.
            self.orderings = _orderings(reports)
            broken = [f"ppvf: {claim} does not hold" for claim, holds in self.orderings if not holds]
            if broken and self.seed == self.workload.reference_seed:
                self._fail(broken)
                del seconds["ppvf"], reports["ppvf"]
        self.reports = reports
        return seconds

    def _fail(self, messages: list[str]) -> None:
        self.failed += 1
        self.problems.extend(messages)

    def _hash_csv(self, cfg, report) -> list[str]:
        """Write the report CSVs and hash them; later rounds must repeat the first."""
        out = os.path.join(self.out_dir, "csv", cfg.policy)
        os.makedirs(out, exist_ok=True)
        names = sim.write_reports(out, [(cfg.policy, cfg.cache_fraction, report)], "c", cfg.cache_fraction)
        digest = hashlib.sha256()
        for name in sorted(names):
            digest.update(f"{name} {_sha256(os.path.join(out, name))}\n".encode())
        value = digest.hexdigest()
        if self.csv_sha256.setdefault(cfg.policy, value) != value:
            return [f"{cfg.policy}: CSV output differs between rounds of one run"]
        return []


def _median_by_policy(rounds: list[dict[str, float]]) -> dict[str, float]:
    policies = {p for r in rounds for p in r}
    return {p: statistics.median(r[p] for r in rounds if p in r) for p in policies}


def _load_golden() -> dict:
    try:
        with open(GOLDEN, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _golden_lines(workload: str, seed: int, csv_sha256: dict, counts: dict | None) -> list[str]:
    """Compare with the recorded behaviour; a difference is reported, never failed."""
    entry = _load_golden().get(workload, {}).get(str(seed))
    if entry is None:
        return [f"golden: no record for {workload} seed {seed}"]
    observed = [("CSV", p, v, entry.get("csv_sha256", {})) for p, v in sorted(csv_sha256.items())]
    if counts is not None and "counts" in entry:
        observed += [("count", n, v, entry["counts"]) for n, v in sorted(counts.items())]
    lines = []
    for kind, key, value, recorded in observed:
        want = recorded.get(key)
        state = "no record" if want is None else ("match" if want == value else "BEHAVIOUR CHANGED")
        lines.append(f"golden: {kind} {key} {state}")
    return lines


def _record_golden(workload: str, seed: int, csv_sha256: dict, counts: dict | None) -> None:
    golden = _load_golden()
    entry = golden.setdefault(workload, {}).setdefault(str(seed), {})
    entry["csv_sha256"] = dict(sorted(csv_sha256.items()))
    if counts is not None:
        entry["counts"] = dict(sorted(counts.items()))
    golden[workload] = dict(sorted(golden[workload].items(), key=lambda kv: int(kv[0])))
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(golden.items())), fh, indent=1)
        fh.write("\n")


def main(argv) -> int:
    args = _parse_args(argv)
    if not os.path.dirname(os.path.abspath(ppvf.__file__)).startswith(SRC):
        print(f"error: imported ppvf from {ppvf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    units = _metric_units(bool(args.trace))
    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(ROOT, ".bench_out", f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = _environment(args)
    print("environment:", json.dumps(env, sort_keys=True))

    bench = Bench(workload, args.seed, out_dir)
    setup_tracer = tracing.Tracer() if args.trace else None
    log, setup_seconds = bench.setup(setup_tracer)

    plain_rounds, traced_rounds, tracers = [], [], []
    measure_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain_rounds.append(bench.run_round(log))
        if args.trace:
            tracers.append(tracing.Tracer())
            traced_rounds.append(bench.run_round(log, tracers[-1]))
        now = time.perf_counter()
        if now - measure_start + (now - round_start) > args.seconds:
            break
    measured_s = time.perf_counter() - measure_start

    values: dict[str, float] = {}
    counts = None
    sim_s = _median_by_policy(plain_rounds)
    if not args.trace:
        values["setup_s"] = _import_seconds() + statistics.median(setup_seconds)
        if len(sim_s) == len(POLICIES):
            values["events_per_s"] = len(log) * len(POLICIES) / sum(sim_s.values())
        if "ppvf" in sim_s:
            values["sim_s.ppvf"] = sim_s["ppvf"]
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["pass_share"] = 1.0 - bench.failed / bench.attempted
    else:
        values.update(tracing.layer_metrics(setup_tracer, SETUP_REPS, tracers[0]))
        for policy in BASELINE_POLICIES:
            if policy in sim_s:
                values[f"sim.wall_s.{policy}"] = sim_s[policy]
        if "ppvf" in bench.reports:
            values["sim.chr.ppvf"] = bench.reports["ppvf"].chr_value
            values["sim.js.ppvf"] = bench.reports["ppvf"].mean_js
        traced_s = _median_by_policy(traced_rounds)
        common = sim_s.keys() & traced_s.keys()
        values["tracing.overhead_share"] = (
            sum(traced_s[p] for p in common) / sum(sim_s[p] for p in common) - 1.0
        )
        counts = {name: values[name] for name in tracing.DETERMINISTIC}
        for later in tracers[1:]:
            again = tracing.layer_metrics(setup_tracer, SETUP_REPS, later)
            bench.problems += [
                f"count {name} differs between traced rounds of one run"
                for name in tracing.DETERMINISTIC
                if again[name] != counts[name]
            ]
        setup_tracer.write_spans(os.path.join(out_dir, "spans-setup.csv.gz"))
        tracers[0].write_spans(os.path.join(out_dir, "spans.csv.gz"))
        for line in tracing.accounting_lines(tracers[0], sim_s):
            print(line)

    golden = _golden_lines(workload.name, args.seed, bench.csv_sha256, counts)
    if args.record_golden:
        _record_golden(workload.name, args.seed, bench.csv_sha256, counts)
    for line in golden:
        print(line)
    if "ppvf" in bench.reports:
        ppvf_report = bench.reports["ppvf"]
        print(f"outcome: chr.ppvf {ppvf_report.chr_value:.5f} js.ppvf {ppvf_report.mean_js:.5f}")
    for claim, holds in bench.orderings:
        print(f"ordering: {claim} {'holds' if holds else 'DOES NOT HOLD'}")
    for problem in bench.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    missing = sorted(units.keys() - values.keys())
    if missing:
        print(f"FAILED missing metrics: {', '.join(missing)}", file=sys.stderr)
    print(
        f"{workload.name} seed {args.seed}: {len(plain_rounds)} round(s) in {measured_s:.1f} s, "
        f"{len(log)} events, {bench.attempted} policy runs, {bench.failed} failed"
    )
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not bench.problems and not missing,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        detail = {
            "environment": env,
            "csv_sha256": bench.csv_sha256,
            "counts": counts,
            "golden": golden,
            "orderings": bench.orderings,
            "problems": bench.problems,
            "rounds": {"plain": plain_rounds, "traced": traced_rounds},
        }
        json.dump({**result, **detail}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0
