"""Command-line entry point.

Subcommands: ``gen-trace`` (synthetic trace files), ``fit`` (offline model
fitting with checkpoints), ``simulate`` (policy runs and metric CSVs),
``eval-cr`` (empirical competitive-ratio check), ``report`` (summarize an
output directory). Configuration is a flat ``key = value`` file overridden
by flags; every command is deterministic under a fixed seed and prints its
effective configuration.

Exit codes: 0 success, 1 usage error (:class:`UsageError`), 2 data error
(:class:`ppvf.DataError` or ``OSError``), 3 property violation
(:class:`scheduler.CompetitiveRatioViolation`). A failure that the
settings alone cause is a usage error, even when only a run finds it, such as an
explosive ``branching``, a trace expected past ``trace.MAX_EXPECTED_EVENTS`` events,
a ``quantize`` under which no trace can pass or an exact-oracle instance past its guard.
A data error is an input that cannot be read or used: a missing or
malformed file, a trace longer than the configured horizon or with no
request after ``init_horizon``, a trace whose fit would need no refit or
more than ``sim.MAX_BARRIERS``, a fit whose likelihood (or the edges' sum of
it), gradients or parameters are not finite, or a manifest naming a file elsewhere.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from . import DataError, __version__, scheduler, trace
from .federation import TrainConfig
from .predictor import ModelParams
from .sim import FITTED_POLICIES, POLICIES, SimConfig, barrier_times, fit_schedule, run_simulation, write_reports

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROPERTY = 3


class UsageError(ValueError):
    pass


# A config file's value parses to the type of its key's default.
DEFAULTS: dict[str, object] = {
    # model
    "delta": 0.01,
    "latent_dim": 10,
    "phi_th": math.exp(-0.48),
    "t_theta": 48.0,
    "max_iters": 20,
    "eta": 1e-3,
    "rho": 1e-4,
    "tolerance": 1e-6,
    # budgets and caching
    "xi": 15.0,
    "epsilon": 1.0,
    "f": 4,
    "c": 0.01,
    "lower": 0.0,  # 0 = estimate bounds during warmup
    "upper": 0.0,
    # trace / simulation shape
    "catalog_size": 500,
    "edges": 25,
    "horizon": 720.0,
    "init_horizon": 240.0,
    "quantize": 1.0,
    # synthetic ground truth
    "zipf": 1.0,
    "mean_base": 0.1,
    "branching": 0.3,
    "users_per_edge": 8,
    # misc
    "seed": 0,
    "policy": "ppvf",
    "cr_instances": 200,
    "cr_videos": 4,
    "cr_steps": 6,
    "cr_cap": 3,
    "cr_budget_units": 20,
}


def load_config(path: str | None) -> dict:
    cfg = dict(DEFAULTS)
    if path is None:
        return cfg
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    set_on: dict[str, int] = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {line_no}: expected key = value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in DEFAULTS:
            raise UsageError(f"config line {line_no}: unknown key {key!r}")
        if key in set_on:
            raise UsageError(f"config line {line_no}: key {key!r} is already set on line {set_on[key]}")
        set_on[key] = line_no
        cfg[key] = _parse_value(key, value)
    return cfg


def _parse_value(key: str, raw: str):
    """``raw`` as the type of ``DEFAULTS[key]``."""
    try:
        return type(DEFAULTS[key])(raw)
    except ValueError:
        raise UsageError(f"config key {key!r}: cannot parse {raw!r}") from None


def _bounds(cfg: dict) -> tuple[float, float] | None:
    """The configured ``(lower, upper)`` ratio bounds, or None when both are 0."""
    lower, upper = float(cfg["lower"]), float(cfg["upper"])
    if (lower == 0) != (upper == 0):
        raise UsageError("set both lower and upper, or leave both at 0")
    return (lower, upper) if lower else None


def _sim_config(cfg: dict, policy: str, seed: int) -> SimConfig:
    bounds = _bounds(cfg)
    rho = float(cfg["rho"])
    try:
        return SimConfig(
            policy=policy,
            init_horizon=float(cfg["init_horizon"]),
            test_horizon=float(cfg["horizon"]),
            total_budget=float(cfg["xi"]),
            unit_cost=float(cfg["epsilon"]),
            prefetch_cap=int(cfg["f"]),
            cache_fraction=float(cfg["c"]),
            bounds=bounds,
            decay=float(cfg["delta"]),
            latent_dim=int(cfg["latent_dim"]),
            truncation=float(cfg["phi_th"]),
            train=TrainConfig(
                rho_base=rho,
                rho_target=rho,
                rho_source=rho,
                learning_rate=float(cfg["eta"]),
                max_iters=int(cfg["max_iters"]),
                tolerance=float(cfg["tolerance"]),
                update_interval_hours=float(cfg["t_theta"]),
            ),
            slot_hours=float(cfg["quantize"]),
            seed=seed,
        )
    except ValueError as exc:
        raise UsageError(f"invalid configuration: {exc}") from None


def random_ground_truth(cfg: dict, seed: int) -> ModelParams:
    """Zipf-skewed base rates with factors rescaled to a target branching ratio."""
    catalog = int(cfg["catalog_size"])
    dim = int(cfg["latent_dim"])
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(99,)))
    ranks = np.arange(1, catalog + 1, dtype=np.float64)
    base = float(cfg["mean_base"]) * ranks ** (-float(cfg["zipf"]))
    tgt = rng.uniform(0.1, 1.0, size=(catalog, dim))
    src = rng.uniform(0.1, 1.0, size=(catalog, dim))
    params = ModelParams(base, tgt, src, float(cfg["delta"]))
    ratio = trace.excitation_branching_ratio(params)
    target = float(cfg["branching"])
    if ratio > 0 and target > 0:
        scale = math.sqrt(target / ratio)
        params = ModelParams(base, tgt * scale, src * scale, float(cfg["delta"]))
    return params


def _version() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=here,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):  # no git, or one past its timeout
        pass
    return f"v{__version__}"


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: str, command: str, cfg: dict, outputs: list[str], timings: dict) -> None:
    manifest = {
        "command": command,
        "version": _version(),
        "config": {k: cfg[k] for k in sorted(cfg)},
        "timings_seconds": timings,
        "outputs": {name: _sha256(os.path.join(out_dir, name)) for name in sorted(outputs)},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print_config(cfg: dict, overrides: dict) -> None:
    effective = dict(cfg)
    effective.update(overrides)
    print("effective configuration:")
    for key in sorted(effective):
        print(f"  {key} = {effective[key]}")


# -- subcommands ---------------------------------------------------------------


def cmd_gen_trace(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else int(cfg["seed"])
    _print_config(cfg, {"seed": seed})
    # Ids past these limits would make a trace that load_trace rejects.
    if int(cfg["catalog_size"]) > trace.MAX_VIDEO_ID + 1 or int(cfg["edges"]) > trace.MAX_EDGE_ID + 1:
        raise UsageError(f"need catalog_size <= {trace.MAX_VIDEO_ID + 1} and edges <= {trace.MAX_EDGE_ID + 1}")
    try:
        spec = trace.SyntheticSpec(
            catalog_size=int(cfg["catalog_size"]),
            edge_count=int(cfg["edges"]),
            horizon=float(cfg["horizon"]),
            ground_truth=random_ground_truth(cfg, seed),
            rng_seed=seed,
            users_per_edge=int(cfg["users_per_edge"]),
        )
        log = trace.generate_synthetic(spec)
    except ValueError as exc:
        raise UsageError(f"invalid configuration: {exc}") from None
    # fit and simulate reject a trace with no record.
    if not len(log):
        raise UsageError(f"seed {seed} draws no event over {cfg['horizon']} h; no trace written")
    out = args.out or "trace.csv"
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    trace.write_trace(log, out)
    print(f"wrote {len(log)} events to {out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg = load_config(args.config)
    _print_config(cfg, {"trace": args.trace})
    # fit reads no policy, but refuses a policy list that simulate would refuse,
    # and settings under which a fitted policy could not fit: a fitted policy's
    # settings validate every model and trace key fit reads.
    _policies(str(cfg["policy"]))
    settings = _sim_config(cfg, "ppvf", int(cfg["seed"]))
    # Every trace spans at least one quantize slot.
    try:
        barrier_times(settings, settings.slot_hours)
    except ValueError as exc:
        raise UsageError(f"quantize {settings.slot_hours} h: every trace spans a slot, and {exc}") from None
    log = trace.load_trace(args.trace, quantize_hours=settings.slot_hours)
    start = None
    if args.init_params:
        try:
            start = ModelParams.load(args.init_params)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad checkpoint {args.init_params}: {type(exc).__name__}: {exc}") from None
        # The trace's catalog is 1 + its largest video id, so only a smaller
        # checkpoint is certain to miss videos the trace requests.
        if start.catalog_size < log.catalog_size:
            raise DataError(
                f"checkpoint {args.init_params} covers {start.catalog_size} videos; "
                f"the trace requests video {log.catalog_size - 1}"
            )
        if (start.dim, start.decay) != (settings.latent_dim, settings.decay):
            raise DataError(
                f"checkpoint {args.init_params} has latent_dim {start.dim} and delta {start.decay}, "
                f"not the config's {settings.latent_dim} and {settings.decay}"
            )
    # The fit runs to the trace's own horizon, so a schedule too long to
    # fit, or one with nothing to fit, is a property of the trace.
    try:
        barriers = barrier_times(settings, log.horizon)
    except ValueError as exc:
        raise DataError(f"trace spans {log.horizon} h: {exc}") from None
    if not barriers:
        raise DataError(f"trace spans {log.horizon} h, too short for a refit barrier at {cfg['t_theta']} h")
    out_dir = args.out or "fit_out"
    os.makedirs(out_dir, exist_ok=True)
    started = time.perf_counter()
    schedule = fit_schedule(settings, log, log.horizon, start, keep_all=False)
    records = [{"round": idx, "t_theta": t_theta, "loss": loss} for t_theta, idx, loss in schedule.losses]
    schedule.params[-1].save(os.path.join(out_dir, "params.json"))
    with open(os.path.join(out_dir, "fit_log.json"), "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")
    write_manifest(
        out_dir,
        "fit",
        cfg,
        ["params.json", "fit_log.json"],
        {"fit": time.perf_counter() - started},
    )
    print(f"fit complete: {len(records)} recorded iterations; params in {out_dir}/params.json")
    return EXIT_OK


def _parse_sweep(raw: str | None) -> tuple[str, list[float]]:
    if raw is None:
        return "", []
    if "=" not in raw:
        raise UsageError("--sweep expects name=v1,v2,... with name in {f, xi, c}")
    name, _, values = raw.partition("=")
    name = name.strip()
    if name not in ("f", "xi", "c"):
        raise UsageError(f"unknown sweep parameter {name!r}; choose f, xi, or c")
    try:
        parsed = [float(v) for v in values.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"cannot parse sweep values {values!r}") from None
    if not parsed:
        raise UsageError("sweep value list is empty")
    if name == "f" and not all(v.is_integer() for v in parsed):
        raise UsageError(f"sweep values for f must be whole numbers, got {values!r}")
    return name, parsed


def _policies(raw: str) -> list[str]:
    """The policies of a comma-separated list, each one checked."""
    policies = [p.strip() for p in raw.split(",") if p.strip()]
    if not policies:
        raise UsageError("no policy given")
    for p in policies:
        if p not in POLICIES:
            raise UsageError(f"invalid policy {p!r}; valid policies: {', '.join(POLICIES)}")
    return policies


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else int(cfg["seed"])
    policies = _policies(args.policy or str(cfg["policy"]))
    sweep_name, sweep_values = _parse_sweep(args.sweep)
    _print_config(cfg, {"seed": seed, "policy": ",".join(policies), "sweep": args.sweep or "-"})

    # Every run's settings are validated before the trace is read.
    planned = []
    for policy in policies:
        for value in sweep_values or [float(cfg[sweep_name or "c"])]:
            if any((policy, value) == (p, v) for p, v, _ in planned):
                raise UsageError(f"run policy={policy} {sweep_name or 'run'}={value} is listed twice")
            run_cfg = dict(cfg)
            if sweep_name:
                run_cfg[sweep_name] = int(value) if sweep_name == "f" else float(value)
            planned.append((policy, value, _sim_config(run_cfg, policy, seed)))
    # load_trace floors stamps to multiples of quantize and ends a trace one
    # slot past its last stamp, which must be at or after init_horizon with a
    # non-empty slot over by horizon. In its arithmetic, no trace passes if
    # the first stamp from init_horizon on does not.
    q, init, horizon = float(cfg["quantize"]), float(cfg["init_horizon"]), float(cfg["horizon"])
    with np.errstate(over="ignore"):
        slot = trace.slot_index(np.float64(init), q)
        first = float(slot * q if slot * q >= init else (slot + 1) * q)
    if not (first + q <= horizon and q >= math.ulp(first) / 2):
        raise UsageError(
            f"quantize {q} h leaves no request to score: the first slot from init_horizon {init} h "
            f"spans [{first}, {first + q}) h, which must be non-empty and end by horizon {horizon} h"
        )

    log = trace.load_trace(args.trace, quantize_hours=float(cfg["quantize"]))
    if log.horizon > float(cfg["horizon"]):
        raise DataError(f"trace spans {log.horizon} h, past the configured horizon {cfg['horizon']} h")
    last, init = float(log.timestamps[-1]), float(cfg["init_horizon"])
    if last < init:
        raise DataError(f"no request to score: the last stamp {last} h is before init_horizon {init} h")
    out_dir = args.out or "sim_out"
    os.makedirs(out_dir, exist_ok=True)

    # Runs differ only in policy, f, xi or c, which no fit reads: one schedule serves all.
    started = time.perf_counter()
    schedule = next((fit_schedule(c, log, c.test_horizon) for _, _, c in planned if c.policy in FITTED_POLICIES), None)
    fit_s = time.perf_counter() - started
    runs = []
    for policy, value, sim_cfg in planned:
        report = run_simulation(sim_cfg, log, schedule)
        runs.append((policy, float(value), report))
        print(
            f"policy={policy} {sweep_name or 'run'}={value}: "
            f"chr={report.chr_value:.6f} mean_js={report.mean_js:.6f} "
            f"requests={report.requests}"
        )
    outputs = write_reports(out_dir, runs, sweep_name or "value", float(cfg["c"]))
    write_manifest(out_dir, "simulate", cfg, outputs, {"fit": fit_s, "simulate": time.perf_counter() - started - fit_s})
    return EXIT_OK


def cmd_eval_cr(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else int(cfg["seed"])
    _print_config(cfg, {"seed": seed})
    lower, upper = _bounds(cfg) or (1.0, 10.0)
    # Instances charge unit costs, and the bound assumes unit_cost <= budget / 20.
    if int(cfg["cr_budget_units"]) < 20:
        raise UsageError(f"cr_budget_units must be at least 20, got {cfg['cr_budget_units']}")
    # With no instance, video, step or prefetch slot every optimum is 0, so
    # the check would skip every instance and still report a worst ratio.
    for key in ("cr_instances", "cr_videos", "cr_steps", "cr_cap"):
        if int(cfg[key]) < 1:
            raise UsageError(f"{key} must be at least 1, got {cfg[key]}")
    n_videos, steps = int(cfg["cr_videos"]), int(cfg["cr_steps"])
    if n_videos * steps > 24:
        raise UsageError(f"cr_videos * cr_steps = {n_videos * steps} exceeds the exact-oracle guard of 24")
    # Below the normal float range the spacing of floats outgrows the nudge
    # below, so utilities round onto the bounds and fail the strict bar.
    if upper == lower < sys.float_info.min:
        raise UsageError(f"equal lower and upper must be at least {sys.float_info.min}, got {lower}")
    try:
        if upper == lower:
            # Strict ratio bounds leave no admissible utilities when the interval
            # is empty; nudge the lower bound so the degenerate check stays runnable.
            tc = scheduler.ThresholdConfig(lower=lower * (1 - 1e-9), upper=upper)
        else:
            tc = scheduler.ThresholdConfig(lower=lower, upper=upper)
        ledger = scheduler.PrivacyLedger.uniform(n_videos, int(cfg["cr_budget_units"]), 1, int(cfg["cr_cap"]))
        utilities = scheduler.random_cr_utilities(int(cfg["cr_instances"]), n_videos, steps, tc, seed)
    except ValueError as exc:
        raise UsageError(f"invalid configuration: {exc}") from None
    worst = scheduler.empirical_cr(utilities, ledger, tc, seed=seed + 1)
    print(f"bound 1+ln(U/L) = {tc.cr_bound:.6f}")
    print(f"worst OPT/ALG over {len(utilities)} instances = {worst:.6f}")
    return EXIT_OK


def cmd_report(args) -> int:
    out_dir = args.out or "sim_out"
    manifest_path = os.path.join(out_dir, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read manifest: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("outputs", {}), dict):
        raise DataError(f"{manifest_path} is not a manifest object")
    for name in manifest.get("outputs", {}):
        if name in ("", ".", "..") or os.path.basename(name) != name:
            raise DataError(f"manifest output {name!r} is not a file name inside {out_dir}")
    print(f"command: {manifest.get('command')}  version: {manifest.get('version')}")
    bad = []
    for name, digest in sorted(manifest.get("outputs", {}).items()):
        path = os.path.join(out_dir, name)
        actual = _sha256(path) if os.path.exists(path) else "<missing>"
        status = "ok" if actual == digest else "MISMATCH"
        if status != "ok":
            bad.append(name)
        print(f"  {name}: {status}")
        if name.endswith(".csv") and status == "ok":
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    lines = fh.read().splitlines()[:12]
            except UnicodeDecodeError as exc:
                raise DataError(f"{name} is not UTF-8 text: {exc}") from None
            for line in lines:
                print(f"    {line}")
    if bad:
        raise DataError(f"manifest hash mismatch for: {', '.join(bad)}")
    return EXIT_OK


# -- driver --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ppvf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--config": {"help": "flat key = value configuration file"},
        "--seed": {"type": int, "help": "master seed (overrides config)"},
        "--trace": {"required": True, "help": "input trace file"},
        "--out": {"help": "output file or directory"},
        "--init-params": {"help": "resume from a params.json checkpoint"},
        "--policy": {"help": f"comma-separated policies ({', '.join(POLICIES)})"},
        "--sweep": {"help": "sweep one of f, xi, c: e.g. c=0.001,0.01,0.1"},
    }
    # Each subcommand takes only the flags it reads.
    for name, func, summary, names in (
        ("gen-trace", cmd_gen_trace, "generate a synthetic trace file", "--config --seed --out"),
        ("fit", cmd_fit, "fit model parameters over a trace", "--config --trace --out --init-params"),
        (
            "simulate",
            cmd_simulate,
            "run policies over a trace and emit CSV reports",
            "--config --seed --trace --out --policy --sweep",
        ),
        ("eval-cr", cmd_eval_cr, "verify the competitive-ratio bound empirically", "--config --seed"),
        ("report", cmd_report, "summarize and verify an output directory", "--out"),
    ):
        p = sub.add_parser(name, help=summary)
        for flag in names.split():
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except scheduler.CompetitiveRatioViolation as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
