import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ppvf
from ppvf import cli, sim, trace
from ppvf.predictor import ModelParams


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_config(tmp_path, **overrides):
    base = {
        "catalog_size": 30,
        "edges": 2,
        "horizon": 120.0,
        "init_horizon": 24.0,
        "mean_base": 0.08,
        "branching": 0.2,
        "latent_dim": 2,
        "max_iters": 2,
        "eta": 1e-3,
        "c": 0.1,
        "t_theta": 48.0,
    }
    base.update(overrides)
    path = tmp_path / "run.cfg"
    path.write_text("# test config\n" + "".join(f"{k} = {v}\n" for k, v in base.items()))
    return str(path)


@pytest.fixture()
def tiny_trace(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "trace.csv")
    assert cli.main(["gen-trace", "--config", cfg, "--seed", "5", "--out", out]) == 0
    return cfg, out


# The runtime step's run.cfg in the CI workflow.
_CI_CONFIG = [
    "catalog_size = 30", "edges = 2", "horizon = 120", "init_horizon = 24",
    "latent_dim = 2", "max_iters = 2", "c = 0.1", "cr_instances = 10",
]


@pytest.fixture()
def ci_trace(tmp_path):
    cfg = tmp_path / "ci.cfg"
    cfg.write_text("\n".join(_CI_CONFIG) + "\n")
    out = str(tmp_path / "ci_trace.csv")
    assert cli.main(["gen-trace", "--config", str(cfg), "--seed", "5", "--out", out]) == 0
    return str(cfg), out


class TestGenTrace:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert cli.main(["gen-trace", "--config", cfg, "--seed", "7", "--out", a]) == 0
        assert cli.main(["gen-trace", "--config", cfg, "--seed", "7", "--out", b]) == 0
        assert sha(a) == sha(b)

    def test_different_seed_differs(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert cli.main(["gen-trace", "--config", cfg, "--seed", "7", "--out", a]) == 0
        assert cli.main(["gen-trace", "--config", cfg, "--seed", "8", "--out", b]) == 0
        assert sha(a) != sha(b)

    def test_round_trip_shape(self, tmp_path):
        cfg = write_config(tmp_path, catalog_size=50, edges=5, horizon=200.0)
        out = str(tmp_path / "t.csv")
        assert cli.main(["gen-trace", "--config", cfg, "--seed", "3", "--out", out]) == 0
        log = trace.load_trace(out, quantize_hours=1e-9)
        assert log.catalog_size <= 50
        assert log.edge_count == 5

    @pytest.mark.parametrize(
        "setting",
        [
            {"catalog_size": trace.MAX_VIDEO_ID + 2},
            {"edges": trace.MAX_EDGE_ID + 2},
            {"edges": 3, "users_per_edge": 2**62},
            {"edges": 1, "users_per_edge": 10**23},
        ],
        ids=["catalog-past-video-ids", "edges-past-edge-ids", "user-ids-past-int64", "users-per-edge-past-int64"],
    )
    def test_ids_past_trace_limits_usage_error(self, tmp_path, capsys, setting):
        cfg = write_config(tmp_path, **setting)
        out = tmp_path / "t.csv"
        capsys.readouterr()
        assert cli.main(["gen-trace", "--config", cfg, "--seed", "3", "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:")
        assert not out.exists()

    def test_huge_base_rate_refused_before_any_draw(self, tmp_path, capsys):
        # Thinning at this rate would step time by about 1e-300 h per event.
        cfg = tmp_path / "ci.cfg"
        cfg.write_text("\n".join(_CI_CONFIG + ["mean_base = 1e300"]) + "\n")
        out = tmp_path / "t.csv"
        capsys.readouterr()
        started = time.perf_counter()
        code = cli.main(["gen-trace", "--config", str(cfg), "--seed", "5", "--out", str(out)])
        assert time.perf_counter() - started < 10.0
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:") and "past the limit" in err[0]
        assert not out.exists()

    def test_draw_without_events_usage_error(self, tmp_path, capsys):
        # fit and simulate reject a trace with no record, so none is written.
        cfg = write_config(tmp_path, mean_base=0)
        out = tmp_path / "new" / "t.csv"
        capsys.readouterr()
        assert cli.main(["gen-trace", "--config", cfg, "--seed", "5", "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:") and "no event" in err[0], err
        assert not out.parent.exists()


class TestSimulate:
    def test_single_policy_one_row(self, tiny_trace, tmp_path):
        cfg, tr = tiny_trace
        out = str(tmp_path / "out_lru")
        assert cli.main(["simulate", "--config", cfg, "--trace", tr, "--policy", "lru", "--out", out]) == 0
        rows = Path(out, "chr.csv").read_text().splitlines()
        assert rows[0] == "policy,capacity,chr"
        assert len(rows) == 2
        assert rows[1].startswith("lru,")

    def test_sweep_three_capacities(self, tiny_trace, tmp_path):
        cfg, tr = tiny_trace
        out = str(tmp_path / "out_sweep")
        code = cli.main(
            [
                "simulate", "--config", cfg, "--trace", tr,
                "--policy", "lru,lfu", "--sweep", "c=0.05,0.1,0.2", "--out", out,
            ]
        )
        assert code == 0
        rows = Path(out, "chr.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 3

    def test_manifest_lists_hashes(self, tiny_trace, tmp_path):
        cfg, tr = tiny_trace
        out = str(tmp_path / "out_manifest")
        assert cli.main(["simulate", "--config", cfg, "--trace", tr, "--policy", "ppvf", "--out", out]) == 0
        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert set(manifest["timings_seconds"]) == {"fit", "simulate"}
        assert set(manifest["outputs"]) >= {"chr.csv", "js.csv", "budget_cdf.csv", "fl_loss.csv"}
        for name, digest in manifest["outputs"].items():
            assert sha(os.path.join(out, name)) == digest

    def test_manifest_written_when_git_describe_times_out(self, tiny_trace, tmp_path, monkeypatch):
        def run(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

        monkeypatch.setattr(subprocess, "run", run)
        cfg, tr = tiny_trace
        out = str(tmp_path / "out_manifest")
        assert cli.main(["simulate", "--config", cfg, "--trace", tr, "--policy", "lru", "--out", out]) == 0
        assert json.loads(Path(out, "manifest.json").read_text())["version"] == f"v{ppvf.__version__}"

    def test_sweep_over_fitted_policies_fits_each_barrier_once(self, tiny_trace, tmp_path, monkeypatch):
        # No fit reads the policy, f, xi or c, so the nine runs of a
        # three-value sweep over the fitted policies replay one schedule.
        cfg, tr = tiny_trace
        fits = Counter()
        real_fit_round = sim.run_fit_round

        def spy(edge_logs, params, window, train):
            fits[window.end] += 1
            return real_fit_round(edge_logs, params, window, train)

        monkeypatch.setattr(sim, "run_fit_round", spy)
        argv = ["simulate", "--config", cfg, "--trace", tr, "--policy", "ppvf,sage,bestfit", "--sweep", "c=0.05,0.1,0.2"]
        assert cli.main(argv + ["--out", str(tmp_path / "out_fit_once")]) == 0
        assert fits == {48.0: 1, 96.0: 1}

    def test_invalid_policy_usage_error(self, tiny_trace, tmp_path):
        cfg, tr = tiny_trace
        code = cli.main(
            ["simulate", "--config", cfg, "--trace", tr, "--policy", "nonsense", "--out", str(tmp_path / "x")]
        )
        assert code == cli.EXIT_USAGE

    def test_missing_trace_data_error(self, tmp_path):
        cfg = write_config(tmp_path)
        code = cli.main(["simulate", "--config", cfg, "--trace", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_DATA


class TestEvalCr:
    def test_default_suite_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, cr_instances=30)
        assert cli.main(["eval-cr", "--config", cfg, "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "bound 1+ln(U/L)" in out
        assert "worst OPT/ALG" in out

    def test_equal_bounds_prints_unit_bound(self, tmp_path, capsys):
        cfg = write_config(tmp_path, cr_instances=10, lower=5.0, upper=5.0)
        assert cli.main(["eval-cr", "--config", cfg, "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "bound 1+ln(U/L) = 1.000000" in out

    @pytest.mark.parametrize("bound", ["1e-300", repr(sys.float_info.min)])
    def test_equal_bounds_down_to_the_normal_range_pass(self, tmp_path, capsys, bound):
        cfg = write_config(tmp_path, cr_instances=5, lower=bound, upper=bound)
        assert cli.main(["eval-cr", "--config", cfg, "--seed", "2"]) == 0
        assert "bound 1+ln(U/L) = 1.000000" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "lines, seed, digest, last",
        [
            ([], 2, "7abf0f0e80dd36f7bd153a8699324a2ae3f2c086ae37cf5001e88bfb371dbdcc", "200 instances = 1.531919"),
            (
                ["cr_videos = 1", "cr_steps = 24", "cr_cap = 1", "cr_instances = 30"],
                3,
                "1c3eaaf6d31c5c8c516f0cd493bb2a546612b39313eacdb078b787d91e138b1f",
                "30 instances = 1.270326",
            ),
            (
                ["cr_videos = 1", "cr_steps = 24", "cr_cap = 1", "cr_instances = 30"],
                7,
                "8dad9108eb0dda5500ad7af938e6a3b8a181e16d8886dd87b876b79e08568ce1",
                "30 instances = 1.293255",
            ),
        ],
        ids=["default-seed-2", "binding-budget-seed-3", "binding-budget-seed-7"],
    )
    def test_stdout_bytes_pinned(self, tmp_path, capsys, lines, seed, digest, last):
        # Whole stdout, effective configuration included, as first recorded.
        path = tmp_path / "cr.cfg"
        path.write_text("".join(f"{line}\n" for line in lines))
        capsys.readouterr()
        assert cli.main(["eval-cr", "--config", str(path), "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == f"worst OPT/ALG over {last}"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_oversized_instance_clean_error(self, tmp_path, capsys):
        # The settings alone make the instance too large for the exact oracle.
        cfg = write_config(tmp_path, cr_videos=6, cr_steps=8)
        capsys.readouterr()
        assert cli.main(["eval-cr", "--config", cfg]) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:") and "guard of 24" in err[0]

    @pytest.mark.parametrize(
        "setting",
        [
            {"lower": "nan", "upper": 5},
            {"lower": 5, "upper": 1},
            {"cr_budget_units": -1},
            {"cr_budget_units": 5},
            {"cr_instances": 0},
            {"cr_instances": -3},
            {"cr_videos": 0},
            {"cr_steps": 0},
            {"cr_cap": 0},
            {"cr_videos": 25},
            {"cr_videos": 25, "cr_steps": 1},
            {"lower": "1e-300", "upper": "1e300"},
            # At 1e-320 eval-cr's nudge rounds back onto the bound; at 1e-314 it
            # moves it a few float steps, and utilities still round onto the bounds.
            {"lower": "1e-320", "upper": "1e-320"},
            {"lower": "1e-314", "upper": "1e-314"},
        ],
        ids=[
            "lower-nan", "lower-above-upper", "budget-negative", "budget-below-small-cost",
            "no-instances", "negative-instances", "no-videos", "no-steps", "no-slots",
            "videos-past-oracle-guard", "one-step-past-oracle-guard", "bounds-ratio-overflows",
            "equal-bounds-1e-320", "equal-bounds-1e-314",
        ],
    )
    def test_bad_setting_usage_error(self, tmp_path, capsys, setting):
        cfg = write_config(tmp_path, **{"cr_instances": 5, **setting})
        capsys.readouterr()
        assert cli.main(["eval-cr", "--config", cfg]) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:")


class TestUsage:
    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mystery_key = 4\n")
        assert cli.main(["eval-cr", "--config", str(path)]) == cli.EXIT_USAGE

    def test_unparseable_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("xi = lots\n")
        assert cli.main(["eval-cr", "--config", str(path)]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("key", sorted(cli.DEFAULTS))
    def test_config_value_loads_with_its_defaults_type(self, tmp_path, key):
        default = cli.DEFAULTS[key]
        path = tmp_path / "one.cfg"
        path.write_text(f"{key} = {default}\n")
        value = cli.load_config(str(path))[key]
        assert type(value) is type(default) and value == default

    def test_bad_sweep_spec(self, tiny_trace, tmp_path):
        cfg, tr = tiny_trace
        code = cli.main(["simulate", "--config", cfg, "--trace", tr, "--sweep", "q=1,2", "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_USAGE

    def test_unknown_flag(self):
        assert cli.main(["simulate", "--nonsense"]) == cli.EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [["eval-cr", "--bogus", "1"], ["eval-cr", "--seed", "x"], ["simulate", "--policy", "lru"]],
        ids=["unknown-flag", "non-integer-seed", "missing-trace"],
    )
    def test_argument_error_is_one_usage_line(self, capsys, argv):
        assert cli.main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:"), err

    def test_help_still_prints(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval-cr", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ppvf eval-cr")

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("gen-trace", "--threads"),
            ("fit", "--seed"),
            ("fit", "--threads"),
            ("eval-cr", "--out"),
            ("eval-cr", "--threads"),
            ("report", "--config"),
            ("report", "--seed"),
            ("report", "--threads"),
            ("simulate", "--threads"),
        ],
    )
    def test_flag_the_subcommand_does_not_read_usage_error(self, tmp_path, capsys, command, flag):
        argv = [command, flag, "3"]
        if command in ("fit", "simulate"):
            argv += ["--trace", str(tmp_path / "trace.csv")]
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:") and flag in err[0], err
        assert list(tmp_path.iterdir()) == []

    def test_key_set_twice_usage_error(self, tmp_path, capsys):
        path = tmp_path / "twice.cfg"
        path.write_text("seed = 1\nc = 0.1\n\n# later\nc = 0.5\n", encoding="utf-8")
        assert cli.main(["eval-cr", "--config", str(path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert err == ["usage error: config line 5: key 'c' is already set on line 2"]

    def test_out_of_range_cache_fraction_usage_error(self, tiny_trace, tmp_path, capsys):
        _, tr = tiny_trace
        cfg = write_config(tmp_path, c=2)
        code = cli.main(["simulate", "--config", cfg, "--trace", tr, "--policy", "lru", "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:")

    def test_zero_latent_dim_usage_error(self, tiny_trace, tmp_path, capsys):
        _, tr = tiny_trace
        cfg = write_config(tmp_path, latent_dim=0)
        code = cli.main(["simulate", "--config", cfg, "--trace", tr, "--policy", "ppvf", "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:")

    @pytest.mark.parametrize(
        "command, setting",
        [
            ("simulate", {"phi_th": 2}),
            ("simulate", {"delta": 0}),
            ("simulate", {"quantize": 0}),
            ("gen-trace", {"edges": 0}),
            ("fit", {"latent_dim": 0}),
            ("simulate", {"horizon": "inf"}),
            ("gen-trace", {"horizon": "inf"}),
            ("simulate", {"xi": "nan"}),
            ("simulate", {"epsilon": "inf"}),
            ("simulate", {"lower": 5, "upper": 1}),
            ("simulate", {"eta": "inf"}),
            ("simulate", {"lower": 2}),
            ("fit", {"upper": 5}),
            ("simulate", {"seed": -1}),
            ("fit", {"seed": -1}),
            ("eval-cr", {"lower": 5}),
            ("eval-cr", {"upper": 0.5}),
            ("gen-trace", {"branching": 1.5}),
            ("simulate", {"lower": "1e-300", "upper": "1e300"}),
            ("simulate", {"delta": "1e-320"}),
            ("fit", {"delta": "1e-320", "policy": "lru"}),
        ],
        ids=[
            "phi_th", "delta", "quantize", "edges", "latent_dim",
            "horizon-inf", "gen-trace-horizon-inf", "xi-nan", "epsilon-inf", "lower-above-upper", "eta-inf",
            "lower-alone", "fit-upper-alone", "negative-seed", "fit-negative-seed",
            "eval-cr-lower-alone", "eval-cr-upper-alone", "gen-trace-explosive-branching", "bounds-ratio-overflows",
            "window-inf", "fit-lru-window-inf",
        ],
    )
    def test_out_of_range_setting_usage_error(self, tiny_trace, tmp_path, capsys, command, setting):
        _, tr = tiny_trace
        cfg = write_config(tmp_path, **setting)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "x")]
        if command in ("fit", "simulate"):
            argv += ["--trace", tr]
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:")

    def test_non_utf8_config_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"# caf\xff\nseed = 1\n")
        assert cli.main(["eval-cr", "--config", str(path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:")

    def test_empty_policy_list_usage_error(self, tiny_trace, tmp_path, capsys):
        cfg, tr = tiny_trace
        capsys.readouterr()
        code = cli.main(["simulate", "--config", cfg, "--trace", tr, "--policy", ",", "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:")
        assert not os.path.exists(tmp_path / "x")

    @pytest.mark.parametrize(
        "flags, duplicate",
        [(["--policy", "ppvf,lru,ppvf"], "policy=ppvf run=0.1"), (["--sweep", "f=2,3,2.0"], "policy=lru f=2.0")],
        ids=["policy", "sweep-value"],
    )
    def test_duplicate_run_usage_error(self, tiny_trace, tmp_path, capsys, flags, duplicate):
        cfg, tr = tiny_trace
        capsys.readouterr()
        code = cli.main(["simulate", "--config", cfg, "--trace", tr, "--policy", "lru", *flags, "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:") and duplicate in err[0]
        assert not os.path.exists(tmp_path / "x")

    def test_fractional_prefetch_sweep_usage_error(self, tiny_trace, tmp_path, capsys):
        cfg, tr = tiny_trace
        capsys.readouterr()
        code = cli.main(["simulate", "--config", cfg, "--trace", tr, "--sweep", "f=2.5", "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:")

    def test_trace_past_horizon_data_error(self, tiny_trace, tmp_path, capsys):
        _, tr = tiny_trace
        cfg = write_config(tmp_path, horizon=60.0)
        capsys.readouterr()
        code = cli.main(["simulate", "--config", cfg, "--trace", tr, "--policy", "lru", "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")

    def test_trace_before_init_horizon_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)  # init_horizon = 24
        early = tmp_path / "early.csv"
        early.write_text("0,0,1,0.5\n0,0,2,23.5\n")
        capsys.readouterr()
        code = cli.main(["simulate", "--config", cfg, "--trace", str(early), "--policy", "lru", "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:") and "stamp 23.0 h" in err[0] and "24.0" in err[0]
        assert not os.path.exists(tmp_path / "x")

    @pytest.mark.parametrize("quantize", [200, 120, 100, 61])
    def test_quantize_no_trace_can_score_usage_error(self, ci_trace, tmp_path, capsys, quantize):
        # A scored stamp is a multiple of quantize at or after init_horizon
        # (24 h), and the trace ends one slot past it, by horizon (120 h).
        cfg, tr = ci_trace
        with open(cfg, "a", encoding="utf-8") as fh:
            fh.write(f"quantize = {quantize}\n")
        capsys.readouterr()
        code = cli.main(["simulate", "--config", cfg, "--trace", tr, "--policy", "lru", "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"usage error: quantize {float(quantize)} h"), err
        assert not os.path.exists(tmp_path / "x")
        # fit compares no trace with horizon.
        assert cli.main(["fit", "--config", cfg, "--trace", tr, "--out", str(tmp_path / "fit")]) == cli.EXIT_OK

    def test_quantize_whose_first_scored_slot_ends_at_horizon_runs(self, ci_trace, tmp_path):
        cfg, tr = ci_trace
        with open(cfg, "a", encoding="utf-8") as fh:
            fh.write("quantize = 60\n")
        assert cli.main(["simulate", "--config", cfg, "--trace", tr, "--policy", "lru", "--out", str(tmp_path / "x")]) == 0

    @pytest.mark.parametrize("quantize", ["1e-300", "2e-308"])
    def test_quantize_whose_slots_vanish_past_init_horizon_usage_error(self, ci_trace, tmp_path, capsys, quantize):
        # Past init_horizon a stamp plus one slot rounds back to the stamp, or
        # the stamp overflows, so no trace has a slot to end.
        cfg, tr = ci_trace
        with open(cfg, "a", encoding="utf-8") as fh:
            fh.write(f"quantize = {quantize}\n")
        capsys.readouterr()
        code = cli.main(["simulate", "--config", cfg, "--trace", tr, "--policy", "lru", "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: quantize"), err

    def test_fit_quantize_past_barrier_limit_usage_error(self, ci_trace, tmp_path, capsys):
        # Every trace spans at least one slot, here past sim.MAX_BARRIERS refits.
        cfg, tr = ci_trace
        with open(cfg, "a", encoding="utf-8") as fh:
            fh.write("quantize = 1e300\n")
        capsys.readouterr()
        assert cli.main(["fit", "--config", cfg, "--trace", tr, "--out", str(tmp_path / "fit")]) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: quantize") and "fitting barriers" in err[0], err

    def test_horizon_past_barrier_limit_usage_error(self, tiny_trace, tmp_path, capsys):
        _, tr = tiny_trace
        cfg = write_config(tmp_path, horizon=1e17)
        capsys.readouterr()
        started = time.perf_counter()
        code = cli.main(["simulate", "--config", cfg, "--trace", tr, "--policy", "ppvf", "--out", str(tmp_path / "x")])
        assert time.perf_counter() - started < 1.0
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:") and "fitting barriers" in err[0]

    def test_fit_past_barrier_limit_data_error(self, tmp_path, capsys):
        # fit refits up to the trace's own horizon, one slot past its last stamp.
        cfg = write_config(tmp_path)
        far = tmp_path / "far.csv"
        far.write_text("0,0,1,0.5\n0,0,2,1e15\n")
        capsys.readouterr()
        started = time.perf_counter()
        code = cli.main(["fit", "--config", cfg, "--trace", str(far), "--out", str(tmp_path / "fit")])
        assert time.perf_counter() - started < 1.0
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:") and "fitting barriers" in err[0]

    def test_fit_without_a_refit_barrier_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)  # t_theta = 48
        short = tmp_path / "short.csv"
        short.write_text("0,0,1,1.5\n")
        capsys.readouterr()
        code = cli.main(["fit", "--config", cfg, "--trace", str(short), "--out", str(tmp_path / "fit")])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:") and "refit barrier" in err[0]
        assert not (tmp_path / "fit" / "params.json").exists()

    def test_trace_directory_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = cli.main(["simulate", "--config", cfg, "--trace", str(tmp_path), "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")

    def test_non_utf8_trace_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"0,0,1,0.5\n0,0,\xff,1.5\n")
        code = cli.main(["simulate", "--config", cfg, "--trace", str(bad), "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")

    @pytest.mark.parametrize(
        "record",
        [
            "99999999999999999999,0,1,1",
            "0,0,99999999999999999999,1",
            "0,0,1,1e308",
            "1000000000000,0,1,1",
            "0,0,1000000000000,1",
        ],
        ids=["edge-id-past-int64", "video-id-past-int64", "stamp-without-slot", "edge-id-past-limit", "video-id-past-limit"],
    )
    def test_unrepresentable_trace_field_data_error(self, tmp_path, capsys, record):
        cfg = write_config(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text(f"0,0,1,0.5\n{record}\n")
        capsys.readouterr()
        code = cli.main(["simulate", "--config", cfg, "--trace", str(bad), "--out", str(tmp_path / "x")])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: line 2:")


# Ids stay small, lie past trace.MAX_EDGE_ID or trace.MAX_VIDEO_ID, or leave
# the int64 range. Config values stay in ranges whose runs finish in
# milliseconds.
_ID = st.one_of(
    st.integers(-3, 40),
    st.integers(trace.MAX_EDGE_ID + 1, 2**63 - 1),
    st.integers(trace.MAX_VIDEO_ID + 1, 2**63 - 1),
    st.integers(2**63, 2**80),
    st.integers(-(2**80), -(2**63) - 1),
).map(str)
_FIELD = st.one_of(
    _ID,
    st.integers(-(2**80), 2**80).map(str),
    st.floats().map(repr),
    st.sampled_from(["", " 7 ", "x", "1.5", "0x1", "1e308", "1e999", "-0.0", "nan"]),
)
_RECORD = st.one_of(
    st.tuples(_ID, _FIELD, _ID, _FIELD).map(",".join),
    st.lists(_FIELD, max_size=6).map(",".join),
    st.text(max_size=20),
)
_GOOD_RECORD = st.tuples(st.integers(0, 40), st.integers(-5, 10**6), st.integers(0, 40), st.floats(0, 23.9)).map(
    lambda fields: ",".join(map(str, fields))
)
_TRACE_BYTES = st.one_of(
    st.binary(max_size=120),
    st.tuples(st.lists(_GOOD_RECORD, max_size=8), st.lists(_RECORD, max_size=2)).map(
        lambda parts: "\n".join(parts[0] + parts[1]).encode("utf-8", "surrogatepass")
    ),
)
_VALUE = st.sampled_from(
    [
        "0", "-1", "1", "2", "3", "0.5", "24", "nan", "inf", "-inf", "1e400", "1e300", "1e150", "1e-300",
        "", "x", "lru", "ppvf,sage,bestfit,mav,lru,lfu",
    ]
)
_SETTING = st.one_of(
    st.tuples(st.sampled_from(sorted(cli.DEFAULTS)), _VALUE).map(" = ".join),
    st.text(max_size=20),
)
_SMALL_RUN = "horizon = 24\ninit_horizon = 12\nt_theta = 12\nmax_iters = 2\nlatent_dim = 2\nc = 0.2\n"
_CONFIG_TEXT = st.one_of(
    st.text(max_size=80),
    st.lists(_SETTING, max_size=6).map(lambda lines: _SMALL_RUN + "\n".join(lines)),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trace_bytes=_TRACE_BYTES, config_text=_CONFIG_TEXT)
def test_arbitrary_trace_and_config_end_in_a_documented_exit(trace_bytes, config_text):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        tr, cfg = os.path.join(tmp, "trace.csv"), os.path.join(tmp, "run.cfg")
        with open(tr, "wb") as fh:
            fh.write(trace_bytes)
        with open(cfg, "w", encoding="utf-8", errors="surrogatepass") as fh:
            fh.write(config_text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["simulate", "--config", cfg, "--trace", tr, "--out", os.path.join(tmp, "out")])
    err = err.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA)
    assert "Traceback" not in err
    if code != cli.EXIT_OK:
        assert len(err.splitlines()) == 1


# Two valid traces that differ in catalog (30 and 12 videos), edges (2 and 3)
# and span (24 h and 18 h); both request videos before and after _SMALL_RUN's
# init_horizon.
_TRACES = (
    "".join(f"{i % 2},{i % 5},{7 * i % 30},{0.59 * i}\n" for i in range(41)),
    "".join(f"{i % 3},{i % 4},{5 * i % 12},{0.44 * i}\n" for i in range(41)),
)
# The data errors that both traces may end in with one message. Each is
# decided by the trace, not by the settings alone, for the reason given.
_SAME_DATA_ERRORS = {
    "estimated ratio bounds: ": "the bounds are the warmup utilities over epsilon, and the trace sets the "
    "utilities; a trace whose test requests all hit never estimates them",
    "non-finite likelihood from edge index 0": "a tiny delta leaves the likelihood window finite, and only "
    "the edge's requests over its catalog overflow the likelihood",
}
_RUN_SETTINGS = st.dictionaries(st.sampled_from(sorted(cli.DEFAULTS)), _VALUE, max_size=2)


@settings(derandomize=True, max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(drawn={"quantize": "24"})
@example(drawn={"quantize": "1e300"})
@given(drawn=_RUN_SETTINGS)
def test_usage_errors_do_not_depend_on_the_trace(drawn):
    # A usage error is the settings' alone: it ends both traces' runs with
    # one message. A data error that does the same is allowlisted above.
    small_run = dict(line.split(" = ") for line in _SMALL_RUN.splitlines())
    config_text = "".join(f"{key} = {value}\n" for key, value in {**small_run, **drawn}.items())
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        Path(cfg).write_text(config_text, encoding="utf-8")
        paths = [os.path.join(tmp, f"trace{i}.csv") for i in range(2)]
        for path, text in zip(paths, _TRACES):
            Path(path).write_text(text, encoding="utf-8")
        for command in ("simulate", "fit"):
            ends = []
            for i, path in enumerate(paths):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli.main([command, "--config", cfg, "--trace", path, "--out", os.path.join(tmp, f"{command}{i}")])
                ends.append((code, err.getvalue()))
            (code, err), other = ends
            assert (code == cli.EXIT_USAGE) == (other[0] == cli.EXIT_USAGE), (command, ends)
            if code == cli.EXIT_USAGE:
                assert err == other[1], (command, ends)
            elif (code, err) == other and code == cli.EXIT_DATA:
                assert any(err.startswith("data error: " + message) for message in _SAME_DATA_ERRORS), (command, err)


class TestFitAndReport:
    def test_fit_writes_checkpoint_and_sidecar(self, tiny_trace, tmp_path):
        cfg, tr = tiny_trace
        out = str(tmp_path / "fit_out")
        assert cli.main(["fit", "--config", cfg, "--trace", tr, "--out", out]) == 0
        params_doc = json.loads(Path(out, "params.json").read_text())
        assert set(params_doc) == {"beta", "p", "q", "delta", "D"}
        records = json.loads(Path(out, "fit_log.json").read_text())
        assert records and {"round", "t_theta", "loss"} <= set(records[0])

    def test_fit_accepts_every_policy_list_simulate_accepts(self, tiny_trace, tmp_path, capsys):
        _, tr = tiny_trace
        cfg = write_config(tmp_path, policy="lru,ppvf")
        assert cli.main(["fit", "--config", cfg, "--trace", tr, "--out", str(tmp_path / "fit")]) == 0
        assert (tmp_path / "fit" / "params.json").exists()
        cfg = write_config(tmp_path, policy="lru,bogus")
        capsys.readouterr()
        assert cli.main(["fit", "--config", cfg, "--trace", tr, "--out", str(tmp_path / "fit2")]) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:") and "'bogus'" in err[0]

    def test_fit_resume_from_checkpoint(self, tiny_trace, tmp_path):
        cfg, tr = tiny_trace
        first = str(tmp_path / "fit1")
        assert cli.main(["fit", "--config", cfg, "--trace", tr, "--out", first]) == 0
        second = str(tmp_path / "fit2")
        code = cli.main(
            ["fit", "--config", cfg, "--trace", tr, "--out", second, "--init-params", os.path.join(first, "params.json")]
        )
        assert code == 0

    @pytest.mark.parametrize("corruption", ["malformed-json", "missing-key", "nan-entry"])
    def test_corrupt_checkpoint_data_error(self, tiny_trace, tmp_path, capsys, corruption):
        cfg, tr = tiny_trace
        first = str(tmp_path / "fit1")
        assert cli.main(["fit", "--config", cfg, "--trace", tr, "--out", first]) == 0
        path = os.path.join(first, "params.json")
        text = Path(path).read_text()
        doc = json.loads(text)
        if corruption == "malformed-json":
            text = text[: len(text) // 2]
        elif corruption == "missing-key":
            del doc["q"]
            text = json.dumps(doc)
        else:
            doc["p"][0][0] = float("nan")
            text = json.dumps(doc)
        with open(path, "w") as fh:
            fh.write(text)
        capsys.readouterr()
        code = cli.main(["fit", "--config", cfg, "--trace", tr, "--out", str(tmp_path / "fit2"), "--init-params", path])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")

    def test_checkpoint_smaller_than_trace_catalog_data_error(self, tiny_trace, tmp_path, capsys):
        cfg, tr = tiny_trace
        catalog = trace.load_trace(tr).catalog_size
        small = str(tmp_path / "small.json")
        ModelParams.constant(catalog // 2, 2).save(small)
        capsys.readouterr()
        code = cli.main(["fit", "--config", cfg, "--trace", tr, "--out", str(tmp_path / "fit"), "--init-params", small])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        # A larger checkpoint covers every video the trace requests.
        large = str(tmp_path / "large.json")
        ModelParams.constant(catalog + 5, 2).save(large)
        assert cli.main(["fit", "--config", cfg, "--trace", tr, "--out", str(tmp_path / "fit2"), "--init-params", large]) == 0

    @pytest.mark.parametrize(
        "setting, checkpoint",
        [({"latent_dim": 5}, {"dim": 2}), ({"delta": 0.01}, {"dim": 2, "decay": 0.05})],
        ids=["latent-dim", "decay"],
    )
    def test_checkpoint_disagreeing_with_config_data_error(self, tiny_trace, tmp_path, capsys, setting, checkpoint):
        _, tr = tiny_trace
        cfg = write_config(tmp_path, **setting)
        path = str(tmp_path / "ckpt.json")
        ModelParams.constant(trace.load_trace(tr).catalog_size, **checkpoint).save(path)
        out = tmp_path / "fit"
        capsys.readouterr()
        code = cli.main(["fit", "--config", cfg, "--trace", tr, "--out", str(out), "--init-params", path])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        assert not (out / "params.json").exists()

    def test_diverging_fit_data_error(self, tiny_trace, tmp_path, capsys):
        cfg, tr = tiny_trace
        catalog = trace.load_trace(tr).catalog_size
        huge = str(tmp_path / "huge.json")
        ModelParams.constant(catalog, 2, 1e300).save(huge)
        capsys.readouterr()
        # Outside pytest a warning would print to standard error next to the
        # one-line message; here it would fail the command.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["fit", "--config", cfg, "--trace", tr, "--out", str(tmp_path / "fit"), "--init-params", huge])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")

    @pytest.mark.parametrize("eta", ["1e300", "1.7e308"])
    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_overflowing_step_size_data_error(self, tiny_trace, tmp_path, capsys, command, eta):
        _, tr = tiny_trace
        cfg = write_config(tmp_path, eta=eta)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([command, "--config", cfg, "--trace", tr, "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:") and "descent step" in err[0]

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_step_size_whose_likelihoods_overflow_data_error(self, ci_trace, tmp_path, capsys, command):
        # At eta = 1e150 each edge's likelihood stays finite and their sum
        # overflows. The tiny_trace fixture's lower rates never get there.
        cfg, tr = ci_trace
        with open(cfg, "a", encoding="utf-8") as fh:
            fh.write("eta = 1e150\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([command, "--config", cfg, "--trace", tr, "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:") and "sum past the float range" in err[0]

    def test_infinite_likelihood_window_leaves_lru_running(self, tiny_trace, tmp_path):
        # Only a fit reads the window -ln(phi_th) / delta.
        _, tr = tiny_trace
        cfg = write_config(tmp_path, delta="1e-320")
        assert cli.main(["simulate", "--config", cfg, "--trace", tr, "--policy", "lru", "--out", str(tmp_path / "x")]) == 0

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_huge_finite_likelihood_window_data_error(self, ci_trace, tmp_path, capsys, command):
        # The window is finite; only the trace's catalog makes the likelihood overflow.
        cfg, tr = ci_trace
        with open(cfg, "a", encoding="utf-8") as fh:
            fh.write("delta = 2e-308\n")
        capsys.readouterr()
        assert cli.main([command, "--config", cfg, "--trace", tr, "--out", str(tmp_path / "out")]) == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:") and "likelihood" in err[0], err

    def test_overflowing_warmup_ratios_one_data_error_line(self, ci_trace, tmp_path, capsys):
        # utility / epsilon overflows while the warmup bounds form, which the
        # frozen bounds report; numpy must not warn first. It is a data error
        # even when every warmup ratio overflows: a trace whose test requests
        # all hit never estimates the bounds and runs.
        cfg, tr = ci_trace
        hits = tmp_path / "hits.csv"
        hits.write_text("0,0,1,0.5\n0,0,1,30.5\n1,0,2,3.5\n1,0,2,60.5\n")
        for epsilon in ("2e-308", "1e-320"):
            Path(cfg).write_text("\n".join(_CI_CONFIG + [f"epsilon = {epsilon}"]) + "\n")
            argv = ["simulate", "--config", cfg, "--policy", "ppvf,mav", "--out", str(tmp_path / "out")]
            assert cli.main([*argv, "--trace", str(hits)]) == cli.EXIT_OK
            capsys.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main([*argv, "--trace", tr])
            assert code == cli.EXIT_DATA
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("data error: estimated ratio bounds"), err

    def test_fit_log_equals_simulated_fit_sequence(self, tiny_trace, tmp_path):
        # ppvf fit and every fitted policy's simulation run the same barrier
        # fits over the same trace, so their loss records agree exactly.
        cfg, tr = tiny_trace
        out = str(tmp_path / "fit_out")
        assert cli.main(["fit", "--config", cfg, "--trace", tr, "--out", out]) == 0
        records = json.loads(Path(out, "fit_log.json").read_text())
        fitted = [(r["t_theta"], r["round"], r["loss"]) for r in records]
        assert {t for t, _, _ in fitted} == {48.0, 96.0}
        settings = cli.load_config(cfg)
        log = trace.load_trace(tr, quantize_hours=float(settings["quantize"]))
        for policy in ("ppvf", "sage", "bestfit"):
            report = sim.run_simulation(cli._sim_config(settings, policy, 0), log)
            assert report.fl_losses == fitted, policy
        # Under other f, xi or c, replaying one shared schedule reports what
        # fitting for itself does.
        shared = cli._sim_config(settings, "ppvf", 0)
        schedule = sim.fit_schedule(shared, log, shared.test_horizon)
        assert schedule.losses == fitted
        for policy in ("ppvf", "sage", "bestfit"):
            for change in ({"f": 2}, {"xi": 3.0}, {"c": 0.2}):
                run_cfg = cli._sim_config({**settings, **change}, policy, 0)
                assert sim.run_simulation(run_cfg, log, schedule) == sim.run_simulation(run_cfg, log), (policy, change)

    @pytest.mark.parametrize(
        "content",
        [b'{"outputs": {', b'{"command": "caf\xff"}', b"[1, 2]"],
        ids=["malformed", "non-utf8", "non-object"],
    )
    def test_report_bad_manifest_data_error(self, tmp_path, capsys, content):
        (tmp_path / "manifest.json").write_bytes(content)
        assert cli.main(["report", "--out", str(tmp_path)]) == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")

    def test_report_non_utf8_csv_data_error(self, tmp_path, capsys):
        # The bytes match the manifest's hash, but the listing cannot decode them.
        (tmp_path / "chr.csv").write_bytes(b"policy,capacity,chr\ncaf\xff,0.1,0.5\n")
        (tmp_path / "manifest.json").write_text(json.dumps({"outputs": {"chr.csv": sha(tmp_path / "chr.csv")}}))
        assert cli.main(["report", "--out", str(tmp_path)]) == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:") and "chr.csv" in err[0]

    def test_report_verifies_hashes(self, tiny_trace, tmp_path, capsys):
        cfg, tr = tiny_trace
        out = str(tmp_path / "rep_out")
        assert cli.main(["simulate", "--config", cfg, "--trace", tr, "--policy", "lru", "--out", out]) == 0
        assert cli.main(["report", "--out", out]) == 0
        assert "chr.csv: ok" in capsys.readouterr().out

    @pytest.mark.parametrize("escape", ["../run.cfg", "absolute"])
    def test_report_reads_only_inside_its_directory(self, tiny_trace, tmp_path, capsys, escape):
        cfg, _ = tiny_trace
        name = str(Path(cfg).resolve()) if escape == "absolute" else escape
        out = tmp_path / "rep_out"
        out.mkdir()
        (out / "manifest.json").write_text(json.dumps({"outputs": {name: sha(cfg)}}))
        capsys.readouterr()
        assert cli.main(["report", "--out", str(out)]) == cli.EXIT_DATA
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:") and name in err[0]
        assert "test config" not in captured.out

    def test_report_detects_tampering(self, tiny_trace, tmp_path):
        cfg, tr = tiny_trace
        out = str(tmp_path / "tampered")
        assert cli.main(["simulate", "--config", cfg, "--trace", tr, "--policy", "lru", "--out", out]) == 0
        with open(os.path.join(out, "chr.csv"), "a") as fh:
            fh.write("tampered,0,0\n")
        assert cli.main(["report", "--out", out]) == cli.EXIT_DATA


# Runs each argv list through cli.main with scipy unimportable.
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from ppvf import cli
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    if code != cli.EXIT_OK:
        sys.exit(f"ppvf {argv[0]} exited {code}")
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    cfg = write_config(tmp_path, cr_instances=10)
    tr, fit_out, sim_out = (str(tmp_path / name) for name in ("trace.csv", "fit_out", "sim_out"))
    runs = [
        ["gen-trace", "--config", cfg, "--seed", "5", "--out", tr],
        ["fit", "--config", cfg, "--trace", tr, "--out", fit_out],
        ["simulate", "--config", cfg, "--trace", tr, "--policy", ",".join(sim.POLICIES), "--sweep", "c=0.05,0.1",
         "--out", sim_out],
        ["eval-cr", "--config", cfg, "--seed", "2"],
        ["report", "--out", sim_out],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(runs)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(Path(sim_out, "manifest.json").read_text())["outputs"]
