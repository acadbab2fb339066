"""The names and return shapes that bench/tracing.py patches and reads.

The benchmark's tracer wraps ``ppvf`` functions and methods from outside
the package. A renamed target or a changed return shape would otherwise
surface only when the benchmark runs.
"""

import importlib.util
import pathlib

from ppvf import sim
from ppvf.federation import TrainConfig
from test_sim import synthetic_log

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_six_policies_and_restores_every_target():
    tracer = load_tracing().Tracer()
    log = synthetic_log(catalog=15, edges=2, horizon=100.0, seed=8)
    tracer.install()
    patched = list(tracer._patches)
    try:
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
        for policy in sim.POLICIES:
            tracer.policy = policy
            cfg = sim.SimConfig(
                policy=policy, init_horizon=24.0, test_horizon=101.0, cache_fraction=0.2, latent_dim=2, seed=9,
                train=TrainConfig(max_iters=3, update_interval_hours=48.0),
            )
            # Looked up through the module, as the benchmark calls it.
            sim.run_simulation(cfg, log)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["sim.events"] == len(sim.POLICIES) * len(log)
    for name in ("scheduler.admitted", "cdp.em.draws", "cache.lookups", "cdp.corr_state_bytes"):
        assert counts[name] > 0, name
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr

