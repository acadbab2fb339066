"""The benchmark's workloads: a seeded trace recipe plus the simulator settings.

Every workload replays its whole trace once per policy in ``POLICIES`` (a
closed loop: one process, each event handled as soon as the previous one is
done). A workload fixes its catalog model (the ground-truth parameters,
drawn from its reference seed); the benchmark seed draws the request stream
from that model. On the reference seed the trace is exactly the recipe's
own. The simulator's random streams use the acceptance suite's ``SIM_SEED``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ppvf import trace
from ppvf.federation import TrainConfig
from ppvf.predictor import ModelParams
from ppvf.sim import POLICIES, SimConfig

SIM_SEED = 5


@dataclass(frozen=True)
class Workload:
    name: str
    catalog_size: int
    edges: int
    horizon: float
    init_horizon: float
    users_per_edge: int
    base_scale: float  # base rate of the rank-1 video, Zipf(1) over ranks
    branching: float  # spectral radius of the excitation
    cli_rng: bool  # draw the ground truth the way ``ppvf gen-trace`` does
    train: TrainConfig
    workers: int | None
    orderings: bool  # check the acceptance suite's directional orderings
    reference_seed: int
    held_out_seed: int  # not used while tuning; later claims must hold here too

    def ground_truth(self) -> ModelParams:
        seed = self.reference_seed
        if self.cli_rng:
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(99,)))
        else:
            rng = np.random.default_rng(seed)
        dim = 10
        base = self.base_scale * np.arange(1, self.catalog_size + 1, dtype=np.float64) ** -1.0
        tgt = rng.uniform(0.1, 1.0, (self.catalog_size, dim))
        src = rng.uniform(0.1, 1.0, (self.catalog_size, dim))
        scale = math.sqrt(
            self.branching / trace.excitation_branching_ratio(ModelParams(base, tgt, src, 0.01))
        )
        return ModelParams(base, tgt * scale, src * scale, 0.01)

    def spec(self, seed: int) -> trace.SyntheticSpec:
        return trace.SyntheticSpec(
            self.catalog_size,
            self.edges,
            self.horizon,
            self.ground_truth(),
            rng_seed=seed,
            users_per_edge=self.users_per_edge,
        )

    def sim_config(self, policy: str) -> SimConfig:
        return SimConfig(
            policy=policy,
            init_horizon=self.init_horizon,
            test_horizon=self.horizon,
            total_budget=15.0,
            unit_cost=1.0,
            prefetch_cap=4,
            cache_fraction=0.01,
            latent_dim=10,
            train=self.train,
            seed=SIM_SEED,
            workers=self.workers,
        )


# The acceptance suite's fitting settings.
_ACCEPTANCE_TRAIN = TrainConfig(
    rho_base=1e-4,
    rho_target=1e-4,
    rho_source=1e-4,
    learning_rate=2e-3,
    max_iters=20,
    update_interval_hours=48.0,
)
# ``ppvf.cli.DEFAULTS`` fitting settings (eta 1e-3, rho 1e-4, 20 iterations).
_CLI_TRAIN = TrainConfig(
    rho_base=1e-4,
    rho_target=1e-4,
    rho_source=1e-4,
    learning_rate=1e-3,
    max_iters=20,
    tolerance=1e-6,
    update_interval_hours=48.0,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="directional",
            catalog_size=500,
            edges=5,
            horizon=720.0,
            init_horizon=240.0,
            users_per_edge=20,
            base_scale=0.25,
            branching=0.35,
            cli_rng=False,
            train=_ACCEPTANCE_TRAIN,
            workers=None,
            orderings=True,
            reference_seed=1001,
            held_out_seed=2001,
        ),
        Workload(
            name="wide_catalog",
            catalog_size=4608,
            edges=2,
            horizon=192.0,
            init_horizon=64.0,
            users_per_edge=20,
            base_scale=0.25,
            branching=0.35,
            cli_rng=False,
            train=_ACCEPTANCE_TRAIN,
            workers=None,
            orderings=False,
            reference_seed=7,
            held_out_seed=2007,
        ),
        Workload(
            name="fleet",
            catalog_size=500,
            edges=25,
            horizon=192.0,
            init_horizon=64.0,
            users_per_edge=8,
            base_scale=0.1,
            branching=0.3,
            cli_rng=True,
            train=_CLI_TRAIN,
            workers=2,
            orderings=False,
            reference_seed=11,
            held_out_seed=2011,
        ),
    )
}
