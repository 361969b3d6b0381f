"""The benchmark's workloads, each built from a preset and a seed.

A workload pass builds its configs, runs the simulator through the public
API and renders the reports. Each workload comes in two sizes: ``full`` is
what the benchmark measures and ``tiny`` is the same shape cut down for the
schema test and for the canary run that every invocation makes.

Why each workload exists, and which layers it exercises or bypasses, is in
README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from eovsim import metrics, presets, sweep
from eovsim.config import ConfigError, validate
from eovsim.simulate import Simulation

DEFAULT_SEED = 1

EXTRA_DEP_PROBS = (0.2, 0.4, 0.6, 0.8, 1.0)   # as acceptance criterion 5 runs it
WAITING_GRID = {"waiting.enabled": [True, False]}


def _validated(cfg):
    errors = validate(cfg)
    if errors:
        raise ConfigError(errors)
    return cfg


@dataclass(frozen=True)
class SingleRun:
    """One Simulation run of a preset variant with `duration` s of arrivals."""

    name: str
    preset: str
    durations: dict           # size -> seconds of arrivals
    leader_kind: str | None = None
    block_size: int | None = None
    collect_traces: bool = False
    extra_dep_probs: tuple = ()

    def build(self, seed: int, size: str):
        base = presets.preset(self.preset)
        cfg = replace(base, seed=seed,
                      workload=replace(base.workload, duration=self.durations[size]))
        if self.leader_kind is not None:
            cfg = replace(cfg, leader=replace(cfg.leader, kind=self.leader_kind))
        if self.block_size is not None:
            cfg = replace(cfg, cut_rule=replace(cfg.cut_rule, block_size=self.block_size))
        return _validated(cfg)

    def construct(self, cfg) -> list:
        return [Simulation(cfg, collect_traces=self.collect_traces,
                           extra_dep_probs=self.extra_dep_probs)]

    def execute(self, cfg, wrap):
        """Run and render; returns (results, report files). wrap(name, fn)
        puts fn in a span."""
        (sim,) = self.construct(cfg)
        result = sim.run()
        return [result], wrap("metrics.render", metrics.render_report)(result)

    def n_runs(self, size: str) -> int:
        return 1

    def expected_created(self, cfg) -> int:
        w = cfg.workload
        return w.num_clients * int(round(w.rate_per_client * w.duration))


@dataclass(frozen=True)
class SeedSweep:
    """run_sweep over WAITING_GRID x `n_seeds` consecutive seeds."""

    name: str
    preset: str
    n_seeds: dict             # size -> number of consecutive seeds
    pool_sizes: dict          # size -> transactions per run

    def build(self, seed: int, size: str):
        base = presets.preset(self.preset)
        base = _validated(replace(base, workload=replace(
            base.workload, pool_size=self.pool_sizes[size])))
        return base, range(seed, seed + self.n_seeds[size])

    def construct(self, plan) -> list:
        base, seeds = plan
        return [Simulation(cfg, collect_traces=False)
                for cfg in sweep.expand_grid(base, WAITING_GRID, seeds)]

    def execute(self, plan, wrap):
        base, seeds = plan
        rows, results = sweep.run_sweep(base, WAITING_GRID, seeds)
        csv = wrap("metrics.render", metrics.render_summary_csv)(rows)
        return results, {"sweep.csv": csv}

    def n_runs(self, size: str) -> int:
        return len(WAITING_GRID["waiting.enabled"]) * self.n_seeds[size]

    def expected_created(self, plan) -> int:
        return plan[0].workload.pool_size


WORKLOADS = {w.name: w for w in (
    SingleRun("blocksize-high-500", "blocksize-high",
              durations={"full": 20.0, "tiny": 2.0}, block_size=500),
    SingleRun("leader-maxht-traced", "leader-250x300",
              durations={"full": 40.0, "tiny": 20.0}, leader_kind="max_ht",
              collect_traces=True, extra_dep_probs=EXTRA_DEP_PROBS),
    SeedSweep("waiting-sweep", "waiting-2peer",
              n_seeds={"full": 10, "tiny": 2}, pool_sizes={"full": 6000, "tiny": 1500}),
)}

# sha256 of the rendered report files at DEFAULT_SEED, per workload and size.
PINNED = {
    "blocksize-high-500": {
        "full": "df33c3c3836ee678b3a55d476047a81f696a507bf17a2d52c29d70657ea92fc4",
        "tiny": "3a63373606d0405ad259e4603b552a78709c1745004acf558fdb25addd377f5b"},
    "leader-maxht-traced": {
        "full": "efe8dba11ddda21ac4942cdfdebf791935465ba2476300ba0734f124eb6437bd",
        "tiny": "9b6794c75a115f90b69dca7894c5a2393f3656817cdbbce52ca66a62769b87b6"},
    "waiting-sweep": {
        "full": "bb1a1bc194b089c153c8deab0f05c8e66a3ee1927f80b4418388dee6af6c7519",
        "tiny": "a3fa3e5d35a137ba8d2b9476485c418a9046a3e71b2f518ce6f4e8da48ff05e4"},
}

# Traced counters that must be nonzero on a workload: a zero means the span
# was never reached, so the trace no longer sees that layer.
MUST_FIRE = {
    "blocksize-high-500": (
        "endorsement.route_calls", "endorsement.eligible_calls", "endorsement.dissem_rounds",
        "kernel.sample_calls", "workload.arrivals", "commit.phase_events",
        "commit.assign_validity_calls", "ordering.blocks", "coordination.on_commit_calls"),
    "leader-maxht-traced": (
        "endorsement.route_calls", "endorsement.eligible_calls", "endorsement.dissem_rounds",
        "endorsement.dropped_capacity", "kernel.sample_calls", "workload.arrivals",
        "commit.phase_events", "commit.assign_validity_calls", "commit.invalid_total",
        "ordering.blocks"),
    "waiting-sweep": (
        "endorsement.eligible_calls", "endorsement.dissem_rounds", "kernel.sample_calls",
        "commit.phase_events", "ordering.blocks", "coordination.on_commit_calls",
        "coordination.wait_events", "sweep.runs"),
}
