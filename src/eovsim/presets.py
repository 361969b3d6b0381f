"""Named experiment presets with embedded latency calibrations.

Each preset returns a fully validated ScenarioConfig. Stage means come from
testbed measurements (milliseconds in the sources, seconds here); where only
aggregate behavior is published, the service distributions are calibrated so
the preset reproduces it (saturation level, leader/straggler split, phase
balance). Dissemination variants are named "1-1", "4-4", "4-1", "4-1*".
"""

from __future__ import annotations

import math

from .config import (
    BlockCutRule,
    CommitLatencyModel,
    ConfigError,
    DisseminationStrategy,
    EndorseLatencyModel,
    LeaderPolicy,
    PeerGroupConfig,
    ScenarioConfig,
    WaitingPolicy,
    WorkloadConfig,
)
from .kernel import DistributionSpec as D

__all__ = ["PRESETS", "DISSEMINATION_VARIANTS", "CORE_SCALE_GRID",
           "TABLE_PHASE_CONSTANTS", "preset", "preset_names"]


DISSEMINATION_VARIANTS = {
    "1-1": (1, 1, False),
    "4-4": (4, 4, False),
    "4-1": (4, 1, False),
    "4-1*": (4, 1, True),
}

# VSCC latency multipliers for the simulated core counts 24/32/48/64/96
CORE_SCALE_GRID = (1.0, 0.75, 0.5, 0.375, 0.25)

# Measured per-block phase constants (seconds) per dissemination variant:
# phase 1 = vscc + private-data fetch, phase 2 = mvcc + stores.
TABLE_PHASE_CONSTANTS = {
    "1-1": {"vscc": 2.376, "fetch": 2.028, "p2": 1.590},
    "4-4": {"vscc": 2.305, "fetch": 0.677, "p2": 1.511},
    "4-1": {"vscc": 2.107, "fetch": 0.632, "p2": 1.396},
    "4-1*": {"vscc": 2.342, "fetch": 0.828, "p2": 1.549},
}

# Per-stage commit means (seconds) per variant for the dissemination study.
_PVTDATA_COMMIT = {
    #         vscc          local fetch    mvcc           block store    statedb
    "1-1":  ((0.806, 0.15), (0.500, 0.11), (0.133, 0.029), (0.152, 0.033), (0.824, 0.125)),
    "4-4":  ((0.808, 0.149), (0.515, 0.114), (0.148, 0.054), (0.140, 0.038), (1.082, 0.305)),
    "4-1":  ((0.790, 0.152), (0.468, 0.107), (0.135, 0.035), (0.130, 0.028), (1.141, 0.400)),
    "4-1*": ((0.812, 0.143), (0.516, 0.183), (0.141, 0.057), (0.135, 0.060), (0.976, 0.229)),
}
# On-demand (remote) fetch: the all-peer average fetch under 1-1 is ~2.0 s
# with one data-holding endorser and four fetching stragglers.
_REMOTE_FETCH = (2.384, 0.90)


def _shifted_exp_quantiles(shift: float, mean: float, n: int = 512) -> tuple[float, ...]:
    """Deterministic empirical ack-delay support: shift + Exp(mean) quantiles."""
    return tuple(shift + mean * -math.log(1.0 - (i + 0.5) / n) for i in range(n))


_ACK_SAMPLES = _shifted_exp_quantiles(0.035, 0.075)


def _dissemination(variant: str) -> DisseminationStrategy:
    """The (m, r) quorum of a dissemination variant, as the studies run it."""
    if variant not in DISSEMINATION_VARIANTS:
        raise ConfigError([f"dissemination variant {variant!r}; "
                           f"known: {sorted(DISSEMINATION_VARIANTS)}"])
    m, r, relaxed = DISSEMINATION_VARIANTS[variant]
    return DisseminationStrategy(max_peer_count=m, required_peer_count=r, relaxed=relaxed,
                                 ack_timeout=0.35, max_retries=1)


def _pvtdata(variant: str = "1-1", duration: float = 600.0) -> ScenarioConfig:
    dissemination = _dissemination(variant)
    vscc, local, mvcc, store, statedb = _PVTDATA_COMMIT[variant]
    return ScenarioConfig(
        seed=1,
        horizon=6000.0,
        workload=WorkloadConfig(num_clients=5, rate_per_client=250.0, duration=duration),
        peers=PeerGroupConfig(count=5, gateway_buffer=1000, endorse_concurrency=10_000),
        dissemination=dissemination,
        leader=LeaderPolicy(kind="ranked_list"),
        cut_rule=BlockCutRule(kind="size_with_timeout", block_size=4000, timeout=10.0),
        commit_mode="serial",
        endorse_model=EndorseLatencyModel(
            execute=D.normal(0.130, 0.020),
            overhead=D.constant(0.0),
            ack=D.empirical(_ACK_SAMPLES)),
        commit_model=CommitLatencyModel(
            vscc=D.normal(*vscc),
            pvt_fetch_local=D.normal(*local),
            pvt_fetch_remote=D.normal(*_REMOTE_FETCH),
            mvcc=D.normal(*mvcc),
            block_store=D.normal(*store),
            statedb=D.normal(*statedb)),
    )


def _blocksize(load: str) -> ScenarioConfig:
    low = load == "low"
    commit = CommitLatencyModel(
        vscc=D.constant(0.020) if low else D.normal(0.120, 0.012),
        pvt_fetch_local=D.constant(0.020) if low else D.normal(0.060, 0.006),
        pvt_fetch_remote=D.constant(0.50) if low else D.constant(1.50),
        mvcc=D.constant(0.005) if low else D.constant(0.020),
        block_store=D.constant(0.005) if low else D.constant(0.020),
        statedb=(D.constant(0.0, per_tx=0.000454) if low
                 else D.constant(0.080, per_tx=0.00094)),
    )
    return ScenarioConfig(
        seed=1,
        horizon=500.0 if low else 4000.0,
        workload=WorkloadConfig(num_clients=5,
                                rate_per_client=100.0 if low else 800.0,
                                duration=300.0 if low else 180.0),
        peers=PeerGroupConfig(count=5, gateway_buffer=10_000, endorse_concurrency=10_000),
        dissemination=DisseminationStrategy(max_peer_count=4, required_peer_count=1,
                                            ack_timeout=1.0),
        leader=LeaderPolicy(kind="ranked_list"),
        cut_rule=BlockCutRule(kind="size_with_timeout", block_size=500, timeout=10.0),
        commit_mode="serial",
        endorse_model=EndorseLatencyModel(
            execute=D.normal(0.300, 0.050),
            overhead=D.constant(0.0),
            ack=D.constant(0.050)),
        commit_model=commit,
    )


def _leader_selection() -> ScenarioConfig:
    return ScenarioConfig(
        seed=1,
        horizon=2500.0,
        workload=WorkloadConfig(num_clients=5, rate_per_client=250.0, duration=300.0,
                                dependency_prob=0.0),
        peers=PeerGroupConfig(count=5,
                              commit_scales=(1.0, 1.25, 1.5, 1.75, 2.0),
                              gateway_buffer=1000, endorse_concurrency=1000),
        dissemination=DisseminationStrategy(max_peer_count=1, required_peer_count=1,
                                            ack_timeout=1.0, max_retries=1),
        leader=LeaderPolicy(kind="ranked_list", tau=5),
        cut_rule=BlockCutRule(kind="size_with_timeout", block_size=4000, timeout=10.0),
        commit_mode="serial",
        endorse_model=EndorseLatencyModel(
            execute=D.exponential(1.20),
            overhead=D.constant(0.0),
            ack=D.exponential(0.050)),
        commit_model=CommitLatencyModel(
            vscc=D.normal(0.806, 0.080),
            pvt_fetch_local=D.normal(0.500, 0.050),
            pvt_fetch_remote=D.normal(2.384, 0.240),
            mvcc=D.normal(0.133, 0.013),
            block_store=D.normal(0.152, 0.015),
            statedb=D.normal(0.824, 0.082)),
    )


def _pipeline(variant: str = "4-1*") -> ScenarioConfig:
    dissemination = _dissemination(variant)
    c = TABLE_PHASE_CONSTANTS[variant]
    return ScenarioConfig(
        seed=1,
        horizon=8000.0,
        workload=WorkloadConfig(num_clients=5, rate_per_client=400.0, duration=600.0),
        peers=PeerGroupConfig(count=5, gateway_buffer=10_000, endorse_concurrency=10_000),
        dissemination=dissemination,
        leader=LeaderPolicy(kind="ranked_list"),
        cut_rule=BlockCutRule(kind="size_with_timeout", block_size=4000, timeout=10.0),
        commit_mode="pipelined",
        endorse_model=EndorseLatencyModel(
            execute=D.normal(0.130, 0.020),
            overhead=D.constant(0.0),
            ack=D.empirical(_ACK_SAMPLES)),
        commit_model=CommitLatencyModel(
            vscc=D.constant(c["vscc"]),
            pvt_fetch_local=D.constant(c["fetch"]),
            pvt_fetch_remote=D.constant(c["fetch"]),
            statedb=D.constant(c["p2"])),
    )


def _cores_sweep() -> ScenarioConfig:
    # sweep commit_model.vscc_core_scale over CORE_SCALE_GRID against this base
    return _pipeline("4-4")


def _waiting_2peer() -> ScenarioConfig:
    return ScenarioConfig(
        seed=1,
        horizon=3000.0,
        workload=WorkloadConfig(num_clients=1, rate_per_client=1.0, duration=1.0,
                                arrival_process="pool", pool_size=6000),
        peers=PeerGroupConfig(count=2, commit_scales=(1.3, 2.3),
                              gateway_buffer=0, endorse_concurrency=1),
        dissemination=DisseminationStrategy(max_peer_count=1, required_peer_count=1,
                                            ack_timeout=1.0),
        leader=LeaderPolicy(kind="soft_max_ht", tau=5),
        cut_rule=BlockCutRule(kind="dynamic_timeout", timeout=2.0),
        commit_mode="serial",
        endorse_model=EndorseLatencyModel(
            execute=D.constant(0.100),
            overhead=D.constant(0.0),
            ack=D.constant(0.0)),
        commit_model=CommitLatencyModel(statedb=D.exponential(1.0)),
        waiting=WaitingPolicy(enabled=True, tau=5, ceiling=15,
                              boosted_mean=1.8, baseline_means=(1.3, 2.3)),
    )


PRESETS = {
    "pvtdata-250x600": _pvtdata,
    "blocksize-low": lambda: _blocksize("low"),
    "blocksize-high": lambda: _blocksize("high"),
    "leader-250x300": _leader_selection,
    "pipeline-400x600": _pipeline,
    "cores-sweep": _cores_sweep,
    "waiting-2peer": _waiting_2peer,
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def preset(name: str, variant: str | None = None) -> ScenarioConfig:
    """Look up a preset; `name:variant` selects a dissemination variant."""
    if ":" in name and variant is None:
        name, variant = name.split(":", 1)
    fn = PRESETS.get(name)
    if fn is None:
        raise ConfigError([f"unknown preset {name!r}; available: {preset_names()}"])
    if variant is None:
        return fn()
    if name not in ("pvtdata-250x600", "pipeline-400x600"):
        raise ConfigError([f"preset {name!r} takes no dissemination variant, "
                           f"got {variant!r}"])
    return fn(variant)
