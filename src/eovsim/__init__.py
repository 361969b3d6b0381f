"""eovsim: a deterministic discrete-event simulator of the permissioned-
blockchain transaction lifecycle (endorse, order, commit).

Models private-data dissemination quorums, leader-selection policies, block
cutting, a two-phase (serial or pipelined) commit engine with an MVCC
dependency-conflict model, and a strategic-waiting coordination controller,
under calibrated per-stage latency distributions.
"""

__version__ = "0.1.0"

from .kernel import (
    DistributionSpec,
    RngStream,
    SchedulingError,
    SimKernel,
    SimulationError,
    SimulationIntegrityError,
)
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
    config_hash,
    emit_config,
    load_config,
    loads_config,
)
from .commit import Peer, assign_validity, bench_commit, steady_state_tps
from .coordination import WaitEvent
from .endorsement import eligible_endorsers, quorum_satisfied
from .metrics import (
    LatencySummary,
    RunCounters,
    ThroughputSummary,
    emit_report,
    success_ratio,
)
from .simulate import RunResult, Simulation, run_scenario
from .workload import TxStatus, TxStore
from . import presets
from .sweep import run_sweep

__all__ = [
    "__version__",
    "DistributionSpec", "RngStream", "SimKernel",
    "SimulationError", "SchedulingError", "SimulationIntegrityError",
    "ScenarioConfig", "WorkloadConfig", "PeerGroupConfig", "DisseminationStrategy",
    "LeaderPolicy", "BlockCutRule", "CommitLatencyModel", "EndorseLatencyModel",
    "WaitingPolicy", "ConfigError", "load_config", "loads_config", "emit_config",
    "config_hash",
    "Peer", "steady_state_tps", "bench_commit", "assign_validity",
    "WaitEvent",
    "eligible_endorsers", "quorum_satisfied",
    "RunCounters", "LatencySummary", "ThroughputSummary",
    "success_ratio", "emit_report",
    "Simulation", "RunResult", "run_scenario",
    "TxStatus", "TxStore",
    "presets", "run_sweep",
]
