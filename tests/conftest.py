from dataclasses import replace

import pytest

from eovsim import (
    BlockCutRule,
    CommitLatencyModel,
    DisseminationStrategy,
    DistributionSpec as D,
    EndorseLatencyModel,
    LeaderPolicy,
    PeerGroupConfig,
    ScenarioConfig,
    WorkloadConfig,
)


def tiny_config(**over) -> ScenarioConfig:
    """A fast-draining scenario used across the unit tests."""
    cfg = ScenarioConfig(
        seed=7,
        horizon=500.0,
        workload=WorkloadConfig(num_clients=2, rate_per_client=50.0, duration=1.0),
        peers=PeerGroupConfig(count=3, gateway_buffer=20, endorse_concurrency=10),
        dissemination=DisseminationStrategy(max_peer_count=2, required_peer_count=1,
                                            relaxed=True, ack_timeout=0.5),
        leader=LeaderPolicy(kind="all"),
        cut_rule=BlockCutRule(kind="size_with_timeout", block_size=20, timeout=0.5),
        commit_mode="pipelined",
        endorse_model=EndorseLatencyModel(execute=D.exponential(0.02),
                                          overhead=D.constant(0.0),
                                          ack=D.exponential(0.01)),
        commit_model=CommitLatencyModel(vscc=D.exponential(0.02),
                                        pvt_fetch_local=D.constant(0.01),
                                        pvt_fetch_remote=D.constant(0.05),
                                        mvcc=D.constant(0.005),
                                        block_store=D.constant(0.005),
                                        statedb=D.exponential(0.02)),
    )
    if over:
        cfg = replace(cfg, **over)
    return cfg


def replay_phase2_completion(monkeypatch, height=2):
    """Mutant: each peer handles its phase-2 completion at height twice."""
    from eovsim.commit import Peer
    orig = Peer._on_p2_done

    def replay(self):
        again = self.height == height
        orig(self)
        if again:
            orig(self)

    monkeypatch.setattr(Peer, "_on_p2_done", replay)


def disseminated_to(txs, tx):
    """The targets of tx's winning dissemination round, read through the
    TxStore's round index; () when no round won."""
    won = txs.round[tx]
    return txs.rounds[txs.endorser[tx]][won][0] if won >= 0 else ()


@pytest.fixture
def small_cfg():
    return tiny_config()
