import itertools
import math
from dataclasses import replace

import pytest

from eovsim import (
    CommitLatencyModel,
    DistributionSpec as D,
    SimulationIntegrityError,
    assign_validity,
    bench_commit,
    run_scenario,
    steady_state_tps,
)
from eovsim.presets import TABLE_PHASE_CONSTANTS
from eovsim.workload import Transaction, TxStatus

from conftest import tiny_config


# -- steady-state oracle -------------------------------------------------------

def test_steady_state_pipelined_matches_published_throughput():
    assert math.isclose(steady_state_tps(4.404, 1.590, 4000, "pipelined"),
                        908.245, rel_tol=0.01)


def test_steady_state_serial_balanced_phases():
    assert steady_state_tps(2.0, 2.0, 4000, "serial") == 1000.0


def test_steady_state_matches_simulated_core_sweep_point():
    # 64-core balanced point: closed form within 2% of the simulated 2581
    assert math.isclose(steady_state_tps(1.54, 1.51, 4000, "pipelined"),
                        2581.0, rel_tol=0.02)


# -- phase timing with constants -------------------------------------------------

def test_phase1_duration_constant_stages():
    res = bench_commit(D.constant(2.376 + 2.028), D.constant(1.0), 4000, "serial", 5, warmup=0)
    assert math.isclose(res["p1_mean"], 4.404)


def test_phase2_duration_constant_stages():
    cfg = _commit_cfg(vscc=D.constant(0.0), mvcc=D.constant(0.133),
                      block_store=D.constant(0.152), statedb=D.constant(0.824))
    out = run_scenario(cfg, collect_traces=True)
    assert math.isclose(out.summaries["phase2"].mean, 1.109)


def _commit_cfg(**stage_over):
    base = tiny_config()
    model = CommitLatencyModel(
        vscc=stage_over.get("vscc", D.constant(0.01)),
        pvt_fetch_local=stage_over.get("pvt_fetch_local", D.constant(0.0)),
        pvt_fetch_remote=stage_over.get("pvt_fetch_remote", D.constant(0.0)),
        mvcc=stage_over.get("mvcc", D.constant(0.0)),
        block_store=stage_over.get("block_store", D.constant(0.0)),
        statedb=stage_over.get("statedb", D.constant(0.01)),
    )
    return tiny_config(commit_model=model,
                       endorse_model=replace(base.endorse_model,
                                             execute=D.constant(0.0),
                                             ack=D.constant(0.0)))


def test_local_vs_remote_fetch_selection():
    # (2,2) over 3 peers: every peer holds the data -> local everywhere;
    # then shrink to (1,1) so one peer is always missing data -> remote
    base = _commit_cfg(pvt_fetch_local=D.constant(0.1), pvt_fetch_remote=D.constant(5.0))
    broadcast = replace(base, dissemination=replace(base.dissemination,
                                                    max_peer_count=2,
                                                    required_peer_count=2,
                                                    relaxed=False))
    res = run_scenario(broadcast, collect_traces=True)
    assert res.summaries["phase1"].p99 < 1.0
    narrow = replace(base, dissemination=replace(base.dissemination,
                                                 max_peer_count=1,
                                                 required_peer_count=1,
                                                 relaxed=False))
    res2 = run_scenario(narrow, collect_traces=True)
    assert res2.summaries["phase1"].p99 > 5.0


# -- mvcc -----------------------------------------------------------------------

def _tx(tx_id, status=TxStatus.CREATED):
    tx = Transaction(tx_id, 0, float(tx_id))
    tx.status = status
    return tx


class _FakeBlock:
    def __init__(self, num, txs):
        self.block_num = num
        self.txs = txs
        for pos, tx in enumerate(txs):
            tx.block_num = num
            tx.block_pos = pos
        self.first_commit_at = 1.0


def test_mvcc_parent_committed_earlier_is_valid():
    txs = [_tx(0), _tx(1), _tx(2)]
    blocks = [_FakeBlock(1, txs[:2]), _FakeBlock(2, txs[2:])]
    assert assign_validity(blocks, txs, [None, None, 1]) == []


def test_mvcc_no_parent_is_valid():
    txs = [_tx(0)]
    assert assign_validity([_FakeBlock(1, txs)], txs, [None]) == []


def test_mvcc_uncommitted_parent_is_invalid():
    # the parent is endorsed but not yet ordered when its child commits
    parent, child = _tx(0, status=TxStatus.ENDORSED), _tx(1)
    assert assign_validity([_FakeBlock(1, [child])], [parent, child], [None, 0]) == [child]


def test_mvcc_dropped_parent_is_vacuously_valid():
    parent, child = _tx(0, status=TxStatus.DROPPED), _tx(1)
    assert assign_validity([_FakeBlock(1, [child])], [parent, child], [None, 0]) == []


def test_positional_rule_brute_force_three_tx_permutations():
    # oracle: a dependent is valid iff its parent appears earlier in ledger
    # order (block, position); enumerate every permutation and parent wiring
    for perm in itertools.permutations([0, 1, 2]):
        for wiring in itertools.product([None, 0, 1, 2], repeat=3):
            if any(p is not None and p >= i for i, p in enumerate(wiring)):
                continue  # parents must be strictly older
            txs = [_tx(i) for i in range(3)]
            block = _FakeBlock(1, [txs[i] for i in perm])
            invalid = {tx.tx_id for tx in assign_validity([block], txs, list(wiring))}
            order = {tx_id: pos for pos, tx_id in enumerate(perm)}
            for i, p in enumerate(wiring):
                expected_valid = p is None or order[p] < order[i]
                assert (i not in invalid) == expected_valid, (perm, wiring, i)


def test_two_tx_block_inverted_dependency_hand_trace():
    # ledger order [child, parent]: the child commits first, parent still in
    # flight -> child invalid, parent valid
    parent = _tx(0)
    child = _tx(1)
    block = _FakeBlock(1, [child, parent])
    assert assign_validity([block], [parent, child], [None, 0]) == [child]


def test_parent_in_much_earlier_block_valid():
    parent = _tx(0)
    child = _tx(1)
    b1 = _FakeBlock(1, [parent])
    b4 = _FakeBlock(4, [child])
    assert assign_validity([b1, b4], [parent, child], [None, 0]) == []


def test_fully_dependent_same_block_uncommitted_parents():
    # p=1 chain ordered in reverse: every dependent transaction fails
    txs = [_tx(0), _tx(1), _tx(2)]
    block = _FakeBlock(1, [txs[2], txs[1], txs[0]])
    assert assign_validity([block], txs, [None, 0, 1]) == [txs[2], txs[1]]


# -- scheduling disciplines -------------------------------------------------------

def test_bench_matches_published_serial_and_pipelined_tps():
    c = TABLE_PHASE_CONSTANTS["1-1"]
    p1, p2 = D.constant(c["vscc"] + c["fetch"]), D.constant(c["p2"])
    serial = bench_commit(p1, p2, 4000, "serial", 120)
    pipe = bench_commit(p1, p2, 4000, "pipelined", 120)
    assert math.isclose(serial["tps"], 668.877, rel_tol=0.01)
    assert math.isclose(pipe["tps"], 908.245, rel_tol=0.01)
    c44 = TABLE_PHASE_CONSTANTS["4-4"]
    pipe44 = bench_commit(D.constant(c44["vscc"] + c44["fetch"]),
                          D.constant(c44["p2"]), 4000, "pipelined", 120)
    assert math.isclose(pipe44["tps"], 1340.464, rel_tol=0.01)


def test_perfectly_balanced_phases_double_throughput():
    p1 = p2 = D.constant(2.0)
    serial = bench_commit(p1, p2, 4000, "serial", 100)
    pipe = bench_commit(p1, p2, 4000, "pipelined", 100)
    assert math.isclose(pipe["tps"] / serial["tps"], 2.0, rel_tol=1e-9)


def test_oracle_agreement_constant_distributions():
    # simulated TPS within 1% of the closed form after a 10-block warm-up
    for p1v, p2v, mode in ((3.0, 1.0, "serial"), (3.0, 1.0, "pipelined"),
                           (1.0, 2.5, "pipelined")):
        bench = bench_commit(D.constant(p1v), D.constant(p2v), 500, mode, 80, warmup=10)
        assert math.isclose(bench["tps"], steady_state_tps(p1v, p2v, 500, mode),
                            rel_tol=0.01)


def test_bottleneck_flip_phase2_limits_rate():
    # pipelined throughput is invariant to shrinking p1 once p1 < p2
    base = bench_commit(D.constant(1.4), D.constant(1.5), 1000, "pipelined", 100)
    smaller = bench_commit(D.constant(0.7), D.constant(1.5), 1000, "pipelined", 100)
    assert math.isclose(base["tps"], smaller["tps"], rel_tol=1e-6)


def test_pipeline_safety_phase2_intervals_disjoint():
    bench = bench_commit(D.exponential(1.0), D.exponential(0.8), 100, "pipelined", 200)
    timings = bench["timings"]
    for a, b in zip(timings, timings[1:]):
        assert b.p2_start >= a.p2_end - 1e-12
        assert a.p1_end <= a.p2_start + 1e-12


def test_out_of_order_phase2_raises_integrity_error():
    from eovsim.commit import Peer
    bad = {"called": False}
    orig = Peer._on_p2_done

    def mutant(self, idx):
        if not bad["called"] and idx == 1:
            bad["called"] = True
            return orig(self, idx + 1)
        return orig(self, idx)

    Peer._on_p2_done = mutant
    try:
        with pytest.raises(SimulationIntegrityError):
            bench_commit(D.constant(1.0), D.constant(1.0), 10, "serial", 5, warmup=0)
    finally:
        Peer._on_p2_done = orig


def test_height_equals_phase2_completions(small_cfg):
    from eovsim.simulate import Simulation
    sim = Simulation(small_cfg, collect_traces=False)
    sim.run()
    for peer in sim.peers:
        assert peer.height == len(sim.orderer.blocks)
        assert peer.height == sum(1 for t in peer.timings if t.p2_end >= 0)
