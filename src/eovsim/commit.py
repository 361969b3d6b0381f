"""Peers: endorsement slots plus a five-stage commit pipeline, serial or
pipelined.

Phase 1 is VSCC validation plus private-data fetch (local when the peer holds
every transaction's private data, as settled when the block is cut, remote
otherwise); phase 2 is the MVCC check, block-store update, and state-database
write, which must run in strict block order. Pipelining overlaps phase 1 of
block i+1 with phase 2 of block i; phase 2 of i+1 still waits for phase 2 of
i. Peer.kick() is the whole rule: each delivery, phase end and pause release
calls it, and it starts whatever the peer's phase timings allow.

Transaction validity is a pure function of final ledger order: a dependent
transaction is invalid unless its parent committed valid at a strictly
earlier ledger position (earlier block, or earlier slot in the same block).
A parent that was dropped before ordering can never conflict, so its
dependents pass vacuously.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .kernel import EventKind, SimulationIntegrityError
from .workload import TxStatus

__all__ = ["PhaseTiming", "Peer", "steady_state_tps", "bench_commit",
           "assign_validity"]


class PhaseTiming:
    __slots__ = ("block_num", "peer_id", "p1_start", "p1_end", "p2_start", "p2_end")

    def __init__(self, block_num: int, peer_id: int):
        self.block_num = block_num
        self.peer_id = peer_id
        self.p1_start = self.p1_end = -1.0
        self.p2_start = self.p2_end = -1.0

    @property
    def p1_duration(self) -> float:
        return self.p1_end - self.p1_start

    @property
    def p2_duration(self) -> float:
        return self.p2_end - self.p2_start


def steady_state_tps(p1: float, p2: float, block_size: int, mode: str) -> float:
    """Closed-form saturated commit throughput (the pipelining oracle)."""
    if p1 < 0 or p2 < 0 or p1 == p2 == 0:
        raise ValueError("phase durations must be non-negative and not both zero")
    if mode == "serial":
        return block_size / (p1 + p2)
    if mode == "pipelined":
        return block_size / max(p1, p2)
    raise ValueError(f"unknown commit mode {mode!r}")


class Peer:
    """One peer: its endorsement slots, its commit pipeline and its streams.

    EndorsementSystem fills busy and buffer and draws from the endorse,
    overhead and ack streams. The pipeline reads blocks from the orderer's
    ledger: len(timings) counts those delivered here, p1_next those through
    phase 1, and height, the phase-2 cursor, those committed. A phase is in
    flight when its block's start stamp is set and the cursor has not passed
    it, so kick() reads the whole pipeline state from the timings. The
    waiting controller sets paused and boost_factor.
    """

    __slots__ = (
        "sim", "peer_id", "busy", "buffer", "commit_scale", "height",
        "paused", "boost_factor", "model", "mode", "timings", "p1_next",
        "endorse_stream", "overhead_stream", "ack_stream",
        "_vscc", "_fetch", "_mvcc", "_store", "_statedb",
    )

    def __init__(self, sim, peer_id: int):
        config = sim.config
        self.sim = sim
        self.peer_id = peer_id
        self.busy = 0
        self.buffer: deque = deque()
        self.commit_scale = config.peers.scale_for(peer_id)
        self.height = 0
        self.paused = False
        self.boost_factor = 1.0
        self.model = config.commit_model
        self.mode = config.commit_mode
        self.endorse_stream = sim.stream(f"peer{peer_id}.endorse")
        self.overhead_stream = sim.stream(f"peer{peer_id}.overhead")
        self.ack_stream = sim.stream(f"peer{peer_id}.ack")
        self._vscc = sim.stream(f"peer{peer_id}.vscc")
        self._fetch = sim.stream(f"peer{peer_id}.fetch")
        self._mvcc = sim.stream(f"peer{peer_id}.mvcc")
        self._store = sim.stream(f"peer{peer_id}.block_store")
        self._statedb = sim.stream(f"peer{peer_id}.statedb")
        self.timings: list[PhaseTiming] = []
        self.p1_next = 0            # next block index to finish phase 1

    def on_block_delivered(self, block) -> None:
        self.timings.append(PhaseTiming(block.block_num, self.peer_id))
        self.kick()

    def _on_p1_done(self) -> None:
        self.p1_next += 1
        self.kick()

    def _on_p2_done(self) -> None:
        idx = self.height
        now = self.sim.kernel.now
        if not (idx < self.p1_next and self.timings[idx].p2_end == now):
            raise SimulationIntegrityError(
                f"peer {self.peer_id}: out-of-order phase 2 completion "
                f"(block index {idx}, now {now})")
        self.height = idx + 1
        self.sim.on_commit(self.sim.orderer.blocks[idx], self.timings[idx])
        self.kick()

    def kick(self) -> None:
        """Start every phase that may start now; the whole pipeline rule.

        Phase 1 runs one block at a time, in block order; a serial peer also
        waits until every earlier block has committed. Phase 2 runs block
        height once its phase 1 is done and the peer is not paused. Every
        event that can free a phase (delivery, a phase end, a pause release)
        calls this.
        """
        sim = self.sim
        model = self.model
        timings = self.timings
        now = sim.kernel.now
        idx = self.p1_next
        if (idx < len(timings) and timings[idx].p1_start < 0
                and (self.mode == "pipelined" or self.height == idx)):
            block = sim.orderer.blocks[idx]
            size = block.size
            fetch_dist = (model.pvt_fetch_local if block.local_data[self.peer_id]
                          else model.pvt_fetch_remote)
            dur = ((model.vscc.sample(self._vscc, size) * model.vscc_core_scale
                    + fetch_dist.sample(self._fetch, size))
                   * (self.commit_scale * self.boost_factor))
            t = timings[idx]
            t.p1_start = now
            t.p1_end = now + dur
            sim.kernel.schedule(now + dur, EventKind.PHASE1_DONE, self._on_p1_done)
        idx = self.height
        if idx < self.p1_next and timings[idx].p2_start < 0 and not self.paused:
            size = sim.orderer.blocks[idx].size
            dur = ((model.mvcc.sample(self._mvcc, size)
                    + model.block_store.sample(self._store, size)
                    + model.statedb.sample(self._statedb, size))
                   * (self.commit_scale * self.boost_factor))
            t = timings[idx]
            t.p2_start = now
            t.p2_end = now + dur
            sim.kernel.schedule(now + dur, EventKind.PHASE2_DONE, self._on_p2_done)


# ---------------------------------------------------------------------------
# Validity

def assign_validity(ledger, txs, parents):
    """The ids of the committed transactions MVCC invalidates, in ledger order.

    A dependent transaction is invalid iff its parent is still in flight at
    the dependent's commit: not dropped, and not ordered at a strictly
    earlier ledger position. Ledger position is (block_num, block_pos), so
    the check is one comparison over the columns.

    ledger: the committed transactions' ids in ledger order, a numpy array;
    txs: the run's TxStore; parents: one dependency probability's parents
    column. Statuses are left untouched.
    """
    par = np.frombuffer(parents, np.intc)[ledger]
    child, par = ledger[par >= 0], par[par >= 0]
    bnum, bpos = np.frombuffer(txs.block_num, np.intc), np.frombuffer(txs.block_pos, np.intc)
    pb, cb = bnum[par], bnum[child]
    earlier = (pb != -1) & ((pb < cb) | ((pb == cb) & (bpos[par] < bpos[child])))
    dropped = np.frombuffer(txs.status, np.uint8)[par] >= TxStatus.DROPPED_CAPACITY
    return child[~(earlier | dropped)]


def bench_commit(p1_dist, p2_dist, block_size: int, mode: str, n_blocks: int,
                 seed: int = 1, warmup: int = 10):
    """Drive peer 0 of a real Simulation with a saturated queue of blocks.

    All blocks are delivered at t=0; throughput is measured over blocks
    (warmup, n_blocks]. With constant stage distributions this matches
    steady_state_tps exactly.
    """
    from .config import CommitLatencyModel, ScenarioConfig
    from .ordering import Block
    from .simulate import Simulation

    if not 0 <= warmup < n_blocks:
        raise ValueError("need 0 <= warmup < n_blocks")
    config = ScenarioConfig(seed=seed, commit_mode=mode,
                            commit_model=CommitLatencyModel(vscc=p1_dist, mvcc=p2_dist))
    sim = Simulation(config, collect_traces=False)
    peer = sim.peers[0]
    txs = [None] * block_size
    for i in range(n_blocks):
        block = Block(i + 1, txs, 0.0, 0.0)
        block.local_data = [True]
        sim.orderer.blocks.append(block)
        peer.on_block_delivered(block)
    sim.kernel.run_until()
    if peer.height != n_blocks:
        raise SimulationIntegrityError("bench did not commit every block")
    timings = peer.timings
    t0 = timings[warmup - 1].p2_end if warmup else 0.0
    elapsed = timings[-1].p2_end - t0
    if elapsed <= 0:
        raise ValueError("phase durations must not both be zero")
    tps = (n_blocks - warmup) * block_size / elapsed
    p1_mean = sum(t.p1_duration for t in timings) / n_blocks
    p2_mean = sum(t.p2_duration for t in timings) / n_blocks
    return {"tps": tps, "p1_mean": p1_mean, "p2_mean": p2_mean,
            "time_ratio": p1_mean / p2_mean if p2_mean > 0 else 0.0, "timings": timings}
