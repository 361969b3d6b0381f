"""Peers: endorsement slots plus a five-stage commit pipeline, serial or
pipelined.

Phase 1 is VSCC validation plus private-data fetch (local when the peer holds
every transaction's private data at phase start, remote otherwise); phase 2
is the MVCC check, block-store update, and state-database write, which must
run in strict block order. Pipelining overlaps phase 1 of block i+1 with
phase 2 of block i; phase 2 of i+1 still waits for phase 2 of i.

Transaction validity is a pure function of final ledger order: a dependent
transaction is invalid unless its parent committed valid at a strictly
earlier ledger position (earlier block, or earlier slot in the same block).
A parent that was dropped before ordering can never conflict, so its
dependents pass vacuously.
"""

from __future__ import annotations

from collections import deque

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
    if p1 <= 0 and p2 <= 0:
        raise ValueError("phase durations must be positive")
    if mode == "serial":
        return block_size / (p1 + p2)
    if mode == "pipelined":
        return block_size / max(p1, p2)
    raise ValueError(f"unknown commit mode {mode!r}")


class Peer:
    """One peer: its endorsement slots, its commit pipeline and its streams.

    EndorsementSystem fills busy and buffer and draws from the endorse,
    overhead and ack streams. The pipeline reads blocks from the orderer's
    ledger: len(timings) counts those delivered here, and height, the
    phase-2 cursor, those committed. The waiting controller sets paused and
    boost_factor.
    """

    __slots__ = (
        "sim", "peer_id", "busy", "buffer", "commit_scale", "height",
        "paused", "boost_factor", "model", "mode", "timings",
        "p1_next", "p1_busy", "p2_busy",
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
        self.p1_next = 0            # next block index to start phase 1
        self.p1_busy = False
        self.p2_busy = False

    def on_block_delivered(self, block) -> None:
        self.timings.append(PhaseTiming(block.block_num, self.peer_id))
        self._maybe_start_p1()

    def _factor(self) -> float:
        return self.commit_scale * self.boost_factor

    def _maybe_start_p1(self) -> None:
        if self.p1_busy or self.p1_next >= len(self.timings):
            return
        idx = self.p1_next
        if self.mode == "serial" and self.height < idx:
            return  # strict discipline: previous block must fully commit first
        block = self.sim.orderer.blocks[idx]
        size = block.size
        fetch_dist = (self.model.pvt_fetch_local if block.local_data[self.peer_id]
                      else self.model.pvt_fetch_remote)
        dur = (self.model.vscc.sample(self._vscc, size) * self.model.vscc_core_scale
               + fetch_dist.sample(self._fetch, size)) * self._factor()
        self.p1_busy = True
        now = self.sim.kernel.now
        t = self.timings[idx]
        t.p1_start = now
        t.p1_end = now + dur
        self.sim.kernel.schedule(now + dur, EventKind.PHASE1_DONE, self._on_p1_done)

    def _on_p1_done(self) -> None:
        self.p1_busy = False
        self.p1_next += 1
        self._maybe_start_p1()  # a serial peer waits at its height guard
        self._maybe_start_p2()

    def _maybe_start_p2(self) -> None:
        idx = self.height
        if self.p2_busy or idx >= self.p1_next or self.paused:
            return
        block = self.sim.orderer.blocks[idx]
        size = block.size
        dur = (self.model.mvcc.sample(self._mvcc, size)
               + self.model.block_store.sample(self._store, size)
               + self.model.statedb.sample(self._statedb, size)) * self._factor()
        now = self.sim.kernel.now
        prev_end = self.timings[idx - 1].p2_end if idx else 0.0
        if now < prev_end - 1e-12:
            raise SimulationIntegrityError(
                f"peer {self.peer_id}: phase 2 of block {block.block_num} "
                f"would start at {now} before previous phase 2 ended at {prev_end}")
        self.p2_busy = True
        t = self.timings[idx]
        t.p2_start = now
        t.p2_end = now + dur
        self.sim.kernel.schedule(now + dur, EventKind.PHASE2_DONE,
                                 lambda: self._on_p2_done(idx))

    def _on_p2_done(self, idx: int) -> None:
        if idx != self.height:
            raise SimulationIntegrityError(
                f"peer {self.peer_id}: out-of-order phase 2 completion "
                f"(block index {idx}, expected {self.height})")
        self.p2_busy = False
        self.height += 1
        self.sim.on_commit(self.sim.orderer.blocks[idx], self.timings[idx])
        self.kick()

    def kick(self) -> None:
        """Re-check both phases (pause released, or external state changed)."""
        self._maybe_start_p1()
        self._maybe_start_p2()


# ---------------------------------------------------------------------------
# Validity

def assign_validity(blocks, txs, parents) -> list:
    """Walk the ledger in order; return the transactions MVCC invalidates.

    A dependent transaction is invalid iff its parent is still in flight at
    the dependent's commit: not dropped, and not ordered at a strictly
    earlier ledger position. Ledger position is (block_num, block_pos), so
    the check is a direct comparison.

    txs: all transactions indexed by tx_id. parents: the parents sequence of
    one dependency probability, parents[tx_id] = parent id or None. Every
    other transaction of the blocks is valid; statuses are left untouched.
    """
    invalid = []
    dropped = TxStatus.DROPPED
    for block in blocks:
        bnum = block.block_num
        for tx in block.txs:
            parent = parents[tx.tx_id]
            if parent is None:
                continue
            par = txs[parent]
            pb = par.block_num
            if not ((pb != -1 and (pb < bnum or (pb == bnum and par.block_pos < tx.block_pos)))
                    or par.status == dropped):
                invalid.append(tx)
    return invalid


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
    tps = (n_blocks - warmup) * block_size / elapsed
    p1_mean = sum(t.p1_duration for t in timings) / n_blocks
    p2_mean = sum(t.p2_duration for t in timings) / n_blocks
    return {"tps": tps, "p1_mean": p1_mean, "p2_mean": p2_mean,
            "time_ratio": p1_mean / p2_mean, "timings": timings}
