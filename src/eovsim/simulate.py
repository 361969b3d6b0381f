"""Scenario assembly and execution: one kernel, one run, one RunResult."""

from __future__ import annotations

from dataclasses import dataclass

from . import __version__ as _version
from .commit import CommitEngine, assign_validity
from .config import ScenarioConfig, config_hash
from .coordination import WaitingController
from .endorsement import EndorsementSystem, PeerState, eligible_endorsers
from .kernel import EventKind, SimKernel, StreamRegistry
from .metrics import LatencySummary, RunCounters, ThroughputSummary
from .ordering import Orderer
from .workload import ArrivalSource, TxStatus

__all__ = ["Simulation", "RunResult", "run_scenario"]


@dataclass
class RunResult:
    config: ScenarioConfig
    config_hash: str
    counters: RunCounters
    summaries: dict
    throughput: ThroughputSummary
    status: str                  # drained | truncated
    makespan: float
    last_commit_at: float
    n_blocks: int
    eligible_multi_fraction: float
    wait_events: list
    invalid_by_prob: dict        # dependency prob -> invalid count (same ledger)
    per_peer_commit_mean: list   # mean block-commit seconds per peer
    tx_trace: list | None = None
    tx_parents: list | None = None   # parent id or None per tx_trace entry
    block_trace: list | None = None
    error: str | None = None
    eligibility_log: list | None = None
    version: str = _version


class Simulation:
    """Wires workload, endorsement, ordering, commit, and coordination."""

    def __init__(self, config: ScenarioConfig, collect_traces: bool | None = None,
                 extra_dep_probs=(), record_eligibility: bool = False):
        self.config = config
        self.kernel = SimKernel()
        self.streams = StreamRegistry(config.seed)
        self.collect_traces = config.emit_traces if collect_traces is None else collect_traces

        n = config.peers.count
        self.peers = [PeerState(i, config.peers.scale_for(i)) for i in range(n)]
        self.source = ArrivalSource(self, config.workload, extra_dep_probs)
        self.endorsement = EndorsementSystem(
            self, self.peers, config.leader, config.dissemination,
            config.endorse_model.execute, config.endorse_model.overhead,
            config.endorse_model.ack,
            config.peers.endorse_concurrency, config.peers.gateway_buffer)
        if record_eligibility:
            self.endorsement.eligibility_log = []
        self.orderer = Orderer(self, config.cut_rule, n)
        self.engines = [CommitEngine(self, p, config.commit_model, config.commit_mode)
                        for p in self.peers]
        self.controller = WaitingController(self, config.waiting)
        self._pool_mode = config.workload.arrival_process == "pool"

        self.counters = RunCounters()
        self._endorse_total: list[float] = []
        self._quorum_wait: list[float] = []
        self._block_creation: list[float] = []
        self._p1: list[float] = []
        self._p2: list[float] = []
        self._commit_total: list[float] = []
        self._e2e: list[float] = []
        self._peer_commit_sum = [0.0] * n
        self._peer_commit_n = [0] * n
        self.last_commit_at = 0.0
        self.last_endorse_at = 0.0
        # time-weighted eligibility: fraction of the run with >= 2 eligible
        self._elig_t = 0.0
        self._elig_acc = 0.0
        self._elig_multi = self._count_eligible() >= 2

    # -- hooks from the subsystems ------------------------------------------

    def submit(self, tx) -> None:
        self.endorsement.submit(tx)

    def on_dropped(self, tx) -> None:
        self.counters.dropped += 1
        if tx.drop_reason == "capacity":
            self.counters.dropped_capacity += 1
        elif tx.drop_reason == "quorum":
            self.counters.dropped_quorum += 1
        self.source.pool.discard(tx.tx_id)

    def on_endorsed(self, tx) -> None:
        self.counters.endorsed += 1
        now = self.kernel.now
        self.last_endorse_at = now
        self._endorse_total.append(now - tx.endorse_start)
        self._quorum_wait.append(tx.quorum_wait)
        self.orderer.enqueue_endorsed(tx)

    def on_slot_free(self, peer) -> None:
        if self._pool_mode:
            self._resolve_pool_mode()

    def on_block_cut(self, block) -> None:
        pool = self.source.pool
        for tx in block.txs:
            pool.discard(tx.tx_id)
        self._block_creation.append(block.creation_time)
        if self.config.ordering_overhead > 0:
            self.kernel.schedule(self.kernel.now + self.config.ordering_overhead,
                                 EventKind.GENERIC,
                                 lambda: self._deliver(block))
        else:
            self._deliver(block)

    def _deliver(self, block) -> None:
        for engine in self.engines:
            engine.on_block_delivered(block)

    def on_commit(self, peer, block, timing) -> None:
        now = self.kernel.now
        p1 = timing.p1_duration
        p2 = timing.p2_duration
        self._p1.append(p1)
        self._p2.append(p2)
        self._commit_total.append(p1 + p2)
        pid = peer.peer_id
        self._peer_commit_sum[pid] += p1 + p2
        self._peer_commit_n[pid] += 1
        if block.first_commit_at < 0:
            block.first_commit_at = now
            self.last_commit_at = now
            e2e = self._e2e
            for tx in block.txs:
                tx.committed_at = now
                e2e.append(now - tx.created_at)
        self.controller.on_commit_event()
        self._update_eligibility()
        self._resolve_pool_mode()

    # -- pool-mode pulls ------------------------------------------------------

    def _resolve_pool_mode(self) -> None:
        if not self._pool_mode or self.source.pool_exhausted():
            return
        cap = self.config.peers.endorse_concurrency
        eligible = eligible_endorsers(self.config.leader, self.endorsement.heights())
        for i in eligible:
            peer = self.peers[i]
            while peer.busy < cap:
                tx = self.source.next_pooled()
                if tx is None:
                    return
                self.endorsement.admit(peer, tx)

    # -- eligibility accounting -----------------------------------------------

    def _count_eligible(self) -> int:
        return len(eligible_endorsers(self.config.leader,
                                      [p.height for p in self.peers]))

    def _update_eligibility(self) -> None:
        now = self.kernel.now
        if self._elig_multi:
            self._elig_acc += now - self._elig_t
        self._elig_t = now
        self._elig_multi = self._count_eligible() >= 2

    def drained(self) -> bool:
        return (self.source.exhausted() and self.endorsement.inflight == 0
                and not self.orderer.queue)

    # -- run ------------------------------------------------------------------

    def run(self) -> RunResult:
        self.source.start()
        self.orderer.start()
        self._resolve_pool_mode()
        self.kernel.run_until(self.config.horizon)
        return self._finalize()

    def _finalize(self) -> RunResult:
        makespan = self.kernel.now
        self._update_eligibility()
        truncated = self.kernel.pending() > 0 or not self.drained()

        counters = self.counters
        txs = self.source.txs
        counters.created = len(txs)

        # committed blocks form a ledger prefix (every peer commits in order)
        blocks = self.orderer.blocks
        committed_prefix = []
        for b in blocks:
            if b.first_commit_at < 0:
                break
            committed_prefix.append(b)
        primary = self.config.workload.dependency_prob
        invalid_by_prob = {}
        for p, parents in self.source.parents.items():
            invalid = assign_validity(committed_prefix, txs, parents)
            invalid_by_prob[p] = len(invalid)
            if p == primary:
                primary_invalid = invalid
        for b in committed_prefix:
            for tx in b.txs:
                tx.status = TxStatus.COMMITTED_VALID
        for tx in primary_invalid:
            tx.status = TxStatus.COMMITTED_INVALID
        n_invalid = len(primary_invalid)
        n_valid = sum(b.size for b in committed_prefix) - n_invalid
        counters.committed_valid = n_valid
        counters.committed_invalid_mvcc = n_invalid

        if truncated:
            for tx in txs:
                if tx.status in (TxStatus.CREATED, TxStatus.BUFFERED, TxStatus.EXECUTING):
                    tx.status = TxStatus.DROPPED
                    tx.drop_reason = "horizon"
                    counters.dropped += 1
                    counters.dropped_horizon += 1
        counters.in_flight_at_horizon = (counters.endorsed - n_valid - n_invalid)
        counters.check()

        summaries = {}
        for label, samples in (("endorse_total", self._endorse_total),
                               ("quorum_wait", self._quorum_wait),
                               ("block_creation", self._block_creation),
                               ("phase1", self._p1), ("phase2", self._p2),
                               ("commit_total", self._commit_total),
                               ("e2e", self._e2e)):
            summ = LatencySummary.from_samples(label, samples)
            if summ is not None:
                summaries[label] = summ

        committed = n_valid + n_invalid
        p1m = summaries["phase1"].mean if "phase1" in summaries else 0.0
        p2m = summaries["phase2"].mean if "phase2" in summaries else 0.0
        first_cut = blocks[0].cut_at if blocks else 0.0
        throughput = ThroughputSummary(
            e2e_tps=(committed / self.last_commit_at) if self.last_commit_at > 0 else 0.0,
            commit_tps=(committed / (self.last_commit_at - first_cut)
                        if self.last_commit_at > first_cut else 0.0),
            endorsement_tps=(counters.endorsed / self.last_endorse_at
                             if self.last_endorse_at > 0 else 0.0),
            time_ratio=(p1m / p2m) if p2m > 0 else 0.0,
        )

        per_peer_mean = [s / n if n else 0.0
                         for s, n in zip(self._peer_commit_sum, self._peer_commit_n)]

        tx_trace = tx_parents = block_trace = None
        if self.collect_traces:
            tx_trace = txs
            tx_parents = self.source.parents[primary]
            block_trace = [(b, [eng.timings[i] for eng in self.engines
                                if i < len(eng.timings)])
                           for i, b in enumerate(blocks)]

        return RunResult(
            config=self.config,
            config_hash=config_hash(self.config),
            counters=counters,
            summaries=summaries,
            throughput=throughput,
            status="truncated" if truncated else "drained",
            makespan=makespan,
            last_commit_at=self.last_commit_at,
            n_blocks=len(blocks),
            eligible_multi_fraction=(self._elig_acc / makespan) if makespan > 0 else 0.0,
            wait_events=self.controller.events,
            invalid_by_prob=invalid_by_prob,
            per_peer_commit_mean=per_peer_mean,
            tx_trace=tx_trace,
            tx_parents=tx_parents,
            block_trace=block_trace,
        )


def run_scenario(config: ScenarioConfig, collect_traces: bool | None = None,
                 extra_dep_probs=(), record_eligibility: bool = False) -> RunResult:
    sim = Simulation(config, collect_traces=collect_traces,
                     extra_dep_probs=extra_dep_probs,
                     record_eligibility=record_eligibility)
    result = sim.run()
    if record_eligibility:
        result.eligibility_log = sim.endorsement.eligibility_log
    return result
