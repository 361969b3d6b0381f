"""Scenario assembly and execution: one kernel, one run, one RunResult."""

from __future__ import annotations

import weakref
from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import __version__ as _version
from .commit import Peer, assign_validity
from .config import ScenarioConfig, config_hash
from .coordination import WaitingController
from .endorsement import EndorsementSystem, eligible_endorsers
from .kernel import RngStream, SimKernel
from .metrics import STAGES, LatencySummary, RunCounters, ThroughputSummary
from .ordering import Orderer
from .workload import ArrivalSource, TxStatus, TxStore

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
    txs: TxStore | None = None   # every transaction, as columns
    block_trace: list | None = None
    version: str = _version


class Simulation:
    """Wires workload, endorsement, ordering, commit, and coordination.

    The subsystems reach the run through a weak proxy of it, so the run's
    objects form a tree rooted here: dropping the Simulation frees the whole
    run at once, with no collector pass. Keep the Simulation while you use a
    subsystem; touching the run through a subsystem after the Simulation is
    gone raises ReferenceError. The kernel heap holds the subsystems'
    callbacks, so no subsystem may store the Simulation, its kernel, or a
    heap entry whose callback holds that subsystem.
    """

    def __init__(self, config: ScenarioConfig, collect_traces: bool = True,
                 extra_dep_probs=()):
        self.config = config
        self.kernel = SimKernel()
        self.collect_traces = collect_traces
        sim = weakref.proxy(self)
        self.peers = [Peer(sim, i) for i in range(config.peers.count)]
        self.source = ArrivalSource(sim, extra_dep_probs)
        self.endorsement = EndorsementSystem(sim)
        self.orderer = Orderer(sim)
        self.controller = WaitingController(sim)
        self._commits: list = []  # PhaseTiming of every commit event, in event order
        # peers that may endorse at the current heights; heights change only
        # on a commit, so on_commit refreshes it
        self.eligible = eligible_endorsers(config.leader, [p.height for p in self.peers])
        # time-weighted eligibility: fraction of the run with >= 2 eligible
        self._elig_t = 0.0
        self._elig_acc = 0.0

    def stream(self, label: str) -> RngStream:
        """A new stream named label under the run's seed. Each consumer asks
        once: a second call would replay the same draws."""
        return RngStream(self.config.seed, label)

    # -- hook from the peers -------------------------------------------------

    def on_commit(self, block, timing) -> None:
        now = self.kernel.now
        self._commits.append(timing)
        if block.first_commit_at < 0:
            block.first_commit_at = now
        self.controller.on_commit_event()
        self._accrue_eligibility(now)
        self.eligible = eligible_endorsers(self.config.leader, [p.height for p in self.peers])
        for i in self.eligible:
            self.endorsement.fill(self.peers[i])

    # -- eligibility accounting -----------------------------------------------

    def _accrue_eligibility(self, now: float) -> None:
        """Add the time since the last height change if >= 2 peers were eligible."""
        if len(self.eligible) >= 2:
            self._elig_acc += now - self._elig_t
        self._elig_t = now

    def drained(self) -> bool:
        return (self.source.exhausted() and not any(p.busy or p.buffer for p in self.peers)
                and not self.orderer.queue)

    # -- run ------------------------------------------------------------------

    def run(self) -> RunResult:
        self.source.start()
        self.orderer.start()
        for i in self.eligible:
            self.endorsement.fill(self.peers[i])
        self.kernel.run_until(self.config.horizon)
        return self._finalize()

    def _finalize(self) -> RunResult:
        makespan = self.kernel.now
        self._accrue_eligibility(makespan)
        truncated = self.kernel.pending() > 0 or not self.drained()
        txs = self.source.txs
        txs.trim()

        # committed blocks form a ledger prefix (every peer commits in order).
        # The orderer takes endorsed transactions FIFO, so the blocks followed
        # by its queue hold them in endorsement order; first commits happen in
        # block order. Those past the committed prefix are in flight.
        blocks = self.orderer.blocks
        committed_prefix = blocks[:max(p.height for p in self.peers)]
        endorsed = array("i", chain(*(b.txs for b in blocks), self.orderer.queue))
        ledger = np.frombuffer(endorsed, dtype=np.intc)[:sum(b.size for b in committed_prefix)]
        invalid = {p: assign_validity(ledger, txs, parents) for p, parents in txs.parents.items()}
        invalid_by_prob = {p: len(ids) for p, ids in invalid.items()}
        status = np.frombuffer(txs.status, dtype=np.uint8)
        status[ledger] = TxStatus.COMMITTED_VALID
        status[invalid[self.config.workload.dependency_prob]] = TxStatus.COMMITTED_INVALID
        if truncated:
            status[status == TxStatus.CREATED] = TxStatus.DROPPED_HORIZON

        # every transaction's fate is settled: count each kind once
        fates = txs.status.count
        n_valid, n_invalid = fates(TxStatus.COMMITTED_VALID), fates(TxStatus.COMMITTED_INVALID)
        capacity, quorum, horizon = map(fates, (TxStatus.DROPPED_CAPACITY,
                                                TxStatus.DROPPED_QUORUM, TxStatus.DROPPED_HORIZON))
        counters = RunCounters(
            created=len(txs.status), endorsed=fates(TxStatus.ENDORSED) + n_valid + n_invalid,
            dropped=capacity + quorum + horizon, dropped_capacity=capacity,
            dropped_quorum=quorum, dropped_horizon=horizon,
            committed_valid=n_valid, committed_invalid_mvcc=n_invalid,
            in_flight_at_horizon=len(endorsed) - n_valid - n_invalid)
        counters.check()

        # map frees each stage's samples before the next stage's are built
        summaries = {s.stage: s for s in map(LatencySummary.from_samples, STAGES,
                                             self._stage_samples(txs, endorsed, committed_prefix))
                     if s is not None}

        committed = n_valid + n_invalid
        last_commit_at = committed_prefix[-1].first_commit_at if committed_prefix else 0.0
        last_endorse_at = txs.endorse_end[endorsed[-1]] if endorsed else 0.0
        p1m = summaries["phase1"].mean if "phase1" in summaries else 0.0
        p2m = summaries["phase2"].mean if "phase2" in summaries else 0.0
        first_cut = blocks[0].cut_at if blocks else 0.0
        throughput = ThroughputSummary(
            e2e_tps=(committed / last_commit_at) if last_commit_at > 0 else 0.0,
            commit_tps=(committed / (last_commit_at - first_cut)
                        if last_commit_at > first_cut else 0.0),
            endorsement_tps=(counters.endorsed / last_endorse_at
                             if last_endorse_at > 0 else 0.0),
            time_ratio=(p1m / p2m) if p2m > 0 else 0.0,
        )

        # each peer commits in block order, so its sum matches commit-event order
        per_peer_mean = [sum(t.p1_duration + t.p2_duration for t in p.timings[:p.height])
                         / p.height if p.height else 0.0 for p in self.peers]

        block_trace = None
        if self.collect_traces:
            block_trace = [(b, [p.timings[i] for p in self.peers if i < len(p.timings)])
                           for i, b in enumerate(blocks)]

        return RunResult(
            config=self.config,
            config_hash=config_hash(self.config),
            counters=counters,
            summaries=summaries,
            throughput=throughput,
            status="truncated" if truncated else "drained",
            makespan=makespan,
            last_commit_at=last_commit_at,
            n_blocks=len(blocks),
            eligible_multi_fraction=(self._elig_acc / makespan) if makespan > 0 else 0.0,
            wait_events=self.controller.events,
            invalid_by_prob=invalid_by_prob,
            per_peer_commit_mean=per_peer_mean,
            txs=txs if self.collect_traces else None,
            block_trace=block_trace,
        )

    def _stage_samples(self, txs, endorsed, committed):
        """The samples of each stage in STAGES, one list at a time, each in
        the order the run made them: endorsement order, block order, or
        commit-event order. endorsed holds the endorsed transactions' ids."""
        start, end, wait, created = (txs.endorse_start, txs.endorse_end, txs.quorum_wait,
                                     txs.created_at)
        yield [end[tx] - start[tx] for tx in endorsed]
        yield [wait[tx] for tx in endorsed]
        yield [b.creation_time for b in self.orderer.blocks]
        commits = self._commits
        yield [t.p1_duration for t in commits]
        yield [t.p2_duration for t in commits]
        yield [t.p1_duration + t.p2_duration for t in commits]
        yield [b.first_commit_at - created[tx] for b in committed for tx in b.txs]


def run_scenario(config: ScenarioConfig, collect_traces: bool = True,
                 extra_dep_probs=()) -> RunResult:
    return Simulation(config, collect_traces=collect_traces,
                      extra_dep_probs=extra_dep_probs).run()
