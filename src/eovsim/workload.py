"""Client workload: transaction arrivals and inter-transaction dependencies.

Deterministic arrivals emit one transaction every 1/rate seconds per client
starting at t = 1/rate; poisson arrivals draw exponential gaps. Pool mode
(used by the two-peer coordination scenario) makes a fixed batch of
transactions available at t = 0; they wait in ArrivalSource.unpulled until
EndorsementSystem.fill starts them on free slots of eligible endorsers.

A new transaction becomes dependent on a prior one with probability p; the
parent is drawn uniformly from the transactions that are still ahead of the
orderer (created, not dropped, not yet cut into a block). Validity against
the parent is settled later, from final ledger order.

A parent affects only post-run facts, so the run draws none: it logs the
candidate set's adds and removals, and draw_parents replays that log once the
run is over. Every dependency probability a run evaluates (the configured one
and any extra ones) draws from its own RNG stream into its own parents column,
so a probability's parents match a standalone run at it.
"""

from __future__ import annotations

from array import array
from collections import deque
from functools import partial

from .kernel import EventKind

__all__ = ["TxStatus", "TxStore", "draw_parents", "ArrivalSource"]


class TxStatus:
    """The one-byte codes of TxStore.status; TEXT[code] is the reports' (status,
    drop_reason). The drops, one code per reason, come last."""

    (CREATED, ENDORSED, COMMITTED_VALID, COMMITTED_INVALID,
     DROPPED_CAPACITY, DROPPED_QUORUM, DROPPED_HORIZON) = range(7)
    TEXT = (("created", None), ("endorsed", None), ("committed-valid", None),
            ("committed-invalid-mvcc", None), ("dropped", "capacity"),
            ("dropped", "quorum"), ("dropped", "horizon"))


class TxStore:
    """Every transaction of a run, as parallel columns indexed by tx_id: times
    in array('d'), ids, counts and ledger positions in array('i') (-1: none),
    TxStatus codes in a bytearray. round indexes the winning dissemination round
    in rounds[endorser], the endorser's (targets, designated, holders) table.
    The columns filled after creation grow 1024 unset entries at a time until
    trim cuts them to the transaction count."""

    def __init__(self, probs=()):
        self.created_at, self.endorse_start = array("d"), array("d")
        self.endorse_end, self.quorum_wait = array("d"), array("d")
        self.client, self.endorser, self.retries_used = array("i"), array("i"), array("i")
        self.round, self.block_num, self.block_pos = array("i"), array("i"), array("i")
        self.status = bytearray()
        self.parents = {p: array("i") for p in probs}
        self.rounds: list = []
        self._later = ((self.endorser, -1), (self.endorse_start, -1.0), (self.endorse_end, -1.0),
                       (self.quorum_wait, 0.0), (self.retries_used, 0), (self.round, -1),
                       (self.block_num, -1), (self.block_pos, -1))

    def add(self, client: int, at: float) -> int:
        """Append a created transaction, every later field unset; its id."""
        tx_id = len(self.status)
        self.created_at.append(at)
        self.client.append(client)
        self.status.append(TxStatus.CREATED)
        if tx_id == len(self.round):
            for column, unset in self._later:
                column.extend(array(column.typecode, [unset]) * 1024)
        return tx_id

    def trim(self) -> None:
        """Cut the columns filled after creation to the transaction count."""
        for column, _ in self._later:
            del column[len(self.status):]


def draw_parents(log: array, draws) -> None:
    """Replay log, the dependency candidates' adds (tx_id) and removals
    (~tx_id) in run order, and at each add append the new transaction's parent
    to every (p, stream, parents) of draws: with probability p a uniform
    candidate, -1 otherwise or when there is none.

    A removal moves the last candidate into the hole, so at each add the
    candidates stand in the order the run left them. Each add takes one
    uniform draw per stream, plus one index draw when a parent is chosen.
    """
    items: list[int] = []
    index: dict[int, int] = {}
    for tx in log:
        if tx < 0:
            i = index.pop(~tx)
            last = items.pop()
            if i < len(items):
                items[i] = last
                index[last] = i
            continue
        n = len(items)
        for p, stream, parents in draws:
            parents.append(items[stream.randint(n)] if stream.uniform() < p and n else -1)
        index[tx] = n
        items.append(tx)


def dependency_stream_label(p: float) -> str:
    return f"workload.dependency[p={p!r}]"


class ArrivalSource:
    """Generates creation events and routes new transactions to endorsement.

    For rate-driven modes each client is a self-rescheduling chain of arrival
    events, so the pending-event count stays O(num_clients). In pool mode
    the batch waits in unpulled, in creation order, for free slots of
    eligible peers (see EndorsementSystem.fill). txs is the run's TxStore,
    with a parents column per dependency probability, the configured first;
    the columns stay empty until draw_parents fills them after the run.
    log records the dependency candidates' adds and removals for that replay
    (see workload.draw_parents), and is None when every probability is 0.
    """

    def __init__(self, sim, extra_probs=()):
        workload_cfg = sim.config.workload
        self.sim = sim
        self.cfg = workload_cfg
        self._active_clients = 0
        self._pooled = workload_cfg.arrival_process == "pool"
        self.unpulled: deque[int] = deque()
        # deterministic arrivals: exactly rate*duration per client, at k/rate
        # for k = 1..n
        self._per_client = int(round(workload_cfg.rate_per_client * workload_cfg.duration))
        # float keys: the stream label is repr(p), and 1 must draw as 1.0 does
        probs = dict.fromkeys(float(p) for p in (workload_cfg.dependency_prob, *extra_probs))
        self.txs = TxStore(probs)
        self.log = array("i") if any(p > 0.0 for p in probs) else None

    def start(self) -> None:
        cfg = self.cfg
        if self._pooled:
            for _ in range(cfg.pool_size):
                self.unpulled.append(self._create(client_id=0, at=0.0))
            return
        self._active_clients = cfg.num_clients
        self._gap_streams = [self.sim.stream(f"workload.arrivals.c{client}")
                             for client in range(cfg.num_clients)]
        for client in range(cfg.num_clients):
            self._schedule_next(client, emitted=0)

    # -- rate-driven arrivals ------------------------------------------------

    def _schedule_next(self, client: int, emitted: int) -> None:
        cfg = self.cfg
        if cfg.arrival_process == "deterministic":
            if emitted >= self._per_client:
                self._active_clients -= 1
                return
            at = (emitted + 1) / cfg.rate_per_client
        else:
            at = self.sim.kernel.now + self._gap_streams[client].exponential(1.0 / cfg.rate_per_client)
            if at > cfg.duration:
                self._active_clients -= 1
                return
        self.sim.kernel.schedule(at, EventKind.ARRIVAL, partial(self._arrive, client, emitted))

    def _arrive(self, client: int, emitted: int) -> None:
        tx = self._create(client, self.sim.kernel.now)
        self._schedule_next(client, emitted + 1)
        self.sim.endorsement.submit(tx)

    def _create(self, client_id: int, at: float) -> int:
        tx_id = self.txs.add(client_id, at)
        if self.log is not None:
            self.log.append(tx_id)
        return tx_id

    def draw_parents(self) -> None:
        """Fill every parents column from the finished run's log, each
        probability from its own stream; a p = 0 column is all -1."""
        n = len(self.txs.status)
        parents = self.txs.parents
        draws = []
        for p in parents:
            if p > 0.0:
                draws.append((p, self.sim.stream(dependency_stream_label(p)), parents[p]))
            else:
                parents[p] = array("i", [-1]) * n
        if draws:
            draw_parents(self.log, draws)

    def exhausted(self) -> bool:
        return self._active_clients == 0 and not self.unpulled
