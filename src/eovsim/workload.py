"""Client workload: transaction arrivals and inter-transaction dependencies.

Deterministic arrivals emit one transaction every 1/rate seconds per client
starting at t = 1/rate; poisson arrivals draw exponential gaps. Pool mode
(used by the two-peer coordination scenario) makes a fixed batch of
transactions available at t = 0 to be pulled by idle eligible endorsers.

A new transaction becomes dependent on a prior one with probability p; the
parent is drawn uniformly from the transactions that are still ahead of the
orderer (created, not dropped, not yet cut into a block). Validity against
the parent is settled later, from final ledger order.

Every dependency probability a run evaluates (the configured one and any
extra ones) is drawn by draw_parent from its own RNG stream into its own
parents sequence, so a probability's parents match a standalone run at it.
"""

from __future__ import annotations

from functools import partial

from .kernel import EventKind, RngStream

__all__ = ["TxStatus", "Transaction", "InFlightPool", "draw_parent", "ArrivalSource"]


class TxStatus:
    CREATED = "created"
    ENDORSED = "endorsed"
    DROPPED = "dropped"
    COMMITTED_VALID = "committed-valid"
    COMMITTED_INVALID = "committed-invalid-mvcc"


class Transaction:
    __slots__ = (
        "tx_id", "client_id", "created_at",
        "endorser", "endorse_start", "endorse_end", "quorum_wait", "retries_used",
        "holders", "disseminated_to", "block_num", "block_pos", "status", "drop_reason",
    )

    def __init__(self, tx_id: int, client_id: int, created_at: float):
        self.tx_id = tx_id
        self.client_id = client_id
        self.created_at = created_at
        self.endorser: int | None = None
        self.endorse_start = -1.0
        self.endorse_end = -1.0
        self.quorum_wait = 0.0
        self.retries_used = 0
        self.holders = 0  # bitmask of the peers holding the private data
        self.disseminated_to: tuple[int, ...] | None = None
        # ledger position; the block holds the order and commit times
        self.block_num = -1
        self.block_pos = -1
        self.status = TxStatus.CREATED
        self.drop_reason: str | None = None

    def __repr__(self):
        return f"Transaction({self.tx_id}, status={self.status})"


class InFlightPool:
    """Uniform-choice set of dependency candidates with O(1) add/remove."""

    __slots__ = ("_items", "_index")

    def __init__(self):
        self._items: list[int] = []
        self._index: dict[int, int] = {}

    def __len__(self):
        return len(self._items)

    def add(self, tx_id: int) -> None:
        self._index[tx_id] = len(self._items)
        self._items.append(tx_id)

    def discard(self, tx_id: int) -> None:
        i = self._index.pop(tx_id, None)
        if i is None:
            return
        last = self._items.pop()
        if i < len(self._items):
            self._items[i] = last
            self._index[last] = i

    def choose(self, stream: RngStream) -> int:
        return self._items[stream.randint(len(self._items))]


def draw_parent(pool: InFlightPool, p: float, stream: RngStream) -> int | None:
    """With probability p, a uniform member of the pool; None otherwise.

    Consumes one bernoulli draw when p > 0, plus one index draw when a
    parent is chosen, and touches no other stream.
    """
    if p > 0.0 and stream.uniform() < p and len(pool) > 0:
        return pool.choose(stream)
    return None


def dependency_stream_label(p: float) -> str:
    return f"workload.dependency[p={p!r}]"


class ArrivalSource:
    """Generates creation events and routes new transactions to endorsement.

    For rate-driven modes each client is a self-rescheduling chain of arrival
    events, so the pending-event count stays O(num_clients). In pool mode
    eligible peers pull transactions as they free slots. parents maps each
    dependency probability, the configured one first, to its parents
    sequence: parents[p][tx_id] is the parent id or None.
    """

    def __init__(self, sim, extra_probs=()):
        workload_cfg = sim.config.workload
        self.sim = sim
        self.cfg = workload_cfg
        self.pool = InFlightPool()
        self.txs: list[Transaction] = []
        self._active_clients = 0
        self._pooled = workload_cfg.arrival_process == "pool"
        self._pool_cursor = 0  # pool mode: txs[cursor:] are still unpulled
        self._concurrency = sim.config.peers.endorse_concurrency
        # deterministic arrivals: exactly rate*duration per client, at k/rate
        # for k = 1..n
        self._per_client = int(round(workload_cfg.rate_per_client * workload_cfg.duration))
        # float keys: the stream label is repr(p), and 1 must draw as 1.0 does
        probs = dict.fromkeys(float(p) for p in (workload_cfg.dependency_prob, *extra_probs))
        self.parents: dict[float, list[int | None]] = {p: [] for p in probs}
        self._draws = [(p, sim.stream(dependency_stream_label(p)), self.parents[p])
                       for p in probs]

    def start(self) -> None:
        cfg = self.cfg
        if self._pooled:
            for _ in range(cfg.pool_size):
                self._create(client_id=0, at=0.0)
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
            base = self.sim.kernel.now if emitted else 0.0
            at = base + self._gap_streams[client].exponential(1.0 / cfg.rate_per_client)
            if at > cfg.duration:
                self._active_clients -= 1
                return
        self.sim.kernel.schedule(at, EventKind.ARRIVAL, partial(self._arrive, client, emitted))

    def _arrive(self, client: int, emitted: int) -> None:
        tx = self._create(client, self.sim.kernel.now)
        self._schedule_next(client, emitted + 1)
        self.sim.endorsement.submit(tx)

    def _create(self, client_id: int, at: float) -> Transaction:
        tx = Transaction(len(self.txs), client_id, at)
        pool = self.pool
        for p, stream, parents in self._draws:
            parents.append(draw_parent(pool, p, stream))
        pool.add(tx.tx_id)
        self.txs.append(tx)
        return tx

    # -- pool mode -----------------------------------------------------------

    def pull(self) -> None:
        """Fill the free slots of the eligible peers, in eligible order, from
        the unpulled transactions (pool mode only)."""
        if not self._pooled or self._pool_cursor >= len(self.txs):
            return
        sim = self.sim
        txs = self.txs
        admit = sim.endorsement.admit
        cap = self._concurrency
        for i in sim.eligible:
            peer = sim.peers[i]
            while peer.busy < cap:
                if self._pool_cursor >= len(txs):
                    return
                tx = txs[self._pool_cursor]
                self._pool_cursor += 1
                admit(peer, tx)

    def exhausted(self) -> bool:
        if self._pooled:
            return self._pool_cursor >= len(self.txs)
        return self._active_clients == 0
