"""Endorsement: leader selection, gateway admission, execution, dissemination.

A transaction is routed to one endorsing peer under the configured policy
and joins its gateway buffer (dropped when every candidate is full), and
EndorsementSystem.fill, the whole admission rule, starts it on a free slot.
It endorses for `execute + quorum_wait + overhead` seconds.
Private data is pushed to m target peers during endorsement; the quorum rule
decides how long the endorser waits on acknowledgments, and a round that
misses its quorum is retried with fresh targets after the ack timeout.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import cycle
from math import gcd

from .commit import Peer
from .kernel import EventKind, SimulationIntegrityError
from .workload import TxStatus

__all__ = ["eligible_endorsers", "quorum_satisfied", "EndorsementSystem"]


def eligible_endorsers(policy, heights) -> list[int]:
    """Peer ids eligible to endorse, in routing order.

    max_ht: exactly the peers at the maximum height. soft_max_ht: within tau
    of the maximum. all: everyone. ranked_list: everyone, sorted by height
    descending with ties broken by peer id.
    """
    if not heights:
        raise ValueError("heights must be non-empty")
    kind = policy.kind
    if kind == "all":
        return list(range(len(heights)))
    if kind == "ranked_list":
        # reverse sorting is stable: equal heights keep ascending peer id
        return sorted(range(len(heights)), key=heights.__getitem__, reverse=True)
    top = max(heights)
    floor = top if kind == "max_ht" else top - policy.tau
    return [i for i, h in enumerate(heights) if h >= floor]


def quorum_satisfied(strategy, delays, designated: int = 0):
    """Resolve one dissemination round.

    delays: per-target ack delays (seconds); a delay above ack_timeout counts
    as a missing ack. designated: index into delays of the designated peer
    (first target in peer-id order), used by the non-relaxed (m, 1) rule.

    Returns (ok, wait): whether the quorum was met and how long the endorser
    waited this round. Relaxed (m, 1*) proceeds at the first ack; every other
    rule waits for all responses (missing ones until the timeout).
    """
    timeout = strategy.ack_timeout
    if strategy.relaxed:
        wait = min(delays)
        return wait <= timeout, min(wait, timeout)
    wait = min(max(delays), timeout)
    required = strategy.required_peer_count
    if required == 1:
        ok = delays[designated] <= timeout
    else:
        ok = sum(1 for d in delays if d <= timeout) >= required
    return ok, wait


@cache
def _rotation(peer_id: int, n_peers: int, m: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """One period of a peer's dissemination rounds, in round order: the
    table that a transaction's TxStore.round indexes. Every run of the same
    shape shares it, so a sweep builds it once.

    Round i targets the m other peers from position i*m (mod the number of
    other peers) of the others in id order, so the rounds repeat every
    len(others) / gcd(m, len(others)). Each round is (targets, designated,
    holders): designated indexes the lowest target id (the peer the (m, 1)
    rule waits for), holders is the bitmask of the endorser and the targets.
    """
    others = [q for q in range(n_peers) if q != peer_id]
    n = len(others)
    others += others  # a round's targets may wrap around
    starts = (i * m % n for i in range(n // gcd(m, n)))
    rounds = [tuple(others[start:start + m]) for start in starts]
    return tuple((targets, targets.index(min(targets)), sum(1 << p for p in (peer_id, *targets)))
                 for targets in rounds)


class EndorsementSystem:
    """All peers' endorsement state plus the shared router."""

    def __init__(self, sim):
        config = sim.config
        self.sim = sim
        self.peers = peers = sim.peers
        self.policy = config.leader
        self.strategy = strategy = config.dissemination
        self.execute_dist = config.endorse_model.execute
        self.overhead_dist = config.endorse_model.overhead
        self.ack_dist = config.endorse_model.ack
        self.concurrency = config.peers.endorse_concurrency
        self.buffer_cap = config.peers.gateway_buffer
        self._unpulled = sim.source.unpulled
        self.txs = txs = sim.source.txs
        self._rr = 0
        txs.rounds = [_rotation(p.peer_id, len(peers), strategy.max_peer_count) for p in peers]
        # each peer's next (index, round), cycling through one period
        self._rotation = [cycle(enumerate(rounds)) for rounds in txs.rounds]

    # -- routing ---------------------------------------------------------

    def route_transaction(self) -> Peer | None:
        """Pick the endorsing peer, or None when the transaction is dropped.

        The candidates are the simulation's eligible set for the current
        heights. ranked_list walks the full ranking and takes the first peer
        with free capacity; the height-window policies round-robin over the
        eligible set. A transaction is dropped iff every candidate peer is at
        capacity (busy == C and buffer == B).
        """
        peers = self.peers
        eligible = self.sim.eligible
        order = eligible
        if self.policy.kind != "ranked_list":
            start = self._rr % len(eligible)
            self._rr += 1
            if start:
                order = eligible[start:] + eligible[:start]
        concurrency = self.concurrency
        buffer_cap = self.buffer_cap
        for i in order:
            peer = peers[i]
            if peer.busy < concurrency or len(peer.buffer) < buffer_cap:
                return peer
        return None

    def submit(self, tx: int) -> None:
        peer = self.route_transaction()
        if peer is None:
            self._drop(tx, TxStatus.DROPPED_CAPACITY)
            return
        peer.buffer.append(tx)
        self.fill(peer)

    def fill(self, peer: Peer) -> None:
        """Start an endorsement on each free slot of peer: the whole admission rule.

        A slot takes the head of the peer's gateway buffer or, in pool mode
        while the peer is eligible, the next unpulled transaction. After
        every fill the pool is empty or every eligible peer is full, so a
        completion can only hand a pool transaction to the peer it freed."""
        buffer = peer.buffer
        unpulled = self._unpulled
        while peer.busy < self.concurrency:
            if buffer:
                tx = buffer.popleft()
            elif unpulled and peer.peer_id in self.sim.eligible:
                tx = unpulled.popleft()
            else:
                return
            peer.busy += 1
            self._begin(peer, tx)

    def _drop(self, tx: int, code: int) -> None:
        """Drop tx with code, for capacity or quorum, and take it out of the
        dependency candidates."""
        self.txs.status[tx] = code
        self.sim.source.pool.remove(tx)

    # -- endorsement execution -------------------------------------------

    def _begin(self, peer: Peer, tx: int) -> None:
        kernel = self.sim.kernel
        txs = self.txs
        now = kernel.now
        execute = self.execute_dist.sample(peer.endorse_stream)
        overhead = self.overhead_dist.sample(peer.overhead_stream)
        ok, quorum_wait, won, retries = self.disseminate(peer)
        txs.endorser[tx] = peer.peer_id
        txs.endorse_start[tx] = now
        txs.quorum_wait[tx] = quorum_wait
        txs.retries_used[tx] = retries
        txs.round[tx] = won  # its targets get the data: a late ack lands before the cut
        total = execute + quorum_wait + (overhead if ok else 0.0)
        kernel.schedule(now + total, EventKind.ENDORSE_DONE,
                        partial(self._complete, peer, tx, ok))

    def disseminate(self, peer: Peer):
        """Run dissemination rounds for one transaction.

        All per-target ack delays are sampled up front (they complete before
        the endorsement does, so only who holds the data matters
        downstream). Each failed round costs the full ack timeout and is
        retried with the next targets in rotation, up to max_retries.

        Returns (ok, total_quorum_wait, winning_round, retries_used), where
        winning_round indexes the peer's table of rounds, or is -1.
        """
        strategy = self.strategy
        m = strategy.max_peer_count
        rotation = self._rotation[peer.peer_id]
        sample = self.ack_dist.sample
        ack_stream = peer.ack_stream
        total_wait = 0.0
        for attempt in range(strategy.max_retries + 1):
            index, (_, designated, _) = next(rotation)
            delays = [sample(ack_stream) for _ in range(m)]
            ok, wait = quorum_satisfied(strategy, delays, designated)
            if ok:
                return True, total_wait + wait, index, attempt
            total_wait += strategy.ack_timeout
        return False, total_wait, -1, strategy.max_retries

    def _complete(self, peer: Peer, tx: int, ok: bool) -> None:
        sim, txs = self.sim, self.txs
        txs.endorse_end[tx] = sim.kernel.now
        if ok:
            txs.status[tx] = TxStatus.ENDORSED
            sim.orderer.enqueue_endorsed(tx)
        else:
            self._drop(tx, TxStatus.DROPPED_QUORUM)
        peer.busy -= 1
        self.fill(peer)
        if peer.busy + len(peer.buffer) > self.concurrency + self.buffer_cap:
            raise SimulationIntegrityError(
                f"peer {peer.peer_id}: {peer.busy} busy + {len(peer.buffer)} buffered "
                f"exceeds capacity {self.concurrency} + {self.buffer_cap}")
