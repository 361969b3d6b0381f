"""Endorsement: leader selection, gateway admission, execution, dissemination.

A transaction is routed to one endorsing peer under the configured policy,
waits in the gateway buffer if all concurrency slots are taken (dropped when
both are full), then endorses for `execute + quorum_wait + overhead` seconds.
Private data is pushed to m target peers during endorsement; the quorum rule
decides how long the endorser waits on acknowledgments, and a round that
misses its quorum is retried with fresh targets after the ack timeout.
"""

from __future__ import annotations

from functools import partial
from itertools import cycle
from math import gcd

from .commit import Peer
from .kernel import EventKind, SimulationIntegrityError
from .workload import Transaction, TxStatus

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


def _rotation(peer_id: int, n_peers: int, m: int) -> list[tuple[tuple[int, ...], int, int]]:
    """One period of a peer's dissemination rounds, in round order.

    Round i targets the m other peers from position i*m (mod the number of
    other peers) of the others in id order, so the rounds repeat every
    len(others) / gcd(m, len(others)). Each round is (targets, designated,
    holders): designated indexes the lowest target id (the peer the (m, 1)
    rule waits for), holders is the bitmask of the endorser and the targets.
    """
    others = [q for q in range(n_peers) if q != peer_id]
    n = len(others)
    rounds = []
    for i in range(n // gcd(m, n) if n else 0):
        start = i * m % n
        targets = tuple(others[(start + k) % n] for k in range(m))
        holders = 1 << peer_id
        for t in targets:
            holders |= 1 << t
        rounds.append((targets, targets.index(min(targets)), holders))
    return rounds


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
        self._rr = 0
        # each peer's next dissemination round, cycling through one period
        self._rotation = [cycle(_rotation(p.peer_id, len(peers), strategy.max_peer_count))
                          for p in peers]

    # -- routing ---------------------------------------------------------

    def route_transaction(self, tx: Transaction) -> Peer | None:
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

    def submit(self, tx: Transaction) -> None:
        peer = self.route_transaction(tx)
        if peer is None:
            self._drop(tx, "capacity")
            return
        self.admit(peer, tx)

    def admit(self, peer: Peer, tx: Transaction) -> None:
        """Start tx on a free slot of peer, or buffer it. Callers pick a peer
        with room: submit through route_transaction, pool pulls while busy < C."""
        if peer.busy < self.concurrency:
            peer.busy += 1
            self._begin(peer, tx)
        else:
            peer.buffer.append(tx)

    def _drop(self, tx: Transaction, reason: str) -> None:
        """Drop tx for reason, capacity or quorum: count it and take it out
        of the dependency candidates."""
        tx.status = TxStatus.DROPPED
        tx.drop_reason = reason
        counters = self.sim.counters
        counters.dropped += 1
        if reason == "capacity":
            counters.dropped_capacity += 1
        else:
            counters.dropped_quorum += 1
        self.sim.source.pool.discard(tx.tx_id)

    # -- endorsement execution -------------------------------------------

    def _begin(self, peer: Peer, tx: Transaction) -> None:
        kernel = self.sim.kernel
        now = kernel.now
        tx.endorser = peer.peer_id
        tx.endorse_start = now
        execute = self.execute_dist.sample(peer.endorse_stream)
        overhead = self.overhead_dist.sample(peer.overhead_stream)
        ok, quorum_wait, targets, holders, retries = self.disseminate(peer)
        tx.quorum_wait = quorum_wait
        tx.retries_used = retries
        total = execute + quorum_wait + (overhead if ok else 0.0)
        if ok:
            # every target of the winning round receives the data; acks that
            # exceeded the timeout were missing for the quorum but the ack
            # (and the payload) still lands before the block is cut
            tx.holders = holders
            if self.sim.collect_traces:
                tx.disseminated_to = targets
        kernel.schedule(now + total, EventKind.ENDORSE_DONE,
                        partial(self._complete, peer, tx, ok))

    def disseminate(self, peer: Peer):
        """Run dissemination rounds for one transaction.

        All per-target ack delays are sampled up front (they complete before
        the endorsement does, so only who holds the data matters
        downstream). Each failed round costs the full ack timeout and is
        retried with the next targets in rotation, up to max_retries.

        Returns (ok, total_quorum_wait, winning_round_targets,
        winning_round_holders, retries_used).
        """
        strategy = self.strategy
        m = strategy.max_peer_count
        rotation = self._rotation[peer.peer_id]
        sample = self.ack_dist.sample
        ack_stream = peer.ack_stream
        total_wait = 0.0
        for attempt in range(strategy.max_retries + 1):
            targets, designated, holders = next(rotation)
            delays = [sample(ack_stream) for _ in range(m)]
            ok, wait = quorum_satisfied(strategy, delays, designated)
            if ok:
                return True, total_wait + wait, targets, holders, attempt
            total_wait += strategy.ack_timeout
        return False, total_wait, (), 0, strategy.max_retries

    def _complete(self, peer: Peer, tx: Transaction, ok: bool) -> None:
        sim = self.sim
        tx.endorse_end = sim.kernel.now
        if ok:
            tx.status = TxStatus.ENDORSED
            sim.counters.endorsed += 1
            sim.orderer.enqueue_endorsed(tx)
        else:
            self._drop(tx, "quorum")
        if peer.buffer:
            nxt = peer.buffer.popleft()
            self._begin(peer, nxt)
        else:
            peer.busy -= 1
            sim.source.pull()
        if peer.busy + len(peer.buffer) > self.concurrency + self.buffer_cap:
            raise SimulationIntegrityError(
                f"peer {peer.peer_id}: {peer.busy} busy + {len(peer.buffer)} buffered "
                f"exceeds capacity {self.concurrency} + {self.buffer_cap}")
