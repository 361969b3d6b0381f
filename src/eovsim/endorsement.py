"""Endorsement: leader selection, gateway admission, execution, dissemination.

A transaction is routed to one endorsing peer under the configured policy,
waits in the gateway buffer if all concurrency slots are taken (dropped when
both are full), then endorses for `execute + quorum_wait + overhead` seconds.
Private data is pushed to m target peers during endorsement; the quorum rule
decides how long the endorser waits on acknowledgments, and a round that
misses its quorum is retried with fresh targets after the ack timeout.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import cycle
from math import gcd

from .kernel import EventKind, SimulationIntegrityError
from .workload import Transaction, TxStatus

__all__ = ["PeerState", "eligible_endorsers", "quorum_satisfied", "EndorsementSystem"]


class PeerState:
    __slots__ = (
        "peer_id", "height", "busy", "buffer", "commit_scale",
        "paused", "boost_factor",
    )

    def __init__(self, peer_id: int, commit_scale: float = 1.0):
        self.peer_id = peer_id
        self.height = 0
        self.busy = 0
        self.buffer: deque[Transaction] = deque()
        self.commit_scale = commit_scale
        self.paused = False
        self.boost_factor = 1.0


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

    def __init__(self, sim, peers: list[PeerState], leader_policy, strategy,
                 execute_dist, overhead_dist, ack_dist,
                 concurrency: int, buffer_cap: int):
        self.sim = sim
        self.peers = peers
        self.policy = leader_policy
        self.strategy = strategy
        self.execute_dist = execute_dist
        self.overhead_dist = overhead_dist
        self.ack_dist = ack_dist
        self.concurrency = concurrency
        self.buffer_cap = buffer_cap
        self._rr = 0
        self._exec_streams = [sim.streams.stream(f"peer{p.peer_id}.endorse") for p in peers]
        self._ack_streams = [sim.streams.stream(f"peer{p.peer_id}.ack") for p in peers]
        self._ovh_streams = [sim.streams.stream(f"peer{p.peer_id}.overhead") for p in peers]
        # each peer's next dissemination round, cycling through one period
        self._rotation = [cycle(_rotation(p.peer_id, len(peers), strategy.max_peer_count))
                          for p in peers]
        self.inflight = 0
        self.eligibility_log = None  # tests: list of (tx_id, endorser, eligible tuple)

    # -- routing ---------------------------------------------------------

    def heights(self) -> list[int]:
        return [p.height for p in self.peers]

    def route_transaction(self, tx: Transaction) -> PeerState | None:
        """Pick the endorsing peer, or None when the transaction is dropped.

        ranked_list walks the full ranking and takes the first peer with free
        capacity; the height-window policies round-robin over the eligible
        set. A transaction is dropped iff every candidate peer is at
        capacity (busy == C and buffer == B).
        """
        peers = self.peers
        eligible = eligible_endorsers(self.policy, [p.height for p in peers])
        order = eligible
        if self.policy.kind != "ranked_list":
            start = self._rr % len(eligible)
            self._rr += 1
            if start:
                order = eligible[start:] + eligible[:start]
        concurrency = self.concurrency
        buffer_cap = self.buffer_cap
        chosen = None
        for i in order:
            peer = peers[i]
            if peer.busy < concurrency or len(peer.buffer) < buffer_cap:
                chosen = peer
                break
        if self.eligibility_log is not None:
            self.eligibility_log.append(
                (tx.tx_id, chosen.peer_id if chosen else None, tuple(eligible)))
        return chosen

    def submit(self, tx: Transaction) -> None:
        peer = self.route_transaction(tx)
        if peer is None:
            self._drop(tx, "capacity")
            return
        self.admit(peer, tx)

    def admit(self, peer: PeerState, tx: Transaction) -> None:
        if peer.busy < self.concurrency:
            peer.busy += 1
            self.inflight += 1
            self._begin(peer, tx)
        elif len(peer.buffer) < self.buffer_cap:
            tx.status = TxStatus.BUFFERED
            peer.buffer.append(tx)
            self.inflight += 1
        else:
            self._drop(tx, "capacity")

    def _drop(self, tx: Transaction, reason: str) -> None:
        tx.status = TxStatus.DROPPED
        tx.drop_reason = reason
        self.sim.on_dropped(tx)

    # -- endorsement execution -------------------------------------------

    def _begin(self, peer: PeerState, tx: Transaction) -> None:
        kernel = self.sim.kernel
        now = kernel.now
        pid = peer.peer_id
        tx.status = TxStatus.EXECUTING
        tx.endorser = pid
        tx.endorse_start = now
        execute = self.execute_dist.sample(self._exec_streams[pid])
        overhead = self.overhead_dist.sample(self._ovh_streams[pid])
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

    def disseminate(self, peer: PeerState):
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
        ack_stream = self._ack_streams[peer.peer_id]
        total_wait = 0.0
        for attempt in range(strategy.max_retries + 1):
            targets, designated, holders = next(rotation)
            delays = [sample(ack_stream) for _ in range(m)]
            ok, wait = quorum_satisfied(strategy, delays, designated)
            if ok:
                return True, total_wait + wait, targets, holders, attempt
            total_wait += strategy.ack_timeout
        return False, total_wait, (), 0, strategy.max_retries

    def _complete(self, peer: PeerState, tx: Transaction, ok: bool) -> None:
        now = self.sim.kernel.now
        tx.endorse_end = now
        self.inflight -= 1
        if ok:
            tx.status = TxStatus.ENDORSED
            self.sim.on_endorsed(tx)
        else:
            self._drop(tx, "quorum")
        if peer.buffer:
            nxt = peer.buffer.popleft()
            self._begin(peer, nxt)
        else:
            peer.busy -= 1
            self.sim.on_slot_free(peer)
        if peer.busy + len(peer.buffer) > self.concurrency + self.buffer_cap:
            raise SimulationIntegrityError(
                f"peer {peer.peer_id}: {peer.busy} busy + {len(peer.buffer)} buffered "
                f"exceeds capacity {self.concurrency} + {self.buffer_cap}")
