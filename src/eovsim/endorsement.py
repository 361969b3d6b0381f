"""Endorsement: leader selection, gateway admission, execution, dissemination.

A transaction is routed to one endorsing peer under the configured policy
and joins its gateway buffer (dropped when every candidate is full), and
EndorsementSystem.fill, the whole admission rule, starts it on a free slot.
It endorses for `execute + quorum_wait + overhead` seconds.
Private data is pushed to m target peers during endorsement; the quorum rule
decides how long the endorser waits on acknowledgments, and a round that
misses its quorum is retried with fresh targets after the ack timeout.

Every draw of an endorsement comes from the endorsing peer's own streams, so
the k-th endorsement a peer begins has an outcome that depends on k alone,
not on virtual time. EndorsementSystem.disseminate computes a peer's next
outcomes (plans) a chunk at a time from the same draws, in the same order,
and _begin pops one.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import repeat
from math import gcd

from .commit import Peer
from .kernel import EventKind, SimulationIntegrityError
from .workload import TxStatus

__all__ = ["eligible_endorsers", "quorum_satisfied", "EndorsementSystem"]

# Plans a peer builds at a time: the first chunk is small, so a short run or
# an idle peer draws little ahead; each next one matches the plans built so
# far, up to the cap.
_FIRST_PLANS = 16
_MAX_PLANS = 256


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
        # _failed_wait[k]: the quorum wait after k failed rounds, the ack
        # timeout added once per failure to 0.0, left to right
        self._failed_wait = waits = [0.0]
        for _ in range(strategy.max_retries + 1):
            waits.append(waits[-1] + strategy.ack_timeout)

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
        pool = self.sim.source.pool
        if pool is not None:
            pool.remove(tx)

    # -- endorsement execution -------------------------------------------

    def _begin(self, peer: Peer, tx: int) -> None:
        plans = peer.plans
        if not plans:
            self.disseminate(peer)
        total, quorum_wait, won, retries, holders = plans.pop()
        kernel = self.sim.kernel
        txs = self.txs
        now = kernel.now
        txs.endorser[tx] = peer.peer_id
        txs.endorse_start[tx] = now
        txs.quorum_wait[tx] = quorum_wait
        txs.retries_used[tx] = retries
        txs.round[tx] = won  # its targets get the data: a late ack lands before the cut
        kernel.schedule(now + total, EventKind.ENDORSE_DONE,
                        partial(self._complete, peer, tx, holders))

    def disseminate(self, peer: Peer) -> None:
        """Build peer's next chunk of endorsement plans into peer.plans.

        A plan is (total, quorum_wait, winning_round, retries_used, holders):
        the endorsement's duration execute + quorum_wait + overhead, with the
        overhead only when the quorum was met; the winning round's index in
        the peer's table of rounds, or -1; and that round's holders mask, or
        0. All per-target ack delays are sampled up front (they complete
        before the endorsement does, so only who holds the data matters
        downstream). Each failed round costs the full ack timeout and is
        retried with the next targets in rotation, up to max_retries.

        The draws are those of one endorsement at a time, in the same order:
        each stream serves one stage of this peer, so values drawn ahead are
        never read elsewhere. Rounds resolved beyond the chunk's last plan
        wait in peer.rounds for the next chunk.
        """
        n = min(_MAX_PLANS, max(_FIRST_PLANS, peer.planned))
        peer.planned += n
        strategy = self.strategy
        m = strategy.max_peer_count
        tries = strategy.max_retries + 1
        failed_wait = self._failed_wait
        table = self.txs.rounds[peer.peer_id]
        period = len(table)
        executes = self.execute_dist.sample_n(peer.endorse_stream, n).tolist()
        overheads = self.overhead_dist.sample_n(peer.overhead_stream, n).tolist()
        rounds = peer.rounds
        plans = []
        while len(plans) < n:
            # resolve the next rounds in rotation order: (ok, wait, round index)
            count = max(n - len(plans), tries)
            start = peer.next_round
            peer.next_round = (start + count) % period
            indices = [(start + i) % period for i in range(count)]
            delays = self.ack_dist.sample_n(peer.ack_stream, count * m).reshape(count, m)
            outcomes = map(quorum_satisfied, repeat(strategy, count), delays.tolist(),
                           [table[i][1] for i in indices])
            rounds += [(ok, wait, i) for (ok, wait), i in zip(outcomes, indices)]
            # plan every endorsement whose rounds are all resolved
            pos = 0
            while len(plans) < n and len(rounds) - pos >= tries:
                k = len(plans)
                for attempt in range(tries):
                    ok, wait, index = rounds[pos + attempt]
                    if ok:
                        quorum_wait = failed_wait[attempt] + wait
                        plans.append((executes[k] + quorum_wait + overheads[k], quorum_wait,
                                      index, attempt, table[index][2]))
                        break
                else:
                    quorum_wait = failed_wait[tries]
                    plans.append((executes[k] + quorum_wait + 0.0, quorum_wait, -1, attempt, 0))
                pos += attempt + 1
            rounds = rounds[pos:]
        peer.rounds = rounds
        plans.reverse()  # pop() from the end takes them in order
        peer.plans[:0] = plans

    def _complete(self, peer: Peer, tx: int, holders: int) -> None:
        """End tx's endorsement: holders is its winning round's holders mask,
        0 when the quorum failed."""
        sim, txs = self.sim, self.txs
        txs.endorse_end[tx] = sim.kernel.now
        if holders:
            txs.status[tx] = TxStatus.ENDORSED
            sim.orderer.enqueue_endorsed(tx, holders)
        else:
            self._drop(tx, TxStatus.DROPPED_QUORUM)
        peer.busy -= 1
        self.fill(peer)
        if peer.busy + len(peer.buffer) > self.concurrency + self.buffer_cap:
            raise SimulationIntegrityError(
                f"peer {peer.peer_id}: {peer.busy} busy + {len(peer.buffer)} buffered "
                f"exceeds capacity {self.concurrency} + {self.buffer_cap}")
