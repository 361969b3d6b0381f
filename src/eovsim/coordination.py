"""Strategic waiting: pause the leading peers, boost the lagger.

One transition runs at every block-commit event while waiting is enabled.
With gap = max height - min height and the lagger the lowest peer (lowest id
on ties):
- gap > tau: every max-height peer that is not paused yet pauses its phase-2
  commits. If no peer was paused before, the lagger's commit samples are
  scaled by boosted_mean / baseline_means[lagger], which switches its
  distribution mean to the boosted value.
- gap <= tau while peers are paused: they resume, every boost ends, and
  every peer is kicked to restart its pipeline.
The state lives on the peers (Peer.paused and Peer.boost_factor); the
controller keeps only the event log.

While waiting is enabled the gap never exceeds tau + 1: heights move one
commit at a time, and the pause lands on the commit that first makes the gap
tau + 1, whose peer has no phase 2 in flight. A larger gap is an integrity
failure. The configured ceiling is validated to be above tau, so the gap
never exceeds it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import SimulationIntegrityError

__all__ = ["WaitEvent", "WaitingController"]


@dataclass(frozen=True)
class WaitEvent:
    at: float
    kind: str  # pause_start | pause_end | boost_start | boost_end
    leader: int
    lagger: int
    gap: int


class WaitingController:
    """Applies the waiting transition at every commit event."""

    def __init__(self, sim):
        self.sim = sim
        self.policy = sim.config.waiting
        self.events: list[WaitEvent] = []

    def on_commit_event(self) -> None:
        policy = self.policy
        if not policy.enabled:
            return
        peers = self.sim.peers
        heights = [p.height for p in peers]
        top = max(heights)
        low = min(heights)
        gap = top - low
        if gap > policy.tau + 1:
            raise SimulationIntegrityError(
                f"height gap {gap} exceeds tau + 1 = {policy.tau + 1} while waiting is enabled")
        lagger = heights.index(low)
        paused = [p.peer_id for p in peers if p.paused]
        now = self.sim.kernel.now
        log = self.events.append
        if gap > policy.tau:
            # a mid peer that caught up to the max pauses as well, otherwise
            # it could push the max (and the gap) back up
            for peer in peers:
                if peer.height == top and not peer.paused:
                    peer.paused = True
                    log(WaitEvent(now, "pause_start", peer.peer_id, lagger, gap))
            if not paused:
                peers[lagger].boost_factor = policy.boosted_mean / policy.baseline_means[lagger]
                log(WaitEvent(now, "boost_start", heights.index(top), lagger, gap))
        elif paused:
            for i in paused:
                peers[i].paused = False
                log(WaitEvent(now, "pause_end", i, lagger, gap))
            log(WaitEvent(now, "boost_end", paused[0], lagger, gap))
            for peer in peers:
                peer.boost_factor = 1.0
                peer.kick()
