"""Strategic waiting: pause leading peers, boost the lagger.

Evaluated at every block-commit event. When the height gap (max - min)
exceeds tau, every max-height peer pauses its phase-2 commits and the lowest
peer's commit distribution mean switches to the boosted value. Normal
behavior resumes once the gap closes to within tau.

While waiting is enabled the gap never exceeds tau + 1: heights move one
commit at a time, and the pause lands on the commit that first makes the gap
tau + 1, whose peer has no phase 2 in flight. A larger gap is an integrity
failure. The configured ceiling is validated to be above tau, so the gap
never exceeds it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import SimulationIntegrityError

__all__ = ["WaitEvent", "evaluate_wait", "WaitingController"]


@dataclass(frozen=True)
class WaitEvent:
    at: float
    kind: str  # pause_start | pause_end | boost_start | boost_end
    leader: int
    lagger: int
    gap: int


def evaluate_wait(heights, policy):
    """Decide the controller action for the current heights.

    Returns ("none" | "pause", leaders, lagger, gap): leaders are the
    max-height peers to pause and lagger the lowest peer (lowest id on ties)
    to boost. Raises SimulationIntegrityError when the gap exceeds tau + 1.
    """
    top = max(heights)
    low = min(heights)
    gap = top - low
    if gap > policy.tau + 1:
        raise SimulationIntegrityError(
            f"height gap {gap} exceeds tau + 1 = {policy.tau + 1} while waiting is enabled")
    leaders = [i for i, h in enumerate(heights) if h == top]
    lagger = heights.index(low)
    return ("pause" if gap > policy.tau else "none"), leaders, lagger, gap


class WaitingController:
    """Applies the waiting policy at every commit event. The pause and boost
    state lives on the peers (Peer.paused and Peer.boost_factor); the
    controller keeps only the event log."""

    def __init__(self, sim):
        self.sim = sim
        self.policy = sim.config.waiting
        self.events: list[WaitEvent] = []

    # -- boost bookkeeping --------------------------------------------------

    def apply_boost(self, lagger: int) -> None:
        peers = self.sim.peers
        if not any(p.paused for p in peers):
            raise SimulationIntegrityError("boost applied while no leader is paused")
        peers[lagger].boost_factor = self.policy.boosted_mean / self.policy.baseline_means[lagger]

    def release_boost(self) -> None:
        for peer in self.sim.peers:
            peer.boost_factor = 1.0

    # -- main hook ------------------------------------------------------------

    def on_commit_event(self) -> None:
        if not self.policy.enabled:
            return
        peers = self.sim.peers
        heights = [p.height for p in peers]
        action, leaders, lagger, gap = evaluate_wait(heights, self.policy)
        now = self.sim.kernel.now
        paused = [p.peer_id for p in peers if p.paused]
        if paused:
            if action == "none":
                self._release(paused, now, lagger, gap)
            else:
                # a mid peer that caught up to the max must pause as well,
                # otherwise it could push the max (and the gap) back up
                for i in leaders:
                    if not peers[i].paused:
                        self._pause_peer(i, now, lagger, gap)
            return
        if action == "pause":
            for i in leaders:
                self._pause_peer(i, now, lagger, gap)
            self.apply_boost(lagger)
            self.events.append(WaitEvent(now, "boost_start", leaders[0], lagger, gap))

    def _pause_peer(self, i: int, now: float, lagger: int, gap: int) -> None:
        self.sim.peers[i].paused = True
        self.events.append(WaitEvent(now, "pause_start", i, lagger, gap))

    def _release(self, paused: list[int], now: float, lagger: int, gap: int) -> None:
        """Resume the paused peers, in id order, and end the boost."""
        peers = self.sim.peers
        for i in paused:
            peers[i].paused = False
            self.events.append(WaitEvent(now, "pause_end", i, lagger, gap))
        self.events.append(WaitEvent(now, "boost_end", paused[0], lagger, gap))
        self.release_boost()
        for peer in peers:
            peer.kick()
