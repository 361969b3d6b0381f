import math
from dataclasses import replace

import pytest

from eovsim import (
    SimulationIntegrityError,
    WaitingPolicy,
    run_scenario,
)
from eovsim.coordination import WaitingController
from eovsim.presets import preset
from eovsim.simulate import Simulation


POLICY = WaitingPolicy(enabled=True, tau=5, ceiling=15,
                       boosted_mean=1.8, baseline_means=(1.3, 2.3))


def _commit_event(sim, ctl, *heights):
    for peer, h in zip(sim.peers, heights):
        peer.height = h
    ctl.on_commit_event()


def test_gap_beyond_tau_triggers_pause_and_boost():
    sim = _wired_sim()
    ctl = WaitingController(sim)
    _commit_event(sim, ctl, 40, 34)
    assert [p.paused for p in sim.peers] == [True, False]
    assert math.isclose(sim.peers[1].boost_factor * POLICY.baseline_means[1], 1.8)
    assert [(e.kind, e.leader, e.lagger, e.gap) for e in ctl.events] == [
        ("pause_start", 0, 1, 6), ("boost_start", 0, 1, 6)]


def test_gap_within_tau_no_action():
    sim = _wired_sim()
    ctl = WaitingController(sim)
    _commit_event(sim, ctl, 10, 7)
    assert not any(p.paused for p in sim.peers)
    assert all(p.boost_factor == 1.0 for p in sim.peers)
    assert ctl.events == []


def test_gap_beyond_tau_plus_one_is_integrity_failure():
    # tau + 1 is the largest gap a waiting run can reach; anything wider,
    # even below the configured ceiling, means the invariant broke
    sim = _wired_sim()
    ctl = WaitingController(sim)
    _commit_event(sim, ctl, 41, 35)
    assert sim.peers[0].paused
    with pytest.raises(SimulationIntegrityError, match="exceeds tau"):
        _commit_event(sim, ctl, 42, 35)


def test_gap_beyond_ceiling_stands_down():
    # a gap beyond the ceiling cannot occur while waiting is enabled: the
    # controller raises instead of acting, pausing and boosting nobody
    sim = _wired_sim()
    ctl = WaitingController(sim)
    sim.peers[0].height, sim.peers[1].height = 30, 10
    with pytest.raises(SimulationIntegrityError):
        ctl.on_commit_event()
    assert not any(p.paused for p in sim.peers)
    assert all(p.boost_factor == 1.0 for p in sim.peers)


def test_resume_boundary_inclusive():
    sim = _wired_sim()
    ctl = WaitingController(sim)
    sim.peers[0].height, sim.peers[1].height = 40, 34  # gap 6 = tau + 1
    ctl.on_commit_event()
    ctl.on_commit_event()
    assert sim.peers[0].paused                          # gap 6: pause continues
    sim.peers[1].height = 35                            # gap 5 == tau
    ctl.on_commit_event()
    assert not sim.peers[0].paused                      # resumes at tau
    sim.peers[1].height = 34
    ctl.on_commit_event()
    assert sim.peers[0].paused
    sim.peers[1].height = 40                            # gap 0
    ctl.on_commit_event()
    assert not any(p.paused for p in sim.peers)


def test_ceiling_logged_once_per_crossing():
    # crossing the ceiling is an integrity failure, not a logged event: every
    # commit event beyond it raises and the log stays empty
    sim = _wired_sim()
    ctl = WaitingController(sim)
    sim.peers[0].height, sim.peers[1].height = 30, 10
    for _ in range(2):
        with pytest.raises(SimulationIntegrityError):
            ctl.on_commit_event()
    assert ctl.events == []
    res = run_scenario(preset("waiting-2peer").with_seed(3), collect_traces=False)
    kinds = {e.kind for e in res.wait_events}
    assert kinds == {"pause_start", "pause_end", "boost_start", "boost_end"}


def _wired_sim():
    cfg = preset("waiting-2peer")
    cfg = replace(cfg, workload=replace(cfg.workload, pool_size=50), waiting=POLICY)
    return Simulation(cfg, collect_traces=False)


def test_boost_switches_distribution_mean_and_restores():
    sim = _wired_sim()
    ctl = WaitingController(sim)
    _commit_event(sim, ctl, 40, 34)
    # Exp(mean 2.3) becomes Exp(mean 1.8): factor on the peer's samples
    assert math.isclose(sim.peers[1].boost_factor * POLICY.baseline_means[1], 1.8)
    assert sim.peers[0].boost_factor == 1.0  # only the lagger is boosted
    _commit_event(sim, ctl, 40, 35)
    assert all(p.boost_factor == 1.0 for p in sim.peers)


def test_boost_without_pause_rejected():
    # walk every state that commit events can reach from equal heights (a
    # paused peer never commits) and check that a boost is never left
    # standing without a paused peer
    sim = _wired_sim()
    ctl = WaitingController(sim)
    peers = sim.peers

    def state():
        low = min(p.height for p in peers)
        return tuple((p.height - low, p.paused, p.boost_factor) for p in peers)

    frontier, seen = [state()], set()
    while frontier:
        start = frontier.pop()
        if start in seen:
            continue
        seen.add(start)
        for mover in range(len(peers)):
            for peer, (h, paused, factor) in zip(peers, start):
                peer.height, peer.paused, peer.boost_factor = h, paused, factor
            if peers[mover].paused:
                continue
            peers[mover].height += 1
            ctl.on_commit_event()
            if any(p.boost_factor != 1.0 for p in peers):
                assert any(p.paused for p in peers)
            frontier.append(state())
    # the walk reached both a pause and a release
    assert any(paused for s in seen for _, paused, _ in s)
    assert {e.kind for e in ctl.events} == {"pause_start", "pause_end", "boost_start", "boost_end"}


def test_gap_growth_during_pause_is_integrity_failure():
    sim = _wired_sim()
    ctl = WaitingController(sim)
    sim.peers[0].height, sim.peers[1].height = 40, 34
    ctl.on_commit_event()
    assert sim.peers[0].paused and not sim.peers[1].paused
    sim.peers[0].height = 41  # impossible: the leader is paused
    with pytest.raises(SimulationIntegrityError):
        ctl.on_commit_event()


def test_pause_resume_cycle_and_event_log():
    sim = _wired_sim()
    ctl = WaitingController(sim)
    sim.peers[0].height, sim.peers[1].height = 40, 34
    ctl.on_commit_event()
    assert {e.kind for e in ctl.events} == {"pause_start", "boost_start"}
    ctl.on_commit_event()  # another commit at gap tau + 1 keeps the pause
    assert sim.peers[0].paused and len(ctl.events) == 2
    sim.peers[1].height = 35  # lagger commits, gap closes to tau (inclusive)
    ctl.on_commit_event()
    kinds = [e.kind for e in ctl.events]
    assert "pause_end" in kinds and "boost_end" in kinds
    assert not any(p.paused for p in sim.peers)
    assert sim.peers[1].boost_factor == 1.0


def test_paused_leader_commits_zero_blocks_during_pause():
    cfg = preset("waiting-2peer").with_seed(3)
    res = run_scenario(cfg, collect_traces=True)
    pauses = {}
    for ev in res.wait_events:
        if ev.kind == "pause_start":
            pauses[ev.leader] = ev.at
        elif ev.kind == "pause_end":
            start = pauses.pop(ev.leader)
            for _, timings in res.block_trace:
                for t in timings:
                    if t.peer_id == ev.leader and t.p2_end >= 0:
                        # no phase-2 completion falls inside the pause window
                        assert not (start < t.p2_end < ev.at)
    assert any(e.kind == "pause_start" for e in res.wait_events)


def test_gap_never_grows_while_paused():
    cfg = preset("waiting-2peer").with_seed(5)
    res = run_scenario(cfg, collect_traces=False)
    # the controller asserts this internally on every commit event; reaching
    # drained status means no violation occurred over the whole run
    assert res.status == "drained"


def test_disabled_waiting_bit_identical_to_absent_policy():
    from eovsim.metrics import render_report, summary_row
    cfg = preset("waiting-2peer").with_seed(9)
    disabled = replace(cfg, waiting=replace(cfg.waiting, enabled=False))
    absent = replace(cfg, waiting=WaitingPolicy())
    ra = run_scenario(disabled, collect_traces=True)
    rb = run_scenario(absent, collect_traces=True)
    assert ra.counters == rb.counters
    # every transaction's committed_at, rendered, and each block's first
    # commit at full precision
    assert (render_report(ra)["transactions.jsonl"]
            == render_report(rb)["transactions.jsonl"])
    assert ([b.first_commit_at for b, _ in ra.block_trace]
            == [b.first_commit_at for b, _ in rb.block_trace])
    rows = [summary_row(ra), summary_row(rb)]
    for col in rows[0]:
        if col != "config_hash":  # the waiting block differs in the config
            assert rows[0][col] == rows[1][col], col


def test_eligibility_dividend_same_seed():
    cfg = preset("waiting-2peer").with_seed(11)
    vanilla = replace(cfg, waiting=replace(cfg.waiting, enabled=False))
    rw = run_scenario(cfg, collect_traces=False)
    rv = run_scenario(vanilla, collect_traces=False)
    assert rw.eligible_multi_fraction > rv.eligible_multi_fraction
