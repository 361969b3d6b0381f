import itertools
import math
from dataclasses import replace
from functools import partial

import pytest

from eovsim import DistributionSpec as D
from eovsim import DisseminationStrategy, LeaderPolicy, eligible_endorsers, quorum_satisfied, run_scenario
from eovsim import endorsement
from eovsim.simulate import Simulation
from eovsim.workload import TxStatus

from conftest import disseminated_to, tiny_config


# -- eligible_endorsers --------------------------------------------------------

def test_max_ht_selects_peers_at_max():
    assert eligible_endorsers(LeaderPolicy("max_ht"), [10, 10, 9, 4, 3]) == [0, 1]


def test_soft_max_ht_window():
    assert eligible_endorsers(LeaderPolicy("soft_max_ht", tau=5), [10, 8, 4]) == [0, 1]


def test_ranked_list_order_with_ties():
    assert eligible_endorsers(LeaderPolicy("ranked_list"), [7, 9, 9]) == [1, 2, 0]


def test_all_policy_everyone():
    assert eligible_endorsers(LeaderPolicy("all"), [3, 1, 2]) == [0, 1, 2]


def test_empty_heights_rejected():
    with pytest.raises(ValueError):
        eligible_endorsers(LeaderPolicy("all"), [])


# -- quorum_satisfied -----------------------------------------------------------

def _strategy(m, r, relaxed=False, timeout=1.0):
    return DisseminationStrategy(max_peer_count=m, required_peer_count=r,
                                 relaxed=relaxed, ack_timeout=timeout)


def test_all_ack_waits_for_slowest():
    ok, wait = quorum_satisfied(_strategy(4, 4), [0.1, 0.2, 0.3, 0.25])
    assert ok and wait == 0.3


def test_relaxed_takes_first_ack():
    ok, wait = quorum_satisfied(_strategy(4, 1, relaxed=True), [0.3, 0.05, 0.2, 0.4])
    assert ok and wait == 0.05


def test_relaxed_all_timeout_fails():
    ok, _ = quorum_satisfied(_strategy(4, 1, relaxed=True, timeout=0.1),
                             [0.3, 0.2, 0.5, 0.9])
    assert not ok


def test_designated_waits_for_all_responses():
    # designated at index 0 acked: wait is still the slowest responder
    ok, wait = quorum_satisfied(_strategy(4, 1), [0.3, 0.05, 0.2, 0.4], designated=0)
    assert ok and wait == 0.4


def test_designated_timeout_fails_despite_other_acks():
    ok, _ = quorum_satisfied(_strategy(4, 1, timeout=0.35),
                             [0.5, 0.05, 0.2, 0.3], designated=0)
    assert not ok


def test_designated_rule_matches_enumeration_oracle():
    # brute-force every ack/miss pattern of 4 targets against the rule:
    # success iff the designated peer acked within the timeout
    strategy = _strategy(4, 1, timeout=1.0)
    for pattern in itertools.product([0.2, 5.0], repeat=4):
        for designated in range(4):
            ok, wait = quorum_satisfied(strategy, list(pattern), designated)
            assert ok == (pattern[designated] <= 1.0)
            assert wait == max(min(d, 1.0) for d in pattern)


def test_single_target_single_ack():
    ok, wait = quorum_satisfied(_strategy(1, 1), [0.05])
    assert ok and wait == 0.05


# -- dissemination rotation ----------------------------------------------------

@pytest.mark.parametrize("n", range(2, 9))
def test_rotation_table_matches_per_round_formula(n):
    # the table each peer cycles through, one entry per round, must give,
    # round after round, the targets and designated index of the per-round
    # formula: start at rr % len(others), advance rr by m, designate the
    # lowest target id
    for m in range(1, n):
        cfg = tiny_config(
            peers=replace(tiny_config().peers, count=n),
            dissemination=DisseminationStrategy(max_peer_count=m, required_peer_count=1))
        es = Simulation(cfg).endorsement
        for pid in range(n):
            rotation = itertools.cycle(enumerate(es.txs.rounds[pid]))
            others = [q for q in range(n) if q != pid]
            period = len(others) // math.gcd(m, len(others))
            rr = 0
            for i in range(3 * period + 1):
                if m >= len(others):
                    expected = others
                else:
                    start = rr % len(others)
                    rr += m
                    expected = [others[(start + k) % len(others)] for k in range(m)]
                index, (targets, designated, holders) = next(rotation)
                # the index a transaction stores reads the same round back
                assert index == i % period
                assert es.txs.rounds[pid][index] == (targets, designated, holders)
                assert list(targets) == expected
                assert designated == min(range(m), key=lambda k: expected[k])
                assert holders == sum(1 << p for p in {pid, *expected})


# -- routing and admission -------------------------------------------------------

def _sim(**over):
    return Simulation(tiny_config(**over), collect_traces=True)


def test_ranked_list_falls_through_when_top_is_full():
    sim = _sim(leader=LeaderPolicy("ranked_list"))
    es = sim.endorsement
    cap = sim.config.peers.endorse_concurrency + sim.config.peers.gateway_buffer
    top = es.peers[0]
    top.busy = sim.config.peers.endorse_concurrency
    for _ in range(sim.config.peers.gateway_buffer):
        top.buffer.append(None)
    chosen = es.route_transaction()
    assert chosen is not None and chosen.peer_id == 1
    assert top.busy + len(top.buffer) == cap


def test_single_leader_at_capacity_drops():
    sim = _sim(leader=LeaderPolicy("max_ht"))
    es = sim.endorsement
    es.peers[0].height = 5  # sole leader
    # heights change only on a commit, which refreshes the eligible set
    sim.eligible = eligible_endorsers(sim.config.leader, [p.height for p in es.peers])
    assert sim.eligible == [0]
    leader = es.peers[0]
    leader.busy = sim.config.peers.endorse_concurrency
    for _ in range(sim.config.peers.gateway_buffer):
        leader.buffer.append(None)
    assert es.route_transaction() is None


def test_all_policy_never_drops_with_free_peer():
    sim = _sim(leader=LeaderPolicy("all"))
    es = sim.endorsement
    es.peers[0].busy = sim.config.peers.endorse_concurrency
    for _ in range(sim.config.peers.gateway_buffer):
        es.peers[0].buffer.append(None)
    for _ in range(10):
        assert es.route_transaction() is not None


def test_admit_slots_then_buffer_then_drop():
    sim = _sim()
    es = sim.endorsement
    txs = sim.source.txs
    peer, *others = es.peers
    c, b = sim.config.peers.endorse_concurrency, sim.config.peers.gateway_buffer
    # routing only admits to a peer with room: with the others full, every
    # submission goes to peer, and the overflow is dropped once it is full too
    for other in others:
        other.busy = c
        other.buffer.extend([None] * b)
    peer.busy = c - 1
    create = partial(sim.source._create, 0, 0.0)
    es.submit(create())
    assert peer.busy == c and not peer.buffer
    t1 = create()
    es.submit(t1)
    assert t1 in peer.buffer and len(peer.buffer) == 1
    for _ in range(2, b + 1):
        es.submit(create())
    assert len(peer.buffer) == b
    overflow = create()
    es.submit(overflow)
    assert txs.status[overflow] == TxStatus.DROPPED_CAPACITY
    assert TxStatus.TEXT[txs.status[overflow]] == ("dropped", "capacity")
    # a freed slot takes the head of the buffer
    peer.busy -= 1
    es.fill(peer)
    assert peer.busy == c and len(peer.buffer) == b - 1
    assert t1 not in peer.buffer and txs.endorse_start[t1] == 0.0


# -- endorse timing ----------------------------------------------------------------

def _constant_endorse_cfg(ack_value, m, r, relaxed=False, execute=0.13):
    base = tiny_config()
    return tiny_config(
        workload=replace(base.workload, num_clients=1, rate_per_client=10.0, duration=0.1),
        endorse_model=replace(base.endorse_model,
                              execute=D.constant(execute),
                              overhead=D.constant(0.0),
                              ack=D.constant(ack_value)),
        dissemination=DisseminationStrategy(max_peer_count=m, required_peer_count=r,
                                            relaxed=relaxed, ack_timeout=1.0),
    )


def test_endorse_latency_execute_plus_quorum_plus_overhead():
    # constant execute 0.13 + single-ack quorum 0.05 -> 0.18 total
    cfg = _constant_endorse_cfg(0.05, m=1, r=1)
    txs = run_scenario(cfg, collect_traces=True).txs
    assert math.isclose(txs.endorse_end[0] - txs.endorse_start[0], 0.18)
    assert math.isclose(txs.quorum_wait[0], 0.05)


def test_zero_latency_completes_at_admission():
    cfg = _constant_endorse_cfg(0.0, m=1, r=1, execute=0.0)
    txs = run_scenario(cfg, collect_traces=True).txs
    assert txs.endorse_end[0] == txs.endorse_start[0] == txs.created_at[0]


def test_dissemination_data_lands_at_targets():
    cfg = _constant_endorse_cfg(0.05, m=1, r=1)
    sim = Simulation(cfg, collect_traces=True)
    txs = sim.run().txs
    # (1,1): exactly the endorser plus one target held the data at cut time
    assert len(disseminated_to(txs, 0)) == 1
    assert txs.endorser[0] not in disseminated_to(txs, 0)


def test_broadcast_dissemination_reaches_all_other_peers():
    # (n-1, 1*) over 3 peers: both non-endorsers hold the data
    cfg = _constant_endorse_cfg(0.05, m=2, r=1, relaxed=True)
    txs = run_scenario(cfg, collect_traces=True).txs
    assert sorted(disseminated_to(txs, 0)) == sorted(
        p for p in range(3) if p != txs.endorser[0])


def test_quorum_failure_after_retries_drops():
    base = tiny_config()
    cfg = tiny_config(
        workload=replace(base.workload, num_clients=1, rate_per_client=10.0, duration=0.5),
        endorse_model=replace(base.endorse_model, ack=D.constant(5.0)),  # never acks
        dissemination=DisseminationStrategy(max_peer_count=2, required_peer_count=2,
                                            ack_timeout=0.2, max_retries=1),
    )
    res = run_scenario(cfg, collect_traces=True)
    assert res.counters.dropped_quorum == res.counters.created
    txs = res.txs
    assert TxStatus.TEXT[txs.status[0]] == ("dropped", "quorum")
    assert txs.retries_used[0] == 1
    # two failed rounds, each costing the full ack timeout
    assert math.isclose(txs.quorum_wait[0], 0.4)


def test_rounds_resolved_only_when_used(monkeypatch):
    # a peer's plans resolve a dissemination round only when the plan that
    # needs it is taken, so quorum_satisfied runs once per round a begun
    # transaction used, and never ahead of it
    calls = []
    resolve = endorsement.quorum_satisfied

    def counted(*args):
        calls.append(args)
        return resolve(*args)

    monkeypatch.setattr(endorsement, "quorum_satisfied", counted)
    base = tiny_config()
    cfg = tiny_config(
        endorse_model=replace(base.endorse_model, ack=D.exponential(0.02)),
        dissemination=DisseminationStrategy(max_peer_count=2, required_peer_count=2,
                                            ack_timeout=0.02, max_retries=2),
    )
    res = run_scenario(cfg, collect_traces=True)
    txs = res.txs
    begun = [tx for tx, at in enumerate(txs.endorse_start) if at >= 0]
    assert res.counters.dropped_quorum > 0 and any(txs.retries_used[tx] for tx in begun)
    assert len(calls) == sum(txs.retries_used[tx] + 1 for tx in begun)


def test_preset_4_1_endorsement_mean_in_calibrated_band():
    # mean total endorsement over ~10^4 endorsements lands in [300, 420] ms
    from eovsim.presets import preset
    cfg = preset("pvtdata-250x600", variant="4-1")
    cfg = replace(cfg, workload=replace(cfg.workload, num_clients=5,
                                        rate_per_client=250.0, duration=10.0),
                  horizon=100.0)
    res = run_scenario(cfg, collect_traces=False)
    assert res.counters.endorsed >= 10_000
    mean_ms = 1000 * res.summaries["endorse_total"].mean
    assert 300 <= mean_ms <= 420


def test_capacity_invariant_holds_throughout(small_cfg):
    # asserted inside the completion handler on every event
    run_scenario(small_cfg, collect_traces=False)
