"""Generated-input property suites, >= 1000 cases each."""

import gc
from dataclasses import fields, replace
from itertools import cycle
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from eovsim import (
    BlockCutRule,
    CommitLatencyModel,
    DisseminationStrategy,
    DistributionSpec as D,
    EndorseLatencyModel,
    LeaderPolicy,
    PeerGroupConfig,
    RngStream,
    ScenarioConfig,
    WaitingPolicy,
    WorkloadConfig,
    eligible_endorsers,
    quorum_satisfied,
    run_scenario,
)
from eovsim import simulate
from eovsim.endorsement import EndorsementSystem
from eovsim.metrics import render_report
from eovsim.ordering import Orderer
from eovsim.simulate import Simulation
from eovsim.workload import TxStatus

from conftest import disseminated_to

CASES = settings(max_examples=1000, deadline=None, derandomize=True)

LEADER_KINDS = ("max_ht", "soft_max_ht", "ranked_list", "all")

_small = st.floats(min_value=0.001, max_value=0.05)


@st.composite
def _dist(draw):
    family = draw(st.sampled_from(("constant", "exponential", "normal", "empirical")))
    if family == "constant":
        return D.constant(draw(_small))
    if family == "exponential":
        return D.exponential(draw(_small))
    if family == "normal":
        return D.normal(draw(_small), draw(_small))
    return D.empirical(draw(st.lists(_small, min_size=1, max_size=4)))


@st.composite
def scenario(draw, leader_kinds=LEADER_KINDS,
             allow_truncation=True, pool=False):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, n - 1))
    relaxed = draw(st.booleans())
    r = 1 if relaxed else draw(st.integers(1, m))
    kind = draw(st.sampled_from(leader_kinds))
    cut_kind = draw(st.sampled_from(["size_with_timeout", "dynamic_timeout"]))
    horizon = draw(st.sampled_from([0.6, 3.0, 60.0])) if allow_truncation else 60.0
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if pool:
        workload = WorkloadConfig(arrival_process="pool", pool_size=draw(st.integers(1, 60)),
                                  dependency_prob=draw(st.floats(0.0, 1.0)))
    else:
        workload = WorkloadConfig(
            num_clients=draw(st.integers(1, 2)),
            rate_per_client=draw(st.floats(10.0, 60.0)),
            duration=draw(st.floats(0.3, 1.0)),
            dependency_prob=draw(st.floats(0.0, 1.0)),
            arrival_process=draw(st.sampled_from(["deterministic", "poisson"])),
        )
    return ScenarioConfig(
        seed=seed,
        horizon=horizon,
        workload=workload,
        peers=PeerGroupConfig(
            count=n,
            commit_scales=tuple(draw(st.floats(0.5, 2.0)) for _ in range(n)),
            gateway_buffer=draw(st.integers(0, 8)),
            endorse_concurrency=draw(st.integers(1, 8)),
        ),
        dissemination=DisseminationStrategy(
            max_peer_count=m, required_peer_count=r, relaxed=relaxed,
            ack_timeout=draw(st.floats(0.05, 0.5)),
            max_retries=draw(st.integers(0, 1)),
        ),
        leader=LeaderPolicy(kind=kind, tau=draw(st.integers(0, 3))),
        cut_rule=BlockCutRule(kind=cut_kind,
                              block_size=draw(st.integers(3, 25)),
                              timeout=draw(st.floats(0.1, 0.8))),
        commit_mode=draw(st.sampled_from(["serial", "pipelined"])),
        endorse_model=EndorseLatencyModel(
            execute=draw(_dist()), overhead=D.constant(0.0), ack=draw(_dist())),
        commit_model=CommitLatencyModel(
            vscc=draw(_dist()), pvt_fetch_local=draw(_dist()),
            pvt_fetch_remote=draw(_dist()), mvcc=draw(_dist()),
            block_store=draw(_dist()), statedb=draw(_dist())),
        ordering_overhead=draw(st.sampled_from([0.0, 0.01, 0.2])),
    )


@st.composite
def waiting_scenario(draw, pool=None):
    """Waiting-enabled scenarios with uneven peers, so gaps open and close;
    pool-mode only when pool is true."""
    n = draw(st.integers(2, 4))
    tau = draw(st.integers(1, 3))
    scales = tuple(draw(st.floats(0.5, 3.0)) for _ in range(n))
    if draw(st.booleans()) if pool is None else pool:
        workload = WorkloadConfig(arrival_process="pool", pool_size=draw(st.integers(50, 200)))
        cut = BlockCutRule(kind="dynamic_timeout", timeout=draw(st.floats(0.02, 0.2)))
    else:
        workload = WorkloadConfig(
            num_clients=draw(st.integers(1, 2)),
            rate_per_client=draw(st.floats(20.0, 80.0)),
            duration=draw(st.floats(0.5, 2.0)),
            arrival_process=draw(st.sampled_from(["deterministic", "poisson"])))
        cut = BlockCutRule(kind=draw(st.sampled_from(["size_with_timeout", "dynamic_timeout"])),
                           block_size=draw(st.integers(2, 10)),
                           timeout=draw(st.floats(0.02, 0.2)))
    means = tuple(0.1 * s for s in scales)
    return ScenarioConfig(
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        horizon=100.0,
        workload=workload,
        peers=PeerGroupConfig(count=n, commit_scales=scales,
                              gateway_buffer=draw(st.integers(0, 4)),
                              endorse_concurrency=draw(st.integers(1, 4))),
        dissemination=DisseminationStrategy(max_peer_count=1, required_peer_count=1,
                                            ack_timeout=0.5),
        leader=LeaderPolicy(kind=draw(st.sampled_from(LEADER_KINDS)), tau=tau),
        cut_rule=cut,
        commit_mode=draw(st.sampled_from(["serial", "pipelined"])),
        endorse_model=EndorseLatencyModel(
            execute=draw(_dist()), overhead=D.constant(0.0), ack=D.constant(0.0)),
        commit_model=CommitLatencyModel(vscc=draw(_dist()), statedb=D.exponential(0.1)),
        ordering_overhead=draw(st.sampled_from([0.0, 0.01, 0.2])),
        waiting=WaitingPolicy(enabled=True, tau=tau, ceiling=tau + draw(st.integers(1, 4)),
                              boosted_mean=draw(st.floats(0.2, 0.9)) * max(means),
                              baseline_means=means),
    )


@CASES
@given(waiting_scenario())
def test_waiting_gap_bound_and_paused_peers_idle(cfg):
    # checked from the block trace and the wait log, outside the controller;
    # completions at one instant may be replayed in any order, because no
    # max-height peer has a phase 2 in flight while the gap is tau + 1
    res = run_scenario(cfg, collect_traces=True)
    done = sorted((t.p2_end, t.peer_id) for _, timings in res.block_trace
                  for t in timings if 0 <= t.p2_start and t.p2_end <= res.makespan)
    heights = [0] * cfg.peers.count
    for _, peer in done:
        heights[peer] += 1
        assert max(heights) - min(heights) <= cfg.waiting.tau + 1
    for peer, start, end in _pause_windows(res.wait_events):
        assert not any(p == peer and start < at < end for at, p in done)


def _pause_windows(wait_events):
    """(peer, pause_start, pause_end) of every pause, with inf for a pause
    still open when the run ended."""
    windows, open_at = [], {}
    for ev in wait_events:
        if ev.kind == "pause_start":
            open_at[ev.leader] = ev.at
        elif ev.kind == "pause_end":
            windows.append((ev.leader, open_at.pop(ev.leader), ev.at))
    return windows + [(peer, start, float("inf")) for peer, start in open_at.items()]


@CASES
@given(waiting_scenario())
def test_waiting_work_conservation(cfg):
    # with waiting on, phase 1 keeps its max-plus recurrence, and phase 2
    # starts the instant it is ready unless that instant falls in one of the
    # peer's pause windows [pause_start, pause_end): then it starts exactly
    # when the window closes, or never if the window stays open
    sim = Simulation(cfg, collect_traces=False)
    sim.run()
    events = sim.controller.events
    pause_at = {e.at for e in events if e.kind == "pause_start"}
    assert all(e.at in pause_at for e in events if e.kind == "boost_start")
    windows = _pause_windows(events)
    pipelined = cfg.commit_mode == "pipelined"
    for peer in sim.peers:
        p1_end = p2_end = -1.0  # the previous block's, -1 before the first
        for t, block in zip(peer.timings, sim.orderer.blocks):
            if t.p1_start < 0:
                break
            d = block.cut_at + cfg.ordering_overhead
            assert t.p1_start == max(d, p1_end if pipelined else p2_end)
            if t.p2_start >= 0:
                ready = max(t.p1_end, p2_end) if pipelined else t.p1_end
                held = [end for i, start, end in windows
                        if i == peer.peer_id and start <= ready < end]
                assert t.p2_start == (held[0] if held else ready)
            p1_end, p2_end = t.p1_end, t.p2_end


@CASES
@given(st.one_of(scenario(), waiting_scenario()))
def test_drained_run_leaves_nothing_in_flight(cfg):
    # drained() reads the peers' slots and buffers, the orderer queue and the
    # arrival source; check its verdict against every transaction's status.
    # A run whose events ran out before the horizon must be drained: the
    # dynamic cut rule stops ticking on drained(), so a premature verdict
    # strands endorsed transactions in the orderer queue.
    # With the collector off, dropping the run must free all of it, drained
    # or truncated: a reference cycle would leave it for gc.collect(). The
    # freeze keeps that pass to the objects made since, not the whole heap.
    gc.freeze()
    gc.disable()
    try:
        sim = Simulation(cfg, collect_traces=False)
        res = sim.run()
        if sim.kernel.pending() == 0:
            assert res.status == "drained"
        if res.status == "drained":
            assert not any(p.busy or p.buffer for p in sim.peers)
            assert not sim.orderer.queue
            assert TxStatus.CREATED not in sim.source.txs.status
        del sim
        assert gc.collect() == 0
    finally:
        gc.enable()
        gc.unfreeze()


@CASES
@given(scenario(), st.floats(0.0, 1.0))
def test_extra_dependency_prob_matches_standalone_run(cfg, q):
    res = run_scenario(cfg, collect_traces=False, extra_dep_probs=(q,))
    primary = cfg.workload.dependency_prob
    assert res.invalid_by_prob[primary] == res.counters.committed_invalid_mvcc
    alone = run_scenario(replace(cfg, workload=replace(cfg.workload, dependency_prob=q)),
                         collect_traces=False)
    assert res.invalid_by_prob[q] == alone.counters.committed_invalid_mvcc


def _reference_invalid(ledger, txs, parents):
    """The MVCC rule one transaction at a time: a dependent in the ledger is
    invalid unless its parent was dropped or was ordered at a strictly
    earlier (block_num, block_pos)."""
    invalid = []
    for tx in ledger:
        parent = parents[tx]
        if parent == -1:
            continue
        dropped = TxStatus.TEXT[txs.status[parent]][0] == "dropped"
        earlier = (txs.block_num[parent] != -1 and (txs.block_num[parent], txs.block_pos[parent])
                   < (txs.block_num[tx], txs.block_pos[tx]))
        if not (dropped or earlier):
            invalid.append(tx)
    return invalid


@CASES
@given(st.one_of(scenario(), waiting_scenario()), st.lists(st.floats(0.0, 1.0), max_size=3),
       st.sampled_from([None, 0.6, 3.0]))
def test_vectorised_validity_matches_reference_loop(cfg, extra, horizon):
    # each probability's invalid ids, in ledger order, against a per-transaction
    # loop over the same columns, with horizon drops not yet settled
    if horizon is not None:
        cfg = replace(cfg, horizon=horizon)
    vectorised = simulate.assign_validity
    calls = 0

    def checked(ledger, txs, parents):
        nonlocal calls
        calls += 1
        invalid = vectorised(ledger, txs, parents)
        assert invalid.tolist() == _reference_invalid(ledger.tolist(), txs, parents)
        return invalid

    with patch.object(simulate, "assign_validity", checked):
        res = run_scenario(cfg, collect_traces=False, extra_dep_probs=tuple(extra))
    assert calls == len(res.invalid_by_prob)


@CASES
@given(scenario())
def test_determinism_identical_seed_identical_reports(cfg):
    a = render_report(run_scenario(cfg, collect_traces=True))
    b = render_report(run_scenario(cfg, collect_traces=True))
    assert a == b


@CASES
@given(scenario())
def test_conservation_identities(cfg):
    res = run_scenario(cfg, collect_traces=True)
    c = res.counters
    c.check()  # created = endorsed + dropped; endorsed = valid+invalid+in-flight
    by_status = {}
    for code in res.txs.status:
        status = TxStatus.TEXT[code][0]
        by_status[status] = by_status.get(status, 0) + 1
    assert by_status.get("dropped", 0) == c.dropped
    assert by_status.get("committed-valid", 0) == c.committed_valid
    assert by_status.get("committed-invalid-mvcc", 0) == c.committed_invalid_mvcc
    terminal = (c.dropped + c.committed_valid + c.committed_invalid_mvcc
                + c.in_flight_at_horizon)
    assert terminal == c.created


@CASES
@given(scenario(allow_truncation=False))
def test_pipeline_safety_phase2_ordered_disjoint(cfg):
    sim = Simulation(cfg, collect_traces=False)
    sim.run()
    for peer in sim.peers:
        timings = [t for t in peer.timings if t.p2_end >= 0]
        for a, b in zip(timings, timings[1:]):
            assert b.block_num == a.block_num + 1
            assert b.p2_start >= a.p2_end - 1e-12
        for t in timings:
            assert t.p1_end <= t.p2_start + 1e-12
    # work conservation: without waiting no phase idles while it has work, so
    # every started phase starts exactly at its max-plus recurrence, with
    # block i delivered at d_i = cut_at + ordering_overhead
    pipelined = cfg.commit_mode == "pipelined"
    for peer in sim.peers:
        p1_end = p2_end = -1.0  # the previous block's, -1 before the first
        for t, block in zip(peer.timings, sim.orderer.blocks):
            if t.p1_start < 0:
                break
            d = block.cut_at + cfg.ordering_overhead
            assert t.p1_start == max(d, p1_end if pipelined else p2_end)
            if t.p2_start >= 0:
                assert t.p2_start == (max(t.p1_end, p2_end) if pipelined else t.p1_end)
            p1_end, p2_end = t.p1_end, t.p2_end


@CASES
@given(scenario(leader_kinds=("all",), allow_truncation=False))
def test_mode_equivalence_under_height_independent_routing(cfg):
    # commit timing feeds heights, so block contents can differ across
    # commit modes for height-sensitive policies; under `all` routing the
    # endorsement side is identical and outcomes must match exactly
    serial = run_scenario(replace(cfg, commit_mode="serial"), collect_traces=True)
    pipelined = run_scenario(replace(cfg, commit_mode="pipelined"), collect_traces=True)
    blocks_s = [list(b.txs) for b, _ in serial.block_trace]
    blocks_p = [list(b.txs) for b, _ in pipelined.block_trace]
    assert blocks_s == blocks_p
    assert serial.txs.status == pipelined.txs.status
    assert serial.counters == pipelined.counters


@CASES
@given(st.integers(2, 6), st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6),
       st.floats(0.05, 1.5), st.data())
def test_quorum_wait_pointwise_monotone_in_relaxation(m, raw_delays, timeout, data):
    m = max(2, min(m, 6))
    delays = (raw_delays * m)[:m]
    designated = data.draw(st.integers(0, m - 1))

    def strat(r, relaxed=False):
        return DisseminationStrategy(max_peer_count=m, required_peer_count=r,
                                     relaxed=relaxed, ack_timeout=timeout)

    ok_rel, w_rel = quorum_satisfied(strat(1, relaxed=True), delays, designated)
    ok_one, w_one = quorum_satisfied(strat(1), delays, designated)
    ok_all, w_all = quorum_satisfied(strat(m), delays, designated)
    # relaxing the requirement never increases the wait on the same samples
    assert w_rel <= w_one + 1e-12
    assert w_rel <= w_all + 1e-12
    # and never turns a satisfiable quorum into a failure
    if ok_one or ok_all:
        assert ok_rel


@CASES
@given(scenario())
def test_eligibility_soundness(cfg):
    # at every routing call the simulation's eligible set is the policy's
    # set for the current heights, and the chosen endorser is in it
    route = EndorsementSystem.route_transaction
    calls = 0

    def checked_route(system):
        nonlocal calls
        calls += 1
        sim = system.sim
        assert sim.eligible == eligible_endorsers(cfg.leader, [p.height for p in sim.peers])
        peer = route(system)
        assert peer is None or peer.peer_id in sim.eligible
        return peer

    with patch.object(EndorsementSystem, "route_transaction", checked_route):
        res = run_scenario(cfg, collect_traces=False)
    assert calls == res.counters.created  # every arrival is routed once


@CASES
@given(st.one_of(waiting_scenario(pool=True), scenario(pool=True)))
def test_pool_admission_keeps_eligible_slots_busy(cfg):
    # pool mode never routes, so this is where eligibility reaches it: a
    # pool transaction starts only on an eligible peer, and after every
    # completion and every commit the pool is empty or every eligible peer
    # is full. Checked by wrapping, outside EndorsementSystem.fill.
    begin, complete = EndorsementSystem._begin, EndorsementSystem._complete
    on_commit = Simulation.on_commit
    concurrency = cfg.peers.endorse_concurrency
    started = 0

    def saturated(sim):
        assert (not sim.source.unpulled
                or all(sim.peers[i].busy == concurrency for i in sim.eligible))

    def checked_begin(system, peer, tx):
        nonlocal started
        started += 1
        assert peer.peer_id in system.sim.eligible
        begin(system, peer, tx)

    def checked_complete(system, peer, tx, ok):
        complete(system, peer, tx, ok)
        saturated(system.sim)

    def checked_commit(sim, block, timing):
        on_commit(sim, block, timing)
        saturated(sim)

    with patch.object(EndorsementSystem, "_begin", checked_begin), \
            patch.object(EndorsementSystem, "_complete", checked_complete), \
            patch.object(Simulation, "on_commit", checked_commit):
        sim = Simulation(cfg, collect_traces=False)
        sim.run()
    assert started == sum(at >= 0 for at in sim.source.txs.endorse_start) > 0


@CASES
@given(scenario())
def test_block_local_data_matches_dissemination_trace(cfg):
    # a peer holds a block's private data iff it endorsed or received every
    # transaction of the block. Every cut takes the whole orderer queue, and
    # the size rule cuts before the queue passes block_size.
    cut_block = Orderer.cut_block

    def checked_cut(orderer):
        cut_block(orderer)
        assert not orderer.queue
        if cfg.cut_rule.kind == "size_with_timeout":
            assert orderer.blocks[-1].size <= cfg.cut_rule.block_size

    with patch.object(Orderer, "cut_block", checked_cut):
        res = run_scenario(cfg, collect_traces=True)
    txs = res.txs
    for block, _ in res.block_trace:
        for p in range(cfg.peers.count):
            assert bool(block.holders >> p & 1) == all(
                p == txs.endorser[tx] or p in disseminated_to(txs, tx) for tx in block.txs)


# -- endorsement plans ------------------------------------------------------------
#
# A peer's endorsement outcomes are one generator, which draws them a chunk at
# a time and resolves a round only when its plan is taken. The reference below is the draw sequence of one endorsement at a
# time: execute, overhead, then rounds of m acks through quorum_satisfied, the
# rotation advancing on every round. Both must give each transaction the same
# outcome, bit for bit.

@st.composite
def _endorse_stage(draw):
    """A stage distribution that reaches the plan path's edges: truncation
    with a mean near 0, empirical draws, -0.0 samples, acks past the timeout."""
    kind = draw(st.sampled_from(("any", "near-zero normal", "empirical", "signed zero", "slow")))
    if kind == "any":
        return draw(_dist())
    if kind == "near-zero normal":
        return D.normal(draw(st.floats(0.0, 0.002)), draw(_small))
    if kind == "empirical":
        return D.empirical(draw(st.lists(st.sampled_from([-0.0, 0.0, 0.004, 0.03, 0.3, 0.9]),
                                         min_size=1, max_size=5)))
    if kind == "signed zero":
        return D.constant(-0.0)
    return D.exponential(draw(st.floats(0.05, 0.5)))


@st.composite
def plan_scenario(draw):
    cfg = draw(st.one_of(scenario(), waiting_scenario()))
    n = cfg.peers.count
    m = draw(st.integers(1, n - 1))
    rule = draw(st.sampled_from(("(m,1)", "(m,1*)", "(m,m)")))
    return replace(
        cfg,
        dissemination=DisseminationStrategy(
            max_peer_count=m, required_peer_count=m if rule == "(m,m)" else 1,
            relaxed=rule == "(m,1*)", ack_timeout=draw(st.floats(0.05, 0.5)),
            max_retries=draw(st.integers(0, 2))),
        endorse_model=EndorseLatencyModel(execute=draw(_endorse_stage()),
                                          overhead=draw(_endorse_stage()),
                                          ack=draw(_endorse_stage())))


def _reference_endorsements(cfg, peer_id, rounds):
    """Peer peer_id's endorsements in the order it begins them, drawn one at a
    time: (ok, quorum_wait, winning round or -1, retries, total)."""
    model, strategy = cfg.endorse_model, cfg.dissemination
    endorse, overhead_stream, ack = (RngStream(cfg.seed, f"peer{peer_id}.{stage}")
                                     for stage in ("endorse", "overhead", "ack"))
    rotation = cycle(enumerate(rounds))
    while True:
        execute = model.execute.sample(endorse)
        overhead = model.overhead.sample(overhead_stream)
        total_wait = 0.0
        for attempt in range(strategy.max_retries + 1):
            index, (_, designated, _) = next(rotation)
            delays = [model.ack.sample(ack) for _ in range(strategy.max_peer_count)]
            ok, wait = quorum_satisfied(strategy, delays, designated)
            if ok:
                quorum_wait = total_wait + wait
                break
            total_wait += strategy.ack_timeout
        else:
            quorum_wait, index = total_wait, -1
        yield ok, quorum_wait, index, attempt, execute + quorum_wait + (overhead if ok else 0.0)


@CASES
@given(plan_scenario())
def test_endorsement_plans_match_one_at_a_time_draws(cfg):
    txs = run_scenario(cfg, collect_traces=True).txs
    for peer_id, rounds in enumerate(txs.rounds):
        # a peer starts its transactions in id order: its gateway buffer and
        # the pool batch are both FIFO in creation order
        mine = [tx for tx, p in enumerate(txs.endorser) if p == peer_id]
        for tx, (ok, quorum_wait, won, retries, total) in zip(
                mine, _reference_endorsements(cfg, peer_id, rounds)):
            assert txs.round[tx] == won
            assert txs.retries_used[tx] == retries
            assert repr(txs.quorum_wait[tx]) == repr(quorum_wait)  # -0.0 is not 0.0
            if txs.endorse_end[tx] >= 0:  # completed before the horizon
                assert txs.endorse_end[tx] == txs.endorse_start[tx] + total
                assert (txs.status[tx] == TxStatus.DROPPED_QUORUM) == (not ok)


# -- time scaling ----------------------------------------------------------------
#
# Doubling every time parameter and halving every rate must double every
# simulated time and change nothing else: scaling by a power of two is exact
# in floating point, so the two runs draw, order and count identically. It
# catches a hard-coded number of seconds, a unit slip or a tolerance that
# does not scale (Chen et al., "Metamorphic Testing: A Review of Challenges
# and Opportunities", ACM Computing Surveys 51(1), 2018). The config is built
# in-process because `_ms` JSON is not exact.

def _scale_dist(d, k):
    return replace(d, value=d.value * k, mean=d.mean * k, std=d.std * k,
                   samples=tuple(s * k for s in d.samples), per_tx=d.per_tx * k)


def _scale_dists(model, k):
    return replace(model, **{f.name: _scale_dist(getattr(model, f.name), k)
                             for f in fields(model) if isinstance(getattr(model, f.name), D)})


def scale_time(cfg, k):
    """cfg with every time parameter multiplied by k and every rate divided by k."""
    w, d, wt = cfg.workload, cfg.dissemination, cfg.waiting
    return replace(
        cfg, horizon=cfg.horizon * k, ordering_overhead=cfg.ordering_overhead * k,
        workload=replace(w, rate_per_client=w.rate_per_client / k, duration=w.duration * k),
        dissemination=replace(d, ack_timeout=d.ack_timeout * k),
        cut_rule=replace(cfg.cut_rule, timeout=cfg.cut_rule.timeout * k),
        endorse_model=_scale_dists(cfg.endorse_model, k),
        commit_model=_scale_dists(cfg.commit_model, k),
        waiting=replace(wt, boosted_mean=wt.boosted_mean * k,
                        baseline_means=tuple(m * k for m in wt.baseline_means)))


def _doubled(a, b, names):
    """b's time fields are exactly twice a's; -1.0 marks a time never reached."""
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        assert y == 2.0 * x or x == y == -1.0, (name, x, y)


_TX_SAME = ("client", "endorser", "retries_used", "round", "block_num", "block_pos", "status")
_TX_TIMES = ("created_at", "endorse_start", "endorse_end", "quorum_wait")
_BLOCK_TIMES = ("first_enqueued_at", "cut_at", "creation_time", "first_commit_at")
_PHASE_TIMES = ("p1_start", "p1_end", "p2_start", "p2_end")


@CASES
@given(st.one_of(scenario(), waiting_scenario()))
def test_time_scaling_doubles_every_time(cfg):
    a = run_scenario(cfg)
    b = run_scenario(scale_time(cfg, 2.0))
    assert b.counters == a.counters
    assert (b.status, b.n_blocks, b.invalid_by_prob) == (a.status, a.n_blocks, a.invalid_by_prob)
    _doubled(a, b, ("makespan", "last_commit_at"))
    assert b.eligible_multi_fraction == a.eligible_multi_fraction
    assert b.throughput.time_ratio == a.throughput.time_ratio
    for name in ("e2e_tps", "commit_tps", "endorsement_tps"):
        assert 2.0 * getattr(b.throughput, name) == getattr(a.throughput, name), name
    assert b.summaries.keys() == a.summaries.keys()
    for stage, sa in a.summaries.items():
        sb = b.summaries[stage]
        assert (sb.stage, sb.count) == (sa.stage, sa.count)
        _doubled(sa, sb, ("mean", "std", "p50", "p95", "p99"))
    assert b.per_peer_commit_mean == [2.0 * m for m in a.per_peer_commit_mean]
    assert b.txs.parents == a.txs.parents
    assert len(b.txs.status) == len(a.txs.status)
    for name in _TX_SAME:
        assert getattr(b.txs, name) == getattr(a.txs, name), name
    for name in _TX_TIMES:
        for x, y in zip(getattr(a.txs, name), getattr(b.txs, name)):
            assert y == 2.0 * x or x == y == -1.0, (name, x, y)
    assert len(b.block_trace) == len(a.block_trace)
    for (ba, pa), (bb, pb) in zip(a.block_trace, b.block_trace):
        assert (bb.block_num, bb.holders) == (ba.block_num, ba.holders)
        assert bb.txs == ba.txs
        _doubled(ba, bb, _BLOCK_TIMES)
        assert [(t.block_num, t.peer_id) for t in pb] == [(t.block_num, t.peer_id) for t in pa]
        for ta, tb in zip(pa, pb):
            _doubled(ta, tb, _PHASE_TIMES)
    assert ([(e.kind, e.leader, e.lagger, e.gap) for e in b.wait_events]
            == [(e.kind, e.leader, e.lagger, e.gap) for e in a.wait_events])
    assert [e.at for e in b.wait_events] == [2.0 * e.at for e in a.wait_events]
