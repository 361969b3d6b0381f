import math
from dataclasses import replace

import pytest

from eovsim import BlockCutRule, DistributionSpec as D, LeaderPolicy, SimulationIntegrityError
from eovsim import run_scenario
from eovsim.metrics import summary_row
from eovsim.ordering import Orderer
from eovsim.simulate import Simulation

from conftest import tiny_config


def _ordering_cfg(**over):
    base = tiny_config()
    cfg = tiny_config(
        workload=replace(base.workload, num_clients=1, rate_per_client=100.0, duration=1.0),
        endorse_model=replace(base.endorse_model, execute=D.constant(0.0),
                              ack=D.constant(0.0)),
    )
    return replace(cfg, **over)


def test_first_enqueue_timestamp_recorded():
    cfg = _ordering_cfg(cut_rule=BlockCutRule("size_with_timeout", block_size=100, timeout=10.0))
    res = run_scenario(cfg, collect_traces=True)
    block, _ = res.block_trace[0]
    # first arrival at t=0.01 endorses instantly and opens the accumulation
    assert math.isclose(block.first_enqueued_at, 0.01)


def test_same_instant_enqueues_follow_event_order():
    cfg = tiny_config(
        workload=replace(tiny_config().workload, num_clients=3,
                         rate_per_client=10.0, duration=0.5),
        endorse_model=replace(tiny_config().endorse_model,
                              execute=D.constant(0.0), ack=D.constant(0.0)),
        cut_rule=BlockCutRule("size_with_timeout", block_size=100, timeout=5.0),
    )
    res = run_scenario(cfg, collect_traces=True)
    block, _ = res.block_trace[0]
    ids = list(block.txs)
    # simultaneous completions keep creation (seq) order
    assert ids == sorted(ids)


def test_size_cut_empties_queue_exactly():
    cfg = _ordering_cfg(cut_rule=BlockCutRule("size_with_timeout", block_size=50, timeout=10.0))
    sim = Simulation(cfg, collect_traces=True)
    res = sim.run()
    assert [b.size for b, _ in res.block_trace] == [50, 50]
    assert not sim.orderer.queue


def test_block_numbers_sequential_and_every_tx_once():
    cfg = _ordering_cfg(cut_rule=BlockCutRule("size_with_timeout", block_size=30, timeout=10.0))
    res = run_scenario(cfg, collect_traces=True)
    nums = [b.block_num for b, _ in res.block_trace]
    assert nums == list(range(1, len(nums) + 1))
    seen = [tx for b, _ in res.block_trace for tx in b.txs]
    assert len(seen) == len(set(seen)) == res.counters.endorsed


def test_creation_time_tracks_fill_rate():
    # deterministic 100 tps, block 50 -> creation ~0.49 s (50 arrivals at 10 ms)
    cfg = _ordering_cfg(cut_rule=BlockCutRule("size_with_timeout", block_size=50, timeout=10.0))
    res = run_scenario(cfg, collect_traces=True)
    block, _ = res.block_trace[0]
    assert math.isclose(block.creation_time, 0.49, rel_tol=1e-6)


def test_timeout_cut_flushes_partial_block():
    # 10 txs only; block size never reached, timeout fires
    cfg = _ordering_cfg(
        workload=replace(_ordering_cfg().workload, rate_per_client=10.0, duration=1.0),
        cut_rule=BlockCutRule("size_with_timeout", block_size=100, timeout=0.5),
    )
    res = run_scenario(cfg, collect_traces=True)
    sizes = [b.size for b, _ in res.block_trace]
    assert sum(sizes) == 10
    first, _ = res.block_trace[0]
    assert math.isclose(first.creation_time, 0.5)


def test_dynamic_rule_drains_whole_queue():
    cfg = _ordering_cfg(
        workload=replace(_ordering_cfg().workload, rate_per_client=15.0, duration=1.0),
        cut_rule=BlockCutRule("dynamic_timeout", timeout=2.0),
    )
    res = run_scenario(cfg, collect_traces=True)
    blocks = [b for b, _ in res.block_trace]
    assert blocks[0].size == 15  # everything endorsed by t=2 goes in one block
    assert math.isclose(blocks[0].cut_at, 2.0)


def test_dynamic_rule_skips_empty_ticks():
    cfg = _ordering_cfg(
        workload=replace(_ordering_cfg().workload, rate_per_client=1.0, duration=1.0),
        cut_rule=BlockCutRule("dynamic_timeout", timeout=0.25),
    )
    res = run_scenario(cfg, collect_traces=True)
    assert all(b.size > 0 for b, _ in res.block_trace)


def test_ordering_overhead_delays_delivery():
    cfg = _ordering_cfg(
        cut_rule=BlockCutRule("size_with_timeout", block_size=50, timeout=10.0),
        ordering_overhead=0.2,
    )
    res = run_scenario(cfg, collect_traces=True)
    block, timings = res.block_trace[0]
    assert all(t.p1_start >= block.cut_at + 0.2 for t in timings)


def test_drained_run_does_not_depend_on_horizon():
    # the last cut cancels a timeout that lies past the shorter horizon; the
    # cancelled entry must not hold the clock open until the horizon
    cfg = tiny_config(leader=LeaderPolicy(kind="max_ht"),
                      cut_rule=BlockCutRule("size_with_timeout", block_size=20, timeout=100.0))
    rows = []
    for horizon in (500.0, 50.0):
        res = run_scenario(replace(cfg, horizon=horizon), collect_traces=False)
        assert res.status == "drained"
        row = summary_row(res)
        del row["config_hash"]
        rows.append(row)
    assert rows[0] == rows[1]


def test_lost_endorsed_transaction_raises_integrity_error(monkeypatch):
    # in-flight transactions are counted from the blocks and the queue, so
    # one the orderer loses breaks endorsed == valid + invalid + in-flight
    orig = Orderer.enqueue_endorsed
    lost = []

    def lossy(self, tx, holders):
        if lost:
            orig(self, tx, holders)
        else:
            lost.append(tx)

    monkeypatch.setattr(Orderer, "enqueue_endorsed", lossy)
    with pytest.raises(SimulationIntegrityError, match="conservation violated: endorsed"):
        run_scenario(tiny_config(), collect_traces=False)
    assert len(lost) == 1
