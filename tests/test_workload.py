import math
import tracemalloc
from array import array
from dataclasses import replace
from pathlib import Path

import eovsim
from eovsim import InFlightPool, RngStream, draw_parent, run_scenario
from eovsim.presets import preset
from eovsim.simulate import Simulation
from eovsim.workload import TxStatus

from conftest import tiny_config


def test_deterministic_total_count_matches_table_load():
    # 5 clients x 250 tps x 300 s
    cfg = tiny_config(workload=replace(tiny_config().workload,
                                       num_clients=5, rate_per_client=250.0,
                                       duration=300.0))
    # counting only: use a fast pass over the generator without running the sim
    from eovsim.simulate import Simulation
    sim = Simulation(cfg, collect_traces=False)
    sim.source.start()
    sim.kernel.run_until(300.0)
    assert len(sim.source.txs.status) == 375_000


def test_single_client_arrival_times():
    cfg = tiny_config(workload=replace(tiny_config().workload, num_clients=1,
                                       rate_per_client=100.0, duration=1.0))
    res = run_scenario(cfg, collect_traces=True)
    created = list(res.txs.created_at)
    assert len(created) == 100
    expected = [(k + 1) / 100.0 for k in range(100)]
    assert all(math.isclose(a, b) for a, b in zip(created, expected))


def test_poisson_count_within_three_sigma():
    lam = 250.0 * 300.0
    bound = 3 * math.sqrt(lam)
    for seed in (1, 2, 3):
        cfg = tiny_config(seed=seed,
                          workload=replace(tiny_config().workload, num_clients=1,
                                           rate_per_client=250.0, duration=300.0,
                                           arrival_process="poisson"),
                          horizon=301.0)
        from eovsim.simulate import Simulation
        sim = Simulation(cfg, collect_traces=False)
        sim.source.start()
        sim.kernel.run_until(300.0)
        assert abs(len(sim.source.txs.status) - lam) <= bound


def test_dependency_p_zero_never_assigns():
    pool = InFlightPool()
    for i in range(10):
        pool.add(i)
    stream = RngStream(1, "dep")
    for _ in range(100):
        assert draw_parent(pool, 0.0, stream) == -1


def test_dependency_p_one_singleton_pool():
    pool = InFlightPool()
    pool.add(42)
    assert draw_parent(pool, 1.0, RngStream(1, "dep")) == 42


def test_dependency_frequency_and_uniformity():
    # p=0.5 over a 10-member pool: assignment rate 50% +- 1%, chi^2 uniformity
    pool = InFlightPool()
    members = list(range(10))
    for m in members:
        pool.add(m)
    stream = RngStream(2024, "dep")
    n = 100_000
    counts = dict.fromkeys(members, 0)
    assigned = 0
    for _ in range(n):
        parent = draw_parent(pool, 0.5, stream)
        if parent != -1:
            assigned += 1
            counts[parent] += 1
    assert abs(assigned / n - 0.5) <= 0.01
    expected = assigned / 10
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 <= 21.67  # 95th percentile of chi^2 with 9 dof


def test_parents_strictly_older_acyclic():
    cfg = tiny_config(workload=replace(tiny_config().workload, dependency_prob=0.7))
    res = run_scenario(cfg, collect_traces=True)
    created_at = res.txs.created_at
    for tx_id, parent in enumerate(res.txs.parents[0.7]):
        if parent != -1:
            # strictly older in creation order; simultaneous multi-client
            # arrivals share a timestamp, so the wall clock is only <=
            assert parent < tx_id
            assert created_at[parent] <= created_at[tx_id]


def test_conservation_created_equals_endorsed_plus_dropped(small_cfg):
    res = run_scenario(small_cfg, collect_traces=False)
    c = res.counters
    assert c.created == c.endorsed + c.dropped
    assert c.endorsed == (c.committed_valid + c.committed_invalid_mvcc
                          + c.in_flight_at_horizon)


def test_pool_mode_creates_all_at_time_zero():
    from eovsim.presets import preset
    cfg = preset("waiting-2peer")
    cfg = replace(cfg, workload=replace(cfg.workload, pool_size=200), horizon=300.0)
    res = run_scenario(cfg, collect_traces=True)
    assert res.counters.created == 200
    assert all(at == 0.0 for at in res.txs.created_at)
    assert all(code == TxStatus.COMMITTED_VALID for code in res.txs.status)


def test_every_column_holds_one_entry_per_transaction(small_cfg):
    # the columns filled after creation grow in chunks; a finished run trims them
    txs = run_scenario(small_cfg, collect_traces=True, extra_dep_probs=(0.3,)).txs
    columns = [c for c in vars(txs).values() if isinstance(c, (array, bytearray))]
    assert len(columns) == 11
    assert {len(c) for c in (*columns, *txs.parents.values())} == {len(txs.status)}


def test_repeated_extra_dependency_prob_counted_once(small_cfg):
    once = run_scenario(small_cfg, collect_traces=False, extra_dep_probs=(0.6,))
    twice = run_scenario(small_cfg, collect_traces=False, extra_dep_probs=(0.6, 0.6))
    assert once.invalid_by_prob[0.6] > 0
    assert twice.invalid_by_prob == once.invalid_by_prob


def test_integer_dependency_prob_draws_like_its_float(small_cfg):
    as_int = run_scenario(small_cfg, collect_traces=False, extra_dep_probs=(1,))
    alone = run_scenario(replace(small_cfg, workload=replace(small_cfg.workload,
                                                             dependency_prob=1.0)),
                         collect_traces=False)
    assert alone.counters.committed_invalid_mvcc > 0
    assert as_int.invalid_by_prob[1.0] == alone.counters.committed_invalid_mvcc


def test_live_bytes_per_transaction_stay_columnar(monkeypatch):
    # the benchmark's tiny blocksize-high shape: 8000 transactions in blocks
    # of 500. At _finalize entry the package's own lines hold ~100 B per
    # transaction in TxStore's columns and the blocks' id arrays; an object
    # per transaction with boxed fields held ~300 B. kernel.py is left out:
    # its RNG streams hold fixed 4096-draw buffers whatever the count.
    package = Path(eovsim.__file__).parent
    base = preset("blocksize-high")
    cfg = replace(base, seed=1, workload=replace(base.workload, duration=2.0),
                  cut_rule=replace(base.cut_rule, block_size=500))
    live = []
    finalize = Simulation._finalize

    def measured(sim):
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, str(package / "*")),
             tracemalloc.Filter(False, str(package / "kernel.py"))])
        live.append(sum(trace.size for trace in snapshot.traces))
        return finalize(sim)

    monkeypatch.setattr(Simulation, "_finalize", measured)
    tracemalloc.start()
    try:
        res = run_scenario(cfg, collect_traces=False)
    finally:
        tracemalloc.stop()
    assert res.counters.created == 8000
    assert live[0] / res.counters.created <= 128
