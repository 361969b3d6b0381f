import math
from array import array

import pytest

from eovsim import DistributionSpec as D
from eovsim import RngStream, SchedulingError, SimKernel, Simulation
from eovsim.kernel import EventKind

from conftest import tiny_config


def test_same_time_events_dispatch_in_insertion_order():
    k = SimKernel()
    seen = []
    k.schedule(5.0, EventKind.GENERIC, lambda: seen.append("A"))
    k.schedule(5.0, EventKind.GENERIC, lambda: seen.append("B"))
    k.run_until(10.0)
    assert seen == ["A", "B"]


def test_min_heap_order_regardless_of_insertion():
    k = SimKernel()
    seen = []
    k.schedule(7.0, EventKind.GENERIC, lambda: seen.append(7.0))
    k.schedule(2.0, EventKind.GENERIC, lambda: seen.append(2.0))
    k.run_until(10.0)
    assert seen == [2.0, 7.0]


def test_scheduling_in_the_past_rejected():
    k = SimKernel()
    k.schedule(1.0, EventKind.GENERIC, lambda: None)
    k.run_until(1.0)
    with pytest.raises(SchedulingError):
        k.schedule(0.9, EventKind.GENERIC, lambda: None)


def test_run_until_empty_queue_advances_clock():
    k = SimKernel()
    assert k.run_until(10.0) == 10.0
    assert k.dispatched == 0


def test_run_until_partial_dispatch():
    k = SimKernel()
    seen = []
    for t in (1.0, 2.0, 3.0):
        k.schedule(t, EventKind.GENERIC, lambda t=t: seen.append(t))
    k.run_until(2.5)
    assert seen == [1.0, 2.0]
    assert k.now == 2.5


def test_self_rescheduling_dispatch_count():
    # every 2 s starting at t=2; run_until(9) fires at 2, 4, 6, 8 -> 4 times
    k = SimKernel()
    count = [0]

    def tick():
        count[0] += 1
        k.schedule(k.now + 2.0, EventKind.GENERIC, tick)

    k.schedule(2.0, EventKind.GENERIC, tick)
    k.run_until(9.0)
    assert count[0] == 4


def test_clock_rests_at_last_event_when_drained():
    k = SimKernel()
    k.schedule(3.0, EventKind.GENERIC, lambda: None)
    assert k.run_until(10.0) == 3.0


def test_clock_monotone_across_dispatch():
    k = SimKernel()
    stamps = []
    for t in (0.5, 0.5, 1.25, 2.0):
        k.schedule(t, EventKind.GENERIC, lambda: stamps.append(k.now))
    k.run_until(5.0)
    assert stamps == sorted(stamps)


def test_cancelled_event_not_dispatched():
    k = SimKernel()
    seen = []
    handle = k.schedule(1.0, EventKind.GENERIC, lambda: seen.append("x"))
    k.cancel(handle)
    k.run_until(2.0)
    assert seen == []


def test_cancelled_event_past_t_end_leaves_clock_at_last_event():
    # a cancelled timeout beyond the horizon does not keep the run going
    k = SimKernel()
    k.schedule(3.0, EventKind.GENERIC, lambda: None)
    k.cancel(k.schedule(20.0, EventKind.GENERIC, lambda: None))
    assert k.run_until(10.0) == 3.0
    assert k.pending() == 0


# -- distribution sampling ---------------------------------------------------

def _stream(label="t", seed=123):
    return RngStream(seed, label)


def test_constant_sample_exact():
    assert D.constant(1.59).sample(_stream()) == 1.59


def test_constant_scale():
    assert D.constant(2.0, scale=0.5).sample(_stream()) == 1.0


def test_exponential_law_of_large_numbers():
    dist = D.exponential(1.3)
    s = _stream("lln", seed=42)
    n = 10 ** 6
    mean = sum(dist.sample(s) for _ in range(n)) / n
    assert abs(mean - 1.3) <= 0.01


def test_empirical_scaled_support():
    dist = D.empirical([2.0, 2.4, 2.8], scale=0.375)
    s = _stream("emp")
    support = {0.75, 0.9, 1.05}
    for _ in range(500):
        v = dist.sample(s)
        assert any(math.isclose(v, x) for x in support)


def test_truncated_normal_never_negative_and_mean_preserved():
    dist = D.normal(0.05, 0.05)  # heavy truncation pressure
    s = _stream("tn")
    vals = [dist.sample(s) for _ in range(20000)]
    assert min(vals) >= 0.0
    # resampling (not clamping) keeps the mean near the conditional mean,
    # which for mean=std is ~1.29x the nominal; clamping would give ~1.08x
    assert sum(vals) / len(vals) > 0.06


def test_invalid_distribution_params_rejected():
    with pytest.raises(ValueError):
        D.exponential(-1.0)
    with pytest.raises(ValueError):
        D.empirical([])
    with pytest.raises(ValueError):
        D("weibull")
    with pytest.raises(ValueError):
        D.constant(1.0, scale=0.0)


@pytest.mark.parametrize("build", [
    lambda: D.constant(math.nan),
    lambda: D.constant(math.inf),
    lambda: D.exponential(math.inf),
    lambda: D.normal(1.0, math.nan),
    lambda: D.normal(-math.inf, 1.0),
    lambda: D.empirical([0.1, math.nan]),
    lambda: D.empirical([math.inf]),
    lambda: D.constant(1.0, scale=math.nan),
    lambda: D.constant(1.0, scale=math.inf),
    lambda: D.constant(1.0, per_tx=math.nan),
    lambda: D.exponential(1.0, per_tx=math.inf),
])
def test_non_finite_distribution_params_rejected(build):
    # a NaN or infinite sample would put a NaN event time in the heap and
    # break its order, so the run would report a partial, wrong result
    with pytest.raises(ValueError, match="finite"):
        build()


# Chunk reads: sample_n(stream, n) must give the values, in order, and make the
# draws of n sample() calls, whatever the stream's earlier reads. Values are
# compared bit for bit, so a -0.0 where sample() gives 0.0 fails.

FAMILIES = {
    "constant": D.constant(0.2, scale=1.5),
    "exponential": D.exponential(0.3, scale=0.5),
    "normal": D.normal(0.001, 0.05),  # about half the draws are truncated
    "empirical": D.empirical([0.1, 0.25, 0.4], scale=2.0),
    "empirical with per_tx": D.empirical([-0.0, 0.3], per_tx=0.002),  # -0.0 + 0.0
}


def _bits(values):
    return array("d", values).tobytes()


@pytest.mark.parametrize("family", FAMILIES)
def test_chunk_draws_equal_scalar_draws(family):
    dist = FAMILIES[family]
    scalar, chunked = _stream("peer0.ack"), _stream("peer0.ack")
    expected = [dist.sample(scalar) for _ in range(9000)]
    # 4000 + 300 crosses the first 4096-draw chunk inside one read
    got = [*dist.sample_n(chunked, 4000), *dist.sample_n(chunked, 300),
           *dist.sample_n(chunked, 0), *dist.sample_n(chunked, 4700)]
    assert _bits(got) == _bits(expected)
    assert dist.sample(scalar) == dist.sample(chunked)  # the next draw lines up too


@pytest.mark.parametrize("family", FAMILIES)
def test_chunk_and_scalar_reads_interleave_on_one_key(family):
    dist = FAMILIES[family]
    scalar, mixed = _stream("mix"), _stream("mix")
    expected = [dist.sample(scalar) for _ in range(12000)]
    got = []
    for i, n in enumerate([1, 5, 4090, 3, 2, 4096, 1, 3000, 7, 795]):
        got += (dist.sample_n(mixed, n).tolist() if i % 2
                else [dist.sample(mixed) for _ in range(n)])
    assert _bits(got) == _bits(expected)


def test_two_specs_share_one_stream():
    # pvt_fetch_local and pvt_fetch_remote both draw from peer{i}.fetch; two
    # specs with one key (same family and parameters) share its buffer
    local, remote = D.exponential(0.02), D.exponential(0.02, scale=3.0)
    other = D.normal(0.01, 0.02)
    reads = [(local, 3), (remote, 4100), (other, 50), (local, 1), (other, 4090), (remote, 9)]
    scalar, chunked = _stream("peer1.fetch"), _stream("peer1.fetch")
    expected = [dist.sample(scalar) for dist, n in reads for _ in range(n)]
    got = [v for dist, n in reads for v in dist.sample_n(chunked, n).tolist()]
    assert _bits(got) == _bits(expected)


def test_per_tx_affine_term():
    dist = D.constant(0.1, per_tx=0.001)
    assert math.isclose(dist.sample(_stream(), block_size=500), 0.6)


# -- streams -------------------------------------------------------------------

def test_identical_seed_and_label_identical_sequence():
    a = RngStream(99, "peer3.vscc")
    b = RngStream(99, "peer3.vscc")
    assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]


def test_different_labels_differ():
    a = RngStream(99, "x")
    b = RngStream(99, "y")
    assert [a.uniform() for _ in range(10)] != [b.uniform() for _ in range(10)]


def test_stream_independence_extra_draws_do_not_perturb():
    sim1 = Simulation(tiny_config(seed=5))
    sim2 = Simulation(tiny_config(seed=5))
    # consume extra samples from stream X in sim2 only
    x = sim2.stream("X")
    x.exponential(1.0)
    for _ in range(50):
        x.uniform()
    y1, y2 = sim1.stream("Y"), sim2.stream("Y")
    seq1 = [y1.uniform() for _ in range(50)]
    seq2 = [y2.uniform() for _ in range(50)]
    assert seq1 == seq2


def test_cancelled_event_not_pending_and_not_counted():
    k = SimKernel()
    seen = []
    keep = k.schedule(1.0, EventKind.GENERIC, lambda: seen.append("keep"))
    drop = k.schedule(2.0, EventKind.GENERIC, lambda: seen.append("drop"))
    assert k.pending() == 2
    k.cancel(drop)
    assert k.pending() == 1
    k.run_until(5.0)
    assert seen == ["keep"]
    assert k.dispatched == 1
    assert k.pending() == 0
    k.cancel(keep)  # already fired: a no-op
    k.run_until(6.0)
    assert seen == ["keep"] and k.dispatched == 1


def test_cancel_after_fire_leaves_later_events_alone():
    k = SimKernel()
    seen = []
    first = k.schedule(1.0, EventKind.GENERIC, lambda: seen.append(1))
    k.schedule(3.0, EventKind.GENERIC, lambda: seen.append(3))
    k.run_until(2.0)
    k.cancel(first)
    assert k.pending() == 1
    k.run_until(4.0)
    assert seen == [1, 3]
    assert k.dispatched == 2
