import csv
import gc
import io
import json
import math
import re
import sys
import weakref
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from eovsim import DisseminationStrategy, LeaderPolicy, PeerGroupConfig, WaitingPolicy
from eovsim import DistributionSpec as D
from eovsim import LatencySummary, bench_commit, emit_report, run_scenario, success_ratio
from eovsim.config import ConfigError
from eovsim.kernel import SimulationIntegrityError
from eovsim.metrics import _f6, _json, fmt, render_report, render_summary_csv, summary_row
from eovsim.presets import TABLE_PHASE_CONSTANTS
from eovsim.simulate import Simulation
from eovsim.workload import TxStatus

from conftest import replay_phase2_completion, tiny_config


def test_success_ratio_reproduces_published_cell():
    # Max-Ht at p=0.2: (endorsed - invalid) / created
    assert round(100 * success_ratio(375_000, 250_957, 6_784), 2) == 65.11


def test_success_ratio_no_drops_no_invalid_is_100():
    assert success_ratio(375_000, 375_000, 0) == 1.0


def test_success_ratio_all_dropped_is_zero():
    assert success_ratio(1000, 0, 0) == 0.0


def test_success_ratio_created_zero_rejected():
    with pytest.raises(ValueError):
        success_ratio(0, 0, 0)


def _bench_time_ratio(p1, p2):
    return bench_commit(D.constant(p1), D.constant(p2), 100, "serial", 12)["time_ratio"]


def test_time_ratio_published_row():
    # the published 2.769 was computed from unrounded means; the rounded
    # 1-1 constants give 2.7698
    c = TABLE_PHASE_CONSTANTS["1-1"]
    ratio = _bench_time_ratio(c["vscc"] + c["fetch"], c["p2"])
    assert math.isclose(ratio, 2.769, abs_tol=1e-3)


def test_time_ratio_balanced_and_rounding():
    assert _bench_time_ratio(2.0, 2.0) == 1.0
    # 1.54/1.51 rounds to 1.02; the published 1.01 is their rounding artifact
    assert round(_bench_time_ratio(1.54, 1.51), 2) == 1.02


def test_e2e_latency_simple():
    # the e2e stage is client submission to first-peer commit
    res = run_scenario(tiny_config(), collect_traces=True)
    first_commit = {b.block_num: b.first_commit_at for b, _ in res.block_trace}
    first_commit[-1] = -1.0  # not ordered
    samples = [first_commit[num] - at for num, at in zip(res.txs.block_num, res.txs.created_at)
               if first_commit[num] >= 0]
    e2e = res.summaries["e2e"]
    c = res.counters
    assert e2e.count == len(samples) == c.committed_valid + c.committed_invalid_mvcc
    assert math.isclose(e2e.mean, sum(samples) / len(samples))


def test_nearest_rank_percentiles():
    s = LatencySummary.from_samples("t", [1.0, 2.0, 3.0, 4.0])
    assert s.p50 == 2.0  # nearest-rank, documented behavior
    assert s.p95 == 4.0 and s.p99 == 4.0
    assert s.p50 <= s.p95 <= s.p99


def test_summary_empty_samples_is_none():
    assert LatencySummary.from_samples("t", []) is None


def test_fmt_six_significant_digits():
    assert fmt(1.2345678) == "1.23457"
    assert fmt(0.000123456789) == "0.000123457"
    assert fmt(42) == "42"
    assert fmt(True) == "true"


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.floats())
@example(-1.0)
@example(0.0)
@example(-0.0)
@example(1e-05)
@example(1e+16)
@example(123456.0)
@example(1234567.0)
@example(-250.0)
@example(3.0e9)
@example(5e-324)
@example(sys.float_info.min / 3)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
def test_float_cell_is_json_of_six_digit_rounding(x):
    # non-finite values take json's spelling (NaN, Infinity), not repr's
    assert _f6(x) == json.dumps(float(f"{x:.6g}"))


def test_string_and_null_cells_are_json():
    statuses = sorted({status for status, _ in TxStatus.TEXT})
    assert len(statuses) == 5
    for value in statuses + ["capacity", "quorum", "horizon", None,
                             'a "quoted"\\ \u00e9\n', 2, (0, 3), ()]:
        assert _json(value) == json.dumps(value, separators=(",", ":"))


TX_KEYS = ["block_num", "block_pos", "client", "committed_at", "created_at",
           "disseminated_to", "drop_reason", "endorse_end", "endorse_start", "endorser",
           "ordered_at", "parent", "quorum_wait", "retries_used", "status", "tx_id"]


def _eventful_config():
    """Capacity drops, quorum drops after retries, no-parent and no-endorser
    rows, invalidations and wait events, in 200 transactions."""
    base = tiny_config()
    return replace(
        base,
        workload=replace(base.workload, rate_per_client=100.0, dependency_prob=0.3),
        peers=PeerGroupConfig(count=3, commit_scales=(1.0, 1.4, 1.8),
                              gateway_buffer=5, endorse_concurrency=2),
        dissemination=DisseminationStrategy(2, 2, False, ack_timeout=0.05, max_retries=2),
        leader=LeaderPolicy("max_ht", tau=1),
        endorse_model=replace(base.endorse_model, ack=D.exponential(0.025)),
        commit_model=replace(base.commit_model, vscc=D.constant(0.12)),
        waiting=WaitingPolicy(enabled=True, tau=1, ceiling=4, boosted_mean=0.6,
                              baseline_means=(1.0, 1.4, 1.8)),
    )


def test_trace_lines_are_canonical_json():
    res = run_scenario(_eventful_config(), collect_traces=True)
    c = res.counters
    txs = res.txs
    assert c.dropped_capacity and c.dropped_quorum and c.committed_invalid_mvcc
    assert any(txs.retries_used) and res.wait_events
    assert -1 in txs.parents[res.config.workload.dependency_prob] and -1 in txs.endorser
    files = render_report(res)
    assert {"transactions.jsonl", "blocks.jsonl", "wait_events.jsonl"} <= set(files)
    # eleven peers: a block row's peers are keyed as strings, so "10" sorts before "2"
    base = tiny_config()
    wide = render_report(run_scenario(replace(base, peers=replace(base.peers, count=11)),
                                      collect_traces=True))
    assert '"10":' in wide["blocks.jsonl"]
    for report in (files, wide):
        for name in ("transactions.jsonl", "blocks.jsonl", "wait_events.jsonl"):
            if name not in report:
                continue
            lines = report[name].splitlines()
            assert lines, name
            for line in lines:
                row = json.loads(line)
                assert json.dumps(row, sort_keys=True, separators=(",", ":")) == line
                if name == "transactions.jsonl":
                    assert list(row) == TX_KEYS
    assert files["transactions.jsonl"].count("\n") == len(txs.status)


def test_emit_report_writes_render_report_bytes(tmp_path):
    res = run_scenario(_eventful_config(), collect_traces=True)
    files = render_report(res)
    paths = emit_report(res, tmp_path)
    assert [p.name for p in paths] == list(files)
    for path in paths:
        assert path.read_bytes() == files[path.name].encode("utf-8"), path.name


def test_reports_byte_identical_across_runs(tmp_path):
    cfg = tiny_config()
    for sub in ("a", "b"):
        res = run_scenario(cfg, collect_traces=True)
        emit_report(res, tmp_path / sub)
    names = ["summary.csv", "manifest.json", "transactions.jsonl", "blocks.jsonl"]
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name
    assert len((tmp_path / "a" / "summary.csv").read_text().splitlines()) == 2


def test_empty_run_zero_counts_no_trace_rows(tmp_path):
    cfg = tiny_config()
    cfg = replace(cfg, workload=replace(cfg.workload, rate_per_client=1.0, duration=0.5))
    # one tx per client would arrive at t=1.0 > duration: zero created
    res = run_scenario(cfg, collect_traces=True)
    assert res.counters.created == 0
    paths = emit_report(res, tmp_path)
    tx_rows = (tmp_path / "transactions.jsonl").read_text()
    assert tx_rows == "" == render_report(res)["transactions.jsonl"]
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(summary) == 2


def test_unwritable_destination_reports_path(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    res = run_scenario(tiny_config(), collect_traces=False)
    with pytest.raises(OSError) as err:
        emit_report(res, blocker / "sub")
    assert "blocked" in str(err.value)


def test_sweep_summary_rows_keyed_by_config_hash():
    from eovsim import run_sweep
    cfg = tiny_config()
    rows, _ = run_sweep(cfg, {"cut_rule.block_size": [5, 10, 15, 20, 25]}, seeds=[1])
    assert len(rows) == 5
    assert len({r["config_hash"] for r in rows}) == 5
    text = render_summary_csv(rows)
    assert text.count("\n") == 6  # header + 5 rows


def test_sweep_failed_row_has_error_and_empty_cells(monkeypatch):
    import eovsim.sweep as sweep_mod
    from eovsim import config_hash, run_sweep
    run = sweep_mod.run_scenario

    def fail_seed_2(cfg, **kw):
        if cfg.seed == 2:
            raise SimulationIntegrityError("boom")
        return run(cfg, **kw)

    monkeypatch.setattr(sweep_mod, "run_scenario", fail_seed_2)
    cfg = tiny_config()
    rows, results = run_sweep(cfg, {}, seeds=[1, 2, 3])
    assert results[1] is None
    assert rows[1] == {"config_hash": config_hash(cfg.with_seed(2)), "seed": 2,
                       "status": "failed", "error": "SimulationIntegrityError: boom"}
    header, *lines = [line.split(",") for line in render_summary_csv(rows).splitlines()]
    assert len(lines) == 3
    failed = dict(zip(header, lines[1], strict=True))
    assert {col for col, cell in failed.items() if cell} == {
        "config_hash", "seed", "status", "error"}
    assert failed["status"] == "failed"
    assert failed["error"] == "SimulationIntegrityError: boom"
    # the neighbours are exactly the rows of their own unpatched runs
    for i, seed in ((0, 1), (2, 3)):
        assert results[i].config.seed == seed
        alone = run(cfg.with_seed(seed), collect_traces=False)
        assert rows[i] == summary_row(alone)
        assert rows[i]["error"] == ""
        assert lines[i] == render_summary_csv([rows[i]]).splitlines()[1].split(",")


def test_sweep_error_with_comma_reads_back_as_one_cell(monkeypatch):
    from eovsim import run_sweep
    replay_phase2_completion(monkeypatch)
    rows, results = run_sweep(tiny_config(), {}, seeds=[1])
    error = rows[0]["error"]
    assert results == [None]
    assert re.search(r"out-of-order phase 2 completion \(block index 3, now [0-9.]+\)$", error)
    rows.append({"status": "failed", "error": 'a "quoted",\nmulti-line\r\nerror'})
    header, *lines = csv.reader(io.StringIO(render_summary_csv(rows), newline=""))
    assert len(lines) == 2
    for line, row in zip(lines, rows):
        assert len(line) == len(header)
        assert dict(zip(header, line))["error"] == row["error"]


def test_dropped_simulation_is_freed_and_its_result_still_renders():
    # the subsystems reach the run through a weak proxy, so reference
    # counting frees the run as soon as its Simulation is dropped
    sim = Simulation(tiny_config(), collect_traces=True)
    res = sim.run()
    ref = weakref.ref(sim)
    peer = sim.peers[0]
    del sim
    assert ref() is None
    with pytest.raises(ReferenceError):
        peer.sim.kernel
    assert len(res.txs.status) and res.block_trace
    assert render_report(res) == render_report(run_scenario(tiny_config()))


def test_sweep_with_failed_row_leaves_no_cyclic_garbage(monkeypatch):
    # one run reaches height 2 and fails, the other cuts a single block
    from eovsim import run_sweep
    replay_phase2_completion(monkeypatch)
    gc.collect()
    gc.disable()
    try:
        rows, results = run_sweep(tiny_config(), {"workload.duration": [0.2, 1.0]}, seeds=[1])
        assert [r["status"] for r in rows] == ["drained", "failed"]
        assert results[1] is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_render_report_leaves_no_cyclic_garbage():
    # every report file is rendered from a template; json.dumps with indent
    # would leave its encoder's closures behind as a reference cycle
    res = run_scenario(tiny_config(), collect_traces=True)
    gc.collect()
    gc.disable()
    try:
        files = render_report(res)
        assert gc.collect() == 0
    finally:
        gc.enable()
    manifest = {"config_hash": res.config_hash, "seed": res.config.seed,
                "tool": "eovsim", "version": res.version}
    assert files["manifest.json"] == json.dumps(manifest, sort_keys=True, indent=2) + "\n"


def test_sweep_seed_grid_key_is_config_error():
    # each of `seeds` would overwrite a grid seed, giving identical rows
    from eovsim import run_sweep
    with pytest.raises(ConfigError, match=r"seed: not a grid key.*--seeds"):
        run_sweep(tiny_config(), {"seed": [1, 2]}, [5])
