"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Expected values and tolerances are frozen here from the published results the
calibrations target; see each test for its tolerance.
"""

import statistics
from dataclasses import replace

import numpy as np
import pytest

from eovsim import DistributionSpec as D
from eovsim import bench_commit, run_scenario, success_ratio
from eovsim.presets import CORE_SCALE_GRID, TABLE_PHASE_CONSTANTS, preset


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- 1. pipelining oracle ------------------------------------------------------

SERIAL_TPS = {"1-1": 668.9, "4-4": 893.4, "4-1": 978.9, "4-1*": 849.4}
PIPELINE_TPS = {"1-1": 908.2, "4-4": 1340.5, "4-1": 1447.3, "4-1*": 1251.1}
PERF_RATIO = {"1-1": 1.357, "4-4": 1.500, "4-1": 1.478, "4-1*": 1.472}


def test_criterion_1_pipelining_oracle():
    details = []
    ok = True
    for v, c in TABLE_PHASE_CONSTANTS.items():
        p1 = D.constant(c["vscc"] + c["fetch"])
        p2 = D.constant(c["p2"])
        serial = bench_commit(p1, p2, 4000, "serial", 300)["tps"]
        pipe = bench_commit(p1, p2, 4000, "pipelined", 300)["tps"]
        ratio = pipe / serial
        ok &= abs(serial / SERIAL_TPS[v] - 1) <= 0.02
        ok &= abs(pipe / PIPELINE_TPS[v] - 1) <= 0.02
        ok &= abs(ratio / PERF_RATIO[v] - 1) <= 0.03
        details.append(f"{v}: serial {serial:.1f}/{SERIAL_TPS[v]} "
                       f"pipe {pipe:.1f}/{PIPELINE_TPS[v]} ratio {ratio:.3f}/{PERF_RATIO[v]}")
    _report("criterion-1 pipelining-oracle (serial/pipelined TPS +-2%, ratio +-3%)",
            ok, "; ".join(details))


# -- 2. core-scaling peak ---------------------------------------------------------

def test_criterion_2_core_scaling_peak():
    expected_peak = {"4-4": 1.94, "4-1": 1.93}
    ok = True
    details = []
    for v in ("4-4", "4-1"):
        c = TABLE_PHASE_CONSTANTS[v]
        ratios = {}
        for scale in CORE_SCALE_GRID:
            p1 = D.constant(c["vscc"] * scale + c["fetch"])
            p2 = D.constant(c["p2"])
            serial = bench_commit(p1, p2, 4000, "serial", 200)["tps"]
            pipe = bench_commit(p1, p2, 4000, "pipelined", 200)["tps"]
            ratios[scale] = pipe / serial
        peak = max(ratios, key=ratios.get)
        ok &= peak == 0.375
        ok &= abs(ratios[0.375] / expected_peak[v] - 1) <= 0.10
        ok &= ratios[0.25] < ratios[peak]
        details.append(f"{v}: peak@{peak} ratio {ratios[0.375]:.3f} "
                       f"(target {expected_peak[v]} +-10%), 0.25 -> {ratios[0.25]:.3f}")
    _report("criterion-2 core-scaling-peak (argmax at 0.375, 0.25 below peak)",
            ok, "; ".join(details))


# -- 3. block size, low load -------------------------------------------------------

def test_criterion_3_block_size_low_load():
    cfg0 = preset("blocksize-low")
    sizes = (500, 1000, 1500, 2000)
    expected_creation = {500: 1.0, 1000: 2.0, 1500: 3.0, 2000: 4.0}
    creations, tpss, lats = {}, {}, {}
    for size in sizes:
        cfg = replace(cfg0, cut_rule=replace(cfg0.cut_rule, block_size=size))
        res = run_scenario(cfg, collect_traces=False)
        creations[size] = res.summaries["block_creation"].mean
        tpss[size] = res.throughput.e2e_tps
        lats[size] = res.summaries["e2e"].mean
    ok = all(abs(creations[s] / expected_creation[s] - 1) <= 0.05 for s in sizes)
    ok &= all(abs(tpss[s] / 500.0 - 1) <= 0.02 for s in sizes)
    ok &= all(lats[a] < lats[b] for a, b in zip(sizes, sizes[1:]))
    _report("criterion-3 blocksize-low (creation {1,2,3,4}s +-5%, TPS 500 +-2%, "
            "latency strictly increasing)", ok,
            f"creation {[round(creations[s], 3) for s in sizes]}, "
            f"tps {[round(tpss[s], 1) for s in sizes]}, "
            f"e2e {[round(lats[s], 2) for s in sizes]}")


# -- 4. block size, heavy load -------------------------------------------------------

def test_criterion_4_block_size_heavy_load():
    cfg0 = preset("blocksize-high")
    sizes = (500, 1000, 1500, 2000)
    expected_tps = {500: 656.9, 1000: 847.1, 1500: 937.5, 2000: 954.9}
    expected_lat = {500: 475.83, 1000: 349.89, 1500: 311.85, 2000: 305.00}
    tpss, lats = {}, {}
    for size in sizes:
        cfg = replace(cfg0, cut_rule=replace(cfg0.cut_rule, block_size=size))
        res = run_scenario(cfg, collect_traces=False)
        tpss[size] = res.throughput.e2e_tps
        lats[size] = res.summaries["e2e"].mean
    ok = all(lats[a] > lats[b] for a, b in zip(sizes, sizes[1:]))
    ok &= all(tpss[a] < tpss[b] for a, b in zip(sizes, sizes[1:]))
    ok &= all(abs(tpss[s] / expected_tps[s] - 1) <= 0.15 for s in sizes)
    ok &= all(abs(lats[s] / expected_lat[s] - 1) <= 0.15 for s in sizes)
    _report("criterion-4 blocksize-heavy (latency strictly dec, TPS strictly inc, "
            "values +-15%)", ok,
            f"tps {[round(tpss[s], 1) for s in sizes]} vs {list(expected_tps.values())}, "
            f"e2e {[round(lats[s], 1) for s in sizes]} vs {list(expected_lat.values())}")


# -- 5. leader selection ----------------------------------------------------------

LEADER_PROBS = (0.2, 0.4, 0.6, 0.8, 1.0)


@pytest.fixture(scope="module")
def leader_runs():
    """The leader-250x300 run of each policy, shared by criterion 5 and the
    simulator-cells pin."""
    cfg0 = preset("leader-250x300")
    return {kind: run_scenario(replace(cfg0, leader=replace(cfg0.leader, kind=kind)),
                               collect_traces=False, extra_dep_probs=LEADER_PROBS)
            for kind in ("max_ht", "soft_max_ht", "ranked_list", "all")}


def test_criterion_5_leader_selection(leader_runs):
    probs = LEADER_PROBS
    stats = leader_runs
    ok = all(r.counters.created == 375_000 for r in stats.values())
    drops = {k: r.counters.dropped for k, r in stats.items()}
    ok &= drops["ranked_list"] == 0 and drops["all"] == 0
    maxht_frac = drops["max_ht"] / 375_000
    ok &= abs(maxht_frac - 0.33) <= 0.05
    ok &= drops["max_ht"] > drops["soft_max_ht"] > 0
    invalid = {k: r.invalid_by_prob for k, r in stats.items()}
    for p in probs:
        chain = [invalid[k][p] for k in ("all", "ranked_list", "soft_max_ht", "max_ht")]
        ok &= chain == sorted(chain, reverse=True)
    ys = np.array([invalid["max_ht"][p] for p in probs], dtype=float)
    xs = np.array(probs)
    a = np.vstack([xs, np.ones_like(xs)]).T
    _, residual, *_ = np.linalg.lstsq(a, ys, rcond=None)
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 - (float(residual[0]) / ss_tot if len(residual) else 0.0)
    ok &= r2 >= 0.98
    _report("criterion-5 leader-selection (375k created, drop/invalid orderings, "
            "Max-Ht ~33% drops, linear invalids R2>=0.98)", ok,
            f"drops {drops} (max_ht {100 * maxht_frac:.1f}%), "
            f"invalid@p1.0 {[invalid[k][1.0] for k in ('all', 'ranked_list', 'soft_max_ht', 'max_ht')]}, "
            f"R2 {r2:.5f}")


# -- 6. success-ratio regression -----------------------------------------------------

# (policy, p) -> (endorsed, dropped, invalid, success %) with created = 375000
TABLE_COUNTS = {
    ("max_ht", 0.0): (250_957, 124_043, 0, 66.92),
    ("soft_max_ht", 0.0): (322_832, 52_168, 0, 86.09),
    ("all", 0.0): (375_000, 0, 0, 100.00),
    ("ranked_list", 0.0): (375_000, 0, 0, 100.00),
    ("max_ht", 0.2): (250_957, 124_043, 6_784, 65.11),
    ("soft_max_ht", 0.2): (322_832, 52_168, 18_518, 81.15),
    ("all", 0.2): (375_000, 0, 33_562, 91.05),
    ("ranked_list", 0.2): (375_000, 0, 26_887, 92.83),
    ("max_ht", 0.4): (250_957, 124_043, 13_808, 63.24),
    ("soft_max_ht", 0.4): (322_832, 52_168, 36_959, 76.23),
    ("all", 0.4): (375_000, 0, 67_174, 82.09),
    ("ranked_list", 0.4): (375_000, 0, 54_018, 85.60),
    ("max_ht", 0.6): (250_957, 124_043, 20_971, 61.33),
    ("soft_max_ht", 0.6): (322_832, 52_168, 55_445, 71.30),
    ("all", 0.6): (375_000, 0, 100_811, 73.12),
    ("ranked_list", 0.6): (375_000, 0, 80_920, 78.42),
    ("max_ht", 0.8): (250_957, 124_043, 27_909, 59.48),
    ("soft_max_ht", 0.8): (322_832, 52_168, 74_013, 66.35),
    ("all", 0.8): (375_000, 0, 134_979, 64.01),
    ("ranked_list", 0.8): (375_000, 0, 108_309, 71.12),
    ("max_ht", 1.0): (250_957, 124_043, 34_651, 57.68),
    ("soft_max_ht", 1.0): (322_832, 52_168, 92_982, 61.29),
    ("all", 1.0): (375_000, 0, 168_577, 55.05),
    ("ranked_list", 1.0): (375_000, 0, 135_585, 63.84),
}


def test_criterion_6_success_ratio_regression():
    worst = 0.0
    for (policy, p), (endorsed, dropped, invalid, expected) in TABLE_COUNTS.items():
        assert endorsed + dropped == 375_000, (policy, p)
        got = 100.0 * success_ratio(375_000, endorsed, invalid)
        worst = max(worst, abs(got - expected))
        assert abs(got - expected) < 0.005, (policy, p, got, expected)
    _report("criterion-6 success-ratio-regression (24 cells exact to 2 decimals)",
            True, f"worst |error| {worst:.4f} points over {len(TABLE_COUNTS)} cells")


# The simulator's own cells from the leader_runs fixture, pinned exactly:
# policy -> (endorsed, invalid at p = 0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
SIM_CELLS = {
    "max_ht": (250_520, (0, 7_178, 14_469, 21_693, 28_911, 36_085)),
    "soft_max_ht": (299_703, (0, 11_587, 22_740, 34_276, 45_421, 56_805)),
    "ranked_list": (375_000, (0, 15_687, 31_499, 47_193, 63_027, 78_407)),
    "all": (375_000, (0, 17_877, 35_665, 53_969, 72_236, 89_733)),
}


def test_leader_selection_simulator_cells(leader_runs):
    # a regression pin on the program's own output; the simulator does not
    # reproduce TABLE_COUNTS, and the detail shows by how much
    got, want, details = {}, {}, []
    for policy, (endorsed, invalids) in SIM_CELLS.items():
        res = leader_runs[policy]
        for p, invalid in zip((0.0,) + LEADER_PROBS, invalids):
            cell = got[policy, p] = (res.counters.endorsed, res.invalid_by_prob[p])
            want[policy, p] = (endorsed, invalid)
            paper_endorsed, _, paper_invalid, _ = TABLE_COUNTS[policy, p]
            details.append(f"{policy}@{p} endorsed {cell[0]} ({cell[0] - paper_endorsed:+} "
                           f"vs paper) invalid {cell[1]} ({cell[1] - paper_invalid:+})")
    _report("leader-selection simulator cells (24 cells pinned exactly; deviation "
            "from the paper's table shown)", got == want, "; ".join(details))


# -- 7. strategic waiting -------------------------------------------------------------

def test_criterion_7_strategic_waiting():
    cfg0 = preset("waiting-2peer")
    pool = cfg0.workload.pool_size
    vanilla_tps, waiting_tps = [], []
    wins = 0
    elig_dividend_every_pair = True
    for seed in range(1, 101):
        cfg = cfg0.with_seed(seed)
        rw = run_scenario(cfg, collect_traces=False)
        rv = run_scenario(replace(cfg, waiting=replace(cfg.waiting, enabled=False)),
                          collect_traces=False)
        tv = pool / rv.last_commit_at
        tw = pool / rw.last_commit_at
        vanilla_tps.append(tv)
        waiting_tps.append(tw)
        wins += tw > tv
        elig_dividend_every_pair &= (rw.eligible_multi_fraction
                                     > rv.eligible_multi_fraction)
    mv = statistics.mean(vanilla_tps)
    mw = statistics.mean(waiting_tps)
    ok = abs(mv - 12.2) <= 1.0 and abs(mw - 14.4) <= 1.0
    ok &= wins >= 90
    ok &= elig_dividend_every_pair
    _report("criterion-7 strategic-waiting (12.2/14.4 +-1.0 TPS, >=90% wins, "
            "eligibility dividend every pair)", ok,
            f"vanilla {mv:.2f} TPS, waiting {mw:.2f} TPS, wins {wins}/100, "
            f"dividend-every-pair {elig_dividend_every_pair}")


# -- 8. property suites ------------------------------------------------------------------

def test_criterion_8_property_suites_present_at_1000_cases():
    import test_properties as props
    suites = [name for name in dir(props) if name.startswith("test_")]
    expected = {
        "test_determinism_identical_seed_identical_reports",
        "test_conservation_identities",
        "test_pipeline_safety_phase2_ordered_disjoint",
        "test_mode_equivalence_under_height_independent_routing",
        "test_quorum_wait_pointwise_monotone_in_relaxation",
        "test_eligibility_soundness",
    }
    ok = expected.issubset(set(suites)) and props.CASES.max_examples >= 1000
    _report("criterion-8 property-suites (six suites, >=1000 generated cases each; "
            "executed in test_properties.py)", ok,
            f"{len(expected)} suites at max_examples={props.CASES.max_examples}")


# -- Table-3 calibration coverage: ordering property, not absolute latencies ------------

def test_dissemination_commit_ordering_and_disparity():
    stats = {}
    for v in ("1-1", "4-4", "4-1", "4-1*"):
        cfg = preset("pvtdata-250x600", variant=v)
        cfg = replace(cfg, workload=replace(cfg.workload, duration=240.0))
        res = run_scenario(cfg, collect_traces=False)
        per_peer = res.per_peer_commit_mean
        stats[v] = (res.summaries["commit_total"].mean,
                    max(per_peer) - min(per_peer))
    c11, disp11 = stats["1-1"]
    ok = all(c11 / stats[v][0] >= 1.40 for v in ("4-4", "4-1", "4-1*"))
    ok &= disp11 > stats["4-4"][1]
    _report("criterion-5.2-coverage ((1,1) commit mean >= 1.4x broadcasts; "
            "leader/straggler disparity (1,1) > (4,4))", ok,
            f"commit means {dict((v, round(s[0], 3)) for v, s in stats.items())}, "
            f"disparity 1-1 {disp11:.3f} vs 4-4 {stats['4-4'][1]:.3f}")
