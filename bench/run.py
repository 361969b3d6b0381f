#!/usr/bin/env python3
"""eovsim benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the simulator from ``src/``.
One invocation measures one workload in its own process, so the reported
peak RSS is that workload's. It starts no threads and no subprocesses.

A run first makes a canary pass (the workload's tiny size at the default
seed, whose report hash is pinned), then makes passes of the full workload
at --seed until --seconds have elapsed. With --trace 0 it prints the
end-to-end metrics, each the median over the passes. With --trace 1 it
alternates untraced and traced passes and prints the per-layer metrics of
the traced pass with the median wall time. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Host time is wall-clock time of this process; simulated time only appears in
per-layer metrics whose names end in ``_sim_s``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
# Extra set-ups before each untraced pass, so that setup_s is a median of
# many samples spread over the run rather than of one burst.
SETUP_REPS = 4
MIN_ATTRIBUTED = 0.95

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_tx_per_s": "tx/s",
    "events_per_s": "events/s",
    "peak_rss_mb": "MB",
}

# Per-layer host self times: metric -> the spans whose self time it sums.
# Every span the tracer records appears here exactly once, so these metrics
# plus the harness's own time between spans add up to the traced wall time.
SELF_TIMES = {
    "config.build_s": ("config.build",),
    "simulate.construct_s": ("simulate.construct",),
    "simulate.finalize_s": ("simulate.run",),
    "kernel.loop_self_s": ("kernel.run_until",),
    "kernel.sample_s": ("kernel.sample",),
    "workload.arrival_self_s": ("event.arrival", "event.pull"),
    "endorsement.route_s": ("endorsement.route",),
    "endorsement.eligible_s": ("endorsement.eligible",),
    "endorsement.disseminate_s": ("endorsement.disseminate",),
    "endorsement.quorum_s": ("endorsement.quorum",),
    "endorsement.complete_s": ("event.endorsement-done",),
    "ordering.cut_block_s": ("ordering.cut_block", "event.block-cut", "event.generic"),
    "commit.phase_s": ("event.phase1-done", "event.phase2-done"),
    "commit.assign_validity_s": ("commit.assign_validity",),
    "coordination.on_commit_s": ("coordination.on_commit",),
    "metrics.render_report_s": ("metrics.render",),
    "sweep.overhead_s": ("sweep.run_sweep", "sweep.run_scenario"),
}

LAYER_UNITS = {
    **{name: "s" for name in SELF_TIMES},
    "endorsement.route_calls": "count",
    "endorsement.eligible_calls": "count",
    "endorsement.dissem_rounds": "count",
    "endorsement.quorum_ok_ratio": "ratio",
    "endorsement.admit_ratio": "ratio",
    "endorsement.dropped_capacity": "count",
    "endorsement.dropped_quorum": "count",
    "endorsement.quorum_wait_mean_sim_s": "sim_s",
    "kernel.events": "count",
    "kernel.schedule_calls": "count",
    "kernel.sample_calls": "count",
    "workload.arrivals": "count",
    "commit.phase_events": "count",
    "commit.assign_validity_calls": "count",
    "commit.phase1_mean_sim_s": "sim_s",
    "commit.phase2_mean_sim_s": "sim_s",
    "commit.invalid_total": "count",
    "ordering.blocks": "count",
    "ordering.txs_per_block": "tx",
    "ordering.block_creation_mean_sim_s": "sim_s",
    "coordination.on_commit_calls": "count",
    "coordination.wait_events": "count",
    "metrics.report_bytes": "B",
    "sweep.runs": "count",
    "tracing.traced_wall_s": "s",
    "tracing.overhead_s": "s",
    "tracing.attributed_ratio": "ratio",
}


def _import_program():
    src = ROOT / "src"
    if not (src / "eovsim" / "__init__.py").is_file():
        sys.exit(f"bench: no simulator sources at {src / 'eovsim'}; "
                 "run from a full checkout of the repository")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer
    import workloads
    return tracer, workloads


class Pass:
    """One workload pass. Keeps only its measurements, so that passes already
    made hold no simulator state and peak RSS does not grow with their number."""

    def __init__(self, workload, seed, size, fine, tracer_mod):
        self.tracer = tr = tracer_mod.Tracer()
        tracer_mod.install(tr, fine)
        gc.collect()
        def whole_pass():
            plan = tr.wrap("config.build", workload.build)(seed, size)
            return (plan, *workload.execute(plan, tr.wrap))

        try:
            t0 = time.perf_counter()
            plan, results, files = tr.wrap(tracer_mod.ROOT_SPAN, whole_pass)()
            self.wall_s = time.perf_counter() - t0
        finally:
            tr.restore()
        self.setup_s = tr.total_s("config.build") + tr.total_s("simulate.construct")
        self.run_s = tr.total_s("simulate.run")
        self.runs = len(results)
        self.failed = sum(1 for r in results if not _run_ok(r, workload, plan))
        ok = [r for r in results if r is not None]
        self.created = sum(r.counters.created for r in ok)
        digest = hashlib.sha256()
        report_bytes = 0
        for name in sorted(files):
            data = files[name].encode("utf-8")
            report_bytes += len(data)
            digest.update(name.encode("utf-8") + b"\0" + data + b"\0")
        self.digest = digest.hexdigest()
        self.layers = layer_metrics(tr, ok, report_bytes, self.wall_s) if fine else None


def setup_once(workload, seed, size, tracer_mod) -> float:
    """Build the workload's configs and construct its Simulations; host seconds."""
    tr = tracer_mod.Tracer()
    tracer_mod.install(tr, fine=False)
    try:
        workload.construct(tr.wrap("config.build", workload.build)(seed, size))
    finally:
        tr.restore()
    return tr.total_s("config.build") + tr.total_s("simulate.construct")


def _run_ok(result, workload, plan) -> bool:
    if result is None or result.status != "drained":
        return False
    try:
        result.counters.check()
    except AssertionError:
        return False
    return result.counters.created == workload.expected_created(plan)


def _mean_sim(results, stage: str) -> float:
    total = count = 0.0
    for r in results:
        s = r.summaries.get(stage)
        if s is not None:
            total += s.mean * s.count
            count += s.count
    return total / count if count else 0.0


def layer_metrics(tr, results, report_bytes: int, wall_s: float) -> dict:
    counters = [r.counters for r in results]
    created = sum(c.created for c in counters)
    committed = sum(c.committed_valid + c.committed_invalid_mvcc for c in counters)
    blocks = sum(r.n_blocks for r in results)
    rounds = tr.calls("endorsement.quorum")
    dropped_capacity = sum(c.dropped_capacity for c in counters)
    m = {name: tr.self_s(*spans) for name, spans in SELF_TIMES.items()}
    m.update({
        "endorsement.route_calls": tr.calls("endorsement.route"),
        "endorsement.eligible_calls": tr.calls("endorsement.eligible"),
        "endorsement.dissem_rounds": rounds,
        "endorsement.quorum_ok_ratio": tr.counts["endorsement.quorum_ok"] / rounds if rounds else 0.0,
        "endorsement.admit_ratio": 1.0 - dropped_capacity / created if created else 0.0,
        "endorsement.dropped_capacity": dropped_capacity,
        "endorsement.dropped_quorum": sum(c.dropped_quorum for c in counters),
        "endorsement.quorum_wait_mean_sim_s": _mean_sim(results, "quorum_wait"),
        "kernel.events": tr.counts["kernel.events"],
        "kernel.schedule_calls": tr.counts["kernel.schedule_calls"],
        "kernel.sample_calls": tr.calls("kernel.sample"),
        "workload.arrivals": tr.calls("event.arrival"),
        "commit.phase_events": tr.calls("event.phase1-done") + tr.calls("event.phase2-done"),
        "commit.assign_validity_calls": tr.calls("commit.assign_validity"),
        "commit.phase1_mean_sim_s": _mean_sim(results, "phase1"),
        "commit.phase2_mean_sim_s": _mean_sim(results, "phase2"),
        "commit.invalid_total": sum(sum(r.invalid_by_prob.values()) for r in results),
        "ordering.blocks": blocks,
        "ordering.txs_per_block": committed / blocks if blocks else 0.0,
        "ordering.block_creation_mean_sim_s": _mean_sim(results, "block_creation"),
        "coordination.on_commit_calls": tr.calls("coordination.on_commit"),
        "coordination.wait_events": sum(len(r.wait_events) for r in results),
        "metrics.report_bytes": report_bytes,
        "sweep.runs": tr.calls("sweep.run_scenario"),
        "tracing.traced_wall_s": wall_s,
    })
    return m


def _counts_of(m: dict) -> dict:
    return {k: v for k, v in m.items() if LAYER_UNITS[k] in ("count", "B")}


class Run:
    """Failure bookkeeping across the passes of one invocation."""

    def __init__(self, workload, tracer_mod):
        self.workload = workload
        self.tracer_mod = tracer_mod
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def make_pass(self, seed, size, fine, expected_digest=None) -> Pass | None:
        """A pass, or None if it raised; its runs count as failed when they
        are not drained and balanced, or when the report digest differs from
        expected_digest."""
        n = self.workload.n_runs(size)
        self.attempted += n
        try:
            p = Pass(self.workload, seed, size, fine, self.tracer_mod)
        except Exception:
            traceback.print_exc()
            self.failed += n
            self.problems.append("a pass raised")
            return None
        self.failed += p.failed
        if p.failed:
            self.problems.append(f"{p.failed} run(s) not drained, unbalanced or short")
        elif expected_digest is not None and p.digest != expected_digest:
            self.failed += p.runs
            self.problems.append(f"{'traced' if fine else 'untraced'} pass at seed {seed}: "
                                 f"report sha256 {p.digest} != {expected_digest}")
        return p


def e2e_metrics(untraced: list, setups: list) -> dict:
    return {
        "setup_s": statistics.median(setups + [p.setup_s for p in untraced]),
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "sim_tx_per_s": statistics.median(p.created / p.run_s for p in untraced),
        "events_per_s": statistics.median(p.tracer.counts["kernel.events"] / p.run_s
                                          for p in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_metrics(run: Run, traced: list, untraced: list, must_fire) -> dict:
    """Per-layer metrics of the traced pass with the median wall time."""
    chosen = sorted(traced, key=lambda p: p.wall_s)[(len(traced) - 1) // 2]
    m = dict(chosen.layers)
    m["tracing.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                               - statistics.median(p.wall_s for p in untraced))
    tr = chosen.tracer
    m["tracing.attributed_ratio"] = (sum(tr.self_s(*spans) for spans in SELF_TIMES.values())
                                     / tr.total_s(run.tracer_mod.ROOT_SPAN))
    mapped = {s for spans in SELF_TIMES.values() for s in spans}
    unmapped = set(tr.spans) - mapped - {run.tracer_mod.ROOT_SPAN}
    if unmapped:
        run.problems.append(f"spans with no metric: {sorted(unmapped)}")
    if m["tracing.attributed_ratio"] < MIN_ATTRIBUTED:
        run.problems.append("span self times cover too little of the traced wall time")
    dispatched = sum(n for name, (n, _, _) in tr.spans.items() if name.startswith("event."))
    if dispatched != m["kernel.events"]:
        run.problems.append(f"traced {dispatched} events, kernel dispatched {m['kernel.events']}")
    if any(_counts_of(p.layers) != _counts_of(m) for p in traced):
        run.problems.append("traced counts differ between passes")
    for name in must_fire:
        if not m[name]:
            run.problems.append(f"{name} is zero; its span never fired")
    print(tr.table(), file=sys.stderr)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny cuts every workload down for the schema test")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        sys.exit("bench: do not run under python -O; it strips the simulator's asserts")

    tracer_mod, workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"known: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    pinned = workloads.PINNED[workload.name]
    run = Run(workload, tracer_mod)

    # The canary is the tiny size at the default seed, whose digest is pinned,
    # so every invocation checks the program's output whatever its seed.
    run.make_pass(workloads.DEFAULT_SEED, "tiny", False, pinned["tiny"])

    start = time.perf_counter()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    setups: list[float] = []
    # Every pass of a run must render the same reports: the first pass at the
    # default seed is held to the pinned digest, later ones to the first.
    expected = pinned[args.size] if args.seed == workloads.DEFAULT_SEED else None

    # A round is one pass, or an untraced and a traced pass with --trace 1.
    # Rounds start while the next one is expected to end within --seconds.
    round_s = 0.0
    while run.failed == 0:
        enough = (untraced and traced) if args.trace else len(untraced) >= MIN_PASSES
        if enough and time.perf_counter() - start + round_s > args.seconds:
            break
        round_start = time.perf_counter()
        if not args.trace:
            setups += [setup_once(workload, args.seed, args.size, tracer_mod)
                       for _ in range(SETUP_REPS)]
        for fine in ((False, True) if args.trace else (False,)):
            p = run.make_pass(args.seed, args.size, fine, expected)
            if p is None:
                break
            expected = p.digest
            (traced if fine else untraced).append(p)
        round_s = time.perf_counter() - round_start

    metrics: dict = {}
    units: dict = {}
    if run.failed == 0 and args.trace:
        metrics = traced_metrics(run, traced, untraced, workloads.MUST_FIRE[workload.name])
        units = LAYER_UNITS
    elif run.failed == 0:
        metrics = e2e_metrics(untraced, setups)
        units = E2E_UNITS
    print(f"bench: {workload.name} seed={args.seed} size={args.size} "
          f"untraced passes={len(untraced)} traced passes={len(traced)}", file=sys.stderr)
    for label, passes in (("untraced", untraced), ("traced", traced)):
        if passes:
            print(f"bench: {label} wall_s per pass: "
                  + " ".join(f"{p.wall_s:.3f}" for p in passes), file=sys.stderr)
    for problem in run.problems:
        print(f"bench: FAILED: {problem}", file=sys.stderr)

    correct = not run.problems and run.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
