"""Outside-in span tracing for the eovsim benchmark.

Spans are recorded by wrapping the simulator's entry points from outside the
package, so nothing under ``src/`` changes. Each span name keeps a call
count, its total host seconds and its self host seconds (total minus the
part covered by child spans). Spans are aggregated per name in memory while
the run goes and written out when it ends: a full-size traced pass makes
millions of spans, far too many to keep one record each.

Two patch sets exist. The coarse set (config building, ``Simulation``
construction, ``Simulation.run``) costs a handful of clock reads per
simulation run and is always on, because the end-to-end metrics are read from
it. The fine set adds a span per layer boundary and per dispatched event and
is installed only for traced passes.
"""

from __future__ import annotations

import time
from collections import Counter

ROOT_SPAN = "bench.pass"


class Tracer:
    """Span aggregates and event counts for one pass, plus its patches."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        # One child-time accumulator per open span; the bottom one belongs to
        # no span and absorbs the time of top-level spans.
        self._stack: list[list[float]] = [[0.0]]
        self._patches: list[tuple[object, str, object]] = []

    def calls(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else 0

    def self_s(self, *names: str) -> float:
        return sum((self.spans[n][2] for n in names if n in self.spans), 0.0)

    def total_s(self, name: str) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def wrap(self, name: str, fn):
        """Return fn wrapped in a span called name."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace owner.attr by make(original) until restore()."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def table(self) -> str:
        """The span aggregate as text, largest self time first."""
        lines = [f"{'span':32} {'calls':>10} {'total_s':>10} {'self_s':>10}"]
        for name, (calls, total, own) in sorted(self.spans.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"{name:32} {calls:>10} {total:>10.4f} {own:>10.4f}")
        for name, n in sorted(self.counts.items()):
            lines.append(f"{name:32} {n:>10}")
        return "\n".join(lines)


def install(tracer: Tracer, fine: bool) -> None:
    """Install the coarse patch set, plus the fine one when fine is true.

    Functions that simulate.py and endorsement.py import by name are patched
    where they are looked up, not where they are defined.
    """
    from eovsim import coordination, endorsement, kernel, ordering, simulate, sweep

    def run(original):
        traced = tracer.wrap("simulate.run", original)

        def run(sim):
            result = traced(sim)
            tracer.counts["kernel.events"] += sim.kernel.dispatched
            return result

        return run

    def span(name):
        return lambda original: tracer.wrap(name, original)

    tracer.patch(simulate.Simulation, "__init__", span("simulate.construct"))
    tracer.patch(simulate.Simulation, "run", run)
    tracer.patch(sweep, "expand_grid", span("config.build"))
    if not fine:
        return

    event_names = {k: "event." + k.value for k in kernel.EventKind}

    def schedule(original):
        counts = tracer.counts
        wrap = tracer.wrap

        def schedule(k, fire_at, kind, callback):
            counts["kernel.schedule_calls"] += 1
            return original(k, fire_at, kind, wrap(event_names[kind], callback))

        return schedule

    def quorum(original):
        traced = tracer.wrap("endorsement.quorum", original)
        counts = tracer.counts

        def quorum_satisfied(strategy, delays, designated=0):
            ok, wait = traced(strategy, delays, designated)
            if ok:
                counts["endorsement.quorum_ok"] += 1
            return ok, wait

        return quorum_satisfied

    tracer.patch(kernel.SimKernel, "schedule", schedule)
    tracer.patch(kernel.SimKernel, "run_until", span("kernel.run_until"))
    tracer.patch(kernel.DistributionSpec, "sample", span("kernel.sample"))
    tracer.patch(endorsement.EndorsementSystem, "route_transaction", span("endorsement.route"))
    tracer.patch(endorsement.EndorsementSystem, "disseminate", span("endorsement.disseminate"))
    tracer.patch(endorsement, "quorum_satisfied", quorum)
    tracer.patch(endorsement, "eligible_endorsers", span("endorsement.eligible"))
    tracer.patch(simulate, "eligible_endorsers", span("endorsement.eligible"))
    tracer.patch(simulate, "assign_validity", span("commit.assign_validity"))
    tracer.patch(ordering.Orderer, "cut_block", span("ordering.cut_block"))
    tracer.patch(coordination.WaitingController, "on_commit_event", span("coordination.on_commit"))
    tracer.patch(sweep, "run_scenario", span("sweep.run_scenario"))
    tracer.patch(sweep, "run_sweep", span("sweep.run_sweep"))
