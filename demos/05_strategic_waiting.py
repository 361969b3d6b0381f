"""Strategic waiting: pause the leader, boost the lagger.

Two peers with exponential commit times (means 1.3 s and 2.3 s) share a
soft height-window eligibility rule (tau = 5). Left alone, the fast peer
pulls ahead, the slow peer loses endorsement eligibility, and the system
collapses into a single-leader regime with smaller blocks and lower
throughput. With waiting enabled, a leader more than tau blocks ahead pauses
its commits while the lagger's mean drops to 1.8 s until the gap closes back
to tau. The pause lands on the commit that opens the gap to tau + 1, so the
gap never grows past that.
"""

import statistics
from dataclasses import replace

from eovsim import run_scenario
from eovsim.presets import preset

SEEDS = range(1, 51)
base = preset("waiting-2peer")
pool = base.workload.pool_size

rows = {"vanilla": [], "waiting": []}
for seed in SEEDS:
    cfg = base.with_seed(seed)
    for name, c in (("waiting", cfg),
                    ("vanilla", replace(cfg, waiting=replace(cfg.waiting, enabled=False)))):
        res = run_scenario(c, collect_traces=False)
        rows[name].append((pool / res.last_commit_at, res.eligible_multi_fraction))

print(f"{len(list(SEEDS))} paired seeded runs of the {pool}-transaction pool:\n")
print(f"{'':10} {'throughput (TPS)':>18} {'both peers eligible':>22}")
for name in ("vanilla", "waiting"):
    tps = [r[0] for r in rows[name]]
    elig = [r[1] for r in rows[name]]
    print(f"{name:10} {statistics.mean(tps):9.2f} +- {statistics.stdev(tps):4.2f} "
          f"{100 * statistics.mean(elig):15.1f}% of run")

wins = sum(w[0] > v[0] for v, w in zip(rows["vanilla"], rows["waiting"]))
print(f"\nwaiting beats vanilla in {wins}/{len(rows['vanilla'])} pairs; pausing "
      "the leader costs it commit\nprogress but keeps two endorsers active, "
      "which feeds the orderer faster overall.")
