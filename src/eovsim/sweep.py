"""Parameter sweeps: Cartesian grid x seeds over a base scenario.

Each run is independent (its own kernel); a failing run is recorded in its
summary row under `error` and the sweep continues. Row order follows the
sorted grid keys, then value order, then seed order, so output is stable.
"""

from __future__ import annotations

import itertools

from .config import ConfigError, ScenarioConfig, config_hash, set_by_path
from .kernel import SimulationError
from .metrics import summary_row
from .simulate import run_scenario

__all__ = ["expand_grid", "run_sweep"]


def expand_grid(base: ScenarioConfig, grid: dict, seeds) -> list[ScenarioConfig]:
    """All grid-point configs, in deterministic order.

    Raises ConfigError when a seeded config is invalid (a negative seed), or
    for a `seed` grid key, which each of `seeds` would overwrite.
    """
    if "seed" in grid:
        raise ConfigError(["seed: not a grid key; give the seeds as `seeds` (--seeds)"])
    keys = sorted(grid)
    combos = itertools.product(*(grid[k] for k in keys)) if keys else [()]
    configs = []
    for combo in combos:
        cfg = base
        for key, value in zip(keys, combo):
            cfg = set_by_path(cfg, key, value)
        configs += [cfg.with_seed(int(seed)) for seed in seeds]
    return configs


def run_sweep(base: ScenarioConfig, grid: dict, seeds):
    """Run the grid without traces; returns (rows, results). Failures leave
    results[i] None."""
    rows = []
    results = []
    for cfg in expand_grid(base, grid, seeds):
        try:
            result = run_scenario(cfg, collect_traces=False)
            rows.append(summary_row(result))
            results.append(result)
        except (SimulationError, ConfigError) as exc:
            rows.append({"config_hash": config_hash(cfg), "seed": cfg.seed,
                         "status": "failed", "error": f"{type(exc).__name__}: {exc}"})
            results.append(None)
    return rows, results
