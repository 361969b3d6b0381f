"""Command-line entry point.

    eovsim run <config.json | preset:NAME[:VARIANT]> [--out DIR] [--seed N] [--no-traces]
    eovsim preset <name> [--variant V] [--emit PATH]
    eovsim sweep <config.json | preset:NAME> --grid key=v1,v2,... [--seeds A..B] [--out DIR]

Exit codes: 0 clean, 2 config error, 3 simulation-integrity failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, ScenarioConfig, emit_config, load_config
from .kernel import SimulationIntegrityError
from .metrics import emit_report, fmt, render_summary_csv
from .presets import preset, preset_names
from .simulate import run_scenario
from .sweep import run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRITY = 3


def _load_target(target: str) -> ScenarioConfig:
    if target.startswith("preset:"):
        return preset(target[len("preset:"):])
    return load_config(target)


def _parse_seeds(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(s) for s in text.split(",") if s]
    except ValueError:
        raise ConfigError([f"--seeds {text!r}: expected A..B or a comma list of integers"]) from None
    if not seeds:
        raise ConfigError([f"--seeds {text!r}: selects no seeds (empty list or reversed range)"])
    if min(seeds) < 0:
        raise ConfigError([f"--seeds {text!r}: seeds must be >= 0"])
    return seeds


def _parse_grid(items) -> dict:
    grid = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError([f"--grid {item!r}: expected key=v1,v2,..."])
        key, values = item.split("=", 1)
        parsed = []
        for v in values.split(","):
            try:
                parsed.append(json.loads(v))
            except json.JSONDecodeError:
                parsed.append(v)
        grid[key] = parsed
    return grid


def _cmd_run(args) -> int:
    cfg = _load_target(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    # run options, not part of the scenario, so they leave config_hash alone
    result = run_scenario(cfg, collect_traces=cfg.emit_traces and not args.no_traces)
    written = emit_report(result, args.out or cfg.out_dir)
    c = result.counters
    print(f"run {result.config_hash} seed={cfg.seed} status={result.status} "
          f"created={c.created} endorsed={c.endorsed} dropped={c.dropped} "
          f"valid={c.committed_valid} invalid={c.committed_invalid_mvcc} "
          f"e2e_tps={fmt(result.throughput.e2e_tps)}")
    for path in written:
        print(f"  wrote {path}")
    return EXIT_OK


def _cmd_preset(args) -> int:
    cfg = preset(args.name, args.variant)
    text = emit_config(cfg, args.emit)
    if args.emit:
        print(f"wrote {args.emit}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    base = _load_target(args.config)
    grid = _parse_grid(args.grid)
    seeds = _parse_seeds(args.seeds) if args.seeds else [base.seed]
    rows, _ = run_sweep(base, grid, seeds)
    csv_text = render_summary_csv(rows)
    out = Path(args.out or base.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep.csv"
    path.write_text(csv_text, encoding="utf-8")
    failures = sum(1 for r in rows if r.get("error"))
    print(f"sweep: {len(rows)} runs, {failures} failed, wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eovsim",
        description="Discrete-event simulator of a permissioned-blockchain "
                    "transaction lifecycle (endorse, order, commit).",
        epilog="presets: " + ", ".join(preset_names()))
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write reports")
    p_run.add_argument("config", help="config file path or preset:NAME[:VARIANT]")
    p_run.add_argument("--out", help="report directory (default: config out_dir)")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument("--no-traces", action="store_true",
                       help="skip per-transaction/per-block trace files")
    p_run.set_defaults(fn=_cmd_run)

    p_pre = sub.add_parser("preset", help="emit a named preset config")
    p_pre.add_argument("name", help="one of: " + ", ".join(preset_names()))
    p_pre.add_argument("--variant", help="dissemination variant (e.g. 4-1*)")
    p_pre.add_argument("--emit", help="write the config here instead of stdout")
    p_pre.set_defaults(fn=_cmd_preset)

    p_sw = sub.add_parser("sweep", help="grid x seeds sweep, one summary row per run")
    p_sw.add_argument("config", help="base config file path or preset:NAME")
    p_sw.add_argument("--grid", action="append",
                      help="config path=comma-separated values (repeatable)")
    p_sw.add_argument("--seeds", help="A..B inclusive range or comma list")
    p_sw.add_argument("--out", help="output directory for sweep.csv")
    p_sw.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationIntegrityError as exc:
        print(f"simulation integrity failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
