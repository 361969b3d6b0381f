"""Run counters, latency summaries, derived ratios, and report emission.

Reports are byte-deterministic: stable column order, floats at 6 significant
digits, no wall-clock timestamps anywhere.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path

from .kernel import SimulationIntegrityError
from .workload import TxStatus

__all__ = [
    "RunCounters", "LatencySummary", "ThroughputSummary",
    "success_ratio", "fmt", "STAGES", "summary_row", "emit_report",
]


@dataclass
class RunCounters:
    created: int = 0
    endorsed: int = 0
    dropped: int = 0
    dropped_capacity: int = 0
    dropped_quorum: int = 0
    dropped_horizon: int = 0
    committed_valid: int = 0
    committed_invalid_mvcc: int = 0
    in_flight_at_horizon: int = 0

    def check(self) -> None:
        if self.created != self.endorsed + self.dropped:
            raise SimulationIntegrityError(
                f"conservation violated: created {self.created} != "
                f"endorsed {self.endorsed} + dropped {self.dropped}")
        if self.endorsed != (self.committed_valid + self.committed_invalid_mvcc
                             + self.in_flight_at_horizon):
            raise SimulationIntegrityError(
                f"conservation violated: endorsed {self.endorsed} != "
                f"valid {self.committed_valid} + invalid {self.committed_invalid_mvcc} "
                f"+ in-flight {self.in_flight_at_horizon}")


def success_ratio(created: int, endorsed: int, invalid: int) -> float:
    """Fraction of submitted transactions that are endorsed and not
    invalidated at commit (transactions still in flight count as
    successful-pending)."""
    if created <= 0:
        raise ValueError("created must be > 0")
    return (endorsed - invalid) / created


def _nearest_rank(sorted_values, pct: float) -> float:
    n = len(sorted_values)
    rank = math.ceil(pct / 100.0 * n)
    return sorted_values[max(rank, 1) - 1]


@dataclass(frozen=True)
class LatencySummary:
    stage: str
    count: int
    mean: float
    std: float
    p50: float
    p95: float
    p99: float

    @classmethod
    def from_samples(cls, stage: str, samples) -> "LatencySummary | None":
        n = len(samples)
        if n == 0:
            return None
        mean = sum(samples) / n
        var = sum((s - mean) * (s - mean) for s in samples) / n
        ordered = sorted(samples)
        return cls(stage, n, mean, math.sqrt(var),
                   _nearest_rank(ordered, 50), _nearest_rank(ordered, 95),
                   _nearest_rank(ordered, 99))


@dataclass(frozen=True)
class ThroughputSummary:
    e2e_tps: float = 0.0
    commit_tps: float = 0.0
    endorsement_tps: float = 0.0
    time_ratio: float = 0.0


def fmt(x) -> str:
    """Stable scalar formatting: ints verbatim, floats at 6 significant digits."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


STAGES = ("endorse_total", "quorum_wait", "block_creation",
          "phase1", "phase2", "commit_total", "e2e")
_STATS = ("mean", "std", "p50", "p95", "p99", "count")


def _success_ratio(result) -> float:
    c = result.counters
    return (success_ratio(c.created, c.endorsed, c.committed_invalid_mvcc)
            if c.created else 0.0)


def _stage_stat(stage: str, stat: str):
    def value(result):
        summ = result.summaries.get(stage)
        return getattr(summ, stat) if summ else 0
    return value


# summary.csv, in column order: (column, RunResult attribute path or function)
_SUMMARY = tuple((col, attrgetter(src) if isinstance(src, str) else src) for col, src in (
    ("config_hash", "config_hash"),
    ("seed", "config.seed"),
    ("status", "status"),
    ("leader_kind", "config.leader.kind"),
    ("leader_tau", "config.leader.tau"),
    ("dissem_m", "config.dissemination.max_peer_count"),
    ("dissem_r", "config.dissemination.required_peer_count"),
    ("dissem_relaxed", "config.dissemination.relaxed"),
    ("commit_mode", "config.commit_mode"),
    ("cut_kind", "config.cut_rule.kind"),
    ("block_size", "config.cut_rule.block_size"),
    ("cut_timeout", "config.cut_rule.timeout"),
    ("dependency_prob", "config.workload.dependency_prob"),
    ("peers", "config.peers.count"),
    ("vscc_core_scale", "config.commit_model.vscc_core_scale"),
    ("waiting_enabled", "config.waiting.enabled"),
    *((f.name, f"counters.{f.name}") for f in fields(RunCounters)),
    ("success_ratio", _success_ratio),
    ("e2e_tps", "throughput.e2e_tps"),
    ("commit_tps", "throughput.commit_tps"),
    ("endorsement_tps", "throughput.endorsement_tps"),
    ("time_ratio", "throughput.time_ratio"),
    ("eligible_multi_fraction", "eligible_multi_fraction"),
    ("makespan", "makespan"),
    ("last_commit_at", "last_commit_at"),
    ("blocks", "n_blocks"),
    ("error", lambda result: ""),  # a run that returns has none; see sweep.run_sweep
    *((f"{stage}_{stat}", _stage_stat(stage, stat)) for stage in STAGES for stat in _STATS),
))
_HEADER = ",".join(col for col, _ in _SUMMARY) + "\n"


def _cell(text: str) -> str:
    """A CSV cell, quoted as RFC 4180 asks when it holds a comma, a quote or
    a line break (a failed sweep row's error text can)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def summary_row(result) -> dict:
    """Flatten one RunResult into the stable summary schema."""
    return {col: value(result) for col, value in _SUMMARY}


def render_summary_csv(rows) -> str:
    """The header and one line per row; a column a row lacks is empty."""
    return _HEADER + "".join(
        ",".join(_cell(fmt(row.get(col, ""))) for col, _ in _SUMMARY) + "\n" for row in rows)


@functools.cache
def _json(value) -> str:
    """The JSON text of a status, drop reason, endorser or tuple of peers."""
    return json.dumps(value, separators=(",", ":"))


def _f6(x: float) -> str:
    """The JSON text of x rounded to 6 significant digits, exactly as
    json.dumps spells float(f"{x:.6g}")."""
    text = f"{x:.6g}"
    if "." in text and "e" not in text:
        return text  # a non-integer in fixed notation is already its own repr
    return repr(float(text)) if text[-1].isdigit() else json.dumps(float(text))  # nan, inf


def _tx_lines(result):
    """transactions.jsonl: a precomputed row template, keys in sorted order."""
    # a transaction's order and commit times are its block's cut_at and
    # first_commit_at; stamps[n] is block n's, stamps[0] is no block's (-1)
    stamps = [("-1.0", "-1.0")]
    stamps += [(_f6(b.cut_at), _f6(b.first_commit_at)) for b, _ in result.block_trace]
    txs = result.txs
    fates = [(_json(status), _json(reason)) for status, reason in TxStatus.TEXT]
    for tx_id, (client, created_at, endorser, endorse_start, endorse_end, quorum_wait,
                retries, won, block_num, block_pos, code, parent) in enumerate(zip(
            txs.client, txs.created_at, txs.endorser, txs.endorse_start, txs.endorse_end,
            txs.quorum_wait, txs.retries_used, txs.round, txs.block_num, txs.block_pos,
            txs.status, txs.parents[result.config.workload.dependency_prob])):
        ordered_at, committed_at = stamps[max(block_num, 0)]
        status, drop_reason = fates[code]
        targets = _json(txs.rounds[endorser][won][0]) if won >= 0 else "[]"
        yield (f'{{"block_num":{block_num},"block_pos":{block_pos},"client":{client},'
               f'"committed_at":{committed_at},"created_at":{_f6(created_at)},'
               f'"disseminated_to":{targets},"drop_reason":{drop_reason},'
               f'"endorse_end":{_f6(endorse_end)},"endorse_start":{_f6(endorse_start)},'
               f'"endorser":{"null" if endorser < 0 else endorser},'
               f'"ordered_at":{ordered_at},"parent":{"null" if parent < 0 else parent},'
               f'"quorum_wait":{_f6(quorum_wait)},"retries_used":{retries},'
               f'"status":{status},"tx_id":{tx_id}}}\n')


def _block_lines(result):
    """blocks.jsonl: keys in sorted order, the peers keyed by their id as a
    string, so in string order ("10" before "2")."""
    for b, timings in result.block_trace:
        peers = ",".join(
            f'"{t.peer_id}":{{"p1_end":{_f6(t.p1_end)},"p1_start":{_f6(t.p1_start)},'
            f'"p2_end":{_f6(t.p2_end)},"p2_start":{_f6(t.p2_start)}}}'
            for t in sorted(timings, key=lambda t: str(t.peer_id)))
        yield (f'{{"block_num":{b.block_num},"creation_time":{_f6(b.creation_time)},'
               f'"cut_at":{_f6(b.cut_at)},"first_commit_at":{_f6(b.first_commit_at)},'
               f'"first_enqueued_at":{_f6(b.first_enqueued_at)},"peers":{{{peers}}},'
               f'"size":{b.size}}}\n')


def _wait_lines(result):
    """wait_events.jsonl: keys in sorted order."""
    for e in result.wait_events:
        yield (f'{{"at":{_f6(e.at)},"gap":{e.gap},"kind":{_json(e.kind)},'
               f'"lagger":{e.lagger},"leader":{e.leader}}}\n')


def _report_files(result):
    """(name, lines) for each report file; render_report joins the lines and
    emit_report streams them to disk."""
    yield "summary.csv", (render_summary_csv([summary_row(result)]),)
    # a template, as the traces are: json.dumps with indent leaves a
    # reference cycle behind on every call
    yield "manifest.json", (f'{{\n  "config_hash": {json.dumps(result.config_hash)},\n'
                            f'  "seed": {json.dumps(result.config.seed)},\n  "tool": "eovsim",\n'
                            f'  "version": {json.dumps(result.version)}\n}}\n',)
    if result.txs is not None:
        yield "transactions.jsonl", _tx_lines(result)
        yield "blocks.jsonl", _block_lines(result)
    if result.config.waiting.enabled:
        yield "wait_events.jsonl", _wait_lines(result)


def render_report(result) -> dict:
    """All report files as {name: text}, exactly as emit_report writes them."""
    return {name: "".join(lines) for name, lines in _report_files(result)}


def emit_report(result, out_dir) -> list[Path]:
    """Write summary.csv, manifest.json, and (if collected) the traces."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create report directory {out}: {exc}") from exc
    written = []
    for name, lines in _report_files(result):
        path = out / name
        with path.open("w", encoding="utf-8") as f:
            f.writelines(lines)
        written.append(path)
    return written
