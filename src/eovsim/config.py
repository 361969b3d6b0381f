"""Scenario configuration: typed schema, JSON load/emit, validation, hashing.

The on-disk format is JSON. Any numeric field may be written with an `_ms`
suffix (milliseconds); it is converted to seconds and stored under the
unsuffixed name at load time. The dataclasses below are the schema: loading
and emitting walk their fields, every value is checked against its field's
annotation, and unknown fields are rejected with their path so typos fail
loudly.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

from .kernel import FAMILY_PARAMS, DistributionSpec

__all__ = [
    "ConfigError",
    "WorkloadConfig",
    "PeerGroupConfig",
    "DisseminationStrategy",
    "LeaderPolicy",
    "BlockCutRule",
    "CommitLatencyModel",
    "WaitingPolicy",
    "EndorseLatencyModel",
    "ScenarioConfig",
    "validate",
    "load_config",
    "loads_config",
    "emit_config",
    "config_hash",
    "set_by_path",
]

ARRIVAL_PROCESSES = ("deterministic", "poisson", "pool")
LEADER_KINDS = ("max_ht", "soft_max_ht", "ranked_list", "all")
CUT_KINDS = ("size_with_timeout", "dynamic_timeout")
COMMIT_MODES = ("serial", "pipelined")


class ConfigError(Exception):
    """Raised with every field-level problem found in a config."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class WorkloadConfig:
    num_clients: int = 5
    rate_per_client: float = 250.0  # transactions/second, ignored in pool mode
    duration: float = 300.0         # seconds of arrivals, ignored in pool mode
    dependency_prob: float = 0.0
    arrival_process: str = "deterministic"
    pool_size: int = 0              # pool mode: transactions available at t=0


@dataclass(frozen=True)
class PeerGroupConfig:
    count: int = 5
    commit_scales: tuple[float, ...] = ()  # empty = all 1.0
    gateway_buffer: int = 1000             # B: bounded queue per peer
    endorse_concurrency: int = 1000        # C: concurrent endorsement slots

    def scale_for(self, peer_id: int) -> float:
        return self.commit_scales[peer_id] if self.commit_scales else 1.0


@dataclass(frozen=True)
class DisseminationStrategy:
    max_peer_count: int = 1       # m
    required_peer_count: int = 1  # r
    relaxed: bool = False         # the 1* variant; implies r == 1
    ack_timeout: float = 1.0
    max_retries: int = 1


@dataclass(frozen=True)
class LeaderPolicy:
    kind: str = "ranked_list"
    tau: int = 0  # height window, soft_max_ht only


@dataclass(frozen=True)
class BlockCutRule:
    kind: str = "size_with_timeout"
    block_size: int = 4000
    timeout: float = 10.0


@dataclass(frozen=True)
class CommitLatencyModel:
    vscc: DistributionSpec = DistributionSpec.constant(0.0)
    pvt_fetch_local: DistributionSpec = DistributionSpec.constant(0.0)
    pvt_fetch_remote: DistributionSpec = DistributionSpec.constant(0.0)
    mvcc: DistributionSpec = DistributionSpec.constant(0.0)
    block_store: DistributionSpec = DistributionSpec.constant(0.0)
    statedb: DistributionSpec = DistributionSpec.constant(0.0)
    vscc_core_scale: float = 1.0


@dataclass(frozen=True)
class WaitingPolicy:
    enabled: bool = False
    tau: int = 5
    ceiling: int = 15
    boosted_mean: float = 0.0
    baseline_means: tuple[float, ...] = ()


@dataclass(frozen=True)
class EndorseLatencyModel:
    execute: DistributionSpec = DistributionSpec.constant(0.0)
    overhead: DistributionSpec = DistributionSpec.constant(0.0)
    ack: DistributionSpec = DistributionSpec.constant(0.0)


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 1
    horizon: float = 10_000.0
    out_dir: str = "out"
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    peers: PeerGroupConfig = field(default_factory=PeerGroupConfig)
    dissemination: DisseminationStrategy = field(default_factory=DisseminationStrategy)
    leader: LeaderPolicy = field(default_factory=LeaderPolicy)
    cut_rule: BlockCutRule = field(default_factory=BlockCutRule)
    commit_mode: str = "serial"
    endorse_model: EndorseLatencyModel = field(default_factory=EndorseLatencyModel)
    commit_model: CommitLatencyModel = field(default_factory=CommitLatencyModel)
    ordering_overhead: float = 0.0  # fixed delay added to each block delivery
    waiting: WaitingPolicy = field(default_factory=WaitingPolicy)
    emit_traces: bool = True

    def __post_init__(self):
        if errors := validate(self):
            raise ConfigError(errors)

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=seed)


# ---------------------------------------------------------------------------
# JSON <-> dataclass plumbing, derived from the dataclass fields and annotations


def _field_types(cls, acc: dict) -> dict:
    """Map cls and every dataclass nested in it to {field name: resolved type}."""
    hints = get_type_hints(cls)
    acc[cls] = {f.name: hints[f.name] for f in fields(cls)}
    for tp in acc[cls].values():
        if is_dataclass(tp) and tp not in acc:
            _field_types(tp, acc)
    return acc


def _float_paths(cls, prefix=""):
    """Every float and float-list field under cls, as a dotted path."""
    for name, tp in _FIELD_TYPES[cls].items():
        if tp in (float, _FLOATS):
            yield prefix + name
        elif tp in _FIELD_TYPES and tp is not DistributionSpec:  # a DistributionSpec checks itself
            yield from _float_paths(tp, f"{prefix}{name}.")


# Resolved once at import: get_type_hints re-walks the annotations on every
# call, which would dominate set_by_path in a sweep.
_FIELD_TYPES = _field_types(ScenarioConfig, {})
_FLOATS = tuple[float, ...]
_EXPECTED = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
             _FLOATS: "a list of numbers"}
_BAD = object()  # a value that failed to load; its error is already recorded
_FLOAT_PATHS = tuple(_float_paths(ScenarioConfig))
_float_values = attrgetter(*_FLOAT_PATHS)


def _normalize_ms(obj, path, errors):
    """Convert any *_ms numeric leaf to seconds under the unsuffixed key."""
    if isinstance(obj, dict):
        out = {}
        for key, val in obj.items():
            if key.endswith("_ms") and isinstance(val, (int, float)) and not isinstance(val, bool):
                base = key[: -len("_ms")]
                if base in obj:
                    errors.append(f"{path}{key}: both {base} and {key} given")
                    continue
                out[base] = val / 1000.0
            else:
                out[key] = _normalize_ms(val, f"{path}{key}.", errors)
        return out
    if isinstance(obj, list):
        return [_normalize_ms(v, path, errors) for v in obj]
    return obj


def _read(tp, val, path, errors, base_dir):
    """val loaded as type tp. A problem is appended to errors and gives _BAD.

    An int is accepted for a float and stored as a float; a float must be
    finite (JSON as Python reads it admits NaN and Infinity); a bool is never
    an int; a tuple of floats is written as a JSON list.
    """
    if type(val) is tp:
        if tp is float and not math.isfinite(val):
            errors.append(f"{path}: expected a finite number, got {json.dumps(val)}")
            return _BAD
        return val
    if tp is float and type(val) is int and abs(val) <= sys.float_info.max:
        return float(val)
    if tp is DistributionSpec:
        return _read_dist(val, path, errors, base_dir)
    if tp in _FIELD_TYPES:
        return _read_fields(tp, val, path, errors, base_dir)
    if tp == _FLOATS and isinstance(val, list):
        items = tuple(_read(float, v, path, errors, base_dir) for v in val)
        return _BAD if _BAD in items else items
    errors.append(f"{path}: expected {_EXPECTED[tp]}, got {json.dumps(val)}")
    return _BAD


def _read_fields(cls, raw, path, errors, base_dir):
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected an object, got {json.dumps(raw)}")
        return _BAD
    types = _FIELD_TYPES[cls]
    n_errors = len(errors)
    kwargs = {}
    for key, val in raw.items():
        sub = f"{path}.{key}" if path else key
        if key not in types:
            errors.append(f"{sub}: unknown field")
            continue
        kwargs[key] = _read(types[key], val, sub, errors, base_dir)
    return cls(**kwargs) if len(errors) == n_errors else _BAD


def _read_dist(raw, path, errors, base_dir):
    """A DistributionSpec from its family (default constant) and the parameters
    FAMILY_PARAMS lists for it, plus scale and per_tx. An empirical family may
    name a `path` to a file of whitespace-separated samples instead."""
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected an object, got {json.dumps(raw)}")
        return _BAD
    raw = dict(raw)
    family = raw.setdefault("family", "constant")
    if not isinstance(family, str) or family not in FAMILY_PARAMS:
        errors.append(f"{path}.family: {json.dumps(family)} not in {tuple(FAMILY_PARAMS)}")
        return _BAD
    if family == "empirical" and "path" in raw:
        samples = _read_samples(raw.pop("path"), f"{path}.path", errors, base_dir)
        if samples is _BAD:
            return _BAD
        raw["samples"] = samples
    params = (*_FIELD_TYPES[DistributionSpec], "path")
    takes = ("family", "scale", "per_tx", *FAMILY_PARAMS[family])
    for key in [k for k in raw if k in params and k not in takes]:
        errors.append(f"{path}.{key}: not a parameter of the {family} family")
        del raw[key]
    try:
        return _read_fields(DistributionSpec, raw, path, errors, base_dir)
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return _BAD


def _read_samples(name, path, errors, base_dir):
    name = _read(str, name, path, errors, base_dir)
    if name is _BAD:
        return _BAD
    p = Path(name)
    if base_dir is not None and not p.is_absolute():
        p = Path(base_dir) / p
    try:
        samples = [float(token) for token in p.read_text().split()]
    except OSError as exc:
        errors.append(f"{path}: cannot read {p}: {exc}")
        return _BAD
    except ValueError as exc:
        errors.append(f"{path}: {p}: {exc}")
        return _BAD
    bad = [s for s in samples if not math.isfinite(s)]
    if bad:
        errors.append(f"{path}: {p}: non-finite sample {bad[0]!r}")
        return _BAD
    return samples


def _from_dict(raw: dict, base_dir=None) -> ScenarioConfig:
    errors: list[str] = []
    raw = _normalize_ms(raw, "", errors)
    cfg = _read_fields(ScenarioConfig, raw, "", errors, base_dir)
    if errors:
        raise ConfigError(errors)
    return cfg


def validate(cfg: ScenarioConfig) -> list[str]:
    """All invariant violations, each tagged with its field path."""
    # every comparison with NaN is false, so a non-finite number is reported alone
    e = [f"{path}: expected a finite number, got {json.dumps(v)}"
         for path, val in zip(_FLOAT_PATHS, _float_values(cfg))
         for v in (val if type(val) is tuple else (val,)) if not math.isfinite(v)]
    if e:
        return e
    w, p, d = cfg.workload, cfg.peers, cfg.dissemination

    if cfg.seed < 0:
        e.append("seed: must be >= 0")

    if w.arrival_process not in ARRIVAL_PROCESSES:
        e.append(f"workload.arrival_process: {w.arrival_process!r} not in {ARRIVAL_PROCESSES}")
    if w.arrival_process == "pool":
        if w.pool_size < 1:
            e.append("workload.pool_size: must be >= 1 in pool mode")
    else:
        if w.rate_per_client <= 0:
            e.append("workload.rate_per_client: must be > 0")
        if w.duration <= 0:
            e.append("workload.duration: must be > 0")
        if w.num_clients < 1:
            e.append("workload.num_clients: must be >= 1")
    if not 0.0 <= w.dependency_prob <= 1.0:
        e.append("workload.dependency_prob: must be in [0, 1]")

    if p.count < 2:
        e.append("peers.count: must be >= 2")
    if p.commit_scales and len(p.commit_scales) != p.count:
        e.append("peers.commit_scales: length must equal peers.count")
    if p.commit_scales and any(s <= 0 for s in p.commit_scales):
        e.append("peers.commit_scales: must be positive")
    if p.gateway_buffer < 0:
        e.append("peers.gateway_buffer: must be >= 0")
    if p.endorse_concurrency < 1:
        e.append("peers.endorse_concurrency: must be >= 1")

    if not 1 <= d.max_peer_count <= p.count - 1:
        e.append("dissemination.max_peer_count: need 1 <= m <= n-1")
    if not 1 <= d.required_peer_count <= d.max_peer_count:
        e.append("dissemination.required_peer_count: need 1 <= r <= m")
    if d.relaxed and d.required_peer_count != 1:
        e.append("dissemination.required_peer_count: relaxed (1*) requires r == 1")
    if d.ack_timeout <= 0:
        e.append("dissemination.ack_timeout: must be > 0")
    if d.max_retries < 0:
        e.append("dissemination.max_retries: must be >= 0")

    if cfg.leader.kind not in LEADER_KINDS:
        e.append(f"leader.kind: {cfg.leader.kind!r} not in {LEADER_KINDS}")
    if cfg.leader.tau < 0:
        e.append("leader.tau: must be >= 0")

    if cfg.cut_rule.kind not in CUT_KINDS:
        e.append(f"cut_rule.kind: {cfg.cut_rule.kind!r} not in {CUT_KINDS}")
    if cfg.cut_rule.kind == "size_with_timeout" and cfg.cut_rule.block_size < 1:
        e.append("cut_rule.block_size: must be >= 1")
    if cfg.cut_rule.timeout <= 0:
        e.append("cut_rule.timeout: must be > 0")

    for name in ("execute", "overhead", "ack"):  # sampled per transaction, not per block
        if getattr(cfg.endorse_model, name).per_tx:
            e.append(f"endorse_model.{name}.per_tx: must be 0 outside the commit stages")
    if cfg.commit_mode not in COMMIT_MODES:
        e.append(f"commit_mode: {cfg.commit_mode!r} not in {COMMIT_MODES}")
    if cfg.commit_model.vscc_core_scale <= 0:
        e.append("commit_model.vscc_core_scale: must be > 0")
    if cfg.ordering_overhead < 0:
        e.append("ordering_overhead: must be >= 0")
    if cfg.horizon <= 0:
        e.append("horizon: must be > 0")

    wt = cfg.waiting
    if wt.enabled:
        if not 0 < wt.tau < wt.ceiling:
            e.append("waiting: need 0 < tau < ceiling")
        if len(wt.baseline_means) != p.count:
            e.append("waiting.baseline_means: length must equal peers.count")
        elif any(m <= 0 for m in wt.baseline_means):
            e.append("waiting.baseline_means: must be positive")
        elif wt.boosted_mean >= max(wt.baseline_means):
            e.append("waiting.boosted_mean: must be below the largest baseline mean")
        elif wt.boosted_mean <= 0:
            e.append("waiting.boosted_mean: must be > 0")
    return e


def loads_config(text: str, base_dir=None) -> ScenarioConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])
    return _from_dict(raw, base_dir=base_dir)


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    return loads_config(text, base_dir=path.parent)


def _to_json(val):
    tp = type(val)
    if tp is DistributionSpec:
        return _dist_to_dict(val)
    if tp in _FIELD_TYPES:
        return config_to_dict(val)
    return list(val) if tp is tuple else val


def config_to_dict(cfg) -> dict:
    """cfg's fields as JSON values, nested dataclasses as objects."""
    return {name: _to_json(getattr(cfg, name)) for name in _FIELD_TYPES[type(cfg)]}


def _dist_to_dict(spec: DistributionSpec) -> dict:
    d = {name: _to_json(getattr(spec, name)) for name in ("family", *FAMILY_PARAMS[spec.family])}
    if spec.scale != 1.0:
        d["scale"] = spec.scale
    if spec.per_tx != 0.0:
        d["per_tx"] = spec.per_tx
    return d


def emit_config(cfg: ScenarioConfig, path=None) -> str:
    text = json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def config_hash(cfg: ScenarioConfig) -> str:
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def set_by_path(cfg: ScenarioConfig, dotted: str, value) -> ScenarioConfig:
    """Return a copy of cfg with the dotted config path replaced (sweep grids)."""
    d = config_to_dict(cfg)
    *parents, leaf = dotted.split(".")
    node = d
    for part in parents:
        node = node.get(part) if isinstance(node, dict) else None
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError([f"{dotted}: no such config path"])
    node[leaf] = value
    return _from_dict(d)
