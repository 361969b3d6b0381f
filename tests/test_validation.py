"""Every rule of `validate` and of `DistributionSpec`, reached from a config
file and from Python, and the loader's own rejections.

A ScenarioConfig checks itself when it is built, so `eovsim run` on a bad
file and `dataclasses.replace` in a script refuse the same config with the
same messages.
"""

import json
from dataclasses import replace

import pytest

from eovsim import ConfigError, DistributionSpec, ScenarioConfig, emit_config, loads_config
from eovsim.cli import main
from eovsim.config import config_hash, set_by_path, validate

from conftest import tiny_config
from test_config_cli import _NON_FINITE, _schema_leaves

# waiting on, with every waiting field valid for tiny_config's three peers
_WAIT_ON = {"waiting.enabled": True, "waiting.tau": 1, "waiting.ceiling": 3,
            "waiting.boosted_mean": 0.01, "waiting.baseline_means": (0.02, 0.02, 0.02)}
_POOL = {"workload.arrival_process": "pool", "workload.pool_size": 10}

# (edits to tiny_config by dotted path, the errors they must raise): one case
# per rule, each with the context its rule needs
RULE_CASES = [
    ({"seed": -1}, ["seed: must be >= 0"]),
    ({"workload.arrival_process": "bursty"},
     ["workload.arrival_process: 'bursty' not in ('deterministic', 'poisson', 'pool')"]),
    ({**_POOL, "workload.pool_size": 0}, ["workload.pool_size: must be >= 1 in pool mode"]),
    ({"workload.rate_per_client": -5.0}, ["workload.rate_per_client: must be > 0"]),
    ({"workload.duration": 0.0}, ["workload.duration: must be > 0"]),
    ({"workload.num_clients": 0}, ["workload.num_clients: must be >= 1"]),
    ({"workload.dependency_prob": 1.5}, ["workload.dependency_prob: must be in [0, 1]"]),
    # a single peer leaves no m with 1 <= m <= n-1, so both rules fire
    ({"peers.count": 1}, ["peers.count: must be >= 2",
                          "dissemination.max_peer_count: need 1 <= m <= n-1"]),
    ({"peers.commit_scales": (1.0, 1.0)},
     ["peers.commit_scales: length must equal peers.count"]),
    ({"peers.commit_scales": (1.0, 0.0, 1.0)}, ["peers.commit_scales: must be positive"]),
    ({"peers.gateway_buffer": -1}, ["peers.gateway_buffer: must be >= 0"]),
    ({"peers.endorse_concurrency": 0}, ["peers.endorse_concurrency: must be >= 1"]),
    ({"dissemination.max_peer_count": 3}, ["dissemination.max_peer_count: need 1 <= m <= n-1"]),
    ({"dissemination.relaxed": False, "dissemination.required_peer_count": 3},
     ["dissemination.required_peer_count: need 1 <= r <= m"]),
    ({"dissemination.required_peer_count": 2},
     ["dissemination.required_peer_count: relaxed (1*) requires r == 1"]),
    ({"dissemination.ack_timeout": 0.0}, ["dissemination.ack_timeout: must be > 0"]),
    ({"dissemination.max_retries": -1}, ["dissemination.max_retries: must be >= 0"]),
    ({"leader.kind": "bogus"},
     ["leader.kind: 'bogus' not in ('max_ht', 'soft_max_ht', 'ranked_list', 'all')"]),
    ({"leader.tau": -1}, ["leader.tau: must be >= 0"]),
    ({"cut_rule.kind": "bogus"},
     ["cut_rule.kind: 'bogus' not in ('size_with_timeout', 'dynamic_timeout')"]),
    ({"cut_rule.block_size": 0}, ["cut_rule.block_size: must be >= 1"]),
    ({"cut_rule.timeout": 0.0}, ["cut_rule.timeout: must be > 0"]),
    # an endorsement stage is sampled per transaction, so per_tx has no block to scale by
    ({"endorse_model.execute.per_tx": 5.0},
     ["endorse_model.execute.per_tx: must be 0 outside the commit stages"]),
    ({"endorse_model.overhead.per_tx": 1.0},
     ["endorse_model.overhead.per_tx: must be 0 outside the commit stages"]),
    ({"endorse_model.ack.per_tx": 3.0},
     ["endorse_model.ack.per_tx: must be 0 outside the commit stages"]),
    ({"commit_mode": "bogus"}, ["commit_mode: 'bogus' not in ('serial', 'pipelined')"]),
    ({"commit_model.vscc_core_scale": 0.0}, ["commit_model.vscc_core_scale: must be > 0"]),
    ({"ordering_overhead": -0.1}, ["ordering_overhead: must be >= 0"]),
    ({"horizon": 0.0}, ["horizon: must be > 0"]),
    ({**_WAIT_ON, "waiting.tau": 3}, ["waiting: need 0 < tau < ceiling"]),
    ({**_WAIT_ON, "waiting.baseline_means": (0.02, 0.02)},
     ["waiting.baseline_means: length must equal peers.count"]),
    ({**_WAIT_ON, "waiting.baseline_means": (0.02, -0.02, 0.02)},
     ["waiting.baseline_means: must be positive"]),
    ({**_WAIT_ON, "waiting.boosted_mean": 0.02},
     ["waiting.boosted_mean: must be below the largest baseline mean"]),
    ({**_WAIT_ON, "waiting.boosted_mean": 0.0}, ["waiting.boosted_mean: must be > 0"]),
]


def _replaced(obj, edits):
    """obj with the edits applied by dataclasses.replace, each object built
    once, the outermost last."""
    changes, nested = {}, {}
    for path, value in edits.items():
        head, _, rest = path.partition(".")
        if rest:
            nested.setdefault(head, {})[rest] = value
        else:
            changes[head] = value
    for head, sub in nested.items():
        changes[head] = _replaced(getattr(obj, head), sub)
    return replace(obj, **changes)


def _rule_params():
    for edits, errors in RULE_CASES:
        # the last edit is the one that breaks the rule
        path, value = list(edits.items())[-1]
        yield pytest.param(edits, errors, id=f"{path}={json.dumps(value)}")


def test_one_case_per_rule():
    assert len(RULE_CASES) == 34
    assert len({tuple(errors) for _, errors in RULE_CASES}) == 34
    # each context on its own is valid, so only the last edit breaks a rule
    for context in (_WAIT_ON, _POOL):
        assert validate(_replaced(tiny_config(), context)) == []


@pytest.mark.parametrize("edits, errors", list(_rule_params()))
def test_rule_rejected_by_cli_run(tmp_path, capsys, edits, errors):
    raw = json.loads(emit_config(tiny_config(out_dir=str(tmp_path / "out"))))
    for path, value in edits.items():
        *parents, leaf = path.split(".")
        node = raw
        for part in parents:
            node = node[part]
        node[leaf] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "".join(f"config error: {e}\n" for e in errors)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edits, errors", list(_rule_params()))
def test_rule_rejected_when_built_in_python(edits, errors):
    with pytest.raises(ConfigError) as err:
        _replaced(tiny_config(), edits)
    assert err.value.errors == errors


def _non_finite_params():
    for path, tp in _schema_leaves(ScenarioConfig):
        if tp not in (float, tuple[float, ...]):
            continue  # a DistributionSpec checks itself
        for bad in _NON_FINITE:
            value = bad if tp is float else (1.0, bad, 1.0)
            yield pytest.param(path, value, bad, id=f"{path}={json.dumps(bad)}")


@pytest.mark.parametrize("path, value, bad", list(_non_finite_params()))
def test_non_finite_rejected_when_built_in_python(path, value, bad):
    # every comparison with NaN is false, so the rules alone would pass it
    with pytest.raises(ConfigError) as err:
        _replaced(tiny_config(), {path: value})
    assert err.value.errors == [f"{path}: expected a finite number, got {json.dumps(bad)}"]


# -- DistributionSpec's own rules -------------------------------------------------

# (distribution as JSON, the ValueError DistributionSpec raises for it); the
# loader reports it as "path: message"
DIST_CASES = [
    ({"family": "constant", "value": 0.1, "per_tx": -0.001}, "per_tx must be non-negative"),
    ({"family": "constant", "value": -0.1}, "constant value must be non-negative"),
    ({"family": "exponential", "mean": 0.0}, "exponential mean must be positive"),
    ({"family": "normal", "mean": -0.1, "std": 0.01}, "normal mean/std must be non-negative"),
    ({"family": "normal", "mean": 0.1, "std": -0.01}, "normal mean/std must be non-negative"),
    ({"family": "empirical", "samples": []}, "empirical sample list must be non-empty"),
    ({"family": "empirical", "samples": [0.1, -0.2]}, "empirical samples must be non-negative"),
]


def _dist_params():
    for spec, message in DIST_CASES:
        yield pytest.param(spec, message, id=json.dumps(spec, separators=(",", ":")))


@pytest.mark.parametrize("spec, message", list(_dist_params()))
def test_distribution_rule_rejected_by_cli_run(tmp_path, capsys, spec, message):
    raw = json.loads(emit_config(tiny_config(out_dir=str(tmp_path / "out"))))
    raw["commit_model"]["vscc"] = spec
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"config error: commit_model.vscc: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec, message", list(_dist_params()))
def test_distribution_rule_rejected_in_python(spec, message):
    params = {k: tuple(v) if k == "samples" else v for k, v in spec.items()}
    with pytest.raises(ValueError) as err:
        DistributionSpec(**params)
    assert str(err.value) == message


def test_distribution_scale_is_an_unknown_field(tmp_path, capsys):
    # a spec's samples are its family's draws; there is no multiplier
    raw = json.loads(emit_config(tiny_config(out_dir=str(tmp_path / "out"))))
    raw["commit_model"]["vscc"] = {"family": "exponential", "mean": 0.01, "scale": 2.5}
    with pytest.raises(ConfigError) as err:
        loads_config(json.dumps(raw))
    assert err.value.errors == ["commit_model.vscc.scale: unknown field"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "config error: commit_model.vscc.scale: unknown field\n"
    assert not (tmp_path / "out").exists()
    with pytest.raises(TypeError):
        DistributionSpec.exponential(0.01, scale=2.5)


def test_distribution_per_tx_round_trip():
    base = tiny_config()
    cfg = replace(base, commit_model=replace(
        base.commit_model, vscc=DistributionSpec.exponential(0.01, per_tx=0.002)))
    text = emit_config(cfg)
    assert json.loads(text)["commit_model"]["vscc"] == {
        "family": "exponential", "mean": 0.01, "per_tx": 0.002}
    loaded = loads_config(text)
    assert loaded == cfg
    assert config_hash(loaded) == config_hash(cfg) != config_hash(base)


# -- the loader's own rejections ------------------------------------------------

def _load_errors(text):
    with pytest.raises(ConfigError) as err:
        loads_config(text)
    return err.value.errors


def _edited_json(edit):
    raw = json.loads(emit_config(tiny_config()))
    edit(raw)
    return json.dumps(raw)


def test_value_and_ms_value_together_rejected():
    text = _edited_json(lambda raw: raw["cut_rule"].update(timeout_ms=500))
    assert _load_errors(text) == ["cut_rule.timeout_ms: both timeout and timeout_ms given"]


def test_distribution_not_an_object_rejected():
    text = _edited_json(lambda raw: raw["commit_model"].update(vscc=[0.5]))
    assert _load_errors(text) == ["commit_model.vscc: expected an object, got [0.5]"]


def test_section_not_an_object_rejected():
    text = _edited_json(lambda raw: raw.update(workload=5))
    assert _load_errors(text) == ["workload: expected an object, got 5"]


def test_unknown_distribution_family_rejected():
    text = _edited_json(lambda raw: raw["commit_model"].update(vscc={"family": "pareto"}))
    assert _load_errors(text) == [
        "commit_model.vscc.family: \"pareto\" not in "
        "('constant', 'exponential', 'normal', 'empirical')"]


def test_invalid_json_rejected():
    (error,) = _load_errors('{"seed": ')
    assert error.startswith("not valid JSON: ")


@pytest.mark.parametrize("text", ["[]", "3", '"cfg"', "null"])
def test_top_level_not_an_object_rejected(text):
    assert _load_errors(text) == ["top level must be a JSON object"]


@pytest.mark.parametrize("dotted", ["no_such.field", "horizon.x", "workload.rate", "",
                                    "peers.commit_scales.x"])
def test_set_by_path_unknown_path_names_it(dotted):
    with pytest.raises(ConfigError) as err:
        set_by_path(tiny_config(), dotted, 1)
    assert err.value.errors == [f"{dotted}: no such config path"]


def test_cli_grid_without_equals_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    emit_config(tiny_config(), path)
    assert main(["sweep", str(path), "--grid", "commit_mode",
                 "--out", str(tmp_path / "sw")]) == 2
    assert capsys.readouterr().err == (
        "config error: --grid 'commit_mode': expected key=v1,v2,...\n")
    assert not (tmp_path / "sw").exists()
