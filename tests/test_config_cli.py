import csv
import dataclasses
import json
import math
from dataclasses import replace
from typing import get_type_hints

import pytest

from eovsim import (ConfigError, DistributionSpec, ScenarioConfig, config_hash, emit_config,
                    load_config, loads_config)
from eovsim.cli import main
from eovsim.config import set_by_path
from eovsim.kernel import FAMILY_PARAMS
from eovsim.presets import preset, preset_names

from conftest import replay_phase2_completion, tiny_config


def test_waiting_preset_carries_published_parameters():
    cfg = preset("waiting-2peer")
    assert cfg.peers.count == 2
    assert cfg.leader.kind == "soft_max_ht" and cfg.leader.tau == 5
    assert cfg.waiting.baseline_means == (1.3, 2.3)
    assert cfg.waiting.boosted_mean == 1.8
    assert cfg.waiting.ceiling == 15
    assert cfg.cut_rule.kind == "dynamic_timeout" and cfg.cut_rule.timeout == 2.0
    assert cfg.workload.pool_size == 6000


def test_leader_preset_carries_published_parameters():
    cfg = preset("leader-250x300")
    assert cfg.peers.count == 5
    assert cfg.workload.rate_per_client == 250.0 and cfg.workload.duration == 300.0
    assert cfg.peers.gateway_buffer == 1000
    assert cfg.peers.endorse_concurrency == 1000
    assert (cfg.dissemination.max_peer_count, cfg.dissemination.required_peer_count) == (1, 1)


def test_blocksize_preset_low_load():
    cfg = preset("blocksize-low")
    assert cfg.workload.rate_per_client == 100.0
    assert cfg.cut_rule.block_size in (500, 1000, 1500, 2000)


def test_cores_sweep_grid_constant():
    from eovsim.presets import CORE_SCALE_GRID
    assert CORE_SCALE_GRID == (1.0, 0.75, 0.5, 0.375, 0.25)
    preset("cores-sweep")  # resolvable


def test_unknown_preset_lists_names():
    with pytest.raises(ConfigError) as err:
        preset("nope")
    assert "available" in str(err.value)
    assert set(preset_names()) == {
        "pvtdata-250x600", "blocksize-low", "blocksize-high", "leader-250x300",
        "pipeline-400x600", "cores-sweep", "waiting-2peer"}


def test_m_equal_n_rejected():
    cfg = tiny_config()
    raw = json.loads(emit_config(cfg))
    raw["dissemination"]["max_peer_count"] = cfg.peers.count
    with pytest.raises(ConfigError) as err:
        loads_config(json.dumps(raw))
    assert any("max_peer_count" in e for e in err.value.errors)


def test_negative_rate_rejected():
    raw = json.loads(emit_config(tiny_config()))
    raw["workload"]["rate_per_client"] = -5
    with pytest.raises(ConfigError) as err:
        loads_config(json.dumps(raw))
    assert any("rate_per_client" in e for e in err.value.errors)


def test_unknown_field_rejected_with_path():
    raw = json.loads(emit_config(tiny_config()))
    raw["workload"]["rate_per_clinet"] = 10
    with pytest.raises(ConfigError) as err:
        loads_config(json.dumps(raw))
    assert any("rate_per_clinet" in e for e in err.value.errors)


def test_ms_suffix_converted_to_seconds():
    raw = json.loads(emit_config(tiny_config()))
    raw["dissemination"].pop("ack_timeout")
    raw["dissemination"]["ack_timeout_ms"] = 350
    raw["commit_model"]["vscc"] = {"family": "constant", "value_ms": 806}
    cfg = loads_config(json.dumps(raw))
    assert math.isclose(cfg.dissemination.ack_timeout, 0.35)
    assert math.isclose(cfg.commit_model.vscc.value, 0.806)


# config_hash of every preset and dissemination variant, pinned so that a
# change to the schema plumbing cannot silently re-key existing results
PINNED_CONFIG_HASHES = [
    ("blocksize-high", None, "cd72463554baf843"),
    ("blocksize-low", None, "7b4ac9f4562372ac"),
    ("cores-sweep", None, "3be59ff8a8992380"),
    ("leader-250x300", None, "b15ab5be28bc6881"),
    ("pipeline-400x600", None, "e3ba0a4c9b3fc037"),
    ("pvtdata-250x600", None, "97363a4724c5f230"),
    ("waiting-2peer", None, "12285f7982d2081e"),
    ("pvtdata-250x600", "1-1", "97363a4724c5f230"),
    ("pvtdata-250x600", "4-4", "3821e6b9b14ec10d"),
    ("pvtdata-250x600", "4-1", "f6be98bfe68b63d0"),
    ("pvtdata-250x600", "4-1*", "96776890930640d5"),
    ("pipeline-400x600", "1-1", "6055bfadf2c9ab20"),
    ("pipeline-400x600", "4-4", "3be59ff8a8992380"),
    ("pipeline-400x600", "4-1", "3cd6a0d27099cd04"),
    ("pipeline-400x600", "4-1*", "e3ba0a4c9b3fc037"),
]


@pytest.mark.parametrize("name, variant, digest", [
    pytest.param(n, v, h, id=n if v is None else f"{n}:{v}") for n, v, h in PINNED_CONFIG_HASHES])
def test_config_round_trip_identity(name, variant, digest):
    cfg = preset(name, variant)
    again = loads_config(emit_config(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg) == digest


def test_hash_changes_iff_any_field_changes():
    cfg = tiny_config()
    assert config_hash(cfg) == config_hash(tiny_config())
    bumped = set_by_path(cfg, "cut_rule.block_size", 21)
    assert config_hash(bumped) != config_hash(cfg)
    reverted = set_by_path(bumped, "cut_rule.block_size", 20)
    assert config_hash(reverted) == config_hash(cfg)


def test_set_by_path_unknown_path_rejected():
    with pytest.raises(ConfigError):
        set_by_path(tiny_config(), "cut_rule.no_such_field", 1)


def test_empirical_samples_from_file(tmp_path):
    sample_file = tmp_path / "trace.txt"
    sample_file.write_text("0.1\n0.2\n0.3\n")
    raw = json.loads(emit_config(tiny_config()))
    raw["endorse_model"]["ack"] = {"family": "empirical", "path": "trace.txt"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    cfg = load_config(cfg_path)
    assert cfg.endorse_model.ack.samples == (0.1, 0.2, 0.3)


def test_empirical_samples_file_bad_line_exit_2(tmp_path, capsys):
    (tmp_path / "trace.txt").write_text("0.1\nfast\n0.3\n")
    raw = json.loads(emit_config(tiny_config(out_dir=str(tmp_path / "out"))))
    raw["endorse_model"]["ack"] = {"family": "empirical", "path": "trace.txt"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: endorse_model.ack.path:" in err and "'fast'" in err


_DIST_PARAMS = sorted({p for params in FAMILY_PARAMS.values() for p in params})


@pytest.mark.parametrize("family, param", [
    (family, param) for family, params in FAMILY_PARAMS.items()
    for param in _DIST_PARAMS if param not in params] + [("exponential", "path")])
def test_distribution_parameter_outside_its_family_rejected(family, param):
    spec = {p: [0.1] if p == "samples" else 0.1 for p in (*FAMILY_PARAMS[family], param)}
    raw = json.loads(emit_config(tiny_config()))
    raw["commit_model"]["vscc"] = {"family": family, **spec}
    with pytest.raises(ConfigError) as err:
        loads_config(json.dumps(raw))
    assert err.value.errors == [
        f"commit_model.vscc.{param}: not a parameter of the {family} family"]


def _schema_leaves(cls, prefix=""):
    """(dotted path, type) of every field that holds a JSON value, not an object
    of fields, read from the dataclasses so that a new field is covered."""
    hints = get_type_hints(cls)
    for f in dataclasses.fields(cls):
        tp = hints[f.name]
        if dataclasses.is_dataclass(tp) and tp is not DistributionSpec:
            yield from _schema_leaves(tp, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", tp


_WRONG_TYPED = {
    int: ("5", 2.5, True),
    float: ("x", False),
    bool: (1, "false"),
    str: (5,),
    tuple[float, ...]: (0.5, ["x"]),
    DistributionSpec: (0.5,),
}


@pytest.mark.parametrize("path, value", [
    pytest.param(path, value, id=f"{path}={json.dumps(value)}")
    for path, tp in _schema_leaves(ScenarioConfig) for value in _WRONG_TYPED[tp]])
def test_cli_wrong_typed_field_exit_2(tmp_path, capsys, path, value):
    raw = json.loads(emit_config(tiny_config(out_dir=str(tmp_path / "out"))))
    *parents, leaf = path.split(".")
    node = raw
    for part in parents:
        node = node[part]
    node[leaf] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: expected ")
    assert not (tmp_path / "out").exists()


_NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def _non_finite_cases():
    """(path, JSON value) putting NaN or +-Infinity into every float field,
    every float-list item and every parameter of every distribution family."""
    dist_params = [(family, param) for family, params in FAMILY_PARAMS.items()
                   for param in (*params, "per_tx")]
    for path, tp in _schema_leaves(ScenarioConfig):
        if tp is float:
            for bad in _NON_FINITE:
                yield path, bad, path
        elif tp == tuple[float, ...]:
            for bad in _NON_FINITE:
                yield path, [0.5, bad], path
        elif tp is DistributionSpec:
            for i, (family, param) in enumerate(dist_params):
                bad = _NON_FINITE[i % len(_NON_FINITE)]
                spec = {"family": family, **{p: [0.1] if p == "samples" else 0.1
                                             for p in FAMILY_PARAMS[family]}}
                spec[param] = [0.1, bad] if param == "samples" else bad
                yield path, spec, f"{path}.{param}"


@pytest.mark.parametrize("path, value, error_path", [
    pytest.param(path, value, error_path,
                 id=f"{error_path}={json.dumps(value)}" if error_path == path
                 else f"{error_path}:{value['family']}")
    for path, value, error_path in _non_finite_cases()])
def test_cli_non_finite_number_exit_2(tmp_path, capsys, path, value, error_path):
    raw = json.loads(emit_config(tiny_config(out_dir=str(tmp_path / "out"))))
    *parents, leaf = path.split(".")
    node = raw
    for part in parents:
        node = node[part]
    node[leaf] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {error_path}: expected a finite number, got ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_empirical_samples_file_non_finite_exit_2(tmp_path, capsys, token):
    (tmp_path / "trace.txt").write_text(f"0.1\n{token}\n0.3\n")
    raw = json.loads(emit_config(tiny_config(out_dir=str(tmp_path / "out"))))
    raw["endorse_model"]["ack"] = {"family": "empirical", "path": "trace.txt"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: endorse_model.ack.path:" in err and "non-finite sample" in err
    assert not (tmp_path / "out").exists()


def test_integer_accepted_for_float_and_stored_as_float():
    raw = json.loads(emit_config(tiny_config()))
    raw["workload"]["dependency_prob"] = 1
    cfg = loads_config(json.dumps(raw))
    assert cfg.workload.dependency_prob == 1.0
    assert type(cfg.workload.dependency_prob) is float
    raw["horizon"] = 10 ** 400  # an integer no float can hold
    with pytest.raises(ConfigError) as err:
        loads_config(json.dumps(raw))
    assert err.value.errors[0].startswith("horizon: expected a number")


# -- CLI ------------------------------------------------------------------------

def _write_cfg(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    emit_config(cfg, path)
    return path


def test_cli_run_writes_reports_and_exits_zero(tmp_path, capsys):
    cfg = tiny_config(out_dir=str(tmp_path / "out"))
    code = main(["run", str(_write_cfg(tmp_path, cfg))])
    assert code == 0
    assert (tmp_path / "out" / "summary.csv").exists()
    assert (tmp_path / "out" / "manifest.json").exists()
    assert (tmp_path / "out" / "transactions.jsonl").exists()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config_hash"] == config_hash(cfg)
    assert manifest["seed"] == cfg.seed


def test_cli_run_options_leave_config_hash_alone(tmp_path, capsys):
    # --out and --no-traces say where and what to write, not what to simulate
    cfg = tiny_config()
    path = _write_cfg(tmp_path, cfg)
    a, b = tmp_path / "A", tmp_path / "B"
    assert main(["run", str(path), "--out", str(a), "--no-traces"]) == 0
    assert main(["run", str(path), "--out", str(b)]) == 0
    hashes = [line.split()[1] for line in capsys.readouterr().out.splitlines()
              if line.startswith("run ")]
    assert hashes == [config_hash(cfg)] * 2
    for name in ("summary.csv", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert sorted(p.name for p in a.iterdir()) == ["manifest.json", "summary.csv"]
    assert (b / "transactions.jsonl").exists()


def test_cli_same_seed_twice_byte_identical(tmp_path):
    cfg = tiny_config(out_dir=str(tmp_path / "out"))
    path = _write_cfg(tmp_path, cfg)
    names = ("summary.csv", "manifest.json", "transactions.jsonl", "blocks.jsonl")
    assert main(["run", str(path)]) == 0
    first = {n: (tmp_path / "out" / n).read_bytes() for n in names}
    assert main(["run", str(path)]) == 0
    for n in names:
        assert (tmp_path / "out" / n).read_bytes() == first[n], n


def test_cli_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    raw = json.loads(emit_config(tiny_config()))
    raw["workload"]["rate_per_client"] = -1
    bad.write_text(json.dumps(raw))
    assert main(["run", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_missing_file_exit_2(tmp_path):
    assert main(["run", str(tmp_path / "absent.json")]) == 2


def test_cli_integrity_failure_exit_3(tmp_path, monkeypatch):
    replay_phase2_completion(monkeypatch)
    cfg = tiny_config(out_dir=str(tmp_path / "out"))
    assert main(["run", str(_write_cfg(tmp_path, cfg))]) == 3


def test_cli_conservation_failure_exit_3(tmp_path, monkeypatch, capsys):
    from eovsim.ordering import Orderer
    orig = Orderer.enqueue_endorsed

    def lost(self, tx, holders):
        if tx != 0:  # tx 0's endorsement never reaches the orderer
            orig(self, tx, holders)

    monkeypatch.setattr(Orderer, "enqueue_endorsed", lost)
    cfg = tiny_config(out_dir=str(tmp_path / "out"))
    assert main(["run", str(_write_cfg(tmp_path, cfg))]) == 3
    assert "conservation violated" in capsys.readouterr().err


def test_cli_preset_emit_and_stdout(tmp_path, capsys):
    out = tmp_path / "t9.json"
    assert main(["preset", "waiting-2peer", "--emit", str(out)]) == 0
    cfg = load_config(out)
    assert cfg.waiting.boosted_mean == 1.8
    assert main(["preset", "waiting-2peer"]) == 0
    assert '"boosted_mean": 1.8' in capsys.readouterr().out


def test_cli_preset_unknown_exit_2(capsys):
    assert main(["preset", "not-a-preset"]) == 2


@pytest.mark.parametrize("name, variant", [
    ("pvtdata-250x600", "9-9"), ("pipeline-400x600", "9-9"), ("cores-sweep", "4-4")])
def test_unknown_variant_is_config_error_naming_it(name, variant, capsys):
    for args in ((name, variant), (f"{name}:{variant}",)):
        with pytest.raises(ConfigError) as err:
            preset(*args)
        assert repr(variant) in str(err.value)
    assert main(["preset", name, "--variant", variant]) == 2
    assert repr(variant) in capsys.readouterr().err


def test_cli_sweep_row_count(tmp_path):
    cfg = tiny_config()
    path = _write_cfg(tmp_path, cfg)
    code = main(["sweep", str(path), "--grid", "commit_mode=serial,pipelined",
                 "--seeds", "1..3", "--out", str(tmp_path / "sw")])
    assert code == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 3  # header + |grid| x |seeds|


def test_cli_sweep_empty_grid_single_run(tmp_path):
    cfg = tiny_config()
    path = _write_cfg(tmp_path, cfg)
    assert main(["sweep", str(path), "--out", str(tmp_path / "sw")]) == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2


def test_cli_sweep_failure_recorded_and_continues(tmp_path, monkeypatch):
    import eovsim.sweep as sweep_mod
    orig = sweep_mod.run_scenario
    calls = {"n": 0}

    def flaky(cfg, **kw):
        calls["n"] += 1
        if calls["n"] == 1:
            from eovsim.kernel import SimulationIntegrityError
            raise SimulationIntegrityError("boom")
        return orig(cfg, **kw)

    monkeypatch.setattr(sweep_mod, "run_scenario", flaky)
    path = _write_cfg(tmp_path, tiny_config())
    assert main(["sweep", str(path), "--seeds", "1,2", "--out", str(tmp_path / "sw")]) == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert "SimulationIntegrityError" in lines[1]


@pytest.mark.parametrize("seeds", ["x", "1,y", "1..z"])
def test_cli_sweep_non_integer_seeds_exit_2(tmp_path, capsys, seeds):
    path = _write_cfg(tmp_path, tiny_config())
    assert main(["sweep", str(path), "--seeds", seeds, "--out", str(tmp_path / "sw")]) == 2
    assert "--seeds" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_cli_sweep_wrong_typed_grid_value_exit_2(tmp_path, capsys):
    path = _write_cfg(tmp_path, tiny_config())
    assert main(["sweep", str(path), "--grid", "peers.count=x",
                 "--out", str(tmp_path / "sw")]) == 2
    assert 'config error: peers.count: expected an integer, got "x"' in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_cli_sweep_integer_and_float_grid_value_same_config_hash(tmp_path):
    path = _write_cfg(tmp_path, tiny_config())
    assert main(["sweep", str(path), "--grid", "cut_rule.timeout=2,2.0",
                 "--out", str(tmp_path / "sw")]) == 0
    with open(tmp_path / "sw" / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 and not any(r.get("error") for r in rows)
    assert rows[0]["config_hash"] == rows[1]["config_hash"]


def test_cli_sweep_seed_grid_key_exit_2(tmp_path, capsys):
    # --seeds would overwrite every grid seed, writing identical rows
    out = tmp_path / "sw"
    assert main(["sweep", "preset:waiting-2peer", "--grid", "seed=1,2",
                 "--seeds", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: seed: not a grid key") and "--seeds" in err
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["5..1", ","])
def test_cli_sweep_empty_seed_selection_exit_2(tmp_path, capsys, seeds):
    path = _write_cfg(tmp_path, tiny_config())
    assert main(["sweep", str(path), "--seeds", seeds, "--out", str(tmp_path / "sw")]) == 2
    assert "--seeds" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_cli_negative_seed_in_config_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": -1, "out_dir": str(tmp_path / "out")}))
    assert main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "config error: seed: must be >= 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lagger_mean", [0.0, -2.3])
def test_cli_non_positive_baseline_mean_exit_2(tmp_path, capsys, lagger_mean):
    # the boost divides by the lagger's baseline mean
    raw = json.loads(emit_config(preset("waiting-2peer")))
    raw["out_dir"] = str(tmp_path / "out")
    raw["waiting"]["baseline_means"] = [2.3, lagger_mean]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "config error: waiting.baseline_means: must be positive\n"
    assert not (tmp_path / "out").exists()


def test_cli_run_negative_seed_flag_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "preset:waiting-2peer", "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: seed: must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["-2..-1", "-1..2", "-1", "1,-3"])
def test_cli_sweep_negative_seeds_exit_2(tmp_path, capsys, seeds):
    path = _write_cfg(tmp_path, tiny_config())
    assert main(["sweep", str(path), f"--seeds={seeds}", "--out", str(tmp_path / "sw")]) == 2
    assert "--seeds" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_sweep_negative_seed_is_config_error():
    # the library call, not only the CLI, refuses a negative seed before
    # any run starts
    from eovsim import run_sweep
    with pytest.raises(ConfigError, match="seed"):
        run_sweep(preset("waiting-2peer"), {}, [-1])
    with pytest.raises(ConfigError, match="seed"):
        run_sweep(tiny_config(), {"commit_mode": ["serial"]}, [1, -2])


def test_waiting_preset_run_under_five_seconds_wall(tmp_path):
    import time
    from eovsim import emit_report, run_scenario
    cfg = preset("waiting-2peer").with_seed(1)
    start = time.monotonic()
    res = run_scenario(cfg, collect_traces=False)
    emit_report(res, tmp_path)
    assert time.monotonic() - start < 5.0
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith(res.config_hash)


def test_sweep_commit_mode_over_dissemination_presets_eight_rows():
    # the published pipelining table is 4 dissemination setups x 2 commit
    # modes; sweeping commit_mode over each variant preset yields 8 rows
    from eovsim import run_sweep
    rows = []
    for variant in ("1-1", "4-4", "4-1", "4-1*"):
        cfg = preset("pipeline-400x600", variant=variant)
        cfg = replace(cfg, workload=replace(cfg.workload, duration=2.0),
                      horizon=100.0)
        got, _ = run_sweep(cfg, {"commit_mode": ["serial", "pipelined"]}, seeds=[1])
        rows.extend(got)
    assert len(rows) == 8
    assert [r["commit_mode"] for r in rows] == ["serial", "pipelined"] * 4
    assert all(not r.get("error") for r in rows)


def test_pvtdata_preset_fetch_calibration_blend():
    # one data-holding endorser and four on-demand fetchers average ~2.0 s
    # under (1,1); broadcast keeps everyone on the ~0.5 s local path
    def mean(spec):
        assert spec.family == "normal"
        return spec.mean

    cfg = preset("pvtdata-250x600", variant="1-1")
    local = mean(cfg.commit_model.pvt_fetch_local)
    remote = mean(cfg.commit_model.pvt_fetch_remote)
    assert math.isclose((local + 4 * remote) / 5, 2.007, rel_tol=0.01)
    cfg44 = preset("pvtdata-250x600", variant="4-4")
    assert math.isclose(mean(cfg44.commit_model.pvt_fetch_local), 0.515)


def test_cli_help_lists_presets(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for name in preset_names():
        assert name in out
