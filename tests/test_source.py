"""Source-level rules for the package itself."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eovsim"


def _trees():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    for path in paths:
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _sites(match):
    """(file, enclosing class and function names...) of every node match accepts."""
    found = []
    for path, tree in _trees():
        scopes = [(node.name, node) for node in ast.walk(tree)
                  if isinstance(node, (ast.ClassDef, ast.FunctionDef))]
        for node in ast.walk(tree):
            if match(node):
                found.append((path.name, *(n for n, scope in scopes if node in ast.walk(scope))))
    return found


def _call_sites(name):
    """(file, enclosing class and function names...) of every call to name."""
    def calls(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name
    return _sites(calls)


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements; invariants must raise explicitly
    found = [f"{path.name}:{node.lineno}" for path, tree in _trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_validate_called_only_when_a_config_is_built():
    # a ScenarioConfig validates itself when it is built; a second call site
    # would be a second place to keep in step with the rules
    assert _call_sites("validate") == [("config.py", "ScenarioConfig", "__post_init__")]


def test_run_counters_built_once_from_transaction_fates():
    # the counts are derived once, at the end of a run, from each
    # transaction's fate; a counter bumped elsewhere would be a second record
    assert _call_sites("RunCounters") == [("simulate.py", "Simulation", "_finalize")]
    found = [f"{path.name}:{node.lineno}" for path, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
             and "counters" in (getattr(node.value, "id", None), getattr(node.value, "attr", None))]
    assert found == []


def test_commit_pipeline_schedules_only_from_kick():
    # Peer.kick() is the whole pipeline rule: a phase started anywhere else
    # would be a second copy of it
    sites = [site for site in _call_sites("schedule") if site[0] == "commit.py"]
    assert sites == [("commit.py", "Peer", "kick")] * 2  # phase 1, phase 2


def test_endorsements_start_only_from_fill():
    # EndorsementSystem.fill is the whole admission rule: an endorsement
    # started, or a slot taken, anywhere else would be a second copy of it
    fill = ("endorsement.py", "EndorsementSystem", "fill")
    assert _call_sites("_begin") == [fill]
    stores = _sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "busy"
                    and isinstance(node.ctx, ast.Store))
    assert sorted(stores) == [("commit.py", "Peer", "__init__"),  # busy = 0
                              ("endorsement.py", "EndorsementSystem", "_complete"),  # -= 1
                              fill]
    increments = _sites(lambda node: isinstance(node, ast.AugAssign)
                        and isinstance(node.op, ast.Add)
                        and getattr(node.target, "attr", None) == "busy")
    assert increments == [fill]


def test_endorsement_draws_only_through_plans():
    # _plans draws every endorsement stage a chunk at a time, and resolves
    # every dissemination round with quorum_satisfied, the one quorum rule
    assert [site for site in _call_sites("sample") if site[0] == "endorsement.py"] == []
    uses = _sites(lambda node: isinstance(node, ast.Name) and node.id == "quorum_satisfied")
    assert [site for site in uses if site[0] == "endorsement.py"] == [("endorsement.py", "_plans")]


def test_dependency_parents_drawn_only_after_the_run():
    # a parent affects only post-run facts: the dependency streams are made,
    # and every parent drawn, in the one replay that _finalize starts
    assert _call_sites("dependency_stream_label") == [("workload.py", "ArrivalSource",
                                                       "draw_parents")]
    assert sorted(_call_sites("draw_parents")) == [("simulate.py", "Simulation", "_finalize"),
                                                   ("workload.py", "ArrivalSource",
                                                    "draw_parents")]


def test_no_transaction_class():
    # a run's transactions are TxStore's columns, indexed by tx_id; an object
    # per transaction would bring back its boxed fields
    assert _sites(lambda node: isinstance(node, ast.ClassDef)
                  and node.name == "Transaction") == []


@pytest.mark.parametrize("module", ["eovsim"] + sorted(
    f"eovsim.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__")))
def test_every_exported_name_exists(module):
    # a deleted helper must leave its module's __all__ too
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
