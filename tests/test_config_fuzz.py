"""tools/config_fuzz.py, which runs the corpus configs with one numeric
leaf moved at a time in capped child processes."""

import importlib.util
import os

import pytest

_ROOT = os.path.join(os.path.dirname(__file__), "..")
_PATH = os.path.join(_ROOT, "tools", "config_fuzz.py")


@pytest.fixture(scope="module")
def config_fuzz():
    spec = importlib.util.spec_from_file_location("config_fuzz", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_plan_is_the_leaf_by_value_grid(config_fuzz):
    # 26 configs; grid.N takes 7 values, every other numeric leaf 10
    plan = config_fuzz.plan(_ROOT)
    assert len(plan) == 26
    assert sum(map(len, plan.values())) == 1136
    cases = config_fuzz.cases({"schema_version": 1, "seed": 0,
                               "grid": {"L": 24.0, "N": 1024},
                               "params": {"flag": True, "b": [{"b": 2.0}]}})
    assert [tuple(leaf) for leaf, _ in cases[::10]] == [
        ("grid", "L"), ("grid", "N"), ("params", "b", 0, "b")]
    assert [v for leaf, v in cases if leaf == ["grid", "N"]] == list(
        config_fuzz.GRID_N)


def test_two_cases_end_in_documented_exits(config_fuzz, tmp_path):
    # an atom lattice over the size budget (exit 2) and an f' that
    # overflowed the fit's norms (a finite non-member, exit 0)
    todo = {"fit-measure-reject-steep.json": [
        (["params", "atom_step"], 1e-8), (["f", "params", "rate"], 1e300)]}
    exits, warned, faults = config_fuzz.fuzz(_ROOT, todo, str(tmp_path))
    assert exits == {2: 1, 0: 1}
    assert warned == 0 and faults == []
