"""The public API is the route leolink runs: every public function of its
computing modules is called from one of its modules, the package root holds
the four commands alone, and the numeric functions take and return 1-D
arrays."""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import leolink
from leolink.channel import SrFading, sr_cdf, tail_mass
from leolink.geometry import PassGeometry, distance_at
from leolink.montecarlo import sample_sr_gain

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "leolink"
MODULES = ("channel", "schemes", "geometry", "montecarlo", "pipeline", "scenario")
# The public functions that no module calls, and why each stays.
UNCALLED = {
    # bench/selftest.py builds a state probability matrix at a moved
    # threshold with it, to check that the benchmark's checks reject it
    "channel.state_prob_matrix",
}
# The package root: the four commands and what they take.
ROOT = {"parse_scenario", "Scenario", "SweepSpec", "prepare", "run_analyze", "run_sweep",
        "run_simulate", "run_validate", "simulate", "SimConfig"}
FADING = SrFading(10.1, 0.126, 0.825)
GEO = PassGeometry(earth_radius_m=6371e3, orbit_height_m=550e3, coverage_radius_m=1000e3,
                   half_track_m=1000e3, sat_speed_ms=7.5e3)
# Each array function, a 1-D input of three entries and a 0-d one. The
# draw count sets the shape of sample_sr_gain's draws; size=None was the
# scalar draw.
ARRAY_FUNCTIONS = {
    "channel.sr_cdf": (lambda x: sr_cdf(FADING, x), np.array([0.0, 1.0, 2.0]), np.array(1.0)),
    "channel.tail_mass": (lambda x: tail_mass(FADING, x), np.array([0.0, 1.0, 2.0]),
                          np.array(1.0)),
    "geometry.distance_at": (lambda t: distance_at(GEO, t), np.array([0.0, 1.0, 2.0]),
                             np.array(1.0)),
    "montecarlo.sample_sr_gain": (
        lambda size: sample_sr_gain(FADING, np.random.default_rng(1), size), 3, None),
}


def referenced_names(path: Path) -> set[str]:
    """Every name a module reads, calls, imports or takes as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_function_is_called():
    used = set().union(*(referenced_names(p) for p in SRC.glob("*.py")
                         if p.name != "__init__.py"))
    uncalled = set()
    for short in MODULES:
        module = importlib.import_module(f"leolink.{short}")
        for name in module.__all__:
            if inspect.isfunction(getattr(module, name)) and name not in used:
                uncalled.add(f"{short}.{name}")
    assert uncalled == UNCALLED


def unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads; a name its __all__
    lists counts as read."""
    tree = ast.parse(path.read_text())
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # import a.b binds a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert [entry for path in paths for entry in unused_imports(path)] == []


def test_package_root_holds_the_four_commands():
    assert set(leolink.__all__) == ROOT
    assert {name for name, value in vars(leolink).items()
            if not name.startswith("_") and not inspect.ismodule(value)} == ROOT


@pytest.mark.parametrize("call,one_d,zero_d", ARRAY_FUNCTIONS.values(), ids=list(ARRAY_FUNCTIONS))
def test_array_functions_take_and_return_1d_arrays(call, one_d, zero_d):
    out = call(one_d)
    assert type(out) is np.ndarray and out.shape == (3,)
    with pytest.raises(ValueError):
        call(zero_d)
