"""The public API is the route leolink runs: every public function of its
computing modules is called from one of its modules."""

import ast
import importlib
import inspect
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "leolink"
MODULES = ("channel", "schemes", "geometry", "montecarlo", "pipeline", "scenario")
# The public functions that no module calls, and why each stays.
UNCALLED = {
    # bench/selftest.py builds a state probability matrix at a moved
    # threshold with it, to check that the benchmark's checks reject it
    "channel.state_prob_matrix",
    # the parser's round-trip oracle: a rendered scenario parses back to
    # itself (tests/test_scenario.py)
    "scenario.render_scenario",
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
