"""Every public top-level function and class in ``src/repro`` is reached.

A definition is reached when code other than its own definition names it:
another ``src`` module that is not a package ``__init__`` (re-exporting a
name runs nothing), a file under ``examples/``, ``benchmarks/`` or
``perfbench/``, or its own module outside its own definition.  Tests do
not count, so code that only its own tests reach fails here.  A name
counts wherever it appears as a name, an attribute or an imported name;
strings such as ``__all__`` entries do not.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Definitions nothing in the program names, kept because tests use them.
KEPT_FOR_TESTS = {
    # Scheduler references: the tFAW floor any schedule respects, and the
    # merge memo's key, which the memo tests compare against.
    "dram/scheduler.py::tfaw_lower_bound_ns",
    "dram/analytic.py::merge_signature",
    # Test hooks: clear the process-wide metrics, read the active trace.
    "obs/metrics.py::reset_metrics",
    "obs/trace.py::current_trace",
    # Small public helpers of the API, fixed-point and workload modules.
    "api/luts.py::identity_lut",
    "utils/fixedpoint.py::from_fixed",
    "workloads/registry.py::workload_by_name",
}


def _names(nodes) -> set[str]:
    """Every identifier the nodes use as a name, attribute or import."""
    found: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def _unreached() -> list[str]:
    modules = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    named = {
        path: _names(ast.walk(tree))
        for path, tree in modules.items()
        if path.name != "__init__.py"
    }
    outside = set()
    for folder in ("examples", "benchmarks", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            outside |= _names(ast.walk(ast.parse(path.read_text())))
    unreached = []
    for path, tree in modules.items():
        for definition in tree.body:
            if not isinstance(
                definition, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or definition.name.startswith("_"):
                continue
            name = definition.name
            if name in outside or any(
                name in names for other, names in named.items() if other != path
            ):
                continue
            own = set(ast.walk(definition))
            if name in _names(node for node in ast.walk(tree) if node not in own):
                continue
            unreached.append(f"{path.relative_to(SRC).as_posix()}::{name}")
    return unreached


def test_every_public_definition_is_reached():
    unreached = set(_unreached())
    assert sorted(unreached - KEPT_FOR_TESTS) == []
    # A kept definition that the program now reaches leaves the list.
    assert sorted(KEPT_FOR_TESTS - unreached) == []
