"""The computing modules export exactly what the pipeline uses.

Every public top-level def or class of a layer module is listed in its
``__all__``, and every listed name is used somewhere in ``src/`` outside
its own definition or by the benchmark in ``perfbench/``.  The exempt
names state a result of the paper or run the propagator on its own; tests
are their only callers.
"""

from __future__ import annotations

import ast
import functools
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("core", "groundstate", "linops", "profile", "modulation",
           "reduced", "sim")
EXEMPT = {"propagate", "energy_inequality_check", "alpha_lt1_solutions"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _names_used(node: ast.AST) -> set[str]:
    """Identifiers read in ``node``: bare names and attribute names."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


@functools.cache
def _top_level_uses() -> list[tuple[str, str | None, frozenset[str]]]:
    """(module stem, name defined or None, names used) per top-level
    statement of every file in src/nlsblowup and perfbench."""
    files = sorted((ROOT / "src" / "nlsblowup").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    out = []
    for path in files:
        for node in _parse(path).body:
            defined = (node.name if isinstance(
                node, (ast.FunctionDef, ast.ClassDef)) else None)
            out.append((path.stem, defined, frozenset(_names_used(node))))
    return out


def _used_outside_definition(module: str, name: str) -> bool:
    return any(name in used for stem, defined, used in _top_level_uses()
               if (stem, defined) != (module, name))


def _public_defs(module: str) -> set[str]:
    tree = _parse(ROOT / "src" / "nlsblowup" / f"{module}.py")
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


@pytest.mark.parametrize("module", MODULES)
def test_public_defs_are_exported(module):
    exported = set(importlib.import_module(f"nlsblowup.{module}").__all__)
    assert _public_defs(module) <= exported, sorted(
        _public_defs(module) - exported)


@pytest.mark.parametrize("module", MODULES)
def test_exports_are_used(module):
    exported = importlib.import_module(f"nlsblowup.{module}").__all__
    unused = [name for name in exported if name not in EXEMPT
              and not _used_outside_definition(module, name)]
    assert not unused, unused
