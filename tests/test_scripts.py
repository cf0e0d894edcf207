"""Static checks of ``scripts/*.py``, which Tier-1 parses but never runs.

Every ``stableplace`` name a script imports, and every attribute it reads
through one, must exist, and every keyword a script passes to a
``stableplace`` callable must be one of that callable's parameters.  So a
renamed function or a removed parameter fails here, not only when
someone next runs the script.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def _problems(source: str) -> list[str]:
    """What the script ``source`` reads of ``stableplace`` that does not
    exist: a missing name or attribute, or a keyword its callable lacks."""
    tree = ast.parse(source)
    problems: list[str] = []
    bound = _imported(tree, problems)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            _resolve(node, bound, problems)
        if not isinstance(node, ast.Call):
            continue
        target = _resolve(node.func, bound, problems)
        if target is None or not callable(target[1]):
            continue
        name, fn = target
        params = inspect.signature(fn).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        problems += [f"line {node.lineno}: {name} takes no keyword {k.arg!r}"
                     for k in node.keywords if k.arg is not None and k.arg not in params]
    return list(dict.fromkeys(problems))  # a chain is met once per prefix


def _imported(tree: ast.Module, problems: list[str]) -> dict[str, object]:
    """The objects a script binds to names by importing from ``stableplace``,
    by name.  A name the script also assigns, or takes as a parameter, is
    left out: it may not hold the import where it is read."""
    bound: dict[str, object] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "stableplace":
                    module = importlib.import_module(alias.name)
                    top = alias.asname or "stableplace"
                    bound[top] = module if alias.asname else importlib.import_module(top)
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] == "stableplace"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    try:  # a submodule not yet imported
                        importlib.import_module(f"{node.module}.{alias.name}")
                    except ImportError:
                        problems.append(f"line {node.lineno}: no {node.module}.{alias.name}")
                        continue
                bound[alias.asname or alias.name] = getattr(module, alias.name)
    rebound = {node.id for node in ast.walk(tree)
               if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)}
    rebound |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    return {name: obj for name, obj in bound.items() if name not in rebound}


def _resolve(node: ast.expr, bound: dict[str, object], problems: list[str]):
    """(dotted name, object) of a ``Name`` or ``Name.attr...`` chain rooted
    at an imported name; None for any other expression, or when some
    attribute of the chain is missing, which goes into ``problems``."""
    if isinstance(node, ast.Name):
        return (node.id, bound[node.id]) if node.id in bound else None
    if not isinstance(node, ast.Attribute):
        return None
    base = _resolve(node.value, bound, problems)
    if base is None:
        return None
    name, obj = base
    name = f"{name}.{node.attr}"
    if not hasattr(obj, node.attr):
        problems.append(f"line {node.lineno}: no {name}")
        return None
    return name, getattr(obj, node.attr)


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_uses_only_existing_names_and_parameters(script):
    assert _problems(script.read_text()) == []


def test_missing_names_and_keywords_are_found():
    source = (
        "from stableplace import placements\n"
        "from stableplace.placements import settle, no_such_name\n"
        "settle(None, None, max_tips=3)\n"
        "placements.settle_batch(None, None, margin_eps=0.1, return_trace=True)\n"
        "placements.no_such_attribute\n"
    )
    assert _problems(source) == [
        "line 2: no stableplace.placements.no_such_name",
        "line 3: settle takes no keyword 'max_tips'",
        "line 5: no placements.no_such_attribute",
    ]
