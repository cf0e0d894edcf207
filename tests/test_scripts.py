"""Static checks of ``scripts/*.py``, which Tier-1 parses but never runs.

Every ``stableplace`` name a script imports, and every attribute it reads
through one, must exist, and every keyword a script passes to a
``stableplace`` callable must be one of that callable's parameters.  So a
renamed function or a removed parameter fails here, not only when
someone next runs the script.  A script that imports a perfbench module
reads only names that module defines, and turns off bytecode writing
before the import, so that running it leaves perfbench/ as it was.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
PERFBENCH = ROOT / "perfbench"


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


def _perfbench_problems(source: str) -> list[str]:
    """What the script ``source`` reads of a perfbench module, imported by
    its bare name, that the module's file does not define at top level,
    and each such import that comes before ``sys.dont_write_bytecode =
    True``.  The modules are parsed, not imported."""
    tree = ast.parse(source)
    no_bytecode = min((node.lineno for node in ast.walk(tree)
                       if isinstance(node, ast.Assign)
                       and ast.unparse(node) == "sys.dont_write_bytecode = True"),
                      default=None)
    problems: list[str] = []
    defined: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Import):
            continue
        for alias in node.names:
            path = PERFBENCH / f"{alias.name}.py"
            if not path.is_file():
                continue
            if no_bytecode is None or node.lineno < no_bytecode:
                problems.append(f"line {node.lineno}: {alias.name} imported with bytecode on")
            defined[alias.asname or alias.name] = _top_level_names(path.read_text())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in defined and node.attr not in defined[node.value.id]):
            problems.append(f"line {node.lineno}: no perfbench {node.value.id}.{node.attr}")
    return problems


def _top_level_names(source: str) -> set[str]:
    """The names a module binds at top level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_reads_perfbench_without_writing_to_it(script):
    assert _perfbench_problems(script.read_text()) == []


def test_perfbench_misuse_is_found():
    source = (
        "import sys\n"
        "import workloads\n"
        "sys.dont_write_bytecode = True\n"
        "import hostspeed\n"
        "workloads.WORKLOADS\n"
        "hostspeed.NO_SUCH_NAME\n"
    )
    assert _perfbench_problems(source) == [
        "line 2: workloads imported with bytecode on",
        "line 6: no perfbench hostspeed.NO_SUCH_NAME",
    ]
