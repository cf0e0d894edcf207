#!/usr/bin/env python3
"""List the statements of ``stableplace`` functions that no benchmark
workload executes.

Usage: python scripts/workload_lines.py [WORKLOAD ...]

Runs one pass of each perfbench workload named (all four by default) in
this process, as ``perfbench/one_pass.py`` runs a pass but untimed:
``setup``, ``work`` and ``check`` with seed 1 and pass id 0, without the
``--workers 2`` pipeline run, all under a ``sys.settrace`` line trace of
the package's files.  Then, per function of ``src/stableplace`` (module,
qualified name and first line), it prints the line of each statement no
pass executed, or ``not entered`` for a function no pass called, and at
the end the counts of both.  A function whose every statement ran is not
listed.

A statement counts as executed when the trace saw any line of its head:
for a compound statement from its first decorator to the line before its
body, for any other its whole span.  A docstring and ``global`` and
``nonlocal`` declarations run no code and are not counted.  Module-level
code runs at import, before the trace starts, and is not listed.

perfbench is imported read-only: the script writes no bytecode, and each
pass's files go to a temporary directory that is removed afterwards.
"""

from __future__ import annotations

import ast
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stableplace"
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import hostspeed  # noqa: E402  (perfbench's reference timer, which work() marks)
import workloads  # noqa: E402

SEED = 1
PASS_ID = 0


def traced_lines(names: list[str]) -> dict[str, set[int]]:
    """The lines of each package file that one pass of each workload in
    ``names`` executed, by file path."""
    seen = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}

    def on_call(frame, event, arg):
        lines = seen.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    for name in names:
        workload = workloads.WORKLOADS[name]()
        with tempfile.TemporaryDirectory() as workdir:
            sys.settrace(on_call)
            try:
                speed = hostspeed.HostSpeed()
                workload.setup(SEED, Path(workdir), PASS_ID)
                workload.work(None, speed)
                checks, _ = workload.check(False, speed)
            finally:
                sys.settrace(None)
        print(f"{name}: {checks.ops} checks, {len(checks.failures)} failed", file=sys.stderr)
    return seen


def function_statements(source: str) -> list[tuple[str, int, list[tuple[int, int]]]]:
    """(qualified name, first line, statement heads) of every function in
    ``source``, where a head is the (first, last) line span that
    ``traced_lines`` looks for."""
    functions = []

    def heads(body: list[ast.stmt], out: list[tuple[int, int]], qualname: str) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.Global, ast.Nonlocal)):
                continue
            first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
            inner = getattr(stmt, "body", None)
            last = max(first, inner[0].lineno - 1) if inner else stmt.end_lineno
            out.append((first, last))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(stmt, f"{qualname}.<locals>.{stmt.name}")
            elif isinstance(stmt, ast.ClassDef):
                heads(stmt.body, out, f"{qualname}.<locals>.{stmt.name}")
            else:
                for block in _blocks(stmt):
                    heads(block, out, qualname)

    def visit(fn: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str) -> None:
        body = fn.body
        if ast.get_docstring(fn, clean=False) is not None:
            body = body[1:]
        out: list[tuple[int, int]] = []
        heads(body, out, qualname)
        functions.append((qualname, fn.lineno, out))

    def walk(body: list[ast.stmt], prefix: str) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(stmt, prefix + stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                walk(stmt.body, f"{prefix}{stmt.name}.")
            else:
                for block in _blocks(stmt):
                    walk(block, prefix)

    walk(ast.parse(source).body, "")
    return functions


def _blocks(stmt: ast.stmt) -> list[list[ast.stmt]]:
    """The statement lists nested in a compound statement: its body, else
    and finally blocks, exception handlers and match cases."""
    blocks = [getattr(stmt, name, []) for name in ("body", "orelse", "finalbody")]
    blocks += [part.body for part in getattr(stmt, "handlers", []) + getattr(stmt, "cases", [])]
    return [block for block in blocks if block]


def main() -> int:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workloads {unknown}; choose from {list(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    seen = traced_lines(names)
    missed_functions = missed_statements = 0
    for path, lines in seen.items():
        module = Path(path).stem
        for qualname, first_line, statements in function_statements(Path(path).read_text()):
            missed = [first for first, last in statements
                      if not any(line in lines for line in range(first, last + 1))]
            if not missed:
                continue
            if len(missed) == len(statements):
                missed_functions += 1
                print(f"{module}.{qualname} (line {first_line}): not entered")
            else:
                missed_statements += len(missed)
                print(f"{module}.{qualname} (line {first_line}): "
                      f"{', '.join(map(str, missed))}")
    print(f"{missed_functions} functions not entered, {missed_statements} statements "
          f"not executed in the functions entered ({', '.join(names)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
