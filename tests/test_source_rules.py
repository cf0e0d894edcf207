"""Static checks of ``src/stableplace``: one routine per primitive.

- Only ``mesh.py`` imports scipy, so qhull, the package's one use of it,
  sits behind one module (``convex_hull`` in 3-D, ``_convex_rings`` in
  2-D).
- No module calls ``np.cross``: ``rotations.cross`` is the one cross
  product, with ``np.cross``'s bits.
- Only ``mesh.py`` reads ``.area_cdf``: ``mesh._surface_points`` is the
  one surface sampler, which both the point cloud and the grasp sampler
  call.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stableplace"
MODULES = sorted(SRC.glob("*.py"))


def _scipy_imports(source: str) -> list[int]:
    """The lines of ``source`` that import scipy or one of its modules."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return lines


def _numpy_cross(source: str) -> list[int]:
    """The lines of ``source`` that read numpy's ``cross``: as an attribute
    of a name bound to numpy, or by ``from numpy import cross``."""
    tree = ast.parse(source)
    numpy_names = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import)
                   for alias in node.names if alias.name == "numpy"}
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "cross"
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "numpy"
              and any(alias.name == "cross" for alias in node.names)):
            lines.append(node.lineno)
    return lines


def _area_cdf_reads(source: str) -> list[int]:
    """The lines of ``source`` that read an attribute named ``area_cdf``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "area_cdf"]


def test_modules_found():
    assert SRC / "mesh.py" in MODULES


def test_only_mesh_imports_scipy():
    importers = {path.name for path in MODULES if _scipy_imports(path.read_text())}
    assert importers <= {"mesh.py"}


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_no_numpy_cross(module):
    assert _numpy_cross(module.read_text()) == []


def test_only_mesh_reads_the_area_cdf():
    readers = {path.name for path in MODULES if _area_cdf_reads(path.read_text())}
    assert readers <= {"mesh.py"}


def test_rule_breaches_are_found():
    source = (
        "import numpy as np\n"
        "import scipy.spatial\n"
        "from scipy.optimize import linprog\n"
        "from numpy import cross\n"
        "from .rotations import cross as own_cross\n"
        "np.cross(a, b)\n"
        "own_cross(a, b)\n"
        "rotations.cross(a, b)\n"
        "mesh.area_cdf.searchsorted(draws)\n"
        "area_cdf = 1\n"
    )
    assert _scipy_imports(source) == [2, 3]
    assert sorted(_numpy_cross(source)) == [4, 6]
    assert _area_cdf_reads(source) == [9]
