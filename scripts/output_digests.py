#!/usr/bin/env python3
"""Print sha256 digests of the package's outputs, the table that
``tests/test_output_digests.py`` compares with its pinned copy,
``tests/output_digests.json``.

Usage: python scripts/output_digests.py [--json]

The digests, one per line:

- ``pipeline/w<k>/<file>``: the nine files of the fixture pipeline of
  ``scripts/run_fixture_pipeline.py``, run in process at ``--workers``
  1 and 2;
- ``enumerate/<mesh>``: ``enumerate_stable`` at the default margin;
- ``settle_batch/<mesh>``: ``settle_batch`` of 150 drops from the
  rotations of ``default_rng([SEED, i])`` on the i-th mesh, with traces;
- ``merge/<mesh>/<angle_tol>``: ``merge_coplanar_facets`` of the mesh's
  hull at ``angle_tol`` 1e-4 and 1.0,

on the five built-in fixtures and the squashed icospheres
``ellipsoid_s2/3/4`` (``icosphere(0.05, s)`` scaled by (1, 0.8, 0.6)).
Every array enters a digest as its dtype, shape and bytes, and every
float as its eight bytes, so one changed bit changes the digest.

With ``--json`` the script prints the pinned file instead: the digests
and the environment they were taken in (Python, numpy and scipy
versions and the platform).  A change that moves output bytes on
purpose rewrites the pinned file with it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy
from click.testing import CliRunner

from run_fixture_pipeline import write_config
from stableplace.cli import main as cli
from stableplace.fixtures import icosphere, standard_fixtures
from stableplace.mesh import TriMesh, merge_coplanar_facets
from stableplace.placements import enumerate_stable, settle_batch
from stableplace.rotations import random_rotation

SEED = 36
DROPS = 150
ANGLE_TOLS = (1e-4, 1.0)


def environment() -> dict[str, str]:
    """What the output bits may depend on beyond the source."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": f"{platform.system()} {platform.machine()}",
    }


def meshes() -> dict[str, TriMesh]:
    """The five fixtures and the three squashed icospheres, built afresh."""
    out = dict(standard_fixtures())
    for s in (2, 3, 4):
        sphere = icosphere(0.05, s)
        out[f"ellipsoid_s{s}"] = TriMesh(sphere.vertices * np.array([1.0, 0.8, 0.6]),
                                         sphere.faces)
    return out


def _feed(h, value) -> None:
    """Add ``value`` to the hash ``h``, with its type and shape."""
    if isinstance(value, np.ndarray):
        h.update(f"array {value.dtype.str} {value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (float, np.floating)):
        h.update(b"float" + struct.pack("<d", float(value)))
    elif isinstance(value, (list, tuple)):
        h.update(f"list {len(value)}".encode())
        for item in value:
            _feed(h, item)
    elif dataclasses.is_dataclass(value):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            _feed(h, getattr(value, f.name))
    elif isinstance(value, Exception):
        h.update(f"{type(value).__name__}: {value}".encode())
    else:  # int, bool, None, str
        h.update(repr(value).encode())


def digest(value) -> str:
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def pipeline_digests(workdir: Path) -> dict[str, str]:
    """The sha256 of each fixture-pipeline output file, at 1 and 2 workers."""
    out = {}
    config = write_config(workdir)
    out_dir = Path(json.loads(config.read_text())["output_dir"])
    for workers in (1, 2):
        result = CliRunner().invoke(cli, ["pipeline", str(config), "--workers", str(workers)])
        if result.exit_code != 0:
            raise RuntimeError(f"pipeline at {workers} workers exited {result.exit_code}: "
                               f"{result.output}")
        for path in sorted(out_dir.iterdir()):
            out[f"pipeline/w{workers}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
            path.unlink()
    return out


def digests(workdir: Path) -> dict[str, str]:
    """Every digest of the table, by name, in table order; the pipeline
    writes into ``workdir``."""
    out = pipeline_digests(workdir)
    for i, (name, mesh) in enumerate(meshes().items()):
        out[f"enumerate/{name}"] = digest(enumerate_stable(mesh))
        rng = np.random.default_rng([SEED, i])
        initials = np.array([random_rotation(rng) for _ in range(DROPS)])
        out[f"settle_batch/{name}"] = digest(settle_batch(mesh, initials, return_trace=True))
        for tol in ANGLE_TOLS:
            out[f"merge/{name}/{tol!r}"] = digest(merge_coplanar_facets(mesh.hull, tol))
    return out


def main():
    with tempfile.TemporaryDirectory() as workdir:
        table = digests(Path(workdir))
    if "--json" in sys.argv[1:]:
        print(json.dumps({"environment": environment(), "digests": table}, indent=2))
        return
    for key, value in environment().items():
        print(f"# {key} {value}")
    width = max(map(len, table))
    for name, value in table.items():
        print(f"{name:<{width}}  {value}")


if __name__ == "__main__":
    main()
