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
- ``settle/<mesh>``: ``settle`` of the first 20 of those drops, one at
  a time, with traces;
- ``merge/<mesh>/<angle_tol>``: ``merge_coplanar_facets`` of the mesh's
  hull at ``angle_tol`` 1e-4 and 1.0;
- ``grasps/<mesh>/<gripper>``: ``sample_antipodal_grasps`` of 100
  samples at seeds 0, 1 and 2, with the CLI's default 8 cm gripper and
  a 120 cm one;
- ``cloud/<mesh>``: ``sample_point_cloud`` of 500 points at seed 3,

on the five built-in fixtures and the squashed icospheres
``ellipsoid_s2/3/4`` (``grasp_statistics.squashed_icosphere``); then
``enumerate``, ``settle_batch`` and ``settle`` alone on the round
``icosphere(0.05, 4)`` and on one seeded random hull at the scales
1e-3, 1 and 1e3.  On the 1e-3 hull many drops run to ``MAX_TIPS`` tips,
so it settles 40 drops and 10 of them alone.
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

from grasp_statistics import squashed_icosphere
from run_fixture_pipeline import write_config
from stableplace.cli import GripperConfig
from stableplace.cli import main as cli
from stableplace.fixtures import icosphere, standard_fixtures
from stableplace.mesh import TriMesh, convex_hull, merge_coplanar_facets, sample_point_cloud
from stableplace.placements import SettleDiverged, enumerate_stable, settle, settle_batch
from stableplace.regrasp import sample_antipodal_grasps
from stableplace.rotations import random_rotation

SEED = 36
DROPS = 150
LONE_DROPS = 20
ANGLE_TOLS = (1e-4, 1.0)
GRIPPERS = {"8cm": GripperConfig(), "120cm": GripperConfig(max_width_cm=120.0)}
GRASP_SEEDS = (0, 1, 2)
GRASP_SAMPLES = 100
CLOUD_POINTS, CLOUD_SEED = 500, 3
HULL_SEED, HULL_POINTS = 37, 40
HULL_SCALES = {"x1e-3": 1e-3, "x1": 1.0, "x1e3": 1e3}
# (drops, drops settled alone) where many drops run to MAX_TIPS tips
FEW_DROPS = {"hull_x1e-3": (40, 10)}


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
        out[f"ellipsoid_s{s}"] = squashed_icosphere(s)
    return out


def settle_meshes() -> dict[str, TriMesh]:
    """The round icosphere and the random hull at each scale, built
    afresh.  The hull's points are normal draws, about a sixth of their
    coordinates rounded to integers, so that coplanar facets mix with
    triangles."""
    rng = np.random.default_rng(HULL_SEED)
    pts = rng.normal(size=(HULL_POINTS, 3))
    snap = rng.random((HULL_POINTS, 3)) < 1 / 6
    pts[snap] = np.round(pts[snap])
    out = {"icosphere_s4": icosphere(0.05, 4)}
    for label, scale in HULL_SCALES.items():
        out[f"hull_{label}"] = convex_hull(pts * scale)
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


def seeded_drops(i: int, n: int) -> np.ndarray:
    """The first n rotations of ``default_rng([SEED, i])``."""
    rng = np.random.default_rng([SEED, i])
    return np.array([random_rotation(rng) for _ in range(n)])


def lone_settles(mesh: TriMesh, initials: np.ndarray) -> list:
    """``settle`` of each drop alone, with its trace, or the
    SettleDiverged it raised."""
    out = []
    for initial in initials:
        try:
            out.append(settle(mesh, initial, return_trace=True))
        except SettleDiverged as exc:
            out.append(exc)
    return out


def digests(workdir: Path) -> dict[str, str]:
    """Every digest of the table, by name, in table order; the pipeline
    writes into ``workdir``."""
    out = pipeline_digests(workdir)
    fixed = meshes()
    for i, (name, mesh) in enumerate(fixed.items()):
        out[f"enumerate/{name}"] = digest(enumerate_stable(mesh))
        initials = seeded_drops(i, DROPS)
        out[f"settle_batch/{name}"] = digest(settle_batch(mesh, initials, return_trace=True))
        out[f"settle/{name}"] = digest(lone_settles(mesh, initials[:LONE_DROPS]))
        for tol in ANGLE_TOLS:
            out[f"merge/{name}/{tol!r}"] = digest(merge_coplanar_facets(mesh.hull, tol))
        for label, gripper in GRIPPERS.items():
            spec = gripper.to_spec()
            out[f"grasps/{name}/{label}"] = digest(
                [sample_antipodal_grasps(mesh, GRASP_SAMPLES, spec, seed) for seed in GRASP_SEEDS])
        out[f"cloud/{name}"] = digest(sample_point_cloud(mesh, CLOUD_POINTS, CLOUD_SEED))
    for i, (name, mesh) in enumerate(settle_meshes().items(), start=len(fixed)):
        drops, lone = FEW_DROPS.get(name, (DROPS, LONE_DROPS))
        out[f"enumerate/{name}"] = digest(enumerate_stable(mesh))
        initials = seeded_drops(i, drops)
        out[f"settle_batch/{name}"] = digest(settle_batch(mesh, initials, return_trace=True))
        out[f"settle/{name}"] = digest(lone_settles(mesh, initials[:lone]))
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
