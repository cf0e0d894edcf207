#!/usr/bin/env python3
"""Sample antipodal grasps on each built-in fixture and on the s = 2, 3
and 4 squashed icospheres (320, 1280 and 5120 faces), with the default
8 cm gripper and a 120 cm one, and report per mesh and gripper the grasps
sampled, the share of ray-face pairs the ray cast's broad phase keeps for
its narrow phase, and a sha256 of the grasps' bytes.  The broad phase
runs only on calls whose rays times faces exceed one block; a row where
it never ran shows ``-`` for the share.

Usage: python scripts/grasp_statistics.py

Each row covers seeds 0, 1 and 2 at 25 and 100 samples, six calls.  The
median milliseconds per call (each call timed three times, without the
pair count) go to stderr, so a check of grasp bits or of the culling
between two checkouts is a diff of two runs' stdout.
"""

import hashlib
import statistics
import sys
import time

import numpy as np

from stableplace import regrasp
from stableplace.cli import GripperConfig
from stableplace.fixtures import icosphere, standard_fixtures
from stableplace.mesh import TriMesh

CALLS = [(seed, n) for seed in (0, 1, 2) for n in (25, 100)]
REPEATS = 3


def squashed_icosphere(subdivisions: int) -> TriMesh:
    """Icosphere of radius 0.05 squashed to (1, 0.8, 0.6)."""
    sphere = icosphere(0.05, subdivisions)
    return TriMesh(sphere.vertices * np.array([1.0, 0.8, 0.6]), sphere.faces)


def counted(broad, pairs: list[int]):
    """``_broad_phase``, adding the pairs it keeps to ``pairs[0]`` and the
    pairs it sees to ``pairs[1]``."""

    def wrapper(*args):
        for keep in broad(*args):
            pairs[0] += int(keep.sum())
            pairs[1] += keep.size
            yield keep

    return wrapper


def grasps_sha256(grasp_sets: list[regrasp.GraspSet]) -> str:
    """sha256 of the contacts' and approaches' bytes, grasp by grasp and
    set by set."""
    digest = hashlib.sha256()
    for gs in grasp_sets:
        digest.update(np.hstack([gs.contact_a, gs.contact_b, gs.approach]).tobytes())
    return digest.hexdigest()


def main():
    meshes = dict(standard_fixtures(), **{f"ellipsoid_s{s}": squashed_icosphere(s)
                                          for s in (2, 3, 4)})
    grippers = {"8 cm": GripperConfig().to_spec(),
                "120 cm": GripperConfig(max_width_cm=120.0).to_spec()}
    broad = regrasp._broad_phase
    print(f"{'mesh':<13} {'faces':>5} {'gripper':>7} {'grasps':>6} {'kept':>7}  sha256")
    for name, mesh in meshes.items():
        for label, spec in grippers.items():
            pairs = [0, 0]
            regrasp._broad_phase = counted(broad, pairs)
            try:
                grasp_sets = [regrasp.sample_antipodal_grasps(mesh, n, spec, seed)
                              for seed, n in CALLS]
            finally:
                regrasp._broad_phase = broad
            times = []
            for seed, n in CALLS * REPEATS:
                t0 = time.perf_counter()
                regrasp.sample_antipodal_grasps(mesh, n, spec, seed)
                times.append(time.perf_counter() - t0)
            grasps = sum(len(gs) for gs in grasp_sets)
            kept = f"{pairs[0] / pairs[1]:.4f}" if pairs[1] else "-"
            print(f"{name:<13} {len(mesh.faces):>5} {label:>7} {grasps:>6} "
                  f"{kept:>7}  {grasps_sha256(grasp_sets)}")
            print(f"{name} {label}: {1e3 * statistics.median(times):.3f} ms per call",
                  file=sys.stderr)


if __name__ == "__main__":
    main()
