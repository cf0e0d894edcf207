#!/usr/bin/env python3
"""Settle each built-in fixture and the s = 3 squashed icosphere from many
random orientations and report how often each enumerated placement class
is reached, the tip-count distribution, how many tips walked the mesh's
rolling graph in the body frame against how many took the world-frame
pivot, how many drops had their COM rise, the wall-clock cost per
settle, and a sha256 of the settled rotations' bytes in drop order.

The digests make a check of settle bits between two checkouts a diff of
the ``sha256`` lines of two runs' stdout.
"""

import argparse
import hashlib
import time

import numpy as np

from stableplace import placements
from stableplace.fixtures import icosphere, standard_fixtures
from stableplace.mesh import TriMesh
from stableplace.placements import enumerate_stable, settle
from stableplace.rotations import random_rotation, z_quotient_distances


def squashed_icosphere(subdivisions: int) -> TriMesh:
    """Icosphere of radius 0.05 squashed to (1, 0.8, 0.6)."""
    sphere = icosphere(0.05, subdivisions)
    return TriMesh(sphere.vertices * np.array([1.0, 0.8, 0.6]), sphere.faces)


def count_calls(fn):
    """fn, counting its calls in the wrapper's ``calls`` attribute."""

    def wrapper(*args, **kwargs):
        wrapper.calls += 1
        return fn(*args, **kwargs)

    wrapper.calls = 0
    return wrapper


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--drops", type=int, default=500)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    # every tip that does not walk the rolling graph asks _pivot_axis
    world_path = placements._pivot_axis = count_calls(placements._pivot_axis)
    objects = dict(standard_fixtures(), ellipsoid_s3=squashed_icosphere(3))
    for name, mesh in objects.items():
        enum = enumerate_stable(mesh)
        modes = np.stack([p.rotation for p in enum])
        counts = np.zeros(len(enum), dtype=int)
        tips = []
        rises = 0
        digest = hashlib.sha256()
        world_path.calls = 0
        rng = np.random.default_rng(args.seed)
        start = time.perf_counter()
        for _ in range(args.drops):
            p, trace = settle(mesh, random_rotation(rng), return_trace=True)
            k = int(np.argmin(z_quotient_distances(p.rotation, modes)))
            counts[k] += 1
            digest.update(p.rotation.tobytes())
            tips.append(len(trace) - 1)
            rises += max(np.diff(trace), default=0.0) > 1e-9
        elapsed = time.perf_counter() - start
        tips = np.array(tips)
        walked = tips.sum() - world_path.calls
        print(f"\n{name}: {len(enum)} classes, {args.drops} drops, "
              f"{1e3 * elapsed / args.drops:.2f} ms/settle")
        print(f"  tips: median {int(np.median(tips))}, max {tips.max()}; "
              f"{walked} walked, {world_path.calls} world-frame")
        print(f"  drops whose COM rose: {rises}")
        print(f"  settled rotations sha256 {digest.hexdigest()}")
        for k, p in enumerate(enum):
            share = counts[k] / args.drops
            print(f"  class {k}: margin {p.stability_margin:.3f}  "
                  f"score {p.score:.3f}  reached {share:5.1%} {'#' * int(50 * share)}")


if __name__ == "__main__":
    main()
