#!/usr/bin/env python3
"""Settle each built-in fixture and the s = 3 squashed icosphere from many
random orientations, each object's drops as one batch, and report how
often each enumerated placement class is reached, the tip-count
distribution, how many tips walked the mesh's rolling graph in the body
frame against how many took the world-frame pivot, how many drops had
their COM rise, the wall-clock cost per settle, and a sha256 of the
settled rotations' bytes in drop order.

Each object's first 100 drops are also settled one at a time with
``settle``, whose cost per settle is printed beside the batch's.  The
script exits 1 unless those lone rotations hash to the same sha256 as
the batch's over the same drops.

The digests make a check of settle bits between two checkouts a diff of
the ``sha256`` lines of two runs' stdout.
"""

import argparse
import hashlib
import sys
import time

import numpy as np

from stableplace import placements
from stableplace.fixtures import icosphere, standard_fixtures
from stableplace.mesh import TriMesh
from stableplace.placements import SettleDiverged, enumerate_stable, settle, settle_batch
from stableplace.rotations import random_rotation, z_quotient_distances


def squashed_icosphere(subdivisions: int) -> TriMesh:
    """Icosphere of radius 0.05 squashed to (1, 0.8, 0.6)."""
    sphere = icosphere(0.05, subdivisions)
    return TriMesh(sphere.vertices * np.array([1.0, 0.8, 0.6]), sphere.faces)


def count_rows(fn):
    """fn, adding the leading rows of its first output (one per pivoting
    drop, stacked or alone) to the wrapper's ``rows`` attribute."""

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        wrapper.rows += len(np.reshape(out[0], (-1, 3)))
        return out

    wrapper.rows = 0
    return wrapper


# drops per object settled one at a time as well
LONE_DROPS = 100


def rotations_sha256(placements_: list) -> str:
    """sha256 of the rotations' bytes, in order."""
    digest = hashlib.sha256()
    for p in placements_:
        digest.update(p.rotation.tobytes())
    return digest.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--drops", type=int, default=500)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    # every tip that does not walk the rolling graph takes one pivot line
    # from _pivot_axis, which returns one row per pivoting drop
    world_path = placements._pivot_axis = count_rows(placements._pivot_axis)
    objects = dict(standard_fixtures(), ellipsoid_s3=squashed_icosphere(3))
    mismatched = []
    for name, mesh in objects.items():
        enum = enumerate_stable(mesh)
        modes = np.stack([p.rotation for p in enum])
        counts = np.zeros(len(enum), dtype=int)
        world_path.rows = 0
        rng = np.random.default_rng(args.seed)
        initials = np.stack([random_rotation(rng) for _ in range(args.drops)])
        start = time.perf_counter()
        settled, traces = settle_batch(mesh, initials, return_trace=True)
        elapsed = time.perf_counter() - start
        world_rows = world_path.rows
        for p in settled:
            if isinstance(p, SettleDiverged):
                raise p
            k = int(np.argmin(z_quotient_distances(p.rotation, modes)))
            counts[k] += 1
        lone = initials[:LONE_DROPS]
        start = time.perf_counter()
        alone = [settle(mesh, initial) for initial in lone]
        lone_elapsed = time.perf_counter() - start
        if rotations_sha256(alone) != rotations_sha256(settled[:len(lone)]):
            mismatched.append(name)
        tips = np.array([len(trace) - 1 for trace in traces])
        rises = sum(max(np.diff(trace), default=0.0) > 1e-9 for trace in traces)
        walked = tips.sum() - world_rows
        print(f"\n{name}: {len(enum)} classes, {args.drops} drops, "
              f"{1e3 * elapsed / args.drops:.2f} ms/settle; first {len(lone)} alone "
              f"{1e3 * lone_elapsed / len(lone):.2f} ms/settle")
        print(f"  tips: median {int(np.median(tips))}, max {tips.max()}; "
              f"{walked} walked, {world_rows} world-frame")
        print(f"  drops whose COM rose: {rises}")
        print(f"  settled rotations sha256 {rotations_sha256(settled)}")
        for k, p in enumerate(enum):
            share = counts[k] / args.drops
            print(f"  class {k}: margin {p.stability_margin:.3f}  "
                  f"score {p.score:.3f}  reached {share:5.1%} {'#' * int(50 * share)}")
    if mismatched:
        sys.exit(f"lone settles differ from the batch on: {', '.join(mismatched)}")


if __name__ == "__main__":
    main()
