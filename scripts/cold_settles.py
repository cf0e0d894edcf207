#!/usr/bin/env python3
"""Time lone settles on freshly enumerated dense meshes: the three squashed
icospheres of the ``dense-meshes`` benchmark workload (320, 1280 and 5120
faces) and the unscaled ``icosphere(0.05, 4)``, on which every hull
triangle is a stable facet.

Usage: python scripts/cold_settles.py

Each mesh is built afresh, so ``enumerate_stable`` starts from cold
per-mesh caches (its time includes the convex hull).  Then 12 random
drops, seeded by ``[0, i]`` on the i-th mesh, settle one at a time
with ``settle``, as the workload's timed calls do.  Per mesh the
script prints the ``enumerate_stable`` milliseconds, the first
settle's, the median of the next 11, and the number of
``_new_supports`` calls (support-polygon builds) made by the
enumeration and by the 12 settles.  Enumeration builds the supports of
the placements' rest sets, so a settle builds only the contact sets it
meets that no placement rests on.  It checks nothing.
"""

import functools
import statistics
import time

import numpy as np

from stableplace import placements
from stableplace.fixtures import icosphere
from stableplace.mesh import TriMesh
from stableplace.rotations import random_rotation

DROPS = 12


def meshes():
    """(name, mesh) of the four meshes, each built afresh."""
    for s in (2, 3, 4):
        sphere = icosphere(0.05, s)
        yield f"ellipsoid s={s}", TriMesh(sphere.vertices * np.array([1.0, 0.8, 0.6]),
                                          sphere.faces)
    yield "icosphere s=4", icosphere(0.05, 4)


def counted(fn, calls: list[int]):
    """fn, counting its calls in ``calls[0]``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    return wrapper


def main():
    new_supports = placements._new_supports
    calls = [0]
    placements._new_supports = counted(new_supports, calls)
    try:
        print(f"{'mesh':<15} {'faces':>5} {'enumerate':>10} {'first':>8} "
              f"{'next 11':>8} {'builds':>13}  "
              "(ms, builds = _new_supports calls: enumerate + settles)")
        for i, (name, mesh) in enumerate(meshes()):
            calls[0] = 0
            t0 = time.perf_counter()
            placements.enumerate_stable(mesh)
            enumerate_s = time.perf_counter() - t0
            enumerate_calls = calls[0]
            rng = np.random.default_rng([0, i])
            calls[0] = 0
            settle_s = []
            for _ in range(DROPS):
                initial = random_rotation(rng)
                t0 = time.perf_counter()
                placements.settle(mesh, initial)
                settle_s.append(time.perf_counter() - t0)
            print(f"{name:<15} {len(mesh.faces):>5} {1e3 * enumerate_s:>10.1f} "
                  f"{1e3 * settle_s[0]:>8.2f} {1e3 * statistics.median(settle_s[1:]):>8.3f} "
                  f"{enumerate_calls:>9} + {calls[0]}")
    finally:
        placements._new_supports = new_supports


if __name__ == "__main__":
    main()
