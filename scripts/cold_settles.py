#!/usr/bin/env python3
"""Time cold loads, enumerations and lone settles of dense meshes: the
three squashed icospheres of the ``dense-meshes`` benchmark workload (320,
1280 and 5120 faces) and the unscaled ``icosphere(0.05, 4)``, on which
every hull triangle is a stable facet; then of the five built-in
fixtures, whose hulls have merged facets.

Usage: python scripts/cold_settles.py

Each mesh is built afresh and written to a temporary OBJ file, which
``load_mesh`` reads back, as the workload's timed loads do; per mesh the
script prints that load's milliseconds in three parts, as the load runs
them: reading and parsing the text (``parse``), the ``TriMesh``
construction (``TriMesh``: the arrays and the face-index check), and the
load's first read of the COM (``mass``: the one mass-property pass, with
the edge index that its watertightness test builds).
``enumerate_stable`` then starts on the loaded mesh from cold per-mesh
caches (its time includes the convex hull).  The ``hull`` column gives
that hull's source, ``own`` when the mesh is its own convex hull and takes
its own faces and ``qhull`` otherwise, and the milliseconds of the first
``TriMesh.hull`` use, timed just before the enumeration and counted in
its column.  Then 12 random drops,
seeded by ``[0, i]`` on the i-th mesh, settle one at a time with
``settle``, as the workload's timed calls do.  Per mesh the script
prints the ``enumerate_stable`` milliseconds, the number of 2-D qhull
calls the enumeration makes (``qhull``: one per support polygon it
builds of four or more points), the first settle's milliseconds, the
median of the next 11, and the number of ``_new_supports`` calls
(support-polygon builds) made by the enumeration and by the 12 settles.
A triangle takes its 2-D order in closed form, so on the all-triangle
hulls ``qhull`` reads 0, and on a fixture it counts the merged facets
(6 on the cube).  Enumeration builds the support of every facet it
checks, so a settle builds only the contact sets it meets that are no
checked facet's.  It checks nothing.
"""

import functools
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

from stableplace import mesh as mesh_module
from stableplace import placements
from stableplace.fixtures import icosphere, standard_fixtures
from stableplace.mesh import TriMesh, load_mesh, save_obj
from stableplace.rotations import random_rotation

DROPS = 12


def meshes():
    """(name, mesh) of the nine meshes, each built afresh."""
    for s in (2, 3, 4):
        sphere = icosphere(0.05, s)
        yield f"ellipsoid s={s}", TriMesh(sphere.vertices * np.array([1.0, 0.8, 0.6]),
                                          sphere.faces)
    yield "icosphere s=4", icosphere(0.05, 4)
    yield from standard_fixtures().items()


def counted(fn, calls: list[int]):
    """fn, counting its calls in ``calls[0]``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    return wrapper


def counted_2d_hull(calls: list[int]):
    """``ConvexHull``, counting its calls on 2-D points in ``calls[0]``."""

    def hull(points, *args, **kwargs):
        calls[0] += np.shape(points)[-1] == 2
        return ConvexHull(points, *args, **kwargs)

    return hull


def timed(fn, spent: list[float]):
    """fn, adding the seconds its calls take to ``spent[0]``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - t0

    return wrapper


def cold_load(mesh: TriMesh) -> tuple[TriMesh, float, float, float]:
    """``mesh`` written to a temporary OBJ file and loaded back, with the
    load's read-and-parse, ``TriMesh`` construction and mass-pass
    seconds."""
    post_init, mass = TriMesh.__post_init__, vars(TriMesh)["_mass_properties"]
    construct_s, mass_s = [0.0], [0.0]
    timed_mass = functools.cached_property(timed(mass.func, mass_s))
    timed_mass.__set_name__(TriMesh, "_mass_properties")
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "mesh.obj"
        save_obj(mesh, path)
        TriMesh.__post_init__ = timed(post_init, construct_s)
        TriMesh._mass_properties = timed_mass
        try:
            t0 = time.perf_counter()
            loaded = load_mesh(path)
            load_s = time.perf_counter() - t0
        finally:
            TriMesh.__post_init__ = post_init
            TriMesh._mass_properties = mass
    return loaded, load_s - construct_s[0] - mass_s[0], construct_s[0], mass_s[0]


def main():
    new_supports, convex_hull = placements._new_supports, mesh_module.convex_hull
    calls, hulls, hulls_3d = [0], [0], [0]
    placements._new_supports = counted(new_supports, calls)
    placements.ConvexHull = mesh_module.ConvexHull = counted_2d_hull(hulls)
    mesh_module.convex_hull = counted(convex_hull, hulls_3d)
    try:
        print(f"{'mesh':<15} {'faces':>5} {'parse':>7} {'TriMesh':>7} {'mass':>6} {'hull':>11} "
              f"{'enumerate':>10} {'qhull':>5} {'first':>8} {'next 11':>8} {'builds':>13}  "
              "(ms; parse + TriMesh + mass = cold load_mesh; hull = own faces or qhull, and its "
              "part of enumerate; qhull = 2-D qhull calls in enumerate; "
              "builds = _new_supports calls: enumerate + settles)")
        for i, (name, built) in enumerate(meshes()):
            mesh, parse_s, construct_s, mass_s = cold_load(built)
            calls[0] = hulls[0] = hulls_3d[0] = 0
            t0 = time.perf_counter()
            mesh.hull
            hull_s = time.perf_counter() - t0
            placements.enumerate_stable(mesh)
            enumerate_s = time.perf_counter() - t0
            source = "qhull" if hulls_3d[0] else "own"
            enumerate_calls, enumerate_hulls = calls[0], hulls[0]
            rng = np.random.default_rng([0, i])
            calls[0] = 0
            settle_s = []
            for _ in range(DROPS):
                initial = random_rotation(rng)
                t0 = time.perf_counter()
                placements.settle(mesh, initial)
                settle_s.append(time.perf_counter() - t0)
            print(f"{name:<15} {len(mesh.faces):>5} {1e3 * parse_s:>7.2f} "
                  f"{1e3 * construct_s:>7.2f} {1e3 * mass_s:>6.2f} {source:>5} {1e3 * hull_s:>5.1f} "
                  f"{1e3 * enumerate_s:>10.1f} "
                  f"{enumerate_hulls:>5} "
                  f"{1e3 * settle_s[0]:>8.2f} {1e3 * statistics.median(settle_s[1:]):>8.3f} "
                  f"{enumerate_calls:>9} + {calls[0]}")
    finally:
        placements._new_supports, mesh_module.convex_hull = new_supports, convex_hull
        placements.ConvexHull = mesh_module.ConvexHull = ConvexHull


if __name__ == "__main__":
    main()
