import numpy as np
import pytest

from stableplace import fixtures
from stableplace.mesh import TriMesh, convex_hull
from stableplace.rotations import fit_geodesic_polynomial, random_rotation


@pytest.fixture(scope="session")
def poly():
    return fit_geodesic_polynomial()


@pytest.fixture(scope="session")
def cube():
    return fixtures.unit_cube()


@pytest.fixture(scope="session")
def tetra():
    return fixtures.regular_tetrahedron()


def random_rotations(seed, n):
    rng = np.random.default_rng(seed)
    return [random_rotation(rng) for _ in range(n)]


def _reference_rotation_from_axis_angle(axis, angle):
    """Rodrigues rotation about one unit axis, with the literal skew
    matrix: the scalar form the stacked constructor must match."""
    x, y, z = np.asarray(axis, dtype=float)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _reference_rotation_between(a, b):
    """Minimal rotation taking one unit vector a onto b, case by case: the
    scalar form the stacked constructor must match."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = float(np.dot(a, b))
    if c >= 1.0 - 1e-15:
        return np.eye(3)
    if c <= -1.0 + 1e-15:
        axis = np.cross(a, [1.0, 0.0, 0.0] if abs(a[0]) < 0.9 else [0.0, 1.0, 0.0])
        return _reference_rotation_from_axis_angle(axis / np.sqrt(np.vecdot(axis, axis)),
                                                   np.pi)
    axis = np.cross(a, b)
    axis /= np.linalg.norm(axis)
    return _reference_rotation_from_axis_angle(axis, float(np.arccos(np.clip(c, -1.0, 1.0))))


def ellipsoid(subdivisions):
    """Icosphere of radius 0.05 squashed to (1, 0.8, 0.6)."""
    sphere = fixtures.icosphere(0.05, subdivisions)
    return TriMesh(sphere.vertices * np.array([1.0, 0.8, 0.6]), sphere.faces)


def flattened_ellipsoid():
    """``ellipsoid(2)`` with its six lowest vertices lifted to the highest
    of them plus 1e-3 (x^2 + y^2): a base within angle_tol of flat but not
    flat, so qhull keeps its triangles apart and the seed of their merged
    facet falls among the one-triangle facets in face order."""
    mesh = ellipsoid(2)
    v = mesh.vertices.copy()
    low = np.argsort(v[:, 2])[:6]
    v[low, 2] = v[low, 2].max() + 1e-3 * (v[low, 0] ** 2 + v[low, 1] ** 2)
    return TriMesh(v, mesh.faces)


def sheared_wedge():
    """Unit cube with its top face sheared 3 along x."""
    v = fixtures.unit_cube().vertices.copy()
    v[v[:, 2] > 0] += np.array([3.0, 0.0, 0.0])
    return TriMesh(v, fixtures.unit_cube().faces.copy())


def ngon_prism(k=32):
    """Hull of a unit-height prism over a regular k-gon."""
    ang = 2 * np.pi * np.arange(k) / k
    ring = np.column_stack([np.cos(ang), np.sin(ang)])
    pts = np.vstack(
        [np.column_stack([ring, np.zeros(k)]), np.column_stack([ring, np.ones(k)])]
    )
    return convex_hull(pts)


def drifting_arc(step, strips=12, radius=100.0):
    """Hull of a block whose top is a cylinder arc of ``strips`` flat
    strips, adjacent strips turning by ``step`` radians."""
    th = (np.arange(strips + 1) - strips / 2) * step
    x = radius * np.sin(th)
    z = -2.0 * radius * np.sin(th / 2) ** 2  # radius * (cos th - 1), accurately
    pts = [(xi, y, zi) for y in (0.0, 0.05) for xi, zi in zip(x, z)]
    pts += [(xe, y, -0.02) for xe in (x[0], x[-1]) for y in (0.0, 0.05)]
    return convex_hull(np.array(pts))
