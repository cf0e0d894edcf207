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


# --- per-drop settle and dataset record, frozen as they were before settle
# became a lockstep over a stack of drops: the references the batched
# routines must match bit for bit.  Self-contained, apart from the mesh's
# pivot table, the tie rule and polygon_inradius.


def _reference_random_rotation(rng):
    """Uniform random rotation via a normalized Gaussian quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _reference_support(mesh, contact):
    """Support polygon (hull-vertex indices, counter-clockwise from the
    COM's side, starting at the lowest) and inradius of a contact set."""
    from scipy.spatial import ConvexHull, QhullError

    from stableplace.placements import polygon_inradius

    if len(contact) < 3:
        return None, 0.0
    pts = mesh.hull.vertices[contact]
    mean = pts.mean(axis=0)
    _, _, vt = np.linalg.svd(pts - mean)
    uv = (pts - mean) @ vt[:2].T
    try:
        order = ConvexHull(uv).vertices
    except QhullError:
        return None, 0.0
    inr = polygon_inradius(uv[order])
    if np.cross(vt[0], vt[1]) @ (mesh.com - mean) < 0:
        order = order[::-1]
    poly = contact[order]
    return np.roll(poly, -int(np.argmin(poly))), inr


def _reference_segment_distance(p, a, b):
    ab = b - a
    denom = np.vecdot(ab, ab)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom == 0, 0.0, np.clip(np.vecdot(p - a, ab) / denom, 0.0, 1.0))
    r = p - (a + t[..., None] * ab)
    return np.sqrt(np.vecdot(r, r))


def _reference_contact_margin(xy, com_xy, contact, poly):
    if poly is not None:
        a = xy[poly]
        b = np.roll(a, -1, axis=0)
        d = b - a
        n = np.column_stack([d[:, 1], -d[:, 0]])
        ln = np.sqrt(np.vecdot(n, n))
        keep = ~(ln < 1e-15)
        a, b, n = a[keep], b[keep], n[keep] / ln[keep, None]
        s = np.vecdot(n, com_xy - a)
        if np.any(s > 0):
            return -float(_reference_segment_distance(com_xy, a, b).min())
        return float((-s).min(initial=np.inf))
    pts = xy[contact]
    if len(pts) == 0:
        return -np.inf
    if len(pts) == 1:
        return -float(np.linalg.norm(com_xy - pts[0]))
    i, j = np.triu_indices(len(pts), 1)
    return -float(_reference_segment_distance(com_xy, pts[i], pts[j]).min())


def _reference_line_axis(a2, b2):
    d = b2 - a2
    u2 = d / np.linalg.norm(d)
    return np.array([a2[0], a2[1], 0.0]), np.array([u2[0], u2[1], 0.0])


def _reference_pivot_axis(xy, com_xy, contact, poly):
    from stableplace.mesh import _nearest_edge

    if poly is not None:
        pxy = xy[poly]
        b = np.roll(pxy, -1, axis=0)
        d = b - pxy
        cross = d[:, 1] * (com_xy[0] - pxy[:, 0]) - d[:, 0] * (com_xy[1] - pxy[:, 1])
        beyond = cross / np.maximum(np.sqrt(np.vecdot(d, d)), np.finfo(float).tiny)
        idx = np.asarray(poly, dtype=np.int64)
        nxt = np.roll(idx, -1)
        pair = np.minimum(idx, nxt) * (int(idx.max()) + 1) + np.maximum(idx, nxt)
        e = int(_nearest_edge(_reference_segment_distance(com_xy, pxy, b), beyond, pair))
        return _reference_line_axis(xy[poly[e]], xy[poly[(e + 1) % len(poly)]])
    contacts_xy = xy[contact]
    if len(contacts_xy) >= 2:
        c = contacts_xy.mean(axis=0)
        if float(np.linalg.norm(contacts_xy - c, axis=1).max()) > 1e-9:
            a2 = contacts_xy.mean(axis=0)
            far = contacts_xy[np.argmax(np.linalg.norm(contacts_xy - a2, axis=1))]
            return _reference_line_axis(a2, far)
    a2 = contacts_xy[0]
    lean = com_xy - a2
    ln = np.linalg.norm(lean)
    d = lean / ln if ln > 1e-12 else np.array([1.0, 0.0])
    return np.array([a2[0], a2[1], 0.0]), np.array([-d[1], d[0], 0.0])


def _reference_drop_settle(mesh, initial, max_tips=200, margin_eps=1e-4, contact_tol=1e-6):
    """Per-drop settle: (placement, heights), or SettleDiverged raised."""
    from stableplace.placements import Placement, SettleDiverged

    hv = mesh.hull.vertices
    com_body = mesh.com
    rot = np.asarray(initial, dtype=float).copy()
    heights = []

    def check_tips():
        if len(heights) > max_tips:
            raise SettleDiverged(f"exceeded max_tips={max_tips}")

    while True:
        world = hv @ rot.T
        zmin = world[:, 2].min()
        world = world - np.array([0.0, 0.0, zmin])
        com = rot @ com_body - np.array([0.0, 0.0, zmin])
        heights.append(float(com[2]))
        contact = np.flatnonzero(world[:, 2] <= contact_tol)
        if len(contact) == 3:
            table = mesh.pivot_table
            r = table.row_of.get(tuple(contact.tolist()))
            if r is not None and table.walkable(r, contact_tol):
                while True:
                    check_tips()
                    rot = rot @ table.turn[r]
                    r = table.next[r]
                    if not table.walkable(r, contact_tol):
                        break
                    heights.append(float(table.height[r]))
                continue
        poly, inr = _reference_support(mesh, contact)
        margin = _reference_contact_margin(world[:, :2], com[:2], contact, poly)
        if margin >= margin_eps:
            com_r = rot @ com_body
            zmin_mesh = (mesh.vertices @ rot.T)[:, 2].min()
            placement = Placement(
                rotation=rot,
                translation=np.array([-com_r[0], -com_r[1], -zmin_mesh]),
                stability_margin=float(margin),
            )
            if inr > 0:
                placement.score = float(np.clip(margin / inr, 0.0, 1.0))
            return placement, heights
        check_tips()
        a, u = _reference_pivot_axis(world[:, :2], com[:2], contact, poly)
        r_com = com - a
        torque = u[0] * r_com[1] - u[1] * r_com[0]
        s = -1.0 if torque > 0 else 1.0
        rel = world - a
        a_z = rel[:, 2]
        b_z = s * (u[0] * rel[:, 1] - u[1] * rel[:, 0])
        phi = np.arctan2(np.maximum(a_z, 0.0), -b_z)
        valid = (a_z > contact_tol) & (phi > 1e-9)
        if not np.any(valid):
            raise SettleDiverged("no pivot target vertex")
        phi_star = float(phi[valid].min())
        rot = _reference_rotation_from_axis_angle(u, s * phi_star) @ rot


def _reference_plane_from_contacts(p1, p2, p3):
    from stableplace.mesh import CollinearContacts, ZeroPlaneVector

    n = np.cross(p2 - p1, p3 - p1)
    area2 = np.linalg.norm(n)
    if area2 / 2.0 <= 1e-10:
        raise CollinearContacts("contact points do not span a plane")
    n /= area2
    d = float(np.dot(n, p1))
    if abs(d) < 1e-12:
        raise ZeroPlaneVector("plane through the origin has no vector form")
    return d * n


def _reference_settle_record(object_id, mesh, initial, rng, max_tips=200):
    """Per-drop dataset record; raises SettleDiverged."""
    from stableplace.mesh import ZeroPlaneVector
    from stableplace.placements import PlacementRecord, SettleDiverged

    placement, _ = _reference_drop_settle(mesh, initial, max_tips=max_tips)
    world = mesh.hull.vertices @ placement.rotation.T + placement.translation
    poly, _ = _reference_support(mesh, np.flatnonzero(world[:, 2] <= 1e-6))
    if poly is None:
        raise SettleDiverged("stable placement with degenerate contact set")
    k = len(poly)
    triple = world[poly[[0, k // 3, (2 * k) // 3]]]
    pivot = placement.rotation @ mesh.com + placement.translation
    unstable_rotation = None
    v_gt = None
    for _ in range(100):
        r_rand = _reference_random_rotation(rng)
        rotated = pivot + (triple - pivot) @ r_rand.T
        try:
            v = _reference_plane_from_contacts(rotated[0], rotated[1], rotated[2])
        except ZeroPlaneVector:
            continue
        if np.linalg.norm(v) < 1e-6:
            continue
        unstable_rotation = r_rand @ placement.rotation
        v_gt = v
        break
    return PlacementRecord(object_id=object_id, placement=placement, contact_points=triple,
                           unstable_rotation=unstable_rotation, v_gt=v_gt)


def _reference_one_drop(object_id, mesh, seed, obj_idx, drop_idx, max_tips=200):
    """One seeded dataset drop; None when the settle diverged."""
    from stableplace.placements import SettleDiverged

    rng = np.random.default_rng([seed, obj_idx, drop_idx])
    initial = _reference_random_rotation(rng)
    try:
        return _reference_settle_record(object_id, mesh, initial, rng, max_tips=max_tips)
    except SettleDiverged:
        return None
