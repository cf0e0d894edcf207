"""Analytic stable-placement engine: enumeration over convex-hull facets,
support-polygon stability checks, quasi-static tumble settling, and
dataset record generation.

Replaces physics-engine dropping with a deterministic pivot-until-stable
procedure; dynamic effects (bouncing, rolling) are out of scope.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .mesh import (
    FACET_ANGLE_TOL,
    PivotTable,
    TriMesh,
    _convex_rings,
    _coplanar_groups,
    _edge_keys,
    _edge_line_distances,
    _nearest_edge,
    _point_segment_distance,
    plane_from_contacts,
    plane_vectors,
)
from .rotations import (
    InvalidRotation,
    check_rotation,
    cross,
    quaternion_rotations,
    rotation_between,
    rotation_from_axis_angle,
)

CONTACT_TOL = 1e-6
DEFAULT_MARGIN_EPS = 1e-4
# Tips a settle takes before it diverges.
MAX_TIPS = 200
DOWN = np.array([0.0, 0.0, -1.0])


class SettleDiverged(RuntimeError):
    """Tumbling did not reach a stable pose within ``MAX_TIPS`` tips."""


def check_margin_eps(margin_eps: float) -> None:
    """Raise ValueError unless ``margin_eps`` is finite and >= 0."""
    if not (np.isfinite(margin_eps) and margin_eps >= 0):
        raise ValueError(f"margin_eps must be finite and >= 0, got {margin_eps}")


@dataclass
class Placement:
    """Resting pose: world rotation plus translation with z the resting
    height; xy is canonical (COM above the origin)."""

    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)
    stability_margin: float = 0.0
    score: float = 0.0
    type_id: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "rotation": np.asarray(self.rotation, dtype=float).ravel().tolist(),
            "translation": np.asarray(self.translation, dtype=float).tolist(),
            "stability_margin": float(self.stability_margin),
            "score": float(self.score),
            "type_id": self.type_id,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Placement":
        d = _json_object(d, "placement")
        translation = _json_array(d["translation"], "translation", (3,))
        type_id = d.get("type_id")
        if type_id is not None and (isinstance(type_id, bool) or not isinstance(type_id, int)):
            raise ValueError(f"type_id must be an integer or null, got {type_id!r}")
        return cls(
            rotation=_json_rotation(d["rotation"], "rotation"),
            translation=translation,
            stability_margin=_json_number(d.get("stability_margin", 0.0), "stability_margin"),
            score=_json_number(d.get("score", 0.0), "score"),
            type_id=type_id,
        )


def _finite_number(value) -> bool:
    """Whether ``value`` is a JSON number, not a bool, that is finite."""
    # an int past the largest float is not finite either, and no NaN is <=
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and abs(value) <= sys.float_info.max)


def _json_object(value, name: str) -> dict:
    """``value`` if it is a JSON object; raises ValueError naming ``name``."""
    if isinstance(value, dict):
        return value
    raise ValueError(f"{name} must be a JSON object, got {value!r}")


def _json_number(value, name: str) -> float:
    """``value`` as a float: a finite JSON number, not a bool; raises
    ValueError naming ``name``."""
    if _finite_number(value):
        return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def _json_array(value, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` as a float array: nested lists of exactly ``shape`` whose
    entries are all finite JSON numbers, never a string or a bool; raises
    ValueError naming ``name``."""
    array = np.array(value, dtype=object)
    if array.shape != shape or not all(map(_finite_number, array.flat)):
        size = " x ".join(map(str, shape))
        raise ValueError(f"{name} must be {size} finite numbers, got {value!r}")
    return array.astype(float)


def _json_rotation(value, name: str) -> np.ndarray:
    """``value``, 9 row-major finite JSON numbers, as a checked rotation;
    raises ValueError naming ``name``."""
    try:
        return check_rotation(_json_array(value, name, (9,)).reshape(3, 3))
    except InvalidRotation as exc:
        raise InvalidRotation(f"{name} {exc}") from None


@dataclass
class PlacementRecord:
    """One dataset row: a settled stable placement, three of its plane
    contact points, and a paired unstable pose made by rotating the
    settled pose about its world COM, with the contact plane transformed
    along (v_gt = plane_from_contacts of the rotated contacts)."""

    object_id: str
    placement: Placement
    contact_points: np.ndarray  # (3, 3), z ~ 0
    unstable_rotation: np.ndarray | None = None  # (3, 3)
    v_gt: np.ndarray | None = None  # (3,)

    def to_json_dict(self) -> dict:
        d = {"object_id": self.object_id}
        d.update(self.placement.to_json_dict())
        d["contact_points"] = np.asarray(self.contact_points, dtype=float).tolist()
        if self.unstable_rotation is not None:
            rotation = np.asarray(self.unstable_rotation, dtype=float)
            d["unstable_rotation"] = rotation.ravel().tolist()
        if self.v_gt is not None:
            d["v_gt"] = np.asarray(self.v_gt, dtype=float).tolist()
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "PlacementRecord":
        d = _json_object(d, "record")
        if not isinstance(d["object_id"], str):
            raise ValueError(f"object_id must be a string, got {d['object_id']!r}")
        return cls(
            object_id=d["object_id"],
            placement=Placement.from_json_dict(d),
            contact_points=_json_array(d["contact_points"], "contact_points", (3, 3)),
            unstable_rotation=(
                _json_rotation(d["unstable_rotation"], "unstable_rotation")
                if "unstable_rotation" in d
                else None
            ),
            v_gt=_json_array(d["v_gt"], "v_gt", (3,)) if "v_gt" in d else None,
        )


# --- 2D support-polygon helpers ----------------------------------------------


def _ring_edges(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end points a, b (G, k, 2) of the edges of the polygons
    xy (G, k, 2): edge i runs from vertex i to vertex i + 1, the last
    back to vertex 0."""
    return xy, xy[:, (np.arange(xy.shape[1]) + 1) % xy.shape[1]]


def signed_polygon_margin(p: np.ndarray, poly: np.ndarray) -> float:
    """Distance from p to the boundary of a CCW convex polygon; positive
    inside, negative outside."""
    poly = np.asarray(poly, dtype=float)
    return float(_polygon_margins(np.asarray(p, dtype=float), poly, np.roll(poly, -1, axis=0)))


def _polygon_margins(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``signed_polygon_margin`` of the points p (..., 2) against the CCW
    convex polygons whose edges run a[..., i] -> b[..., i], each (..., k, 2).
    Edges shorter than 1e-15 are skipped, as ``polygon_inradius`` skips them."""
    d = b - a
    n = np.empty_like(d)
    n[..., 0], n[..., 1] = d[..., 1], -d[..., 0]
    ln = np.sqrt(np.vecdot(n, n))
    keep = ~(ln < 1e-15)
    p = p[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.vecdot(n / ln[..., None], p - a)  # positive on the outward side
    inside = np.where(keep, -s, np.inf).min(axis=-1)
    outside = (keep & (s > 0)).any(axis=-1)
    if not outside.any():
        return inside
    dist = np.where(keep, _point_segment_distance(p, a, b), np.inf).min(axis=-1)
    return np.where(outside, -dist, inside)


def _nearest_edges(p: np.ndarray, a: np.ndarray, b: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Index of the edge a[..., i] -> b[..., i] nearest to each point p
    (..., 2), for the CCW polygons with edges a -> b, each (..., k, 2),
    whose tie keys are ``pair``, the edges' ``mesh._edge_keys``.
    Near-ties (1e-12 relative) go to the edge whose line p lies furthest
    beyond, and ties in that to the edge with the lowest sorted pair of
    vertex indices (``mesh._nearest_edge``)."""
    d = b - a
    # signed distances beyond the edge lines; a zero-length edge has 0
    cross = d[..., 1] * (p[..., None, 0] - a[..., 0]) - d[..., 0] * (p[..., None, 1] - a[..., 1])
    beyond = cross / np.maximum(np.sqrt(np.vecdot(d, d)), np.finfo(float).tiny)
    return _nearest_edge(_point_segment_distance(p[..., None, :], a, b), beyond, pair)


def polygon_inradius(poly: np.ndarray) -> float:
    """Chebyshev radius of a CCW convex polygon: the radius of its largest
    inscribed circle, 0 when no three edges bound a region.

    Edges shorter than 1e-15 are skipped.  A triangle with all three
    edges has 2 * area / perimeter.  Otherwise consecutive edges that
    turn by at most 1e-12 rad are treated as one line, and
    ``_chebyshev_radius`` solves for the radius exactly.  Many polygons
    take one pass (``_polygon_inradii``)."""
    poly = np.asarray(poly, dtype=float)
    if len(poly) < 3:
        return 0.0
    return float(_polygon_inradii(*_ring_edges(poly[None]))[0])


def _polygon_inradii(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``polygon_inradius`` of the polygons of k >= 3 vertices whose
    edges run a[g, i] -> b[g, i] (G, k, 2), as ``_ring_edges`` lays them
    out, in one array pass up to each polygon's ``_chebyshev_radius``.

    The kept edges, and then those that do not continue the line before
    them, are moved to the front of their rows in order, so that "the
    edge before" and the vertex mean are those of the compacted polygon;
    the mean sums rows padded with -0.0, which adds exactly."""
    d = b - a
    n = np.empty_like(d)
    n[..., 0], n[..., 1] = d[..., 1], -d[..., 0]
    ln = np.sqrt(np.vecdot(n, n))
    keep = ~(ln < 1e-15)
    inr = np.zeros(len(a))
    tri = keep.all(axis=1) & (a.shape[1] == 3)
    if tri.any():
        d3 = d[tri]
        r = (d3[:, 0, 0] * d3[:, 1, 1] - d3[:, 0, 1] * d3[:, 1, 0]) / ln[tri, :3].sum(axis=1)
        inr[tri] = np.where(r < 0, 0.0, r)
    rest = np.flatnonzero(~tri)
    if not len(rest):
        return inr
    i = np.arange(a.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        n = n[rest] / ln[rest, :, None]
    n, a, live = _front(keep[rest], n, a[rest])
    m = live.sum(axis=1)[:, None]
    prev = np.take_along_axis(n, np.where(i == 0, m - 1, i - 1)[..., None], axis=1)
    straight = (np.vecdot(prev, n) > 0) & (
        np.abs(prev[..., 0] * n[..., 1] - prev[..., 1] * n[..., 0]) <= 1e-12
    )
    n, a, live = _front(live & ~straight, n, a)
    m = live.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = np.where(live[..., None], a, -0.0).sum(axis=1) / m[:, None]
    offset = np.vecdot(n, a - mean[:, None])
    for g, k, n_g, b_g in zip(rest.tolist(), m.tolist(), n, offset):
        if k >= 3:
            inr[g] = _chebyshev_radius(n_g[:k], b_g[:k])
    return inr


def _front(mask: np.ndarray, *rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each of ``rows`` (G, K, 2) with the entries that ``mask`` (G, K)
    marks moved to the front of their row, in order, and the mask moved
    along."""
    pos = np.argsort(~mask, axis=1, kind="stable")
    return (*(np.take_along_axis(r, pos[..., None], axis=1) for r in rows),
            np.take_along_axis(mask, pos, axis=1))


def _chebyshev_radius(n: np.ndarray, b: np.ndarray) -> float:
    """Largest t such that some x has n @ x + t <= b, for unit normals n
    in CCW order, each turned by less than pi from the one before.

    Dual simplex over three-edge bases.  A basis is three edge lines whose
    normals positively span the plane, with weights lam = c / s >= 0
    (c the cross products of the other two normals, s their sum).  The
    circle tangent to all three has radius t = lam @ b[basis], an upper
    bound on the answer by LP duality.  Its centre, checked against every
    other edge, proves t optimal once no edge is violated by more than
    rounding.  Otherwise the most violated edge (lowest index on ties)
    enters, and the ratio test picks the line it replaces, which lowers
    t.  The new basis's sum(c) is the ratio test's positive pivot, so
    s > 0 holds throughout once it holds at the start.  Returns 0 when
    the half-planes have no common point, as for a clockwise polygon."""
    k = len(n)
    nx, ny, bl = n[:, 0].tolist(), n[:, 1].tolist(), b.tolist()

    def cross(i: int, j: int) -> float:
        return nx[i] * ny[j] - ny[i] * nx[j]

    def weights(i: int, j: int, l: int) -> tuple[float, float, float]:
        return cross(j, l), cross(l, i), cross(i, j)

    # edge 0, the last edge turned by at most pi from it and the edge after
    # that: the turns between the three are each at most pi
    j0 = int(np.flatnonzero(nx[0] * n[:, 1] - ny[0] * n[:, 0] >= 0)[-1])
    basis = [0, j0, (j0 + 1) % k]
    c = weights(*basis)
    if not sum(c) > 0:  # the edges turn clockwise: no common point
        return 0.0
    tol = 1e-14 * float(np.abs(b).max())  # rounding in the violations
    # pivots only lower t; the cap ends a rounding cycle between bases
    for _ in range(3 * k):
        i, j, l = basis
        t = (bl[i] * c[0] + bl[j] * c[1] + bl[l] * c[2]) / sum(c)
        # the centre, from the two basis lines meeting at the widest angle
        p, q = max((i, j), (j, l), (l, i), key=lambda e: abs(cross(*e)))
        det = cross(p, q)
        x = ((bl[p] - t) * ny[q] - (bl[q] - t) * ny[p]) / det
        y = ((bl[q] - t) * nx[p] - (bl[p] - t) * nx[q]) / det
        v = n @ np.array([x, y]) + (t - b)
        v[basis] = -np.inf
        m = int(np.argmax(v))
        if v[m] <= tol:
            break
        # the entering column (n_m, 1) in basis coordinates, times sum(c)
        dm = (
            c[0] + cross(l, m) + cross(m, j),
            c[1] + cross(i, m) + cross(m, l),
            c[2] + cross(j, m) + cross(m, i),
        )
        ratios = [(c[r] / dm[r], r) for r in range(3) if dm[r] > 0]
        if not ratios:  # t falls without bound: the half-planes are disjoint
            return 0.0
        basis[min(ratios)[1]] = m
        c = weights(*basis)
    return max(t, 0.0)


# --- stability -----------------------------------------------------------------


@dataclass(frozen=True)
class Support:
    """The support of a resting contact set, by hull-vertex index.

    ``contact`` holds the sorted hull-vertex indices of the set.
    ``polygon`` is its support polygon, counter-clockwise as seen from
    the COM's side of the plane (from above when the set rests on
    z = 0) and starting at the lowest index, or None for a point or
    segment support; ``inradius`` is that polygon's, 0 without one.  The
    margin and the pivot read the edges of ``_support_edges``.

    A stack of supports of one shape (``_shape``) holds one row per drop
    in every field: contacts (R, m), polygons (R, k) and inradii (R,)
    (``_stack_supports``)."""

    contact: np.ndarray
    polygon: np.ndarray | None = None
    inradius: float = 0.0


def _support_edges(support: Support) -> tuple[np.ndarray, np.ndarray]:
    """Start and end hull-vertex indices of the edges of ``support``, one
    support (m,) or a stack (R, m): the polygon's edges, each vertex to
    its successor, or without a polygon every pair of contacts (i < j)."""
    if support.polygon is not None:
        return support.polygon, np.roll(support.polygon, -1, axis=-1)
    contact = support.contact
    if contact.shape[-1] < 3:
        return contact[..., :-1], contact[..., 1:]
    i, j = np.triu_indices(contact.shape[-1], 1)
    return contact[..., i], contact[..., j]


def _shape(support: Support) -> tuple[int, int]:
    """The ring size of ``support``'s polygon, 0 without one, and its
    contact count: supports of one shape stack (``_stack_supports``)."""
    return 0 if support.polygon is None else len(support.polygon), len(support.contact)


def _stack_supports(supports: Sequence[Support], which: np.ndarray) -> Support:
    """The stack of the ``supports``, all of one shape, whose row r is
    that of ``supports[which[r]]``."""
    polygon = None if supports[0].polygon is None else np.array([s.polygon for s in supports])
    return Support(np.array([s.contact for s in supports])[which],
                   None if polygon is None else polygon[which],
                   np.array([s.inradius for s in supports])[which])


def _contact_supports(mesh: TriMesh, contacts: list[tuple[int, ...]]) -> list[Support]:
    """The ``Support`` of each resting contact set in ``contacts`` (sorted
    tuples of indices into ``mesh.hull.vertices``).  Sets of three or more
    are memoized in ``mesh.supports``; those it lacks are built together
    in one ``_new_supports`` pass."""
    memo = mesh.supports
    new = [c for c in dict.fromkeys(contacts) if len(c) >= 3 and c not in memo]
    if new:
        memo.update(zip(new, _new_supports(mesh, [np.array(c) for c in new])))
    return [memo[c] if len(c) >= 3 else Support(np.array(c, dtype=int)) for c in contacts]


def _new_supports(mesh: TriMesh, contacts: list[np.ndarray]) -> list[Support]:
    """The ``Support``s of contact sets of three or more, for the memo.

    Polygon and inradius come from a 2-D hull of the contacts projected
    onto their best-fit plane in the body frame (the SVD of the centred
    contacts), so neither depends on the pose that first asked.  Each set
    gets the bits of building it alone: the SVDs and projections are
    stacked by set size (``_by_size``), and the rings (``_convex_rings``),
    inradii and each polygon's turn to its lowest index by set and
    polygon size.  A set whose contacts span no polygon gets a point or
    segment ``Support``."""
    hv = mesh.hull.vertices
    size = np.array([len(contact) for contact in contacts])
    flip = np.zeros(len(contacts), dtype=bool)
    rings = []  # (sets, hull-vertex rings, uv rings), one polygon size each
    for k, sel in _by_size(size):
        idx = np.stack([contacts[i] for i in sel.tolist()])
        pts = hv[idx]
        mean = pts.mean(axis=1)
        _, _, vt = np.linalg.svd(pts - mean[:, None])
        uv = (pts - mean[:, None]) @ vt[:, :2].transpose(0, 2, 1)  # best-fit plane coordinates
        # qhull's order is counter-clockwise about vt[0] x vt[1]
        flip[sel] = np.vecdot(cross(vt[:, 0], vt[:, 1]), mesh.com - mean) < 0
        for rows, order in _convex_rings(uv):
            rings.append((sel[rows], np.take_along_axis(idx[rows], order, axis=1),
                          np.take_along_axis(uv[rows], order[..., None], axis=1)))
    supports: list = [None] * len(contacts)  # None: a point or segment support
    for sel, ring, uv in rings:
        m = ring.shape[1]
        inradii = _polygon_inradii(*_ring_edges(uv)).tolist()
        ring = np.where(flip[sel, None], ring[:, ::-1], ring)
        # start at the lowest index
        poly = np.take_along_axis(ring, (np.arange(m) + ring.argmin(axis=1)[:, None]) % m, axis=1)
        for i, p, inr in zip(sel.tolist(), poly, inradii):
            supports[i] = Support(contacts[i], p, inr)
    return [Support(contact) if support is None else support
            for contact, support in zip(contacts, supports)]


def _by_size(size: np.ndarray):
    """(k, indices of the entries of ``size`` equal to k), for each value k
    in ascending order: the stacks whose matrix products keep the bits of
    one product per entry, as BLAS and LAPACK may round a row differently
    in another shape."""
    for k in np.unique(size).tolist():
        yield k, np.flatnonzero(size == k)


def _gather(xy: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The plane points xy (..., V, 2) at the hull-vertex indices of one
    support's rows idx (m,), or of a stack's rows idx (R, m) for the
    poses xy (R, V, 2), one row per pose: (..., m, 2)."""
    if idx.ndim == 1:
        return xy[..., idx, :]
    return xy[np.arange(len(idx))[:, None], idx]


def _contact_margin(xy: np.ndarray, com_xy: np.ndarray, support: Support) -> np.ndarray:
    """COM-projection margins against ``support``, one support or a stack
    of one row per pose, for the plane points xy (..., V, 2), indexed by
    hull vertex, and the COM projections com_xy (..., 2): the signed
    distance to the support polygon's boundary, or minus the distance to
    the nearest contact segment or to a lone contact.  Degenerate
    supports give margin <= 0."""
    start, end = _support_edges(support)
    a, b = _gather(xy, start), _gather(xy, end)
    if support.polygon is not None:
        return _polygon_margins(com_xy, a, b)
    if start.shape[-1]:
        # segment support: the nearest of the segments between contact pairs
        return -_point_segment_distance(com_xy[..., None, :], a, b).min(axis=-1)
    if support.contact.shape[-1]:
        lean = com_xy - _gather(xy, support.contact[..., :1])[..., 0, :]
        return -np.sqrt(np.vecdot(lean, lean))
    return np.full(com_xy.shape[:-1], -np.inf)


def stability_check(
    mesh: TriMesh,
    pose: Placement,
    margin_eps: float = DEFAULT_MARGIN_EPS,
) -> tuple[bool, float]:
    """Support-polygon stability of a posed mesh.

    Stable iff the COM projection sits at least margin_eps inside the
    support polygon of the hull vertices within ``CONTACT_TOL`` of the
    plane (``_contact_supports``) and no vertex penetrates the plane by
    more than ``CONTACT_TOL``.
    """
    world = mesh.hull.vertices @ pose.rotation.T + pose.translation
    if world[:, 2].min() < -CONTACT_TOL:
        return False, -np.inf
    com = pose.rotation @ mesh.com + pose.translation
    contact = tuple(np.flatnonzero(world[:, 2] <= CONTACT_TOL).tolist())
    [support] = _contact_supports(mesh, [contact])
    margin = float(_contact_margin(world[:, :2], com[:2], support))
    return bool(margin >= margin_eps), margin


def enumerate_stable(mesh: TriMesh, margin_eps: float = DEFAULT_MARGIN_EPS) -> list[Placement]:
    """Candidate placements from merged convex-hull facets, keeping those
    whose COM projection lies at least margin_eps inside the facet's
    support polygon.  score = margin / support inradius, clamped to
    [0, 1].  Facets merge hull triangles within ``FACET_ANGLE_TOL``.

    A vectorized pre-filter first drops every one-triangle facet whose
    margin bound, the least of the COM's distances to the triangle's edge
    lines, is below margin_eps by more than 1e-9 times the hull's largest
    coordinate.  The bound is never below the margin, and that slack
    absorbs the rounding between the two computations, which grows with
    the coordinates, so every dropped facet would fail the exact check.
    Where that leaves only positive bounds (margin_eps above the slack),
    a cull (``_may_hold_com``) first drops the triangles whose COM foot
    point cannot lie inside them, and the bound is computed for the rest
    alone (``_edge_line_distances`` of those rows, with the bits of the
    full table's).  When every face is left, or the mesh's full table
    (``TriMesh.edge_distances``) is built already, the pre-filter reads
    that table.  The merged facets of ``_coplanar_groups`` and the
    surviving one-triangle facets then take one facet pass
    (``_facet_placements``).  The placements come in facet order, and
    the output equals that of checking every facet of
    ``merge_coplanar_facets`` against its rest set's ``Support``, bit for
    bit.

    The rest set of each checked facet, its sorted hull-vertex indices,
    goes into the support memo ``mesh.supports``: the sets it lacks are
    built in one pass (``_contact_supports``), so the settles that come
    to rest on a placement find its support built, and the memo travels
    with the mesh to each pool worker of ``generate_dataset``.  Raises
    ValueError unless ``margin_eps`` is finite and >= 0.
    """
    check_margin_eps(margin_eps)
    hull = mesh.hull
    normals = hull.face_normals()
    groups, lone = _coplanar_groups(hull, normals, FACET_ANGLE_TOL)
    slack = 1e-9 * float(np.abs(hull.vertices).max())
    built = "edge_distances" in vars(mesh)
    if margin_eps - slack > 0 and not built:
        lone &= _may_hold_com(hull, mesh.com, slack)
    lone = np.flatnonzero(lone)
    if built or len(lone) == len(normals):
        bound = mesh.edge_distances[lone]
    else:
        bound = _edge_line_distances(hull, normals, mesh.com, lone)
    lone = lone[~(bound.min(axis=1) < margin_eps - slack)]
    size = np.concatenate([np.array([len(group) for group in groups], dtype=int),
                           np.ones_like(lone)])
    return _facet_placements(mesh, np.concatenate([*groups, lone]), size, margin_eps)


def _may_hold_com(hull: TriMesh, com: np.ndarray, slack: float) -> np.ndarray:
    """Per hull face, whether the foot point of ``com`` on the face's plane
    may lie inside the triangle within ``slack``.

    A point inside a triangle is no farther from its corner a than the
    farther of its corners b and c, so a face is ruled out only when
    |r|^2 - (r . n)^2 > (max(|e1|, |e2|) + slack)^2, r = com - a, n its
    unit normal and e1, e2 its edges from a (``TriMesh.triangle_edges``),
    by more than 1e-12 |r|^2, far above the rounding of the left side.
    This holds for every unit n: the exact bound measures the same
    distances in the plane normal to n.  A face of zero area, whose normal
    is zero and exact bound NaN, and any NaN are kept."""
    a, e1, e2 = hull.triangle_edges
    normals, areas = hull.face_normals_and_areas
    r = com - a
    rn, rr = np.einsum("ij,ij->i", r, normals), np.einsum("ij,ij->i", r, r)
    reach = np.sqrt(np.maximum(np.einsum("ij,ij->i", e1, e1), np.einsum("ij,ij->i", e2, e2)))
    reach += slack
    return ~(rr - rn * rn > reach * reach + 1e-12 * rr) | (areas == 0)


def _facet_placements(
    mesh: TriMesh, faces: np.ndarray, size: np.ndarray, margin_eps: float
) -> list[Placement]:
    """The placements, in seed-face order, on the facets of ``mesh.hull``
    whose margin is at least margin_eps.  Facet g is made of the
    ``size[g]`` faces that come next in ``faces``, and is seeded by the
    first; its rest set is its sorted hull-vertex indices.

    Each facet gets the bits of building it alone: the area-weighted
    normal of ``mesh._facet`` and the rotation taking it down.  Its rest
    set's ``Support`` comes from the memo (``_contact_supports``, which
    builds the sets it lacks in one pass); the margin is that of the
    posed support polygon, and the score divides it by the support's
    inradius.  A facet without a polygon is dropped.  The normals' sums
    are stacked by face count and the posed polygons and their margins
    by polygon size (``_by_size``), so no stack is padded."""
    hull = mesh.hull
    normals, areas = hull.face_normals_and_areas
    start = np.cumsum(size) - size
    n = np.empty((len(size), 3))
    for k, sel in _by_size(size):
        group = faces[start[sel, None] + np.arange(k)]
        n[sel] = (areas[group, None] * normals[group]).sum(axis=1)
    n /= np.sqrt(np.vecdot(n, n))[:, None]
    # each facet's sorted vertex indices, np.unique of its faces
    n_vertices = len(hull.vertices)
    owner = np.repeat(np.arange(len(size)), 3 * size)
    corners = hull.faces[faces].ravel()
    owner, vertex = np.divmod(np.unique(owner * n_vertices + corners), n_vertices)
    vertex, ends = vertex.tolist(), np.cumsum(np.bincount(owner, minlength=len(size))).tolist()
    supports = _contact_supports(
        mesh, [tuple(vertex[a:b]) for a, b in zip([0] + ends[:-1], ends)])
    count = np.array([0 if support.polygon is None else len(support.polygon)
                      for support in supports])
    rot = rotation_between(n, DOWN)
    com_xy = (rot @ mesh.com)[:, :2]
    margin = np.full(len(size), -np.inf)  # no polygon: never rests
    for k, sel in _by_size(count):
        if k:
            ring = np.stack([supports[g].polygon for g in sel.tolist()])
            xy = (hull.vertices[ring] @ rot[sel].transpose(0, 2, 1))[:, :, :2]
            margin[sel] = _polygon_margins(com_xy[sel], *_ring_edges(xy))
    rests = np.flatnonzero(~(margin < margin_eps))
    rests = rests[np.argsort(faces[start[rests]])]
    return _resting(mesh, rot[rests], margin[rests].tolist(),
                    [supports[g].inradius for g in rests.tolist()])


# --- quasi-static settling -------------------------------------------------------


def _pivot_axis(
    xy: np.ndarray, com_xy: np.ndarray, support: Support
) -> tuple[np.ndarray, np.ndarray]:
    """Pivot lines (points a, unit horizontal directions u), each (..., 3),
    for unstable resting poses on ``support``, one support or a stack of
    one row per pose, with the plane points xy (..., V, 2), indexed by
    hull vertex, and COM projections com_xy (..., 2)."""
    if support.polygon is not None:
        start, end = _support_edges(support)
        a2, b2 = _gather(xy, start), _gather(xy, end)
        e = _nearest_edges(com_xy, a2, b2, _edge_keys(start, end, xy.shape[-2]))
        return _line_axis(_take_rows(a2, e), _take_rows(b2, e))
    pts = _gather(xy, support.contact)
    if pts.shape[-2] >= 2:
        # segment support: pivot about the contact line, from the
        # contacts' mean to the contact furthest from it
        mid = pts.mean(axis=-2)
        spread = np.linalg.norm(pts - mid[..., None, :], axis=-1)
        far = _take_rows(pts, spread.argmax(axis=-1))
        segment = spread.max(axis=-1) > 1e-9
        if segment.all():
            return _line_axis(mid, far)
    # point support: pivot about the horizontal perpendicular to the lean
    # direction
    a2 = pts[..., 0, :]
    lean = com_xy - a2
    ln = np.sqrt(np.vecdot(lean, lean))[..., None]
    # (1, 0) for a COM above the contact
    d = np.divide(lean, ln, out=np.broadcast_to([1.0, 0.0], lean.shape).copy(),
                  where=ln > 1e-12)
    a = np.zeros(lean.shape[:-1] + (3,))
    u = np.zeros_like(a)
    a[..., :2] = a2
    u[..., 0], u[..., 1] = -d[..., 1], d[..., 0]
    if pts.shape[-2] >= 2 and segment.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            a_seg, u_seg = _line_axis(mid, far)
        segment = segment[..., None]
        return np.where(segment, a_seg, a), np.where(segment, u_seg, u)
    return a, u


def _take_rows(q: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Row e of the rows q (k, 2), or row e[i] of each q[i] for a stack q
    (n, k, 2) and e (n,)."""
    return q[e] if np.ndim(e) == 0 else q[np.arange(len(e)), e]


def _line_axis(a2: np.ndarray, b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivot lines through the plane points a2 and b2 (..., 2), directed
    a2 -> b2."""
    d = b2 - a2
    a = np.zeros(d.shape[:-1] + (3,))
    u = np.zeros_like(a)
    a[..., :2] = a2
    u[..., :2] = d / np.sqrt(np.vecdot(d, d))[..., None]
    return a, u


def settle(
    mesh: TriMesh,
    initial: np.ndarray,
    margin_eps: float = DEFAULT_MARGIN_EPS,
    return_trace: bool = False,
):
    """Lower the mesh onto the plane under ``initial`` and pivot about
    support edges until the COM projection enters the support polygon.

    The contacts are the hull vertices within ``CONTACT_TOL`` of the
    plane.  Each pivot rotates about the support edge nearest the COM
    projection by the smallest angle that brings a new hull vertex into
    contact.  When the COM projection is nearest a support vertex, both
    edges at it are equally near, and the pivot is the one whose line the
    projection lies furthest beyond (``_nearest_edges``), so the COM
    height is non-increasing across pivots.  Any tie left goes to the
    edge with the lowest sorted pair of hull-vertex indices, in the
    rolling graph and the world-frame path alike, so the settled
    placement type does not depend on the frame: turning ``initial``
    about z changes nothing but rounding.

    When the contacts are exactly the vertices of one hull triangle that
    the mesh's rolling graph (``TriMesh.pivot_table``, built here on first
    use) marks walkable, the COM lies strictly beyond the triangle's
    pivot edge, and the roll lands on the triangle across it.  Settle
    then walks the graph in the body frame: ``rot = rot @ turn[r]`` and
    ``r = next[r]`` per tip, with the trace height ``height[r]``, for as
    long as the landed row is walkable too (COM beyond its pivot edge
    and every other vertex more than ``CONTACT_TOL`` above its plane, so
    it alone would touch).  Walked tips count toward ``MAX_TIPS``.  When
    the walk stops, the contacts are derived again from the posed hull.
    Point, segment and polygon supports, and one triangle whose COM lies
    inside it but within ``margin_eps`` of an edge, take the world-frame
    pivot above, on the edges of the contact set's ``Support``
    (``_support_edges``).  A set of three or more contacts reads its
    support from the mesh's memo (``_contact_supports``), so each is
    built once, the rest set of every facet ``enumerate_stable`` checks
    by it.  Many drops of one mesh settle faster together
    (``settle_batch``).

    The score of the stable Placement is its margin over the memo's
    inradius, clamped to [0, 1].  Returns the stable Placement; with
    return_trace=True also returns the list of COM heights after each
    drop and tip.  Raises SettleDiverged past ``MAX_TIPS`` tips or when
    no vertex can come down.  Past ``MAX_TIPS`` on a mesh where no hull
    facet's margin reaches margin_eps, the message says so and names the
    largest facet margin (``_explain_tips``).
    """
    heights: list[float] = []
    hv, com_body = mesh.hull.vertices, mesh.com
    rot = np.array(initial, dtype=float)
    try:
        while True:
            world = hv @ rot.T
            zmin = world[:, 2].min()
            world[:, 2] -= zmin
            com = rot @ com_body
            com[2] -= zmin
            heights.append(float(com[2]))
            contact = tuple(np.flatnonzero(world[:, 2] <= CONTACT_TOL).tolist())
            r = _walkable_row(mesh, contact)
            if r is not None:
                rot = _walk(mesh.pivot_table, r, rot, heights)
                continue
            [support] = _contact_supports(mesh, [contact])
            margin = float(_contact_margin(world[:, :2], com[:2], support))
            if margin >= margin_eps:
                break
            _check_tips(heights)
            a, u = _pivot_axis(world[:, :2], com[:2], support)
            turn, stuck = _pivot_turns(world, com, a, u)
            if stuck:
                raise SettleDiverged("no pivot target vertex")
            rot = turn @ rot
    except SettleDiverged as exc:
        raise _explain_tips(mesh, [exc], margin_eps)[0] from None
    placement = _resting(mesh, rot[None], [margin], [support.inradius])[0]
    return (placement, heights) if return_trace else placement


# Drops times mesh vertices per lockstep block: bounds the (drops,
# vertices, 3) arrays that settle_batch and settle_records hold at once.
_SETTLE_BLOCK = 2**16


def settle_batch(
    mesh: TriMesh,
    initials: np.ndarray,
    margin_eps: float = DEFAULT_MARGIN_EPS,
    return_trace: bool = False,
):
    """``settle`` of every drop from the initial rotations ``initials``
    (N, 3, 3): one outcome per drop, in order, either its stable
    Placement or the SettleDiverged it met, which leaves the other drops
    alone.  With return_trace=True also returns each drop's list of COM
    heights.  Every outcome has the bits ``settle`` gives the drop alone,
    and a drop past ``MAX_TIPS`` gets the message ``settle`` would raise.

    The drops run in lockstep, in blocks of at most ``_SETTLE_BLOCK``
    drops times mesh vertices, so memory stays bounded for large meshes
    or drop counts.  Per iteration a block's active drops share one
    stacked hull transform, lowering and contact mask, whose rows are
    grouped by sorted contact set (``_contact_groups``).  A group on a
    walkable triangle walks the rolling graph one drop at a time.  Every
    other group looks its ``Support`` up once; the supports not yet in
    the memo are built together first (``_contact_supports``).  Groups
    whose supports have one shape (``_shape``) stack their supports'
    index rows, one row per drop (``_stack_supports``), and take one
    margin pass and one pivot pass per shape, not one per contact set.
    Then one stacked pass finds every pivoting drop's angle and turns
    it."""
    initials = np.asarray(initials, dtype=float).reshape(-1, 3, 3)
    outcomes, traces = [], []
    for block in _blocks(mesh, len(initials)):
        got, heights, _ = _settle_block(mesh, initials[block], margin_eps)
        outcomes += got
        traces += heights
    outcomes = _explain_tips(mesh, outcomes, margin_eps)
    return (outcomes, traces) if return_trace else outcomes


def _explain_tips(mesh: TriMesh, outcomes: list, margin_eps: float) -> list:
    """``outcomes``, in which every drop past ``MAX_TIPS`` gets a
    SettleDiverged that names margin_eps and the largest hull facet
    margin when no facet's margin reaches margin_eps.  The facets are
    enumerated only when some drop went past ``MAX_TIPS``."""
    past = f"exceeded max_tips={MAX_TIPS}"
    over = [isinstance(o, SettleDiverged) and str(o) == past for o in outcomes]
    if not any(over):
        return outcomes
    margins = [p.stability_margin for p in enumerate_stable(mesh, 0.0)]
    if margins and max(margins) >= margin_eps:
        return outcomes
    largest = f"is {max(margins):.3g}" if margins else "is below 0"
    exc = SettleDiverged(
        f"{past}: no hull facet reaches margin_eps={margin_eps:g}; "
        f"the largest facet margin {largest}"
    )
    return [exc if o else outcome for o, outcome in zip(over, outcomes)]


def _blocks(mesh: TriMesh, n: int) -> list[slice]:
    """Slices of n drops in blocks of at most ``_SETTLE_BLOCK`` drops
    times mesh vertices (at least one drop)."""
    step = max(1, _SETTLE_BLOCK // max(len(mesh.vertices), len(mesh.hull.vertices)))
    return [slice(i, i + step) for i in range(0, n, step)]


def _contact_groups(touch: np.ndarray) -> dict[tuple[int, ...], list[int]]:
    """The rows of the (n, V) contact mask ``touch`` by contact set: each
    sorted set of contact indices, as a tuple, maps to the ascending rows
    that hold it, in order of first appearance.  One ``np.nonzero``,
    split per row."""
    _, cols = np.nonzero(touch)
    flat = cols.tolist()
    ends = np.cumsum(np.count_nonzero(touch, axis=1)).tolist()
    groups: dict[tuple[int, ...], list[int]] = {}
    for j, (start, end) in enumerate(zip([0] + ends[:-1], ends)):
        groups.setdefault(tuple(flat[start:end]), []).append(j)
    return groups


def _settle_block(
    mesh: TriMesh, initials: np.ndarray, margin_eps: float
) -> tuple[list, list[list[float]], list[Support | None]]:
    """Outcomes and traces of the drops from ``initials`` (n, 3, 3), for
    ``settle_batch``, and the ``Support`` each stable drop rested on (None
    for a diverged drop), for ``settle_records``."""
    traces: list[list[float]] = [[] for _ in initials]
    hv, com_body = mesh.hull.vertices, mesh.com
    rots = initials.copy()
    outcomes: list = [None] * len(rots)
    supports: list = [None] * len(rots)
    active = np.arange(len(rots))
    while len(active):
        rot = rots[active]
        world = hv @ rot.transpose(0, 2, 1)
        zmin = world[:, :, 2].min(axis=1)
        world[:, :, 2] -= zmin[:, None]
        com = rot @ com_body
        com[:, 2] -= zmin
        for i, h in zip(active.tolist(), com[:, 2].tolist()):
            traces[i].append(h)
        groups = _contact_groups(world[:, :, 2] <= CONTACT_TOL)
        going = np.ones(len(active), dtype=bool)
        off_graph = []
        for contact, rows in groups.items():
            r = _walkable_row(mesh, contact)
            if r is None:
                off_graph.append(contact)
                continue
            for j in rows:
                i = active[j]
                try:
                    rots[i] = _walk(mesh.pivot_table, r, rots[i], traces[i])
                except SettleDiverged as exc:
                    outcomes[i], going[j] = exc, False
        shapes: dict[tuple[bool, int, int], list] = {}  # (support, rows) per shape
        for contact, support in zip(off_graph, _contact_supports(mesh, off_graph)):
            shapes.setdefault(_shape(support), []).append((support, groups[contact]))
        stable: list[tuple[int, float, float, Support]] = []  # (row, margin, inradius, support)
        pivots = []  # (rows, world, com, a, u) per shape
        for bucket in shapes.values():
            sets, row_lists = zip(*bucket)
            rows = np.concatenate(row_lists)
            which = np.repeat(np.arange(len(sets)), [len(r) for r in row_lists])
            support = _stack_supports(sets, which)
            # one set holding every active drop takes the arrays without a copy
            posed, at = ((world, com) if len(rows) == len(active) and len(bucket) == 1
                         else (world[rows], com[rows]))
            margin = _contact_margin(posed[..., :2], at[..., :2], support)
            rests = margin >= margin_eps
            stable += zip(rows[rests].tolist(), margin[rests].tolist(),
                          support.inradius[rests].tolist(),
                          [sets[k] for k in which[rests].tolist()])
            tips = ~rests
            for k in np.flatnonzero(tips).tolist():
                i = active[rows[k]]
                try:
                    _check_tips(traces[i])
                except SettleDiverged as exc:
                    outcomes[i], tips[k] = exc, False
            going[rows[~tips]] = False
            if not tips.all():
                rows, posed, at = rows[tips], posed[tips], at[tips]
                support = _stack_supports(sets, which[tips])
            if len(rows):
                pivots.append((rows, posed, at,
                               *_pivot_axis(posed[..., :2], at[..., :2], support)))
        if stable:
            rows, margins, inradii, rested = zip(*stable)
            for j, placement, support in zip(
                rows, _resting(mesh, rot[list(rows)], margins, inradii), rested
            ):
                outcomes[active[j]], supports[active[j]] = placement, support
        if pivots:
            rows, posed, at, a, u = (
                pivots[0] if len(pivots) == 1 else (np.concatenate(p) for p in zip(*pivots))
            )
            turn, stuck = _pivot_turns(posed, at, a, u)
            turned = rows[~stuck]
            rots[active[turned]] = turn[~stuck] @ rot[turned]
            for j in rows[stuck].tolist():
                outcomes[active[j]] = SettleDiverged("no pivot target vertex")
            going[rows[stuck]] = False
        active = active[going]
    return outcomes, traces, supports


def _walkable_row(mesh: TriMesh, contact: tuple[int, ...]) -> int | None:
    """The rolling-graph row to walk from when the contacts ``contact``
    (sorted hull-vertex indices) are one walkable hull triangle, else
    None."""
    if len(contact) != 3:
        return None
    table = mesh.pivot_table
    r = table.row_of.get(contact)
    return r if r is not None and table.walkable(r, CONTACT_TOL) else None


def _pivot_turns(
    world: np.ndarray, com: np.ndarray, a: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For poses ``world`` (..., V, 3) with COMs ``com`` (..., 3) pivoting
    about the lines (a, u), each (..., 3): the turns (..., 3, 3) by the
    smallest angle that brings a hull vertex down to the plane, and
    whether no vertex strictly above the plane can come down."""
    r_com = com - a
    s = np.where(u[..., 0] * r_com[..., 1] - u[..., 1] * r_com[..., 0] > 0, -1.0, 1.0)
    # smallest rotation bringing a new vertex down to the plane:
    # vertex z under the pivot is A cos(phi) + B sin(phi)
    rel = world - a[..., None, :]
    a_z = rel[..., 2]
    b_z = s[..., None] * (u[..., 0, None] * rel[..., 1] - u[..., 1, None] * rel[..., 0])
    phi = np.arctan2(np.maximum(a_z, 0.0), -b_z)
    # only vertices strictly above the plane can become the new contact
    valid = (a_z > CONTACT_TOL) & (phi > 1e-9)
    stuck = ~valid.any(axis=-1)
    phi_star = np.where(stuck, 0.0, np.where(valid, phi, np.inf).min(axis=-1))
    return rotation_from_axis_angle(u, s * phi_star), stuck


def _resting(
    mesh: TriMesh, rot: np.ndarray, margins: tuple[float, ...], inradii: tuple[float, ...]
) -> list[Placement]:
    """Stable placements under the rotations ``rot`` (n, 3, 3), with their
    margins, scored against their supports' inradii: margin / inradius
    clamped to [0, 1], one clip for them all, and 0 without a positive
    inradius.  The lowest mesh vertices are found in blocks of at most
    ``_SETTLE_BLOCK`` rotations times vertices."""
    com = rot @ mesh.com
    translation = np.negative(com)
    for block in _blocks(mesh, len(rot)):
        posed = mesh.vertices @ rot[block].transpose(0, 2, 1)
        translation[block, 2] = -posed[:, :, 2].min(axis=1)
    inradii = np.asarray(inradii, dtype=float)
    positive = inradii > 0
    score = np.zeros(len(rot))
    score[positive] = np.clip(np.asarray(margins, dtype=float)[positive] / inradii[positive],
                              0.0, 1.0)
    return [Placement(rotation=r, translation=t, stability_margin=margin, score=sc)
            for r, t, margin, sc in zip(rot, translation, margins, score.tolist())]


def _walk(table: PivotTable, r: int, rot: np.ndarray, heights: list[float]) -> np.ndarray:
    """Pose after rolling from the walkable row r, resting under ``rot``,
    along the rolling graph until it lands on a row that is not walkable.
    Appends the height of every landing but the last, which the caller
    derives from the posed hull."""
    while True:
        _check_tips(heights)
        rot = rot @ table.turn[r]
        r = table.next[r]
        if not table.walkable(r, CONTACT_TOL):
            return rot
        heights.append(float(table.height[r]))


def _check_tips(heights: list[float]) -> None:
    """Raise SettleDiverged when the trace already holds ``MAX_TIPS`` tips."""
    if len(heights) > MAX_TIPS:
        raise SettleDiverged(f"exceeded max_tips={MAX_TIPS}")


# --- dataset generation -------------------------------------------------------------


# generate_dataset starts at most one worker process per this many drops.
_DROPS_PER_WORKER = 16
# Random rotations tried per record for an unstable pose.
_UNSTABLE_TRIES = 100


@dataclass
class DatasetResult:
    records: list[PlacementRecord]
    diverged: dict[str, int]


def settle_records(
    object_id: str,
    mesh: TriMesh,
    initials: np.ndarray,
    rngs: list[np.random.Generator],
    margin_eps: float = DEFAULT_MARGIN_EPS,
) -> list[PlacementRecord | None]:
    """Settle the drops from ``initials`` (N, 3, 3), each capped at
    ``MAX_TIPS`` tips and resting once its margin reaches margin_eps, and
    build a dataset record for each; None for a drop whose settle
    diverged or came to rest with no support polygon.  Drop i draws its
    unstable pose from its own Generator ``rngs[i]``.

    A record holds the placement, three contact points (vertices 0, k // 3
    and 2k // 3 of the k-gon support polygon) and a paired unstable pose:
    the first random rotation about the world COM that leaves the rotated
    contacts' plane (``plane_from_contacts``) at least 1e-6 from the
    origin, of at most ``_UNSTABLE_TRIES``.  Each block of drops settles
    as in ``settle_batch``, one margin pass and one pivot pass per support
    shape and iteration, and each stable drop keeps the ``Support`` the
    lockstep found it resting on, so its polygon gives the corners with
    no second contact pass.  One stacked pass poses the hulls under the
    placements and one gather takes every drop's contact triple; then
    one stacked pass per try runs over the drops whose tries have all
    failed so far."""
    records: list[PlacementRecord | None] = []
    initials = np.asarray(initials, dtype=float).reshape(-1, 3, 3)
    for block in _blocks(mesh, len(initials)):
        outcomes, _, supports = _settle_block(mesh, initials[block], margin_eps)
        records += _block_records(object_id, mesh, outcomes, supports, rngs[block])
    return records


def _block_records(
    object_id: str, mesh: TriMesh, outcomes: list, supports: list,
    rngs: list[np.random.Generator],
) -> list[PlacementRecord | None]:
    """``settle_records`` of one block, from its ``_settle_block``
    outcomes and the supports its drops rested on."""
    records: list[PlacementRecord | None] = [None] * len(outcomes)
    drops = [i for i, s in enumerate(supports) if s is not None and s.polygon is not None]
    if not drops:
        return records
    polygons = [supports[i].polygon for i in drops]
    corners = np.array([poly[[0, len(poly) // 3, 2 * len(poly) // 3]] for poly in polygons])
    rest = np.stack([outcomes[i].rotation for i in drops])
    shift = np.stack([outcomes[i].translation for i in drops])
    world = mesh.hull.vertices @ rest.transpose(0, 2, 1) + shift[:, None, :]
    triple = world[np.arange(len(drops))[:, None], corners]
    pivot = (rest @ mesh.com + shift)[:, None, :]
    poses: list = [None] * len(drops)
    planes: list = [None] * len(drops)
    pending = np.arange(len(drops))
    for _ in range(_UNSTABLE_TRIES):
        if not len(pending):
            break
        turn = quaternion_rotations(np.stack([rngs[drops[n]].normal(size=4)
                                              for n in pending.tolist()]))
        at = pivot[pending]
        rotated = at + (triple[pending] - at) @ turn.transpose(0, 2, 1)
        v, spans, off_origin = plane_vectors(rotated[:, 0], rotated[:, 1], rotated[:, 2])
        if not spans.all():
            plane_from_contacts(*rotated[np.argmin(spans)])  # raises CollinearContacts
        held = off_origin & ~(np.sqrt(np.vecdot(v, v)) < 1e-6)
        for n, pose, v_gt in zip(pending[held].tolist(), turn[held] @ rest[pending[held]],
                                 v[held]):
            poses[n], planes[n] = pose, v_gt
        pending = pending[~held]
    for n, i in enumerate(drops):
        records[i] = PlacementRecord(
            object_id=object_id,
            placement=outcomes[i],
            contact_points=triple[n],
            unstable_rotation=poses[n],
            v_gt=planes[n],
        )
    return records


def generate_dataset(
    meshes: list[tuple[str, TriMesh]],
    drops_per_object: int,
    seed: int,
    workers: int = 1,
    margin_eps: float = DEFAULT_MARGIN_EPS,
) -> DatasetResult:
    """Settle ``drops_per_object`` seeded random orientations per object,
    each capped at ``MAX_TIPS`` tips and resting once its margin reaches
    margin_eps (``settle_records``).

    Each drop draws from NumPy's ``default_rng([seed, object index, drop
    index])`` stream, so record order and content are independent of
    ``workers``; diverged settles are skipped and counted.  A batch's
    streams are seeded in one array pass that reproduces ``SeedSequence``
    (``_drop_generators``), and a test pins each stream's state to
    ``default_rng``'s, so a NumPy release that changed the hash fails
    Tier-1 instead of moving the dataset's bytes.  ``seed`` must be a
    Python or NumPy integer >= 0; it is checked before any drop settles.
    With one worker each object's drops are settled as one
    ``settle_records`` batch in this process.  Otherwise the pool starts
    at most one worker per ``_DROPS_PER_WORKER`` drops, and worker w gets
    one task: the jobs ``jobs[w::workers]``, a round-robin share of every
    object's drops, settled as one batch per object.  So a heavy mesh is
    split across the workers, each worker receives the meshes once, and
    the shares come back into job order.  Either way a batch runs in
    blocks that bound its memory (``_SETTLE_BLOCK``).
    """
    if drops_per_object < 1:
        raise ValueError("drops_per_object must be >= 1")
    seed = _seed_index(seed, "seed")
    jobs = [
        (obj_idx, drop_idx)
        for obj_idx in range(len(meshes))
        for drop_idx in range(drops_per_object)
    ]
    workers = min(workers, -(-len(jobs) // _DROPS_PER_WORKER))
    if workers <= 1:
        results = _run_drops(meshes, seed, margin_eps, jobs)
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays for the import

        shares = [jobs[w::workers] for w in range(workers)]
        results = [None] * len(jobs)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(_run_drops, [meshes] * workers, [seed] * workers,
                             [margin_eps] * workers, shares)
            for w, part in enumerate(parts):
                results[w::workers] = part
    records: list[PlacementRecord] = []
    diverged = {object_id: 0 for object_id, _ in meshes}
    for (obj_idx, _), rec in zip(jobs, results):
        if rec is None:
            diverged[meshes[obj_idx][0]] += 1
        else:
            records.append(rec)
    return DatasetResult(records=records, diverged=diverged)


def _run_drops(meshes, seed: int, margin_eps: float, jobs: list[tuple[int, int]]):
    """Records of the (object index, drop index) jobs, one batch per run
    of jobs on the same object."""
    results = []
    for obj_idx, run in groupby(jobs, key=lambda job: job[0]):
        object_id, mesh = meshes[obj_idx]
        drops = [drop_idx for _, drop_idx in run]
        results += _drop_records(object_id, mesh, seed, obj_idx, drops, margin_eps)
    return results


def _drop_records(
    object_id: str, mesh: TriMesh, seed: int, obj_idx: int, drops: list[int],
    margin_eps: float,
) -> list[PlacementRecord | None]:
    """Records of the seeded drops ``drops`` of one object."""
    rngs = _drop_generators(seed, obj_idx, drops)
    initials = quaternion_rotations(np.stack([rng.normal(size=4) for rng in rngs]))
    return settle_records(object_id, mesh, initials, rngs, margin_eps)


def _seed_index(value, name: str) -> int:
    """``value`` as an int: a Python or NumPy integer >= 0 (True counts
    as 1), what ``np.random.default_rng`` takes as an integer seed."""
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be a non-negative integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value}")
    return int(value)


def _drop_generators(seed: int, obj_idx: int, drops: list[int]) -> list[np.random.Generator]:
    """``np.random.default_rng([seed, obj_idx, drop])`` for each drop (a
    Python int >= 0), the same streams bit for bit.  ``SeedSequence``
    reads that list as the little-endian 32-bit words of each int in
    turn (one word 0 for 0); the drops whose words are as many are hashed
    together in one ``_seed_states`` pass, and each ``PCG64`` takes its
    drop's precomputed state."""
    ints = _seed_index(seed, "seed"), _seed_index(obj_idx, "obj_idx")
    prefix = b"".join([x.to_bytes(4 * _word_count(x), "little") for x in ints])
    if drops and min(drops) < 0:
        raise ValueError(f"drop indices must be non-negative, got {min(drops)}")
    counts = [_word_count(drop) for drop in drops]
    rngs: list[np.random.Generator] = [None] * len(drops)
    for count in set(counts):
        rows = [i for i, c in enumerate(counts) if c == count]
        entropy = b"".join([prefix + drops[i].to_bytes(4 * count, "little") for i in rows])
        states = _seed_states(np.frombuffer(entropy, "<u4").reshape(len(rows), -1))
        for i, state in zip(rows, states):
            rngs[i] = np.random.Generator(np.random.PCG64(_SeedState(state)))
    return rngs


def _word_count(x: int) -> int:
    """How many 32-bit words ``SeedSequence`` reads from an int >= 0: one
    for 0."""
    return (x.bit_length() + 31) // 32 or 1


# numpy.random.SeedSequence's hash: a pool of 4 uint32 words, each entropy
# word and pool word hashed with a running constant (A while mixing, B
# while drawing the state), and pairs of words mixed with two multipliers.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_OTHER_WORDS = [[j for j in range(_POOL) if j != i] for i in range(_POOL)]


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` of each row of
    the (n, L) uint32 entropy words: the seed state ``PCG64`` reads.  The
    hash's constants depend only on L, so each step of ``SeedSequence``'s
    loops runs once over a column of all n rows, the steps that read one
    pool word into the others together."""
    n, length = entropy.shape
    a = _hash_constants(_INIT_A, _MULT_A, _POOL * max(length, _POOL))
    pool = np.zeros((n, _POOL), dtype=np.uint32)
    pool[:, :length] = entropy[:, :_POOL]
    pool = _hashmix(pool, a, 0, _POOL)
    k = _POOL
    for src, dst in enumerate(_OTHER_WORDS):
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], a, k, _POOL - 1))
        k += _POOL - 1
    for src in range(_POOL, length):  # entropy beyond the pool
        pool = _mix(pool, _hashmix(entropy[:, src, None], a, k, _POOL))
        k += _POOL
    state = _hashmix(np.tile(pool, 2), _HASH_B, 0, 8)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The running hash constant before each of n hashes and after the
    last: init·multⁱ mod 2³² for i = 0, ..., n."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


def _hashmix(value: np.ndarray, consts: np.ndarray, k: int, n: int) -> np.ndarray:
    """Hashes k, ..., k + n - 1 of a running constant, one per column of
    ``value`` broadcast to n columns."""
    value = (value ^ consts[k:k + n]) * consts[k + 1:k + n + 1]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> 16)


# The constants of the eight hashes that draw PCG64's 4 uint64 state words.
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)


class _SeedState(ISeedSequence):
    """Hands ``PCG64`` one drop's precomputed ``_seed_states`` row."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise NotImplementedError("only PCG64's seed state is precomputed")
        return self.state


def generate_one_drop(
    object_id: str, mesh: TriMesh, seed: int, obj_idx: int, drop_idx: int
) -> PlacementRecord | None:
    """One dataset drop; None when the settle diverged."""
    return _drop_records(object_id, mesh, seed, obj_idx, [drop_idx], DEFAULT_MARGIN_EPS)[0]
