"""Triangle meshes: OBJ loading, mass properties, convex hulls, facet
merging, surface sampling, and auxiliary-plane geometry.

Vertices and point clouds are (N, 3) float arrays in meters; point order
is preserved through every transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .rotations import (
    _any_perpendicular,
    angle_between,
    rot_x,
    rotation_between,
    rotation_from_axis_angle,
)


class MeshParseError(ValueError):
    """OBJ file missing or unparseable."""


class DegenerateMesh(ValueError):
    """Mesh has no surface area."""


class DegenerateHull(ValueError):
    """Points are coplanar or fewer than 4."""


class CollinearContacts(ValueError):
    """Three contact points do not span a plane."""


class ZeroPlaneVector(ValueError):
    """Plane passes through the origin and has no vector representation."""


@dataclass
class TriMesh:
    """Triangle mesh with its uniform-density volume and COM.

    Treated as immutable after construction: its edge index (built with
    it), its triangle edge vectors, face normals, areas and area CDF, its
    convex hull, the COM's distances to the hull's edge lines, its pivot
    table and the support polygons of its resting contact sets are cached
    on first use, so changing ``vertices`` or ``faces`` in place leaves
    them stale.  The cached arrays are read-only.
    """

    vertices: np.ndarray  # (N, 3)
    faces: np.ndarray  # (F, 3) int
    com: np.ndarray = field(init=False)
    volume: float = field(init=False)
    centroid_fallback: bool = field(init=False, default=False)
    source: str | None = field(init=False, default=None)  # set by load_mesh

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.faces = np.asarray(self.faces, dtype=int)
        if self.faces.size and (
            self.faces.min() < 0 or self.faces.max() >= len(self.vertices)
        ):
            raise MeshParseError("face index out of range")
        self._compute_mass_properties()

    def _compute_mass_properties(self):
        v = self.vertices
        f = self.faces
        a, b, c = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
        # huge coordinates overflow to inf or nan: checked at the end
        # instead of warned about on the way
        with np.errstate(over="ignore", invalid="ignore"):
            cross = np.cross(b - a, c - a)
            areas = 0.5 * np.linalg.norm(cross, axis=1)
            area = areas.sum()
            if area < 1e-12:
                raise DegenerateMesh("mesh has zero surface area")
            # signed tetrahedra against the origin (divergence theorem)
            dets = np.einsum("ij,ij->i", a, np.cross(b, c))
            vol = dets.sum() / 6.0
            if self._is_watertight() and abs(vol) > 1e-12:
                centroids = (a + b + c) / 4.0  # tetra centroid, apex at origin
                com = (dets[:, None] * centroids).sum(axis=0) / (6.0 * vol)
                if vol < 0:  # inward winding
                    vol = -vol
                self.volume = float(vol)
                self.com = com
            else:
                # open mesh: area-weighted surface centroid
                self.centroid_fallback = True
                self.volume = float(abs(vol))
                tri_centroids = (a + b + c) / 3.0
                self.com = (areas[:, None] * tri_centroids).sum(axis=0) / area
        if not (
            np.isfinite(area) and np.isfinite(self.volume) and np.isfinite(self.com).all()
        ):
            raise DegenerateMesh(
                "area, volume or centre of mass overflows: coordinates too large"
            )

    def _is_watertight(self) -> bool:
        """Every undirected edge is shared by exactly two faces."""
        return self.edges.closed

    @cached_property
    def edges(self) -> "EdgeIndex":
        """The faces' edge keys and partners, built on first use (by the
        watertightness test during construction)."""
        return EdgeIndex.build(self.faces, len(self.vertices))

    @cached_property
    def hull(self) -> "TriMesh":
        """Convex hull of the vertices, built on first use.  A degenerate
        hull's error names ``source`` when it is set."""
        try:
            return convex_hull(self.vertices)
        except DegenerateHull as exc:
            if self.source is None:
                raise
            raise DegenerateHull(f"mesh {self.source}: {exc}") from exc

    @cached_property
    def supports(self) -> dict[tuple[int, ...], tuple[np.ndarray | None, float]]:
        """Memo from a resting contact set (sorted indices into
        ``hull.vertices``) to its support polygon, as hull-vertex indices
        in counter-clockwise order seen from above starting at the lowest
        index (None for a point or segment support), and that polygon's
        inradius; filled lazily by ``placements``."""
        return {}

    @cached_property
    def pivot_table(self) -> "PivotTable":
        """The hull's rolling graph: where each hull triangle resting
        alone on the plane tips to, built on first use by
        ``placements.settle``."""
        return PivotTable.build(self)

    @cached_property
    def edge_distances(self) -> np.ndarray:
        """``_edge_line_distances`` of the hull and the COM, built on first
        use by ``placements.enumerate_stable`` or the pivot table."""
        hull = self.hull
        return _read_only(_edge_line_distances(hull, hull.face_normals(), self.com))

    @cached_property
    def triangle_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per face its first vertex a and edge vectors e1 = b - a and
        e2 = c - a, built on first use."""
        v, f = self.vertices, self.faces
        a = v[f[:, 0]]
        return _read_only(a), _read_only(v[f[:, 1]] - a), _read_only(v[f[:, 2]] - a)

    @cached_property
    def area_cdf(self) -> np.ndarray:
        """Cumulative face-area shares, normalised as
        ``Generator.choice(p=areas / areas.sum())`` normalises them, so a
        right-sided ``searchsorted`` of one uniform draw picks the same face
        that ``choice`` picks from it."""
        areas = self.face_normals_and_areas[1]
        cdf = (areas / areas.sum()).cumsum()
        cdf /= cdf[-1]
        return _read_only(cdf)

    @cached_property
    def face_normals_and_areas(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit normals (zero for a zero-area face) and areas of the
        faces, from one cross product per face, built on first use."""
        _, e1, e2 = self.triangle_edges
        n = np.cross(e1, e2)
        lens = np.linalg.norm(n, axis=1)
        areas = 0.5 * lens
        lens[lens == 0] = 1.0
        return _read_only(n / lens[:, None]), _read_only(areas)

    def face_normals(self) -> np.ndarray:
        return self.face_normals_and_areas[0]

    def face_areas(self) -> np.ndarray:
        return self.face_normals_and_areas[1]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class EdgeIndex:
    """The edges of a triangle mesh, one row per face.  Edge k of face f
    runs from vertex ``faces[f, k]`` to ``faces[f, (k + 1) % 3]``; its
    flat row is 3 * f + k.

    - ``key[f, k]``: the undirected int64 key i * n + j of the edge, i < j
      its vertex indices and n the vertex count, so keys order edges as
      their sorted vertex pairs.
    - ``partner[f, k]``: the flat row of the other edge with the same key,
      so ``partner // 3`` is the face across edge k.  None unless the
      surface is closed: every undirected edge shared by exactly two
      faces."""

    key: np.ndarray  # (F, 3) int64
    partner: np.ndarray | None  # (F, 3) int

    @property
    def closed(self) -> bool:
        return self.partner is not None

    @classmethod
    def build(cls, faces: np.ndarray, n: int) -> "EdgeIndex":
        ends = np.roll(faces, -1, axis=1)
        key = np.minimum(faces, ends).astype(np.int64) * n + np.maximum(faces, ends)
        order = np.argsort(key, axis=None)
        s = key.ravel()[order]
        # sorted, the keys of a closed surface come in equal, distinct pairs
        if len(s) % 2 or np.any(s[0::2] != s[1::2]) or np.any(s[1:-1:2] == s[2::2]):
            return cls(key, None)
        partner = np.empty_like(order)
        partner[order[0::2]] = order[1::2]
        partner[order[1::2]] = order[0::2]
        return cls(key, partner.reshape(key.shape))


def load_mesh(path: str | Path) -> TriMesh:
    """Parse an ASCII OBJ (``v``/``f`` records); polygonal faces are
    fan-triangulated.  Volume and COM assume uniform density.

    A file that cannot be read or parsed raises MeshParseError, and a
    mesh with no surface raises DegenerateMesh; both messages name the
    path, as does the DegenerateHull its ``hull`` raises."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, ValueError) as exc:  # ValueError: undecodable text, NUL in path
        raise MeshParseError(f"cannot read mesh {path}: {exc}") from exc
    try:
        mesh = _parse_obj(text)
    except (MeshParseError, DegenerateMesh) as exc:
        raise type(exc)(f"mesh {path}: {exc}") from exc
    mesh.source = str(path)
    return mesh


def _parse_obj(text: str) -> TriMesh:
    """Mesh of OBJ text.  Only lines whose first token is ``v`` or ``f``
    count.  A vertex is the first three numbers of its line; a face index
    is its token's text before any ``/``, 1-based, and an index i <= 0
    counts from the vertices read so far (their number plus i).  A face
    of k indices becomes the fan of k - 2 triangles from its first.

    Each line is split once, every coordinate and index converts in one
    pass, and the faces are gathered with array indexing.  An invalid
    file raises the error of its first bad line, as a line-by-line read
    would; an index outside int64 is out of range."""
    parts = list(map(str.split, text.splitlines()))
    heads = [p[0] if p else "" for p in parts]
    vline = np.array([i for i, h in enumerate(heads) if h == "v"], dtype=int)
    fline = np.array([i for i, h in enumerate(heads) if h == "f"], dtype=int)
    vparts = [parts[i] for i in vline]
    fparts = [parts[i] for i in fline]
    n_coords = np.array([len(p) - 1 for p in vparts], dtype=int)
    n_index = np.array([len(p) - 1 for p in fparts], dtype=int)

    coords, bad_coord = _convert(
        float, list(chain.from_iterable(p[1:4] for p in vparts))
    )
    tokens = list(chain.from_iterable(p[1:] for p in fparts))
    if "/" in "".join(tokens):
        tokens = [tok.split("/")[0] for tok in tokens]
    index, bad_index = _convert(int, tokens)

    # (line, rank within the line, message) of each kind's first error
    errors = []
    coord_end = np.cumsum(np.minimum(n_coords, 3))
    if bad_coord is not None:
        k, exc = bad_coord
        errors.append((vline[np.searchsorted(coord_end, k, "right")], 0, str(exc)))
    if bad_index is not None:
        k, exc = bad_index
        line = fline[np.searchsorted(np.cumsum(n_index), k, "right")]
        errors.append((line, 0, str(exc)))
    for lines, short, what in (
        (vline, n_coords < 3, "vertex with < 3 coordinates"),
        (fline, n_index < 3, "face with < 3 vertices"),
    ):
        if short.any():
            line = lines[np.argmax(short)]
            errors.append((line, 1, f"line {line + 1}: {what}"))
    # rows of the vertices whose coordinates all converted
    full = (n_coords >= 3) & (coord_end <= len(coords))
    vertices = np.array(coords, dtype=float)[coord_end[full, None] - np.arange(3, 0, -1)]
    finite = np.isfinite(vertices).all(axis=1)
    if not finite.all():
        line = vline[full][np.argmin(finite)]
        errors.append((line, 2, f"line {line + 1}: non-finite vertex coordinate"))
    if errors:
        raise MeshParseError(min(errors)[2])
    if not len(vline) or not len(fline):
        raise MeshParseError("no geometry found")

    try:
        index = np.fromiter(index, dtype=np.int64, count=len(index))
    except OverflowError:
        raise MeshParseError("face index out of range") from None
    read = np.repeat(np.searchsorted(vline, fline), n_index)
    index = np.where(index > 0, index - 1, read + index)
    # fan triangles (first, j, j + 1) of each face
    n_tri = n_index - 2
    first = np.repeat(np.cumsum(n_index) - n_index, n_tri)
    j = first + np.arange(n_tri.sum()) - np.repeat(np.cumsum(n_tri) - n_tri, n_tri) + 1
    faces = np.column_stack([index[first], index[j], index[j + 1]])
    return TriMesh(vertices, faces)


def _convert(conv, tokens: list[str]) -> tuple[list, tuple[int, ValueError] | None]:
    """``conv`` of each token, up to the first it rejects, and that token's
    position and error (None when all convert)."""
    try:
        return list(map(conv, tokens)), None
    except ValueError:
        values = []
        for tok in tokens:
            try:
                values.append(conv(tok))
            except ValueError as exc:
                return values, (len(values), exc)
        raise


def save_obj(mesh: TriMesh, path: str | Path) -> None:
    lines = [f"v {float(x)!r} {float(y)!r} {float(z)!r}" for x, y, z in mesh.vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.faces]
    Path(path).write_text("\n".join(lines) + "\n")


def convex_hull(points: np.ndarray) -> TriMesh:
    """Convex hull as a TriMesh with outward-oriented triangles.

    Deterministic for a fixed input order; hull vertices keep the input
    point order (ascending original index).
    """
    points = np.asarray(points, dtype=float)
    if len(points) < 4:
        raise DegenerateHull("need at least 4 points")
    try:
        hull = ConvexHull(points)
    except QhullError as exc:
        # qhull's first line says what is wrong; the rest dumps its options
        raise DegenerateHull(str(exc).strip().splitlines()[0]) from exc
    used = np.unique(hull.simplices)
    verts = points[used]
    faces = np.searchsorted(used, hull.simplices)
    centroid = verts.mean(axis=0)
    # orient every triangle outward
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    normals = np.cross(b - a, c - a)
    inward = np.einsum("ij,ij->i", normals, a - centroid) < 0
    faces[inward] = faces[inward][:, [0, 2, 1]]
    return TriMesh(verts, faces)


@dataclass
class Facet:
    """Planar polygonal facet of a convex hull."""

    vertex_indices: np.ndarray  # ordered around the polygon, into hull verts
    polygon: np.ndarray  # (k, 3) ordered vertex positions
    normal: np.ndarray  # outward unit normal
    area: float


def merge_coplanar_facets(hull: TriMesh, angle_tol: float = 1e-4) -> list[Facet]:
    """Merge adjacent hull triangles whose normals deviate by less than
    ``angle_tol`` into convex polygonal facets.

    Faces are visited in index order; each unvisited face seeds a facet
    that grows over adjacent faces within ``angle_tol`` of the seed's
    normal (not of the face they are reached from), so a slowly curving
    surface splits into several facets rather than one.  Faces are
    adjacent across the edges of ``hull.edges``.  Raises ValueError
    unless 0 <= ``angle_tol`` < pi/2 and the surface is closed, every edge
    shared by exactly two faces, as the surface of ``convex_hull`` is."""
    groups, lone = _coplanar_groups(hull, hull.face_normals(), angle_tol)
    groups += [[f] for f in np.flatnonzero(lone).tolist()]
    groups.sort(key=lambda group: group[0])
    return [_facet(hull, group) for group in groups]


def _coplanar_groups(
    hull: TriMesh, normals: np.ndarray, angle_tol: float
) -> tuple[list[list[int]], np.ndarray]:
    """The face-index groups of ``merge_coplanar_facets`` that hold more
    than one face, in seed order, each listing its faces in visiting
    order, and the mask of the faces in none of them: each of those is a
    one-triangle facet of its own, seeded by itself.

    A non-seed member lies within ``angle_tol`` of its seed, and so does
    the face it was reached from, so the two adjacent faces lie within
    2 * angle_tol of each other.  The search therefore starts only from
    faces with an adjacent face within 2 * angle_tol, in ascending order,
    and follows only such pairs; no Python code visits any other face.

    ``angle_tol`` must lie in [0, pi/2): every member is then within a
    right angle of its seed, so a group's area-weighted normal never
    cancels to zero."""
    if not 0.0 <= angle_tol < np.pi / 2:
        raise ValueError(f"angle_tol must be in [0, pi/2), got {angle_tol}")
    edges = hull.edges
    if not edges.closed:
        raise ValueError("facets need a closed surface: some edge is not shared "
                         "by exactly two faces")
    n_faces = len(hull.faces)
    # each face's neighbours across its edges, ordered as the neighbour
    # lists of a scan over faces and their edges: by the first row that
    # holds the edge
    partner = edges.partner
    first = np.minimum(partner, np.arange(partner.size).reshape(partner.shape))
    order = np.argsort(first, axis=1, kind="stable")
    src = np.repeat(np.arange(n_faces), 3)
    dst = np.take_along_axis(partner, order, axis=1).ravel() // 3
    # the small slack absorbs rounding in the normals' dot products
    near = np.einsum("ij,ij->i", normals[src], normals[dst]) > (
        np.cos(2.0 * angle_tol) - 1e-12
    )
    src, dst = src[near], dst[near]
    adj: dict[int, list[int]] = {}
    for s, d in zip(src.tolist(), dst.tolist()):
        adj.setdefault(s, []).append(d)

    cos_tol = np.cos(angle_tol)
    seen: set[int] = set()
    groups: list[list[int]] = []
    for seed in sorted(adj):
        if seed in seen:
            continue
        seen.add(seed)
        group = [seed]
        queue = [seed]
        while queue:
            cur = queue.pop()
            for nb in adj[cur]:
                if nb not in seen and np.dot(normals[seed], normals[nb]) > cos_tol:
                    seen.add(nb)
                    group.append(nb)
                    queue.append(nb)
        if len(group) > 1:
            groups.append(group)
    lone = np.ones(n_faces, dtype=bool)
    lone[list(chain.from_iterable(groups))] = False
    return groups, lone


def _facet(hull: TriMesh, group: list[int]) -> Facet:
    """Polygonal facet of a face group: area-weighted normal and the
    group's vertices ordered around the polygon."""
    normals, areas = hull.face_normals_and_areas
    w = areas[group]
    n = (w[:, None] * normals[group]).sum(axis=0)
    n /= np.linalg.norm(n)
    vidx = np.unique(hull.faces[group])
    pts = hull.vertices[vidx]
    # order around the polygon: 2D hull in the facet plane
    e1 = _any_perpendicular(n)
    e2 = np.cross(n, e1)
    uv = np.column_stack([pts @ e1, pts @ e2])
    order = _convex_order_2d(uv)
    return Facet(
        vertex_indices=vidx[order],
        polygon=pts[order],
        normal=n,
        area=float(w.sum()),
    )


def _convex_order_2d(uv: np.ndarray) -> np.ndarray:
    """Counter-clockwise ordering of points forming a convex polygon."""
    if len(uv) < 3:
        return np.arange(len(uv))
    try:
        h = ConvexHull(uv)
        return h.vertices
    except QhullError:
        # nearly-degenerate facet: order along the dominant axis
        d = uv - uv.mean(axis=0)
        axis = d[np.argmax(np.linalg.norm(d, axis=1))]
        return np.argsort(d @ axis)


# --- one-triangle supports ----------------------------------------------------


def _edge_line_distances(
    hull: TriMesh, normals: np.ndarray, com: np.ndarray
) -> np.ndarray:
    """(F, 3) in-plane signed distances from ``com`` to the line of each
    hull triangle's edge k (vertex k to k + 1), positive inward.
    Degenerate triangles give NaN."""
    tri = hull.vertices[hull.faces]  # (F, 3, 3)
    edge = np.roll(tri, -1, axis=1) - tri
    inward = np.cross(normals[:, None, :], edge)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.einsum("fkj,fkj->fk", inward, com - tri) / np.linalg.norm(
            inward, axis=2
        )


def _nearest_edge(dist: np.ndarray, beyond: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Index, along the last axis, of the edge nearest a point, from the
    point's distances to the edge segments, its signed distances beyond
    the edge lines (positive outside) and the edges' keys of sorted
    hull-vertex index pairs.

    Edges within 1e-12 (relative) of the nearest distance tie; of those,
    the edges within 1e-12 (relative) of the largest distance beyond the
    line tie; of those, the edge with the lowest pair wins.  When the
    nearest point is a vertex, both of its edges are equally near;
    pivoting about one whose line the COM lies inside would press the
    support into the plane and raise the COM, so the rule takes the
    other.  Ties by index pair, not by position, make the choice the
    same in every frame the edges are measured in."""
    near = dist <= dist.min(axis=-1, keepdims=True) * (1.0 + 1e-12)
    beyond = np.where(near, beyond, -np.inf)
    best = beyond.max(axis=-1, keepdims=True)
    far = beyond >= best - 1e-12 * np.abs(best)
    return np.argmin(np.where(far, pair, np.iinfo(np.int64).max), axis=-1)


@dataclass(frozen=True)
class PivotTable:
    """Where each hull triangle tips when it alone rests on the plane: the
    hull's rolling graph.

    Row r belongs to the triangle whose ascending hull-vertex triple
    (i, j, k) has key ``keys[r]`` = (i * n + j) * n + k, n being
    ``n_vertices``; rows are sorted by key.  Everything is in the body
    frame.

    - ``bound[r]``: the least of the triangle's ``edge_distances``, an
      upper bound on its COM margin as a one-triangle facet: the margin
      inside the triangle, and outside at least the (negative) margin,
      as the distance to an edge line is at most that to the triangle.
      Below 0 the COM lies strictly beyond the pivot edge.
    - ``edge[r]``: the pivot edge, the (start, end) hull-vertex indices
      of the edge nearest the COM's projection onto the triangle's plane
      (``_nearest_edge``), in the counter-clockwise order of the
      triangle resting on the plane, seen from above.
    - ``next[r]``: the row of the hull triangle across the pivot edge.
      Rolling over an edge of a convex hull resting on one triangle
      first brings down the triangle across it (Kriegman, "Let them fall
      where they may", IJRR 1997).
    - ``turn[r]``: the roll as a body-frame rotation R(e, phi), e the
      unit pivot-edge direction start -> end and phi the exterior
      dihedral angle between the two outward normals
      (``angle_between``).  A pose ``rot`` resting on row r lands on row
      ``next[r]`` as ``rot @ turn[r]``, since R(rot e, phi) @ rot =
      rot @ R(e, phi).
    - ``height[r]``: the COM's distance to the triangle's plane, its
      height when resting on the triangle.
    - ``clear[r]``: the smallest height of any other hull vertex above
      the triangle's plane.  Heights above the plane are a linear
      function, whose sub-level sets are connected on a convex
      polytope's edge graph, so the lowest other vertex is a hull-edge
      neighbour of one of the triangle's vertices, and only those rings
      are searched.  NaN when the triangle across the pivot edge has no
      plane (zero area), so no roll starts there.

    A row is ``walkable`` when its COM lies beyond the pivot edge and no
    other vertex is within the contact tolerance of its plane: resting on
    it, the mesh touches the plane at that triangle alone and rolls on to
    ``next[r]``."""

    n_vertices: int
    keys: np.ndarray  # (T,) int64, ascending
    bound: np.ndarray  # (T,)
    edge: np.ndarray  # (T, 2)
    next: np.ndarray  # (T,) int
    turn: np.ndarray  # (T, 3, 3)
    height: np.ndarray  # (T,)
    clear: np.ndarray  # (T,)

    @classmethod
    def build(cls, mesh: TriMesh) -> "PivotTable":
        """Table of every triangle of ``mesh.hull``, a closed triangulated
        surface as ``convex_hull`` gives, vectorized over its triangles
        from the hull's normals and the mesh's ``edge_distances``; the
        triangles across edges and the vertex rings come from
        ``hull.edges``.  A hull of more than 2**21 vertices, whose keys
        would overflow int64, gets an empty table."""
        hull, com = mesh.hull, mesh.com
        n = len(hull.vertices)
        if n > 2**21:
            return cls(n, np.empty(0, np.int64), np.empty(0), np.empty((0, 2), int),
                       np.empty(0, int), np.empty((0, 3, 3)), np.empty(0), np.empty(0))
        verts, faces = hull.vertices, hull.faces
        normals = hull.face_normals()
        inward = mesh.edge_distances
        k = _pivot_edge_index(hull, normals, inward, com)
        # outward edge k runs from vertex k to k + 1; resting, seen from
        # above, the triangle turns the other way
        rows = np.arange(len(faces))
        edge = np.column_stack([faces[rows, (k + 1) % 3], faces[rows, k]])
        across = hull.edges.partner[rows, k] // 3
        e = verts[edge[:, 1]] - verts[edge[:, 0]]
        turn = rotation_from_axis_angle(e / np.linalg.norm(e, axis=1)[:, None],
                                        angle_between(normals, normals[across]))
        height = np.einsum("fj,fj->f", normals, verts[faces[:, 0]] - com)
        clear = _ring_clearance(hull, normals)
        clear[~normals.any(axis=1)[across]] = np.nan
        triple = np.sort(faces, axis=1).astype(np.int64)
        keys = (triple[:, 0] * n + triple[:, 1]) * n + triple[:, 2]
        order = np.argsort(keys)
        row_of = np.empty_like(order)
        row_of[order] = rows
        return cls(n, keys[order], inward.min(axis=1)[order], edge[order],
                   row_of[across[order]], turn[order], height[order], clear[order])

    def row(self, contact: np.ndarray) -> int | None:
        """Row of the triangle with the ascending hull-vertex triple
        ``contact``, or None when no hull triangle has those vertices."""
        i, j, k = contact.tolist()
        key = (i * self.n_vertices + j) * self.n_vertices + k
        r = int(np.searchsorted(self.keys, key))
        return r if r < len(self.keys) and self.keys[r] == key else None

    def walkable(self, r: int, contact_tol: float) -> bool:
        """Whether resting on row r alone rolls on to ``next[r]``."""
        return bool(self.bound[r] < 0.0 and self.clear[r] > contact_tol)


def _pivot_edge_index(
    hull: TriMesh, normals: np.ndarray, inward: np.ndarray, com: np.ndarray
) -> np.ndarray:
    """Per hull triangle, the index k of its edge (vertex k to k + 1)
    nearest the COM's projection onto its plane, by ``_nearest_edge``
    with the keys of ``hull.edges``;
    ``inward`` holds ``_edge_line_distances``.  A function of its own so
    that its (F, 3, 3) temporaries are freed before the rest of
    ``PivotTable.build`` runs."""
    tri = hull.vertices[hull.faces]
    ab = np.roll(tri, -1, axis=1) - tri
    p = com - np.einsum("fj,fj->f", com - tri[:, 0], normals)[:, None] * normals
    ap = p[:, None, :] - tri
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(
            np.einsum("fkj,fkj->fk", ap, ab) / np.einsum("fkj,fkj->fk", ab, ab),
            0.0,
            1.0,
        )
    r = ap - t[..., None] * ab
    dist = np.sqrt(np.einsum("fkj,fkj->fk", r, r))
    return _nearest_edge(dist, -inward, hull.edges.key)


def _ring_clearance(hull: TriMesh, normals: np.ndarray) -> np.ndarray:
    """Per face of a closed surface, the smallest height above its plane
    (along the inward normal) of the edge neighbours of its vertices, the
    face's own vertices excluded."""
    verts, faces = hull.vertices, hull.faces
    n = len(verts)
    # each undirected edge once, from the row before its partner, then
    # both its directions, sorted: the vertex rings in CSR form
    edges = hull.edges
    once = edges.key.ravel()[np.arange(edges.key.size) < edges.partner.ravel()]
    key = np.concatenate([once, (once % n) * n + once // n])
    key.sort()
    first = np.searchsorted(key // n, np.arange(n + 1))
    plane = np.einsum("fj,fj->f", normals, verts[faces[:, 0]])
    clear = np.full(len(faces), np.inf)
    # one corner of every face at a time, which bounds the memory held
    for corner in faces.T:
        degree = first[corner + 1] - first[corner]
        at = np.repeat(first[corner] - np.cumsum(degree) + degree, degree)
        ring = (key % n)[at + np.arange(len(at))]
        # one coordinate at a time: 1-D gathers are several times faster
        h = np.repeat(plane, degree)
        own = np.zeros(len(ring), dtype=bool)
        for j in range(3):
            h -= np.repeat(normals[:, j], degree) * verts[:, j].take(ring)
            own |= np.repeat(faces[:, j], degree) == ring
        h[own] = np.inf
        np.minimum(clear, np.minimum.reduceat(h, np.cumsum(degree) - degree), out=clear)
    return clear


def sample_point_cloud(mesh: TriMesh, m: int, seed: int) -> np.ndarray:
    """Area-weighted uniform surface samples, deterministic per seed."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    fi = mesh.area_cdf.searchsorted(rng.random(m), side="right")
    u = rng.random(m)
    v = rng.random(m)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    a, e1, e2 = mesh.triangle_edges
    return a[fi] + u[:, None] * e1[fi] + v[:, None] * e2[fi]


# --- auxiliary-plane geometry ----------------------------------------------


def plane_from_contacts(p1: np.ndarray, p2: np.ndarray, p3: np.ndarray) -> np.ndarray:
    """Vector v such that the plane through the three points is
    v . x = |v|^2; v is the plane's closest point to the origin."""
    p1, p2, p3 = (np.asarray(p, dtype=float) for p in (p1, p2, p3))
    n = np.cross(p2 - p1, p3 - p1)
    area2 = np.linalg.norm(n)
    if area2 / 2.0 <= 1e-10:
        raise CollinearContacts("contact points do not span a plane")
    n /= area2
    d = float(np.dot(n, p1))
    if abs(d) < 1e-12:
        raise ZeroPlaneVector("plane through the origin has no vector form")
    return d * n


def plane_align_rotation(v_r: np.ndarray) -> np.ndarray:
    """Minimal-angle rotation taking v_r / |v_r| onto +z.

    The antiparallel case (v_r along -z) rotates pi about the x axis.
    Raises ValueError for a non-finite v_r and ZeroPlaneVector for a zero
    one.
    """
    v_r = np.asarray(v_r, dtype=float)
    if not np.isfinite(v_r).all():
        raise ValueError(f"cannot align a non-finite plane vector {v_r.tolist()}")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v_r)
    if np.isinf(norm):
        # the squares overflow: scale by the largest coordinate first, and
        # only then, so every other vector keeps its bits
        v_r = v_r / np.abs(v_r).max()
        norm = np.linalg.norm(v_r)
    if norm <= 1e-12:
        raise ZeroPlaneVector("cannot align a zero plane vector")
    u = v_r / norm
    if u[2] <= -1.0 + 1e-15:
        return rot_x(np.pi)
    return rotation_between(u, np.array([0.0, 0.0, 1.0]))


def apply_refinement_transform(p_r: np.ndarray, v_r: np.ndarray) -> np.ndarray:
    """Rigid motion R @ (p - v_r) per point; auxiliary-plane points land
    on z = 0 and point order is preserved."""
    p_r = np.asarray(p_r, dtype=float)
    v_r = np.asarray(v_r, dtype=float)
    r = plane_align_rotation(v_r)
    return (p_r - v_r[None, :]) @ r.T
