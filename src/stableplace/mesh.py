"""Triangle meshes: OBJ loading, mass properties, convex hulls, facet
merging, surface sampling, and auxiliary-plane geometry.

Vertices and point clouds are (N, 3) float arrays in meters; point order
is preserved through every transform.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .rotations import (
    _any_perpendicular,
    angle_between,
    cross,
    rot_x,
    rotation_between,
    rotation_from_axis_angle,
)

# Angle (radians) within which adjacent hull triangles merge into one
# facet, for stable-placement enumeration.
FACET_ANGLE_TOL = 1e-4


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


@dataclass(eq=False)
class TriMesh:
    """Triangle mesh with its uniform-density volume and COM.

    ``com``, ``volume`` and ``centroid_fallback`` come from one pass
    (``_mass_properties``), run when one of them is first read, not at
    construction.  So a mesh with no surface area, or whose sums
    overflow, raises DegenerateMesh at that first read; ``load_mesh``
    makes it while loading.  Volume and COM are summed about the middle
    of the bounding box, so a copy moved far from the coordinate origin
    keeps its COM.

    Treated as immutable after construction: its mass properties, its
    edge index, its triangle edge vectors, face normals, areas, bounding
    spheres and area CDF, its convex hull, the COM's distances to the
    hull's edge lines and its pivot table are cached on first use, and
    the support polygons of its resting contact sets in one memo
    (``supports``), so changing ``vertices`` or ``faces`` in place leaves
    them stale.  The cached arrays are read-only.  Two meshes are equal
    only when they are the same object, as their arrays have no truth
    value to compare.
    """

    vertices: np.ndarray  # (N, 3)
    faces: np.ndarray  # (F, 3) int
    source: str | None = field(init=False, default=None)  # set by load_mesh

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.faces = np.asarray(self.faces, dtype=int)
        if self.faces.size and (
            self.faces.min() < 0 or self.faces.max() >= len(self.vertices)
        ):
            raise MeshParseError("face index out of range")

    @cached_property
    def com(self) -> np.ndarray:
        return self._mass_properties[0]

    @cached_property
    def volume(self) -> float:
        return self._mass_properties[1]

    @cached_property
    def centroid_fallback(self) -> bool:
        """Whether ``com`` is the area-weighted surface centroid, taken
        for a surface that is open or encloses no volume."""
        return self._mass_properties[2]

    @cached_property
    def _mass_properties(self) -> tuple[np.ndarray, float, bool]:
        """(com, volume, centroid_fallback), built on first read of any of
        them."""
        v = self.vertices
        f = self.faces
        # huge coordinates overflow to inf or nan: checked at the end
        # instead of warned about on the way
        with np.errstate(over="ignore", invalid="ignore"):
            # about the bounding box's middle (halves first, so no sum of
            # two coordinates can overflow), so that the tetrahedra of a
            # mesh far from the coordinate origin do not cancel
            middle = 0.5 * v.min(axis=0) + 0.5 * v.max(axis=0) if len(v) else np.zeros(3)
            v = v - middle
            a, b, c = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
            areas = 0.5 * np.linalg.norm(cross(b - a, c - a), axis=1)
            area = areas.sum()
            if area < 1e-12:
                raise DegenerateMesh("mesh has zero surface area")
            # signed tetrahedra against the middle (divergence theorem)
            dets = np.einsum("ij,ij->i", a, cross(b, c))
            vol = dets.sum() / 6.0
            fallback = not (self.edges.closed and abs(vol) > 1e-12)
            if not fallback:
                centroids = (a + b + c) / 4.0  # tetra centroid, apex at the middle
                com = (dets[:, None] * centroids).sum(axis=0) / (6.0 * vol)
            else:
                # open mesh: area-weighted surface centroid
                tri_centroids = (a + b + c) / 3.0
                com = (areas[:, None] * tri_centroids).sum(axis=0) / area
            volume = float(abs(vol))  # abs: inward winding
            com = com + middle
        if not (np.isfinite(area) and np.isfinite(volume) and np.isfinite(com).all()):
            raise DegenerateMesh(
                "area, volume or centre of mass overflows: coordinates too large"
            )
        return com, volume, fallback

    @cached_property
    def edges(self) -> "EdgeIndex":
        """The faces' edge keys and partners, built on first use.  A hull
        that ``hull`` takes from a mesh's own faces gets the mesh's, carried
        through its turns and order."""
        return EdgeIndex.build(self.faces, len(self.vertices))

    @cached_property
    def hull(self) -> "TriMesh":
        """Convex hull of the vertices, built on first use, with the
        canonical faces of ``convex_hull``.  A mesh that is already its own
        hull (``_own_hull_faces``) takes its own faces, without qhull, to
        the same bytes, and its edge index comes from the mesh's, so no
        second ``EdgeIndex.build`` sorts it; its mass properties, which no
        caller reads on a hull, are left to a first read.  A degenerate
        hull's error names ``source`` when it is set."""
        own = _own_hull_faces(self)
        if own is not None:
            hull = TriMesh(self.vertices.copy(), own[0])
            hull.edges = own[1]
            return hull
        try:
            return convex_hull(self.vertices)
        except DegenerateHull as exc:
            if self.source is None:
                raise
            raise DegenerateHull(f"mesh {self.source}: {exc}") from exc

    @cached_property
    def supports(self) -> dict:
        """Memo from a resting contact set of three or more hull vertices
        (sorted indices into ``hull.vertices``) to its
        ``placements.Support``: the support polygon as hull-vertex
        indices, its inradius and the edges that settle's margin and
        pivot read.  ``placements.enumerate_stable`` fills it with the rest
        set of every facet it checks, and reads each facet's polygon and
        inradius from it; a settle that meets sets it lacks builds them,
        each time in one pass (``placements._contact_supports``)."""
        return {}

    @cached_property
    def pivot_table(self) -> "PivotTable":
        """The hull's rolling graph: where each hull triangle resting
        alone on the plane tips to, built on first use by
        ``placements.settle``."""
        return PivotTable.build(self)

    @cached_property
    def edge_distances(self) -> np.ndarray:
        """``_edge_line_distances`` of the hull and the COM, every face,
        built on first use: by the pivot table, or by an enumeration that
        bounds every face (``placements.enumerate_stable`` bounds only the
        faces its cull keeps, and reads this table once it is built)."""
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
    def face_spheres(self) -> tuple[np.ndarray, np.ndarray]:
        """Per face a bounding sphere, built on first use: the centroid
        a + (e1 + e2) / 3 as rounded, and the largest computed distance
        from it to the face's three vertices, within a few roundings of
        the exact one."""
        a, e1, e2 = self.triangle_edges
        centre = a + (e1 + e2) / 3.0
        rel = self.vertices[self.faces] - centre[:, None]
        radius = np.sqrt(np.einsum("fij,fij->fi", rel, rel).max(axis=1))
        return _read_only(centre), _read_only(radius)

    @cached_property
    def ray_cast_tables(self) -> "RayCastTables":
        """The per-mesh half of the grasp sampler's ray-cast broad phase,
        built on first use."""
        return RayCastTables.build(self)

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
        n = cross(e1, e2)
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


# Relative growth of each face's bounding sphere in the ray-cast broad
# phase; regrasp._broad_phase derives it.
_SPHERE_SLACK = 1e-6


@dataclass(frozen=True)
class RayCastTables:
    """The per-mesh tables of ``regrasp._broad_phase``, in a frame
    centred on ``middle``, the middle of the mesh's bounding box as
    rounded.  With c and rho the centre and radius of a face's bounding
    sphere (``TriMesh.face_spheres``) and c' = c - middle as rounded:

    - ``reach``: (F,) R = (1 + _SPHERE_SLACK) rho;
    - ``line_table``: (5, F) rows -2 c', |c'|^2 - R^2 and 1, which a row
      (o |d|^2, |d|^2, |o|^2 |d|^2) of a ray in the frame turns into
      (|c' - o|^2 - R^2) |d|^2;
    - ``axis_table``: (4, 2F), whose first F columns (c', -1) turn a row
      (d, o . d) into (c' - o) . d and whose last F columns (n A / rho,
      0), with the face's unit normal n and area A, into d . n A / rho;
    - ``extent``: max (|c'| + rho), and ``max_radius``: max rho.
    """

    middle: np.ndarray
    reach: np.ndarray
    line_table: np.ndarray
    axis_table: np.ndarray
    extent: float
    max_radius: float

    @classmethod
    def build(cls, mesh: "TriMesh") -> "RayCastTables":
        centre, radius = mesh.face_spheres
        normals, areas = mesh.face_normals_and_areas
        f = len(centre)
        v = mesh.vertices
        # halves first, so no sum of two coordinates can overflow
        middle = 0.5 * v.min(axis=0) + 0.5 * v.max(axis=0)
        shifted = centre - middle
        cc = np.einsum("ij,ij->i", shifted, shifted)
        reach = (1.0 + _SPHERE_SLACK) * radius
        scale = areas / np.maximum(radius, np.finfo(float).tiny)
        line_table = np.vstack([-2.0 * shifted.T, cc - reach * reach, np.ones(f)])
        axis_table = np.zeros((4, 2 * f))
        axis_table[:3, :f] = shifted.T
        axis_table[:3, f:] = (normals * scale[:, None]).T
        axis_table[3, :f] = -1.0
        return cls(
            middle=_read_only(middle),
            reach=_read_only(reach),
            line_table=_read_only(line_table),
            axis_table=_read_only(axis_table),
            extent=float((np.sqrt(cc) + radius).max()),
            max_radius=float(radius.max()),
        )


@dataclass(frozen=True)
class EdgeIndex:
    """The edges of a triangle mesh, one row per face.  Edge k of face f
    runs from vertex ``faces[f, k]`` to ``faces[f, (k + 1) % 3]``; its
    flat row is 3 * f + k.

    - ``key[f, k]``: the undirected key of the edge, ``_edge_keys`` with n
      the vertex count, so keys order edges as their sorted vertex pairs.
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
        key = _edge_keys(faces, np.roll(faces, -1, axis=1), n)
        order = np.argsort(key, axis=None)
        s = key.ravel()[order]
        # sorted, the keys of a closed surface come in equal, distinct pairs
        if len(s) % 2 or np.any(s[0::2] != s[1::2]) or np.any(s[1:-1:2] == s[2::2]):
            return cls(key, None)
        partner = np.empty_like(order)
        partner[order[0::2]] = order[1::2]
        partner[order[1::2]] = order[0::2]
        return cls(key, partner.reshape(key.shape))


def _edge_keys(start: np.ndarray, end: np.ndarray, n: int) -> np.ndarray:
    """The undirected int64 keys i * n + j of the edges start -> end, i < j
    their vertex indices and n a bound on them, so keys order edges as
    their sorted vertex pairs.  The one edge-key rule: ``EdgeIndex`` keys
    a mesh's edges with it, and ``placements._pivot_axis`` a support
    polygon's, with n the hull's vertex count."""
    return np.minimum(start, end).astype(np.int64) * n + np.maximum(start, end)


def load_mesh(path: str | Path) -> TriMesh:
    """Parse an OBJ text file (``v``/``f`` records), read as UTF-8 with or
    without a byte-order mark, any other byte replaced by U+FFFD;
    polygonal faces are fan-triangulated.
    Volume and COM assume uniform density.

    A file that cannot be read or parsed raises MeshParseError, and a
    mesh with no surface, or whose mass properties overflow, raises
    DegenerateMesh; the load reads ``com`` to find out, so the mass
    pass has run when it returns.  Both messages name the path, as does
    the DegenerateHull its ``hull`` raises."""
    path = Path(path)
    try:
        # utf-8-sig drops a leading byte-order mark, which would otherwise
        # glue onto the first record's head; a byte that is not UTF-8 reads
        # as U+FFFD, harmless in a comment or name and a parse error in a
        # number
        text = path.read_text(encoding="utf-8-sig", errors="replace")
    except (OSError, ValueError) as exc:  # ValueError: NUL in path
        raise MeshParseError(f"cannot read mesh {path}: {exc}") from exc
    try:
        mesh = _parse_obj(text)
        mesh.com  # the mass pass, which raises DegenerateMesh
    except (MeshParseError, DegenerateMesh) as exc:
        raise type(exc)(f"mesh {path}: {exc}") from exc
    mesh.source = str(path)
    return mesh


# The characters of text made only of ``v`` and ``f`` records with
# decimal numbers, one per line
_PLAIN_CHARS = b"0123456789.eE+- \nvf"
_INDEX_CHARS = b"0123456789 "
# record lines, matched in the text after a leading newline: a literal
# head is found by a fast substring search, where ``^`` under MULTILINE
# would try every position
_VERTEX_ROW = re.compile(r"\nv (.*)")
_FACE_ROW = re.compile(r"\nf (.*)")


def _parse_obj(text: str) -> TriMesh:
    """Mesh of OBJ text.  Only lines whose first token is ``v`` or ``f``
    count.  A vertex is the first three numbers of its line; a face index
    is its token's text before any ``/``, 1-based, and an index i <= 0
    counts from the vertices read so far (their number plus i).  A face
    of k indices becomes the fan of k - 2 triangles from its first.

    Plain text, only ``v x y z`` and ``f a b c`` records as ``save_obj``
    writes them, takes one array pass per record kind
    (``_plain_records``); every other text, and any plain text that pass
    cannot read, takes the line parse (``_line_records``), which gives
    the same result and names the first bad line."""
    records = _plain_records(text)
    if records is None:
        records = _line_records(text)
    return TriMesh(*records)


def _plain_records(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The vertices and 0-based faces of text made only of ``v x y z`` and
    ``f a b c`` records, each kind read by one ``np.loadtxt`` call; None
    for any other text.

    The guard is exact: the pass returns arrays only where
    ``_line_records`` reads the same records to the same bits.

    - The text holds only ASCII digits, ``.eE+-``, spaces, newlines and
      the letters ``v`` and ``f``.  So the newline is its only line break
      and the space its only whitespace, and it holds no ``#``, ``/``,
      tab, carriage return, ``_``, nan or inf.
    - It holds three spaces per ``v`` or ``f`` letter, as three-number
      records do, and at most six ``-`` per ``v`` letter, a sign and an
      exponent sign per coordinate.  A polygon, a fourth number, a
      doubled space or the negative indices of a closed mesh (about two
      faces per vertex) fail these counts before any line is picked.
    - It has as many ``v`` (``f``) characters as lines that start with
      ``"v "`` (``"f "``), so every such letter heads one of those lines.
      Those lines are exactly the ones whose first token is ``v`` (``f``),
      and every other line, which both parses skip, holds no record.
    - Face rows hold only digits and spaces.  A sign, point or exponent
      goes to the line parse, so the result does not depend on whether a
      numpy release's int64 ``loadtxt`` rejects ``1.5`` or truncates it.
    - ``np.loadtxt`` reads each kind's lines after the head as one table
      of exactly three columns and a row per line.  It splits a row at
      its spaces as ``str.split`` does, its float64 parser is the one
      ``float()`` uses (without ``_`` separators), and it reads a run of
      digits as ``int()`` does, or raises ValueError past int64.
    - Every coordinate is finite and every index is >= 1, so no index
      counts from the vertices read so far, and the line parse would
      reject no line."""
    if not text.isascii() or text.encode("ascii").translate(None, _PLAIN_CHARS):
        return None
    n_v, n_f = text.count("v"), text.count("f")
    if text.count(" ") != 3 * (n_v + n_f) or text.count("-") > 6 * n_v:
        return None
    lines = "\n" + text  # the newline is the only line break, as checked
    f_rows = _FACE_ROW.findall(lines)
    if not f_rows or n_f != len(f_rows):
        return None
    if " ".join(f_rows).encode("ascii").translate(None, _INDEX_CHARS):
        return None
    index = _three_columns(f_rows, np.int64)
    if index is None or not (index > 0).all():
        return None
    v_rows = _VERTEX_ROW.findall(lines)
    if not v_rows or n_v != len(v_rows):
        return None
    vertices = _three_columns(v_rows, np.float64)
    if vertices is None or not np.isfinite(vertices).all():
        return None
    return vertices, index - 1


def _three_columns(rows: list[str], dtype) -> np.ndarray | None:
    """The (len(rows), 3) array of the rows' numbers, or None unless
    ``np.loadtxt`` reads every row as exactly three of them.  loadtxt
    skips a blank row, so one shows as a missing row; a blank first row
    returns None at once, since loadtxt warns when every row is blank."""
    if not rows[0].strip():
        return None
    try:
        table = np.loadtxt(rows, dtype=dtype, ndmin=2, comments=None)
    except ValueError:
        return None
    return table if table.shape == (len(rows), 3) else None


def _line_records(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The vertices and 0-based faces of any OBJ text, as ``_parse_obj``
    reads it, one line at a time.  An invalid file raises the error of
    its first bad line; an index outside int64 is out of range."""
    vertices, index, n_index = [], [], []
    try:
        for line_no, parts in enumerate(map(str.split, text.splitlines()), 1):
            head = parts[0] if parts else ""
            if head == "v":
                xyz = list(map(float, parts[1:4]))
                if len(xyz) < 3:
                    raise MeshParseError(f"line {line_no}: vertex with < 3 coordinates")
                if not all(map(math.isfinite, xyz)):
                    raise MeshParseError(f"line {line_no}: non-finite vertex coordinate")
                vertices.append(xyz)
            elif head == "f":
                face = [int(tok.partition("/")[0]) for tok in parts[1:]]
                if len(face) < 3:
                    raise MeshParseError(f"line {line_no}: face with < 3 vertices")
                read = len(vertices)
                index += [i - 1 if i > 0 else read + i for i in face]
                n_index.append(len(face))
    except MeshParseError:
        raise
    except ValueError as exc:
        raise MeshParseError(str(exc)) from None
    if not vertices or not n_index:
        raise MeshParseError("no geometry found")

    try:
        index = np.array(index, dtype=np.int64)
    except OverflowError:
        raise MeshParseError("face index out of range") from None
    # fan triangles (first, j, j + 1) of each face
    n_index = np.array(n_index)
    n_tri = n_index - 2
    first = np.repeat(np.cumsum(n_index) - n_index, n_tri)
    j = first + np.arange(n_tri.sum()) - np.repeat(np.cumsum(n_tri) - n_tri, n_tri) + 1
    return np.array(vertices), np.column_stack([index[first], index[j], index[j + 1]])


def save_obj(mesh: TriMesh, path: str | Path) -> None:
    lines = [f"v {float(x)!r} {float(y)!r} {float(z)!r}" for x, y, z in mesh.vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.faces]
    Path(path).write_text("\n".join(lines) + "\n")


def convex_hull(points: np.ndarray) -> TriMesh:
    """Convex hull as a TriMesh with outward-oriented triangles in
    canonical order (``_canonical_faces``), so that the hull depends only
    on its set of triangles, not on the face order qhull emits.

    Hull vertices keep the input point order (ascending original index).
    """
    points = np.asarray(points, dtype=float)
    if len(points) < 4:
        raise DegenerateHull("need at least 4 points")
    try:
        hull = ConvexHull(points)
    except QhullError as exc:
        # qhull's first line says what is wrong; the rest dumps its options
        raise DegenerateHull(str(exc).strip().splitlines()[0]) from exc
    # the used points in input order, and each one's rank among them
    used = np.zeros(len(points), dtype=bool)
    used[hull.simplices] = True
    verts = points[used]
    faces = (np.cumsum(used) - 1)[hull.simplices]
    centroid = verts.mean(axis=0)
    # orient every triangle outward
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    normals = cross(b - a, c - a)
    inward = np.einsum("ij,ij->i", normals, a - centroid) < 0
    faces[inward] = faces[inward][:, [0, 2, 1]]
    return TriMesh(verts, _canonical_faces(faces, len(verts))[0])


def _convex_rings(p: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The 2-D convex hulls of the point sets p (S, k, 2), as (rows,
    orders) stacks, one per ring size m in ascending order: the rows of p
    whose hull has m vertices, and for each row the (m,) vertex order
    ``ConvexHull(p[row]).vertices``.  Rows that qhull rejects are left
    out.  The one 2-D hull routine: support polygons
    (``placements._new_supports``) and facets (``_facet``) take their
    rings from it.

    A triangle takes its order in closed form from ``_triangle_order``;
    qhull runs, one row at a time, only for a triangle too flat for that
    and for larger sets."""
    rings: dict[int, list] = {}
    hulled = range(len(p))
    if p.shape[1] == 3:
        order, flat = _triangle_order(p)
        rings[3] = [(np.flatnonzero(~flat), order[~flat])]
        hulled = np.flatnonzero(flat).tolist()
    for i in hulled:
        try:
            ring = ConvexHull(p[i]).vertices
        except QhullError:
            continue
        rings.setdefault(len(ring), []).append((np.array([i]), ring[None]))
    stacks = [tuple(map(np.concatenate, zip(*parts))) for _, parts in sorted(rings.items())]
    return [(rows, orders) for rows, orders in stacks if len(rows)]


def _triangle_order(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per 2-D triangle p (S, 3, 2), the counter-clockwise vertex order
    that ``ConvexHull(p[i]).vertices`` gives, and whether the triangle is
    too flat to trust it.

    qhull lists the first points of least and of greatest x in
    counter-clockwise order, then the third point.  It fails on a
    triangle whose doubled area is below about 4e-15 times its width
    times (width + largest coordinate); the flag is raised below 1e-12
    times that, and for NaN."""
    x = p[:, :, 0]
    lo, hi = np.argmin(x, axis=1), np.argmax(x, axis=1)
    mid = (3 - lo - hi) % 3
    rows = np.arange(len(p))
    d = p[rows, hi] - p[rows, lo]
    e = p[rows, mid] - p[rows, lo]
    det = d[:, 0] * e[:, 1] - d[:, 1] * e[:, 0]
    first = np.where(det > 0, lo, hi)
    order = np.stack([first, lo + hi - first, mid], axis=1)
    width = (p.max(axis=1) - p.min(axis=1)).max(axis=1)
    flat = ~(np.abs(det) > 1e-12 * width * (width + np.abs(p).max(axis=(1, 2))))
    return order, flat


def _canonical_faces(
    faces: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of ``faces``, indices below ``n``, each turned, keeping its
    winding, to start at its lowest index, in lexicographic order; with
    each row's turn, the column its lowest index is in, and the order:
    canonical row i is row ``order[i]`` read from column
    ``turn[order[i]]`` on.

    A turned row (t0, t1, t2) sorts by the key of its first edge,
    t0 * n + t1 (``_edge_keys``, as t0 <= t1), ties broken by t2, which
    is ``np.lexsort``'s order.  A closed, consistently wound surface
    holds each directed edge in one row, so it has no ties and takes one
    sort."""
    a, b, c = faces.T
    turn = faces.argmin(axis=1)
    first, second = turn == 0, turn == 1
    t0 = np.where(first, a, np.where(second, b, c))
    t1 = np.where(first, b, np.where(second, c, a))
    t2 = np.where(first, c, np.where(second, a, b))
    key = _edge_keys(t0, t1, n)
    order = np.argsort(key)
    ranked = key[order]
    if (ranked[1:] == ranked[:-1]).any():
        order = np.lexsort((t2, key))
    return np.column_stack([t0[order], t1[order], t2[order]]), turn, order


# How far below a face's plane the apex across each of its edges must lie
# for a mesh to be its own hull, as a share of its largest coordinate
# about the bounding box's middle: some six orders of magnitude above
# qhull's roundoff, so qhull would merge none of the mesh's facets.
_OWN_HULL_MARGIN = 1e-9

# Row t: the columns a row turned by t reads, (t + k) % 3 for k = 0, 1, 2
_TURNED = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def _own_hull_faces(mesh: TriMesh) -> tuple[np.ndarray, EdgeIndex] | None:
    """The faces of ``convex_hull(mesh.vertices)`` and their
    ``EdgeIndex`` when ``mesh`` is already its own convex hull, else None:
    its own faces, wound outward, in canonical order, and ``mesh.edges``
    carried through those turns and that order.  One array pass over the
    faces and ``mesh.edges``.

    The mesh is its own hull when
    - its surface is closed and consistently oriented (the partner of
      every edge runs the other way), uses every vertex and has
      V - E + F = 2;
    - every edge is strictly convex: the apex across it lies more than
      ``_OWN_HULL_MARGIN`` times the largest coordinate below the face's
      plane, or, for a mesh wound inward, above it for every edge;
    - every vertex star is a single sheet: each face at the vertex has a
      positive component along the axis from the mean of the vertex's
      neighbours to the vertex (the other way for a mesh wound inward),
      and the corner angles projected about that axis sum to 2 pi, which
      rules out pinched vertices and stars wound twice.  That axis lies
      inside every strictly convex cone, so no convex vertex fails for its
      choice, as a skewed star can fail against its summed face normal.
    Every vertex is then a strictly convex cone, so by van Heijenoort's
    local-to-global theorem (Comm. Pure Appl. Math. 1952) the surface
    bounds a convex polytope whose facets are exactly its triangles.
    Coordinates are taken about the bounding box's middle, as in
    ``TriMesh._mass_properties``."""
    edges, faces = mesh.edges, mesh.faces
    n = len(mesh.vertices)
    # closed, E = 3F / 2, so V - E + F = 2 reads 2 V = F + 4
    if not edges.closed or 2 * n != len(faces) + 4:
        return None
    flat, partner = faces.ravel(), edges.partner.ravel()
    if np.any(flat[partner] != faces[:, [1, 2, 0]].ravel()):
        return None
    if not np.bincount(flat, minlength=n).all():
        return None
    # coordinate-major, (3, N), about the bounding box's middle
    v = mesh.vertices.T.copy()
    v -= 0.5 * v.min(axis=1, keepdims=True) + 0.5 * v.max(axis=1, keepdims=True)
    # (3, 3, F): coordinate, corner, face; edge k runs from corner k to
    # k + 1, and back k, from corner k - 1 to k, is edge k - 1
    corners = faces.T
    tri = v.take(corners, axis=1)
    edge = tri[:, [1, 2, 0]] - tri
    back = edge[:, [2, 0, 1]]
    (a0, a1, a2), (b0, b1, b2) = edge[:, 0], edge[:, 1]
    normal = np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = normal / np.sqrt((normal * normal).sum(axis=0))
        # the apex across edge k: in the partner face, the vertex after the
        # edge's two, which is the one before the partner edge's start
        apex = v.take(faces[:, [2, 0, 1]].ravel()[partner].reshape(faces.shape).T, axis=1)
        height = ((apex - tri) * unit[:, None]).sum(axis=0)
        tol = _OWN_HULL_MARGIN * np.abs(v).max()
        if (height < -tol).all():
            outward, lean = faces, -1.0
        elif (height > tol).all():
            outward, lean = faces[:, [0, 2, 1]], 1.0
        else:
            return None
        # the sum of the edges leaving a vertex, which reach each of its
        # neighbours once, points from the vertex to its neighbours' mean;
        # summed face by face, as ``flat`` runs
        axis = lean * np.array([np.bincount(flat, weights=e.T.ravel(), minlength=n) for e in edge])
        axis = (axis / np.sqrt((axis * axis).sum(axis=0))).take(corners, axis=1)
    # the corner at vertex k spans u = edge k and w = -back k, and u x w is
    # the face's normal at every corner; projected about the axis a, the
    # corner's angle has sine a . (u x w) and cosine u . w - (a . u)(a . w)
    sin = (axis * normal[:, None]).sum(axis=0)
    if not (sin > 0.0).all():
        return None
    cos = (axis * edge).sum(axis=0) * (axis * back).sum(axis=0) - (edge * back).sum(axis=0)
    total = np.bincount(flat, weights=np.arctan2(sin, cos).T.ravel(), minlength=n)
    if not (np.abs(total - 2.0 * np.pi) < np.pi).all():
        return None
    hull_faces, turn, order = _canonical_faces(outward, n)
    # hull edge k of row i is edge (turn + k) % 3 of row order[i] of
    # ``outward``; rewound, edge j of a row (a, c, b) is edge 2 - j of
    # (a, b, c)
    column = _TURNED if lean < 0 else (2 - _TURNED) % 3
    src = 3 * order[:, None] + column.take(turn[order], axis=0)
    at = np.empty(src.size, dtype=src.dtype)
    at[src.ravel()] = np.arange(src.size)
    return hull_faces, EdgeIndex(edges.key.ravel()[src], at[partner[src]])


@dataclass
class Facet:
    """Planar polygonal facet of a convex hull."""

    vertex_indices: np.ndarray  # ordered around the polygon, into hull verts
    polygon: np.ndarray  # (k, 3) ordered vertex positions
    normal: np.ndarray  # outward unit normal
    area: float


def merge_coplanar_facets(hull: TriMesh, angle_tol: float = FACET_ANGLE_TOL) -> list[Facet]:
    """Merge adjacent hull triangles whose normals deviate by less than
    ``angle_tol`` into convex polygonal facets.

    Faces are visited in index order; each unvisited face seeds a facet
    that grows over adjacent faces within ``angle_tol`` of the seed's
    normal (not of the face they are reached from), so a slowly curving
    surface splits into several facets rather than one.  The faces of a
    hull from ``convex_hull`` or ``TriMesh.hull`` are in canonical order,
    so the facets and their order depend only on the hull's triangles.  Faces are
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
    partner = edges.partner
    across = partner // 3
    # the small slack absorbs rounding in the normals' dot products
    near = np.einsum("ij,ikj->ik", normals, normals[across]) > np.cos(2.0 * angle_tol) - 1e-12
    rows = np.flatnonzero(near.any(axis=1))
    # each such face's near neighbours across its edges, ordered as the
    # neighbour lists of a scan over faces and their edges: by the first
    # row that holds the edge
    first = np.minimum(partner[rows], 3 * rows[:, None] + np.arange(3))
    order = np.argsort(first, axis=1, kind="stable")
    kept = np.take_along_axis(near[rows], order, axis=1)
    src = np.repeat(rows, kept.sum(axis=1))
    dst = np.take_along_axis(across[rows], order, axis=1)[kept]
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
    group's vertices ordered around the polygon, by ``_convex_rings`` in
    the facet plane."""
    normals, areas = hull.face_normals_and_areas
    w = areas[group]
    n = (w[:, None] * normals[group]).sum(axis=0)
    n /= np.linalg.norm(n)
    vidx = np.unique(hull.faces[group])
    pts = hull.vertices[vidx]
    e1 = _any_perpendicular(n)
    e2 = cross(n, e1)
    uv = np.column_stack([pts @ e1, pts @ e2])
    rings = _convex_rings(uv[None])
    if rings:
        order = rings[0][1][0]
    else:
        # nearly-degenerate facet, which qhull rejects: order along the
        # dominant axis
        d = uv - uv.mean(axis=0)
        order = np.argsort(d @ d[np.argmax(np.linalg.norm(d, axis=1))])
    return Facet(
        vertex_indices=vidx[order],
        polygon=pts[order],
        normal=n,
        area=float(w.sum()),
    )


# --- one-triangle supports ----------------------------------------------------


def _edge_line_distances(
    hull: TriMesh, normals: np.ndarray, com: np.ndarray, rows=slice(None)
) -> np.ndarray:
    """(R, 3) in-plane signed distances from ``com`` to the line of edge k
    (vertex k to k + 1) of each hull triangle in ``rows`` (all of them by
    default), positive inward; ``normals`` holds every face's.  A row has
    the same bits in any selection.  Degenerate triangles give NaN."""
    tri = hull.vertices[hull.faces[rows]]  # (R, 3, 3)
    edge = np.roll(tri, -1, axis=1) - tri
    inward = cross(normals[rows, None, :], edge)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.einsum("fkj,fkj->fk", inward, com - tri) / np.linalg.norm(
            inward, axis=2
        )


def _point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances from point p to the segments a[..., i] -> b[..., i]; a
    segment of zero length measures to a."""
    ab = b - a
    denom = np.vecdot(ab, ab)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom == 0, 0.0, np.clip(np.vecdot(p - a, ab) / denom, 0.0, 1.0))
    r = p - (a + t[..., None] * ab)
    return np.sqrt(np.vecdot(r, r))


def _nearest_edge(dist: np.ndarray, beyond: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Index, along the last axis, of the edge nearest a point, from the
    point's distances to the edge segments, its signed distances beyond
    the edge lines (positive outside) and the edges' keys
    (``_edge_keys``) of sorted hull-vertex index pairs.

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

    Row r belongs to hull face r, and ``row_of`` maps each face's
    ascending hull-vertex triple (i, j, k) to its row.  Everything is in
    the body frame.

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

    row_of: dict[tuple[int, int, int], int]
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
        ``hull.edges``."""
        hull, com = mesh.hull, mesh.com
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
        row_of = dict(zip(map(tuple, np.sort(faces, axis=1).tolist()), rows.tolist()))
        return cls(row_of, inward.min(axis=1), edge, across, turn, height, clear)

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
    p = com - np.einsum("fj,fj->f", com - tri[:, 0], normals)[:, None] * normals
    dist = _point_segment_distance(p[:, None, :], tri, np.roll(tri, -1, axis=1))
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


def _surface_points(
    mesh: TriMesh, face_draw: np.ndarray, u: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Area-weighted uniform surface points from uniform doubles in
    [0, 1), and the faces they lie on: ``face_draw`` picks each face by
    area, as ``Generator.choice`` picks it from the same draw
    (``TriMesh.area_cdf``), and the pair (u, w), reflected into the lower
    triangle when u + w > 1, places the point on it.  The one surface
    sampler."""
    face = mesh.area_cdf.searchsorted(face_draw, side="right")
    flip = u + w > 1.0
    u = np.where(flip, 1.0 - u, u)[:, None]
    w = np.where(flip, 1.0 - w, w)[:, None]
    a, e1, e2 = mesh.triangle_edges
    return a[face] + u * e1[face] + w * e2[face], face


def sample_point_cloud(mesh: TriMesh, m: int, seed: int) -> np.ndarray:
    """m area-weighted uniform surface points (``_surface_points``),
    deterministic per seed: the seeded generator draws the m face picks,
    then the m values of u, then the m values of w."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    return _surface_points(mesh, *(rng.random(m) for _ in range(3)))[0]


# --- auxiliary-plane geometry ----------------------------------------------


def plane_from_contacts(p1: np.ndarray, p2: np.ndarray, p3: np.ndarray) -> np.ndarray:
    """Vector v such that the plane through the three points is
    v . x = |v|^2; v is the plane's closest point to the origin."""
    v, spans, off_origin = plane_vectors(*(np.asarray(p, dtype=float) for p in (p1, p2, p3)))
    if not spans:
        raise CollinearContacts("contact points do not span a plane")
    if not off_origin:
        raise ZeroPlaneVector("plane through the origin has no vector form")
    return v


def plane_vectors(
    p1: np.ndarray, p2: np.ndarray, p3: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``plane_from_contacts`` of the point triples (p1, p2, p3), each
    (..., 3), without raising: the vectors v (..., 3), whether the points
    span a plane (half the normal's length above 1e-10), and whether the
    plane is off the origin (distance at least 1e-12).  v is only
    meaningful where both hold."""
    n = cross(p2 - p1, p3 - p1)
    area2 = np.sqrt(np.vecdot(n, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        n = n / area2[..., None]
    d = np.vecdot(n, p1)
    return d[..., None] * n, ~(area2 / 2.0 <= 1e-10), ~(np.abs(d) < 1e-12)


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
