"""Parallel-jaw grasp sampling, plane-clearance feasibility, shared-grasp
manipulation graphs, and breadth-first regrasp planning.

The gripper model is two finger boxes plus a clearance half-space; robot
arm kinematics are out of scope.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import TriMesh
from .placements import Placement


class NoPlanExists(RuntimeError):
    """Start and goal placements are not connected by shared grasps."""


@dataclass(frozen=True)
class GripperSpec:
    max_width: float = 0.08
    finger_length: float = 0.04
    finger_thickness: float = 0.01
    friction_angle: float = 0.2  # radians
    plane_clearance: float = 0.005

    def __post_init__(self):
        for name in ("max_width", "finger_length", "finger_thickness", "plane_clearance"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.friction_angle < math.inf:
            raise ValueError("friction_angle must be non-negative and finite")


@dataclass
class GraspConfig:
    """Body-frame antipodal grasp: two finger contacts and an approach
    direction perpendicular to the grasp axis."""

    contact_a: np.ndarray  # (3,)
    contact_b: np.ndarray  # (3,)
    approach: np.ndarray  # unit (3,)

    @property
    def width(self) -> float:
        return float(np.linalg.norm(self.contact_b - self.contact_a))

    def to_json_dict(self) -> dict:
        return {
            "contact_a": [float(x) for x in self.contact_a],
            "contact_b": [float(x) for x in self.contact_b],
            "approach": [float(x) for x in self.approach],
            "width": self.width,
        }


@dataclass(frozen=True, eq=False)
class GraspSet:
    """Grasps as a struct of arrays: row k of ``contact_a``, ``contact_b``
    and ``approach`` (each a read-only (G, 3) copy of its input) is grasp
    k.  Indexing with an int builds that one grasp's ``GraspConfig``, whose
    vectors are views of the rows."""

    contact_a: np.ndarray
    contact_b: np.ndarray
    approach: np.ndarray

    def __post_init__(self):
        for name in ("contact_a", "contact_b", "approach"):
            rows = np.array(getattr(self, name), dtype=float)
            if rows.size == 0:
                rows = rows.reshape(0, 3)
            if rows.ndim != 2 or rows.shape[1] != 3:
                raise ValueError(f"{name} must have shape (G, 3), got {rows.shape}")
            rows.setflags(write=False)
            object.__setattr__(self, name, rows)
        if not len(self.contact_a) == len(self.contact_b) == len(self.approach):
            raise ValueError("contact_a, contact_b and approach differ in length")

    def __len__(self) -> int:
        return len(self.contact_a)

    def __getitem__(self, k: int) -> GraspConfig:
        k = operator.index(k)
        return GraspConfig(
            contact_a=self.contact_a[k], contact_b=self.contact_b[k], approach=self.approach[k]
        )

    def __iter__(self) -> Iterator[GraspConfig]:
        return (self[k] for k in range(len(self)))


def as_grasp_set(grasps: GraspSet | Sequence[GraspConfig]) -> GraspSet:
    """``grasps`` itself, or a sequence of ``GraspConfig`` stacked row by
    row."""
    if isinstance(grasps, GraspSet):
        return grasps
    return GraspSet(
        contact_a=[gr.contact_a for gr in grasps],
        contact_b=[gr.contact_b for gr in grasps],
        approach=[gr.approach for gr in grasps],
    )


@dataclass
class ManipulationGraph:
    """Placements as nodes, shared-grasp sets as undirected edges.

    Treated as immutable after construction: its adjacency and
    breadth-first trees are built on first use, so changing ``edges`` in
    place leaves them stale.
    """

    nodes: list[Placement]
    grasps: GraspSet
    edges: dict[tuple[int, int], list[int]]  # (i, j) with i < j -> grasp indices

    @cached_property
    def adjacency(self) -> dict[int, list[tuple[int, list[int]]]]:
        """Node -> its (neighbour, shared grasp indices) pairs, ascending."""
        adj: dict[int, list[tuple[int, list[int]]]] = {}
        for (a, b), grasp_indices in self.edges.items():
            adj.setdefault(a, []).append((b, grasp_indices))
            adj.setdefault(b, []).append((a, grasp_indices))
        for neighbours in adj.values():
            neighbours.sort()
        return adj

    @cached_property
    def trees(self) -> dict[int, dict[int, tuple[int, int]]]:
        """Start -> its ``bfs_tree``, filled by that method."""
        return {}

    def bfs_tree(self, start: int) -> dict[int, tuple[int, int]]:
        """Breadth-first tree from ``start``: each node it reaches, start
        excepted, mapped to (parent, lowest shared grasp index of their
        edge), set when the node is first discovered.  Nodes leave the
        queue in discovery order and take their neighbours in ascending
        order.  Built once per start."""
        tree = self.trees.get(start)
        if tree is None:
            tree = self.trees[start] = {}
            queue = deque([start])
            while queue:
                cur = queue.popleft()
                for nxt, grasp_indices in self.adjacency.get(cur, ()):
                    if nxt != start and nxt not in tree:
                        tree[nxt] = (cur, grasp_indices[0])
                        queue.append(nxt)
        return tree


@dataclass
class PlanStep:
    from_node: int
    to_node: int
    grasp: GraspConfig


@dataclass
class Plan:
    steps: list[PlanStep]

    def to_json_dict(self) -> dict:
        return {
            "steps": [
                {
                    "from_type": s.from_node,
                    "to_type": s.to_node,
                    "grasp": s.grasp.to_json_dict(),
                }
                for s in self.steps
            ]
        }


# Ray-face pairs per block of the batched ray cast, whatever the sample
# count.  The broad phase tests one block at a time, in (rays, faces)
# temporaries of about 33 kB and one matmul output of about 100 kB.  The
# narrow phase pads each ray's kept faces to a common width, over the rays
# of consecutive blocks while their padded pairs fit one block, so its
# (rays, width, 3) temporaries take about 100 kB too (one ray's worth on a
# mesh of more faces).
_RAY_FACE_BLOCK = 4096

# Broad-phase slack, derived in the _broad_phase docstring beside the
# relative sphere growth mesh._SPHERE_SLACK: the broad phase's own
# rounding in units of S^2 |d|^2 or S |d|, and the |det| scale below which
# the narrow phase's rounding could pass a pair.
_ROUNDING_SLACK = 64 * np.finfo(float).eps / 2
_DET_SLACK = 1e-6


def _broad_phase(mesh: TriMesh, origins: np.ndarray, directions: np.ndarray, step: int):
    """Yield, per block of ``step`` rays, the (rays, faces) mask of the
    ray-face pairs that ``_narrow_phase`` may accept; it accepts no other
    pair in floating point.

    With o and d a ray's origin and direction, and c and rho the centre
    and radius of a face's bounding sphere (``TriMesh.face_spheres``), a
    pair is kept when the ray is near-grazing for the face's size, or
    when its line passes within R = (1 + _SPHERE_SLACK) rho of c and c
    lies no more than R behind o along d (``mesh._SPHERE_SLACK`` is
    1e-6).  A NaN anywhere keeps its pair.

    Derivation.  Let u = 2**-53, a be the face's first vertex, e1 and e2
    its float edges and T = |o - a|.  Each narrow-phase numerator and det
    is a cross product and a dot of float vectors (T's rounding
    included), so it is off by at most sqrt(2) gamma_6 < 10u times the
    product of its three vectors' lengths: 10u |d| |e2| T for u,
    10u |d| |e1| T for w, 10u |e1| |e2| T for t and 10u |d| |e1| |e2| for
    det.  The edges are chords of the sphere, so |e1|, |e2| <= 2 rho.
    Where |det| > _DET_SLACK |d| 2 rho (T + 2 rho), each numerator error
    over |det| is below 10u / 1e-6 < 1.2e-9 (2.4e-9 rho / |d| for t), and
    so is det's relative error.  Computed u and w that pass their 1e-9
    tests then stem from exact ones with u, w >= -3.5e-9 and
    u + w <= 1 + 6e-9: the exact hit point lies in the face grown by
    2e-8 of its size about its centroid, so within (1 + 1e-7) rho of c,
    and t > 1e-9 leaves it at most 3e-9 rho behind o along d.  The
    1e-6 in R also absorbs rho's rounding and that of e1 and e2, which
    are off b - a and c - a by at most 2u rho.

    The broad phase works in a frame centred on m, the middle of the
    mesh's bounding box (``TriMesh.ray_cast_tables``), and reads
    o' = fl(o - m) and c' = fl(c - m).  Each shift is off the exact one
    by at most u of its length, so o' - c' is off o - c by a vector delta
    with |delta| <= 1.01u S, where S = max |o'| + max (|c'| + rho) >= rho.
    S bounds T <= |o - m| + |c - m| + |a - c| to within a relative 3u;
    the 1.2e-9 above, against 10u / 1e-6 = 1.11e-9, leaves room for that.
    The broad phase reads |det| / 2 rho as |d . n| A / rho, with the
    face's unit normal n and area A; that is off by less than
    20u rho |d| + 8u |det| / 2 rho, far below the threshold, which it
    takes as _DET_SLACK |d| (S + 2 max rho).

    Shifted, c' is at most |delta| farther from the line through o'
    along d than c is from the line through o, and (c' - o') . d is
    within |delta| |d| of (c - o) . d.  For a pair the narrow phase may
    accept, then, the squared line distance less R^2, times |d|^2,
    (|c' - o'|^2 - R^2) |d|^2 - ((c' - o') . d)^2, is at most
    (2 (1 + 1e-7) rho |delta| + |delta|^2) |d|^2 < 2.1u S^2 |d|^2 in
    exact arithmetic, and c''s offset along the line, (c' - o') . d +
    R |d|, at least -1.01u S |d|.  The two matmuls per block take sums of
    at most five products of values bounded by S, so they compute the
    first within 34u S^2 |d|^2 and the second within 12u S |d|.  Both
    cuts take _ROUNDING_SLACK = 64u of these scales as slack.  S grows
    with the mesh's size and the rays' distance from it, not with their
    distance from the coordinate origin.
    """
    tables = mesh.ray_cast_tables
    reach = tables.reach
    f = len(reach)
    origins = origins - tables.middle
    oo = np.einsum("ij,ij->i", origins, origins)
    od = np.einsum("ij,ij->i", origins, directions)
    dd = np.einsum("ij,ij->i", directions, directions)[:, None]
    nd = np.sqrt(dd)
    bound = np.sqrt(oo.max()) + tables.extent  # S
    line_slack = _ROUNDING_SLACK * bound * bound * dd
    behind_slack = -_ROUNDING_SLACK * bound * nd
    det_bound = _DET_SLACK * (bound + 2.0 * tables.max_radius) * nd
    # rows (o |d|^2, |d|^2, |o|^2 |d|^2) and (d, o . d) for the tables
    line_rows = np.column_stack([origins * dd, dd, oo[:, None] * dd])
    axis_rows = np.column_stack([directions, od])
    for s in range(0, len(origins), step):
        b = slice(s, s + step)
        m = axis_rows[b] @ tables.axis_table
        qd = m[:, :f]
        far = line_rows[b] @ tables.line_table - qd * qd > line_slack[b]
        behind = qd + reach * nd[b] < behind_slack[b]
        grazing = np.abs(m[:, f:]) <= det_bound[b]
        yield grazing | ~(far | behind)


def _ray_mesh_exits(
    mesh: TriMesh, origins: np.ndarray, directions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Farthest Moller-Trumbore hit of each ray (R, 3), skipping grazing
    hits near its origin: (R,) distances along the ray and face indices,
    face -1 where the ray hits nothing.

    When the rays times the faces fit one block of ``_RAY_FACE_BLOCK``
    pairs, one ``_narrow_phase`` tests every pair.  Otherwise
    ``_broad_phase`` drops, in blocks of about that many ray-face pairs
    (at least one ray each), the pairs the test cannot accept.
    Consecutive blocks then share one ``_narrow_phase`` while their rays
    times the most faces one of them keeps stay within that budget.

    The skip pays on small meshes, where the broad phase keeps 82-99.9%
    of pairs.  A dense mesh with few rays loses by it: just under one
    block, ``ellipsoid(2)`` with 12 rays and ``ellipsoid(3)`` with 3 keep
    2.3% and 0.6% of pairs, and one call takes 0.7-0.9 ms skipping
    against 0.26-0.34 ms culling (median of 400, 2-core Xeon).
    """
    n = len(origins)
    f = len(mesh.faces)
    if n * f <= _RAY_FACE_BLOCK:
        return _narrow_phase(
            mesh, origins, directions, [np.repeat(np.arange(n), f)], [np.tile(np.arange(f), n)]
        )
    dist = np.zeros(n)
    face = np.full(n, -1)
    step = max(1, _RAY_FACE_BLOCK // f)
    lo, width, rays, faces = 0, 2, [], []
    for s, keep in zip(range(0, n, step), _broad_phase(mesh, origins, directions, step)):
        block_width = keep.sum(axis=1).max()
        if s > lo and (s + len(keep) - lo) * max(width, block_width) > _RAY_FACE_BLOCK:
            dist[lo:s], face[lo:s] = _narrow_phase(
                mesh, origins[lo:s], directions[lo:s], rays, faces
            )
            lo, width, rays, faces = s, 2, [], []
        ray, col = np.nonzero(keep)
        rays.append(ray + (s - lo))
        faces.append(col)
        width = max(width, block_width)
    dist[lo:], face[lo:] = _narrow_phase(mesh, origins[lo:], directions[lo:], rays, faces)
    return dist, face


def _narrow_phase(
    mesh: TriMesh,
    origins: np.ndarray,
    directions: np.ndarray,
    rays: list[np.ndarray],
    faces: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """``_ray_mesh_exits`` over the ray-face pairs (rays[k][i],
    faces[k][i]), listed by ray and then face, ascending.

    Each ray's faces, padded to a common width, take the arithmetic of a
    one-ray cast over all faces (a stacked ``matmul`` of two or more rows
    reduces as the one-ray ``qvec @ direction`` does), and ``argmax``
    picks the first of equal farthest hits, so a ray's result depends
    neither on its batch nor on the culling, bit for bit.
    """
    a, e1, e2 = mesh.triangle_edges
    n = len(origins)
    rays, faces = np.concatenate(rays), np.concatenate(faces)
    counts = np.bincount(rays, minlength=n)
    # a one-row matmul takes numpy's dot path, whose last bits differ
    width = max(2, counts.max())
    kept = np.zeros((n, width), dtype=np.intp)
    kept[rays, np.arange(len(rays)) - (np.cumsum(counts) - counts)[rays]] = faces
    o = origins[:, None]
    d = directions
    ka, ke1, ke2 = a[kept], e1[kept], e2[kept]
    pvec = _cross(d[:, None], ke2)
    det = np.einsum("nij,nij->ni", ke1, pvec)
    ok = (np.arange(width) < counts[:, None]) & (np.abs(det) > 1e-12)
    inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    tvec = o - ka
    u = np.einsum("nij,nij->ni", tvec, pvec) * inv
    qvec = _cross(tvec, ke1)
    w = np.matmul(qvec, d[:, :, None])[..., 0] * inv
    t = np.einsum("nij,nij->ni", ke2, qvec) * inv
    hit = ok & (u >= -1e-9) & (w >= -1e-9) & (u + w <= 1 + 1e-9) & (t > 1e-9)
    t = np.where(hit, t, -np.inf)
    far = t.argmax(axis=1)
    rows = np.flatnonzero(hit.any(axis=1))
    dist = np.zeros(n)
    face = np.full(n, -1)
    dist[rows] = t[rows, far[rows]]
    face[rows] = kept[rows, far[rows]]
    return dist, face


def _cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.cross`` of two stacks of 3-vectors, bit for bit: each
    component is one elementwise product minus another, as there, without
    that function's per-call overhead."""
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    y0, y1, y2 = y[..., 0], y[..., 1], y[..., 2]
    return np.stack([x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0], axis=-1)


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (M, 3) stacks, each bitwise ``np.dot`` of
    its two rows."""
    return np.matmul(x[:, None], y[:, :, None])[:, 0, 0]


def _lengths(x: np.ndarray) -> np.ndarray:
    """Row lengths, each bitwise ``np.linalg.norm`` of its row."""
    return np.sqrt(_dots(x, x))


def _perpendicular_bases(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors spanning the plane perpendicular to each unit row
    of ``axis``, right-handed with it."""
    ref = np.where((np.abs(axis[:, 2]) < 0.9)[:, None], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    e1 = _cross(axis, ref)
    e1 /= _lengths(e1)[:, None]
    return e1, _cross(axis, e1)


def sample_antipodal_grasps(
    mesh: TriMesh,
    n: int,
    g: GripperSpec,
    seed: int,
    approach_count: int = 8,
) -> GraspSet:
    """Sample up to n antipodal contact pairs by surface point + inward
    ray casting, each expanded into evenly spaced approach directions in
    the plane perpendicular to the grasp axis: ``approach_count``
    consecutive grasps per kept pair.  Deterministic per seed.

    All n samples go through in one array pass.  Sample i reads the
    uniform doubles 3i, 3i + 1 and 3i + 2 of the seeded generator: the
    face, by area, as ``Generator.choice`` picks it, then the barycentric
    pair.  So a seed gives the same grasps as a loop drawing one sample
    at a time.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if approach_count < 1:
        raise ValueError("approach_count must be >= 1")
    draws = np.random.default_rng(seed).random((n, 3))
    fi = mesh.area_cdf.searchsorted(draws[:, 0], side="right")
    u, w = draws[:, 1], draws[:, 2]
    flip = u + w > 1.0
    u = np.where(flip, 1.0 - u, u)[:, None]
    w = np.where(flip, 1.0 - w, w)[:, None]
    a, e1, e2 = mesh.triangle_edges
    p1 = a[fi] + u * e1[fi] + w * e2[fi]
    normals = mesh.face_normals_and_areas[0]
    inward = -normals[fi]
    dist, fj = _ray_mesh_exits(mesh, p1, inward)
    hit = fj >= 0
    p1, inward, fj = p1[hit], inward[hit], fj[hit]
    p2 = p1 + dist[hit][:, None] * inward
    d = p2 - p1
    width = _lengths(d)
    # closing direction at the second finger is the inward normal at the
    # first; antipodality keeps the contact normal inside the friction
    # cone.  Both tests reject only on a true comparison, so a NaN passes
    # them, as in the one-sample-at-a-time form
    keep = ~(width > g.max_width) & ~(
        _dots(normals[fj], inward) < np.cos(g.friction_angle) - 1e-9
    )
    p1, p2 = p1[keep], p2[keep]
    axis = d[keep] / width[keep][:, None]
    b1, b2 = _perpendicular_bases(axis)
    # one scalar cos and sin per angle: over an array, numpy may take a
    # vector kernel whose last bits differ
    ang = [2.0 * np.pi * k / approach_count for k in range(approach_count)]
    cos = np.array([np.cos(x) for x in ang])[:, None]
    sin = np.array([np.sin(x) for x in ang])[:, None]
    approaches = cos * b1[:, None] + sin * b2[:, None]
    return GraspSet(
        contact_a=np.repeat(p1, approach_count, axis=0),
        contact_b=np.repeat(p2, approach_count, axis=0),
        approach=approaches.reshape(-1, 3),
    )


def _world(r: np.ndarray, v: np.ndarray) -> list[np.ndarray]:
    """The three world coordinates of r[p] @ v[:, k] for every pair, as
    (P, N) rows, from (P, 3, 3) rotations and coordinate-major (3, N)
    vectors: coordinate i is r[p, i, 0] v[0] + r[p, i, 1] v[1] +
    r[p, i, 2] v[2], in elementwise operations only, so each entry is
    bitwise the same for any P and N."""
    return [r[:, i, 0, None] * v[0] + r[:, i, 1, None] * v[1] + r[:, i, 2, None] * v[2]
            for i in range(3)]


def _norm(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Length of the vectors with coordinates x, y and z, elementwise."""
    return np.sqrt(x * x + y * y + z * z)


def feasibility_matrix(
    placements: list[Placement], grasps: GraspSet | Sequence[GraspConfig], g: GripperSpec
) -> np.ndarray:
    """Boolean (placements x grasps) matrix: entry (i, k) is True when
    grasp k, moved to the world frame of placement i, keeps all 8 corners
    of both finger boxes at or above the clearance plane z =
    plane_clearance, tested at each box's lowest corner.

    Finger boxes extend finger_length backward along the approach and
    half a finger_thickness sideways along the grasp axis and binormal;
    side grasps are allowed (no approach-direction constraint).  Grasps
    wider than max_width are infeasible everywhere, and so are grasps of
    zero width, whose axis is undefined.

    Every pass is elementwise over contiguous (placements, grasps) rows:
    one world coordinate at a time, then the lowest corner height of one
    contact's finger box at a time, so an entry's bits do not depend on
    the other rows or columns.
    """
    gs = as_grasp_set(grasps)
    n = len(gs)
    if not n:
        return np.zeros((len(placements), 0), dtype=bool)
    r = np.array([p.rotation for p in placements], dtype=float).reshape(-1, 3, 3)
    t = np.array([p.translation for p in placements], dtype=float).reshape(-1, 3)
    # one rotation pass over [contact_a | contact_b | approach] columns
    world = _world(r, np.concatenate([gs.contact_a.T, gs.contact_b.T, gs.approach.T], axis=1))
    contacts = [x[:, : 2 * n] + t[:, i, None] for i, x in enumerate(world)]
    ca = [x[:, :n] for x in contacts]
    cb = [x[:, n:] for x in contacts]
    approach = [x[:, 2 * n :] for x in world]
    axis = [y - x for x, y in zip(ca, cb)]
    # a zero-width axis turns to NaN, and NaN corners fail the clearance test
    with np.errstate(invalid="ignore", divide="ignore"):
        length = _norm(*axis)
        axis = [x / length for x in axis]
    binorm_z = approach[0] * axis[1] - approach[1] * axis[0]
    # a finger box's lowest corner: half a thickness down along the axis
    # and the binormal, and a finger length back if the approach points
    # up.  Rounding is monotone, so it is also the least of the 8 corner
    # heights ((c_z +- side) +- binormal) - back as computed; a NaN fails
    half = 0.5 * g.finger_thickness
    side = half * np.abs(axis[2])
    binormal = half * np.abs(binorm_z)
    back = g.finger_length * np.maximum(approach[2], 0.0)
    clear = np.ones(binorm_z.shape, dtype=bool)
    for c_z in (ca[2], cb[2]):
        clear &= ((c_z - side) - binormal) - back >= g.plane_clearance
    width = _norm(*(gs.contact_b - gs.contact_a).T)
    return clear & (width <= g.max_width + 1e-12)


def grasp_feasible_in_placement(
    grasp: GraspConfig, placement: Placement, g: GripperSpec
) -> bool:
    """One entry of ``feasibility_matrix``."""
    return bool(feasibility_matrix([placement], [grasp], g)[0, 0])


def shared_grasps(
    pa: Placement, pb: Placement, grasps: GraspSet | Sequence[GraspConfig], g: GripperSpec
) -> list[GraspConfig]:
    """Grasps feasible in both placements, in input order."""
    both = feasibility_matrix([pa, pb], grasps, g).all(axis=0)
    return [grasps[k] for k in np.flatnonzero(both).tolist()]


def build_manipulation_graph(
    placements: list[Placement], grasps: GraspSet | Sequence[GraspConfig], g: GripperSpec
) -> ManipulationGraph:
    """Complete pairwise shared-grasp evaluation; edges carry the
    ascending indices of their shared grasps.  Without grasps the graph
    has no edges."""
    if not placements:
        raise ValueError("need at least one placement")
    grasps = as_grasp_set(grasps)
    if not len(grasps):
        return ManipulationGraph(nodes=placements, grasps=grasps, edges={})
    f = feasibility_matrix(placements, grasps, g)
    fi = f.astype(np.int64)
    shared_counts = np.triu(fi @ fi.T, k=1)
    # every edge's shared grasps from one pass over the edges' rows, split
    # by their counts
    i, j = np.nonzero(shared_counts)
    shared = np.nonzero(f[i] & f[j])[1].tolist()
    edges: dict[tuple[int, int], list[int]] = {}
    start = 0
    for edge, end in zip(zip(i.tolist(), j.tolist()), np.cumsum(shared_counts[i, j]).tolist()):
        edges[edge] = shared[start:end]
        start = end
    return ManipulationGraph(nodes=placements, grasps=grasps, edges=edges)


def plan_regrasp(graph: ManipulationGraph, start: int, goal: int) -> Plan:
    """Breadth-first shortest path; each step carries the lowest-index
    shared grasp of its edge.  start == goal gives an empty plan.

    The path is read from the graph's cached ``bfs_tree`` of ``start``,
    so one search serves every goal.  A search that stops on reaching
    the goal has by then given every node it reached the parent and grasp
    the full tree gives it, so each plan is, step for step, the one that
    search would return.
    """
    n = len(graph.nodes)
    if not (0 <= start < n and 0 <= goal < n):
        raise ValueError("start/goal not in graph")
    if start == goal:
        return Plan(steps=[])
    tree = graph.bfs_tree(start)
    if goal not in tree:
        raise NoPlanExists(f"no path from {start} to {goal}")
    steps: list[PlanStep] = []
    node = goal
    while node != start:
        parent, gk = tree[node]
        steps.append(PlanStep(from_node=parent, to_node=node, grasp=graph.grasps[gk]))
        node = parent
    return Plan(steps=steps[::-1])
