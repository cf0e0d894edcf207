"""Parallel-jaw grasp sampling, plane-clearance feasibility, shared-grasp
manipulation graphs, and breadth-first regrasp planning.

The gripper model is two finger boxes plus a clearance half-space; robot
arm kinematics are out of scope.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

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
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.friction_angle >= 0:
            raise ValueError("friction_angle must be non-negative")


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

    @property
    def axis(self) -> np.ndarray:
        d = self.contact_b - self.contact_a
        return d / np.linalg.norm(d)

    def to_json_dict(self) -> dict:
        return {
            "contact_a": [float(x) for x in self.contact_a],
            "contact_b": [float(x) for x in self.contact_b],
            "approach": [float(x) for x in self.approach],
            "width": self.width,
        }


@dataclass
class ManipulationGraph:
    """Placements as nodes, shared-grasp sets as undirected edges.

    Treated as immutable after construction: its adjacency is built on
    first use, so changing ``edges`` in place leaves it stale.
    """

    nodes: list[Placement]
    grasps: list[GraspConfig]
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


# Ray-face pairs per block of the batched ray cast: bounds each of its
# (rays, faces, 3) temporaries at about 100 kB (one ray's worth on a mesh of
# more faces) whatever the sample count.
_RAY_FACE_BLOCK = 4096


def _ray_mesh_exits(
    mesh: TriMesh, origins: np.ndarray, directions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Farthest Moller-Trumbore hit of each ray (R, 3), skipping grazing
    hits near its origin: (R,) distances along the ray and face indices,
    face -1 where the ray hits nothing.

    Rays go in blocks of about ``_RAY_FACE_BLOCK`` ray-face pairs, at
    least one ray each.  Every ray-face pair takes the arithmetic of a
    one-ray cast (a stacked ``matmul`` reduces as the one-ray
    ``qvec @ direction`` does), so a ray's result does not depend on the
    block it falls in, bit for bit.
    """
    a, e1, e2 = mesh.triangle_edges
    dist = np.zeros(len(origins))
    face = np.full(len(origins), -1)
    step = max(1, _RAY_FACE_BLOCK // len(a))
    for s in range(0, len(origins), step):
        o = origins[s : s + step, None]
        d = directions[s : s + step]
        pvec = np.cross(d[:, None], e2)
        det = np.einsum("nij,nij->ni", e1[None], pvec)
        ok = np.abs(det) > 1e-12
        inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        tvec = o - a
        u = np.einsum("nij,nij->ni", tvec, pvec) * inv
        qvec = np.cross(tvec, e1)
        w = np.matmul(qvec, d[:, :, None])[..., 0] * inv
        t = np.einsum("nij,nij->ni", e2[None], qvec) * inv
        hit = ok & (u >= -1e-9) & (w >= -1e-9) & (u + w <= 1 + 1e-9) & (t > 1e-9)
        t = np.where(hit, t, -np.inf)
        far = t.argmax(axis=1)
        rows = np.flatnonzero(hit.any(axis=1))
        dist[s + rows] = t[rows, far[rows]]
        face[s + rows] = far[rows]
    return dist, face


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
    e1 = np.cross(axis, ref)
    e1 /= _lengths(e1)[:, None]
    return e1, np.cross(axis, e1)


def sample_antipodal_grasps(
    mesh: TriMesh,
    n: int,
    g: GripperSpec,
    seed: int,
    approach_count: int = 8,
) -> list[GraspConfig]:
    """Sample up to n antipodal contact pairs by surface point + inward
    ray casting, each expanded into evenly spaced approach directions in
    the plane perpendicular to the grasp axis.  Deterministic per seed.

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
    return [
        GraspConfig(contact_a=ca, contact_b=cb, approach=ap)
        for ca, cb, aps in zip(p1, p2, approaches)
        for ap in aps
    ]


def _rotate(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """r[p] @ v[n] for every pair as (P, N, 3), in elementwise operations
    only, so each entry is bitwise the same for any P and N."""
    r = r[:, None]
    v = v[:, None]
    return r[..., 0] * v[..., 0] + r[..., 1] * v[..., 1] + r[..., 2] * v[..., 2]


def _norm(v: np.ndarray) -> np.ndarray:
    """Length along the last axis, elementwise like ``_rotate``."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return np.sqrt(x * x + y * y + z * z)


# Finger-box corners: (axis sign, binormal sign, back along the approach).
_CORNERS = np.array(list(product((-1.0, 1.0), (-1.0, 1.0), (0.0, 1.0)))).T


def feasibility_matrix(
    placements: list[Placement], grasps: list[GraspConfig], g: GripperSpec
) -> np.ndarray:
    """Boolean (placements x grasps) matrix: entry (i, k) is True when
    grasp k, moved to the world frame of placement i, keeps all 8 corners
    of both finger boxes above the clearance plane z = plane_clearance.

    Finger boxes extend finger_length backward along the approach and
    half a finger_thickness sideways along the grasp axis and binormal;
    side grasps are allowed (no approach-direction constraint).  Grasps
    wider than max_width are infeasible everywhere.
    """
    r = np.array([p.rotation for p in placements], dtype=float).reshape(-1, 3, 3)
    t = np.array([p.translation for p in placements], dtype=float).reshape(-1, 1, 3)
    a = np.array([gr.contact_a for gr in grasps], dtype=float).reshape(-1, 3)
    b = np.array([gr.contact_b for gr in grasps], dtype=float).reshape(-1, 3)
    n = np.array([gr.approach for gr in grasps], dtype=float).reshape(-1, 3)
    approach = _rotate(r, n)
    ca = _rotate(r, a) + t
    cb = _rotate(r, b) + t
    axis = cb - ca
    axis /= _norm(axis)[..., None]
    binorm_z = approach[..., 0] * axis[..., 1] - approach[..., 1] * axis[..., 0]
    half = 0.5 * g.finger_thickness
    s1, s2, back = _CORNERS
    clear = np.ones(axis.shape[:2], dtype=bool)
    for c in (ca, cb):
        corner_z = (
            c[..., 2, None]
            + (s1 * half) * axis[..., 2, None]
            + (s2 * half) * binorm_z[..., None]
            - (back * g.finger_length) * approach[..., 2, None]
        )
        clear &= corner_z.min(axis=-1) >= g.plane_clearance
    width = _norm(b - a)
    return clear & (width <= g.max_width + 1e-12)


def grasp_feasible_in_placement(
    grasp: GraspConfig, placement: Placement, g: GripperSpec
) -> bool:
    """One entry of ``feasibility_matrix``."""
    return bool(feasibility_matrix([placement], [grasp], g)[0, 0])


def shared_grasps(
    pa: Placement, pb: Placement, grasps: list[GraspConfig], g: GripperSpec
) -> list[GraspConfig]:
    """Grasps feasible in both placements, in input order."""
    both = feasibility_matrix([pa, pb], grasps, g).all(axis=0)
    return [gr for gr, ok in zip(grasps, both) if ok]


def build_manipulation_graph(
    placements: list[Placement], grasps: list[GraspConfig], g: GripperSpec
) -> ManipulationGraph:
    """Complete pairwise shared-grasp evaluation; edges carry the
    ascending indices of their shared grasps."""
    if not placements:
        raise ValueError("need at least one placement")
    f = feasibility_matrix(placements, grasps, g)
    fi = f.astype(np.int64)
    shared_counts = np.triu(fi @ fi.T, k=1)
    edges: dict[tuple[int, int], list[int]] = {}
    for i, j in np.argwhere(shared_counts > 0).tolist():
        edges[(i, j)] = np.flatnonzero(f[i] & f[j]).tolist()
    return ManipulationGraph(nodes=placements, grasps=grasps, edges=edges)


def plan_regrasp(graph: ManipulationGraph, start: int, goal: int) -> Plan:
    """Breadth-first shortest path; each step carries the lowest-index
    shared grasp of its edge.  start == goal gives an empty plan."""
    n = len(graph.nodes)
    if not (0 <= start < n and 0 <= goal < n):
        raise ValueError("start/goal not in graph")
    if start == goal:
        return Plan(steps=[])
    prev: dict[int, tuple[int, int]] = {}  # node -> (parent, grasp index)
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt, grasp_indices in graph.adjacency.get(cur, []):
            if nxt in seen:
                continue
            seen.add(nxt)
            prev[nxt] = (cur, grasp_indices[0])
            if nxt == goal:
                steps: list[PlanStep] = []
                node = goal
                while node != start:
                    parent, gk = prev[node]
                    steps.append(
                        PlanStep(from_node=parent, to_node=node, grasp=graph.grasps[gk])
                    )
                    node = parent
                return Plan(steps=list(reversed(steps)))
            queue.append(nxt)
    raise NoPlanExists(f"no path from {start} to {goal}")
