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


def _ray_mesh_exit(
    mesh: TriMesh, origin: np.ndarray, direction: np.ndarray
) -> tuple[np.ndarray, int] | None:
    """Farthest Moller-Trumbore hit of the ray, skipping grazing hits near
    the origin.  Returns (point, face index) or None."""
    v = mesh.vertices
    f = mesh.faces
    a = v[f[:, 0]]
    e1 = v[f[:, 1]] - a
    e2 = v[f[:, 2]] - a
    pvec = np.cross(direction, e2)
    det = np.einsum("ij,ij->i", e1, pvec)
    ok = np.abs(det) > 1e-12
    inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    tvec = origin - a
    u = np.einsum("ij,ij->i", tvec, pvec) * inv
    qvec = np.cross(tvec, e1)
    w = qvec @ direction * inv
    t = np.einsum("ij,ij->i", e2, qvec) * inv
    hit = ok & (u >= -1e-9) & (w >= -1e-9) & (u + w <= 1 + 1e-9) & (t > 1e-9)
    if not np.any(hit):
        return None
    idx = np.flatnonzero(hit)
    far = idx[np.argmax(t[idx])]
    return origin + t[far] * direction, int(far)


def _perpendicular_basis(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ref = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(axis, ref)
    e1 /= np.linalg.norm(e1)
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
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    normals, areas = mesh.face_normals_and_areas
    probs = areas / areas.sum()
    cos_fa = np.cos(g.friction_angle)
    grasps: list[GraspConfig] = []
    for _ in range(n):
        fi = int(rng.choice(len(mesh.faces), p=probs))
        u, w = rng.random(), rng.random()
        if u + w > 1.0:
            u, w = 1.0 - u, 1.0 - w
        tri = mesh.vertices[mesh.faces[fi]]
        p1 = tri[0] + u * (tri[1] - tri[0]) + w * (tri[2] - tri[0])
        n1 = normals[fi]
        hit = _ray_mesh_exit(mesh, p1, -n1)
        if hit is None:
            continue
        p2, fj = hit
        if np.linalg.norm(p2 - p1) > g.max_width:
            continue
        n2 = normals[fj]
        # closing direction at the second finger is -n1; antipodality
        # keeps the contact normal inside the friction cone
        if float(np.dot(n2, -n1)) < cos_fa - 1e-9:
            continue
        d = p2 - p1
        axis = d / np.linalg.norm(d)
        e1, e2 = _perpendicular_basis(axis)
        for k in range(approach_count):
            ang = 2.0 * np.pi * k / approach_count
            approach = np.cos(ang) * e1 + np.sin(ang) * e2
            grasps.append(GraspConfig(contact_a=p1, contact_b=p2, approach=approach))
    return grasps


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
