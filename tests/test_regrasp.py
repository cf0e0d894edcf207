import tracemalloc
import warnings
from collections import deque
from itertools import product

import numpy as np
import pytest
from conftest import drifting_arc, ellipsoid, flattened_ellipsoid, ngon_prism, sheared_wedge
from hypothesis import given, settings
from hypothesis import strategies as st

from stableplace import fixtures, regrasp
from stableplace.cli import GripperConfig
from stableplace.placements import Placement, enumerate_stable
from stableplace.mesh import TriMesh
from stableplace.regrasp import (
    GraspConfig,
    GraspSet,
    GripperSpec,
    ManipulationGraph,
    NoPlanExists,
    build_manipulation_graph,
    feasibility_matrix,
    grasp_feasible_in_placement,
    plan_regrasp,
    sample_antipodal_grasps,
    shared_grasps,
)
from stableplace.rotations import random_rotation, rot_x

WIDE = GripperSpec(max_width=1.2, finger_length=0.04, finger_thickness=0.01,
                   friction_angle=0.2, plane_clearance=0.005)
GRIPPERS = {
    "wide": WIDE,
    "default": GripperSpec(),
    "zero_friction": GripperSpec(max_width=1.2, friction_angle=0.0),
}


def cube_placement(rotation):
    rotation = np.asarray(rotation, dtype=float)
    zmin = (fixtures.unit_cube().vertices @ rotation.T)[:, 2].min()
    return Placement(rotation=rotation, translation=np.array([0.0, 0.0, -zmin]))


class TestGripperSpec:
    def test_defaults_valid(self):
        GripperSpec()

    def test_nonpositive_dimensions_rejected(self):
        with pytest.raises(ValueError):
            GripperSpec(max_width=0.0)
        with pytest.raises(ValueError):
            GripperSpec(finger_length=-0.01)
        with pytest.raises(ValueError):
            GripperSpec(friction_angle=-0.1)

    @pytest.mark.parametrize("name", ["max_width", "finger_length", "finger_thickness",
                                      "friction_angle", "plane_clearance"])
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError):
            GripperSpec(**{name: float("nan")})

    @pytest.mark.parametrize("name", ["max_width", "finger_length", "finger_thickness",
                                      "friction_angle", "plane_clearance"])
    def test_inf_rejected(self, name):
        # an infinite width or clearance used to plan, or find no path
        with pytest.raises(ValueError, match="finite"):
            GripperSpec(**{name: float("inf")})


class TestSampleAntipodalGrasps:
    def test_cube_grasps_span_opposite_faces(self, cube):
        grasps = sample_antipodal_grasps(cube, 50, WIDE, seed=5)
        assert len(grasps) > 0
        for gr in grasps:
            assert gr.width == pytest.approx(1.0, abs=1e-9)
            axis = (gr.contact_b - gr.contact_a) / gr.width
            assert abs(float(axis @ gr.approach)) < 1e-9
            assert np.linalg.norm(gr.approach) == pytest.approx(1.0, abs=1e-12)

    def test_max_width_excludes_cube(self, cube):
        narrow = GripperSpec(max_width=0.8)
        assert len(sample_antipodal_grasps(cube, 50, narrow, seed=5)) == 0

    def test_sphere_zero_friction_near_diametral(self):
        sphere = fixtures.icosphere(radius=0.03, subdivisions=2)
        tight = GripperSpec(max_width=0.08, friction_angle=0.05)
        grasps = sample_antipodal_grasps(sphere, 200, tight, seed=6)
        assert len(grasps) > 0
        for gr in grasps:
            mid = 0.5 * (gr.contact_a + gr.contact_b)
            assert np.linalg.norm(mid) < 0.004  # chord passes near the center

    def test_deterministic_per_seed(self, cube):
        a = sample_antipodal_grasps(cube, 20, WIDE, seed=7)
        b = sample_antipodal_grasps(cube, 20, WIDE, seed=7)
        assert len(a) == len(b)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.contact_a, gb.contact_a)
            assert np.array_equal(ga.contact_b, gb.contact_b)
            assert np.array_equal(ga.approach, gb.approach)

    def test_invalid_n_rejected(self, cube):
        with pytest.raises(ValueError):
            sample_antipodal_grasps(cube, 0, WIDE, seed=1)

    @pytest.mark.parametrize("count", [0, -1])
    def test_invalid_approach_count_rejected(self, cube, count):
        with pytest.raises(ValueError, match="approach_count"):
            sample_antipodal_grasps(cube, 10, WIDE, seed=1, approach_count=count)


class TestGraspSet:
    def test_rows_are_the_sampled_grasps(self, cube):
        grasps = sample_antipodal_grasps(cube, 20, WIDE, seed=7, approach_count=3)
        assert isinstance(grasps, GraspSet)
        assert len(grasps) == len(grasps.contact_a) > 0
        assert len(grasps) % 3 == 0
        listed = list(grasps)
        assert len(listed) == len(grasps)
        for k, gr in enumerate(listed):
            assert isinstance(gr, GraspConfig)
            assert gr.contact_a.tobytes() == grasps.contact_a[k].tobytes()
            assert gr.contact_b.tobytes() == grasps.contact_b[k].tobytes()
            assert gr.approach.tobytes() == grasps.approach[k].tobytes()
        # each contact pair repeats over its approaches
        assert (grasps.contact_a[0::3] == grasps.contact_a[2::3]).all()
        last = grasps[np.int64(-1)]
        assert last.approach.tobytes() == grasps.approach[-1].tobytes()

    def test_arrays_are_read_only_copies(self):
        a = np.zeros((2, 3))
        gs = GraspSet(contact_a=a, contact_b=np.ones((2, 3)), approach=[[0, 0, 1]] * 2)
        a[0, 0] = 5.0
        assert gs.contact_a[0, 0] == 0.0
        assert gs.approach.dtype == float
        for rows in (gs.contact_a, gs.contact_b, gs.approach):
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 1.0

    def test_empty_and_malformed(self):
        empty = GraspSet(contact_a=[], contact_b=[], approach=[])
        assert len(empty) == 0 and not empty and list(empty) == []
        assert empty.contact_a.shape == (0, 3)
        with pytest.raises(ValueError, match="shape"):
            GraspSet(contact_a=np.zeros((2, 2)), contact_b=np.zeros((2, 2)),
                     approach=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="length"):
            GraspSet(contact_a=np.zeros((2, 3)), contact_b=np.zeros((1, 3)),
                     approach=np.zeros((2, 3)))
        with pytest.raises(IndexError):
            empty[0]
        with pytest.raises(TypeError):
            GraspSet(contact_a=np.zeros((2, 3)), contact_b=np.zeros((2, 3)),
                     approach=np.zeros((2, 3)))[0:1]


def reference_ray_exit(mesh, origin, direction):
    """Farthest Moller-Trumbore hit of one ray over every face, skipping
    grazing hits near the origin: (point, face index) or None."""
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


def reference_sample(mesh, n, g, seed, approach_count=8):
    """One sample at a time: a face by area, a point on it, a ray cast
    along its inward normal, the width and friction-cone tests, then the
    approach directions about the grasp axis."""
    rng = np.random.default_rng(seed)
    normals, areas = mesh.face_normals_and_areas
    probs = areas / areas.sum()
    cos_fa = np.cos(g.friction_angle)
    grasps = []
    for _ in range(n):
        fi = int(rng.choice(len(mesh.faces), p=probs))
        u, w = rng.random(), rng.random()
        if u + w > 1.0:
            u, w = 1.0 - u, 1.0 - w
        tri = mesh.vertices[mesh.faces[fi]]
        p1 = tri[0] + u * (tri[1] - tri[0]) + w * (tri[2] - tri[0])
        n1 = normals[fi]
        hit = reference_ray_exit(mesh, p1, -n1)
        if hit is None:
            continue
        p2, fj = hit
        if np.linalg.norm(p2 - p1) > g.max_width:
            continue
        n2 = normals[fj]
        if float(np.dot(n2, -n1)) < cos_fa - 1e-9:
            continue
        d = p2 - p1
        axis = d / np.linalg.norm(d)
        ref = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        e1 = np.cross(axis, ref)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(axis, e1)
        for k in range(approach_count):
            ang = 2.0 * np.pi * k / approach_count
            approach = np.cos(ang) * e1 + np.sin(ang) * e2
            grasps.append(GraspConfig(contact_a=p1, contact_b=p2, approach=approach))
    return grasps


def grasp_bytes(grasps):
    return [(g.contact_a.tobytes(), g.contact_b.tobytes(), g.approach.tobytes())
            for g in grasps]


SAMPLER_MESHES = {
    **{name: (lambda name=name: fixtures.standard_fixtures()[name])
       for name in ("cube", "tetrahedron", "tall_box", "l_prism", "t_prism")},
    **{f"ellipsoid_s{s}": (lambda s=s: ellipsoid(s)) for s in (2, 3, 4)},
    # long sliver cap triangles, thin nearly coplanar strips, a sheared
    # box and a base of nearly flat triangles
    "ngon_prism_64": lambda: ngon_prism(64),
    "drifting_arc_1e-6": lambda: drifting_arc(1e-6),
    "sheared_wedge": sheared_wedge,
    "flattened_ellipsoid": flattened_ellipsoid,
}


class TestBatchedSampler:
    """The one-pass sampler against the one-sample-at-a-time reference,
    bit for bit."""

    @pytest.mark.parametrize("gripper", sorted(GRIPPERS))
    @pytest.mark.parametrize("name", sorted(SAMPLER_MESHES))
    def test_matches_reference_bit_for_bit(self, name, gripper):
        mesh = SAMPLER_MESHES[name]()
        g = GRIPPERS[gripper]
        # n = 100 and 333 split the ellipsoids' rays across blocks mid-batch
        for seed in (0, 1, 2):
            for n in (1, 25, 100, 333):
                got = sample_antipodal_grasps(mesh, n, g, seed)
                assert grasp_bytes(got) == grasp_bytes(reference_sample(mesh, n, g, seed))

    def test_tetrahedron_is_too_wide_for_the_default_gripper(self, tetra):
        for seed in (0, 1, 2):
            assert len(sample_antipodal_grasps(tetra, 100, GripperSpec(), seed)) == 0
            assert reference_sample(tetra, 100, GripperSpec(), seed) == []

    @pytest.mark.parametrize("approach_count", [1, 3])
    def test_block_budget_does_not_change_bits(self, monkeypatch, approach_count):
        # one ray per block, a block one ray wider than the mesh, and
        # blocks of 7 rays, on the 320-face ellipsoid and the cube
        for mesh in (ellipsoid(2), fixtures.unit_cube()):
            want = grasp_bytes(reference_sample(mesh, 60, WIDE, 4, approach_count))
            assert want
            for budget in (1, len(mesh.faces) + 1, 7 * len(mesh.faces)):
                monkeypatch.setattr(regrasp, "_RAY_FACE_BLOCK", budget)
                got = sample_antipodal_grasps(mesh, 60, WIDE, 4, approach_count)
                assert grasp_bytes(got) == want

    @pytest.mark.parametrize("mesh", [ngon_prism(64), drifting_arc(1e-6)],
                             ids=["ngon_prism_64", "drifting_arc_1e-6"])
    def test_grazing_rays_match_reference(self, mesh):
        # rays along a face's plane, from outside the mesh, tilted off it
        # by up to 1e-6 rad; some hit faces they nearly graze
        rng = np.random.default_rng(3)
        n = 200
        normals = mesh.face_normals()
        a, e1, e2 = mesh.triangle_edges
        f = rng.integers(0, len(mesh.faces), n)
        along = np.cross(normals[f], rng.normal(size=(n, 3)))
        along /= np.linalg.norm(along, axis=1)[:, None]
        d = along + rng.choice([0.0, 1e-15, 1e-12, 1e-9, 1e-6], size=(n, 1)) * normals[f]
        o = (a[f] + (e1[f] + e2[f]) / 3.0 - 3.0 * np.ptp(mesh.vertices, axis=0).max() * d
             + rng.choice([0.0, 1e-13, -1e-13], size=(n, 1)) * normals[f])
        dist, face = regrasp._ray_mesh_exits(mesh, o, d)
        grazing = 0
        for i in range(n):
            want = reference_ray_exit(mesh, o[i], d[i])
            if want is None:
                assert face[i] == -1
                continue
            assert face[i] == want[1]
            assert (o[i] + dist[i] * d[i]).tobytes() == want[0].tobytes()
            grazing += abs(float(normals[face[i]] @ d[i])) < 1e-3
        assert grazing > 20

    def test_broad_phase_culls_most_pairs_on_a_dense_mesh(self, monkeypatch):
        # the narrow phase tests fewer than 1 in 20 ray-face pairs
        mesh = ellipsoid(3)
        broad = regrasp._broad_phase
        kept, pairs = [], []

        def counted(*args):
            for keep in broad(*args):
                kept.append(int(keep.sum()))
                pairs.append(keep.size)
                yield keep

        monkeypatch.setattr(regrasp, "_broad_phase", counted)
        grasps = sample_antipodal_grasps(mesh, 100, GripperSpec(), seed=0)
        assert grasps
        assert sum(pairs) == 100 * len(mesh.faces)
        assert sum(kept) < sum(pairs) / 20

    @pytest.mark.parametrize("name", ["cube", "l_prism", "ellipsoid_s2", "ngon_prism_64"])
    def test_shifted_meshes_match_reference(self, name):
        # far from the coordinate origin, the broad phase works about the
        # mesh's bounding-box middle and must still keep every hit
        mesh = SAMPLER_MESHES[name]()
        for offset in ((1e3, -2e3, 5e2), (-3.7e5, 1.1e4, 2.9e6)):
            shifted = TriMesh(mesh.vertices + np.array(offset), mesh.faces)
            for seed in (0, 1):
                got = sample_antipodal_grasps(shifted, 60, WIDE, seed)
                assert grasp_bytes(got) == grasp_bytes(reference_sample(shifted, 60, WIDE, seed))

    def test_shifted_ellipsoid_culls_as_much(self, monkeypatch):
        broad = regrasp._broad_phase
        shares = []
        for offset in ((0.0, 0.0, 0.0), (1e3, -2e3, 5e2)):
            mesh = ellipsoid(2)
            mesh = TriMesh(mesh.vertices + np.array(offset), mesh.faces)
            kept = [0, 0]

            def counted(*args, kept=kept):
                for keep in broad(*args):
                    kept[0] += int(keep.sum())
                    kept[1] += keep.size
                    yield keep

            monkeypatch.setattr(regrasp, "_broad_phase", counted)
            assert sample_antipodal_grasps(mesh, 100, GripperSpec(), seed=0)
            shares.append(kept[0] / kept[1])
        assert shares[0] < 0.05
        assert shares[1] < 2 * shares[0]

    def test_memory_is_bounded_by_the_block(self):
        # unblocked, 2000 rays over 5120 faces would take 245 MB per
        # (rays, faces, 3) temporary
        mesh = ellipsoid(4)
        tracemalloc.start()
        try:
            grasps = sample_antipodal_grasps(mesh, 2000, GripperSpec(), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grasps
        assert peak < 4e6

    def test_mesh_tables_are_cached_and_read_only(self):
        mesh = ellipsoid(2)
        sample_antipodal_grasps(mesh, 10, WIDE, seed=1)
        edges, cdf, spheres = mesh.triangle_edges, mesh.area_cdf, mesh.face_spheres
        tables = mesh.ray_cast_tables
        sample_antipodal_grasps(mesh, 10, WIDE, seed=2)
        assert mesh.triangle_edges is edges and mesh.area_cdf is cdf
        assert mesh.face_spheres is spheres and mesh.ray_cast_tables is tables
        assert cdf[-1] == 1.0
        centre, radius = spheres
        gap = np.linalg.norm(mesh.vertices[mesh.faces] - centre[:, None], axis=2)
        assert (gap.max(axis=1) <= radius * (1 + 1e-12)).all()
        for cached in (*edges, cdf, *spheres, tables.middle, tables.reach,
                       tables.line_table, tables.axis_table):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 0.0


def side_grasp(z_body, approach=(0.0, 1.0, 0.0)):
    """Grasp across the cube x-axis at the given body-frame height."""
    return GraspConfig(
        contact_a=np.array([-0.5, 0.0, z_body]),
        contact_b=np.array([0.5, 0.0, z_body]),
        approach=np.array(approach, dtype=float),
    )


class TestGraspFeasibility:
    def test_high_grasp_feasible(self):
        assert grasp_feasible_in_placement(side_grasp(0.4), cube_placement(np.eye(3)), WIDE)

    def test_grasp_near_plane_blocked(self):
        assert not grasp_feasible_in_placement(
            side_grasp(-0.498), cube_placement(np.eye(3)), WIDE
        )

    def test_flipping_the_cube_swaps_feasibility(self):
        low = side_grasp(-0.498)
        assert grasp_feasible_in_placement(low, cube_placement(rot_x(np.pi)), WIDE)
        high = side_grasp(0.498)
        assert not grasp_feasible_in_placement(high, cube_placement(rot_x(np.pi)), WIDE)

    def test_too_wide_rejected(self):
        narrow = GripperSpec(max_width=0.8)
        assert not grasp_feasible_in_placement(
            side_grasp(0.4), cube_placement(np.eye(3)), narrow
        )

    def test_top_down_approach_needs_finger_room(self):
        # fingers approaching straight down extend upward, never toward
        # the plane, so even a low grasp clears
        gr = side_grasp(-0.4, approach=(0.0, 0.0, -1.0))
        assert grasp_feasible_in_placement(gr, cube_placement(np.eye(3)), WIDE)
        # approaching from below drops the finger tails under the plane
        gr_up = side_grasp(-0.48, approach=(0.0, 0.0, 1.0))
        assert not grasp_feasible_in_placement(gr_up, cube_placement(np.eye(3)), WIDE)


class TestGraphAndPlanning:
    def blocked_flip_setup(self):
        placements = [
            cube_placement(np.eye(3)),          # 0: body +z up
            cube_placement(rot_x(np.pi)),       # 1: body +z down
            cube_placement(rot_x(np.pi / 2)),   # 2: body +z sideways
        ]
        grasps = [side_grasp(0.498), side_grasp(-0.498)]
        return placements, grasps

    def test_direct_flip_has_no_shared_grasp(self):
        placements, grasps = self.blocked_flip_setup()
        assert shared_grasps(placements[0], placements[1], grasps, WIDE) == []

    def test_two_step_plan_through_side_placement(self):
        placements, grasps = self.blocked_flip_setup()
        graph = build_manipulation_graph(placements, grasps, WIDE)
        assert set(graph.edges) == {(0, 2), (1, 2)}
        plan = plan_regrasp(graph, 0, 1)
        assert [(s.from_node, s.to_node) for s in plan.steps] == [(0, 2), (2, 1)]
        # exhaustive oracle: no single edge connects 0 and 1
        assert (0, 1) not in graph.edges

    def test_plan_steps_carry_feasible_grasps(self):
        placements, grasps = self.blocked_flip_setup()
        graph = build_manipulation_graph(placements, grasps, WIDE)
        for step in plan_regrasp(graph, 0, 1).steps:
            for node in (step.from_node, step.to_node):
                assert grasp_feasible_in_placement(step.grasp, placements[node], WIDE)

    def test_trivial_plan_is_empty(self):
        placements, grasps = self.blocked_flip_setup()
        graph = build_manipulation_graph(placements, grasps, WIDE)
        assert plan_regrasp(graph, 2, 2).steps == []

    def test_disconnected_raises(self):
        placements, _ = self.blocked_flip_setup()
        graph = build_manipulation_graph(placements, [], WIDE)
        with pytest.raises(NoPlanExists):
            plan_regrasp(graph, 0, 1)

    def test_bad_indices_rejected(self):
        placements, grasps = self.blocked_flip_setup()
        graph = build_manipulation_graph(placements, grasps, WIDE)
        with pytest.raises(ValueError):
            plan_regrasp(graph, 0, 7)

    def test_sampled_graph_on_cube_connects_all_flips(self, cube):
        from stableplace.placements import enumerate_stable

        placements = enumerate_stable(cube)
        grasps = sample_antipodal_grasps(cube, 100, WIDE, seed=9)
        graph = build_manipulation_graph(placements, grasps, WIDE)
        for goal in range(1, len(placements)):
            plan = plan_regrasp(graph, 0, goal)
            assert 1 <= len(plan.steps) <= len(placements) - 1

    def test_plan_json_shape(self):
        placements, grasps = self.blocked_flip_setup()
        graph = build_manipulation_graph(placements, grasps, WIDE)
        d = plan_regrasp(graph, 0, 1).to_json_dict()
        assert [s["from_type"] for s in d["steps"]] == [0, 2]
        assert all("grasp" in s and "width" in s["grasp"] for s in d["steps"])


def reference_feasible(grasp, placement, g):
    """Corner-by-corner clearance test, one grasp and placement at a time."""
    if grasp.width > g.max_width + 1e-12:
        return False
    r, t = placement.rotation, placement.translation
    ca = r @ grasp.contact_a + t
    cb = r @ grasp.contact_b + t
    approach = r @ grasp.approach
    axis = (cb - ca) / np.linalg.norm(cb - ca)
    binorm = np.cross(approach, axis)
    half = 0.5 * g.finger_thickness
    for c in (ca, cb):
        for s1 in (-1.0, 1.0):
            for s2 in (-1.0, 1.0):
                for back in (0.0, g.finger_length):
                    corner = c + s1 * half * axis + s2 * half * binorm - back * approach
                    if corner[2] < g.plane_clearance:
                        return False
    return True


def reference_edges(placements, grasps, g):
    feasible = [[reference_feasible(gr, p, g) for gr in grasps] for p in placements]
    edges = {}
    for i in range(len(placements)):
        for j in range(i + 1, len(placements)):
            shared = [k for k in range(len(grasps)) if feasible[i][k] and feasible[j][k]]
            if shared:
                edges[(i, j)] = shared
    return edges


class TestFeasibilityMatrix:
    @pytest.mark.parametrize("name", ["cube", "tall_box", "l_prism", "t_prism"])
    def test_graph_matches_nested_loop_reference(self, name):
        mesh = fixtures.standard_fixtures()[name]
        placements = enumerate_stable(mesh)
        for seed in (1, 2, 3):
            grasps = sample_antipodal_grasps(mesh, 30, WIDE, seed=seed)
            graph = build_manipulation_graph(placements, grasps, WIDE)
            assert graph.edges == reference_edges(placements, grasps, WIDE)
            assert list(graph.edges) == sorted(graph.edges)
            f = feasibility_matrix(placements, grasps, WIDE)
            assert f.any() and not f.all()
        # the scalar check is the 1x1 case of the matrix, bit for bit
        for i, p in enumerate(placements):
            for k, gr in enumerate(grasps):
                assert grasp_feasible_in_placement(gr, p, WIDE) == f[i, k]

    def test_zero_width_grasp_is_infeasible_without_a_warning(self):
        placements = [cube_placement(np.eye(3)), cube_placement(rot_x(np.pi / 2))]
        others = [side_grasp(0.4), side_grasp(-0.4), side_grasp(0.45, (0.0, 0.0, -1.0))]
        point = np.array([0.1, 0.2, 0.3])
        zero = GraspConfig(contact_a=point, contact_b=point.copy(),
                           approach=np.array([0.0, 1.0, 0.0]))
        want = feasibility_matrix(placements, others, WIDE)
        assert want.any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = feasibility_matrix(placements, [others[0], zero, *others[1:]], WIDE)
            assert not grasp_feasible_in_placement(zero, placements[0], WIDE)
        assert not f[:, 1].any()
        assert np.array_equal(np.delete(f, 1, axis=1), want)

    @pytest.mark.parametrize("name", ["cube", "l_prism", "t_prism"])
    def test_grasp_set_and_its_list_build_the_same_graph(self, name):
        mesh = fixtures.standard_fixtures()[name]
        placements = enumerate_stable(mesh)
        grasps = sample_antipodal_grasps(mesh, 40, WIDE, seed=3)
        listed = list(grasps)
        f = feasibility_matrix(placements, grasps, WIDE)
        assert f.tobytes() == feasibility_matrix(placements, listed, WIDE).tobytes()
        from_set = build_manipulation_graph(placements, grasps, WIDE)
        from_list = build_manipulation_graph(placements, listed, WIDE)
        assert from_set.edges and from_set.edges == from_list.edges
        assert from_set.grasps is grasps
        assert isinstance(from_list.grasps, GraspSet)
        assert grasp_bytes(from_list.grasps) == grasp_bytes(grasps)
        both = shared_grasps(placements[0], placements[1], grasps, WIDE)
        assert grasp_bytes(both) == grasp_bytes(
            shared_grasps(placements[0], placements[1], listed, WIDE))

    def test_empty_grasp_list(self):
        placements = [cube_placement(np.eye(3)), cube_placement(rot_x(np.pi))]
        assert feasibility_matrix(placements, [], WIDE).shape == (2, 0)
        assert build_manipulation_graph(placements, [], WIDE).edges == {}


def frozen_feasibility_matrix(placements, grasps, g):
    """The (placements, grasps, 3) and (placements, grasps, 8) broadcast
    form of ``feasibility_matrix``, kept frozen: the new matrix must match
    it byte for byte."""

    def rotate(r, v):
        r = r[:, None]
        v = v[:, None]
        return r[..., 0] * v[..., 0] + r[..., 1] * v[..., 1] + r[..., 2] * v[..., 2]

    def norm(v):
        x, y, z = v[..., 0], v[..., 1], v[..., 2]
        return np.sqrt(x * x + y * y + z * z)

    corners = np.array(list(product((-1.0, 1.0), (-1.0, 1.0), (0.0, 1.0)))).T
    gs = regrasp.as_grasp_set(grasps)
    r = np.array([p.rotation for p in placements], dtype=float).reshape(-1, 3, 3)
    t = np.array([p.translation for p in placements], dtype=float).reshape(-1, 1, 3)
    a, b = gs.contact_a, gs.contact_b
    approach = rotate(r, gs.approach)
    ca = rotate(r, a) + t
    cb = rotate(r, b) + t
    axis = cb - ca
    with np.errstate(invalid="ignore", divide="ignore"):
        axis /= norm(axis)[..., None]
    binorm_z = approach[..., 0] * axis[..., 1] - approach[..., 1] * axis[..., 0]
    half = 0.5 * g.finger_thickness
    s1, s2, back = corners
    clear = np.ones(axis.shape[:2], dtype=bool)
    for c in (ca, cb):
        corner_z = (
            c[..., 2, None]
            + (s1 * half) * axis[..., 2, None]
            + (s2 * half) * binorm_z[..., None]
            - (back * g.finger_length) * approach[..., 2, None]
        )
        clear &= corner_z.min(axis=-1) >= g.plane_clearance
    width = norm(b - a)
    return clear & (width <= g.max_width + 1e-12)


def assert_matches_frozen(placements, grasps, g):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = feasibility_matrix(placements, grasps, g)
    want = frozen_feasibility_matrix(placements, grasps, g)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return got


class TestFeasibilityAgainstFrozenBroadcast:
    """The coordinate-major feasibility matrix against the broadcast form
    it replaced, bit for bit."""

    @pytest.mark.parametrize("name", ["cube", "tall_box", "l_prism", "t_prism"])
    def test_box_fixtures(self, name):
        mesh = fixtures.standard_fixtures()[name]
        placements = enumerate_stable(mesh)
        for seed in range(1, 11):
            for n in (25, 100):
                f = assert_matches_frozen(
                    placements, sample_antipodal_grasps(mesh, n, WIDE, seed), WIDE)
                assert f.any() and not f.all()

    def test_pipeline_cube_graph(self):
        # the plan stage of the fixture pipeline: seed 7, 100 samples, the
        # 120 cm gripper and the placements scoring at least 0.92
        mesh = fixtures.unit_cube()
        spec = GripperConfig(max_width_cm=120.0).to_spec()
        placements = [p for p in enumerate_stable(mesh, margin_eps=1e-4) if p.score >= 0.92]
        grasps = sample_antipodal_grasps(mesh, 100, spec, seed=7)
        assert placements and len(grasps) == 800
        assert_matches_frozen(placements, grasps, spec).any()

    def test_zero_width_and_nan_grasps(self):
        placements = [cube_placement(np.eye(3)), cube_placement(rot_x(np.pi / 2))]
        point = np.array([0.1, 0.2, 0.3])
        nan = np.array([np.nan, 0.0, 0.4])
        grasps = [
            side_grasp(0.4),
            GraspConfig(contact_a=point, contact_b=point.copy(),
                        approach=np.array([0.0, 1.0, 0.0])),
            GraspConfig(contact_a=nan, contact_b=np.array([0.5, 0.0, 0.4]),
                        approach=np.array([0.0, 1.0, 0.0])),
            GraspConfig(contact_a=np.array([-0.5, 0.0, 0.4]), contact_b=nan,
                        approach=np.array([0.0, 1.0, 0.0])),
            GraspConfig(contact_a=np.array([-0.5, 0.0, 0.4]),
                        contact_b=np.array([0.5, 0.0, 0.4]), approach=nan),
            side_grasp(-0.4),
        ]
        f = assert_matches_frozen(placements, grasps, WIDE)
        assert f[:, 0].any() and not f[:, 1:5].any()

    @pytest.mark.parametrize("approach_x", [1.0, -1.0, 0.6])
    def test_corner_exactly_at_the_clearance(self, approach_x):
        # axis along y and approach (approach_x, 0, approach_z) make
        # binorm_z = approach_x, so the lowest corner sits half a finger
        # thickness times |approach_x| below the contacts and, for the
        # approach tilted upward, a finger length times approach_z further
        # down, at the back of the box: at height z it touches the
        # clearance exactly, and one ulp lower it falls below it
        thickness = 0.01
        half = 0.5 * thickness
        approach_z = float(np.sqrt(1.0 - approach_x**2))
        length = 0.04
        z = 2 * half + length * approach_z
        clearance = ((z - 0.0) - half * abs(approach_x)) - length * approach_z
        g = GripperSpec(max_width=1.2, finger_length=length, finger_thickness=thickness,
                        plane_clearance=clearance)
        grasps = [
            GraspConfig(contact_a=np.array([0.0, -0.1, height]),
                        contact_b=np.array([0.0, 0.1, height]),
                        approach=np.array([approach_x, 0.0, approach_z]))
            for height in (z, np.nextafter(z, 0.0))
        ]
        placement = Placement(rotation=np.eye(3), translation=np.zeros(3))
        f = assert_matches_frozen([placement], grasps, g)
        assert f.tolist() == [[True, False]]
        if approach_z:
            # approaching downward, the back corners rise above the contacts,
            # and both heights clear the plane
            down = [GraspConfig(contact_a=gr.contact_a, contact_b=gr.contact_b,
                                approach=gr.approach * [1.0, 1.0, -1.0]) for gr in grasps]
            assert assert_matches_frozen([placement], down, g).all()

    def test_empty_placement_and_grasp_lists(self):
        placements = [cube_placement(np.eye(3)), cube_placement(rot_x(np.pi))]
        grasps = [side_grasp(0.4), side_grasp(-0.4)]
        assert assert_matches_frozen([], grasps, WIDE).shape == (0, 2)
        for nodes in ([], placements):
            for empty in ([], GraspSet(contact_a=[], contact_b=[], approach=[])):
                # no grasps: an all-False (P, 0) matrix without a pass over them
                f = assert_matches_frozen(nodes, empty, WIDE)
                want = np.zeros((len(nodes), 0), dtype=bool)
                assert f.shape == want.shape and f.dtype == want.dtype
                assert f.tobytes() == want.tobytes()
        graph = build_manipulation_graph(placements, [], WIDE)
        assert graph.edges == {} and len(graph.grasps) == 0
        with pytest.raises(NoPlanExists):
            plan_regrasp(graph, 0, 1)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), placement_count=st.integers(1, 5),
           grasp_count=st.integers(1, 40), scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_random_rotations_and_translations(self, seed, placement_count, grasp_count,
                                               scale):
        rng = np.random.default_rng(seed)
        placements = [
            Placement(rotation=random_rotation(rng), translation=scale * rng.normal(size=3))
            for _ in range(placement_count)
        ]
        contact_a = scale * rng.normal(size=(grasp_count, 3))
        approach = rng.normal(size=(grasp_count, 3))
        approach /= np.linalg.norm(approach, axis=1)[:, None]
        grasps = GraspSet(contact_a=contact_a,
                          contact_b=contact_a + scale * rng.normal(size=(grasp_count, 3)),
                          approach=approach)
        g = GripperSpec(max_width=2.0 * scale, finger_length=0.04 * scale,
                        finger_thickness=0.01 * scale, plane_clearance=0.005 * scale)
        assert_matches_frozen(placements, grasps, g)


class TestBroadPhaseSkip:
    """The ray cast tests every ray-face pair in one narrow phase when
    they fit one block, and culls them first when they do not."""

    @pytest.mark.parametrize("name, block, n", [
        # the default block holds exactly 1024 rays over the 4 faces
        ("tetrahedron", None, 1024),
        ("cube", 12 * 7, 7),
        ("ellipsoid_s2", 320 * 3, 3),
    ])
    def test_broad_phase_runs_only_past_one_block(self, monkeypatch, name, block, n):
        mesh = SAMPLER_MESHES[name]()
        if block is not None:
            monkeypatch.setattr(regrasp, "_RAY_FACE_BLOCK", block)
        assert n * len(mesh.faces) == regrasp._RAY_FACE_BLOCK
        broad = regrasp._broad_phase
        calls = []

        def counted(*args):
            calls.append(len(args[1]))
            return broad(*args)

        monkeypatch.setattr(regrasp, "_broad_phase", counted)
        for rays, runs in ((1, False), (n, False), (n + 1, True)):
            calls.clear()
            for seed in (0, 1):
                got = sample_antipodal_grasps(mesh, rays, WIDE, seed)
                assert grasp_bytes(got) == grasp_bytes(reference_sample(mesh, rays, WIDE, seed))
            assert calls == ([rays, rays] if runs else [])


def reference_plan(graph, start, goal):
    """One breadth-first search per (start, goal) pair, stopping when it
    reaches the goal: the plan's (from, to, grasp index) steps, or
    NoPlanExists."""
    if start == goal:
        return []
    prev = {}
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
                steps = []
                node = goal
                while node != start:
                    parent, gk = prev[node]
                    steps.append((parent, node, gk))
                    node = parent
                return steps[::-1]
            queue.append(nxt)
    raise NoPlanExists(f"no path from {start} to {goal}")


def assert_plans_match_reference(graph):
    """Every ordered pair's plan has the reference's steps, grasp bytes
    included, or both raise NoPlanExists; returns the unreachable pairs."""
    n = len(graph.nodes)
    missing = 0
    for start in range(n):
        for goal in range(n):
            try:
                want = reference_plan(graph, start, goal)
            except NoPlanExists:
                with pytest.raises(NoPlanExists):
                    plan_regrasp(graph, start, goal)
                missing += 1
                continue
            steps = plan_regrasp(graph, start, goal).steps
            assert [(s.from_node, s.to_node) for s in steps] == [w[:2] for w in want]
            assert grasp_bytes(s.grasp for s in steps) == grasp_bytes(
                graph.grasps[w[2]] for w in want)
    return missing


PLAN_OBJECTS = {
    **{name: (lambda name=name: fixtures.standard_fixtures()[name], WIDE)
       for name in ("cube", "tall_box", "l_prism", "t_prism")},
    "tetrahedron": (lambda: fixtures.standard_fixtures()["tetrahedron"], GripperSpec()),
    "ellipsoid_s3": (lambda: ellipsoid(3), GripperSpec()),
}


class TestPlanFromBreadthFirstTree:
    """Plans read from one cached tree per start against one search per
    pair."""

    @pytest.mark.parametrize("name", sorted(PLAN_OBJECTS))
    def test_every_pair_matches_the_per_pair_search(self, name):
        make, g = PLAN_OBJECTS[name]
        mesh = make()
        placements = enumerate_stable(mesh)
        for seed in range(4):
            grasps = sample_antipodal_grasps(mesh, 25, g, seed)
            graph = build_manipulation_graph(placements, grasps, g)
            assert_plans_match_reference(graph)
            assert set(graph.trees) <= set(range(len(placements)))

    def test_disconnected_hand_built_graph(self):
        placements = [cube_placement(rot_x(k * np.pi / 2)) for k in range(6)]
        grasps = GraspSet(contact_a=np.arange(15.0).reshape(5, 3),
                          contact_b=np.arange(15.0).reshape(5, 3) + 1.0,
                          approach=np.tile([0.0, 0.0, 1.0], (5, 1)))
        # components {0, 1, 2, 3}, a cycle with a chord, and {4, 5}
        edges = {(0, 1): [3, 4], (0, 3): [1], (1, 2): [0, 2], (2, 3): [4], (4, 5): [2]}
        graph = ManipulationGraph(nodes=placements, grasps=grasps, edges=edges)
        assert assert_plans_match_reference(graph) == 16
        steps = plan_regrasp(graph, 1, 3).steps
        assert [(s.from_node, s.to_node) for s in steps] == [(1, 0), (0, 3)]
        assert steps[1].grasp.contact_a.tobytes() == grasps.contact_a[1].tobytes()
        with pytest.raises(NoPlanExists, match="no path from 5 to 2"):
            plan_regrasp(graph, 5, 2)

    def test_random_sparse_graphs(self):
        # multi-step paths, ties between equally short ones, and several
        # components; the sampled graphs above are mostly complete
        placements = [cube_placement(np.eye(3))] * 10
        grasps = GraspSet(contact_a=np.arange(18.0).reshape(6, 3),
                          contact_b=np.arange(18.0).reshape(6, 3) + 1.0,
                          approach=np.tile([0.0, 0.0, 1.0], (6, 1)))
        longest = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            edges = {}
            for i in range(10):
                for j in range(i + 1, 10):
                    if rng.random() < 0.2:
                        shared = rng.choice(6, rng.integers(1, 4), replace=False)
                        edges[(i, j)] = sorted(shared.tolist())
            graph = ManipulationGraph(nodes=placements, grasps=grasps, edges=edges)
            assert_plans_match_reference(graph)
            longest = max([longest, *(len(reference_plan(graph, 0, b)) for b in graph.bfs_tree(0))])
        assert longest >= 4

    def test_one_tree_per_start(self):
        placements = [cube_placement(rot_x(k * np.pi / 2)) for k in range(4)]
        grasps = GraspSet(contact_a=np.zeros((1, 3)), contact_b=np.ones((1, 3)),
                          approach=[[0.0, 0.0, 1.0]])
        edges = {(0, 1): [0], (1, 2): [0], (2, 3): [0]}
        graph = ManipulationGraph(nodes=placements, grasps=grasps, edges=edges)
        for start in range(4):
            for goal in range(4):
                plan_regrasp(graph, start, goal)
        assert sorted(graph.trees) == [0, 1, 2, 3]
        tree = graph.bfs_tree(0)
        assert tree == {1: (0, 0), 2: (1, 0), 3: (2, 0)}
        assert graph.bfs_tree(0) is tree
