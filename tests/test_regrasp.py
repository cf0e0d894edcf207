import tracemalloc

import numpy as np
import pytest
from conftest import ellipsoid

from stableplace import fixtures, regrasp
from stableplace.placements import Placement, enumerate_stable
from stableplace.regrasp import (
    GraspConfig,
    GripperSpec,
    NoPlanExists,
    build_manipulation_graph,
    feasibility_matrix,
    grasp_feasible_in_placement,
    plan_regrasp,
    sample_antipodal_grasps,
    shared_grasps,
)
from stableplace.rotations import rot_x

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


class TestSampleAntipodalGrasps:
    def test_cube_grasps_span_opposite_faces(self, cube):
        grasps = sample_antipodal_grasps(cube, 50, WIDE, seed=5)
        assert len(grasps) > 0
        for gr in grasps:
            assert gr.width == pytest.approx(1.0, abs=1e-9)
            assert abs(float(gr.axis @ gr.approach)) < 1e-9
            assert np.linalg.norm(gr.approach) == pytest.approx(1.0, abs=1e-12)

    def test_max_width_excludes_cube(self, cube):
        narrow = GripperSpec(max_width=0.8)
        assert sample_antipodal_grasps(cube, 50, narrow, seed=5) == []

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
            assert sample_antipodal_grasps(tetra, 100, GripperSpec(), seed) == []
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
        edges, cdf = mesh.triangle_edges, mesh.area_cdf
        sample_antipodal_grasps(mesh, 10, WIDE, seed=2)
        assert mesh.triangle_edges is edges and mesh.area_cdf is cdf
        assert cdf[-1] == 1.0
        for cached in (*edges, cdf):
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

    def test_empty_grasp_list(self):
        placements = [cube_placement(np.eye(3)), cube_placement(rot_x(np.pi))]
        assert feasibility_matrix(placements, [], WIDE).shape == (2, 0)
        assert build_manipulation_graph(placements, [], WIDE).edges == {}
