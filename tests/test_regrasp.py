import numpy as np
import pytest

from stableplace import fixtures
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
