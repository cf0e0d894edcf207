import json

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

from conftest import drifting_arc, ellipsoid, ngon_prism, sheared_wedge
from stableplace import fixtures
from stableplace.mesh import (
    TriMesh,
    convex_hull,
    merge_coplanar_facets,
    plane_from_contacts,
    rotation_between,
)
from stableplace.placements import (
    CONTACT_TOL,
    Placement,
    enumerate_stable,
    generate_dataset,
    polygon_inradius,
    settle,
    signed_polygon_margin,
    stability_check,
)
from stableplace.rotations import (
    random_rotation,
    rot_x,
    z_quotient_distance,
    z_quotient_distances,
)


class TestEnumerateStable:
    @pytest.mark.parametrize("angle_tol", [-1.0, np.pi / 2, 3.0])
    def test_angle_tol_outside_quarter_turn_rejected(self, tetra, angle_tol):
        with pytest.raises(ValueError, match="angle_tol"):
            enumerate_stable(tetra, angle_tol=angle_tol)

    def test_cube_six_faces_margin_half(self, cube):
        ps = enumerate_stable(cube, margin_eps=1e-6)
        assert len(ps) == 6
        for p in ps:
            assert p.stability_margin == pytest.approx(0.5, abs=1e-9)
            assert p.score == pytest.approx(1.0, abs=1e-9)

    def test_tetrahedron_four(self, tetra):
        assert len(enumerate_stable(tetra)) == 4

    def test_facet_rejection_on_lopsided_wedge(self):
        # box with its top face sheared far sideways: the slanted facet's
        # support polygon no longer contains the COM projection
        wedge = sheared_wedge()
        n_facets = len(merge_coplanar_facets(convex_hull(wedge.vertices)))
        ps = enumerate_stable(wedge)
        assert len(ps) < n_facets

    def test_l_prism_facet_by_facet_oracle(self):
        # independent check: re-derive stability per hull facet by direct
        # COM projection, compare counts (all 7 facets of this L keep the
        # COM projection inside their support polygon)
        lp = fixtures.l_prism()
        hull = convex_hull(lp.vertices)
        facets = merge_coplanar_facets(hull)
        stable = 0
        for f in facets:
            rot = rotation_between(f.normal, np.array([0.0, 0.0, -1.0]))
            poly = (f.polygon @ rot.T)[:, :2]
            com = (rot @ lp.com)[:2]
            # point-in-convex-polygon via signed edge distances
            from scipy.spatial import ConvexHull

            poly = poly[ConvexHull(poly).vertices]
            inside = True
            k = len(poly)
            for i in range(k):
                a, b = poly[i], poly[(i + 1) % k]
                d = b - a
                n = np.array([d[1], -d[0]])
                if n @ (com - a) > -1e-4 * np.linalg.norm(n):
                    inside = False
            stable += inside
        assert len(enumerate_stable(lp)) == stable == 7

    def test_soundness_every_placement_passes_check(self):
        for mesh in fixtures.standard_fixtures().values():
            for p in enumerate_stable(mesh, margin_eps=1e-4):
                ok, margin = stability_check(mesh, p, margin_eps=1e-4)
                assert ok
                assert margin == pytest.approx(p.stability_margin, abs=1e-9)

    def test_large_margin_eps_filters_everything(self, cube):
        assert enumerate_stable(cube, margin_eps=0.6) == []

    @pytest.mark.parametrize(
        "name",
        [*fixtures.standard_fixtures(), "wedge", "prism32", "arc", "ellipsoid_s2",
         "ellipsoid_s3"],
    )
    def test_matches_reference_over_every_facet(self, name):
        """The pre-filtered enumeration gives the bytes of checking every
        merged facet."""
        mesh = {
            "wedge": sheared_wedge,
            "prism32": lambda: ngon_prism(32),
            "arc": lambda: drifting_arc(0.6e-4),
            "ellipsoid_s2": lambda: ellipsoid(2),
            "ellipsoid_s3": lambda: ellipsoid(3),
        }.get(name, lambda: fixtures.standard_fixtures()[name])()
        facets = merge_coplanar_facets(mesh.hull)
        reference = _reference_enumerate_stable(mesh, facets, 0.0)
        margins = [p.stability_margin for p in reference]
        # a margin_eps equal to a facet's own margin keeps that facet
        for margin_eps in (0.0, 1e-6, 1e-4, 0.6, min(margins), max(margins)):
            expected = [p for p in reference if p.stability_margin >= margin_eps]
            got = enumerate_stable(mesh, margin_eps=margin_eps)
            assert json.dumps([p.to_json_dict() for p in got]) == json.dumps(
                [p.to_json_dict() for p in expected]
            ), margin_eps


def _reference_enumerate_stable(mesh, facets, margin_eps):
    """The exact stability check on every facet, in facet order."""
    out = []
    for facet in facets:
        rot = rotation_between(facet.normal, np.array([0.0, 0.0, -1.0]))
        poly_xy = (facet.polygon @ rot.T)[:, :2]
        try:
            poly_xy = poly_xy[ConvexHull(poly_xy).vertices]
        except QhullError:
            continue
        com = rot @ mesh.com
        margin = signed_polygon_margin(com[:2], poly_xy)
        if margin < margin_eps:
            continue
        zmin = (mesh.vertices @ rot.T)[:, 2].min()
        inr = polygon_inradius(poly_xy)
        out.append(
            Placement(
                rotation=rot,
                translation=np.array([-com[0], -com[1], -zmin]),
                stability_margin=float(margin),
                score=float(np.clip(margin / inr, 0.0, 1.0)) if inr > 0 else 0.0,
            )
        )
    return out


class TestStabilityCheck:
    def test_cube_flat(self, cube):
        p = Placement(rotation=np.eye(3), translation=np.array([0.0, 0.0, 0.5]))
        ok, margin = stability_check(cube, p)
        assert ok and margin == pytest.approx(0.5, abs=1e-12)

    def test_cube_on_edge(self, cube):
        r = rot_x(np.pi / 4)
        zmin = (cube.vertices @ r.T)[:, 2].min()
        p = Placement(rotation=r, translation=np.array([0.0, 0.0, -zmin]))
        ok, margin = stability_check(cube, p)
        assert not ok and margin <= 0.0

    def test_cube_floating(self, cube):
        p = Placement(rotation=np.eye(3), translation=np.array([0.0, 0.0, 0.6]))
        ok, _ = stability_check(cube, p)
        assert not ok

    def test_penetrating_plane(self, cube):
        p = Placement(rotation=np.eye(3), translation=np.array([0.0, 0.0, 0.3]))
        ok, _ = stability_check(cube, p)
        assert not ok


class TestSettle:
    def test_already_stable_zero_tips(self, cube):
        p, trace = settle(cube, np.eye(3), return_trace=True)
        assert len(trace) == 1
        assert np.allclose(p.rotation, np.eye(3))
        assert p.translation[2] == pytest.approx(0.5, abs=1e-12)

    def test_small_tilt_falls_back_to_face(self, cube):
        p, trace = settle(cube, rot_x(np.deg2rad(10)), return_trace=True)
        assert len(trace) == 2  # single pivot
        assert z_quotient_distance(p.rotation, np.eye(3)) <= 1e-6

    def test_idempotent_on_stable_poses(self):
        for mesh in fixtures.standard_fixtures().values():
            for p in enumerate_stable(mesh):
                again = settle(mesh, p.rotation)
                assert z_quotient_distance(again.rotation, p.rotation) <= 1e-6

    @pytest.mark.parametrize("name", list(fixtures.standard_fixtures()))
    def test_equivalence_with_enumeration(self, name):
        mesh = fixtures.standard_fixtures()[name]
        enum = enumerate_stable(mesh)
        modes = np.stack([p.rotation for p in enum])
        rng = np.random.default_rng(42)
        reached = set()
        for _ in range(500):
            p, trace = settle(mesh, random_rotation(rng), return_trace=True)
            ok, _ = stability_check(mesh, p)
            assert ok
            assert max(np.diff(trace), default=0.0) <= 1e-9  # COM never rises
            d = z_quotient_distances(p.rotation, modes)
            k = int(np.argmin(d))
            assert d[k] <= np.deg2rad(1.0)
            reached.add(k)
        assert reached == set(range(len(enum)))

    @pytest.mark.parametrize("name", [*fixtures.standard_fixtures(), "ellipsoid_s2"])
    def test_score_matches_world_contact_polygon(self, name):
        """The memoized body-frame inradius gives the score a fresh LP on
        the world contact polygon of each settled pose would give."""
        if name == "ellipsoid_s2":
            sphere = fixtures.icosphere(0.05, 2)
            mesh = TriMesh(sphere.vertices * np.array([1.0, 0.8, 0.6]), sphere.faces)
        else:
            mesh = fixtures.standard_fixtures()[name]
        hull_vertices = convex_hull(mesh.vertices).vertices
        rng = np.random.default_rng(11)
        for _ in range(60):
            p = settle(mesh, random_rotation(rng))
            world = hull_vertices @ p.rotation.T
            world[:, 2] -= world[:, 2].min()
            xy = world[world[:, 2] <= CONTACT_TOL, :2]
            inr = polygon_inradius(xy[ConvexHull(xy).vertices])
            expected = float(np.clip(p.stability_margin / inr, 0.0, 1.0))
            assert abs(p.score - expected) <= 1e-12
        # one memo entry per distinct contact set, so most drops were lookups
        assert 0 < len(mesh.contact_inradii) < 60


class TestGenerateDataset:
    def test_cube_reaches_all_classes(self, cube):
        res = generate_dataset([("cube", cube)], 200, seed=1)
        assert len(res.records) == 200
        assert res.diverged == {"cube": 0}
        enum = enumerate_stable(cube)
        modes = np.stack([p.rotation for p in enum])
        reached = {
            int(np.argmin(z_quotient_distances(r.placement.rotation, modes)))
            for r in res.records
        }
        assert reached == set(range(6))

    def test_contact_points_on_plane_and_plane_identity(self, cube):
        res = generate_dataset([("cube", cube)], 25, seed=3)
        for rec in res.records:
            assert rec.contact_points[:, 2].max() <= 1e-6
            area = 0.5 * np.linalg.norm(
                np.cross(
                    rec.contact_points[1] - rec.contact_points[0],
                    rec.contact_points[2] - rec.contact_points[0],
                )
            )
            assert area > 1e-10
            # reconstruct the rotated contacts and verify v_gt
            pivot = rec.placement.rotation @ cube.com + rec.placement.translation
            r_rand = rec.unstable_rotation @ rec.placement.rotation.T
            rotated = pivot + (rec.contact_points - pivot) @ r_rand.T
            v = plane_from_contacts(*rotated)
            assert np.abs(v - rec.v_gt).max() < 1e-9

    def test_same_seed_byte_identical(self, cube, tetra):
        meshes = [("cube", cube), ("tetra", tetra)]
        a = generate_dataset(meshes, 20, seed=9)
        b = generate_dataset(meshes, 20, seed=9)
        c = generate_dataset(meshes, 20, seed=9, workers=2)
        sa = [json.dumps(r.to_json_dict(), sort_keys=True) for r in a.records]
        sb = [json.dumps(r.to_json_dict(), sort_keys=True) for r in b.records]
        sc = [json.dumps(r.to_json_dict(), sort_keys=True) for r in c.records]
        assert sa == sb == sc
        assert a.diverged == c.diverged

    def test_record_round_trip(self, cube):
        from stableplace.placements import PlacementRecord

        res = generate_dataset([("cube", cube)], 5, seed=4)
        for rec in res.records:
            d = rec.to_json_dict()
            back = PlacementRecord.from_json_dict(json.loads(json.dumps(d)))
            assert back.to_json_dict() == d
