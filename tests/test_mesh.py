import numpy as np
import pytest

from stableplace import fixtures
from stableplace.mesh import (
    CollinearContacts,
    DegenerateHull,
    MeshParseError,
    TriMesh,
    ZeroPlaneVector,
    apply_refinement_transform,
    convex_hull,
    load_mesh,
    merge_coplanar_facets,
    plane_align_rotation,
    plane_from_contacts,
    sample_point_cloud,
    save_obj,
)


class TestLoadMesh:
    def test_unit_cube_mass_properties(self, cube, tmp_path):
        path = tmp_path / "cube.obj"
        save_obj(cube, path)
        m = load_mesh(path)
        assert m.volume == pytest.approx(1.0, abs=1e-9)
        assert np.abs(m.com).max() < 1e-9
        assert not m.centroid_fallback

    def test_shifted_cube_com(self, tmp_path):
        m0 = fixtures.box(1.0, 1.0, 1.0, center=(0.0, 0.0, 0.5))
        path = tmp_path / "shifted.obj"
        save_obj(m0, path)
        m = load_mesh(path)
        assert np.allclose(m.com, [0.0, 0.0, 0.5], atol=1e-9)

    def test_regular_tetrahedron_volume(self, tmp_path, tetra):
        path = tmp_path / "tetra.obj"
        save_obj(tetra, path)
        m = load_mesh(path)
        assert m.volume == pytest.approx(np.sqrt(2) / 12, abs=1e-9)

    def test_polygonal_faces_fan_triangulated(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
            "v 0 0 1\nv 1 0 1\nv 1 1 1\nv 0 1 1\n"
            "f 1 4 3 2\nf 5 6 7 8\nf 1 2 6 5\nf 2 3 7 6\nf 3 4 8 7\nf 4 1 5 8\n"
        )
        m = load_mesh(path)
        assert len(m.faces) == 12
        assert m.volume == pytest.approx(1.0, abs=1e-9)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MeshParseError):
            load_mesh(tmp_path / "nope.obj")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 1 2 x\nf 1 2 3\n")
        with pytest.raises(MeshParseError):
            load_mesh(path)

    @pytest.mark.parametrize("vertex", ["v nan 0 0", "v inf 0 0", "v 0 -inf 0", "v 0 0"])
    def test_bad_vertex_rejected(self, tmp_path, vertex):
        path = tmp_path / "bad_vertex.obj"
        path.write_text(f"{vertex}\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\nf 1 2 4\n")
        with pytest.raises(MeshParseError, match="line 1"):
            load_mesh(path)

    def test_open_mesh_uses_surface_centroid(self, tmp_path):
        path = tmp_path / "tri.obj"
        path.write_text("v 0 0 0\nv 3 0 0\nv 0 3 0\nf 1 2 3\n")
        m = load_mesh(path)
        assert m.centroid_fallback
        assert np.allclose(m.com, [1.0, 1.0, 0.0])


class TestWatertight:
    def test_closed_meshes(self, cube, tetra):
        for m in (cube, tetra, *fixtures.standard_fixtures().values()):
            assert m._is_watertight()

    def test_open_mesh(self):
        m = TriMesh(np.eye(3), np.array([[0, 1, 2]]))
        assert not m._is_watertight()

    def test_edge_shared_by_three_faces(self, tetra):
        # a repeated (reversed) face leaves every edge used at least twice,
        # but each edge of that face is shared by three faces
        faces = np.vstack([tetra.faces, tetra.faces[:1, ::-1]])
        m = TriMesh(tetra.vertices, faces)
        assert not m._is_watertight()
        assert m.centroid_fallback


class TestCachedHull:
    def test_hull_built_once_and_matches(self):
        m = fixtures.l_prism()
        assert m.hull is m.hull
        direct = convex_hull(m.vertices)
        assert np.array_equal(m.hull.vertices, direct.vertices)
        assert np.array_equal(m.hull.faces, direct.faces)


class TestConvexHull:
    def test_cube_corners(self, cube):
        hull = convex_hull(cube.vertices)
        assert len(hull.faces) == 12
        assert hull.volume == pytest.approx(1.0, abs=1e-12)

    def test_interior_points_ignored(self, cube):
        rng = np.random.default_rng(0)
        pts = np.vstack([cube.vertices, rng.uniform(-0.4, 0.4, size=(50, 3))])
        hull = convex_hull(pts)
        assert hull.volume == pytest.approx(1.0, abs=1e-12)
        assert len(hull.vertices) == 8

    def test_sphere_points_contained(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(100, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        hull = convex_hull(pts)
        normals = hull.face_normals()
        anchors = hull.vertices[hull.faces[:, 0]]
        dists = pts @ normals.T - np.einsum("ij,ij->i", normals, anchors)[None, :]
        assert dists.max() <= 1e-9

    def test_coplanar_rejected(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        with pytest.raises(DegenerateHull):
            convex_hull(pts)

    def test_idempotent_volume(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(60, 3))
        h1 = convex_hull(pts)
        h2 = convex_hull(h1.vertices)
        assert h1.volume == pytest.approx(h2.volume, abs=1e-12)


class TestMergeCoplanarFacets:
    def test_cube_has_six_facets(self, cube):
        hull = convex_hull(cube.vertices)
        facets = merge_coplanar_facets(hull, 1e-6)
        assert len(facets) == 6
        normals = sorted(tuple(np.round(f.normal, 9)) for f in facets)
        expected = sorted(
            [(-1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, -1.0, 0.0),
             (0.0, 1.0, 0.0), (0.0, 0.0, -1.0), (0.0, 0.0, 1.0)]
        )
        assert np.allclose(normals, expected)

    def test_tetrahedron_has_four(self, tetra):
        hull = convex_hull(tetra.vertices)
        assert len(merge_coplanar_facets(hull, 1e-6)) == 4

    def test_prism_cap_merging(self):
        # 32-gon prism: cap triangles merge, side normals differ by
        # 2*pi/32 ~ 0.196 > 0.1 so the 32 side rectangles stay separate
        k = 32
        ang = 2 * np.pi * np.arange(k) / k
        ring = np.column_stack([np.cos(ang), np.sin(ang)])
        pts = np.vstack(
            [np.column_stack([ring, np.zeros(k)]), np.column_stack([ring, np.ones(k)])]
        )
        hull = convex_hull(pts)
        facets = merge_coplanar_facets(hull, 0.1)
        assert len(facets) == 2 + 32

    def test_facet_areas_sum_to_hull_area(self, cube, tetra):
        for mesh in (cube, tetra):
            hull = convex_hull(mesh.vertices)
            facets = merge_coplanar_facets(hull, 1e-6)
            assert sum(f.area for f in facets) == pytest.approx(
                hull.face_areas().sum(), abs=1e-9
            )


class TestSamplePointCloud:
    def test_cube_face_counts_uniform(self, cube):
        cloud = sample_point_cloud(cube, 6000, seed=7)
        for axis in range(3):
            for side in (-0.5, 0.5):
                count = int((np.abs(cloud[:, axis] - side) < 1e-9).sum())
                assert abs(count - 1000) < 150  # ~5 sigma for p = 1/6

    def test_single_point_on_surface(self, cube):
        cloud = sample_point_cloud(cube, 1, seed=3)
        assert cloud.shape == (1, 3)
        assert np.abs(np.abs(cloud).max() - 0.5) < 1e-9

    def test_deterministic_per_seed(self, cube):
        a = sample_point_cloud(cube, 100, seed=11)
        b = sample_point_cloud(cube, 100, seed=11)
        assert np.array_equal(a, b)
        c = sample_point_cloud(cube, 100, seed=12)
        assert not np.array_equal(a, c)


class TestPlaneFromContacts:
    def test_horizontal_plane(self):
        v = plane_from_contacts([1, 0, 0.5], [0, 1, 0.5], [-1, -1, 0.5])
        assert np.allclose(v, [0.0, 0.0, 0.5], atol=1e-12)

    def test_vertical_plane(self):
        v = plane_from_contacts([1, 0, 0], [1, 1, 0], [1, 0, 1])
        assert np.allclose(v, [1.0, 0.0, 0.0], atol=1e-12)

    def test_plane_equation_residual(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            pts = rng.normal(size=(3, 3)) + np.array([0, 0, 2.0])
            area = 0.5 * np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0]))
            if area <= 1e-6:
                continue
            v = plane_from_contacts(*pts)
            for p in pts:
                assert abs(np.dot(v, p) - np.dot(v, v)) < 1e-9

    def test_permutation_invariance(self):
        pts = [np.array([1.0, 0.2, 0.5]), np.array([0.1, 1.0, 0.7]), np.array([-1.0, -1.0, 0.9])]
        v0 = plane_from_contacts(*pts)
        v1 = plane_from_contacts(pts[2], pts[0], pts[1])
        v2 = plane_from_contacts(pts[1], pts[2], pts[0])
        assert np.abs(v0 - v1).max() < 1e-12
        assert np.abs(v0 - v2).max() < 1e-12

    def test_collinear_rejected(self):
        with pytest.raises(CollinearContacts):
            plane_from_contacts([0, 0, 1], [1, 0, 1], [2, 0, 1])

    def test_plane_through_origin_rejected(self):
        with pytest.raises(ZeroPlaneVector):
            plane_from_contacts([1, 0, 0], [0, 1, 0], [0, 0, 0])


class TestPlaneAlignRotation:
    def test_already_aligned(self):
        assert np.allclose(plane_align_rotation([0.0, 0.0, 2.0]), np.eye(3))

    def test_x_axis_quarter_turn(self):
        r = plane_align_rotation([1.0, 0.0, 0.0])
        assert np.allclose(r @ [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_antiparallel_uses_x_axis(self):
        r = plane_align_rotation([0.0, 0.0, -1.0])
        assert np.allclose(r, np.diag([1.0, -1.0, -1.0]))
        assert np.allclose(r @ [0.0, 0.0, -1.0], [0.0, 0.0, 1.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroPlaneVector):
            plane_align_rotation([0.0, 0.0, 0.0])

    def test_random_vectors(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            v = rng.normal(size=3)
            if np.linalg.norm(v) < 1e-6:
                continue
            r = plane_align_rotation(v)
            assert np.allclose(r @ (v / np.linalg.norm(v)), [0, 0, 1], atol=1e-12)


class TestApplyRefinementTransform:
    def test_pure_translation_case(self):
        out = apply_refinement_transform(
            np.array([[0.0, 0, 2.0], [1.0, 1.0, 3.0]]), np.array([0.0, 0, 2.0])
        )
        assert np.allclose(out, [[0, 0, 0], [1, 1, 1]], atol=1e-12)

    def test_plane_point_to_origin(self):
        out = apply_refinement_transform(np.array([[1.0, 0, 0]]), np.array([1.0, 0, 0]))
        assert np.abs(out).max() < 1e-12

    def test_plane_residents_land_on_z0_and_rigidity(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            v = rng.normal(size=3) * 2
            if np.linalg.norm(v) < 1e-3:
                continue
            n = v / np.linalg.norm(v)
            e1 = np.cross(n, [1.0, 0.3, 0.2])
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(n, e1)
            coeffs = rng.normal(size=(10, 2))
            on_plane = v[None, :] + coeffs @ np.vstack([e1, e2])
            cloud = np.vstack([on_plane, rng.normal(size=(10, 3))])
            out = apply_refinement_transform(cloud, v)
            assert np.abs(out[:10, 2]).max() < 1e-9
            d_in = np.linalg.norm(cloud[:, None] - cloud[None, :], axis=2)
            d_out = np.linalg.norm(out[:, None] - out[None, :], axis=2)
            assert np.abs(d_in - d_out).max() < 1e-9
