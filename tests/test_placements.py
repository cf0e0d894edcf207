import concurrent.futures
import contextlib
import json
import re
import tracemalloc
from decimal import Decimal, localcontext
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from conftest import (
    _reference_drop_settle,
    _reference_one_drop,
    _reference_rotation_between,
    _reference_rotation_from_axis_angle,
    _reference_settle_record,
    _reference_support,
    drifting_arc,
    ellipsoid,
    flattened_ellipsoid,
    ngon_prism,
    sheared_wedge,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from stableplace import fixtures, placements
from stableplace import mesh as mesh_module
from stableplace.mesh import (
    DegenerateHull,
    EdgeIndex,
    PivotTable,
    TriMesh,
    _coplanar_groups,
    _edge_line_distances,
    convex_hull,
    merge_coplanar_facets,
    plane_from_contacts,
)
from stableplace.placements import (
    CONTACT_TOL,
    DEFAULT_MARGIN_EPS,
    Placement,
    SettleDiverged,
    Support,
    _contact_margin,
    _contact_supports,
    _line_axis,
    _pivot_axis,
    _point_segment_distance,
    _walk,
    enumerate_stable,
    generate_dataset,
    generate_one_drop,
    polygon_inradius,
    settle,
    settle_batch,
    settle_records,
    signed_polygon_margin,
    stability_check,
)
from stableplace.rotations import (
    body_up_axis,
    random_rotation,
    rot_x,
    rot_z,
    rotation_between,
    z_quotient_distance,
    z_quotient_distances,
)


class TestEnumerateStable:
    @pytest.mark.parametrize("margin_eps", [np.nan, np.inf, -1e-3])
    def test_margin_eps_not_finite_or_negative_rejected(self, margin_eps):
        # a NaN margin_eps kept the wedge's two unstable facets (margin -1)
        with pytest.raises(ValueError, match="margin_eps"):
            enumerate_stable(sheared_wedge(), margin_eps=margin_eps)

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
         "ellipsoid_s3", "ellipsoid_s4", "tetrahedron_x1e8", "ellipsoid_s3_x1e8",
         "flattened_ellipsoid"],
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
            "ellipsoid_s4": lambda: ellipsoid(4),
            "tetrahedron_x1e8": lambda: _scaled(fixtures.regular_tetrahedron(), 1e8),
            "ellipsoid_s3_x1e8": lambda: _scaled(ellipsoid(3), 1e8),
            "flattened_ellipsoid": flattened_ellipsoid,
        }.get(name, lambda: fixtures.standard_fixtures()[name])()
        facets = merge_coplanar_facets(mesh.hull)
        reference = _reference_enumerate_stable(mesh, facets, 0.0)
        margins = [p.stability_margin for p, _ in reference]
        # a margin_eps equal to a facet's own margin keeps that facet
        for margin_eps in (0.0, 1e-6, 1e-4, 0.6, min(margins), max(margins)):
            _assert_matches_reference(mesh, reference, margin_eps)

    def test_flattened_ellipsoid_interleaves_merged_and_lone_facets(self):
        """``flattened_ellipsoid`` needs the merge by seed: a merged
        facet's placement comes between one-triangle ones."""
        mesh = flattened_ellipsoid()
        normals = mesh.hull.face_normals()
        seeds = [group[0] for group in _coplanar_groups(mesh.hull, normals, 1e-4)[0]]
        ups = [body_up_axis(p.rotation) for p in enumerate_stable(mesh)]
        merged = [any(np.linalg.norm(up + normals[seed]) < 1e-4 for seed in seeds)
                  for up in ups]
        assert merged.index(True) > 0 and merged[-1] is False

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_points=st.integers(5, 40),
        snapped=st.floats(0.0, 0.8),
        scale=st.sampled_from([1e-3, 1.0, 1e3, 1e8]),
    )
    def test_random_hulls_match_reference(self, seed, n_points, snapped, scale):
        """Random point-cloud hulls, some points snapped onto shared
        planes so that merged facets and one-triangle facets mix."""
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n_points, 3))
        for axis in range(3):
            snap = rng.random(n_points) < snapped / 3
            pts[snap, axis] = np.round(pts[snap, axis])
        try:
            mesh = convex_hull(pts * scale)
        except DegenerateHull:
            return
        reference = _reference_enumerate_stable(mesh, merge_coplanar_facets(mesh.hull), 0.0)
        margins = [p.stability_margin for p, _ in reference] or [0.0]
        for margin_eps in (0.0, 1e-4 * scale, min(margins), max(margins)):
            _assert_matches_reference(mesh, reference, margin_eps)

    @pytest.mark.parametrize(
        "name",
        [*fixtures.standard_fixtures(), "wedge", "prism32", "ellipsoid_s2",
         "ellipsoid_s4", "flattened_ellipsoid"],
    )
    def test_facet_built_only_for_merged_groups(self, name):
        """Every facet takes the one facet pass, but qhull runs only for
        merged facets, once each on a cold mesh: the 2-D order of the
        rest set's support, which a triangle takes in closed form.  A
        second enumeration finds every support in the memo and runs no
        qhull."""
        mesh = {
            "wedge": sheared_wedge,
            "prism32": lambda: ngon_prism(32),
            "ellipsoid_s2": lambda: ellipsoid(2),
            "ellipsoid_s4": lambda: ellipsoid(4),
            "flattened_ellipsoid": flattened_ellipsoid,
        }.get(name, lambda: fixtures.standard_fixtures()[name])()
        groups, _ = _coplanar_groups(mesh.hull, mesh.hull.face_normals(), 1e-4)
        with _counting_2d_hulls() as calls:
            enumerate_stable(mesh)
        assert calls[0] == len(groups)
        if name.startswith("ellipsoid"):
            assert calls[0] == 0
        with _counting_2d_hulls() as calls:
            enumerate_stable(mesh)
        assert calls[0] == 0

    def test_large_facets_beside_small_ones_stay_small(self):
        """A 1024-gon prism has two 1024-vertex caps beside 1024 quads.
        The facet pass and a support pass over a cap and a quad give the
        bytes of building each polygon alone, in far less memory than
        padding every quad to the caps' size (about 200 MB)."""
        mesh = ngon_prism(1024)
        reference = _reference_enumerate_stable(mesh, merge_coplanar_facets(mesh.hull), 0.0)
        groups, _ = _coplanar_groups(mesh.hull, mesh.hull.face_normals(), 1e-4)
        contacts = [np.unique(mesh.hull.faces[group]) for group in groups]
        cap = next(c for c in contacts if len(c) == 1024)
        quad = next(c for c in contacts if len(c) == 4)
        alone = [placements._new_supports(mesh, [c])[0] for c in (cap, quad)]
        tracemalloc.start()
        try:
            _assert_matches_reference(mesh, reference, 0.0)
            together = placements._new_supports(mesh, [cap, quad])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        for got, want in zip(together, alone):
            assert got.polygon.tolist() == want.polygon.tolist()
            assert np.float64(got.inradius).tobytes() == np.float64(want.inradius).tobytes()

    @pytest.mark.parametrize(
        "mesh",
        [fixtures.regular_tetrahedron(), ellipsoid(3), flattened_ellipsoid()],
        ids=["tetrahedron", "ellipsoid_s3", "flattened_ellipsoid"],
    )
    def test_polygon_path_for_every_triangle_gives_the_same_bytes(self, mesh, monkeypatch):
        """Flagging every triangle as too flat for the closed-form order
        sends it to qhull, which gives the same bytes: on a cold mesh
        every support that enumeration builds takes one qhull call."""
        reference = _reference_enumerate_stable(mesh, merge_coplanar_facets(mesh.hull), 0.0)
        order_rule = placements._triangle_order

        def all_flat(p):
            order, flat = order_rule(p)
            return order, np.ones_like(flat)

        monkeypatch.setattr(placements, "_triangle_order", all_flat)
        groups, _ = _coplanar_groups(mesh.hull, mesh.hull.face_normals(), 1e-4)
        with _counting_2d_hulls() as calls:
            _assert_matches_reference(mesh, reference, 0.0)
        assert calls[0] == len(mesh.supports) > len(groups)  # triangles took qhull

    def test_triangle_order_is_qhulls(self):
        """The order rule gives ``ConvexHull(p).vertices`` for every
        triangle it does not flag, ties in x included, and flags every
        triangle qhull rejects."""
        rng = np.random.default_rng(8)
        tri = rng.normal(size=(3000, 3, 2)) * 10.0 ** rng.integers(-4, 9, (3000, 1, 1))
        tri[::3] = np.round(tri[::3], 1)  # ties in x and y
        tri[1::5, 1, 0] = tri[1::5, 0, 0]
        # nearly collinear: the third point within 1e-18..1e-10 of the line
        thin = tri[2::7]
        thin[:, 2] = (0.3 * thin[:, 0] + 0.7 * thin[:, 1]
                      + thin[:, 2] * 10.0 ** rng.uniform(-18, -10, (len(thin), 1)))
        order, flat = placements._triangle_order(tri)
        for p, o, f in zip(tri, order, flat):
            try:
                vertices = ConvexHull(p).vertices
            except QhullError:
                assert f
                continue
            assert f or vertices.tolist() == o.tolist()

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_convex_rings_are_qhulls(self, k):
        """Each row that qhull accepts gets ``ConvexHull(p[row]).vertices``,
        in one stack per ring size, ascending, and the rows qhull rejects
        are left out: ties in x, nearly collinear, collinear and repeated
        points included."""
        rng = np.random.default_rng(k)
        p = rng.normal(size=(1500, k, 2)) * 10.0 ** rng.integers(-4, 9, (1500, 1, 1))
        p[::3] = np.round(p[::3], 1)  # ties in x and y
        p[1::5, 1, 0] = p[1::5, 0, 0]
        # nearly collinear: the last point within 1e-18..1e-10 of a line
        thin = p[2::7]
        thin[:, -1] = (0.3 * thin[:, 0] + 0.7 * thin[:, 1]
                       + thin[:, -1] * 10.0 ** rng.uniform(-18, -10, (len(thin), 1)))
        line = p[3::11]  # collinear
        line[:] = line[:, :1] + rng.random((len(line), k, 1)) * (line[:, 1:2] - line[:, :1])
        p[4::13, 1:] = p[4::13, :1]  # one point repeated
        p[5::17, -1] = p[5::17, 0]  # one vertex twice
        want = {}
        for i, row in enumerate(p):
            with contextlib.suppress(QhullError):
                want[i] = ConvexHull(row).vertices.tolist()
        stacks = placements._convex_rings(p)
        sizes = [order.shape[1] for _, order in stacks]
        assert sizes == sorted(set(sizes))
        got = {i: o for rows, order in stacks
               for i, o in zip(rows.tolist(), order.tolist())}
        assert sum(len(rows) for rows, _ in stacks) == len(got)
        assert got == want
        assert 0 < len(want) < len(p)


def _scaled(mesh, factor):
    return TriMesh(mesh.vertices * factor, mesh.faces)


def _assert_matches_reference(mesh, reference, margin_eps):
    """``enumerate_stable`` gives the bytes of the reference placements
    whose margin reaches margin_eps, and scores each against its rest
    set's ``Support`` in the memo: margin / inradius clamped to [0, 1],
    0 without a positive inradius."""
    expected = [(p, rest) for p, rest in reference if p.stability_margin >= margin_eps]
    got = enumerate_stable(mesh, margin_eps=margin_eps)
    assert json.dumps([p.to_json_dict() for p in got]) == json.dumps(
        [p.to_json_dict() for p, _ in expected]
    ), margin_eps
    for p, (_, rest) in zip(got, expected):
        assert rest in mesh.supports, rest
        inr = mesh.supports[rest].inradius
        assert p.score == (np.clip(p.stability_margin / inr, 0.0, 1.0) if inr > 0 else 0.0), rest


def _reference_enumerate_stable(mesh, facets, margin_eps):
    """The exact stability check on every facet, in facet order: the
    placements and their rest sets, each scored against the inradius of
    its rest set's frozen one-set support (``_reference_support``)."""
    out = []
    for facet, rest in zip(facets, _facet_rest_sets(mesh.hull), strict=True):
        assert set(facet.vertex_indices.tolist()) <= set(rest)
        rot = _reference_rotation_between(facet.normal, np.array([0.0, 0.0, -1.0]))
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
        inr = _reference_support(mesh, np.array(rest))[1]
        out.append((
            Placement(
                rotation=rot,
                translation=np.array([-com[0], -com[1], -zmin]),
                stability_margin=float(margin),
                score=float(np.clip(margin / inr, 0.0, 1.0)) if inr > 0 else 0.0,
            ),
            rest,
        ))
    return out


def _facet_rest_sets(hull):
    """The rest set of each facet of ``merge_coplanar_facets(hull)``, in
    its order: the sorted hull-vertex indices of the facet's faces."""
    groups, lone = _coplanar_groups(hull, hull.face_normals(), 1e-4)
    groups += [[f] for f in np.flatnonzero(lone).tolist()]
    return [tuple(np.unique(hull.faces[group]).tolist()) for group in sorted(groups)]


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
        """The memoized body-frame inradius gives the score a fresh
        inradius of the world contact polygon of each settled pose would
        give."""
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
        assert 0 < len(mesh.supports) < 60

    def test_memo_polygons_are_world_contact_hulls(self, monkeypatch):
        """Every support polygon the seeded fixture dataset and the dense
        drops meet, posed as they met it, has the directed edges of a 2-D
        qhull of the world contacts, starts at its lowest index, and is
        None exactly where that qhull fails.  A stack of supports is
        unpacked row by row, each row against its own pose."""
        met = []
        margin = placements._contact_margin

        def recording(xy, com_xy, support):
            poses = xy.reshape(-1, *xy.shape[-2:])  # one drop, a group or a stack
            if support.contact.ndim == 1:
                rows = [(posed, support.contact, support.polygon) for posed in poses]
            else:
                polygons = ([None] * len(poses) if support.polygon is None
                            else list(support.polygon))
                rows = zip(poses, support.contact, polygons)
            for posed, contact, poly in rows:
                met.append((posed[contact], contact, poly))
            return margin(xy, com_xy, support)

        monkeypatch.setattr(placements, "_contact_margin", recording)
        meshes = fixtures.standard_fixtures()
        generate_dataset(list(meshes.items()), 100, seed=7)
        dense = [ellipsoid(2), ellipsoid(3)]
        for mesh in dense:
            rng = np.random.default_rng(42)
            for _ in range(60):
                settle(mesh, random_rotation(rng))
        polygons = set()
        for xy, contact, poly in met:
            # a 3-D array would crash qhull, not fail this test
            assert xy.shape == (len(contact), 2) and contact.ndim == 1
            if len(contact) < 3:
                assert poly is None
                continue
            try:
                ring = contact[ConvexHull(xy).vertices]
            except QhullError:
                assert poly is None
                continue
            assert poly[0] == poly.min()
            edges = set(zip(poly.tolist(), np.roll(poly, -1).tolist()))
            assert edges == set(zip(ring.tolist(), np.roll(ring, -1).tolist()))
            polygons.add(tuple(contact.tolist()))
        # the drops met every polygon the memos hold
        assert polygons == {key for mesh in [*meshes.values(), *dense]
                            for key, support in mesh.supports.items()
                            if support.polygon is not None}


def _tilt_tolerance(mesh):
    """Largest up-axis tilt that settle's contact tolerance allows: a
    contact may hover CONTACT_TOL above the plane, which tilts a resting
    hull triangle by at most CONTACT_TOL over its shortest altitude."""
    hull = mesh.hull
    tri = hull.vertices[hull.faces]
    edges = np.linalg.norm(tri - np.roll(tri, 1, axis=1), axis=2)
    return CONTACT_TOL / float((2.0 * hull.face_areas() / edges.max(axis=1)).min())


def _reference_settle(mesh, initial, margin_eps=DEFAULT_MARGIN_EPS):
    """Settle's per-tip world-frame loop from before the rolling-graph
    walk: every tip transforms the whole hull and searches it for the
    pivot angle, taking a one-triangle support's pivot edge from the
    table.  Returns the rotation and the trace of COM heights."""
    hv, table = mesh.hull.vertices, mesh.pivot_table
    rot = np.asarray(initial, dtype=float).copy()
    heights = []
    for _ in range(201):
        world = hv @ rot.T
        zmin = world[:, 2].min()
        world[:, 2] -= zmin
        com = rot @ mesh.com - np.array([0.0, 0.0, zmin])
        heights.append(float(com[2]))
        contact = np.flatnonzero(world[:, 2] <= CONTACT_TOL)
        r = table.row_of.get(tuple(contact.tolist()))
        if r is not None and table.bound[r] < margin_eps - 1e-9:
            a, u = _line_axis(world[table.edge[r][0], :2], world[table.edge[r][1], :2])
        else:
            [support] = _contact_supports(mesh, [tuple(contact.tolist())])
            if _contact_margin(world[:, :2], com[:2], support) >= margin_eps:
                return rot, heights
            a, u = _pivot_axis(world[:, :2], com[:2], support)
        r_com = com - a
        s = -1.0 if u[0] * r_com[1] - u[1] * r_com[0] > 0 else 1.0
        rel = world - a
        a_z = rel[:, 2]
        phi = np.arctan2(np.maximum(a_z, 0.0), -s * (u[0] * rel[:, 1] - u[1] * rel[:, 0]))
        valid = (a_z > CONTACT_TOL) & (phi > 1e-9)
        rot = _reference_rotation_from_axis_angle(u, s * float(phi[valid].min())) @ rot
    raise SettleDiverged("reference loop exceeded 200 tips")


class TestDenseMeshSettle:
    @pytest.mark.parametrize("subdivisions", [2, 3])
    def test_seeded_drops(self, subdivisions):
        mesh = ellipsoid(subdivisions)
        ups = np.array([body_up_axis(p.rotation) for p in enumerate_stable(mesh)])
        tol = _tilt_tolerance(mesh)
        rng = np.random.default_rng(42)
        for _ in range(60):
            p, trace = settle(mesh, random_rotation(rng), return_trace=True)
            assert max(np.diff(trace), default=0.0) <= 1e-9  # COM never rises
            assert stability_check(mesh, p)[0]
            assert np.linalg.norm(ups - body_up_axis(p.rotation), axis=1).min() <= tol

    @pytest.mark.parametrize("subdivisions", [2, 3])
    def test_walk_matches_reference_loop(self, subdivisions):
        """The walked settle reaches the placement type of the per-tip
        world-frame loop, with as many tips (within 2%), most of them
        walked: the world-frame pivots are about two per drop, from the
        first contact point to a segment and on to a triangle."""
        mesh = ellipsoid(subdivisions)
        tol = _tilt_tolerance(mesh)
        rng = np.random.default_rng(42)
        tips = ref_tips = world_tips = 0
        for _ in range(60):
            initial = random_rotation(rng)
            with _counting(placements, "_pivot_axis") as calls:
                p, trace = settle(mesh, initial, return_trace=True)
            ref, ref_trace = _reference_settle(mesh, initial)
            assert max(np.diff(trace), default=0.0) <= 1e-9  # COM never rises
            assert stability_check(mesh, p)[0]
            assert np.linalg.norm(body_up_axis(ref) - body_up_axis(p.rotation)) <= tol
            tips += len(trace) - 1
            ref_tips += len(ref_trace) - 1
            world_tips += calls[0]
        assert abs(tips - ref_tips) <= 0.02 * ref_tips
        assert world_tips < tips / 2

    @pytest.mark.parametrize("subdivisions", [2, 3, 4])
    def test_type_independent_of_yaw_and_walk(self, subdivisions, monkeypatch):
        """A drop turned about z by any of 8 yaws, settled with and without
        the rolling-graph walk, reaches one placement type: the tie rule
        depends on hull-vertex indices, not on the frame."""
        mesh = ellipsoid(subdivisions)
        ups = np.array([body_up_axis(p.rotation) for p in enumerate_stable(mesh)])
        rng = np.random.default_rng(42)
        initials = [random_rotation(rng) for _ in range(60)]
        types = np.empty((60, 2, 8), dtype=int)
        for walk in (True, False):
            if not walk:
                monkeypatch.setattr(PivotTable, "walkable", lambda self, r, tol: False)
            for i, initial in enumerate(initials):
                for k in range(8):
                    up = body_up_axis(settle(mesh, rot_z(np.pi * k / 4) @ initial).rotation)
                    types[i, int(walk), k] = np.argmin(np.linalg.norm(ups - up, axis=1))
        assert np.all(types == types[:, :1, :1])

    def test_max_tips_counts_walked_tips(self, monkeypatch):
        """A drop whose trace has N tips diverges at MAX_TIPS < N and
        settles to the same placement at N."""
        mesh = ellipsoid(3)
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(8):
            initial = random_rotation(rng)
            with _counting(placements, "_walk") as walks:
                p, trace = settle(mesh, initial, return_trace=True)
            n = len(trace) - 1
            if walks[0] == 0:
                continue
            with monkeypatch.context() as patch:
                for max_tips in range(n):
                    patch.setattr(placements, "MAX_TIPS", max_tips)
                    with pytest.raises(SettleDiverged):
                        settle(mesh, initial)
                patch.setattr(placements, "MAX_TIPS", n)
                again = settle(mesh, initial)
            assert again.rotation.tobytes() == p.rotation.tobytes()
            checked += 1
        assert checked >= 5

    def test_divergence_names_margin_eps_no_facet_reaches(self, monkeypatch):
        """On the unit cube scaled by 1e-4, whose largest facet margin is
        5e-5, every drop tips until max_tips; settle and settle_batch then
        say that no facet reaches margin_eps, with one enumeration per
        call.  A mesh with a reachable facet keeps the plain message, and
        a drop that settles enumerates nothing."""
        cube = fixtures.unit_cube()
        tiny = TriMesh(cube.vertices * 1e-4, cube.faces)
        rng = np.random.default_rng(2)
        initials = np.stack([random_rotation(rng) for _ in range(3)])
        want = ("exceeded max_tips=200: no hull facet reaches margin_eps=0.0001; "
                "the largest facet margin is 5e-05")
        with _counting(placements, "enumerate_stable") as calls:
            with pytest.raises(SettleDiverged) as err:
                settle(tiny, initials[0])
            assert str(err.value) == want
            assert [str(o) for o in settle_batch(tiny, initials)] == [want] * 3
            assert calls[0] == 2
            with monkeypatch.context() as patch:
                patch.setattr(placements, "MAX_TIPS", 1)
                with pytest.raises(SettleDiverged, match=r"^exceeded max_tips=1$"):
                    settle(cube, initials[0])
            assert calls[0] == 3
            settle_batch(cube, initials)
            settle(tiny, initials[0], margin_eps=1e-5)
            assert calls[0] == 3


@contextlib.contextmanager
def _counting(module, name):
    """Count the calls of ``module.name`` made inside the block, in the
    yielded one-element list."""
    fn = getattr(module, name)
    calls = [0]

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    setattr(module, name, wrapper)
    try:
        yield calls
    finally:
        setattr(module, name, fn)


@contextlib.contextmanager
def _counting_2d_hulls():
    """Count the 2-D qhull calls made inside the block, by ``placements``
    and by ``mesh._convex_order_2d``, in the yielded one-element list."""
    calls = [0]

    def counted(points, *args, **kwargs):
        calls[0] += np.shape(points)[1] == 2
        return ConvexHull(points, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(placements, "ConvexHull", counted)
        patch.setattr(mesh_module, "ConvexHull", counted)
        yield calls


_TABLE_MESHES = [*fixtures.standard_fixtures(), "ellipsoid_s2", "ellipsoid_s3"]


def _table_mesh(name):
    if name.startswith("ellipsoid_s"):
        return ellipsoid(int(name[-1]))
    return fixtures.standard_fixtures()[name]


def _loop_pivot_rows(mesh):
    """Per hull triangle, from a loop over its edges in the body frame:
    its ascending vertex triple and its pivot edge (start, end) by the tie
    rule of ``_nearest_edges``."""
    hull = mesh.hull
    com = mesh.com
    rows = []
    for face, n in zip(hull.faces, hull.face_normals()):
        pts = hull.vertices[face]
        p = com - float((com - pts[0]) @ n) * n
        dists, beyond = [], []
        for k in range(3):
            a, b = pts[k], pts[(k + 1) % 3]
            dists.append(_loop_point_segment_distance(p, a, b))
            out = np.cross(b - a, n)
            beyond.append(float(out @ (com - a)) / float(np.linalg.norm(out)))
        k = _loop_tie_rule(dists, beyond, face.tolist())
        rows.append((tuple(sorted(face.tolist())), (face[(k + 1) % 3], face[k])))
    return rows


def _loop_tie_rule(dists, beyond, idx):
    """Index of the nearest edge i (vertex idx[i] to idx[i + 1]): of the
    edges within 1e-12 (relative) of the nearest distance, those within
    1e-12 (relative) of the largest distance beyond the line, and of
    those the edge with the lowest sorted vertex-index pair."""
    k = len(dists)
    near = [i for i in range(k) if dists[i] <= min(dists) * (1.0 + 1e-12)]
    best = max(beyond[i] for i in near)
    far = [i for i in near if beyond[i] >= best - 1e-12 * abs(best)]
    return min(far, key=lambda i: sorted((idx[i], idx[(i + 1) % k])))


class TestPivotTable:
    @pytest.mark.parametrize("name", _TABLE_MESHES)
    def test_rows_match_loop_reference(self, name):
        mesh = _table_mesh(name)
        hull = mesh.hull
        table = mesh.pivot_table
        bound = _edge_line_distances(hull, hull.face_normals(), mesh.com).min(axis=1)
        assert len(table.row_of) == len(hull.faces)
        for f, (triple, edge) in enumerate(_loop_pivot_rows(mesh)):
            r = table.row_of[triple]
            assert r == f
            assert table.bound[r] == bound[f]
            assert tuple(table.edge[r]) == edge

    @pytest.mark.parametrize("name", _TABLE_MESHES)
    def test_table_edge_is_full_path_edge(self, name):
        """Each unstable triangle posed on the plane: the support polygon
        and ``_pivot_axis`` give the table edge's pivot line, bit for bit."""
        mesh = _table_mesh(name)
        hull = mesh.hull
        table = mesh.pivot_table
        compared = 0
        for face, n, (triple, _) in zip(
            hull.faces, hull.face_normals(), _loop_pivot_rows(mesh)
        ):
            r = table.row_of[triple]
            if not table.bound[r] < DEFAULT_MARGIN_EPS - 1e-9:
                continue
            rot = _reference_rotation_between(n, np.array([0.0, 0.0, -1.0]))
            world = hull.vertices @ rot.T
            world[:, 2] -= world[:, 2].min()
            contact = np.flatnonzero(world[:, 2] <= CONTACT_TOL)
            if tuple(contact) != triple:
                continue  # more than the triangle touches: the table is not asked
            com = rot @ mesh.com
            [support] = _contact_supports(mesh, [triple])
            assert _contact_margin(world[:, :2], com[:2], support) < DEFAULT_MARGIN_EPS
            a, u = _pivot_axis(world[:, :2], com[:2], support)
            start, end = table.edge[r]
            a_t, u_t = _line_axis(world[start, :2], world[end, :2])
            assert a.tobytes() == a_t.tobytes() and u.tobytes() == u_t.tobytes()
            compared += 1
        if name.startswith("ellipsoid"):
            assert compared > len(hull.faces) // 4

    @pytest.mark.parametrize("name", _TABLE_MESHES)
    def test_sinks_are_enumerated_placements(self, name):
        """A triangle the table leaves to the full path for being stable
        (bound >= margin_eps) is an enumerated placement, and a
        one-triangle facet is enumerated exactly when it is such a sink."""
        mesh = _table_mesh(name)
        hull = mesh.hull
        normals = hull.face_normals()
        bound = _edge_line_distances(hull, normals, mesh.com).min(axis=1)
        ups = np.array([body_up_axis(p.rotation) for p in enumerate_stable(mesh)])

        def enumerated(f):
            return np.linalg.norm(ups + normals[f], axis=1).min() <= 1e-9

        sinks = np.flatnonzero(bound >= DEFAULT_MARGIN_EPS)
        assert all(enumerated(f) for f in sinks)
        _, lone = _coplanar_groups(hull, normals, 1e-4)
        for f in np.flatnonzero(lone):
            assert enumerated(f) == (bound[f] >= DEFAULT_MARGIN_EPS)
        if name.startswith("ellipsoid"):
            assert len(sinks) == len(ups) > 0

    @pytest.mark.parametrize("name", _TABLE_MESHES)
    def test_rolling_columns_match_loop_reference(self, name):
        """``next`` is the triangle across the pivot edge, ``turn`` lands
        it flat, ``height`` is the COM's distance to the plane and
        ``clear`` the lowest other vertex over the whole hull."""
        mesh = _table_mesh(name)
        hull = mesh.hull
        table = mesh.pivot_table
        down = np.array([0.0, 0.0, -1.0])
        rows = [table.row_of[tuple(face)] for face in np.sort(hull.faces, axis=1).tolist()]
        assert rows == list(range(len(rows)))  # row r is hull face r
        faces_at = {}  # undirected edge -> the faces holding it
        for f, face in enumerate(hull.faces.tolist()):
            for k in range(3):
                faces_at.setdefault(frozenset((face[k], face[k - 1])), []).append(f)
        for f, (face, n) in enumerate(zip(hull.faces, hull.face_normals())):
            r = rows[f]
            across = [g for g in faces_at[frozenset(table.edge[r].tolist())] if g != f]
            assert len(across) == 1
            g = across[0]
            assert table.next[r] == rows[g]
            rest = rotation_between(n, down)
            landed = rest @ table.turn[r] @ hull.face_normals()[g]
            assert np.abs(landed - down).max() <= 1e-12
            pts = hull.vertices[face]
            assert table.height[r] == pytest.approx(float(n @ (pts[0] - mesh.com)),
                                                    rel=1e-12, abs=1e-15)
            others = np.delete(hull.vertices, face, axis=0)
            assert table.clear[r] == pytest.approx(float(((pts[0] - others) @ n).min()),
                                                   rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("name", ["cube", "l_prism", "t_prism"])
    def test_walk_stops_on_coplanar_pairs(self, name):
        """On meshes whose flat faces are coplanar triangle pairs, no
        triangle is clear of another vertex, so a walk started from any
        triangle whose COM lies beyond its pivot edge lands on the next
        and stops there, and settle never starts one."""
        mesh = _table_mesh(name)
        hull = mesh.hull
        table = mesh.pivot_table
        assert np.all(table.clear <= CONTACT_TOL)
        normals = {table.row_of[tuple(face)]: n
                   for face, n in zip(np.sort(hull.faces, axis=1).tolist(), hull.face_normals())}
        beyond = np.flatnonzero(table.bound < 0)
        for r in beyond:
            heights = []
            rot = rotation_between(normals[r], np.array([0.0, 0.0, -1.0]))
            landed = _walk(table, r, rot, heights)
            assert heights == []  # one tip, then the world path takes over
            assert landed @ normals[table.next[r]] == pytest.approx([0, 0, -1], abs=1e-12)
        assert len(beyond) > 0 or name == "cube"
        rng = np.random.default_rng(8)
        with _counting(placements, "_walk") as walks:
            for _ in range(100):
                settle(mesh, random_rotation(rng))
        assert walks[0] == 0

    def test_enumerate_never_builds_it_and_settle_does(self):
        mesh = ellipsoid(2)
        enumerate_stable(mesh)
        assert "pivot_table" not in vars(mesh)
        settle(mesh, random_rotation(np.random.default_rng(3)))
        assert "pivot_table" in vars(mesh)

    def test_edge_index_built_once_per_mesh(self, monkeypatch):
        """Enumerate and the first settle (its pivot table) build one edge
        index, the mesh's: its hull, taken from the mesh's own faces,
        carries the mesh's through its turns and order."""
        sphere = fixtures.icosphere(0.05, 2)
        built = []
        build = EdgeIndex.build
        monkeypatch.setattr(EdgeIndex, "build", classmethod(
            lambda cls, faces, n: built.append(n) or build(faces, n)))
        mesh = TriMesh(sphere.vertices * np.array([1.0, 0.8, 0.6]), sphere.faces)
        enumerate_stable(mesh)
        settle(mesh, random_rotation(np.random.default_rng(3)))
        assert "pivot_table" in vars(mesh)
        assert built == [len(mesh.vertices)]

    def test_mass_pass_once_per_mesh_and_never_on_its_own_hull(self, monkeypatch):
        """Enumerate and the first settle run the mass pass once, on the
        mesh; its hull, taken from the mesh's own faces, runs none."""
        passes = []
        prop = vars(TriMesh)["_mass_properties"]

        def counted(self):
            passes.append(self)
            return prop.func(self)

        counted_prop = cached_property(counted)
        counted_prop.__set_name__(TriMesh, "_mass_properties")
        monkeypatch.setattr(TriMesh, "_mass_properties", counted_prop)
        mesh = ellipsoid(2)
        assert passes == []  # construction runs none
        enumerate_stable(mesh)
        settle(mesh, random_rotation(np.random.default_rng(3)))
        assert "pivot_table" in vars(mesh)
        assert mesh_module._own_hull_faces(mesh) is not None
        assert len(passes) == 1 and passes[0] is mesh

    def test_hull_geometry_built_once_per_mesh(self, monkeypatch):
        """Enumerate and the first settle (its pivot table) share one
        build of the hull's face normals and one of the COM's edge-line
        distances."""
        normal_builds, distance_builds = [], []
        prop = vars(TriMesh)["face_normals_and_areas"]

        def counted(self):
            normal_builds.append(self)
            return prop.func(self)

        counted_prop = cached_property(counted)
        counted_prop.__set_name__(TriMesh, "face_normals_and_areas")
        monkeypatch.setattr(TriMesh, "face_normals_and_areas", counted_prop)
        distances = mesh_module._edge_line_distances

        def counted_distances(*args):
            distance_builds.append(args)
            return distances(*args)

        for module in (mesh_module, placements):
            monkeypatch.setattr(module, "_edge_line_distances", counted_distances,
                                raising=False)
        mesh = ellipsoid(2)
        enumerate_stable(mesh)
        settle(mesh, random_rotation(np.random.default_rng(3)))
        assert "pivot_table" in vars(mesh)
        assert normal_builds == [mesh.hull] and len(distance_builds) == 1

    def test_cached_hull_geometry_is_read_only(self):
        mesh = ellipsoid(2)
        for cached in (*mesh.hull.face_normals_and_areas, mesh.edge_distances):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 0.0

    def test_row_of_a_non_triangle_is_none(self):
        table = fixtures.unit_cube().pivot_table
        # opposite corners of the cube share no hull triangle
        assert (0, 1, 7) not in table.row_of
        assert (5, 6, 7) not in table.row_of


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
        """Reruns and worker counts give the same bytes.  17 drops on each
        of three objects allow four workers, so at 3 and 5 the round-robin
        shares are uneven, and every share spans every object."""
        meshes = [("cube", cube), ("tetra", tetra), ("ellipsoid", ellipsoid(2))]
        a = generate_dataset(meshes, 17, seed=9)
        sa = [json.dumps(r.to_json_dict(), sort_keys=True) for r in a.records]
        assert len(sa) == 51 - sum(a.diverged.values())
        for workers in (1, 2, 3, 5):
            b = generate_dataset(meshes, 17, seed=9, workers=workers)
            sb = [json.dumps(r.to_json_dict(), sort_keys=True) for r in b.records]
            assert sa == sb, workers
            assert a.diverged == b.diverged, workers

    def test_pool_starts_at_most_one_worker_per_chunk(self, cube, tetra, monkeypatch):
        started = []

        class Pool:  # records its size and runs the jobs in this process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        meshes = [("cube", cube), ("tetra", tetra)]
        for drops, workers, pool in [(20, 64, [3]), (20, 2, [2]), (8, 64, []), (8, 1, [])]:
            started.clear()
            got = generate_dataset(meshes, drops, seed=9, workers=workers)
            assert started == pool, (drops, workers)
            want = generate_dataset(meshes, drops, seed=9)
            assert [r.to_json_dict() for r in got.records] == [
                r.to_json_dict() for r in want.records
            ]

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 3,
                                      120000000000000000000000000000, True, np.int64(7),
                                      np.uint64(2**64 - 1), 2**96 + 5])
    def test_drop_generators_match_the_list_seeded_streams(self, seed):
        """The one-pass seeding gives each drop ``default_rng``'s state,
        for seeds of one to four 32-bit words and objects of one or two;
        one call mixes one-, two- and three-word drops, so each entropy
        length takes its own pass, and no drops give no generators."""
        drops = [0, 1, 9, 2**32 - 1, 2**32, 2**33 + 7, 2**64 + 11, 5, 2**64]
        for obj_idx in (0, 2, 2**32 + 1):
            got = placements._drop_generators(seed, obj_idx, drops)
            assert len(got) == len(drops)
            for rng, drop in zip(got, drops):
                want = np.random.default_rng([seed, obj_idx, drop])
                assert rng.bit_generator.state == want.bit_generator.state
                assert rng.normal(size=8).tobytes() == want.normal(size=8).tobytes()
                assert rng.random(5).tobytes() == want.random(5).tobytes()
            assert placements._drop_generators(seed, obj_idx, []) == []

    def test_negative_seed_rejected(self, cube):
        with pytest.raises(ValueError, match="non-negative"):
            placements._drop_generators(-1, 0, [0])
        with pytest.raises(ValueError, match="non-negative"):
            generate_dataset([("cube", cube)], 2, seed=-3)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("seed, error, shown", [
        (-1, ValueError, "-1"),
        (np.int64(-3), ValueError, "-3"),
        (1.5, TypeError, "1.5"),
        (np.float64(2.0), TypeError, "np.float64(2.0)"),
        ("3", TypeError, "'3'"),
        (None, TypeError, "None"),
    ], ids=["negative", "negative-int64", "float", "float64", "string", "none"])
    def test_bad_seed_named_before_any_drop_settles(self, cube, monkeypatch, workers,
                                                     seed, error, shown):
        message = re.escape(f"seed must be a non-negative integer, got {shown}")
        settled, started = [], []
        monkeypatch.setattr(placements, "settle_records",
                            lambda *args, **kwargs: settled.append(args))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *args, **kwargs: started.append(args))
        with pytest.raises(error, match=f"^{message}$"):
            generate_dataset([("cube", cube)], 20, seed=seed, workers=workers)
        with pytest.raises(error, match=f"^{message}$"):
            generate_one_drop("cube", cube, seed, 0, 0)
        with pytest.raises(error, match=f"^{message}$"):
            placements._drop_generators(seed, 0, [0, 1])
        assert settled == started == []

    def test_bad_object_or_drop_index_rejected(self):
        with pytest.raises(ValueError, match="^obj_idx must be a non-negative integer, got -2$"):
            placements._drop_generators(0, -2, [0])
        with pytest.raises(TypeError, match="^obj_idx must be a non-negative integer"):
            placements._drop_generators(0, 1.0, [0])
        with pytest.raises(ValueError, match="^drop indices must be non-negative, got -1$"):
            placements._drop_generators(0, 0, [3, -1])

    def test_integer_seeds_of_every_kind_give_the_same_dataset(self, cube):
        want = generate_dataset([("cube", cube)], 6, seed=1).records
        for seed in (True, np.int64(1), np.uint8(1)):
            got = generate_dataset([("cube", cube)], 6, seed=seed).records
            assert [r.to_json_dict() for r in got] == [r.to_json_dict() for r in want]

    def test_record_round_trip(self, cube):
        from stableplace.placements import PlacementRecord

        res = generate_dataset([("cube", cube)], 5, seed=4)
        for rec in res.records:
            d = rec.to_json_dict()
            back = PlacementRecord.from_json_dict(json.loads(json.dumps(d)))
            assert back.to_json_dict() == d


_LOCKSTEP_MESHES = [*fixtures.standard_fixtures(), "ellipsoid_s2", "ellipsoid_s3",
                    "ellipsoid_s4"]


def _reference_outcome(mesh, initial, max_tips=200):
    """The frozen per-drop settle's (placement, trace), or the
    SettleDiverged it raised."""
    try:
        return _reference_drop_settle(mesh, initial, max_tips=max_tips)
    except SettleDiverged as exc:
        return exc


def _assert_same_outcome(got, trace, want):
    if isinstance(want, SettleDiverged):
        assert isinstance(got, SettleDiverged) and str(got) == str(want)
        return
    placement, heights = want
    assert isinstance(got, Placement)
    assert got.rotation.tobytes() == placement.rotation.tobytes()
    assert got.translation.tobytes() == placement.translation.tobytes()
    assert got.stability_margin == placement.stability_margin
    assert got.score == placement.score
    assert trace == heights


def _record_bytes(rec):
    return None if rec is None else json.dumps(rec.to_json_dict())


def _seeded_drops(n, seed):
    """Per-drop Generators seeded (seed, 0, drop) and each one's first
    random rotation, as the dataset draws them."""
    rngs = [np.random.default_rng([seed, 0, d]) for d in range(n)]
    return np.stack([random_rotation(rng) for rng in rngs]), rngs


class _FirstTryInPlane:
    """A Generator whose first normal draw is the identity quaternion, so
    the first unstable-pose try keeps the contact plane through the
    origin and fails; later draws come from a seeded Generator."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.first = True

    def normal(self, size):
        if self.first:
            self.first = False
            return np.array([1.0, 0.0, 0.0, 0.0])
        return self.rng.normal(size=size)


class TestLockstep:
    """settle_batch and settle_records against the frozen per-drop
    settle and record: the same bits at every batch size."""

    @pytest.mark.parametrize("name", _LOCKSTEP_MESHES)
    def test_batches_match_per_drop_reference(self, name):
        mesh = _table_mesh(name)
        n = 60 if name.startswith("ellipsoid") else 100
        rng = np.random.default_rng(42)
        initials = np.stack([random_rotation(rng) for _ in range(n)])
        want = [_reference_outcome(mesh, r) for r in initials]
        for size in (1, 7, 16, n):
            got, traces = [], []
            for k in range(0, n, size):
                outcomes, heights = settle_batch(mesh, initials[k:k + size], return_trace=True)
                got += outcomes
                traces += heights
            assert len(got) == len(traces) == n
            for g, t, w in zip(got, traces, want):
                _assert_same_outcome(g, t, w)

    @pytest.mark.parametrize("name", _LOCKSTEP_MESHES)
    def test_records_match_per_drop_reference(self, name):
        mesh = _table_mesh(name)
        n = 60 if name.startswith("ellipsoid") else 100
        want = []
        for initial, rng in zip(*_seeded_drops(n, 3)):
            try:
                want.append(_record_bytes(_reference_settle_record(name, mesh, initial, rng)))
            except SettleDiverged:
                want.append(None)
        for size in (1, 7, 16, n):
            initials, rngs = _seeded_drops(n, 3)
            got = []
            for k in range(0, n, size):
                got += settle_records(name, mesh, initials[k:k + size], rngs[k:k + size])
            assert [_record_bytes(rec) for rec in got] == want

    @pytest.mark.parametrize("seed", [1, 7, 2**32, 2**64 + 3])
    def test_fixture_dataset_matches_per_drop_reference(self, seed):
        meshes = list(fixtures.standard_fixtures().items())
        want = [_reference_one_drop(object_id, mesh, seed, i, d)
                for i, (object_id, mesh) in enumerate(meshes) for d in range(100)]
        got = generate_dataset(meshes, 100, seed)
        assert [_record_bytes(rec) for rec in got.records] == [
            _record_bytes(rec) for rec in want if rec is not None
        ]
        assert sum(got.diverged.values()) == want.count(None)
        for d in (0, 57):
            one = generate_one_drop("cube", meshes[0][1], seed, 0, d)
            assert _record_bytes(one) == _record_bytes(want[d])

    @pytest.mark.parametrize("name, max_tips", [("cube", 1), ("t_prism", 1),
                                                 ("ellipsoid_s3", 16)])
    def test_diverged_drop_leaves_the_others_alone(self, name, max_tips, monkeypatch):
        """Drops that need more than max_tips tips diverge on their own,
        at a world-frame tip (every fixture drop from a random pose takes
        two) or on a walk, and every other drop, such as one starting at
        rest, keeps its bits."""
        mesh = _table_mesh(name)
        rng = np.random.default_rng(6)
        initials = np.stack([random_rotation(rng) for _ in range(30)]
                            + [p.rotation for p in enumerate_stable(mesh)])
        want = [_reference_outcome(mesh, r, max_tips=max_tips) for r in initials]
        diverged = sum(isinstance(w, SettleDiverged) for w in want)
        assert 0 < diverged < len(want)
        monkeypatch.setattr(placements, "MAX_TIPS", max_tips)
        got, traces = settle_batch(mesh, initials, return_trace=True)
        for g, t, w in zip(got, traces, want):
            _assert_same_outcome(g, t, w)

    @pytest.mark.parametrize("name", ["cube", "t_prism", "ellipsoid_s3"])
    def test_unstable_pose_retry_matches_reference(self, name):
        """Drops whose first unstable-pose try fails draw again from
        their own Generators, beside drops whose first try holds."""
        mesh = _table_mesh(name)
        n = 24
        initials, _ = _seeded_drops(n, 5)

        def rngs():
            return [_FirstTryInPlane(d) if d % 3 else np.random.default_rng(d)
                    for d in range(n)]

        want = [_reference_settle_record(name, mesh, initial, rng)
                for initial, rng in zip(initials, rngs())]
        for size in (1, 7, n):
            fresh = rngs()
            got = []
            for k in range(0, n, size):
                got += settle_records(name, mesh, initials[k:k + size], fresh[k:k + size])
            assert [_record_bytes(rec) for rec in got] == [_record_bytes(w) for w in want]
        for rec in got[1::3] + got[2::3]:
            # the identity try, had it held, would leave the rotation as it was
            assert not np.array_equal(rec.unstable_rotation, rec.placement.rotation)

    def test_unstable_pose_retry_beside_diverged_drops(self, monkeypatch):
        """Every other drop of a block diverges at MAX_TIPS = 1 (each
        random cube drop takes two tips) and the others start at rest;
        each resting drop's retry still draws from its own Generator."""
        mesh = _table_mesh("cube")
        monkeypatch.setattr(placements, "MAX_TIPS", 1)
        rng = np.random.default_rng(6)
        initials = np.stack([r for p in enumerate_stable(mesh)
                             for r in (random_rotation(rng), p.rotation)])
        want = []
        for d, initial in enumerate(initials):
            try:
                want.append(_record_bytes(_reference_settle_record(
                    "cube", mesh, initial, _FirstTryInPlane(d), max_tips=1)))
            except SettleDiverged:
                want.append(None)
        assert want[0::2] == [None] * 6 and None not in want[1::2]
        got = settle_records("cube", mesh, initials,
                             [_FirstTryInPlane(d) for d in range(len(initials))])
        assert [_record_bytes(rec) for rec in got] == want

    def test_stacked_support_geometry_matches_one_drop_at_a_time(self):
        """Margins and pivot lines of a stack of poses equal those of each
        pose alone, for polygon, segment, point and mixed stacks, on one
        support or on a stack of supports of one shape that differ row by
        row; a segment whose contacts meet in the plane pivots as a
        point."""
        rng = np.random.default_rng(4)

        def polygon(ring):
            ring = np.array(ring)
            end = np.roll(ring, -1)
            return Support(ring, ring, 0.5, ring, end, placements._pair_keys(ring, end))

        shapes = [
            [polygon([0, 1, 2, 3]), polygon([0, 1, 4, 3])],
            [Support.without_polygon(np.array(c)) for c in ([1, 3], [0, 2], [2, 4])],
            [Support.without_polygon(np.array(c)) for c in ([0, 2, 3], [1, 2, 4])],
            [Support.without_polygon(np.array([v])) for v in (2, 0, 4)],
        ]
        xy = rng.normal(size=(9, 5, 2))
        xy[:, :4] = [[0, 0], [1, 0], [1, 1], [0, 1]] + 0.1 * xy[:, :4]
        xy[1::2, 4] = [1.2, 1.2] + 0.1 * xy[1::2, 4]  # a convex ring 0, 1, 4, 3
        xy[::3, 3] = xy[::3, 1]  # contacts 1 and 3 meet: no segment
        com = rng.normal(size=(9, 2))
        for supports in shapes:
            assert len({placements._shape(support) for support in supports}) == 1
            which = np.arange(len(xy)) % len(supports)
            stacks = [(support, [support] * len(xy)) for support in supports]
            stacks.append((placements._stack_supports(supports, which),
                           [supports[w] for w in which.tolist()]))
            for stack, alone in stacks:
                margin = _contact_margin(xy, com, stack)
                a, u = _pivot_axis(xy, com, stack)
                for i, support in enumerate(alone):
                    m_i = _contact_margin(xy[i], com[i], support)
                    assert margin[i].tobytes() == np.float64(m_i).tobytes()
                    a_i, u_i = _pivot_axis(xy[i], com[i], support)
                    assert a[i].tobytes() == a_i.tobytes() and u[i].tobytes() == u_i.tobytes()
        a, u = _pivot_axis(xy, com, shapes[1][0])
        assert np.all(a[::3, :2] == xy[::3, 1]) and np.all(u[1::3, :2] != 0)

    def test_one_margin_pass_per_support_shape(self, monkeypatch):
        """Each lockstep iteration of the T-prism's 100 seeded drops makes
        one ``_contact_margin`` call per support shape it meets, not one
        per contact set, and one ``_pivot_axis`` call at most."""
        mesh = _table_mesh("t_prism")
        initials, _ = _seeded_drops(100, 7)
        lookup = placements._contact_supports
        margin, pivot = placements._contact_margin, placements._pivot_axis
        iterations = []  # (contact sets, margin shapes, pivot shapes) per iteration

        def shape(support):
            return (support.polygon is not None, support.start.shape[-1],
                    support.contact.shape[-1])

        def looking(mesh, contacts):  # once per iteration, for its off-graph sets
            iterations.append((len(set(contacts)), [], []))
            return lookup(mesh, contacts)

        def measuring(xy, com_xy, support):
            iterations[-1][1].append(shape(support))
            return margin(xy, com_xy, support)

        def pivoting(xy, com_xy, support):
            iterations[-1][2].append(shape(support))
            return pivot(xy, com_xy, support)

        monkeypatch.setattr(placements, "_contact_supports", looking)
        monkeypatch.setattr(placements, "_contact_margin", measuring)
        monkeypatch.setattr(placements, "_pivot_axis", pivoting)
        settle_batch(mesh, initials)
        for _, margins, pivots in iterations:
            assert len(set(margins)) == len(margins)
            assert len(set(pivots)) == len(pivots) and set(pivots) <= set(margins)
        calls = sum(len(margins) for _, margins, _ in iterations)
        sets = sum(n for n, _, _ in iterations)
        assert len(iterations) >= 3 and sets >= 30 and calls <= sets / 2

    def test_blocks_bound_memory(self, monkeypatch):
        """A large batch on a dense mesh runs in blocks: its peak traced
        memory stays under a bound that one unbounded block exceeds, and
        the outcomes do not depend on the block size."""
        import tracemalloc

        mesh = ellipsoid(4)
        rng = np.random.default_rng(1)
        initials = np.stack([random_rotation(rng) for _ in range(200)])
        settle_batch(mesh, initials[:2])  # hull, pivot table and supports

        def peak():
            tracemalloc.start()
            try:
                return settle_batch(mesh, initials), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        blocked, blocked_peak = peak()
        monkeypatch.setattr(placements, "_SETTLE_BLOCK", 2**40)
        whole, whole_peak = peak()
        assert blocked_peak < 16e6 < whole_peak
        assert [p.rotation.tobytes() for p in blocked] == [p.rotation.tobytes() for p in whole]


class TestSupports:
    """A batch of contact sets gives each set the bits of the frozen
    one-set reference (``_reference_support``)."""

    @pytest.mark.parametrize("name", list(fixtures.standard_fixtures()))
    def test_fixture_facets_and_triangles(self, name):
        mesh = fixtures.standard_fixtures()[name]
        facets = [np.sort(f.vertex_indices) for f in merge_coplanar_facets(mesh.hull)]
        _assert_supports_match_reference(mesh, facets + list(np.sort(mesh.hull.faces, axis=1)))

    @pytest.mark.parametrize("subdivisions", [2, 3, 4])
    def test_every_ellipsoid_triangle(self, subdivisions):
        mesh = ellipsoid(subdivisions)
        _assert_supports_match_reference(mesh, list(np.sort(mesh.hull.faces, axis=1)))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_points=st.integers(5, 40),
        snapped=st.floats(0.0, 0.8),
        scale=st.sampled_from([1e-3, 1.0, 1e3, 1e8]),
    )
    def test_random_hulls(self, seed, n_points, snapped, scale):
        """Hulls with points snapped onto shared planes, so that facets of
        four and more coplanar vertices mix with triangles and with random
        sets of three to eight vertices."""
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n_points, 3))
        for axis in range(3):
            snap = rng.random(n_points) < snapped / 3
            pts[snap, axis] = np.round(pts[snap, axis])
        try:
            mesh = convex_hull(pts * scale)
        except DegenerateHull:
            return
        n = len(mesh.hull.vertices)
        contacts = [np.sort(f.vertex_indices) for f in merge_coplanar_facets(mesh.hull)]
        contacts += list(np.sort(mesh.hull.faces, axis=1))
        contacts += [np.sort(rng.choice(n, int(rng.integers(3, min(n, 8) + 1)), replace=False))
                     for _ in range(10)]
        _assert_supports_match_reference(mesh, contacts)

    def test_collinear_sets_and_mixed_sizes(self):
        """Collinear sets of three and four have no polygon; one batch
        mixes them with sets of three to eight points."""
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(20, 3))
        pts[:4] = np.outer([0.0, 0.5, 2.0, 3.0], [1.0, -2.0, 0.5]) + pts[0]
        mesh = SimpleNamespace(hull=SimpleNamespace(vertices=pts), com=pts.mean(axis=0))
        contacts = [np.arange(3), np.arange(4)]
        contacts += [np.sort(rng.choice(20, k, replace=False))
                     for k in range(3, 9) for _ in range(4)]
        rng.shuffle(contacts)
        got = _assert_supports_match_reference(mesh, contacts)
        assert sum(s.polygon is None for s in got) == 2

    def test_enumerated_rest_sets_build_in_one_pass(self):
        """``enumerate_stable`` builds its placements' rest sets into the
        memo in one ``_new_supports`` pass, each with the reference's
        bits; twelve seeded settles after it build nothing more, and give
        the bits of the same drops on an un-enumerated copy."""
        mesh, fresh = ellipsoid(3), ellipsoid(3)
        with _counting(placements, "_new_supports") as calls:
            found = enumerate_stable(mesh)
        assert calls[0] == 1
        assert len(mesh.supports) == len(found)
        for placement in found:
            world = mesh.hull.vertices @ placement.rotation.T + placement.translation
            assert tuple(np.flatnonzero(world[:, 2] <= CONTACT_TOL)) in mesh.supports
        rng = np.random.default_rng(42)
        initials = [random_rotation(rng) for _ in range(12)]
        with _counting(placements, "_new_supports") as calls:
            got = [settle(mesh, initial) for initial in initials]
        assert calls[0] == 0
        for placement, initial in zip(got, initials):
            want = settle(fresh, initial)
            assert placement.rotation.tobytes() == want.rotation.tobytes()
            assert placement.translation.tobytes() == want.translation.tobytes()
            assert placement.stability_margin == want.stability_margin
            assert placement.score == want.score
        for key, support in mesh.supports.items():
            poly, inr = _reference_support(mesh, np.array(key))
            assert support.contact.tolist() == list(key)
            assert support.polygon.tolist() == poly.tolist()
            assert np.float64(support.inradius).tobytes() == np.float64(inr).tobytes()

    def test_round_mesh_builds_every_facet_in_enumeration(self):
        """On a sphere every hull triangle is a stable facet: enumeration
        builds all 1,280 in one pass, and neither a settle after it nor
        enumerating again builds any."""
        mesh = fixtures.icosphere(0.05, 3)
        with _counting(placements, "_new_supports") as calls:
            assert len(enumerate_stable(mesh)) == 1280
            assert calls[0] == 1
            assert len(mesh.supports) == 1280
            settle(mesh, random_rotation(np.random.default_rng(3)))
            assert len(enumerate_stable(mesh)) == 1280
        assert calls[0] == 1


def _assert_supports_match_reference(mesh, contacts):
    """One ``_new_supports`` batch of ``contacts`` gives each set the
    polygon, inradius bits and edges of ``_reference_support``."""
    got = placements._new_supports(mesh, contacts)
    assert len(got) == len(contacts)
    for contact, support in zip(contacts, got):
        poly, inr = _reference_support(mesh, contact)
        assert support.contact is contact
        if poly is None:
            alone = Support.without_polygon(contact)
            assert support.polygon is None and support.inradius == 0.0
            assert support.start.tolist() == alone.start.tolist()
            assert support.end.tolist() == alone.end.tolist()
            continue
        end = np.roll(poly, -1)
        assert support.polygon.tolist() == poly.tolist()
        assert np.float64(support.inradius).tobytes() == np.float64(inr).tobytes()
        assert support.start.tolist() == poly.tolist() and support.end.tolist() == end.tolist()
        pair = np.minimum(poly, end) * (int(poly.max()) + 1) + np.maximum(poly, end)
        assert support.pair.tolist() == pair.tolist()
    return got


# --- support-polygon geometry against the LP and loop references -------------


def _lp_inradius(poly):
    """Chebyshev radius as one HiGHS LP over the edge lines: the reference
    the exact ``polygon_inradius`` replaced.  Only tests import
    scipy.optimize."""
    rows, rhs = [], []
    k = len(poly)
    for i in range(k):
        a, b = poly[i], poly[(i + 1) % k]
        d = b - a
        n = np.array([d[1], -d[0]])
        ln = np.linalg.norm(n)
        if ln < 1e-15:
            continue
        n /= ln
        rows.append([n[0], n[1], 1.0])
        rhs.append(float(n @ a))
    if len(rows) < 3:
        return 0.0
    res = linprog(
        c=[0.0, 0.0, -1.0],
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        bounds=[(None, None), (None, None), (0, None)],
        method="highs",
    )
    return float(res.x[2]) if res.success else 0.0


def _reference_inradius(poly):
    """The LP on the polygon moved to its vertex mean and scaled by a power
    of two (exactly) so that its radius is near 1.  HiGHS's feasibility
    tolerances are absolute (1e-7), so unscaled it is off by up to 1e-3
    relative on millimetre polygons and by 7.6e-13 on a triangle of radius
    8.7e-5; rescaled it agrees with the exact optimum of the same lines."""
    poly = np.asarray(poly, dtype=float)
    poly = poly - poly.mean(axis=0)
    r = _lp_inradius(poly)
    if r <= 0:
        return r
    s = 2.0 ** -np.round(np.log2(r))
    return _lp_inradius(poly * s) / s


def _random_convex(rng, k, scale):
    """CCW convex polygon with at least 3 of k random points on an ellipse,
    rotated and moved off the origin."""
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
        axes = rng.uniform(0.5, 1.0) * np.array([1.0, rng.uniform(0.05, 1.0)])
        pts = np.column_stack([np.cos(ang), np.sin(ang)]) * axes
        pts = pts[ConvexHull(pts).vertices]
        if len(pts) >= 3:
            return (_rotate2(pts, rng.uniform(0.0, 2.0 * np.pi)) + rng.normal(size=2)) * scale


def _rotate2(pts, theta):
    c, s = np.cos(theta), np.sin(theta)
    return pts @ np.array([[c, s], [-s, c]])


def _regular(k, radius=1.0, phase=0.3):
    ang = phase + 2.0 * np.pi * np.arange(k) / k
    return radius * np.column_stack([np.cos(ang), np.sin(ang)]) + np.array([5.0, -2.0])


def _reference_polygon_inradius(poly):
    """``polygon_inradius`` of one polygon with ``np.roll`` and boolean
    masks, frozen as it was before the stacked ``_polygon_inradii``: the
    bits that pass must keep."""
    a = np.asarray(poly, dtype=float)
    d = np.roll(a, -1, axis=0) - a
    n = np.column_stack([d[:, 1], -d[:, 0]])
    ln = np.sqrt(np.vecdot(n, n))
    keep = ~(ln < 1e-15)
    a, d, n, ln = a[keep], d[keep], n[keep] / ln[keep, None], ln[keep]
    if len(poly) == 3 and len(n) == 3:
        area2 = float(d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0])
        return max(area2 / float(ln.sum()), 0.0)
    prev = np.roll(n, 1, axis=0)
    straight = (np.vecdot(prev, n) > 0) & (
        np.abs(prev[:, 0] * n[:, 1] - prev[:, 1] * n[:, 0]) <= 1e-12
    )
    n, a = n[~straight], a[~straight]
    if len(n) < 3:
        return 0.0
    return placements._chebyshev_radius(n, np.vecdot(n, a - a.mean(axis=0)))


def _assert_matches_lp(poly, rel=1e-12):
    got, ref = polygon_inradius(poly), _reference_inradius(poly)
    assert ref > 0
    assert abs(got - ref) <= rel * ref, (len(poly), got, ref)


def _loop_signed_polygon_margin(p, poly):
    k = len(poly)
    inside = True
    min_edge = np.inf
    min_bound = np.inf
    for i in range(k):
        a, b = poly[i], poly[(i + 1) % k]
        d = b - a
        n = np.array([d[1], -d[0]])
        ln = np.linalg.norm(n)
        if ln < 1e-15:
            continue
        n /= ln
        s = float(n @ (p - a))
        if s > 0:
            inside = False
        min_edge = min(min_edge, -s)
        min_bound = min(min_bound, _loop_point_segment_distance(p, a, b))
    return min_edge if inside else -min_bound


def _loop_point_segment_distance(p, a, b):
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def _nearest_polygon_edge(p, poly, idx):
    """The edge poly[i] -> poly[i + 1] nearest to p, by ``_nearest_edges``
    with the tie keys of the vertex indices ``idx``, as ``_pivot_axis``
    calls it."""
    idx = np.asarray(idx, dtype=np.int64)
    pair = placements._pair_keys(idx, np.roll(idx, -1))
    return int(placements._nearest_edges(p, poly, np.roll(poly, -1, axis=0), pair))


def _loop_nearest_polygon_edge(p, poly, idx):
    """The nearest edge of the polygon with vertex indices ``idx``, by
    ``_loop_tie_rule``."""
    k = len(poly)
    dists, beyond = [], []
    for i in range(k):
        a, b = poly[i], poly[(i + 1) % k]
        dists.append(_loop_point_segment_distance(p, a, b))
        d = b - a
        ln = max(float(np.sqrt(d @ d)), np.finfo(float).tiny)
        beyond.append(float(d[1] * (p[0] - a[0]) - d[0] * (p[1] - a[1])) / ln)
    return _loop_tie_rule(dists, beyond, list(idx))


def _loop_segment_support_margin(com_xy, xy):
    return -float(
        min(
            _loop_point_segment_distance(com_xy, xy[i], xy[j])
            for i in range(len(xy))
            for j in range(i + 1, len(xy))
        )
    )


class TestPolygonInradius:
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e2])
    def test_random_convex_polygons(self, scale):
        rng = np.random.default_rng(int(scale * 1e3))
        for _ in range(150):
            _assert_matches_lp(_random_convex(rng, int(rng.integers(3, 65)), scale))

    def test_rectangles(self):
        # parallel edges: the centre is not unique, the radius is
        for w in (3.0, 1.0, 0.5, 1e-2):
            for theta in (0.0, 0.1, np.pi / 4, 2.0):
                rect = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, w], [0.0, w]])
                rect = _rotate2(rect, theta) + 1.0
                _assert_matches_lp(rect)
                assert polygon_inradius(rect) == pytest.approx(min(w, 1.0) / 2, rel=1e-12)

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8, 12, 31, 32, 33, 64])
    def test_regular_polygons(self, k):
        # every edge touches the incircle: every triple ties
        poly = _regular(k, radius=2.0)
        _assert_matches_lp(poly)
        assert polygon_inradius(poly) == pytest.approx(2.0 * np.cos(np.pi / k), rel=1e-12)

    def test_slivers(self):
        # width 1e-2 of the length.  Both methods lose about eps * length /
        # radius to rounding, so thinner needles get their own test
        rng = np.random.default_rng(5)
        for k in (3, 4, 5, 8, 16, 32, 64):
            needle = _regular(k) * np.array([1.0, 1e-2])
            _assert_matches_lp(_rotate2(needle, rng.uniform(0.0, 2.0 * np.pi)))
        for k in (8, 16, 40, 64) * 10:
            poly = _random_convex(rng, k, 1.0) * np.array([1.0, 1e-2])
            _assert_matches_lp(_rotate2(poly, rng.uniform(0.0, 2.0 * np.pi)))

    def test_needle_triangles(self):
        # radius down to 1e-6 of the length: 2 * area / perimeter against
        # the same formula in 50 digits.  Over 2000 such triangles this is
        # off by at most 5.3e-11 relative, and the LP by 8.8e-11
        rng = np.random.default_rng(7)
        with localcontext() as ctx:
            ctx.prec = 50
            for _ in range(200):
                apex = [rng.uniform(), 10 ** rng.uniform(-6, -2)]
                tri = np.array([[0.0, 0.0], [1.0, 0.0], apex])
                tri = _rotate2(tri, rng.uniform(0.0, 2.0 * np.pi)) + rng.normal(size=2)
                pts = [(Decimal(float(x)), Decimal(float(y))) for x, y in tri]
                d = [(q[0] - p[0], q[1] - p[1]) for p, q in zip(pts, pts[1:] + pts[:1])]
                area2 = d[0][0] * d[1][1] - d[0][1] * d[1][0]
                exact = float(area2 / sum((x * x + y * y).sqrt() for x, y in d))
                assert polygon_inradius(tri) == pytest.approx(exact, rel=1e-10, abs=0.0)

    def test_repeated_and_collinear_vertices(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            poly = _random_convex(rng, int(rng.integers(3, 40)), 1.0)
            _assert_matches_lp(np.repeat(poly, rng.integers(1, 4, len(poly)), axis=0))
            # midpoints on some edges, and a third point on others; the
            # polygon may start at any of them
            nxt = np.roll(poly, -1, axis=0)
            out = []
            for p, q, c in zip(poly, nxt, rng.integers(0, 3, len(poly))):
                out += [p] + [p + (q - p) * f for f in ((), (0.5,), (0.25, 0.75))[c]]
            _assert_matches_lp(np.roll(np.array(out), -int(rng.integers(len(out))), axis=0))

    def test_matches_one_polygon_reference(self):
        """One polygon and a batch of them, padded to a common length, give
        the bits of the frozen one-polygon form, triangles and repeated,
        collinear, clockwise and scaled vertices included."""
        rng = np.random.default_rng(13)
        polys = []
        for trial in range(600):
            poly = _random_convex(rng, int(rng.integers(3, 40)), 10.0 ** rng.integers(-4, 6))
            kind = trial % 5
            if kind == 1:
                poly = np.repeat(poly, rng.integers(1, 4, len(poly)), axis=0)
            elif kind == 2:  # a third point on some edges
                poly = np.insert(poly, rng.integers(0, len(poly), 3),
                                 (poly[:3] + np.roll(poly, -1, axis=0)[:3]) / 2, axis=0)
            elif kind == 3:
                poly = poly[::-1]
            elif kind == 4:
                poly = rng.normal(size=(3, 2)) * 10.0 ** rng.integers(-4, 6)
            polys.append(poly)
        batch = np.empty(len(polys))
        for _, sel in placements._by_size(np.array([len(poly) for poly in polys])):
            stack = np.stack([polys[i] for i in sel.tolist()])
            batch[sel] = placements._polygon_inradii(*placements._ring_edges(stack))
        for poly, got in zip(polys, batch):
            want = np.float64(_reference_polygon_inradius(poly)).tobytes()
            assert np.float64(polygon_inradius(poly)).tobytes() == want
            assert got.tobytes() == want

    @pytest.mark.parametrize(
        "poly",
        [
            [],
            [[1.0, 2.0]],
            [[0.0, 0.0], [1.0, 1.0]],
            [[1.0, 1.0]] * 5,
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 0.0]],
            [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],
            [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]],  # clockwise
            [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]],  # clockwise
        ],
    )
    def test_degenerate_is_zero(self, poly):
        poly = np.array(poly, dtype=float).reshape(-1, 2)
        assert polygon_inradius(poly) == 0.0
        if len(poly):
            assert _lp_inradius(poly) == 0.0


class TestEdgeArrays:
    """The array edge functions give the bits of the per-edge loops."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(8)
        for trial in range(300):
            poly = _random_convex(rng, int(rng.integers(3, 40)), [1e-3, 1.0, 1e2][trial % 3])
            if trial % 4 == 0:
                poly = np.repeat(poly, 2, axis=0)  # zero-length edges
            lo, hi = poly.min(axis=0), poly.max(axis=0)
            span = hi - lo
            points = [rng.uniform(lo - span, hi + span) for _ in range(4)]
            points += [poly.mean(axis=0), poly[0], (poly[0] + poly[1]) / 2]
            for p in points:
                yield p, poly

    def test_signed_polygon_margin(self):
        for p, poly in self.cases():
            got = signed_polygon_margin(p, poly)
            assert type(got) is float
            assert got == _loop_signed_polygon_margin(p, poly)

    def test_nearest_polygon_edge(self):
        rng = np.random.default_rng(10)
        for p, poly in self.cases():
            idx = rng.permutation(2 * len(poly))[: len(poly)]
            got = _nearest_polygon_edge(p, poly, idx)
            assert got == _loop_nearest_polygon_edge(p, poly, idx)

    def test_nearest_edge_lowest_index_on_ties(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert _nearest_polygon_edge(np.array([0.5, 0.5]), square, np.arange(4)) == 0
        assert _nearest_polygon_edge(np.array([2.0, 2.0]), square, np.arange(4)) == 1
        # the tie goes by index pair, not by position: (0, 1) is edge 1 here
        assert _nearest_polygon_edge(np.array([0.5, 0.5]), square, [3, 0, 1, 2]) == 1
        assert _nearest_polygon_edge(np.array([2.0, 2.0]), square, [9, 7, 2, 5]) == 2

    def test_vertex_tie_goes_to_the_edge_the_point_is_beyond(self):
        # p is nearest the acute vertex (1, 0): it lies beyond the line of
        # edge 1 but inside that of edge 0, whose distance is the same
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.2]])
        p = np.array([1.196, 0.88])
        dist = _point_segment_distance(p, tri, np.roll(tri, -1, axis=0))
        assert dist[0] == dist[1] < dist[2]
        assert _nearest_polygon_edge(p, tri, np.arange(3)) == 1

    def test_point_segment_distances(self):
        for p, poly in self.cases():
            b = np.roll(poly, -1, axis=0)
            got = _point_segment_distance(p, poly, b)
            want = [_loop_point_segment_distance(p, x, y) for x, y in zip(poly, b)]
            assert got.tolist() == want

    def test_segment_support_margin(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            # collinear contacts: point, segment and repeated-point supports
            t = np.sort(rng.uniform(-1.0, 1.0, int(rng.integers(2, 7))))
            xy = rng.normal(size=2) + np.outer(t, rng.normal(size=2))
            com = rng.normal(size=2)
            margin = _contact_margin(xy, com, Support.without_polygon(np.arange(len(xy))))
            assert margin == _loop_segment_support_margin(com, xy)
