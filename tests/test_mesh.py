import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import ConvexHull

from conftest import (
    _reference_rotation_between,
    drifting_arc,
    ellipsoid,
    ngon_prism,
    sheared_wedge,
)
from stableplace import fixtures
from stableplace import mesh as mesh_module
from stableplace.placements import enumerate_stable
from stableplace.rotations import body_up_axis
from stableplace.mesh import (
    CollinearContacts,
    DegenerateHull,
    DegenerateMesh,
    EdgeIndex,
    MeshParseError,
    TriMesh,
    ZeroPlaneVector,
    _canonical_faces,
    _parse_obj,
    _plain_records,
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

    def test_zero_area_mesh_degenerate(self, tmp_path):
        path = tmp_path / "line.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n")
        with pytest.raises(DegenerateMesh, match=f"^mesh {path}: mesh has zero surface area$"):
            load_mesh(path)

    def test_bare_mesh_raises_on_first_mass_read(self):
        # construction runs no mass pass; the first read of any of the
        # three mass properties does, and raises every time
        line = TriMesh(np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]]), np.array([[0, 1, 2]]))
        for name in ("com", "volume", "centroid_fallback", "com"):
            with pytest.raises(DegenerateMesh, match="zero surface area"):
                getattr(line, name)

    def test_huge_coordinates_degenerate_without_warnings(self, tmp_path, recwarn):
        path = tmp_path / "huge.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1e308\nv 1 1 1\n"
            "f 1 2 3\nf 1 2 4\nf 1 3 4\nf 2 3 4\nf 2 3 5\n"
        )
        with pytest.raises(DegenerateMesh, match=f"mesh {path}: .*overflows"):
            load_mesh(path)
        assert not recwarn.list

    @pytest.mark.parametrize("name", ["cube", "tetra_spare_vertex"])
    def test_byte_order_mark_loads_the_same_mesh(self, tmp_path, cube, name):
        plain = tmp_path / f"{name}.obj"
        if name == "cube":
            save_obj(cube, plain)
        else:
            # the unit corner tetrahedron (volume 1/6) and a spare last
            # vertex; dropping the first vertex would shift the faces onto
            # a tetrahedron of volume 1/3
            plain.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nv -1 0 0\n"
                             "f 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\n")
        marked = tmp_path / f"{name}_bom.obj"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want, got = load_mesh(plain), load_mesh(marked)
        assert np.array_equal(got.vertices, want.vertices)
        assert np.array_equal(got.faces, want.faces)
        assert got.volume == want.volume
        if name != "cube":
            assert got.volume == pytest.approx(1.0 / 6.0)

    def test_bytes_that_are_not_utf8_fail_only_in_numbers(self, tmp_path, cube):
        plain = tmp_path / "cube.obj"
        save_obj(cube, plain)
        # a latin-1 byte in a comment and in an object name
        named = tmp_path / "cube_latin1.obj"
        named.write_bytes(b"# caf\xe9\no caf\xe9\n" + plain.read_bytes())
        want, got = load_mesh(plain), load_mesh(named)
        assert np.array_equal(got.vertices, want.vertices)
        assert np.array_equal(got.faces, want.faces)
        bad = tmp_path / "bad.obj"
        bad.write_bytes(b"v 0 0 0\xe9\n" + plain.read_bytes())
        with pytest.raises(MeshParseError, match="could not convert string to float: '0\ufffd'"):
            load_mesh(bad)


def _reference_parse_obj(text):
    """The line-by-line parser that ``_parse_obj`` replaced."""
    vertices = []
    faces = []
    try:
        for line_no, raw in enumerate(text.splitlines(), 1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                xyz = [float(x) for x in parts[1:4]]
                if len(xyz) < 3:
                    raise MeshParseError(f"line {line_no}: vertex with < 3 coordinates")
                if not all(np.isfinite(xyz)):
                    raise MeshParseError(f"line {line_no}: non-finite vertex coordinate")
                vertices.append(xyz)
            elif parts[0] == "f":
                idx = [int(p.split("/")[0]) for p in parts[1:]]
                idx = [i - 1 if i > 0 else len(vertices) + i for i in idx]
                if len(idx) < 3:
                    raise MeshParseError(f"line {line_no}: face with < 3 vertices")
                for k in range(1, len(idx) - 1):
                    faces.append([idx[0], idx[k], idx[k + 1]])
    except (ValueError, IndexError) as exc:
        if isinstance(exc, MeshParseError):
            raise
        raise MeshParseError(str(exc)) from exc
    if not vertices or not faces:
        raise MeshParseError("no geometry found")
    return TriMesh(np.array(vertices), np.array(faces))


# str.split whitespace includes no-break space and \x1f, which do not
# end a line
_SPACE = st.sampled_from([" ", "  ", "\t", " \t ", "\xa0", "\x1f"])
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.floats(min_value=-3.0, max_value=3.0).map(lambda x: f"{x:.3f}"),
    st.integers(-5, 5).map(str),
    st.sampled_from(["nan", "inf", "-inf", "+NaN", "1e400", "-1e308", "1_0", "٣",
                     "abc", "1.2.3", "0x10", "", "1e", "-"]),
)
_INDEX = st.one_of(
    st.integers(-6, 9).map(str),
    st.tuples(st.integers(-6, 9), st.sampled_from(["/1", "/2/3", "//4", "/", "/x"])).map(
        lambda t: f"{t[0]}{t[1]}"
    ),
    st.sampled_from(["0", "x", "/3", "1.5", "+2", "٣", "9223372036854775808",
                     "-9223372036854775809", "99999999999999999999999"]),
)


def _record(head, token):
    return st.lists(st.tuples(_SPACE, token), max_size=6).map(
        lambda toks: head + "".join(space + tok for space, tok in toks)
    )


_LINE = st.one_of(
    _record("v", _NUMBER),
    _record("v", _NUMBER),
    _record("f", _INDEX),
    _record("f", _INDEX),
    st.sampled_from(["", "   ", "# comment", "#v 1 2 3", "vt 0.5 0.5", "vn 0 0 1",
                     "o thing", "v1 2 3", " v 0 0 0", "f", "v"]),
)
_COORD = st.one_of(
    st.integers(-3, 3).map(str),
    st.floats(-10.0, 10.0).map(repr),
    st.floats(-1.0, 1.0).map(lambda x: f"{x:.4e}"),
)
_FILLER = st.sampled_from(["", "  ", "# c", "vn 0 0 1", "o part"])


@st.composite
def _valid_obj_lines(draw):
    """Lines of a parseable OBJ: 4-12 vertices, some with a fourth
    number, then polygons indexing them from either end, some as a/b/c;
    blank and comment lines anywhere."""
    n = draw(st.integers(4, 12))
    lines = [
        "v " + " ".join(draw(st.lists(_COORD, min_size=3, max_size=4)))
        for _ in range(n)
    ]
    for _ in range(draw(st.integers(1, 10))):
        index = st.one_of(st.integers(1, n), st.integers(-n, -1))
        face = draw(st.lists(index, min_size=3, max_size=6))
        tail = draw(st.sampled_from(["", "/1", "/1/2", "//3"]))
        lines.append("f " + " ".join(f"{i}{tail}" for i in face))
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_FILLER))
    return lines


_PLAIN_COORD = st.sampled_from(["%r", "%.17g", "%.3e", "%.0f"])


@st.composite
def _plain_obj(draw):
    """``save_obj``-style lines, ``v x y z`` of random doubles written in
    one format and then triangles ``f a b c`` of 1-based indices, up to
    a few thousand records; and the vertex count."""
    n = draw(st.integers(4, 1200))
    n_faces = draw(st.integers(1, 2400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fmt = draw(_PLAIN_COORD)
    scale = 10.0 ** draw(st.integers(-300, 300))
    coords = (rng.standard_normal((n, 3)) * scale).tolist()
    lines = ["v " + " ".join(fmt % x for x in row) for row in coords]
    faces = rng.integers(1, n + 1, size=(n_faces, 3)).tolist()
    lines += [f"f {a} {b} {c}" for a, b, c in faces]
    return lines, n


def _replace_last(token):
    return lambda line, n: line.rsplit(" ", 1)[0] + " " + token


# name -> near miss of a plain line (and the text's vertex count)
_NEAR_MISSES = {
    **{f"last={token}": _replace_last(token)
       for token in ["1_0", "+2", "nan", "1e400", "+NaN", "infinity", "0", "-1", "-2",
                     "1/1", "2//3", "1.5", "1e0", "9223372036854775808"]},
    "comment": lambda line, n: "#" + line,
    "trailing_comment": lambda line, n: line + " # note",
    "tab": lambda line, n: line.replace(" ", "\t", 1),
    "leading_space": lambda line, n: " " + line,
    "double_space": lambda line, n: line.replace(" ", "  "),
    "trailing_space": lambda line, n: line + " ",
    "fourth_index": lambda line, n: line + f" {n}",  # a quad, or a v with 4 numbers
    "fourth_number": lambda line, n: line + " 1.0",
    "head_alone": lambda line, n: line.split(" ", 1)[0],
    "one_short": lambda line, n: line.rsplit(" ", 1)[0],
    "bom": lambda line, n: "\ufeff" + line,
    "blank": lambda line, n: "",
    "normal": lambda line, n: "vn 0 0 1",
    "doubled_head": lambda line, n: "f " + line,
    "letter_after": lambda line, n: line + "f",
}


def _outcome(parse, text):
    try:
        mesh = parse(text)
    except Exception as exc:  # the outcome is compared, not raised
        return type(exc), str(exc)
    return mesh.vertices, mesh.faces


class TestParseObjFuzz:
    """``_parse_obj`` against the line-by-line parser on the same text:
    bitwise-equal vertices and faces, or the same error."""

    @staticmethod
    def check(lines, ends):
        text = "".join(line + end for line, end in zip(lines, ends + ["\n"] * len(lines)))
        got, want = _outcome(_parse_obj, text), _outcome(_reference_parse_obj, text)
        if want[0] is OverflowError:
            # an index beyond int64 was an OverflowError traceback; it is a
            # face index out of range now
            assert got == (MeshParseError, "face index out of range")
        elif isinstance(want[0], type):
            assert got == want
        else:
            assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @settings(max_examples=250, deadline=None)
    @given(
        st.lists(_LINE, max_size=30),
        st.lists(st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028"]), max_size=30),
    )
    def test_any_text(self, lines, ends):
        self.check(lines, ends)

    @settings(max_examples=120, deadline=None)
    @given(_valid_obj_lines(), st.lists(st.sampled_from(["\n", "\r\n"]), max_size=40))
    def test_valid_text(self, lines, ends):
        self.check(lines, ends)

    def test_negative_index_counts_vertices_read_so_far(self):
        # 0 is the next vertex to be read, here one read after the face
        text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\nv 0 0 1\nf -4 -3 -1 0\nv 1 1 1\n"
        assert _parse_obj(text).faces.tolist() == [[0, 1, 2], [0, 1, 3], [0, 3, 4]]

    def test_first_bad_line_wins(self):
        text = "v 0 0\nv 0 0 x\nf 1 2\n"
        with pytest.raises(MeshParseError, match="^line 1: vertex with < 3"):
            _parse_obj(text)
        with pytest.raises(MeshParseError, match="^could not convert string to float: 'x'"):
            _parse_obj(text.replace("v 0 0\n", ""))

    @settings(max_examples=60, deadline=None)
    @given(_plain_obj(), st.data())
    def test_plain_text_takes_the_array_pass(self, plain, data):
        lines, n_vertices = plain
        text = "".join(line + "\n" for line in lines)
        assert _plain_records(text) is not None
        self.check(lines, [])
        # one line changed by a near miss: the same result or error as the
        # line-by-line parser, by whichever path
        at = data.draw(st.integers(0, len(lines) - 1))
        mutate = data.draw(st.sampled_from(sorted(_NEAR_MISSES)))
        mutated = list(lines)
        mutated[at] = _NEAR_MISSES[mutate](lines[at], n_vertices)
        self.check(mutated, [])
        self.check(lines, ["\n"] * at + ["\r\n"])

    @pytest.mark.parametrize("mutate", sorted(_NEAR_MISSES))
    def test_near_miss_line(self, mutate, tmp_path):
        mesh = ellipsoid(2)
        save_obj(mesh, tmp_path / "ellipsoid.obj")
        lines = (tmp_path / "ellipsoid.obj").read_text().splitlines()
        n = len(mesh.vertices)
        # the first and last vertex and face lines
        for at in (0, n - 1, n, len(lines) - 1):
            mutated = list(lines)
            mutated[at] = _NEAR_MISSES[mutate](lines[at], n)
            self.check(mutated, [])

    @pytest.mark.parametrize("text", [
        "v \nf 1 2 3\n",
        "v  \nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf  \n",
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf \n",
    ])
    def test_blank_records_warn_nothing(self, text, recwarn):
        self.check(text.splitlines(), [])
        assert not recwarn.list

    @pytest.mark.parametrize("index", ["1.0", "1e0", "1E0", "+1", "-1"])
    def test_face_index_with_sign_point_or_exponent_takes_the_line_parse(self, index):
        # whatever a numpy release's int64 loadtxt makes of these
        text = f"v 0 0 0\nv 1 0 0\nv 0 1 0\nf {index} 2 3\n"
        assert _plain_records(text) is None
        self.check(text.splitlines(), [])

    def test_polygons_and_relative_indices_fail_before_any_line_is_picked(self, monkeypatch):
        # the character counts turn these texts away without the row scans
        class NoScan:
            def findall(self, text):
                raise AssertionError("a row scan ran")
        monkeypatch.setattr(mesh_module, "_VERTEX_ROW", NoScan())
        monkeypatch.setattr(mesh_module, "_FACE_ROW", NoScan())
        mesh = ellipsoid(3)
        n = len(mesh.vertices)
        head = "".join(f"v {x!r} {y!r} {z!r}\n" for x, y, z in mesh.vertices.tolist())
        quads = "".join(f"f {a + 1} {b + 1} {c + 1} {c + 1}\n" for a, b, c in mesh.faces.tolist())
        relative = "".join(f"f {a - n} {b - n} {c - n}\n" for a, b, c in mesh.faces.tolist())
        assert _plain_records(head + quads) is None
        assert _plain_records(head + relative) is None

    def test_dense_mesh_text_takes_the_array_pass(self, tmp_path, monkeypatch):
        calls = []
        line_records = mesh_module._line_records
        monkeypatch.setattr(mesh_module, "_line_records",
                            lambda text: calls.append(1) or line_records(text))
        path = tmp_path / "ellipsoid.obj"
        save_obj(ellipsoid(4), path)
        text = path.read_text()
        plain = _parse_obj(text)
        assert not calls
        want = _reference_parse_obj(text)
        assert np.array_equal(plain.vertices, want.vertices)
        assert np.array_equal(plain.faces, want.faces)
        # the counter sees the line parse
        _parse_obj("# a comment\n" + text)
        assert calls

    def test_array_pass_reads_random_doubles_as_float_does(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2**64, size=30_000, dtype=np.uint64)
        # every exponent, and 200 subnormals: their exponent bits cleared
        bits[:200] &= np.uint64(0x800F_FFFF_FFFF_FFFF)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        tokens = [fmt % x for fmt in ("%r", "%.17g", "%.3e") for x in values.tolist()]
        tokens += ["0", "-0", "+1.5", ".5", "5.", "1e-400", "4.9e-324", "007"]
        tokens += ["1"] * (-len(tokens) % 3)
        rows = [" ".join(tokens[k:k + 3]) for k in range(0, len(tokens), 3)]
        text = "".join(f"v {row}\n" for row in rows) + "f 1 2 3\n"
        vertices, _ = _plain_records(text)
        want = np.array([float(tok) for tok in tokens])
        assert vertices.ravel().view(np.uint64).tolist() == want.view(np.uint64).tolist()


class TestWatertight:
    def test_closed_meshes(self, cube, tetra):
        for m in (cube, tetra, *fixtures.standard_fixtures().values()):
            assert m.edges.closed

    def test_open_mesh(self):
        m = TriMesh(np.eye(3), np.array([[0, 1, 2]]))
        assert not m.edges.closed

    def test_edge_shared_by_three_faces(self, tetra):
        # a repeated (reversed) face leaves every edge used at least twice,
        # but each edge of that face is shared by three faces
        faces = np.vstack([tetra.faces, tetra.faces[:1, ::-1]])
        m = TriMesh(tetra.vertices, faces)
        assert not m.edges.closed
        assert m.centroid_fallback


def _squashed_icosphere():
    """``icosphere(0.03, 3)`` with z scaled by 1/3."""
    sphere = fixtures.icosphere(0.03, 3)
    return TriMesh(sphere.vertices * np.array([1.0, 1.0, 1.0 / 3.0]), sphere.faces)


class TestTranslation:
    """A mesh moved far from the coordinate origin keeps its COM, its
    placement count and its placements' up-axes: mass properties are
    taken about the bounding box's middle, so the tetrahedra of the
    volume sums do not cancel."""

    @pytest.mark.parametrize("shift", [1e2, 1e3, 1e4, 1e5])
    @pytest.mark.parametrize("make", [fixtures.tall_box, _squashed_icosphere],
                             ids=["tall_box", "squashed_icosphere"])
    def test_far_copy_keeps_com_and_placements(self, make, shift):
        mesh = make()
        extent = float(np.abs(mesh.vertices - mesh.com).max())
        direction = np.array([1.0, np.sqrt(2.0), -np.pi])
        offset = shift * extent * direction / np.linalg.norm(direction)
        far = TriMesh(mesh.vertices + offset, mesh.faces)
        assert np.abs(far.com - offset - mesh.com).max() <= 1e-9 * extent
        ups = np.array([body_up_axis(p.rotation) for p in enumerate_stable(mesh)])
        far_ups = np.array([body_up_axis(p.rotation) for p in enumerate_stable(far)])
        assert len(far_ups) == len(ups) > 0
        # the same up-axes as a set: each one's nearest in the other set
        gap = np.linalg.norm(ups[:, None] - far_ups[None], axis=2)
        assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-9


class TestEquality:
    def test_equality_is_identity(self):
        m, other = fixtures.unit_cube(), fixtures.unit_cube()
        assert (m == other) is False
        assert m == m
        assert m != m.hull
        assert m in [other, m]
        assert [other, m].index(m) == 1


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

    @pytest.mark.parametrize("make", [lambda: ellipsoid(4), fixtures.l_prism])
    def test_indices_match_unique_searchsorted(self, make):
        # interior points among the hull's, so some points go unused
        rng = np.random.default_rng(3)
        pts = make().vertices
        pts = np.vstack([0.5 * pts[rng.permutation(len(pts))], pts])[rng.permutation(2 * len(pts))]
        simplices = ConvexHull(pts).simplices
        used = np.unique(simplices)
        hull = convex_hull(pts)
        assert hull.vertices.tobytes() == pts[used].tobytes()
        # qhull's triangles, up to winding and order
        want = np.sort(np.searchsorted(used, simplices), axis=1)
        got = np.sort(hull.faces, axis=1)
        assert np.array_equal(got[np.lexsort(got.T[::-1])], want[np.lexsort(want.T[::-1])])
        # canonical: each row starts at its lowest index, rows ascend
        # lexicographically, and every triangle faces outward
        f = hull.faces
        assert np.array_equal(f[:, 0], f.min(axis=1))
        assert np.array_equal(np.lexsort(f.T[::-1]), np.arange(len(f)))
        anchors = hull.vertices[f[:, 0]] - hull.vertices.mean(axis=0)
        assert (np.einsum("ij,ij->i", hull.face_normals(), anchors) > 0).all()

    def test_idempotent_volume(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(60, 3))
        h1 = convex_hull(pts)
        h2 = convex_hull(h1.vertices)
        assert h1.volume == pytest.approx(h2.volume, abs=1e-12)


# meshes that are their own convex hull
_OWN_HULLS = {
    "ellipsoid(2)": lambda: ellipsoid(2),
    "ellipsoid(3)": lambda: ellipsoid(3),
    "ellipsoid(4)": lambda: ellipsoid(4),
    "icosphere(0.05, 4)": lambda: fixtures.icosphere(0.05, 4),
    "tetrahedron": fixtures.regular_tetrahedron,
}


def _hull_bytes(hull):
    return (hull.vertices.tobytes(), hull.faces.tobytes(), hull.com.tobytes(),
            np.float64(hull.volume).tobytes())


def _assert_own_hull(mesh, own):
    """``mesh.hull`` is built from its own faces exactly when ``own``, and
    has the bytes of the qhull path either way."""
    assert (mesh_module._own_hull_faces(mesh) is not None) == own
    assert _hull_bytes(mesh.hull) == _hull_bytes(convex_hull(mesh.vertices))


def _relabelled(mesh, rng, inward):
    """``mesh`` with its face rows shuffled and each turned by a random
    step, all wound inward when ``inward``."""
    f = mesh.faces[rng.permutation(len(mesh.faces))]
    f = np.take_along_axis(f, (rng.integers(0, 3, size=(len(f), 1)) + np.arange(3)) % 3, axis=1)
    return TriMesh(mesh.vertices, f[:, [0, 2, 1]] if inward else f)


def _placement_bytes(placements):
    return [(p.rotation.tobytes(), p.translation.tobytes(), np.float64(p.stability_margin).tobytes(),
             np.float64(p.score).tobytes()) for p in placements]


def _tetra_pair(shift):
    """Two regular tetrahedra, the second moved by ``shift``."""
    t = fixtures.regular_tetrahedron()
    return TriMesh(np.vstack([t.vertices, t.vertices + shift]), np.vstack([t.faces, t.faces + 4]))


def _tetra_bowtie():
    """A regular tetrahedron and its mirror image through its vertex 0,
    which the two share."""
    t = fixtures.regular_tetrahedron()
    v = np.vstack([t.vertices, 2.0 * t.vertices[0] - t.vertices[1:]])
    # the point mirror reverses the winding
    second = np.where(t.faces == 0, 0, t.faces + 3)[:, [0, 2, 1]]
    return TriMesh(v, np.vstack([t.faces, second]))


def _creased_pyramid(depth):
    """A pyramid over the unit square whose base is folded along its
    diagonal 0-2 by lowering corner 2 by ``depth``: a convex crease."""
    v = np.array([[0, 0, 0], [1, 0, 0], [1, 1, -depth], [0, 1, 0], [0.5, 0.5, 1]], dtype=float)
    f = np.array([[0, 2, 1], [0, 3, 2], [0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    return TriMesh(v, f)


def _star_bipyramid():
    """Two apices over the pentagram through five points on a circle: every
    edge convex and V - E + F = 2, but the star of each apex winds twice
    around it."""
    k = np.arange(5)
    ring = np.column_stack([np.cos(0.4 * np.pi * k), np.sin(0.4 * np.pi * k), np.zeros(5)])
    s = np.roll(2 * k % 5, -1), 2 * k % 5
    top = np.column_stack([s[1], s[0], np.full(5, 5)])
    bottom = np.column_stack([s[0], s[1], np.full(5, 6)])
    return TriMesh(np.vstack([ring, [[0, 0, 1], [0, 0, -1]]]), np.vstack([top, bottom]))


def _dented_icosphere():
    sphere = fixtures.icosphere(0.05, 2)
    v = sphere.vertices.copy()
    v[0] *= 0.9
    return TriMesh(v, sphere.faces)


class TestOwnHull:
    """``TriMesh.hull`` takes a mesh's own faces when they are its hull."""

    @pytest.mark.parametrize("name", list(_OWN_HULLS))
    def test_same_bytes_as_qhull(self, name):
        _assert_own_hull(_OWN_HULLS[name](), True)

    @pytest.mark.parametrize("name", list(_OWN_HULLS))
    def test_relabelled_faces_keep_the_hull(self, name):
        # the input faces' order reaches the placements only through the
        # mesh's COM, whose sums run over the faces in order; so the hull is
        # compared across relabellings, and the enumeration across the two
        # hull paths
        mesh = _OWN_HULLS[name]()
        rng = np.random.default_rng(7)
        for inward in (False, True):
            other = _relabelled(mesh, rng, inward)
            _assert_own_hull(other, True)
            assert _hull_bytes(other.hull) == _hull_bytes(mesh.hull)
            qhulled = TriMesh(other.vertices, other.faces)
            qhulled.hull = convex_hull(other.vertices)
            assert _placement_bytes(enumerate_stable(other)) == _placement_bytes(
                enumerate_stable(qhulled)
            )

    @pytest.mark.parametrize("name", ["ellipsoid(2)", "ellipsoid(4)", "tetrahedron"])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
    @pytest.mark.parametrize("shift", [(0.0, 0.0, 0.0), (1e5, -1e5, 5e4), (-3e3, 2e2, 7e2)])
    def test_shift_and_scale(self, name, scale, shift):
        mesh = _OWN_HULLS[name]()
        _assert_own_hull(TriMesh(mesh.vertices * scale + np.array(shift), mesh.faces), True)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(4, 120), st.booleans())
    def test_random_convex_polytopes(self, seed, n, inward):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        hull = convex_hull(pts * rng.uniform(0.1, 3.0, size=3))
        # relabel the hull's vertices too
        perm = rng.permutation(len(hull.vertices))
        mesh = _relabelled(TriMesh(hull.vertices[perm], np.argsort(perm)[hull.faces]), rng, inward)
        _assert_own_hull(mesh, True)

    @pytest.mark.parametrize("make", [
        fixtures.unit_cube, fixtures.tall_box, fixtures.l_prism, fixtures.t_prism,
        _dented_icosphere,
        lambda: _tetra_pair(np.array([3.0, 0.0, 0.0])),
        _tetra_bowtie,
        lambda: TriMesh(fixtures.regular_tetrahedron().vertices,
                        fixtures.regular_tetrahedron().faces[1:]),
        lambda: TriMesh(fixtures.regular_tetrahedron().vertices,
                        fixtures.regular_tetrahedron().faces[[0, 1, 2]].tolist() + [[1, 2, 3]]),
        lambda: TriMesh(np.vstack([fixtures.regular_tetrahedron().vertices, np.zeros((1, 3))]),
                        fixtures.regular_tetrahedron().faces),
        lambda: _creased_pyramid(1e-10),
        _star_bipyramid,
    ], ids=["cube", "tall_box", "l_prism", "t_prism", "dented_icosphere", "disjoint_tetrahedra",
            "tetrahedra_sharing_a_vertex", "open", "one_flipped_face", "unused_vertex",
            "face_pair_within_margin", "star_wound_twice"])
    def test_declines(self, make):
        _assert_own_hull(make(), False)

    def test_crease_beyond_margin_taken(self):
        _assert_own_hull(_creased_pyramid(1e-6), True)

    def test_qhull_calls(self, monkeypatch):
        calls = []

        def counted(points, *args, **kwargs):
            calls.append(len(points))
            return ConvexHull(points, *args, **kwargs)

        def refused(points, *args, **kwargs):
            raise AssertionError("qhull called")

        monkeypatch.setattr(mesh_module, "ConvexHull", refused)
        for s in (2, 3, 4):
            assert len(ellipsoid(s).hull.faces) == len(ellipsoid(s).faces)
        monkeypatch.setattr(mesh_module, "ConvexHull", counted)
        assert len(fixtures.unit_cube().hull.faces) == 12
        assert calls == [8]


class TestOwnHullEdgeIndex:
    """The own-hull path carries the mesh's edge index to its hull."""

    @staticmethod
    def check(mesh):
        hull = mesh.hull
        assert "edges" in vars(hull)  # set with the hull, not built from its faces
        built = EdgeIndex.build(hull.faces, len(hull.vertices))
        for got, want in ((hull.edges.key, built.key), (hull.edges.partner, built.partner)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", list(_OWN_HULLS))
    def test_matches_a_build_from_the_hull_faces(self, name):
        mesh = _OWN_HULLS[name]()
        rng = np.random.default_rng(11)
        for other in (mesh, _relabelled(mesh, rng, False), _relabelled(mesh, rng, True)):
            assert mesh_module._own_hull_faces(other) is not None
            self.check(other)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_convex_polytopes(self, seed):
        rng = np.random.default_rng(900 + seed)
        pts = rng.normal(size=(int(rng.integers(4, 80)), 3))
        hull = convex_hull(pts / np.linalg.norm(pts, axis=1)[:, None])
        perm = rng.permutation(len(hull.vertices))
        mesh = TriMesh(hull.vertices[perm], np.argsort(perm)[hull.faces])
        self.check(_relabelled(mesh, rng, bool(seed % 2)))


def _reference_canonical_faces(faces):
    """Each row turned to start at its lowest index, as a computed-index
    take, and the rows in ``np.lexsort`` order."""
    rows = 3 * np.arange(len(faces))[:, None]
    turned = faces.take(rows + (faces.argmin(axis=1)[:, None] + np.arange(3)) % 3)
    return turned[np.lexsort(turned.T[::-1])]


class TestCanonicalFaces:
    @staticmethod
    def check(faces, n):
        got, turn, order = _canonical_faces(faces, n)
        want = _reference_canonical_faces(faces)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
        # canonical row i is row order[i] read from column turn[order[i]] on
        columns = (turn[order][:, None] + np.arange(3)) % 3
        assert np.array_equal(got, np.take_along_axis(faces[order], columns, axis=1))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_rows(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        self.check(rng.integers(0, n, size=(int(rng.integers(0, 300)), 3)), n)

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_sharing_a_first_edge(self, seed):
        # few distinct first edges, each row turned at random and some
        # repeated whole, so the first-edge key ties often
        rng = np.random.default_rng(40 + seed)
        n = 9
        first = rng.integers(0, 3, size=(200, 1)) + np.array([0, 3])
        rows = np.column_stack([first, rng.integers(0, n, size=200)])
        rows = np.vstack([rows, rows[:40]])
        turns = (rng.integers(0, 3, size=(len(rows), 1)) + np.arange(3)) % 3
        self.check(np.take_along_axis(rows, turns, axis=1), n)

    @pytest.mark.parametrize("seed", range(4))
    def test_qhull_outputs(self, seed):
        rng = np.random.default_rng(60 + seed)
        pts = rng.normal(size=(int(rng.integers(4, 200)), 3))
        simplices = ConvexHull(pts).simplices
        self.check(simplices, len(pts))
        self.check(simplices[:, [0, 2, 1]], len(pts))

    def test_closed_wound_surface_takes_one_sort(self, monkeypatch):
        faces = ellipsoid(3).faces

        def refused(*args, **kwargs):
            raise AssertionError("lexsort called")

        monkeypatch.setattr(np, "lexsort", refused)
        got = _canonical_faces(faces, faces.max() + 1)[0]
        monkeypatch.undo()
        assert got.tobytes() == _reference_canonical_faces(faces).tobytes()


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

    @pytest.mark.parametrize("angle_tol", [-1.0, np.pi / 2, 1.6, 3.0, np.nan])
    def test_angle_tol_outside_quarter_turn_rejected(self, tetra, angle_tol):
        # at 2.0 and 3.0 a group's area-weighted normals used to cancel,
        # and a negative value acted as its absolute value
        with pytest.raises(ValueError, match="angle_tol"):
            merge_coplanar_facets(convex_hull(tetra.vertices), angle_tol)

    def test_open_surface_rejected(self, tetra):
        # without a partner across every edge, faces have no adjacency
        open_tetra = TriMesh(tetra.vertices, tetra.faces[1:])
        with pytest.raises(ValueError, match="closed surface"):
            merge_coplanar_facets(open_tetra, 1e-6)

    def test_prism_cap_merging(self):
        # 32-gon prism: cap triangles merge, side normals differ by
        # 2*pi/32 ~ 0.196 > 0.1 so the 32 side rectangles stay separate
        hull = ngon_prism(32)
        facets = merge_coplanar_facets(hull, 0.1)
        assert len(facets) == 2 + 32

    def test_facet_areas_sum_to_hull_area(self, cube, tetra):
        for mesh in (cube, tetra):
            hull = convex_hull(mesh.vertices)
            facets = merge_coplanar_facets(hull, 1e-6)
            assert sum(f.area for f in facets) == pytest.approx(
                hull.face_areas().sum(), abs=1e-9
            )

    @pytest.mark.parametrize(
        "name",
        [*fixtures.standard_fixtures(), "wedge", "prism32", "arc", "ellipsoid_s2",
         "blob"],
    )
    def test_matches_reference_bytes(self, name):
        hull = _reference_meshes()[name].hull
        for angle_tol in (0.0, 1e-6, 1e-4, 0.1, 1.0, 1.5):
            assert _facet_bytes(merge_coplanar_facets(hull, angle_tol)) == _facet_bytes(
                _reference_merge_coplanar_facets(hull, angle_tol)
            ), angle_tol

    def test_drifting_surface_groups_by_seed(self):
        # adjacent arc strips turn by 0.6 * angle_tol: every strip is
        # within angle_tol of its neighbours, so pairwise connected
        # components would make the whole arc one facet; grouping by the
        # seed's normal splits it into several
        angle_tol = 1e-4
        hull = drifting_arc(0.6 * angle_tol)
        facets = merge_coplanar_facets(hull, angle_tol)
        assert _facet_bytes(facets) == _facet_bytes(
            _reference_merge_coplanar_facets(hull, angle_tol)
        )
        normals = hull.face_normals()
        edges = np.sort(hull.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        _, edge_id = np.unique(edges, axis=0, return_inverse=True)
        face_of = np.argsort(edge_id.ravel(), kind="stable") // 3
        a, b = face_of[0::2], face_of[1::2]
        near = np.einsum("ij,ij->i", normals[a], normals[b]) > np.cos(angle_tol)
        n_faces = len(hull.faces)
        graph = coo_matrix(
            (np.ones(near.sum()), (a[near], b[near])), shape=(n_faces, n_faces)
        )
        n_components, _ = connected_components(graph, directed=False)
        assert n_components == 6  # arc, two sides, bottom, two ends
        assert len(facets) > n_components


def _reference_meshes():
    meshes = dict(fixtures.standard_fixtures())
    meshes.update(
        wedge=sheared_wedge(),
        prism32=ngon_prism(32),
        arc=drifting_arc(0.6e-4),
        ellipsoid_s2=ellipsoid(2),
        # at angle_tol 1.0 a facet of this hull takes in a face only through
        # a neighbour between angle_tol and 2 * angle_tol away from it
        blob=convex_hull(np.random.default_rng(54).normal(size=(60, 3))),
    )
    return meshes


def _facet_bytes(facets) -> list[bytes]:
    return [
        f.vertex_indices.tobytes() + f.polygon.tobytes() + f.normal.tobytes()
        + np.float64(f.area).tobytes()
        for f in facets
    ]


def _reference_merge_coplanar_facets(hull, angle_tol):
    """Facet merging as a plain loop: dict adjacency over shared edges and
    a search from every unvisited face over every face."""
    from scipy.spatial import QhullError

    from stableplace.mesh import Facet
    from stableplace.rotations import _any_perpendicular

    normals = hull.face_normals()
    areas = hull.face_areas()
    edge_to_faces = {}
    for fi, tri in enumerate(hull.faces):
        for i in range(3):
            e = (min(tri[i], tri[(i + 1) % 3]), max(tri[i], tri[(i + 1) % 3]))
            edge_to_faces.setdefault(e, []).append(fi)
    adj = {i: [] for i in range(len(hull.faces))}
    for fs in edge_to_faces.values():
        for i in fs:
            for j in fs:
                if i != j:
                    adj[i].append(j)
    cos_tol = np.cos(angle_tol)
    seen = np.zeros(len(hull.faces), dtype=bool)
    facets = []
    for seed in range(len(hull.faces)):
        if seen[seed]:
            continue
        group = [seed]
        seen[seed] = True
        queue = [seed]
        while queue:
            cur = queue.pop()
            for nb in adj[cur]:
                if not seen[nb] and np.dot(normals[seed], normals[nb]) > cos_tol:
                    seen[nb] = True
                    group.append(nb)
                    queue.append(nb)
        w = areas[group]
        n = (w[:, None] * normals[group]).sum(axis=0)
        n /= np.linalg.norm(n)
        vidx = np.unique(hull.faces[group])
        pts = hull.vertices[vidx]
        e1 = _any_perpendicular(n)
        e2 = np.cross(n, e1)
        uv = np.column_stack([pts @ e1, pts @ e2])
        try:
            order = ConvexHull(uv).vertices
        except QhullError:
            # nearly-degenerate facet: order along the dominant axis
            d = uv - uv.mean(axis=0)
            order = np.argsort(d @ d[np.argmax(np.linalg.norm(d, axis=1))])
        facets.append(Facet(vidx[order], pts[order], n, float(w.sum())))
    return facets


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

    @pytest.mark.parametrize("name", ["cube", "tetrahedron", "l_prism", "t_prism"])
    def test_matches_choice_reference_bit_for_bit(self, name):
        # the face draw through Generator.choice and the corners read per
        # sample, as the sampler was first written
        mesh = fixtures.standard_fixtures()[name]
        for seed in range(5):
            rng = np.random.default_rng(seed)
            areas = mesh.face_areas()
            fi = rng.choice(len(mesh.faces), size=333, p=areas / areas.sum())
            u, v = rng.random(333), rng.random(333)
            flip = u + v > 1.0
            u[flip], v[flip] = 1.0 - u[flip], 1.0 - v[flip]
            tri = mesh.vertices[mesh.faces[fi]]
            want = (tri[:, 0] + u[:, None] * (tri[:, 1] - tri[:, 0])
                    + v[:, None] * (tri[:, 2] - tri[:, 0]))
            assert sample_point_cloud(mesh, 333, seed).tobytes() == want.tobytes()


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
            u = v / np.linalg.norm(v)
            assert r.tobytes() == _reference_rotation_between(u, [0.0, 0.0, 1.0]).tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("v", [[1e200, 1e200, 0.0], [0.0, -1e300, 1e300],
                                   [1.7e308, -1.7e308, 1.7e308], [0.0, 0.0, -1e300]])
    def test_finite_vector_whose_norm_overflows(self, v):
        r = plane_align_rotation(v)
        assert np.isfinite(r).all()
        u = np.array(v) / np.abs(v).max()
        assert np.allclose(r @ (u / np.linalg.norm(u)), [0.0, 0.0, 1.0], atol=1e-12)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite plane vector"):
            plane_align_rotation([bad, 0.0, 1.0])


class TestApplyRefinementTransform:
    def test_non_finite_plane_vector_rejected(self):
        with pytest.raises(ValueError, match=r"non-finite plane vector \[inf, 0.0, 1.0\]"):
            apply_refinement_transform(np.zeros((2, 3)), np.array([np.inf, 0.0, 1.0]))

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
