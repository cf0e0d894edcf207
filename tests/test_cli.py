import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from stableplace import cli, fixtures, metrics, placements
from stableplace.cli import GripperConfig, InputError, RunConfig, main
from stableplace.mesh import TriMesh, save_obj
from stableplace.placements import DatasetResult
from stableplace.rotations import PolyCoeffs, random_rotation

IDENTITY = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]

# Any JSON value, nested a little.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
ROTATION = st.integers(0, 2**32 - 1).map(
    lambda seed: random_rotation(np.random.default_rng(seed)).ravel().tolist()
)


@pytest.fixture(scope="module")
def mesh_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("meshes")
    for name, mesh in fixtures.standard_fixtures().items():
        save_obj(mesh, d / f"{name}.obj")
    return d


@pytest.fixture()
def runner():
    return CliRunner()


class TestEnumerate:
    def test_cube_six_records(self, runner, mesh_dir):
        result = runner.invoke(main, ["enumerate", str(mesh_dir / "cube.obj")])
        assert result.exit_code == 0
        records = json.loads(result.output)
        assert len(records) == 6
        assert all(abs(r["stability_margin"] - 0.5) < 1e-9 for r in records)

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_margin_eps_exit_2(self, runner, mesh_dir, value):
        # a NaN margin_eps kept unstable facets
        result = runner.invoke(
            main, ["enumerate", str(mesh_dir / "cube.obj"), "--margin-eps", value]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "--margin-eps" in result.stderr

    @pytest.mark.parametrize("value, code", [
        ("nan", 2), ("2", 2), ("-0.5", 2), ("inf", 2), ("0", 0), ("1", 0),
    ])
    def test_score_threshold_must_lie_in_unit_interval(self, runner, mesh_dir, value, code):
        # nan and 2 printed [] and exited 0, where the pipeline config rejects them
        result = runner.invoke(
            main, ["enumerate", str(mesh_dir / "cube.obj"), "--score-threshold", value]
        )
        assert result.exit_code == code
        if code:
            assert isinstance(result.exception, SystemExit)  # no traceback
            assert f"--score-threshold must lie in [0, 1], got {float(value)}" in result.stderr
        else:
            assert all(r["score"] >= float(value) for r in json.loads(result.output))

    def test_unwritable_output_exit_2(self, runner, mesh_dir, tmp_path):
        output = tmp_path / "missing" / "out.json"
        result = runner.invoke(main, ["enumerate", str(mesh_dir / "cube.obj"), "-o", str(output)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert f"cannot write {output}" in result.stderr

    def test_large_margin_eps_empty(self, runner, mesh_dir):
        result = runner.invoke(
            main, ["enumerate", str(mesh_dir / "cube.obj"), "--margin-eps", "0.6"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output) == []

    def test_missing_file_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["enumerate", str(tmp_path / "nope.obj")])
        assert result.exit_code == 2
        assert str(tmp_path / "nope.obj") in result.stderr

    def test_directory_exit_2(self, runner, tmp_path):
        # reading a directory used to end in an IsADirectoryError traceback
        result = runner.invoke(main, ["enumerate", str(tmp_path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert str(tmp_path) in result.stderr

    def test_garbage_file_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.obj"
        bad.write_text("v 1 2 zzz\nf 1 2 3\n")
        result = runner.invoke(main, ["enumerate", str(bad)])
        assert result.exit_code == 2
        assert str(bad) in result.stderr

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_vertex_exit_2(self, runner, tmp_path, value):
        bad = tmp_path / "nonfinite.obj"
        bad.write_text(f"v {value} 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
                       "f 1 2 3\nf 1 2 4\nf 1 3 4\nf 2 3 4\n")
        result = runner.invoke(main, ["enumerate", str(bad)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback

    def test_flat_mesh_exit_3(self, runner, tmp_path):
        flat = tmp_path / "flat.obj"
        flat.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        result = runner.invoke(main, ["enumerate", str(flat)])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert f"mesh {flat}: need at least 4 points" in result.stderr

    def test_zero_area_mesh_exit_3(self, runner, tmp_path):
        # the mass pass runs on first read, which load_mesh makes while
        # loading, so the message names the file
        line = tmp_path / "line.obj"
        line.write_text("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n")
        result = runner.invoke(main, ["enumerate", str(line)])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert f"error: mesh {line}: mesh has zero surface area" in result.stderr

    def test_huge_coordinates_exit_3_one_line(self, tmp_path):
        # the mass properties overflowed with two numpy warnings on stderr;
        # a separate process shows the warnings pytest would capture
        huge = tmp_path / "huge.obj"
        huge.write_text(
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1e308\nv 1 1 1\n"
            "f 1 2 3\nf 1 2 4\nf 1 3 4\nf 2 3 4\nf 2 3 5\n"
        )
        result = _run_python("-m", "stableplace.cli", "enumerate", str(huge))
        assert result.returncode == 3
        assert result.stderr.splitlines() == [
            f"error: mesh {huge}: area, volume or centre of mass overflows: "
            "coordinates too large"
        ]

    def test_coplanar_mesh_names_path_exit_3(self, runner, tmp_path):
        flat = tmp_path / "square.obj"
        flat.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3\nf 1 3 4\n")
        result = runner.invoke(main, ["enumerate", str(flat)])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)  # no traceback
        # the path and qhull's first line only, not its option dump
        assert result.stderr.startswith(f"error: mesh {flat}: QH")
        assert len(result.stderr.splitlines()) == 1


class TestSettle:
    def test_seeded_settle_outputs_pose(self, runner, mesh_dir):
        result = runner.invoke(main, ["settle", str(mesh_dir / "cube.obj"), "--seed", "3"])
        assert result.exit_code == 0
        pose = json.loads(result.output)
        assert len(pose["rotation"]) == 9
        assert pose["translation"][2] == pytest.approx(0.5, abs=1e-9)

    def test_explicit_rotation(self, runner, mesh_dir):
        result = runner.invoke(
            main,
            ["settle", str(mesh_dir / "cube.obj"), "--rotation", "1,0,0,0,1,0,0,0,1"],
        )
        assert result.exit_code == 0
        pose = json.loads(result.output)
        assert np.allclose(np.array(pose["rotation"]).reshape(3, 3), np.eye(3))

    def test_bad_rotation_exit_2(self, runner, mesh_dir):
        for rotation in [
            "1,0,0",                # too few values
            "a,b,c,d,e,f,g,h,i",    # not numbers
            "2,0,0,0,2,0,0,0,2",    # scaled, not orthonormal
            "1,0,0,0,1,0,0,0,-1",   # reflection, determinant -1
            "nan,0,0,0,1,0,0,0,1",  # not finite
        ]:
            result = runner.invoke(
                main, ["settle", str(mesh_dir / "cube.obj"), "--rotation", rotation]
            )
            assert result.exit_code == 2, rotation
            assert isinstance(result.exception, SystemExit), rotation  # no traceback

    def test_negative_seed_exit_2(self, runner, mesh_dir):
        result = runner.invoke(main, ["settle", str(mesh_dir / "cube.obj"), "--seed", "-1"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback

    def test_margin_eps_out_of_reach_exit_3(self, runner, tmp_path):
        # a cube of side 1e-4 has facet margins of 5e-5, below the default
        # margin_eps, so every drop tips until max_tips
        cube = fixtures.unit_cube()
        path = tmp_path / "tiny_cube.obj"
        save_obj(TriMesh(cube.vertices * 1e-4, cube.faces), path)
        result = runner.invoke(main, ["settle", str(path), "--seed", "3"])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert ("settle diverged: exceeded max_tips=200: no hull facet reaches "
                "margin_eps=0.0001; the largest facet margin is 5e-05") in result.stderr

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        st.text(max_size=40),
        st.lists(st.floats() | st.integers(), max_size=11).map(
            lambda xs: ",".join(map(str, xs))
        ),
        ROTATION.map(lambda r: ",".join(map(repr, r))),
    ))
    def test_rotation_fuzz_exit_0_or_2(self, mesh_dir, rotation):
        result = CliRunner().invoke(
            main, ["settle", str(mesh_dir / "cube.obj"), f"--rotation={rotation}"]
        )
        assert result.exit_code in (0, 2), (rotation, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit)


class TestDatasetAndCluster:
    def test_dataset_line_count_and_worker_independence(self, runner, mesh_dir, tmp_path):
        args = ["dataset", str(mesh_dir / "cube.obj"), "--drops", "20", "--seed", "5"]
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        r1 = runner.invoke(main, args + ["--workers", "1", "-o", str(out1)])
        r2 = runner.invoke(main, args + ["--workers", "4", "-o", str(out2)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().splitlines()) == 20

    def test_every_drop_diverged_exit_3(self, runner, tmp_path):
        # a cube of side 1e-4 diverges on every drop; this exited 0 and
        # wrote an empty dataset
        cube = fixtures.unit_cube()
        path = tmp_path / "tiny_cube.obj"
        save_obj(TriMesh(cube.vertices * 1e-4, cube.faces), path)
        out = tmp_path / "ds.jsonl"
        r = runner.invoke(main, ["dataset", str(path), "--drops", "5", "--workers", "1",
                                 "-o", str(out)])
        assert r.exit_code == 3
        assert isinstance(r.exception, SystemExit)  # no traceback
        assert "tiny_cube: 5 diverged drops skipped" in r.stderr
        assert "settle diverged: no drop of tiny_cube settled" in r.stderr
        assert not out.exists()

    def test_cluster_cube_six_modes(self, runner, mesh_dir, tmp_path):
        ds = tmp_path / "cube.jsonl"
        r = runner.invoke(
            main,
            ["dataset", str(mesh_dir / "cube.obj"), "--drops", "200", "--seed", "1",
             "-o", str(ds)],
        )
        assert r.exit_code == 0
        r = runner.invoke(main, ["cluster", str(ds)])
        assert r.exit_code == 0
        model = json.loads(r.output)
        assert len(model["modes"]) == 6
        for bandwidth in ["0", "-5", "nan", "inf", "1e-323"]:
            r = runner.invoke(main, ["cluster", str(ds), "--bandwidth-deg", bandwidth])
            assert r.exit_code == 2, bandwidth
            assert isinstance(r.exception, SystemExit), bandwidth  # no traceback
            # the message used to give the bandwidth in radians
            assert r.stderr == (f"error: --bandwidth-deg must be finite and positive, "
                                f"got {float(bandwidth)}\n"), bandwidth
        # a window that holds not even its own seed used to crash
        r = runner.invoke(main, ["cluster", str(ds), "--bandwidth-deg", "1e-300"])
        assert r.exit_code == 0
        assert len(json.loads(r.output)["modes"]) >= 6

    def test_mixed_dataset_needs_object_id(self, runner, mesh_dir, tmp_path):
        ds = tmp_path / "mixed.jsonl"
        r = runner.invoke(
            main,
            ["dataset", str(mesh_dir / "cube.obj"), str(mesh_dir / "tetrahedron.obj"),
             "--drops", "40", "--seed", "1", "-o", str(ds)],
        )
        assert r.exit_code == 0
        assert runner.invoke(main, ["cluster", str(ds)]).exit_code == 2
        r = runner.invoke(main, ["cluster", str(ds), "--object-id", "tetrahedron"])
        assert r.exit_code == 0
        assert len(json.loads(r.output)["modes"]) == 4

    def test_repeated_mesh_stems_exit_2(self, runner, mesh_dir, tmp_path, monkeypatch):
        # two meshes whose files share a stem used to share one object_id
        for d, name in [("a", "cube"), ("b", "tall_box")]:
            (tmp_path / d).mkdir()
            (tmp_path / d / "cube.obj").write_bytes((mesh_dir / f"{name}.obj").read_bytes())
        monkeypatch.setattr(cli, "generate_dataset", None)  # no drop may run
        ds = tmp_path / "ds.jsonl"
        r = runner.invoke(
            main,
            ["dataset", str(tmp_path / "a" / "cube.obj"), str(tmp_path / "b" / "cube.obj"),
             "--drops", "3", "--workers", "1", "-o", str(ds)],
        )
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)  # no traceback
        assert "mesh file stems repeat" in r.stderr
        assert not ds.exists()

    @pytest.mark.parametrize("field", ["rotation", "unstable_rotation"])
    @pytest.mark.parametrize("bad", [[2, 0, 0, 0, 2, 0, 0, 0, 2], [float("nan")] * 9])
    def test_bad_rotation_row_exit_2(self, runner, mesh_dir, tmp_path, field, bad):
        ds = tmp_path / "cube.jsonl"
        r = runner.invoke(
            main,
            ["dataset", str(mesh_dir / "cube.obj"), "--drops", "5", "--seed", "1",
             "--workers", "1", "-o", str(ds)],
        )
        assert r.exit_code == 0
        rows = [json.loads(line) for line in ds.read_text().splitlines()]
        rows[3][field] = bad
        ds.write_text("".join(json.dumps(row) + "\n" for row in rows))
        r = runner.invoke(main, ["cluster", str(ds)])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)  # no traceback
        assert f": {field} " in r.stderr

    @pytest.mark.parametrize("field, value", [
        ("contact_points", [[0.0, 0.0, 0.0]]),
        ("contact_points", [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, float("nan"), 0.0]]),
        ("v_gt", [1.0, 2.0]),
        ("v_gt", [float("nan")] * 3),
        ("score", True),
        ("stability_margin", float("nan")),
        # numeric strings and booleans in arrays, which cluster took
        ("contact_points", [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, "1", 0.0]]),
        ("v_gt", [0.0, 0.0, True]),
        ("unstable_rotation", ["1", 0, 0, 0, 1, 0, 0, 0, 1]),
    ])
    def test_bad_record_field_exit_2(self, runner, mesh_dir, tmp_path, field, value):
        # cluster took each of these rows
        ds = tmp_path / "cube.jsonl"
        r = runner.invoke(
            main,
            ["dataset", str(mesh_dir / "cube.obj"), "--drops", "5", "--seed", "1",
             "--workers", "1", "-o", str(ds)],
        )
        assert r.exit_code == 0
        rows = [json.loads(line) for line in ds.read_text().splitlines()]
        assert all("v_gt" in row for row in rows)
        rows[2][field] = value
        ds.write_text("".join(json.dumps(row) + "\n" for row in rows))
        r = runner.invoke(main, ["cluster", str(ds)])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)  # no traceback
        assert f"{field} must be" in r.stderr

    @pytest.mark.parametrize("line", ["[1]", '"row"', "object_id"])
    def test_malformed_line_exit_2(self, runner, mesh_dir, tmp_path, line):
        # a row that is not a JSON object ended in a TypeError traceback
        ds = tmp_path / "cube.jsonl"
        r = runner.invoke(
            main,
            ["dataset", str(mesh_dir / "cube.obj"), "--drops", "3", "--seed", "1",
             "--workers", "1", "-o", str(ds)],
        )
        assert r.exit_code == 0
        if line == "object_id":  # a well-formed row whose object_id is a list
            row = json.loads(ds.read_text().splitlines()[0])
            line = json.dumps(dict(row, object_id=[1]))
        ds.write_text(ds.read_text() + line + "\n")
        r = runner.invoke(main, ["cluster", str(ds)])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)  # no traceback
        assert str(ds) in r.stderr
        if not line.startswith("{"):  # the message says what was expected
            assert f"record must be a JSON object, got {json.loads(line)!r}" in r.stderr

    @settings(max_examples=60, deadline=None)
    @given(st.data(), JSON)
    def test_record_fuzz_exit_0_or_2(self, tmp_path_factory, cube_rows, data, value):
        rows = [dict(row) for row in cube_rows]
        row = data.draw(st.sampled_from(rows))
        row[data.draw(st.sampled_from(sorted(row)))] = value
        ds = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
        ds.write_text("".join(json.dumps(row) + "\n" for row in rows))
        r = CliRunner().invoke(main, ["cluster", str(ds)])
        assert r.exit_code in (0, 2), (row, r.output)
        assert r.exception is None or isinstance(r.exception, SystemExit)


@pytest.fixture(scope="module")
def cube_rows(mesh_dir, tmp_path_factory):
    """The rows of a five-drop cube dataset."""
    ds = tmp_path_factory.mktemp("rows") / "cube.jsonl"
    r = CliRunner().invoke(
        main,
        ["dataset", str(mesh_dir / "cube.obj"), "--drops", "5", "--seed", "1",
         "--workers", "1", "-o", str(ds)],
    )
    assert r.exit_code == 0
    return [json.loads(line) for line in ds.read_text().splitlines()]


class TestEvaluate:
    def test_fixed_point_report(self, runner, mesh_dir, tmp_path):
        cube = str(mesh_dir / "cube.obj")
        ds, model, preds, report = (
            tmp_path / "d.jsonl", tmp_path / "m.json", tmp_path / "p.json",
            tmp_path / "r.json",
        )
        assert runner.invoke(
            main, ["dataset", cube, "--drops", "100", "--seed", "2", "-o", str(ds)]
        ).exit_code == 0
        assert runner.invoke(
            main, ["cluster", str(ds), "-o", str(model)]
        ).exit_code == 0
        assert runner.invoke(main, ["enumerate", cube, "-o", str(preds)]).exit_code == 0
        r = runner.invoke(
            main,
            ["evaluate", cube, "--predictions", str(preds), "--model", str(model),
             "-o", str(report)],
        )
        assert r.exit_code == 0
        assert "accuracy" in r.output and "average" in r.output
        d = json.loads(report.read_text())
        assert d["average_accuracy"] == 1.0
        assert d["objects"][0]["diversity"] == 1.0
        for flag, value in [("--max-delta-d", "nan"), ("--max-delta-d", "inf"),
                            ("--max-delta-d", "0"), ("--max-delta-h", "nan")]:
            r = runner.invoke(
                main,
                ["evaluate", cube, "--predictions", str(preds), "--model", str(model),
                 flag, value],
            )
            assert r.exit_code == 2, (flag, value)
            assert isinstance(r.exception, SystemExit), (flag, value)

    @pytest.mark.parametrize("target", ["prediction", "model mode"])
    @pytest.mark.parametrize("bad", [[2, 0, 0, 0, 2, 0, 0, 0, 2], [float("nan")] * 9])
    def test_bad_rotation_exit_2(self, runner, mesh_dir, tmp_path, target, bad):
        identity = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
        pred = {"rotation": identity, "translation": [0.0, 0.0, 0.5]}
        model = {"bandwidth": 0.26, "assign_threshold": 0.26, "modes": [identity]}
        if target == "prediction":
            pred["rotation"] = bad
        else:
            model["modes"].append(bad)
        preds_path, model_path = tmp_path / "p.json", tmp_path / "m.json"
        preds_path.write_text(json.dumps([pred]))
        model_path.write_text(json.dumps(model))
        r = runner.invoke(
            main,
            ["evaluate", str(mesh_dir / "cube.obj"), "--predictions", str(preds_path),
             "--model", str(model_path)],
        )
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)  # no traceback
        assert f": {'rotation' if target == 'prediction' else 'modes'} " in r.stderr

    @pytest.mark.parametrize("predictions, model", [
        ({"a": 1}, None),
        ([[1, 2]], None),
        ([{"rotation": IDENTITY, "translation": [0.0, 0.5]}], None),
        (None, {"bandwidth": 0.26, "assign_threshold": 0.26, "modes": 3}),
        (None, {"bandwidth": 0.26, "assign_threshold": 0.26, "modes": []}),
        # angles mean_shift_orientations would reject, which evaluate took
        *[(None, {"bandwidth": 0.26, "assign_threshold": 0.26, name: value})
          for name, values in [("bandwidth", [-1, 0, float("nan"), float("inf"), True]),
                               ("assign_threshold", [-1, float("nan"), float("inf"), True])]
          for value in values],
        # prediction fields that are not what the program writes, which
        # evaluate took
        *[([{"rotation": IDENTITY, "translation": [0, 0, 0.5], name: value}], None)
          for name, values in [("score", [True, "0.5", float("inf")]),
                               ("stability_margin", [float("nan"), True]),
                               ("type_id", ["x", True, 1.5])]
          for value in values],
        # a missing field, numeric strings and booleans in arrays, and an int
        # beyond float range, which evaluate took or named no field for
        ([{"rotation": IDENTITY}], None),
        ([{"rotation": IDENTITY, "translation": ["0", "0", "0.5"]}], None),
        ([{"rotation": [True, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, 0.5]}], None),
        (None, {"modes": [IDENTITY, ["1", "0", "0", "0", "0", "-1", "0", "1", "0"]]}),
        (None, {"bandwidth": 10**400}),
    ])
    def test_malformed_inputs_exit_2(self, runner, mesh_dir, tmp_path, predictions, model):
        # each ended in a TypeError, IndexError or ValueError traceback, or
        # was accepted
        prediction = {"rotation": IDENTITY, "translation": [0, 0, 0.5]}
        good_model = {"bandwidth": 0.26, "assign_threshold": 0.26,
                      "modes": [IDENTITY, [1, 0, 0, 0, 0, -1, 0, 1, 0]]}
        predictions = predictions or [prediction]
        model = {**good_model, **(model or {})}
        r = _evaluate(mesh_dir, tmp_path, json.dumps(predictions), json.dumps(model))
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)  # no traceback
        for name in ("bandwidth", "assign_threshold"):
            if model[name] != 0.26:
                assert f"{name} must be a finite number" in r.stderr
        # the message names each field that differs from a well-formed file
        changed = [name for name in good_model
                   if json.dumps(model[name]) != json.dumps(good_model[name])]
        if isinstance(predictions, list) and isinstance(predictions[0], dict):
            first = predictions[0]
            changed += [name for name in {*prediction, *first}
                        if json.dumps(first.get(name)) != json.dumps(prediction.get(name))]
        for name in changed:
            assert f"{name} must be" in r.stderr or f"missing field '{name}'" in r.stderr

    @pytest.mark.parametrize("predictions, model, message", [
        ([[1, 2]], None, "placement must be a JSON object, got [1, 2]"),
        ([{"rotation": IDENTITY, "translation": [0, 0, 0.5]}, 3], None,
         "placement must be a JSON object, got 3"),
        (None, [1, 2], "model must be a JSON object, got [1, 2]"),
        (None, "model", "model must be a JSON object, got 'model'"),
    ])
    def test_non_object_names_what_was_expected(self, mesh_dir, tmp_path, predictions,
                                                model, message):
        # Python's own message named neither the field nor an object
        prediction = {"rotation": IDENTITY, "translation": [0, 0, 0.5]}
        good_model = {"bandwidth": 0.26, "assign_threshold": 0.26,
                      "modes": [IDENTITY, [1, 0, 0, 0, 0, -1, 0, 1, 0]]}
        r = _evaluate(mesh_dir, tmp_path, json.dumps(predictions or [prediction]),
                      json.dumps(model or good_model))
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)  # no traceback
        assert message in r.stderr

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            JSON,
            st.lists(JSON | st.fixed_dictionaries(
                {"rotation": JSON | ROTATION, "translation": JSON | st.lists(
                    st.floats(), min_size=3, max_size=3)},
                optional={"score": JSON, "stability_margin": JSON, "type_id": JSON},
            ), max_size=3),
        ).map(json.dumps) | st.text(max_size=10),
        st.one_of(
            JSON,
            st.fixed_dictionaries({
                "modes": JSON | st.lists(JSON | ROTATION, max_size=4),
                "bandwidth": JSON, "assign_threshold": JSON,
            }),
        ).map(json.dumps),
    )
    def test_input_fuzz_documented_exit(self, mesh_dir, tmp_path_factory, predictions,
                                        model):
        # 4 is the documented exit for a model with fewer than two types
        r = _evaluate(mesh_dir, tmp_path_factory.getbasetemp(), predictions, model)
        assert r.exit_code in (0, 2, 4), (predictions, model, r.output)
        assert r.exception is None or isinstance(r.exception, SystemExit)


def _evaluate(mesh_dir, directory, predictions: str, model: str):
    """``stableplace evaluate`` on the cube with the given file texts."""
    preds_path, model_path = directory / "p.json", directory / "m.json"
    preds_path.write_text(predictions)
    model_path.write_text(model)
    return CliRunner().invoke(
        main,
        ["evaluate", str(mesh_dir / "cube.obj"), "--predictions", str(preds_path),
         "--model", str(model_path)],
    )


class TestPlan:
    def test_cube_plan(self, runner, mesh_dir):
        r = runner.invoke(
            main,
            ["plan", str(mesh_dir / "cube.obj"), "--start", "0", "--goal", "3",
             "--max-width", "120", "--grasp-samples", "50"],
        )
        assert r.exit_code == 0
        d = json.loads(r.output)
        assert len(d["steps"]) >= 1
        assert d["steps"][0]["from_type"] == 0
        assert d["steps"][-1]["to_type"] == 3

    def test_bad_indices_exit_2(self, runner, mesh_dir):
        r = runner.invoke(
            main, ["plan", str(mesh_dir / "cube.obj"), "--start", "0", "--goal", "99"]
        )
        assert r.exit_code == 2

    def test_unreachable_goal_nonzero(self, runner, mesh_dir):
        # gripper far too small to hold the cube: no grasps, no edges
        r = runner.invoke(
            main,
            ["plan", str(mesh_dir / "cube.obj"), "--start", "0", "--goal", "1",
             "--max-width", "8"],
        )
        assert r.exit_code == 1

    def test_no_stable_placement_exit_2(self, runner, tmp_path):
        # the cube's margins are 5e-6 at this scale, below margin_eps; this
        # used to exit 2 on the start/goal range [0, -1]
        cube = fixtures.unit_cube()
        path = tmp_path / "tiny_cube.obj"
        save_obj(TriMesh(cube.vertices * 1e-5, cube.faces), path)
        r = runner.invoke(main, ["plan", str(path), "--start", "0", "--goal", "1"])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)  # no traceback
        assert f"{path}: no placement with margin >= 0.0001" in r.stderr

    @pytest.mark.parametrize("flag, value", [
        ("--max-width", "nan"), ("--max-width", "-1"), ("--plane-clearance", "nan"),
        ("--grasp-samples", "0"), ("--seed", "-1"),
        ("--max-width", "inf"), ("--plane-clearance", "inf"),
    ])
    def test_bad_option_exit_2(self, runner, mesh_dir, flag, value):
        # NaN widths planned and found no path, an infinite width planned
        # and an infinite clearance found no path; the others raised
        # tracebacks
        r = runner.invoke(
            main,
            ["plan", str(mesh_dir / "cube.obj"), "--start", "0", "--goal", "1",
             flag, value],
        )
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)  # no traceback


class TestFitPoly:
    def test_default_fit(self, runner):
        r = runner.invoke(main, ["fitpoly"])
        assert r.exit_code == 0
        d = json.loads(r.output)
        assert len(d["coefficients"]) == 10
        assert d["max_fit_error"] > 0
        # the full surrogate is exactly zero at trace 3 by construction
        coeffs = PolyCoeffs(a=np.array(d["coefficients"]),
                            max_fit_error=d["max_fit_error"])
        assert coeffs.value(3.0) == 0.0

    def test_too_few_samples_exit_2(self, runner):
        assert runner.invoke(main, ["fitpoly", "--samples", "50"]).exit_code == 2


class TestPipeline:
    def write_config(self, tmp_path, mesh_dir, out_name, **overrides):
        cfg = {
            "mesh_paths": [str(mesh_dir / "cube.obj")],
            "seed": 7,
            "drops_per_object": 40,
            "output_dir": str(tmp_path / out_name),
            "plan_object": "cube",
            "plan_start": 0,
            "plan_goal": 1,
            "gripper": {"max_width_cm": 120.0},
        }
        cfg.update(overrides)
        path = tmp_path / f"{out_name}.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_reruns_byte_identical(self, runner, mesh_dir, tmp_path):
        ca = self.write_config(tmp_path, mesh_dir, "run_a")
        cb = self.write_config(tmp_path, mesh_dir, "run_b")
        ra = runner.invoke(main, ["pipeline", str(ca), "--workers", "1"])
        rb = runner.invoke(main, ["pipeline", str(cb), "--workers", "4"])
        assert ra.exit_code == 0 and rb.exit_code == 0
        da, db = tmp_path / "run_a", tmp_path / "run_b"
        names = sorted(p.name for p in da.iterdir())
        assert names == sorted(p.name for p in db.iterdir())
        assert "dataset.jsonl" in names and "plan.json" in names
        for name in names:
            assert (da / name).read_bytes() == (db / name).read_bytes()

    def test_report_fixed_point(self, runner, mesh_dir, tmp_path):
        cfg = self.write_config(tmp_path, mesh_dir, "run_c")
        r = runner.invoke(main, ["pipeline", str(cfg)])
        assert r.exit_code == 0
        report = json.loads((tmp_path / "run_c" / "report.json").read_text())
        assert report["average_accuracy"] == 1.0
        assert report["objects"][0]["diversity"] == 1.0

    def test_unknown_key_rejected(self, runner, mesh_dir, tmp_path):
        cfg = self.write_config(tmp_path, mesh_dir, "run_d", typo_key=1)
        assert runner.invoke(main, ["pipeline", str(cfg)]).exit_code == 2

    @pytest.mark.parametrize("bad", [
        {"bandwidth_deg": float("nan")},
        {"max_delta_d_deg": float("nan")},
        {"match_threshold_deg": float("inf")},
        {"margin_eps": float("nan")},
        {"gripper": {"max_width_cm": float("nan")}},
    ])
    def test_non_finite_number_rejected(self, runner, mesh_dir, tmp_path, bad):
        cfg = self.write_config(tmp_path, mesh_dir, "run_d", **bad)
        r = runner.invoke(main, ["pipeline", str(cfg)])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)  # no traceback

    def test_match_threshold_reaches_report(self, runner, mesh_dir, tmp_path):
        diversity = []
        for name, threshold in [("run_g", 15.0), ("run_h", 1e-9)]:
            cfg = self.write_config(
                tmp_path, mesh_dir, name, mesh_paths=[str(mesh_dir / "tetrahedron.obj")],
                plan_object=None, plan_start=None, plan_goal=None,
                match_threshold_deg=threshold,
            )
            assert runner.invoke(main, ["pipeline", str(cfg)]).exit_code == 0
            report = json.loads((tmp_path / name / "report.json").read_text())
            diversity.append(report["objects"][0]["diversity"])
        # settled poses sit about 1e-8 rad from the cluster modes
        assert diversity[0] == 1.0
        assert diversity[1] < 1.0

    def test_margin_eps_reaches_dataset_and_evaluation(self, runner, mesh_dir, tmp_path):
        """The config's margin_eps rests the dataset's drops and the
        evaluated settles, not only the enumeration.  The L prism's facets
        have margins 1/6, 1/2 and 5/6; at 0.3 no drop may rest on one of
        1/6."""
        cfg = self.write_config(
            tmp_path, mesh_dir, "run_m", mesh_paths=[str(mesh_dir / "l_prism.obj")],
            drops_per_object=100, margin_eps=0.3,
            plan_object=None, plan_start=None, plan_goal=None,
        )
        evaluated = []
        settle_batch = placements.settle_batch

        def recording(mesh, initials, margin_eps=placements.DEFAULT_MARGIN_EPS):
            evaluated.append(margin_eps)
            return settle_batch(mesh, initials, margin_eps)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "settle_batch", recording)
            r = runner.invoke(main, ["pipeline", str(cfg), "--workers", "1"])
        assert r.exit_code == 0, r.output
        lines = (tmp_path / "run_m" / "dataset.jsonl").read_text().splitlines()
        margins = [json.loads(line)["stability_margin"] for line in lines]
        assert len(margins) == 100 and min(margins) >= 0.3
        assert evaluated == [0.3]

    def test_single_type_diversity_exit_4(self, runner, mesh_dir, tmp_path):
        # one drop gives a one-mode type model; diversity is undefined
        cfg = self.write_config(
            tmp_path, mesh_dir, "run_e", drops_per_object=1,
            plan_start=None, plan_goal=None,
        )
        r = runner.invoke(main, ["pipeline", str(cfg)])
        assert r.exit_code == 4
        # failed stage cleans up everything written so far
        out = tmp_path / "run_e"
        assert not any(out.iterdir())

    @staticmethod
    def assert_clean_failure(r, code, out):
        assert r.exit_code == code, r.output
        assert isinstance(r.exception, SystemExit)  # no traceback
        assert not out.exists() or not any(out.iterdir())

    def test_flat_mesh_exit_3(self, runner, mesh_dir, tmp_path):
        flat = tmp_path / "flat.obj"
        flat.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        cfg = self.write_config(
            tmp_path, mesh_dir, "run", mesh_paths=[str(mesh_dir / "cube.obj"), str(flat)],
        )
        r = runner.invoke(main, ["pipeline", str(cfg)])
        self.assert_clean_failure(r, 3, tmp_path / "run")
        assert f"mesh {flat}: need at least 4 points" in r.stderr

    @pytest.mark.parametrize("plan, message", [
        ({"plan_goal": 9}, "start/goal must be in [0, 5]"),
        ({"plan_start": -1}, "plan_start and plan_goal must be >= 0"),
        ({"plan_object": "nope"}, "plan_object 'nope'"),
    ])
    def test_bad_plan_exit_2_before_any_stage(self, runner, mesh_dir, tmp_path, plan,
                                              message):
        # the cube has 6 placements; these used to exit 1 after three stages
        cfg = self.write_config(tmp_path, mesh_dir, "run", **plan)
        r = runner.invoke(main, ["pipeline", str(cfg)])
        self.assert_clean_failure(r, 2, tmp_path / "run")
        assert message in r.stderr

    def test_no_placements_above_score_exit_2(self, runner, mesh_dir, tmp_path):
        # the cube's margins are 0.5
        cfg = self.write_config(tmp_path, mesh_dir, "run", margin_eps=0.6)
        r = runner.invoke(main, ["pipeline", str(cfg)])
        self.assert_clean_failure(r, 2, tmp_path / "run")
        assert "cube: no placement" in r.stderr

    def test_no_plan_exit_1_leaves_no_files(self, runner, mesh_dir, tmp_path):
        # dataset.jsonl, the model and the reports used to stay behind
        cfg = self.write_config(tmp_path, mesh_dir, "run", grasp_samples=1)
        r = runner.invoke(main, ["pipeline", str(cfg)])
        self.assert_clean_failure(r, 1, tmp_path / "run")

    def test_failed_write_exit_2_removes_written_files(self, runner, mesh_dir, tmp_path):
        out = tmp_path / "run"
        (out / "report.json").mkdir(parents=True)  # report.json cannot be written
        cfg = self.write_config(tmp_path, mesh_dir, "run")
        r = runner.invoke(main, ["pipeline", str(cfg)])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)  # no traceback
        assert f"cannot write {out / 'report.json'}" in r.stderr
        assert [p.name for p in out.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("command", ["dataset", "pipeline"])
    def test_diverged_drops_reported(self, runner, mesh_dir, tmp_path, monkeypatch,
                                     command):
        generate = cli.generate_dataset

        def two_diverged(meshes, drops, seed, workers, margin_eps=placements.DEFAULT_MARGIN_EPS):
            result = generate(meshes, drops, seed, workers=workers, margin_eps=margin_eps)
            return DatasetResult(result.records[2:], {"cube": 2})

        monkeypatch.setattr(cli, "generate_dataset", two_diverged)
        if command == "dataset":
            args = ["dataset", str(mesh_dir / "cube.obj"), "--drops", "20",
                    "-o", str(tmp_path / "ds.jsonl")]
        else:
            args = ["pipeline", str(self.write_config(tmp_path, mesh_dir, "run"))]
        r = runner.invoke(main, [*args, "--workers", "1"])
        assert r.exit_code == 0, r.output
        assert "cube: 2 diverged drops skipped" in r.stderr

    @pytest.mark.parametrize("command", ["dataset", "pipeline"])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_2(self, runner, mesh_dir, tmp_path, monkeypatch,
                                      command, workers):
        # 0 used to mean every core and a negative count a serial run
        monkeypatch.setattr(cli, "generate_dataset", None)  # no drop may run
        if command == "dataset":
            args = ["dataset", str(mesh_dir / "cube.obj"), "-o", str(tmp_path / "ds.jsonl")]
        else:
            args = ["pipeline", str(self.write_config(tmp_path, mesh_dir, "run"))]
        r = runner.invoke(main, [*args, "--workers", workers])
        self.assert_clean_failure(r, 2, tmp_path / "run")
        assert "--workers" in r.stderr
        assert not (tmp_path / "ds.jsonl").exists()

    def test_every_drop_diverged_exit_3(self, runner, mesh_dir, tmp_path, monkeypatch):
        # clustering an object with no settled drop raised a ValueError
        monkeypatch.setattr(
            cli, "generate_dataset",
            lambda meshes, drops, seed, workers, margin_eps: DatasetResult([], {"cube": drops}),
        )
        cfg = self.write_config(tmp_path, mesh_dir, "run", plan_start=None, plan_goal=None)
        r = runner.invoke(main, ["pipeline", str(cfg)])
        self.assert_clean_failure(r, 3, tmp_path / "run")
        assert "settle diverged: no drop of cube settled" in r.stderr

    @pytest.mark.parametrize("bad, key", [
        ({"drops_per_object": 2.5}, "drops_per_object"),
        ({"drops_per_object": True}, "drops_per_object"),
        ({"seed": 1.5}, "seed"),
        ({"seed": -1}, "seed"),
        ({"output_dir": 5}, "output_dir"),
        ({"gripper": {"max_width_cm": "wide"}}, "max_width_cm"),
        ({"gripper": {"max_width_cm": -1.0}}, "max_width"),
        ({"gripper": [1]}, "gripper"),
        ({"mesh_paths": "m/cube.obj"}, "mesh_paths"),
        ({"plan_start": "0"}, "plan_start"),
        ({"plan_goal": 0.5}, "plan_goal"),
        ({"margin_eps": -1.0}, "margin_eps"),
        ({"mesh_paths": ["a/cube.obj", "b/cube.obj"]}, "stems"),
        # positive in centimeters but 0 in meters, which ended in a traceback
        ({"max_delta_h_cm": 5e-324}, "thresholds must be finite and positive"),
    ])
    def test_config_type_exit_2(self, runner, mesh_dir, tmp_path, bad, key):
        cfg = self.write_config(tmp_path, mesh_dir, "run", **bad)
        r = runner.invoke(main, ["pipeline", str(cfg)])
        self.assert_clean_failure(r, 2, tmp_path / "run")
        assert key in r.stderr

    @pytest.mark.parametrize("key, value, message", [
        ("max_delta_d_deg", 0.0, "config: max_delta_d_deg=0.0: thresholds must be finite"),
        ("max_delta_d_deg", -1.0, "config: max_delta_d_deg=-1.0: thresholds must be finite"),
        ("max_delta_h_cm", 0.0, "config: max_delta_h_cm=0.0: thresholds must be finite"),
        ("max_delta_h_cm", -1.0, "config: max_delta_h_cm=-1.0: thresholds must be finite"),
        # positive as written, 0 in meters
        ("max_delta_h_cm", 5e-324, "config: max_delta_h_cm=5e-324: thresholds must be finite"),
    ])
    def test_threshold_at_fault_named(self, runner, mesh_dir, tmp_path, key, value, message):
        # the message named neither threshold
        cfg = self.write_config(tmp_path, mesh_dir, "run", **{key: value})
        r = runner.invoke(main, ["pipeline", str(cfg)])
        self.assert_clean_failure(r, 2, tmp_path / "run")
        assert message in r.stderr

    @settings(max_examples=100, deadline=None)
    @given(st.fixed_dictionaries({}, optional={
        "mesh_paths": JSON | st.lists(st.sampled_from(["m/cube.obj", "tetra.obj", ""]),
                                      max_size=3),
        **{f.name: JSON | st.integers(-2, 10**30) | st.floats()
           for f in fields(RunConfig) if f.type in ("int", "float", "int | None")},
        "plan_object": JSON | st.sampled_from(["cube", "tetra", "nope"]),
        "output_dir": JSON,
        "gripper": JSON | st.fixed_dictionaries({}, optional={
            f.name: JSON | st.floats() for f in fields(GripperConfig)
        }),
        "typo": JSON,
    }))
    def test_config_fuzz_input_error_or_declared_types(self, d):
        try:
            cfg = RunConfig.from_json_dict(json.loads(json.dumps(d)))
        except InputError:
            return
        for obj in (cfg, cfg.gripper):
            for f in fields(obj):
                assert _has_declared_type(getattr(obj, f.name), f.type), (f.name, d)

    def test_dump_poses(self, runner, mesh_dir, tmp_path):
        cfg = self.write_config(
            tmp_path, mesh_dir, "run_f", plan_start=None, plan_goal=None,
            drops_per_object=5,
        )
        r = runner.invoke(main, ["pipeline", str(cfg), "--dump-poses"])
        assert r.exit_code == 0
        poses = json.loads((tmp_path / "run_f" / "poses.json").read_text())
        assert len(poses) == 5
        assert all(len(p["rotation"]) == 9 for p in poses)


def _has_declared_type(value, declared: str) -> bool:
    if value is None:
        return declared.endswith(" | None")
    kind = declared.removesuffix(" | None")
    if kind == "tuple[str, ...]":
        return type(value) is tuple and all(type(s) is str for s in value)
    if kind == "float":
        return type(value) is float and math.isfinite(value)
    return type(value).__name__ == kind


def _run_python(*args):
    """``python *args`` in a new process that imports the package from src."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )


def test_cli_import_leaves_out_scipy_optimize():
    # the support-polygon radius needs no LP solver, so no process pays
    # for importing one
    out = _run_python(
        "-c", "import sys, stableplace.cli; print('scipy.optimize' in sys.modules)"
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_out_multiprocessing():
    # only a dataset run with more than one worker starts a process pool,
    # so only it pays for importing one
    out = _run_python(
        "-c", "import sys, stableplace.cli; print('multiprocessing' in sys.modules)"
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "False"
