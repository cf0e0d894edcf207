"""Command-line surface: enumerate -> dataset -> cluster -> evaluate ->
plan, plus the polynomial-fitting utility and a one-shot pipeline driver.

Config-file units are degrees and centimeters; conversion to radians and
meters happens here, at the boundary.  All outputs are deterministic for
a fixed seed, independent of the worker count.  ``geometry_errors`` is the
one mapping from exceptions to exit codes, and every command runs inside
it.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from pathlib import Path

import click
import numpy as np

from .clustering import TypeModel, mean_shift_orientations
from .mesh import (
    DegenerateHull,
    DegenerateMesh,
    MeshParseError,
    load_mesh,
)
from .metrics import (
    AccuracyThresholds,
    DegenerateDiversity,
    EvalReport,
    evaluate_run,
    format_table,
)
from .placements import (
    DEFAULT_MARGIN_EPS,
    DatasetResult,
    Placement,
    PlacementRecord,
    SettleDiverged,
    _json_number,
    _json_rotation,
    check_margin_eps,
    enumerate_stable,
    generate_dataset,
    settle,
)
from .regrasp import (
    GripperSpec,
    NoPlanExists,
    build_manipulation_graph,
    plan_regrasp,
    sample_antipodal_grasps,
)
from .rotations import (
    FitFailed,
    fit_geodesic_polynomial,
    random_rotation,
)

DEG = np.pi / 180.0
CM = 0.01

EXIT_NO_PLAN = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_DIVERSITY = 4
EXIT_FIT = 5


class InputError(ValueError):
    """A config, data file or option value the commands cannot use."""


@contextmanager
def _input(source: str, errors=(ValueError,)):
    """Re-raise ``errors`` from the block as an InputError naming ``source``."""
    try:
        yield
    except errors as exc:
        raise InputError(f"{source}: {exc}") from exc


def _read_json(path: str, parse, lines: bool = False):
    """``parse`` of the JSON value in ``path``, or the list of ``parse`` of
    each non-blank line with ``lines``.  A file that cannot be read, or
    whose JSON ``parse`` rejects or lacks a field of, raises InputError."""
    with _input(f"cannot read {path}", (OSError, ValueError, TypeError, OverflowError)):
        text = Path(path).read_text()
        try:
            if lines:
                return [parse(json.loads(line)) for line in text.split("\n") if line.strip()]
            return parse(json.loads(text))
        except KeyError as exc:
            raise ValueError(f"missing field {exc}") from None


def _mesh_stems(paths) -> list[str]:
    """The file stems of ``paths``, which label the meshes' records and
    name their model files; raises InputError when two repeat."""
    stems = [Path(p).stem for p in paths]
    if len(set(stems)) != len(stems):
        raise InputError(f"mesh file stems repeat: {stems}")
    return stems


def _json_fields(cls, d, where: str) -> dict:
    """The values of JSON object ``d`` for the fields of dataclass ``cls``,
    each checked against the field's declared type: an int takes an int
    but not a bool, a float a finite JSON number, a str a string,
    ``... | None`` also null, ``tuple[str, ...]`` a list of strings, and
    ``GripperConfig`` an object of its own fields.  Raises InputError."""
    if not isinstance(d, dict):
        raise InputError(f"{where} must be a JSON object, got {d!r}")
    declared = {f.name: f.type for f in fields(cls)}
    unknown = set(d) - set(declared)
    if unknown:
        raise InputError(f"unknown {where} keys: {sorted(unknown)}")
    out = {}
    for name, value in d.items():
        kind = declared[name]
        if value is None and kind.endswith(" | None"):
            out[name] = None
            continue
        kind = kind.removesuffix(" | None")
        is_int = isinstance(value, int) and not isinstance(value, bool)
        if kind == "GripperConfig":
            out[name] = GripperConfig(**_json_fields(GripperConfig, value, "gripper"))
        elif kind == "float":
            with _input(where):
                out[name] = _json_number(value, name)
        elif kind == "tuple[str, ...]" and isinstance(value, list) and all(
            isinstance(s, str) for s in value
        ):
            out[name] = tuple(value)
        elif (kind == "int" and is_int) or (kind == "str" and isinstance(value, str)):
            out[name] = value
        else:
            raise InputError(f"{name} must be {declared[name]}, got {value!r}")
    return out


@dataclass(frozen=True)
class GripperConfig:
    """Gripper section of the run config (centimeters / degrees)."""

    max_width_cm: float = 8.0
    finger_length_cm: float = 4.0
    finger_thickness_cm: float = 1.0
    friction_angle_deg: float = 11.5
    plane_clearance_cm: float = 0.5

    def to_spec(self) -> GripperSpec:
        return GripperSpec(
            max_width=self.max_width_cm * CM,
            finger_length=self.finger_length_cm * CM,
            finger_thickness=self.finger_thickness_cm * CM,
            friction_angle=self.friction_angle_deg * DEG,
            plane_clearance=self.plane_clearance_cm * CM,
        )


@dataclass(frozen=True)
class RunConfig:
    """Pipeline configuration loaded from JSON; unknown keys rejected."""

    mesh_paths: tuple[str, ...]
    seed: int = 0
    drops_per_object: int = 100
    bandwidth_deg: float = 15.0
    match_threshold_deg: float = 15.0
    max_delta_d_deg: float = 10.0
    max_delta_h_cm: float = 2.0
    score_threshold: float = 0.92
    margin_eps: float = 1e-4
    grasp_samples: int = 100
    gripper: GripperConfig = field(default_factory=GripperConfig)
    plan_object: str | None = None
    plan_start: int | None = None
    plan_goal: int | None = None
    output_dir: str = "out"

    @classmethod
    def from_json_dict(cls, d) -> "RunConfig":
        """Config of the parsed JSON ``d``.  Every value must have its
        field's declared type and lie in range, and ``plan_object`` must
        name a mesh file stem; anything else raises InputError."""
        values = _json_fields(cls, d, "config")
        if not values.get("mesh_paths"):
            raise InputError("config requires a non-empty mesh_paths list")
        cfg = cls(**values)
        stems = _mesh_stems(cfg.mesh_paths)
        plan = (cfg.plan_start, cfg.plan_goal)
        for ok, message in [
            (cfg.seed >= 0, "seed must be >= 0"),
            (cfg.drops_per_object >= 1, "drops_per_object must be >= 1"),
            (cfg.bandwidth_deg > 0 and cfg.match_threshold_deg > 0,
             "bandwidth_deg and match_threshold_deg must be positive"),
            (0.0 <= cfg.score_threshold <= 1.0, "score_threshold must lie in [0, 1]"),
            (cfg.grasp_samples >= 1, "grasp_samples must be >= 1"),
            (cfg.plan_object in (None, *stems),
             f"plan_object {cfg.plan_object!r} is not a mesh stem {stems}"),
            ((plan[0] is None) == (plan[1] is None),
             "plan_start and plan_goal must be given together"),
            (all(i is None or i >= 0 for i in plan), "plan_start and plan_goal must be >= 0"),
        ]:
            if not ok:
                raise InputError(message)
        with _input("config"):
            check_margin_eps(cfg.margin_eps)
            cfg.gripper.to_spec()
        # AccuracyThresholds' rule, one key at a time so the message names the
        # key and its value as written; once the angle passes, thresholds()
        # can only fail on the height
        with _input(f"config: max_delta_d_deg={cfg.max_delta_d_deg!r}"):
            AccuracyThresholds(max_delta_d=cfg.max_delta_d_deg)
        with _input(f"config: max_delta_h_cm={cfg.max_delta_h_cm!r}"):
            cfg.thresholds()
        return cfg

    def thresholds(self) -> AccuracyThresholds:
        return AccuracyThresholds(
            max_delta_d=self.max_delta_d_deg, max_delta_h=self.max_delta_h_cm * CM
        )


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _write_text(path: str | Path | None, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout when it is None."""
    if path is None:
        click.echo(text, nl=False)
        return
    with _input(f"cannot write {path}", (OSError,)):
        Path(path).write_text(text)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def geometry_errors(fn):
    """Map every failure the commands report to its documented exit code:
    1 no regrasp plan, 2 parse or input error, 3 degenerate mesh or hull
    or diverged settle, 4 degenerate diversity, 5 polynomial fit."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (MeshParseError, InputError) as exc:
            _fail(EXIT_PARSE, str(exc))
        except (DegenerateMesh, DegenerateHull) as exc:
            _fail(EXIT_DEGENERATE, str(exc))
        except SettleDiverged as exc:
            _fail(EXIT_DEGENERATE, f"settle diverged: {exc}")
        except DegenerateDiversity as exc:
            _fail(EXIT_DIVERSITY, str(exc))
        except FitFailed as exc:
            _fail(EXIT_FIT, str(exc))
        except NoPlanExists as exc:
            _fail(EXIT_NO_PLAN, str(exc))

    return wrapper


class _Commands(click.Group):
    """A group whose ``command`` decorator wraps each command in
    ``geometry_errors``."""

    def command(self, *args, **kwargs):
        decorator = super().command(*args, **kwargs)
        return lambda fn: decorator(geometry_errors(fn))


@click.group(cls=_Commands)
@click.version_option(package_name="stableplace")
def main():
    """Stable-placement enumeration, clustering, evaluation, and regrasp
    planning for rigid meshes on a support plane."""


def _stable_placements(mesh, margin_eps=DEFAULT_MARGIN_EPS, score_threshold=0.0):
    """Enumerated placements of ``mesh`` whose score is >= score_threshold."""
    return [
        p for p in enumerate_stable(mesh, margin_eps=margin_eps)
        if p.score >= score_threshold
    ]


def _dataset_text(records: list[PlacementRecord]) -> str:
    return "".join(_dump_json(rec.to_json_dict()) for rec in records)


def _report_diverged(result: DatasetResult) -> None:
    """Name on stderr each object with drops skipped for diverging, and
    raise SettleDiverged when every drop of an object diverged."""
    for object_id, count in result.diverged.items():
        if count:
            click.echo(f"{object_id}: {count} diverged drops skipped", err=True)
    settled = {r.object_id for r in result.records}
    for object_id in result.diverged:
        if object_id not in settled:
            raise SettleDiverged(f"no drop of {object_id} settled")


def _cluster(records: list[PlacementRecord], object_id: str, bandwidth_deg: float):
    """Placement-type model of the records of ``object_id``, which holds
    at least one record."""
    rotations = [r.placement.rotation for r in records if r.object_id == object_id]
    model, _ = mean_shift_orientations(rotations, bandwidth=bandwidth_deg * DEG)
    return model


def _predictions(d) -> list[Placement]:
    if not (isinstance(d, list) and d):
        raise ValueError("expected a non-empty JSON list of placements")
    return [Placement.from_json_dict(p) for p in d]


def _plan_json(mesh, placements, start, goal, grasp_samples, seed, spec) -> dict:
    """Regrasp plan from placements[start] to placements[goal]."""
    n = len(placements)
    if not (0 <= start < n and 0 <= goal < n):
        raise InputError(f"start/goal must be in [0, {n - 1}], got {start}/{goal}")
    grasps = sample_antipodal_grasps(mesh, grasp_samples, spec, seed=seed)
    graph = build_manipulation_graph(placements, grasps, spec)
    return plan_regrasp(graph, start, goal).to_json_dict()


@main.command("enumerate")
@click.argument("mesh_path", type=str)
@click.option("--margin-eps", type=float, default=DEFAULT_MARGIN_EPS, show_default=True,
              help="Minimum stability margin in meters.")
@click.option("--score-threshold", type=float, default=0.0, show_default=True,
              help="Keep placements with stability score >= this value.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              help="Output JSON path (stdout when omitted).")
def cmd_enumerate(mesh_path, margin_eps, score_threshold, output):
    """Enumerate stable placements of an OBJ mesh."""
    with _input("--margin-eps"):
        check_margin_eps(margin_eps)
    if not 0.0 <= score_threshold <= 1.0:
        raise InputError(f"--score-threshold must lie in [0, 1], got {score_threshold}")
    placements = _stable_placements(load_mesh(mesh_path), margin_eps, score_threshold)
    _write_text(output, _dump_json([p.to_json_dict() for p in placements]))


@main.command("settle")
@click.argument("mesh_path", type=str)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="Seed for the random initial orientation.")
@click.option("--rotation", type=str, default=None,
              help="Initial rotation as 9 comma-separated row-major values "
                   "(overrides --seed).")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
def cmd_settle(mesh_path, seed, rotation, output):
    """Settle the mesh from an initial orientation and report the pose."""
    mesh = load_mesh(mesh_path)
    if rotation is None:
        initial = random_rotation(np.random.default_rng(seed))
    else:
        with _input("--rotation"):
            initial = _json_rotation([float(x) for x in rotation.split(",")], "rotation")
    _write_text(output, _dump_json(settle(mesh, initial).to_json_dict()))


@main.command("dataset")
@click.argument("mesh_paths", type=str, nargs=-1, required=True)
@click.option("--drops", type=click.IntRange(min=1), default=100, show_default=True,
              help="Settled drops per object.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--workers", type=click.IntRange(min=1), default=None,
              help="Worker processes, at most one per 16 drops "
                   "(default: available parallelism).")
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True,
              help="Output JSON Lines path.")
def cmd_dataset(mesh_paths, drops, seed, workers, output):
    """Generate a settled-placement dataset (one JSON record per line).
    Each mesh's file stem labels its records, so the stems must differ."""
    meshes = [(stem, load_mesh(p)) for stem, p in zip(_mesh_stems(mesh_paths), mesh_paths)]
    result = generate_dataset(meshes, drops, seed, workers=workers or os.cpu_count() or 1)
    _report_diverged(result)
    _write_text(output, _dataset_text(result.records))


@main.command("cluster")
@click.argument("dataset_path", type=str)
@click.option("--object-id", type=str, default=None,
              help="Cluster this object only (required for mixed datasets).")
@click.option("--bandwidth-deg", type=float, default=15.0, show_default=True)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
def cmd_cluster(dataset_path, object_id, bandwidth_deg, output):
    """Cluster dataset orientations into placement types (MeanShift)."""
    records = _read_json(dataset_path, PlacementRecord.from_json_dict, lines=True)
    ids = sorted({r.object_id for r in records})
    if not ids:
        raise InputError(f"dataset {dataset_path} is empty")
    if object_id is None:
        if len(ids) > 1:
            raise InputError(f"dataset holds multiple objects {ids}; pass --object-id")
        object_id = ids[0]
    elif object_id not in ids:
        raise InputError(f"object {object_id!r} not in dataset (has {ids})")
    if not 0.0 < bandwidth_deg * DEG < math.inf:  # in radians, a tiny value underflows
        raise InputError(f"--bandwidth-deg must be finite and positive, got {bandwidth_deg}")
    model = _cluster(records, object_id, bandwidth_deg)
    _write_text(output, _dump_json(model.to_json_dict()))


@main.command("evaluate")
@click.argument("mesh_path", type=str)
@click.option("--predictions", "predictions_path", type=str, required=True,
              help="JSON list of predicted placements.")
@click.option("--model", "model_path", type=str, required=True,
              help="Type-model JSON from the cluster command.")
@click.option("--max-delta-d", type=float, default=10.0, show_default=True,
              help="Orientation threshold in degrees.")
@click.option("--max-delta-h", type=float, default=2.0, show_default=True,
              help="Height threshold in centimeters.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              help="Report JSON path; the table always goes to stdout.")
def cmd_evaluate(mesh_path, predictions_path, model_path, max_delta_d,
                 max_delta_h, output):
    """Score predicted placements: accuracy after settling and placement-
    type diversity against a clustered ground-truth model."""
    mesh = load_mesh(mesh_path)
    preds = _read_json(predictions_path, _predictions)
    model = _read_json(model_path, TypeModel.from_json_dict)
    with _input("--max-delta-d/--max-delta-h"):
        t = AccuracyThresholds(max_delta_d=max_delta_d, max_delta_h=max_delta_h * CM)
    row = evaluate_run(preds, mesh, model, t, object_id=Path(mesh_path).stem)
    report = EvalReport(rows=[row])
    click.echo(format_table(report))
    if output:
        _write_text(output, _dump_json(report.to_json_dict()))


@main.command("plan")
@click.argument("mesh_path", type=str)
@click.option("--start", type=int, required=True, help="Start placement index.")
@click.option("--goal", type=int, required=True, help="Goal placement index.")
@click.option("--grasp-samples", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--max-width", type=float, default=8.0, show_default=True,
              help="Gripper max width in centimeters.")
@click.option("--plane-clearance", type=float, default=0.5, show_default=True,
              help="Finger clearance above the plane in centimeters.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
def cmd_plan(mesh_path, start, goal, grasp_samples, seed, max_width,
             plane_clearance, output):
    """Plan a regrasp sequence between two enumerated placements."""
    with _input("--max-width/--plane-clearance"):
        spec = GripperSpec(max_width=max_width * CM, plane_clearance=plane_clearance * CM)
    mesh = load_mesh(mesh_path)
    placements = _stable_placements(mesh)
    if not placements:
        raise InputError(f"{mesh_path}: no placement with margin >= {DEFAULT_MARGIN_EPS}")
    d = _plan_json(mesh, placements, start, goal, grasp_samples, seed, spec)
    _write_text(output, _dump_json(d))


@main.command("fitpoly")
@click.option("--samples", type=click.IntRange(min=100), default=10001, show_default=True,
              help="Trace samples on [-1, 3] for the least-squares fit.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
def cmd_fitpoly(samples, output):
    """Fit the degree-10 polynomial surrogate of geodesic distance and
    report its coefficients and maximum fit error."""
    coeffs = fit_geodesic_polynomial(samples=samples)
    d = {"coefficients": coeffs.to_list(), "max_fit_error": coeffs.max_fit_error}
    _write_text(output, _dump_json(d))


@main.command("pipeline")
@click.argument("config_path", type=str)
@click.option("--workers", type=click.IntRange(min=1), default=None,
              help="Worker processes, at most one per 16 drops "
                   "(default: available parallelism).")
@click.option("--dump-poses", is_flag=True, default=False,
              help="Also write poses.json with the settled dataset poses "
                   "for external viewers.")
def cmd_pipeline(config_path, workers, dump_poses):
    """Run dataset generation, clustering, evaluation of the enumerated
    placements, and optional regrasp planning from one JSON config.

    Outputs (dataset.jsonl, model_<object>.json, report.json, report.txt,
    plan.json, and poses.json with --dump-poses) land in the config's
    output_dir and are byte-identical across reruns and worker counts for
    a fixed seed.  The config, the meshes, their placements above
    score_threshold and the plan indices are checked first, and every
    stage runs before the first file is written; a write that fails
    removes the files written before it.  So a nonzero exit leaves no
    partial output.
    """
    cfg = _read_json(config_path, RunConfig.from_json_dict)
    out_dir = Path(cfg.output_dir)
    with _input(f"output_dir {cfg.output_dir}", (OSError, ValueError)):
        out_dir.mkdir(parents=True, exist_ok=True)
    meshes = [(Path(p).stem, load_mesh(p)) for p in cfg.mesh_paths]
    candidates = {}
    for object_id, mesh in meshes:
        candidates[object_id] = _stable_placements(mesh, cfg.margin_eps, cfg.score_threshold)
        if not candidates[object_id]:
            raise InputError(
                f"{object_id}: no placement with margin >= {cfg.margin_eps} "
                f"and score >= {cfg.score_threshold}"
            )

    outputs = {}
    if cfg.plan_start is not None:
        plan_object = cfg.plan_object or meshes[0][0]
        plan = _plan_json(
            dict(meshes)[plan_object], candidates[plan_object], cfg.plan_start,
            cfg.plan_goal, cfg.grasp_samples, cfg.seed, cfg.gripper.to_spec(),
        )
        outputs["plan.json"] = _dump_json(plan)
    result = generate_dataset(
        meshes, cfg.drops_per_object, cfg.seed, workers=workers or os.cpu_count() or 1,
        margin_eps=cfg.margin_eps,
    )
    _report_diverged(result)
    outputs["dataset.jsonl"] = _dataset_text(result.records)
    rows = []
    for object_id, mesh in meshes:
        model = _cluster(result.records, object_id, cfg.bandwidth_deg)
        outputs[f"model_{object_id}.json"] = _dump_json(model.to_json_dict())
        rows.append(evaluate_run(
            candidates[object_id], mesh, model, cfg.thresholds(), object_id=object_id,
            match_threshold=cfg.match_threshold_deg * DEG, margin_eps=cfg.margin_eps,
        ))
    report = EvalReport(rows=rows)
    outputs["report.json"] = _dump_json(report.to_json_dict())
    outputs["report.txt"] = table = format_table(report) + "\n"
    if dump_poses:
        outputs["poses.json"] = _dump_json([
            {
                "object_id": rec.object_id,
                "rotation": [float(x) for x in rec.placement.rotation.ravel()],
                "translation": [float(x) for x in rec.placement.translation],
            }
            for rec in result.records
        ])

    written: list[Path] = []
    try:
        for name, text in outputs.items():
            written.append(out_dir / name)
            _write_text(written[-1], text)
    except BaseException:
        for path in written:
            with suppress(OSError):  # the path that failed may not be a file
                path.unlink()
        raise
    click.echo(table, nl=False)


if __name__ == "__main__":
    main()
