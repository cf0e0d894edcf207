"""Command-line surface: enumerate -> dataset -> cluster -> evaluate ->
plan, plus the polynomial-fitting utility and a one-shot pipeline driver.

Config-file units are degrees and centimeters; conversion to radians and
meters happens here, at the boundary.  All outputs are deterministic for
a fixed seed, independent of the worker count.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
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
    Placement,
    PlacementRecord,
    SettleDiverged,
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
    InvalidRotation,
    check_rotation,
    fit_geodesic_polynomial,
    random_rotation,
)

DEG = np.pi / 180.0
CM = 0.01

EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_DIVERSITY = 4
EXIT_FIT = 5


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
    def from_json_dict(cls, d: dict) -> "RunConfig":
        d = dict(d)
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "mesh_paths" not in d or not d["mesh_paths"]:
            raise ValueError("config requires a non-empty mesh_paths list")
        d["mesh_paths"] = tuple(d["mesh_paths"])
        if "gripper" in d:
            g = dict(d["gripper"])
            gknown = {f.name for f in fields(GripperConfig)}
            gunknown = set(g) - gknown
            if gunknown:
                raise ValueError(f"unknown gripper keys: {sorted(gunknown)}")
            d["gripper"] = GripperConfig(**g)
        cfg = cls(**d)
        for obj in (cfg, cfg.gripper):
            for f in fields(obj):
                value = getattr(obj, f.name)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(f"{f.name} must be finite, got {value}")
        if cfg.drops_per_object < 1:
            raise ValueError("drops_per_object must be >= 1")
        if cfg.bandwidth_deg <= 0 or cfg.match_threshold_deg <= 0:
            raise ValueError("bandwidth_deg and match_threshold_deg must be positive")
        if cfg.max_delta_d_deg <= 0 or cfg.max_delta_h_cm <= 0:
            raise ValueError("accuracy thresholds must be positive")
        if not 0.0 <= cfg.score_threshold <= 1.0:
            raise ValueError("score_threshold must lie in [0, 1]")
        if cfg.grasp_samples < 1:
            raise ValueError("grasp_samples must be >= 1")
        if (cfg.plan_start is None) != (cfg.plan_goal is None):
            raise ValueError("plan_start and plan_goal must be given together")
        return cfg

    def thresholds(self) -> AccuracyThresholds:
        return AccuracyThresholds(
            max_delta_d=self.max_delta_d_deg, max_delta_h=self.max_delta_h_cm * CM
        )


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _write_text(path: str | Path | None, text: str) -> None:
    if path is None:
        click.echo(text, nl=False)
    else:
        Path(path).write_text(text)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def geometry_errors(fn):
    """Map geometry failures to the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except MeshParseError as exc:
            _fail(EXIT_PARSE, str(exc))
        except (DegenerateMesh, DegenerateHull) as exc:
            _fail(EXIT_DEGENERATE, str(exc))
        except SettleDiverged as exc:
            _fail(EXIT_DEGENERATE, f"settle diverged: {exc}")
        except DegenerateDiversity as exc:
            _fail(EXIT_DIVERSITY, str(exc))
        except FitFailed as exc:
            _fail(EXIT_FIT, str(exc))

    return wrapper


@click.group()
@click.version_option(package_name="stableplace")
def main():
    """Stable-placement enumeration, clustering, evaluation, and regrasp
    planning for rigid meshes on a support plane."""


@main.command("enumerate")
@click.argument("mesh_path", type=str)
@click.option("--margin-eps", type=float, default=1e-4, show_default=True,
              help="Minimum stability margin in meters.")
@click.option("--score-threshold", type=float, default=0.0, show_default=True,
              help="Keep placements with stability score >= this value.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              help="Output JSON path (stdout when omitted).")
@geometry_errors
def cmd_enumerate(mesh_path, margin_eps, score_threshold, output):
    """Enumerate stable placements of an OBJ mesh."""
    mesh = load_mesh(mesh_path)
    placements = [
        p for p in enumerate_stable(mesh, margin_eps=margin_eps)
        if p.score >= score_threshold
    ]
    _write_text(output, _dump_json([p.to_json_dict() for p in placements]))


@main.command("settle")
@click.argument("mesh_path", type=str)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for the random initial orientation.")
@click.option("--rotation", type=str, default=None,
              help="Initial rotation as 9 comma-separated row-major values "
                   "(overrides --seed).")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@geometry_errors
def cmd_settle(mesh_path, seed, rotation, output):
    """Settle the mesh from an initial orientation and report the pose."""
    mesh = load_mesh(mesh_path)
    if rotation is not None:
        try:
            values = [float(x) for x in rotation.split(",")]
        except ValueError as exc:
            raise click.BadParameter(str(exc), param_hint="--rotation") from exc
        if len(values) != 9:
            raise click.BadParameter("needs exactly 9 values", param_hint="--rotation")
        try:
            initial = check_rotation(np.array(values).reshape(3, 3))
        except InvalidRotation as exc:
            raise click.BadParameter(str(exc), param_hint="--rotation") from exc
    else:
        initial = random_rotation(np.random.default_rng(seed))
    placement = settle(mesh, initial)
    _write_text(output, _dump_json(placement.to_json_dict()))


@main.command("dataset")
@click.argument("mesh_paths", type=str, nargs=-1, required=True)
@click.option("--drops", type=int, default=100, show_default=True,
              help="Settled drops per object.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--workers", type=int, default=None,
              help="Worker processes (default: available parallelism).")
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True,
              help="Output JSON Lines path.")
@geometry_errors
def cmd_dataset(mesh_paths, drops, seed, workers, output):
    """Generate a settled-placement dataset (one JSON record per line)."""
    if drops < 1:
        raise click.UsageError("--drops must be >= 1")
    meshes = [(Path(p).stem, load_mesh(p)) for p in mesh_paths]
    workers = workers or os.cpu_count() or 1
    result = generate_dataset(meshes, drops, seed, workers=workers)
    with open(output, "w") as fh:
        for rec in result.records:
            fh.write(_dump_json(rec.to_json_dict()))
    for object_id, count in result.diverged.items():
        if count:
            click.echo(f"{object_id}: {count} diverged drops skipped", err=True)


def _read_dataset(path: str) -> list[PlacementRecord]:
    records = []
    try:
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    records.append(PlacementRecord.from_json_dict(json.loads(line)))
    except (OSError, ValueError, KeyError) as exc:
        _fail(EXIT_PARSE, f"cannot read dataset {path}: {exc}")
    if not records:
        _fail(EXIT_PARSE, f"dataset {path} is empty")
    return records


@main.command("cluster")
@click.argument("dataset_path", type=str)
@click.option("--object-id", type=str, default=None,
              help="Cluster this object only (required for mixed datasets).")
@click.option("--bandwidth-deg", type=float, default=15.0, show_default=True)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
def cmd_cluster(dataset_path, object_id, bandwidth_deg, output):
    """Cluster dataset orientations into placement types (MeanShift)."""
    records = _read_dataset(dataset_path)
    ids = sorted({r.object_id for r in records})
    if object_id is None:
        if len(ids) > 1:
            raise click.UsageError(
                f"dataset holds multiple objects {ids}; pass --object-id"
            )
        object_id = ids[0]
    elif object_id not in ids:
        _fail(EXIT_PARSE, f"object {object_id!r} not in dataset (has {ids})")
    rotations = [
        r.placement.rotation for r in records if r.object_id == object_id
    ]
    try:
        model, _ = mean_shift_orientations(rotations, bandwidth=bandwidth_deg * DEG)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--bandwidth-deg") from exc
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
@geometry_errors
def cmd_evaluate(mesh_path, predictions_path, model_path, max_delta_d,
                 max_delta_h, output):
    """Score predicted placements: accuracy after settling and placement-
    type diversity against a clustered ground-truth model."""
    mesh = load_mesh(mesh_path)
    try:
        preds = [
            Placement.from_json_dict(d)
            for d in json.loads(Path(predictions_path).read_text())
        ]
        model = TypeModel.from_json_dict(json.loads(Path(model_path).read_text()))
    except (OSError, ValueError, KeyError) as exc:
        _fail(EXIT_PARSE, f"cannot read inputs: {exc}")
    if not preds:
        _fail(EXIT_PARSE, f"no predictions in {predictions_path}")
    try:
        t = AccuracyThresholds(max_delta_d=max_delta_d, max_delta_h=max_delta_h * CM)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--max-delta-d/--max-delta-h") from exc
    row = evaluate_run(preds, mesh, model, t, object_id=Path(mesh_path).stem)
    report = EvalReport(rows=[row])
    click.echo(format_table(report))
    if output:
        Path(output).write_text(_dump_json(report.to_json_dict()))


def _plan_json(mesh, placements, start, goal, grasp_samples, seed, spec):
    grasps = sample_antipodal_grasps(mesh, grasp_samples, spec, seed=seed)
    graph = build_manipulation_graph(placements, grasps, spec)
    try:
        plan = plan_regrasp(graph, start, goal)
    except NoPlanExists as exc:
        _fail(1, str(exc))
    return plan.to_json_dict()


@main.command("plan")
@click.argument("mesh_path", type=str)
@click.option("--start", type=int, required=True, help="Start placement index.")
@click.option("--goal", type=int, required=True, help="Goal placement index.")
@click.option("--grasp-samples", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--max-width", type=float, default=8.0, show_default=True,
              help="Gripper max width in centimeters.")
@click.option("--plane-clearance", type=float, default=0.5, show_default=True,
              help="Finger clearance above the plane in centimeters.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@geometry_errors
def cmd_plan(mesh_path, start, goal, grasp_samples, seed, max_width,
             plane_clearance, output):
    """Plan a regrasp sequence between two enumerated placements."""
    mesh = load_mesh(mesh_path)
    placements = enumerate_stable(mesh)
    n = len(placements)
    if not (0 <= start < n and 0 <= goal < n):
        raise click.UsageError(f"start/goal must be in [0, {n - 1}]")
    spec = GripperSpec(
        max_width=max_width * CM,
        plane_clearance=plane_clearance * CM,
    )
    d = _plan_json(mesh, placements, start, goal, grasp_samples, seed, spec)
    _write_text(output, _dump_json(d))


@main.command("fitpoly")
@click.option("--samples", type=int, default=10001, show_default=True,
              help="Trace samples on [-1, 3] for the least-squares fit.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@geometry_errors
def cmd_fitpoly(samples, output):
    """Fit the degree-10 polynomial surrogate of geodesic distance and
    report its coefficients and maximum fit error."""
    if samples < 100:
        raise click.UsageError("--samples must be >= 100")
    coeffs = fit_geodesic_polynomial(samples=samples)
    d = {"coefficients": coeffs.to_list(), "max_fit_error": coeffs.max_fit_error}
    _write_text(output, _dump_json(d))


@main.command("pipeline")
@click.argument("config_path", type=str)
@click.option("--workers", type=int, default=None,
              help="Worker processes (default: available parallelism).")
@click.option("--dump-poses", is_flag=True, default=False,
              help="Also write poses.json with the settled dataset poses "
                   "for external viewers.")
@geometry_errors
def cmd_pipeline(config_path, workers, dump_poses):
    """Run dataset generation, clustering, evaluation of the enumerated
    placements, and optional regrasp planning from one JSON config.

    Outputs (dataset.jsonl, model_<object>.json, report.json, report.txt,
    plan.json) land in the config's output_dir and are byte-identical
    across reruns and worker counts for a fixed seed.
    """
    try:
        cfg = RunConfig.from_json_dict(json.loads(Path(config_path).read_text()))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _fail(EXIT_PARSE, f"bad config {config_path}: {exc}")
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = workers or os.cpu_count() or 1
    written: list[Path] = []

    def run_stage(name, fn):
        try:
            return fn()
        except SystemExit:
            raise
        except Exception as exc:
            for path in written:
                path.unlink(missing_ok=True)
            _fail(
                EXIT_DIVERSITY if isinstance(exc, DegenerateDiversity) else 1,
                f"stage {name}: {exc}",
            )

    meshes = [(Path(p).stem, load_mesh(p)) for p in cfg.mesh_paths]

    def stage_dataset():
        result = generate_dataset(
            meshes, cfg.drops_per_object, cfg.seed, workers=workers
        )
        path = out_dir / "dataset.jsonl"
        with open(path, "w") as fh:
            for rec in result.records:
                fh.write(_dump_json(rec.to_json_dict()))
        written.append(path)
        return result

    result = run_stage("dataset", stage_dataset)

    def stage_cluster():
        models = {}
        for object_id, _ in meshes:
            rotations = [
                r.placement.rotation
                for r in result.records
                if r.object_id == object_id
            ]
            model, _ = mean_shift_orientations(
                rotations, bandwidth=cfg.bandwidth_deg * DEG
            )
            path = out_dir / f"model_{object_id}.json"
            path.write_text(_dump_json(model.to_json_dict()))
            written.append(path)
            models[object_id] = model
        return models

    models = run_stage("cluster", stage_cluster)

    def stage_evaluate():
        rows = []
        for object_id, mesh in meshes:
            preds = [
                p
                for p in enumerate_stable(mesh, margin_eps=cfg.margin_eps)
                if p.score >= cfg.score_threshold
            ]
            if not preds:
                raise ValueError(
                    f"{object_id}: no placements above score {cfg.score_threshold}"
                )
            rows.append(
                evaluate_run(
                    preds, mesh, models[object_id], cfg.thresholds(),
                    object_id=object_id,
                    match_threshold=cfg.match_threshold_deg * DEG,
                )
            )
        report = EvalReport(rows=rows)
        json_path = out_dir / "report.json"
        json_path.write_text(_dump_json(report.to_json_dict()))
        written.append(json_path)
        table = format_table(report) + "\n"
        txt_path = out_dir / "report.txt"
        txt_path.write_text(table)
        written.append(txt_path)
        click.echo(table, nl=False)
        return report

    run_stage("evaluate", stage_evaluate)

    if cfg.plan_start is not None:
        def stage_plan():
            plan_object = cfg.plan_object or meshes[0][0]
            by_id = dict(meshes)
            if plan_object not in by_id:
                raise ValueError(f"plan_object {plan_object!r} not among meshes")
            mesh = by_id[plan_object]
            placements = [
                p
                for p in enumerate_stable(mesh, margin_eps=cfg.margin_eps)
                if p.score >= cfg.score_threshold
            ]
            n = len(placements)
            if not (0 <= cfg.plan_start < n and 0 <= cfg.plan_goal < n):
                raise ValueError(f"plan_start/plan_goal must be in [0, {n - 1}]")
            d = _plan_json(
                mesh, placements, cfg.plan_start, cfg.plan_goal,
                cfg.grasp_samples, cfg.seed, cfg.gripper.to_spec(),
            )
            path = out_dir / "plan.json"
            path.write_text(_dump_json(d))
            written.append(path)

        run_stage("plan", stage_plan)

    if dump_poses:
        poses = [
            {
                "object_id": rec.object_id,
                "rotation": [float(x) for x in rec.placement.rotation.ravel()],
                "translation": [float(x) for x in rec.placement.translation],
            }
            for rec in result.records
        ]
        (out_dir / "poses.json").write_text(_dump_json(poses))


if __name__ == "__main__":
    main()
