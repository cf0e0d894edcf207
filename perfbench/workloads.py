"""The four benchmark workloads.

Each workload drives the package only through its public functions and
the ``stableplace pipeline`` entry point.  A pass is ``setup`` (inputs from
the seed), ``work`` (the timed section, traced in traced passes) and
``check`` (untimed correctness checks, each counted as one operation).
``work`` takes the pass's tracer, or None when the pass is not traced, and
the pass's ``HostSpeed``; it marks the reference speed after each timed
unit and returns the units' (start, end) intervals: ``task`` for task_s
and ``calls`` for call_ms.
See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

from stableplace import (
    cli,
    fixtures,
    losses,
    mesh,
    placements,
    regrasp,
    rotations,
)

# fixtures-pipeline: the config of scripts/run_fixture_pipeline.py.
PIPELINE_CONFIG = {
    "drops_per_object": 100,
    "bandwidth_deg": 15.0,
    "score_threshold": 0.92,
    "plan_object": "cube",
    "plan_start": 0,
    "plan_goal": 1,
    "gripper": {"max_width_cm": 120.0},
}
# Reference calls in the speed mark that follows a timed unit: LONG_MARK
# after a unit of a second or more, SEED_MARK after one grasp seed of
# regrasp-planning (about 0.8 s), and one after anything shorter.
LONG_MARK = 10
SEED_MARK = 3
# dense-meshes: icosphere subdivisions (320, 1280, 5120 faces) and the
# seeded settle drops per mesh in one pass.
DENSE_SUBDIVISIONS = (2, 3, 4)
DENSE_SCALE = np.array([1.0, 0.8, 0.6])
DENSE_DROPS = 12
# regrasp-planning: grasp samples per call and grasp seeds per pass.
GRASP_SAMPLES = 25
GRASP_SEEDS = 4
# learning-kernels: one round of the fixed mix, rounds per pass, and the
# number of distinct input sets the rounds cycle through.
ROUND = {"chamfer_128": 1, "chamfer_8": 8, "refine_2048": 8, "poly": 32}
ROUNDS = 400
ROUNDS_PER_MARK = 10
VARIANTS = 4
FD_STEP = 1e-6
FD_TOL = 1e-5


class Checks:
    """Operations attempted and the messages of those that failed."""

    def __init__(self):
        self.ops = 0
        self.failures: list[str] = []

    def ok(self, condition: bool, message: str) -> bool:
        self.ops += 1
        if not condition:
            self.failures.append(message)
        return bool(condition)


def _ellipsoid(subdivisions: int) -> mesh.TriMesh:
    sphere = fixtures.icosphere(0.05, subdivisions)
    return mesh.TriMesh(sphere.vertices * DENSE_SCALE, sphere.faces)


def _run_pipeline(config_path: Path, workers: int) -> str | None:
    """In-process ``stableplace pipeline``; None on success, else why not."""
    argv = ["pipeline", str(config_path), "--workers", str(workers)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv, standalone_mode=False)
    except SystemExit as exc:
        if exc.code:
            return f"pipeline --workers {workers} exited {exc.code}"
    except Exception as exc:  # a crash is a failed operation, not a crash of the pass
        return f"pipeline --workers {workers} raised {exc!r}"
    return None


def _grasp_from_json(d: dict) -> regrasp.GraspConfig:
    return regrasp.GraspConfig(
        contact_a=np.array(d["contact_a"]),
        contact_b=np.array(d["contact_b"]),
        approach=np.array(d["approach"]),
    )


def _check_steps(checks, steps, start, goal, nodes, spec, edges, where):
    """Steps chain start -> goal, and each step's grasp is feasible in both
    of its placements (and, with the graph's edges, on that edge)."""
    node = start
    for s in steps:
        checks.ok(s["from"] == node, f"{where}: step leaves {s['from']}, expected {node}")
        grasp = s["grasp"]
        feasible = regrasp.grasp_feasible_in_placement(
            grasp, nodes[s["from"]], spec
        ) and regrasp.grasp_feasible_in_placement(grasp, nodes[s["to"]], spec)
        checks.ok(feasible, f"{where}: step {s['from']}->{s['to']} grasp infeasible")
        if edges is not None:
            key = (min(s["from"], s["to"]), max(s["from"], s["to"]))
            checks.ok(key in edges, f"{where}: step {key} is not a graph edge")
        node = s["to"]
    checks.ok(node == goal, f"{where}: plan ends at {node}, expected {goal}")


class FixturesPipeline:
    """The five fixtures through ``stableplace pipeline`` at 1 and 2 workers."""

    def setup(self, seed: int, workdir: Path, pass_id: int) -> None:
        self.workdir = workdir
        self.meshes = fixtures.standard_fixtures()
        paths = []
        for name, m in self.meshes.items():
            path = workdir / f"{name}.obj"
            mesh.save_obj(m, path)
            paths.append(str(path))
        self.configs = {}
        for workers in (1, 2):
            cfg = dict(PIPELINE_CONFIG, mesh_paths=paths, seed=seed,
                       output_dir=str(workdir / f"out_w{workers}"))
            self.configs[workers] = workdir / f"config_w{workers}.json"
            self.configs[workers].write_text(json.dumps(cfg, indent=2))
        self.inputs = {
            "objects": {n: len(m.faces) for n, m in self.meshes.items()},
            "drops_per_object": PIPELINE_CONFIG["drops_per_object"],
            "grasp_samples": cli.RunConfig.grasp_samples,
            "config_seed": seed,
        }

    def work(self, tracer, speed) -> dict:
        t0 = time.perf_counter()
        if tracer:
            self.error = tracer.span("cli.pipeline", _run_pipeline, self.configs[1], 1)
        else:
            self.error = _run_pipeline(self.configs[1], 1)
        t1 = time.perf_counter()
        speed.mark(LONG_MARK)
        return {"task": [(t0, t1)], "calls": [(t0, t1)]}

    def check(self, run_w2: bool, speed) -> tuple[Checks, dict]:
        checks, extra = Checks(), {}
        if not checks.ok(self.error is None, str(self.error)):
            return checks, extra
        out = self.workdir / "out_w1"
        dataset = (out / "dataset.jsonl").read_bytes()
        if run_w2:
            t0 = time.perf_counter()
            error = _run_pipeline(self.configs[2], 2)
            extra["w2_s"] = time.perf_counter() - t0
            if checks.ok(error is None, str(error)):
                same = (self.workdir / "out_w2" / "dataset.jsonl").read_bytes() == dataset
                checks.ok(same, "dataset.jsonl differs between --workers 1 and 2")

        loaded = {n: mesh.load_mesh(self.workdir / f"{n}.obj") for n in self.meshes}
        records = [
            placements.PlacementRecord.from_json_dict(json.loads(line))
            for line in dataset.decode().splitlines()
        ]
        per_object = {n: 0 for n in self.meshes}
        for rec in records:
            per_object[rec.object_id] += 1
            stable, margin = placements.stability_check(loaded[rec.object_id], rec.placement)
            checks.ok(stable, f"{rec.object_id}: record unstable (margin {margin})")
        for name, count in per_object.items():
            for _ in range(PIPELINE_CONFIG["drops_per_object"] - count):
                checks.ok(False, f"{name}: diverged drop")

        cfg = PIPELINE_CONFIG
        nodes = [
            p for p in placements.enumerate_stable(loaded[cfg["plan_object"]])
            if p.score >= cfg["score_threshold"]
        ]
        spec = cli.GripperConfig(**cfg["gripper"]).to_spec()
        plan = json.loads((out / "plan.json").read_text())
        steps = [
            {"from": s["from_type"], "to": s["to_type"], "grasp": _grasp_from_json(s["grasp"])}
            for s in plan["steps"]
        ]
        _check_steps(checks, steps, cfg["plan_start"], cfg["plan_goal"], nodes, spec,
                     None, "plan.json")

        # The raw diversity row is a known defect (ROADMAP item 4): shown, not gated.
        report = json.loads((out / "report.json").read_text())
        extra["report_diversity"] = {r["object_id"]: r["diversity"] for r in report["objects"]}
        extra["records"] = len(records)
        return checks, extra


class DenseMeshes:
    """Cold load + enumerate of three squashed icospheres, then seeded drops."""

    def setup(self, seed: int, workdir: Path, pass_id: int) -> None:
        self.paths = []
        faces = []
        for s in DENSE_SUBDIVISIONS:
            m = _ellipsoid(s)
            path = workdir / f"ellipsoid_s{s}.obj"
            mesh.save_obj(m, path)
            self.paths.append(path)
            faces.append(len(m.faces))
        self.seed, self.pass_id = seed, pass_id
        self.inputs = {"faces": faces, "drops_per_mesh": DENSE_DROPS}

    def work(self, tracer, speed) -> dict:
        self.meshes, self.enumerated = [], []
        task = []
        for path in self.paths:
            t0 = time.perf_counter()
            m = mesh.load_mesh(path)
            found = placements.enumerate_stable(m)
            task.append((t0, time.perf_counter()))
            speed.mark(LONG_MARK)
            self.meshes.append(m)
            self.enumerated.append(found)
        calls, self.drops = [], []
        for i, m in enumerate(self.meshes):
            rng = np.random.default_rng([self.seed, self.pass_id, i])
            for _ in range(DENSE_DROPS):
                initial = rotations.random_rotation(rng)
                t0 = time.perf_counter()
                try:
                    result = placements.settle(m, initial)
                except placements.SettleDiverged as exc:
                    result = exc
                calls.append((t0, time.perf_counter()))
                speed.mark()
                self.drops.append((i, result))
        self.calls = calls
        return {"task": task, "calls": calls}

    def check(self, run_w2: bool, speed) -> tuple[Checks, dict]:
        checks = Checks()
        for i, found in enumerate(self.enumerated):
            checks.ok(len(found) > 0, f"mesh {i}: no stable placement enumerated")
        ups = [np.array([rotations.body_up_axis(p.rotation) for p in found])
               for found in self.enumerated]
        tolerance = [_tilt_tolerance(m) for m in self.meshes]
        tilts = []
        for i, result in self.drops:
            if not checks.ok(not isinstance(result, Exception), f"mesh {i}: {result}"):
                continue
            stable, margin = placements.stability_check(self.meshes[i], result)
            checks.ok(stable, f"mesh {i}: settled pose unstable (margin {margin})")
            up = rotations.body_up_axis(result.rotation)
            err = float(np.linalg.norm(ups[i] - up, axis=1).min()) if len(ups[i]) else math.inf
            checks.ok(err <= tolerance[i],
                      f"mesh {i}: up-axis {err:.3g} rad from every enumerated one")
            if err > 1e-9:
                tilts.append(err)
        by_faces = {}
        for (i, _), call in zip(self.drops, self.calls):
            ms = 1e3 * speed.scaled(*call)
            by_faces.setdefault(len(self.meshes[i].faces), []).append(ms)
        return checks, {"placements": [len(f) for f in self.enumerated],
                        "settle_ms_by_faces": by_faces, "tilts": tilts,
                        "tilt_tolerance": tolerance}


def _tilt_tolerance(m: mesh.TriMesh) -> float:
    """Largest up-axis tilt, in radians, that settle's contact tolerance
    allows: a contact may hover CONTACT_TOL above the plane, which tilts a
    resting triangle by at most CONTACT_TOL over its shortest altitude."""
    hull = mesh.convex_hull(m.vertices)
    tri = hull.vertices[hull.faces]
    edges = np.linalg.norm(tri - np.roll(tri, 1, axis=1), axis=2)
    altitude = 2.0 * hull.face_areas() / edges.max(axis=1)
    return placements.CONTACT_TOL / float(altitude.min())


def _components(n: int, edges) -> list[int]:
    """Union-find root of each node over the graph's edges."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in edges:
        parent[find(a)] = find(b)
    return [find(i) for i in range(n)]


class RegraspPlanning:
    """Sample, build the shared-grasp graph and plan every ordered pair."""

    def setup(self, seed: int, workdir: Path, pass_id: int) -> None:
        fx = fixtures.standard_fixtures()
        wide = cli.GripperConfig(max_width_cm=120.0).to_spec()
        default = cli.GripperConfig().to_spec()
        objects = [
            ("cube", fx["cube"], wide),
            ("l_prism", fx["l_prism"], wide),
            ("t_prism", fx["t_prism"], wide),
            ("tall_box", fx["tall_box"], wide),
            ("tetrahedron", fx["tetrahedron"], default),
            ("ellipsoid_s3", _ellipsoid(3), default),
        ]
        self.objects = [
            (name, m, spec, placements.enumerate_stable(m)) for name, m, spec in objects
        ]
        self.grasp_seeds = [GRASP_SEEDS * seed + k for k in range(GRASP_SEEDS)]
        self.inputs = {
            "objects": {n: len(m.faces) for n, m, _, _ in self.objects},
            "placements": {n: len(p) for n, _, _, p in self.objects},
            "grasp_samples": GRASP_SAMPLES,
            "grasp_seeds": self.grasp_seeds,
        }

    def work(self, tracer, speed) -> dict:
        self.results, units = [], []
        for gseed in self.grasp_seeds:
            t0 = time.perf_counter()
            for name, m, spec, nodes in self.objects:
                grasps = regrasp.sample_antipodal_grasps(m, GRASP_SAMPLES, spec, seed=gseed)
                graph = regrasp.build_manipulation_graph(nodes, grasps, spec)
                plans = {}
                for a in range(len(nodes)):
                    for b in range(len(nodes)):
                        if a != b:
                            try:
                                plans[a, b] = regrasp.plan_regrasp(graph, a, b)
                            except regrasp.NoPlanExists:
                                plans[a, b] = None
                self.results.append((name, spec, graph, plans))
            units.append((t0, time.perf_counter()))
            speed.mark(SEED_MARK)
        return {"task": units, "calls": units}

    def check(self, run_w2: bool, speed) -> tuple[Checks, dict]:
        checks = Checks()
        grasps, no_plan = 0, 0
        for name, spec, graph, plans in self.results:
            grasps += len(graph.grasps)
            root = _components(len(graph.nodes), graph.edges)
            for (a, b), plan in plans.items():
                where = f"{name} {a}->{b}"
                connected = root[a] == root[b]
                no_plan += plan is None
                if not checks.ok((plan is not None) == connected,
                                 f"{where}: plan {'missing' if plan is None else 'found'} "
                                 f"but union-find says connected={connected}"):
                    continue
                if plan is not None:
                    steps = [{"from": s.from_node, "to": s.to_node, "grasp": s.grasp}
                             for s in plan.steps]
                    _check_steps(checks, steps, a, b, graph.nodes, spec, graph.edges, where)
        return checks, {"grasps": grasps, "no_plan_pairs": no_plan}


def _fd_check(checks, f, x, grad, index, where):
    """Central finite difference of f at x along one entry, against grad."""
    xp, xm = x.copy(), x.copy()
    xp[index] += FD_STEP
    xm[index] -= FD_STEP
    fd = (f(xp) - f(xm)) / (2 * FD_STEP)
    an = float(grad[index])
    checks.ok(abs(fd - an) <= FD_TOL * max(1.0, abs(an)),
              f"{where}: gradient {an} vs finite difference {fd} at {index}")


class LearningKernels:
    """Loss values and gradients over a fixed mix of set and field sizes."""

    def setup(self, seed: int, workdir: Path, pass_id: int) -> None:
        self.coeffs = rotations.fit_geodesic_polynomial()
        rng = np.random.default_rng(seed)

        def rots(n):
            return [rotations.random_rotation(rng) for _ in range(n)]

        def field():
            return losses.DisplacementField(
                0.05 * rng.normal(size=(2048, 3)), 0.05 * rng.normal(size=(2048, 3))
            )

        self.variants = [
            {
                "chamfer_128": [(rots(128), rots(128)) for _ in range(ROUND["chamfer_128"])],
                "chamfer_8": [(rots(8), rots(8)) for _ in range(ROUND["chamfer_8"])],
                "refine_2048": [(field(), 0.1 * rng.normal(size=3))
                                for _ in range(ROUND["refine_2048"])],
                "poly": [(r1, r2) for r1, r2 in zip(rots(ROUND["poly"]), rots(ROUND["poly"]))],
            }
            for _ in range(VARIANTS)
        ]
        self.inputs = {"round": ROUND, "rounds": ROUNDS, "variants": VARIANTS,
                       "evals_per_round": sum(ROUND.values())}

    def work(self, tracer, speed) -> dict:
        c = self.coeffs
        chamfer, refine = losses.chamfer_geodesic_loss, losses.refine_loss
        poly = rotations.poly_geodesic_distance
        rounds, self.nonfinite, self.evals = [], 0, 0
        for r in range(ROUNDS):
            v = self.variants[r % VARIANTS]
            t0 = time.perf_counter()
            bad = 0
            for sg, st in v["chamfer_128"] + v["chamfer_8"]:
                value, grads = chamfer(sg, st, c)
                bad += not math.isfinite(value + grads.sum())
            for f, v_gt in v["refine_2048"]:
                value, grads = refine(f, v_gt)
                bad += not math.isfinite(value + grads.sum())
            for rg, rt in v["poly"]:
                value, grad = poly(c, rg, rt)
                bad += not math.isfinite(value + grad.sum())
            rounds.append((t0, time.perf_counter()))
            if r % ROUNDS_PER_MARK == ROUNDS_PER_MARK - 1:
                speed.mark()
            self.nonfinite += bad
        self.evals = ROUNDS * sum(ROUND.values())
        return {"task": rounds, "calls": rounds, "evals": self.evals}

    def check(self, run_w2: bool, speed) -> tuple[Checks, dict]:
        checks = Checks()
        checks.ops += self.evals - self.nonfinite
        for _ in range(self.nonfinite):
            checks.ok(False, "loss value or gradient not finite")
        c, v = self.coeffs, self.variants[0]

        sg, st = v["chamfer_8"][0]
        _, grads = losses.chamfer_geodesic_loss(sg, st, c)
        for index in [(0, 0, 0), (3, 1, 2), (7, 2, 1)]:
            k = index[0]

            def chamfer_at(x, k=k):
                return losses.chamfer_geodesic_loss(sg[:k] + [x[k]] + sg[k + 1:], st, c)[0]

            _fd_check(checks, chamfer_at, np.stack(sg), grads, index, "chamfer_geodesic_loss")

        f, v_gt = v["refine_2048"][0]
        _, grads = losses.refine_loss(f, v_gt)
        for index in [(0, 0), (1000, 1), (2047, 2)]:
            def refine_at(x):
                return losses.refine_loss(losses.DisplacementField(f.points, x), v_gt)[0]

            _fd_check(checks, refine_at, f.displacements, grads, index, "refine_loss")

        rg, rt = v["poly"][0]
        _, grad = rotations.poly_geodesic_distance(c, rg, rt)
        for index in [(0, 0), (1, 2), (2, 1)]:
            def poly_at(x):
                return rotations.poly_geodesic_distance(c, x, rt)[0]

            _fd_check(checks, poly_at, rg, grad, index, "poly_geodesic_distance")
        return checks, {}


WORKLOADS = {
    "fixtures-pipeline": FixturesPipeline,
    "dense-meshes": DenseMeshes,
    "regrasp-planning": RegraspPlanning,
    "learning-kernels": LearningKernels,
}
