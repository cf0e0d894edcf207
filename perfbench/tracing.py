"""Per-layer tracing for the benchmark, installed from outside the package.

Each traced function is replaced by a wrapper in every ``stableplace``
module that holds a reference to it, so calls made inside the package go
through the wrapper and no file under ``src/`` changes.  A wrapper records
a span (name, start, end, parent span, pass id) in memory; self time is
derived from the spans when the pass ends.

Functions called tens of thousands of times per pass (``LIGHT``) record no
span: their wrapper only counts calls and adds its duration to a running
total and to the enclosing span, so the parent's self time stays right.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# Layer -> public functions timed in the traced run.  A per-layer metric
# name is "<layer>.<function>.<field>".
TRACED = {
    "mesh": ["load_mesh", "convex_hull", "merge_coplanar_facets"],
    "placements": [
        "enumerate_stable",
        "signed_polygon_margin",
        "polygon_inradius",
        "settle",
        "generate_one_drop",
    ],
    "clustering": ["mean_shift_orientations"],
    "rotations": [
        "z_align",
        "z_quotient_distance",
        "z_quotient_distances",
        "poly_geodesic_distance",
        "fit_geodesic_polynomial",
    ],
    "metrics": ["evaluate_run"],
    "regrasp": [
        "sample_antipodal_grasps",
        "grasp_feasible_in_placement",
        "build_manipulation_graph",
        "plan_regrasp",
    ],
    "losses": ["chamfer_geodesic_loss", "refine_loss"],
}
LIGHT = {"rotations.z_align", "rotations.poly_geodesic_distance",
         "regrasp.grasp_feasible_in_placement"}

# Extra per-layer counters, each a count per pass unless it ends in
# "_ratio" or "_share".
COUNTERS = [
    "mesh.merge_coplanar_facets.facets_out",
    "placements.enumerate_stable.placements_out",
    "placements.settle.tips",
    "placements.settle.diverged",
    "placements.settle.inradius_share",
    "placements.settle.hull_share",
    "clustering.mean_shift_orientations.modes_out",
    "regrasp.sample_antipodal_grasps.samples",
    "regrasp.sample_antipodal_grasps.grasps_out",
    "regrasp.sample_antipodal_grasps.accept_ratio",
    "regrasp.grasp_feasible_in_placement.feasible_ratio",
    "regrasp.build_manipulation_graph.edges",
    "regrasp.plan_regrasp.no_plan",
    "losses.chamfer_geodesic_loss.pairs",
    "losses.refine_loss.rows",
]
# Spans the benchmark opens itself, around its calls into the CLI layer.
CLI_SPAN = "cli.pipeline"
PROFILED = ["placements.settle", "placements.enumerate_stable",
            "clustering.mean_shift_orientations"]
# The cProfile report gives each of these a cumulative share, so the LP
# (polygon_inradius -> linprog) and hull-rebuild shares of settle show.
SHARE_OF = ("polygon_inradius", "linprog", "convex_hull")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric (name, unit) the traced run reports."""
    out = []
    for layer, fns in TRACED.items():
        for fn in fns:
            out += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_s", "s")]
    for name in COUNTERS:
        out.append((name, "ratio" if name.endswith(("_ratio", "_share")) else "count"))
    out += [
        (f"{CLI_SPAN}.self_s", "s"),
        ("cli.pipeline_w2.wall_s", "s"),
        ("cli.pipeline_w2.wall_spread", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


def _bound(fn, args, kwargs) -> inspect.BoundArguments:
    b = inspect.signature(fn).bind(*args, **kwargs)
    b.apply_defaults()
    return b


class _Patcher:
    """Rebinds a function name in every stableplace module that holds it."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "stableplace" and not modname.startswith("stableplace."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        # [name, start, end, parent index, time of LIGHT calls inside]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.light: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self._patcher = _Patcher()

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        spans, stack = self.spans, self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
        stack.append(len(spans))
        spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def _light(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            entry = self.light[name]
            entry[0] += 1
            entry[1] += dt
            if self._stack:
                self.spans[self._stack[-1]][4] += dt

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        import stableplace  # noqa: F401  (loads every layer module)

        for layer, fns in TRACED.items():
            module = sys.modules[f"stableplace.{layer}"]
            for fn_name in fns:
                original = getattr(module, fn_name)
                name = f"{layer}.{fn_name}"
                self._patcher.replace(original, self._wrap(name, original))

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrap(self, name: str, fn):
        counts = self.counts
        if name == "placements.settle":
            from stableplace.placements import SettleDiverged

            @functools.wraps(fn)
            def settle(*args, **kwargs):
                want_trace = kwargs.pop("return_trace", False)
                try:
                    placement, heights = self.span(
                        name, fn, *args, return_trace=True, **kwargs
                    )
                except SettleDiverged:
                    counts["placements.settle.diverged"] += 1
                    raise
                counts["placements.settle.tips"] += len(heights) - 1
                return (placement, heights) if want_trace else placement

            return settle
        if name == "regrasp.plan_regrasp":
            from stableplace.regrasp import NoPlanExists

            @functools.wraps(fn)
            def plan(*args, **kwargs):
                try:
                    return self.span(name, fn, *args, **kwargs)
                except NoPlanExists:
                    counts["regrasp.plan_regrasp.no_plan"] += 1
                    raise

            return plan

        observe = _OBSERVERS.get(name)
        run = self._light if name in LIGHT else self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = run(name, fn, *args, **kwargs)
            if observe is not None:
                observe(counts, fn, args, kwargs, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of this pass: calls, self time and counters."""
        n = len(self.spans)
        child = np.zeros(n)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        calls: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        settle_parts = defaultdict(float)
        for i, (name, start, end, parent, light_s) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i] - light_s
            total[name] += end - start
            if parent >= 0 and self.spans[parent][0] == "placements.settle":
                settle_parts[name] += end - start
        for name, (count, spent) in self.light.items():
            calls[name] += count
            self_s[name] += spent
        out = {}
        for layer, fns in TRACED.items():
            for fn in fns:
                key = f"{layer}.{fn}"
                out[f"{key}.calls"] = calls[key]
                out[f"{key}.self_s"] = self_s[key]
        out[f"{CLI_SPAN}.self_s"] = self_s[CLI_SPAN]
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0.0)
        settle_total = total["placements.settle"]
        if settle_total > 0:
            out["placements.settle.inradius_share"] = (
                settle_parts["placements.polygon_inradius"] / settle_total
            )
            out["placements.settle.hull_share"] = (
                settle_parts["mesh.convex_hull"] / settle_total
            )
        samples = self.counts["regrasp.sample_antipodal_grasps.samples"]
        if samples:
            out["regrasp.sample_antipodal_grasps.accept_ratio"] = (
                self.counts["accepted_samples"] / samples
            )
        feas_calls = calls["regrasp.grasp_feasible_in_placement"]
        if feas_calls:
            out["regrasp.grasp_feasible_in_placement.feasible_ratio"] = (
                self.counts["feasible"] / feas_calls
            )
        return out

    def span_rows(self) -> list[list]:
        """Spans as [name, start, end, parent, pass id] rows."""
        return [[s[0], s[1], s[2], s[3], self.pass_id] for s in self.spans]


def _obs_len(counter):
    def observe(counts, fn, args, kwargs, result):
        counts[counter] += len(result)

    return observe


def _obs_modes(counts, fn, args, kwargs, result):
    counts["clustering.mean_shift_orientations.modes_out"] += len(result[0].modes)


def _obs_samples(counts, fn, args, kwargs, result):
    b = _bound(fn, args, kwargs)
    counts["regrasp.sample_antipodal_grasps.samples"] += b.arguments["n"]
    counts["regrasp.sample_antipodal_grasps.grasps_out"] += len(result)
    counts["accepted_samples"] += len(result) / b.arguments["approach_count"]


def _obs_feasible(counts, fn, args, kwargs, result):
    counts["feasible"] += bool(result)


def _obs_edges(counts, fn, args, kwargs, result):
    counts["regrasp.build_manipulation_graph.edges"] += len(result.edges)


def _obs_pairs(counts, fn, args, kwargs, result):
    b = _bound(fn, args, kwargs)
    counts["losses.chamfer_geodesic_loss.pairs"] += (
        len(b.arguments["sg"]) * len(b.arguments["st"])
    )


def _obs_rows(counts, fn, args, kwargs, result):
    counts["losses.refine_loss.rows"] += _bound(fn, args, kwargs).arguments["f"].points.shape[0]


_OBSERVERS = {
    "mesh.merge_coplanar_facets": _obs_len("mesh.merge_coplanar_facets.facets_out"),
    "placements.enumerate_stable": _obs_len("placements.enumerate_stable.placements_out"),
    "clustering.mean_shift_orientations": _obs_modes,
    "regrasp.sample_antipodal_grasps": _obs_samples,
    "regrasp.grasp_feasible_in_placement": _obs_feasible,
    "regrasp.build_manipulation_graph": _obs_edges,
    "losses.chamfer_geodesic_loss": _obs_pairs,
    "losses.refine_loss": _obs_rows,
}


class Profiler:
    """cProfile of each function in PROFILED, one profile per function,
    accumulated over every call in the pass."""

    def __init__(self):
        self.profiles = {name: cProfile.Profile() for name in PROFILED}
        self._patcher = _Patcher()

    def install(self) -> None:
        import stableplace  # noqa: F401

        for name, prof in self.profiles.items():
            layer, fn_name = name.split(".")
            original = getattr(sys.modules[f"stableplace.{layer}"], fn_name)

            def wrapper(*args, _fn=original, _prof=prof, **kwargs):
                return _prof.runcall(_fn, *args, **kwargs)

            self._patcher.replace(original, functools.wraps(original)(wrapper))

    def uninstall(self) -> None:
        self._patcher.restore()

    def top(self, k: int = 5) -> dict[str, dict]:
        """Per profiled function: its total time, the top k functions by
        own time, and the cumulative share of each SHARE_OF function
        inside it."""
        out = {}
        for name, prof in self.profiles.items():
            prof.create_stats()
            stats = prof.stats
            fn_name = name.split(".")[1]
            root = [v for key, v in stats.items() if key[2] == fn_name]
            if not root:
                out[name] = {"calls": 0, "total_s": 0.0, "top_own": [], "cum_share": {}}
                continue
            total = sum(v[3] for v in root)
            rows = sorted(stats.items(), key=lambda kv: kv[1][2], reverse=True)[:k]
            cum: dict[str, float] = defaultdict(float)
            for key, v in stats.items():
                if key[2] in SHARE_OF:
                    cum[key[2]] += v[3]
            out[name] = {
                "calls": sum(v[1] for v in root),
                "total_s": total,
                "top_own": [
                    {
                        "function": f"{key[2]} ({key[0].rsplit('/', 1)[-1]}:{key[1]})",
                        "calls": v[1],
                        "own_s": v[2],
                        "own_share": v[2] / total if total else 0.0,
                    }
                    for key, v in rows
                ],
                "cum_share": {fn: s / total for fn, s in sorted(cum.items())},
            }
        return out
