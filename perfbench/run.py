#!/usr/bin/env python3
"""stableplace benchmark: runs one workload for a fixed time and prints its
metrics; the last line of standard output is one JSON object.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Every pass runs in a fresh process (one_pass.py).  With --trace 0 the
passes are untraced and the result holds the end-to-end metrics; with
--trace 1 untraced and traced passes alternate, one profiled pass follows,
and the result holds the per-layer metrics.  Spans, profiles and the
machine record are written to .perfbench_out/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["fixtures-pipeline", "dense-meshes", "regrasp-planning", "learning-kernels"]
MIN_PASSES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
END_TO_END = [("setup_s", "s"), ("task_s", "s"), ("call_ms.p50", "ms"), ("peak_rss_mb", "MB")]
# What task_s and call_ms measure on each workload, under the names the
# rest of the project uses for them.
MEANING = {
    "fixtures-pipeline": ("pipeline_s: the --workers 1 pipeline call",
                          "pipeline_ms: one --workers 1 pipeline call"),
    "dense-meshes": ("enumerate_s: cold load_mesh + enumerate_stable, 3 meshes",
                     "settle_ms: one seeded settle drop"),
    "regrasp-planning": ("regrasp_s: sample, build and plan every pair",
                         "regrasp_ms: sample + build + plan, six objects, one grasp seed"),
    "learning-kernels": ("loss_mix_s: the fixed mix of loss evaluations",
                         "round_ms: one round of the mix"),
}


def run_pass(spec: dict, timeout: float) -> dict:
    """Run one pass in a fresh process group and return its result."""
    cmd = [sys.executable, str(HERE / "one_pass.py"), json.dumps(spec)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"pass {spec['pass_id']} exited {proc.returncode}:\n{err[-3000:]}")
    result = json.loads(Path(spec["out"]).read_text())
    result["wall_s"] = time.perf_counter() - t0
    return result


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    s = sorted(values)
    rank = max(1, math.ceil(q * len(s)))
    return s[rank - 1], len(s) - rank


def spread(values: list[float]) -> float:
    """Interquartile range over the median (0 with fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """All passes of one run, aggregated into its metrics and report."""
    workdir = ROOT / ".perfbench_work" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    t_start = time.perf_counter()
    passes: list[dict] = []

    def one(kind: str, run_w2: bool) -> None:
        k = len(passes)
        spec = {"workload": name, "seed": seed, "pass_id": k, "kind": kind, "run_w2": run_w2,
                "workdir": str(workdir / f"pass{k}"), "out": str(workdir / f"pass{k}.json")}
        remaining = RUN_LIMIT_S - (time.perf_counter() - t_start)
        passes.append(run_pass(spec, timeout=max(remaining, 1.0)))

    try:
        while True:
            kind = "traced" if trace and len(passes) % 2 else "plain"
            # Untraced runs check --workers 2 once; traced runs time it each pass.
            one(kind, run_w2=trace or not passes)
            # Stop before a pass as long as the last one would overrun --seconds;
            # a traced run keeps the time of one more for its profiled pass.
            elapsed = time.perf_counter() - t_start
            ahead = passes[-1]["wall_s"] * (2 if trace else 1)
            if len(passes) >= MIN_PASSES and elapsed + ahead > seconds:
                break
        if trace:
            one("profile", run_w2=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarize(name, seed, trace, passes, time.perf_counter() - t_start)


def summarize(name: str, seed: int, trace: bool, passes: list[dict], wall_s: float) -> dict:
    plain = [p for p in passes if p["kind"] == "plain"]
    traced = [p for p in passes if p["kind"] == "traced"]
    calls = [c for p in plain for c in p["calls_ms"]]
    p90, beyond = percentile(calls, 0.9)
    attempted = sum(p["ops"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    w2 = [p["extra"]["w2_s"] for p in passes if "w2_s" in p["extra"]]
    e2e = {
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "task_s": statistics.median(p["task_s"] for p in plain),
        "call_ms.p50": statistics.median(calls),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    raw_calls = [c for p in plain for c in p["raw"]["calls_ms"]]
    refs = [r for p in plain for r in p["ref_ms"]]
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "wall_s": wall_s,
        "machine": {"nproc": os.cpu_count(), **passes[0]["versions"]},
        "inputs": passes[0]["inputs"],
        "end_to_end": e2e,
        "raw_end_to_end": {
            "setup_s": statistics.median(p["raw"]["setup_s"] for p in plain),
            "task_s": statistics.median(p["raw"]["task_s"] for p in plain),
            "call_ms.p50": statistics.median(raw_calls),
        },
        "ref_ms": {"scale": plain[0]["ref_scale_ms"], "p50": statistics.median(refs),
                   "min": min(refs), "max": max(refs), "marks": len(refs)},
        "call_ms.p90": p90 if beyond >= 10 else None,
        "call_samples": len(calls),
        "fail_ratio": len(failures) / attempted,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "w2_s": w2,
        "extra": passes[0]["extra"],
        "pass_values": [{k: p[k] for k in ("kind", "setup_s", "task_s", "work_s", "wall_s",
                                           "peak_rss_mb")} for p in passes],
    }
    by_faces: dict[str, list[float]] = {}
    for p in plain:
        for faces, ms in p["extra"].get("settle_ms_by_faces", {}).items():
            by_faces.setdefault(faces, []).extend(ms)
    if by_faces:
        report["settle_ms.p50_by_faces"] = {f: statistics.median(v) for f, v in by_faces.items()}
        report["tilts"] = [t for p in passes for t in p["extra"]["tilts"]]
        report["tilt_tolerance"] = passes[0]["extra"]["tilt_tolerance"]
    if plain and "evals_per_s" in plain[0]:
        report["loss_evals_per_s"] = statistics.median(p["evals_per_s"] for p in plain)
    if trace:
        import tracing

        layer = {n: statistics.median(p["layer"][n] for p in traced)
                 for n in traced[0]["layer"]}
        layer["cli.pipeline_w2.wall_s"] = statistics.median(w2) if w2 else 0.0
        layer["cli.pipeline_w2.wall_spread"] = spread(w2)
        layer["trace.overhead_ratio"] = (statistics.median(p["work_s"] for p in traced)
                                         / statistics.median(p["work_s"] for p in plain))
        report["per_layer"] = {n: layer[n] for n, _ in tracing.per_layer_names()}
        report["per_layer_units"] = dict(tracing.per_layer_names())
        report["profile"] = passes[-1]["profile"]
        report["spans"] = [s for p in traced for s in p["spans"]]
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))
    report.pop("spans", None)
    return report


def print_report(r: dict) -> None:
    m = r["machine"]
    print(f"== {r['workload']}  seed={r['seed']}  trace={r['trace']}  passes={r['passes']}  "
          f"wall={r['wall_s']:.1f} s")
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"scipy={m['scipy']}")
    print(f"inputs: {json.dumps(r['inputs'])}")
    task_meaning, call_meaning = MEANING[r["workload"]]
    e = r["end_to_end"]
    print(f"  setup_s       {e['setup_s']:10.4f} s    import, inputs, OBJ/config export")
    print(f"  task_s        {e['task_s']:10.4f} s    {task_meaning}")
    print(f"  call_ms.p50   {e['call_ms.p50']:10.4f} ms   {call_meaning} "
          f"(n={r['call_samples']})")
    if r["call_ms.p90"] is not None:
        print(f"  call_ms.p90   {r['call_ms.p90']:10.4f} ms   (n={r['call_samples']})")
    for faces, ms in r.get("settle_ms.p50_by_faces", {}).items():
        print(f"  settle_ms.p50 at {faces} faces {ms:8.4f} ms")
    if "tilts" in r:
        print(f"  settled poses tilted off their facet by > 1e-9 rad: {len(r['tilts'])}"
              + (f" (max {max(r['tilts']):.3g} rad)" if r["tilts"] else "")
              + f"; failure above {', '.join(f'{t:.3g}' for t in r['tilt_tolerance'])} rad")
    if "loss_evals_per_s" in r:
        print(f"  loss_evals_per_s {r['loss_evals_per_s']:8.1f} 1/s")
    print(f"  peak_rss_mb   {e['peak_rss_mb']:10.2f} MB")
    raw, ref = r["raw_end_to_end"], r["ref_ms"]
    print(f"  times above are scaled to a reference call of {ref['scale']:g} ms; "
          f"reference calls took {ref['p50']:.2f} ms (median of {ref['marks']} marks, "
          f"{ref['min']:.2f}-{ref['max']:.2f}); unscaled medians: setup_s "
          f"{raw['setup_s']:.4f} s, task_s {raw['task_s']:.4f} s, "
          f"call_ms.p50 {raw['call_ms.p50']:.4f} ms")
    print(f"  fail_ratio    {r['fail_ratio']:10.4f} ratio ({r['failed']} of "
          f"{r['attempted']} operations failed)")
    for f in r["failures"][:5]:
        print(f"    failure: {f}")
    if r["w2_s"]:
        print(f"  --workers 2 pipeline: {', '.join(f'{w:.3f}' for w in r['w2_s'])} s "
              "(not gated)")
    if "report_diversity" in r["extra"]:
        print(f"  report.json raw diversity row (ROADMAP item 4, not gated): "
              f"{json.dumps(r['extra']['report_diversity'])}")
    if "per_layer" in r:
        for n, v in r["per_layer"].items():
            if v:
                print(f"  {n:58s} {v:12.6g} {r['per_layer_units'][n]}")
        for fn, prof in r["profile"].items():
            shares = ", ".join(f"{k} {v:.0%}" for k, v in prof["cum_share"].items())
            print(f"  cProfile {fn}: {prof['calls']} calls, {prof['total_s']:.3f} s"
                  + (f"; cumulative {shares}" if shares else ""))
            for row in prof["top_own"]:
                print(f"      {row['own_share']:6.1%}  {row['calls']:8d}  {row['function']}")


def result_line(r: dict) -> dict:
    """The result object printed as the last line: end-to-end metrics, or
    per-layer metrics for a traced run."""
    if r["trace"]:
        metrics = {n: {"value": v, "unit": r["per_layer_units"][n]}
                   for n, v in r["per_layer"].items()}
    else:
        metrics = {n: {"value": r["end_to_end"][n], "unit": unit} for n, unit in END_TO_END}
    return {"correct": r["failed"] == 0, "attempted": r["attempted"], "failed": r["failed"],
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "stableplace" / "__init__.py").is_file():
        print(f"error: no stableplace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    lines = {}
    try:
        for name in names:
            r = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_report(r)
            lines[name] = result_line(r)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
