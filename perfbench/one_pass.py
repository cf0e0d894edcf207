"""One benchmark pass in a fresh process, so no state carries between passes.

run.py starts it as ``python3 perfbench/one_pass.py SPEC`` where SPEC is a
JSON object with keys workload, seed, pass_id, kind ("plain", "traced" or
"profile"), run_w2, workdir and out.  The pass result is written as JSON
to ``out``.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any import

import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402  (imports the package)
import hostspeed  # noqa: E402  (after the package, whose imports it shares)


def _timing(speed, t0: float, t_setup: float, units: dict) -> dict:
    """The pass's times, scaled to the reference speed, and the raw ones."""
    work = sorted(set(units["task"]) | set(units["calls"]))
    out = {
        "setup_s": speed.scaled(t0, t_setup),
        "task_s": sum(speed.scaled(*u) for u in units["task"]),
        "work_s": sum(speed.scaled(*u) for u in work),
        "calls_ms": [1e3 * speed.scaled(*u) for u in units["calls"]],
        "raw": {
            "setup_s": speed.unscaled(t0, t_setup),
            "task_s": sum(speed.unscaled(*u) for u in units["task"]),
            "calls_ms": [1e3 * speed.unscaled(*u) for u in units["calls"]],
        },
        "ref_ms": [1e3 * m[2] for m in speed.marks],
        "ref_scale_ms": 1e3 * hostspeed.REF_S,
    }
    if "evals" in units:
        out["evals_per_s"] = units["evals"] / out["task_s"]
    return out


def main() -> None:
    spec = json.loads(sys.argv[1])
    kind = spec["kind"]
    tracer = tracing.Tracer(spec["pass_id"]) if kind == "traced" else None
    hooks = tracer or (tracing.Profiler() if kind == "profile" else None)
    if hooks:
        hooks.install()
    workload = workloads.WORKLOADS[spec["workload"]]()
    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    speed = hostspeed.HostSpeed()
    # A traced pass takes no marks inside set-up and work: they would land
    # in the spans.  Its times are scaled by the marks between units only.
    sampling = speed.sampling if kind == "plain" else contextlib.nullcontext
    with sampling():
        workload.setup(spec["seed"], workdir, spec["pass_id"])
    t_setup = time.perf_counter()
    speed.mark(workloads.LONG_MARK)
    with sampling():
        units = workload.work(tracer, speed)
    if hooks:
        hooks.uninstall()
    checks, extra = workload.check(spec["run_w2"], speed)
    timing = _timing(speed, T0, t_setup, units)

    import numpy
    import scipy

    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "pass_id": spec["pass_id"],
        "kind": kind,
        **timing,
        "peak_rss_mb": peak_kb / 1024.0,
        "ops": checks.ops,
        "failures": checks.failures,
        "inputs": workload.inputs,
        "extra": extra,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer:
        result["layer"] = tracer.layer_metrics()
        result["spans"] = tracer.span_rows()
    if kind == "profile":
        result["profile"] = hooks.top()
    Path(spec["out"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
