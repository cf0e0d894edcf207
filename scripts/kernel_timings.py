#!/usr/bin/env python3
"""Time the loss kernels in process, on the inputs of the benchmark's
``learning-kernels`` workload.

Usage: python scripts/kernel_timings.py [--repeat N] [--seed S]

The inputs are the first variant that the workload's ``setup`` builds
from the seed, and the calls per round are the workload's ``ROUND``:

- chamfer_128, chamfer_8: ``chamfer_geodesic_loss`` on two sets of 128
  and of 8 rotations
- refine_2048: ``refine_loss`` on a field of 2,048 rows
- poly: ``poly_geodesic_distance`` on one pair of rotations
- value_and_derivative: ``PolyCoeffs.value_and_derivative`` at that
  pair's trace as a float, the scalar half of ``poly``; not in a round

Each kernel is called in batches of ``--repeat`` calls, after one batch
that is not counted.  The script prints each kernel's median microseconds
per call over nine batches, and one round's total.  It checks nothing.

perfbench is imported read-only: the script writes no bytecode.
"""

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

from stableplace import losses, rotations  # noqa: E402

BATCHES = 9


def kernels(seed: int) -> dict[str, object]:
    """Per kernel: a call of it on the workload's first inputs."""
    workload = workloads.LearningKernels()
    with tempfile.TemporaryDirectory() as workdir:
        workload.setup(seed, Path(workdir), 0)
    c, v = workload.coeffs, workload.variants[0]
    (sg128, st128), (sg8, st8) = v["chamfer_128"][0], v["chamfer_8"][0]
    field, v_gt = v["refine_2048"][0]
    rg, rt = v["poly"][0]
    t = float(np.sum(rg * rt))
    return {
        "chamfer_128": lambda: losses.chamfer_geodesic_loss(sg128, st128, c),
        "chamfer_8": lambda: losses.chamfer_geodesic_loss(sg8, st8, c),
        "refine_2048": lambda: losses.refine_loss(field, v_gt),
        "poly": lambda: rotations.poly_geodesic_distance(c, rg, rt),
        "value_and_derivative": lambda: c.value_and_derivative(t),
    }


def per_call_us(fn, repeat: int) -> float:
    """Median microseconds per call of ``fn`` over the timed batches."""
    batches = []
    for _ in range(BATCHES + 1):
        t0 = time.perf_counter()
        for _ in range(repeat):
            fn()
        batches.append((time.perf_counter() - t0) / repeat)
    return 1e6 * statistics.median(batches[1:])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=200, help="calls per batch (default 200)")
    parser.add_argument("--seed", type=int, default=101, help="input seed (default 101)")
    args = parser.parse_args()
    round_us = 0.0
    print(f"median us per call over {BATCHES} batches of {args.repeat} calls")
    for name, fn in kernels(args.seed).items():
        us = per_call_us(fn, args.repeat)
        round_us += workloads.ROUND.get(name, 0) * us
        print(f"  {name:<21} {us:8.1f}")
    print(f"  {'round':<21} {round_us:8.1f}")


if __name__ == "__main__":
    main()
