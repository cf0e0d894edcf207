#!/usr/bin/env python3
"""Time the stages of regrasp planning on the objects of perfbench's
``regrasp-planning`` workload: per object, the median milliseconds of
one grasp sampling call, one manipulation-graph build and one plan over
every ordered placement pair.

Usage: python scripts/regrasp_stages.py [--repeat N]

The objects and grippers are the workload's: the cube, L and T prisms
and tall box with a 120 cm gripper, and the tetrahedron (which no grasp
fits) and the s = 3 squashed icosphere with the default 8 cm one, each
with its enumerated placements and 25 grasp samples per call.  Grasp
seeds are 0 to 3, the workload's four per round.  The stages are:

- sample: ``regrasp.sample_antipodal_grasps``
- graph: ``regrasp.build_manipulation_graph``
- plan: ``regrasp.plan_regrasp`` for every ordered pair of distinct
  placements, ``NoPlanExists`` included

One warm-up round over every object and seed fills the meshes' cached
tables and is not counted; each stage's median is over the seeds and
repeats.  It checks nothing.
"""

import argparse
import statistics
import time

from grasp_statistics import squashed_icosphere

from stableplace import regrasp
from stableplace.cli import GripperConfig
from stableplace.fixtures import standard_fixtures
from stableplace.placements import enumerate_stable

GRASP_SAMPLES = 25
GRASP_SEEDS = 4
STAGES = ("sample", "graph", "plan")


def objects():
    """(name, mesh, gripper, placements) of the workload's objects."""
    fx = standard_fixtures()
    wide = GripperConfig(max_width_cm=120.0).to_spec()
    default = GripperConfig().to_spec()
    meshes = [
        ("cube", fx["cube"], wide),
        ("l_prism", fx["l_prism"], wide),
        ("t_prism", fx["t_prism"], wide),
        ("tall_box", fx["tall_box"], wide),
        ("tetrahedron", fx["tetrahedron"], default),
        ("ellipsoid_s3", squashed_icosphere(3), default),
    ]
    return [(name, m, spec, enumerate_stable(m)) for name, m, spec in meshes]


def run_once(m, spec, nodes, seed: int) -> dict[str, float]:
    """Seconds per stage of one grasp seed on one object."""
    t0 = time.perf_counter()
    grasps = regrasp.sample_antipodal_grasps(m, GRASP_SAMPLES, spec, seed=seed)
    t1 = time.perf_counter()
    graph = regrasp.build_manipulation_graph(nodes, grasps, spec)
    t2 = time.perf_counter()
    for a in range(len(nodes)):
        for b in range(len(nodes)):
            if a != b:
                try:
                    regrasp.plan_regrasp(graph, a, b)
                except regrasp.NoPlanExists:
                    pass
    t3 = time.perf_counter()
    return {"sample": t1 - t0, "graph": t2 - t1, "plan": t3 - t2}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15, help="timed rounds (default 15)")
    args = parser.parse_args()
    objs = objects()
    seeds = range(GRASP_SEEDS)
    for _, m, spec, nodes in objs:
        for seed in seeds:
            run_once(m, spec, nodes, seed)
    runs = {name: [] for name, *_ in objs}
    for _ in range(args.repeat):
        for name, m, spec, nodes in objs:
            runs[name] += [run_once(m, spec, nodes, seed) for seed in seeds]
    print(f"median ms over {args.repeat} rounds x {GRASP_SEEDS} seeds")
    print(f"  {'object':<13} {'faces':>5} {'nodes':>5}" + "".join(f" {s:>8}" for s in STAGES))
    for name, m, _, nodes in objs:
        medians = [1e3 * statistics.median(r[s] for r in runs[name]) for s in STAGES]
        print(f"  {name:<13} {len(m.faces):>5} {len(nodes):>5}"
              + "".join(f" {x:8.3f}" for x in medians))


if __name__ == "__main__":
    main()
