#!/usr/bin/env python3
"""Time the stages of one in-process ``stableplace pipeline`` call on the
built-in fixtures, with the config of ``run_fixture_pipeline.py`` and one
worker.

Usage: python scripts/pipeline_stages.py [--repeat N]

Each run loads the meshes afresh, as the command does, so every stage
starts from cold per-mesh caches.  The stages are the ``stableplace.cli``
names the command calls, wrapped for the run:

- enumerate: ``_stable_placements``
- plan: ``_plan_json``
- dataset: ``generate_dataset``
  - seeding: ``placements._drop_generators``, the drops' seeded
    generators, a part of dataset
- dataset text: ``_dataset_text``
- cluster: ``_cluster``
- evaluate: ``evaluate_run``

"other" is the rest of the call: config, mesh loading and file writes;
it does not count seeding again.
The script prints each stage's median milliseconds over the runs, after
one warm-up run that is not counted.  It checks nothing.
"""

import argparse
import contextlib
import functools
import io
import statistics
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from run_fixture_pipeline import write_config

from stableplace import cli, placements

STAGES = {
    "_stable_placements": "enumerate",
    "_plan_json": "plan",
    "generate_dataset": "dataset",
    "_dataset_text": "dataset text",
    "_cluster": "cluster",
    "evaluate_run": "evaluate",
}


def timed(fn, totals: dict, stage: str):
    """fn, adding the seconds of each call to ``totals[stage]``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[stage] += time.perf_counter() - t0

    return wrapper


def run_once(config_path: Path) -> dict[str, float]:
    """Seconds per stage, and in all, of one pipeline call."""
    totals: dict[str, float] = defaultdict(float)
    originals = {name: getattr(cli, name) for name in STAGES}
    for name, stage in STAGES.items():
        setattr(cli, name, timed(originals[name], totals, stage))
    seeding = placements._drop_generators
    placements._drop_generators = timed(seeding, totals, "seeding")
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["pipeline", str(config_path), "--workers", "1"], standalone_mode=False)
        totals["total"] = time.perf_counter() - t0
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
        placements._drop_generators = seeding
    totals["other"] = totals["total"] - sum(totals[stage] for stage in STAGES.values())
    return totals


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15, help="timed runs (default 15)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        config_path = write_config(Path(tmp))
        run_once(config_path)
        runs = [run_once(config_path) for _ in range(args.repeat)]
    print(f"median ms over {args.repeat} runs")
    for stage in [*STAGES.values(), "other", "total"]:
        print(f"  {stage:<13} {1e3 * statistics.median(r[stage] for r in runs):8.1f}")
        if stage == "dataset":  # seeding is a part of it
            ms = 1e3 * statistics.median(r["seeding"] for r in runs)
            print(f"    {'seeding':<11} {ms:8.1f}")


if __name__ == "__main__":
    main()
