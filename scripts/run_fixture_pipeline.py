#!/usr/bin/env python3
"""End-to-end demo: export the built-in fixtures as OBJ files, write a
pipeline config, and run the full dataset -> cluster -> evaluate -> plan
pipeline into an output directory.

Usage: python scripts/run_fixture_pipeline.py [workdir]

Each output file is listed with its size and sha256, so comparing the
output bytes of two checkouts is a diff of two runs' stdout.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from stableplace.fixtures import standard_fixtures
from stableplace.mesh import save_obj


def write_config(workdir: Path) -> Path:
    """Export the fixtures as OBJ files into ``workdir`` and write the
    pipeline config that reads them; returns the config's path."""
    workdir.mkdir(parents=True, exist_ok=True)
    mesh_paths = []
    for name, mesh in standard_fixtures().items():
        path = workdir / f"{name}.obj"
        save_obj(mesh, path)
        mesh_paths.append(str(path))

    config = {
        "mesh_paths": mesh_paths,
        "seed": 7,
        "drops_per_object": 100,
        "bandwidth_deg": 15.0,
        "score_threshold": 0.92,
        "output_dir": str(workdir / "out"),
        "plan_object": "cube",
        "plan_start": 0,
        "plan_goal": 1,
        "gripper": {"max_width_cm": 120.0},
    }
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    return config_path


def main():
    workdir = Path(sys.argv[1] if len(sys.argv) > 1 else "pipeline_demo")
    config_path = write_config(workdir)
    subprocess.run(
        [sys.executable, "-m", "stableplace.cli", "pipeline", str(config_path)],
        check=True,
    )
    print(f"\noutputs in {workdir / 'out'}:")
    for p in sorted((workdir / "out").iterdir()):
        digest = hashlib.sha256(p.read_bytes()).hexdigest()
        print(f"  {p.name}  ({p.stat().st_size} bytes)  sha256 {digest}")


if __name__ == "__main__":
    main()
