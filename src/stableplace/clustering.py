"""MeanShift clustering of orientations modulo z-rotation.

Distances are z-quotient geodesic distances; window means are chordal
averages of z-aligned rotations in the 6D continuous representation,
re-orthonormalized.  The mode count emerges from the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rotations import (
    check_rotation,
    rotation_from_sixd,
    z_align,
    z_quotient_distance,
    z_quotient_distances,
)

DEG = np.pi / 180.0


@dataclass
class TypeModel:
    """Orientation-type model: cluster modes with an assignment radius."""

    modes: list[np.ndarray]
    bandwidth: float  # radians
    assign_threshold: float  # radians

    def to_json_dict(self) -> dict:
        return {
            "bandwidth": float(self.bandwidth),
            "assign_threshold": float(self.assign_threshold),
            "modes": [[float(x) for x in m.ravel()] for m in self.modes],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TypeModel":
        return cls(
            modes=[
                check_rotation(np.array(m, dtype=float).reshape(3, 3))
                for m in d["modes"]
            ],
            bandwidth=float(d["bandwidth"]),
            assign_threshold=float(d["assign_threshold"]),
        )


def _window_mean(mean: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Chordal 6D average of neighbors, each z-aligned to the current
    mean, re-orthonormalized by Gram-Schmidt."""
    aligned = np.stack([z_align(r, mean) for r in neighbors])
    sixd = aligned[:, :, :2].mean(axis=0)  # average first two columns
    return rotation_from_sixd(sixd.T)


def mean_shift_orientations(
    rotations: list[np.ndarray],
    bandwidth: float = 15.0 * DEG,
    assign_threshold: float | None = None,
    max_iter: int = 200,
    shift_tol: float = 1e-6,
) -> tuple[TypeModel, list[int]]:
    """Flat-kernel MeanShift over the z-rotation quotient of SO(3).

    Every input seeds a shift iterated to convergence; converged means
    within one bandwidth of an existing mode merge into it, numbering
    modes by first occurrence.  Returns the model and per-input labels.
    """
    if len(rotations) == 0:
        raise ValueError("need at least one rotation")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    rs = np.stack([np.asarray(r, dtype=float) for r in rotations])

    converged: list[np.ndarray] = []
    for seed in rs:
        mean = seed
        for _ in range(max_iter):
            d = z_quotient_distances(mean, rs)
            neighbors = rs[d <= bandwidth]
            new_mean = _window_mean(mean, neighbors)
            shift = z_quotient_distance(new_mean, mean)
            mean = new_mean
            if shift < shift_tol:
                break
        converged.append(mean)

    modes: list[np.ndarray] = []
    for mean in converged:
        if not any(z_quotient_distance(mean, m) <= bandwidth for m in modes):
            modes.append(mean)

    model = TypeModel(
        modes=modes,
        bandwidth=bandwidth,
        assign_threshold=bandwidth if assign_threshold is None else assign_threshold,
    )
    mode_stack = np.stack(modes)
    labels = [int(np.argmin(z_quotient_distances(r, mode_stack))) for r in rs]
    return model, labels


def assign_type(r: np.ndarray, model: TypeModel) -> int | None:
    """Nearest mode by z-quotient distance, or None beyond the assignment
    threshold.  Ties resolve to the lowest mode index."""
    if not model.modes:
        raise ValueError("model has no modes")
    d = z_quotient_distances(r, np.stack(model.modes))
    k = int(np.argmin(d))
    return k if d[k] <= model.assign_threshold else None
