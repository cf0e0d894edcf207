"""MeanShift clustering of orientations modulo z-rotation.

A placement type is a stable placement up to a turn about the plane
normal, so it is a point on the sphere of body up-axes r.T @ z-hat.
MeanShift runs on those unit vectors with angular distances, and each
mode is stored as the canonical rotation taking its up-axis to z-hat,
the rotation ``enumerate_stable`` emits.  The mode count emerges from the
data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .placements import _json_number, _json_object, _json_rotation
from .rotations import angle_between, rotation_between, z_quotient_distances

DEG = np.pi / 180.0
Z_HAT = np.array([0.0, 0.0, 1.0])
# MeanShift rounds at most, and the shift (radians) below which a mean stops.
MAX_ITER = 200
SHIFT_TOL = 1e-6


@dataclass
class TypeModel:
    """Orientation-type model: cluster modes with an assignment radius.

    Modes are kept as given; two modes may share an up-axis."""

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
        d = _json_object(d, "model")
        modes, bandwidth, threshold = d["modes"], d["bandwidth"], d["assign_threshold"]
        if not (isinstance(modes, list) and modes):
            raise ValueError(f"modes must be a non-empty list, got {modes!r}")
        if not _json_number(bandwidth, "bandwidth") > 0:
            raise ValueError(f"bandwidth must be a finite number > 0, got {bandwidth!r}")
        if not _json_number(threshold, "assign_threshold") >= 0:
            raise ValueError(f"assign_threshold must be a finite number >= 0, got {threshold!r}")
        return cls(
            modes=[_json_rotation(m, "modes") for m in modes],
            bandwidth=float(bandwidth),
            assign_threshold=float(threshold),
        )


def mean_shift_orientations(
    rotations: list[np.ndarray],
    bandwidth: float = 15.0 * DEG,
) -> tuple[TypeModel, list[int]]:
    """Flat-kernel MeanShift over the body up-axes of ``rotations``.

    Every input seeds a mean; each round moves all still-moving means at
    once to the normalized sum of the up-axes within ``bandwidth`` of
    them, for at most ``MAX_ITER`` rounds.  A mean stops once it shifts by
    less than ``SHIFT_TOL``, or when its window is empty.  Converged means
    within one bandwidth of an existing mode merge into it, numbering
    modes by first occurrence.  Returns the model, whose assignment
    threshold is the bandwidth, and per-input labels.
    """
    if len(rotations) == 0:
        raise ValueError("need at least one rotation")
    if not (np.isfinite(bandwidth) and bandwidth > 0):
        raise ValueError(f"bandwidth must be finite and positive, got {bandwidth}")
    ups = np.stack([np.asarray(r, dtype=float)[2] for r in rotations])

    means = ups.copy()
    moving = np.arange(len(ups))
    for _ in range(MAX_ITER):
        if not moving.size:
            break
        sums = (angle_between(means[moving, None], ups) <= bandwidth) @ ups
        norms = np.linalg.norm(sums, axis=1)
        live = norms > 0  # an empty window stops its mean
        moving, new = moving[live], sums[live] / norms[live, None]
        shift = angle_between(new, means[moving])
        means[moving] = new
        moving = moving[shift >= SHIFT_TOL]

    close = (angle_between(means[:, None], means) <= bandwidth).tolist()
    kept: list[int] = []
    for i, row in enumerate(close):
        if not any(row[k] for k in kept):
            kept.append(i)
    modes = rotation_between(means[kept], Z_HAT)

    model = TypeModel(modes=list(modes), bandwidth=bandwidth, assign_threshold=bandwidth)
    labels = np.argmin(angle_between(ups[:, None], modes[:, 2, :]), axis=1)
    return model, labels.tolist()


def assign_type(r: np.ndarray, model: TypeModel) -> int | None:
    """Nearest mode by z-quotient distance, or None beyond the assignment
    threshold.  Ties resolve to the lowest mode index."""
    if not model.modes:
        raise ValueError("model has no modes")
    d = z_quotient_distances(r, np.stack(model.modes))
    k = int(np.argmin(d))
    return k if d[k] <= model.assign_threshold else None
