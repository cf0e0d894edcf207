"""Evaluation machinery: per-placement accuracy against settle outcomes,
per-object diversity over ground-truth placement types, and report
tables (objects as columns, average last).

A settled pose matches a placement type when its body up-axis is within
the match threshold of the type's mode (the z-quotient distance), so a
turn about the plane normal never changes which type a pose reaches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clustering import TypeModel
from .mesh import TriMesh
from .placements import DEFAULT_MARGIN_EPS, Placement, SettleDiverged, settle_batch
from .rotations import geodesic_distance, z_quotient_distances

DEG = np.pi / 180.0


class DegenerateDiversity(ValueError):
    """Diversity is undefined with fewer than two ground-truth types."""


@dataclass(frozen=True)
class AccuracyThresholds:
    max_delta_d: float = 10.0  # degrees
    max_delta_h: float = 0.02  # meters

    def __post_init__(self):
        for name in ("max_delta_d", "max_delta_h"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"thresholds must be finite and positive, got {name}={value!r}")


def placement_accuracy(
    before: Placement, after: Placement, t: AccuracyThresholds = AccuracyThresholds()
) -> bool:
    """True iff the settled pose stayed within the orientation and height
    thresholds of the predicted pose (boundary values accepted)."""
    delta_d = geodesic_distance(before.rotation, after.rotation) / DEG
    delta_h = abs(float(before.translation[2]) - float(after.translation[2]))
    return delta_d <= t.max_delta_d and delta_h <= t.max_delta_h


def diversity_score(
    predicted: list[np.ndarray],
    gt_model: TypeModel,
    initial_type: int,
    match_threshold: float = 15.0 * DEG,
) -> float:
    """m / (n - 1): matched non-initial ground-truth types over all
    non-initial types.

    A type is matched when some predicted rotation is within
    ``match_threshold`` z-quotient distance of its mode.
    """
    n = len(gt_model.modes)
    if n < 2:
        raise DegenerateDiversity(f"need >= 2 ground-truth types, got {n}")
    if not predicted:
        return 0.0
    predicted = np.stack(predicted)
    matched = sum(
        1
        for k, mode in enumerate(gt_model.modes)
        if k != initial_type
        and (z_quotient_distances(mode, predicted) <= match_threshold).any()
    )
    return matched / (n - 1)


@dataclass
class ObjectEval:
    object_id: str
    accuracy: float
    diversity: float
    n_predictions: int
    n_stable: int

    def to_json_dict(self) -> dict:
        return {
            "object_id": self.object_id,
            "accuracy": float(self.accuracy),
            "diversity": float(self.diversity),
            "n_predictions": self.n_predictions,
            "n_stable": self.n_stable,
        }


@dataclass
class EvalReport:
    rows: list[ObjectEval]

    @property
    def average_accuracy(self) -> float:
        return float(np.mean([r.accuracy for r in self.rows]))

    @property
    def average_diversity(self) -> float:
        return float(np.mean([r.diversity for r in self.rows]))

    def to_json_dict(self) -> dict:
        return {
            "objects": [r.to_json_dict() for r in self.rows],
            "average_accuracy": self.average_accuracy,
            "average_diversity": self.average_diversity,
        }


def evaluate_run(
    predictions: list[Placement],
    mesh: TriMesh,
    gt_model: TypeModel,
    t: AccuracyThresholds = AccuracyThresholds(),
    object_id: str = "object",
    match_threshold: float = 15.0 * DEG,
    margin_eps: float = DEFAULT_MARGIN_EPS,
) -> ObjectEval:
    """Settle every prediction, all in one ``settle_batch`` that rests a
    drop once its margin reaches margin_eps, and score accuracy /
    diversity.

    Diverged settles count as inaccurate.  The initial type is the
    ground-truth type nearest the first prediction; its matches are
    excluded from diversity per the m / (n - 1) rule.  A type counts as
    reached when an accurate settled pose is within ``match_threshold``
    of its mode.
    """
    if not predictions:
        raise ValueError("predictions must be non-empty")
    stable_rotations: list[np.ndarray] = []
    hits = 0
    settled = settle_batch(mesh, np.stack([p.rotation for p in predictions]),
                           margin_eps=margin_eps)
    for p, after in zip(predictions, settled):
        if isinstance(after, SettleDiverged):
            continue
        if placement_accuracy(p, after, t):
            hits += 1
            stable_rotations.append(after.rotation)
    accuracy = hits / len(predictions)

    d = z_quotient_distances(predictions[0].rotation, np.stack(gt_model.modes))
    initial_type = int(np.argmin(d))
    diversity = diversity_score(
        stable_rotations, gt_model, initial_type, match_threshold
    )
    return ObjectEval(
        object_id=object_id,
        accuracy=accuracy,
        diversity=diversity,
        n_predictions=len(predictions),
        n_stable=len(stable_rotations),
    )


def format_table(report: EvalReport) -> str:
    """Plain-text metric table: one column per object plus an average
    column, accuracy and diversity rows."""
    ids = [r.object_id for r in report.rows] + ["average"]
    acc = [r.accuracy for r in report.rows] + [report.average_accuracy]
    div = [r.diversity for r in report.rows] + [report.average_diversity]
    width = max(12, max(len(i) for i in ids) + 2)
    header = "metric".ljust(20) + "".join(i.rjust(width) for i in ids)
    lines = [header, "-" * len(header)]
    for name, vals in [("accuracy", acc), ("diversity", div)]:
        lines.append(name.ljust(20) + "".join(f"{v:.3f}".rjust(width) for v in vals))
    return "\n".join(lines)
