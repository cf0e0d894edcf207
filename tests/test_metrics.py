import numpy as np
import pytest

from stableplace.clustering import TypeModel, mean_shift_orientations
from stableplace.metrics import (
    DEG,
    AccuracyThresholds,
    DegenerateDiversity,
    EvalReport,
    diversity_score,
    evaluate_run,
    format_table,
    placement_accuracy,
)
from stableplace import metrics
from stableplace.placements import (
    Placement,
    SettleDiverged,
    enumerate_stable,
    settle_batch,
)
from stableplace.rotations import rot_x, rot_y, rot_z


def place(rotation, z):
    return Placement(rotation=np.asarray(rotation, dtype=float),
                     translation=np.array([0.0, 0.0, float(z)]))


class TestPlacementAccuracy:
    def test_identical_pose_passes(self):
        assert placement_accuracy(place(np.eye(3), 0.5), place(np.eye(3), 0.5))

    def test_rotation_boundary_inclusive(self):
        before = place(np.eye(3), 0.5)
        assert placement_accuracy(before, place(rot_x(10.0 * DEG), 0.5))
        assert not placement_accuracy(before, place(rot_x(10.1 * DEG), 0.5))

    def test_height_boundary_inclusive(self):
        before = place(np.eye(3), 0.0)
        assert placement_accuracy(before, place(np.eye(3), 0.02))
        assert not placement_accuracy(before, place(np.eye(3), 0.021))

    def test_both_must_hold(self):
        before = place(np.eye(3), 0.5)
        after = place(rot_x(9.0 * DEG), 0.55)
        assert not placement_accuracy(before, after)

    def test_custom_thresholds(self):
        t = AccuracyThresholds(max_delta_d=45.0, max_delta_h=0.5)
        assert placement_accuracy(place(np.eye(3), 0.5), place(rot_x(30 * DEG), 0.9), t)

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            AccuracyThresholds(max_delta_d=0.0)
        with pytest.raises(ValueError):
            AccuracyThresholds(max_delta_h=-1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                AccuracyThresholds(max_delta_d=bad)
            with pytest.raises(ValueError):
                AccuracyThresholds(max_delta_h=bad)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_delta_d": 0.0}, "got max_delta_d=0.0"),
        ({"max_delta_d": np.inf}, "got max_delta_d=inf"),
        ({"max_delta_h": -1.0}, "got max_delta_h=-1.0"),
        ({"max_delta_h": np.nan}, "got max_delta_h=nan"),
        ({"max_delta_d": 0.0, "max_delta_h": 0.0}, "got max_delta_d=0.0"),
    ])
    def test_invalid_threshold_named(self, kwargs, message):
        with pytest.raises(ValueError, match=f"finite and positive, {message}$"):
            AccuracyThresholds(**kwargs)


def five_mode_model():
    # five distinct up-axes: +z, +y, -z, -x, +x
    modes = [np.eye(3), rot_x(np.pi / 2), rot_x(np.pi), rot_y(np.pi / 2), rot_y(-np.pi / 2)]
    return TypeModel(modes=modes, bandwidth=15.0 * DEG, assign_threshold=15.0 * DEG)


class TestDiversityScore:
    def test_three_of_four_non_initial_types(self):
        model = five_mode_model()
        predicted = [rot_x(np.pi / 2), rot_x(np.pi), rot_y(np.pi / 2)]
        assert diversity_score(predicted, model, initial_type=0) == pytest.approx(0.75)

    def test_initial_type_excluded_from_numerator(self):
        model = five_mode_model()
        # only the initial type is matched: nothing counts
        assert diversity_score([np.eye(3)], model, initial_type=0) == 0.0
        # the same prediction counts once the initial type is elsewhere
        assert diversity_score([np.eye(3)], model, initial_type=1) == pytest.approx(0.25)

    def test_all_types_matched_gives_one(self):
        model = five_mode_model()
        assert diversity_score(list(model.modes), model, initial_type=2) == 1.0

    def test_empty_predictions_score_zero(self):
        assert diversity_score([], five_mode_model(), initial_type=0) == 0.0

    def test_match_threshold_boundary(self):
        model = five_mode_model()
        near = rot_x(14.0 * DEG) @ rot_x(np.pi / 2)
        far = rot_x(16.0 * DEG) @ rot_x(np.pi / 2)
        assert diversity_score([near], model, initial_type=0) == pytest.approx(0.25)
        assert diversity_score([far], model, initial_type=0) == 0.0

    def test_quotient_matching_ignores_z_phase(self):
        model = five_mode_model()
        pred = [rot_z(1.3) @ rot_x(np.pi / 2)]
        assert diversity_score(pred, model, initial_type=0) == pytest.approx(0.25)

    def test_single_type_model_rejected(self):
        model = TypeModel(modes=[np.eye(3)], bandwidth=15 * DEG, assign_threshold=15 * DEG)
        with pytest.raises(DegenerateDiversity):
            diversity_score([np.eye(3)], model, initial_type=0)


class TestEvaluateRun:
    def test_enumerated_cube_placements_are_a_fixed_point(self, cube):
        preds = enumerate_stable(cube)
        model, _ = mean_shift_orientations([p.rotation for p in preds])
        row = evaluate_run(preds, cube, model, object_id="cube")
        assert row.accuracy == 1.0
        assert row.diversity == 1.0
        assert row.n_stable == 6

    def test_lifted_predictions_fail_height(self, cube):
        preds = enumerate_stable(cube)
        model, _ = mean_shift_orientations([p.rotation for p in preds])
        lifted = [
            Placement(rotation=p.rotation, translation=p.translation + [0, 0, 0.05])
            for p in preds
        ]
        row = evaluate_run(lifted, cube, model)
        assert row.accuracy == 0.0
        assert row.diversity == 0.0

    def test_small_tilt_settles_within_thresholds(self, cube):
        preds = enumerate_stable(cube)
        model, _ = mean_shift_orientations([p.rotation for p in preds])
        tilted = [
            Placement(rotation=rot_x(5.0 * DEG) @ p.rotation, translation=p.translation)
            for p in preds
        ]
        row = evaluate_run(tilted, cube, model)
        assert row.accuracy == 1.0

    def test_match_threshold(self, cube):
        preds = enumerate_stable(cube)
        # each mode's up-axis is 5 degrees off a placement's
        model = TypeModel(
            modes=[rot_x(5.0 * DEG) @ p.rotation for p in preds],
            bandwidth=15.0 * DEG,
            assign_threshold=15.0 * DEG,
        )
        assert evaluate_run(preds, cube, model).diversity == 1.0
        row = evaluate_run(preds, cube, model, match_threshold=4.0 * DEG)
        assert row.diversity == 0.0

    def test_one_batch_and_diverged_settle_counts_inaccurate(self, cube, monkeypatch):
        """All predictions settle in one batch; a diverged one is counted
        inaccurate and reaches no type.  The initial type is the first
        prediction's, type 0."""
        preds = enumerate_stable(cube)
        model, _ = mean_shift_orientations([p.rotation for p in preds])
        batches = []

        def last_diverges(mesh, rotations, margin_eps):
            batches.append(len(rotations))
            return [*settle_batch(mesh, rotations[:-1], margin_eps=margin_eps),
                    SettleDiverged("no pivot target vertex")]

        monkeypatch.setattr(metrics, "settle_batch", last_diverges)
        row = evaluate_run(preds, cube, model)
        assert batches == [6]
        assert row.accuracy == 5 / 6
        assert row.n_stable == 5
        assert row.diversity == 4 / 5  # type 5 is reached by no settled pose

    def test_empty_predictions_rejected(self, cube):
        model = five_mode_model()
        with pytest.raises(ValueError):
            evaluate_run([], cube, model)


class TestFormatTable:
    def test_columns_and_average(self, cube):
        preds = enumerate_stable(cube)
        model, _ = mean_shift_orientations([p.rotation for p in preds])
        row = evaluate_run(preds, cube, model, object_id="cube")
        report = EvalReport(rows=[row])
        text = format_table(report)
        assert "cube" in text and "average" in text
        assert "accuracy" in text and "diversity" in text
        assert "1.000" in text
        assert report.average_accuracy == 1.0
