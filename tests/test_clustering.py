import json

import numpy as np
import pytest

from stableplace import fixtures
from stableplace.clustering import TypeModel, assign_type, mean_shift_orientations
from stableplace.placements import enumerate_stable, generate_dataset
from stableplace.rotations import (
    geodesic_distance,
    random_rotation,
    rot_x,
    rot_y,
    rot_z,
    rotation_from_axis_angle,
    rotation_from_sixd,
    z_quotient_distance,
    z_quotient_distances,
)


def _reference_quotient_distances(r, rs):
    """Closed-form min over theta of the geodesic distance from
    Rz(theta) @ r to each of rs: the trace p cos + q sin + m22 peaks at
    hypot(p, q) + m22."""
    m = np.einsum("ij,klj->kil", r, rs)
    best = np.hypot(m[:, 0, 0] + m[:, 1, 1], m[:, 0, 1] - m[:, 1, 0]) + m[:, 2, 2]
    return np.arccos(np.clip((best - 1.0) / 2.0, -1.0, 1.0))


def _reference_z_align(r, target):
    m = r @ target.T
    return rot_z(float(np.arctan2(m[0, 1] - m[1, 0], m[0, 0] + m[1, 1]))) @ r


def reference_mean_shift(rotations, bandwidth=np.deg2rad(15.0), max_iter=200,
                         shift_tol=1e-6):
    """The earlier MeanShift on SO(3): one seed at a time, window means
    the 6D chordal average of the window z-aligned to the current mean,
    merged by first occurrence.  Its scalar distance was a sweep plus
    golden-section search converging to the closed form used here."""
    rs = np.stack([np.asarray(r, dtype=float) for r in rotations])
    converged = []
    for seed in rs:
        mean = seed
        for _ in range(max_iter):
            window = rs[_reference_quotient_distances(mean, rs) <= bandwidth]
            aligned = np.stack([_reference_z_align(r, mean) for r in window])
            new_mean = rotation_from_sixd(aligned[:, :, :2].mean(axis=0).T)
            shift = _reference_quotient_distances(new_mean, mean[None])[0]
            mean = new_mean
            if shift < shift_tol:
                break
        converged.append(mean)
    modes = []
    for mean in converged:
        if not modes or _reference_quotient_distances(mean, np.stack(modes)).min() > bandwidth:
            modes.append(mean)
    modes = np.stack(modes)
    return modes, [int(np.argmin(_reference_quotient_distances(r, modes))) for r in rs]


@pytest.fixture(scope="module")
def fixture_datasets():
    """Settled rotations of each standard fixture, 100 drops, seeds 1 and 7."""
    meshes = fixtures.standard_fixtures()
    out = {}
    for seed in (1, 7):
        records = generate_dataset(list(meshes.items()), 100, seed=seed, workers=1).records
        for name in meshes:
            out[name, seed] = [r.placement.rotation for r in records if r.object_id == name]
    return out


def noisy_cluster(rng, center, n, noise_deg):
    """Draw n rotations near `center`, each with a random z phase."""
    out = []
    for _ in range(n):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        wobble = rotation_from_axis_angle(axis, np.deg2rad(noise_deg) * rng.uniform())
        out.append(rot_z(rng.uniform(0, 2 * np.pi)) @ wobble @ center)
    return out


class TestMeanShift:
    def test_single_repeated_rotation_one_mode(self):
        rng = np.random.default_rng(31)
        r = random_rotation(rng)
        model, labels = mean_shift_orientations([r] * 12)
        assert len(model.modes) == 1
        assert labels == [0] * 12
        assert z_quotient_distance(model.modes[0], r) < 1e-6

    def test_three_well_separated_clusters(self):
        rng = np.random.default_rng(32)
        centers = [np.eye(3), rot_x(np.pi / 2), rot_x(np.pi)]
        rots, truth = [], []
        for k, c in enumerate(centers):
            rots += noisy_cluster(rng, c, 25, noise_deg=5.0)
            truth += [k] * 25
        order = rng.permutation(len(rots))
        rots = [rots[i] for i in order]
        truth = [truth[i] for i in order]
        model, labels = mean_shift_orientations(rots)
        assert len(model.modes) == 3
        # labels must be a relabelling of the ground truth partition
        mapping = {}
        for lab, t in zip(labels, truth):
            mapping.setdefault(t, lab)
            assert mapping[t] == lab
        assert len(set(mapping.values())) == 3
        for c in centers:
            d = z_quotient_distances(c, np.stack(model.modes))
            assert d.min() < np.deg2rad(3.0)

    def test_cube_dataset_recovers_six_types(self, cube):
        res = generate_dataset([("cube", cube)], 200, seed=1)
        rots = [r.placement.rotation for r in res.records]
        model, labels = mean_shift_orientations(rots)
        assert len(model.modes) == 6
        assert set(labels) == set(range(6))
        enum = np.stack([p.rotation for p in enumerate_stable(cube)])
        for mode in model.modes:
            assert z_quotient_distances(mode, enum).min() < np.deg2rad(1.0)

    def test_labels_first_occurrence_order(self):
        rng = np.random.default_rng(33)
        a, b = np.eye(3), rot_x(np.pi)
        rots = [a, b, a, b, a]
        _, labels = mean_shift_orientations(rots)
        assert labels == [0, 1, 0, 1, 0]
        del rng

    def test_z_phase_invariance_of_mode_count(self):
        rng = np.random.default_rng(34)
        base = noisy_cluster(rng, np.eye(3), 20, noise_deg=4.0)
        rephased = [rot_z(rng.uniform(0, 2 * np.pi)) @ r for r in base]
        m0, _ = mean_shift_orientations(base)
        m1, _ = mean_shift_orientations(rephased)
        assert len(m0.modes) == len(m1.modes) == 1
        assert z_quotient_distance(m0.modes[0], m1.modes[0]) < np.deg2rad(2.0)

    def test_modes_are_fixed_points(self):
        rng = np.random.default_rng(35)
        rots = noisy_cluster(rng, rot_x(0.4), 30, noise_deg=6.0)
        model, _ = mean_shift_orientations(rots)
        again, _ = mean_shift_orientations(list(model.modes))
        assert len(again.modes) == len(model.modes)
        for m0, m1 in zip(model.modes, again.modes):
            assert z_quotient_distance(m0, m1) < 1e-6

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            mean_shift_orientations([])

    @pytest.mark.parametrize("bandwidth", [0.0, -0.1, np.nan, np.inf])
    def test_bad_bandwidth_rejected(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth"):
            mean_shift_orientations([np.eye(3)], bandwidth=bandwidth)

    def test_tiny_bandwidth_runs(self):
        # an arccos angle between equal up-axes can round above 1e-12, which
        # would split an input from its duplicate; the arctan2 angle is 0
        rots = noisy_cluster(np.random.default_rng(38), rot_x(0.7), 20, noise_deg=3.0)
        rots += rots[:5]
        model, labels = mean_shift_orientations(rots, bandwidth=1e-12)
        assert len(model.modes) == 20
        assert labels == list(range(20)) + list(range(5))
        # every mode labels at least one input
        assert set(labels) == set(range(len(model.modes)))

    def test_modes_are_canonical_enumerated_rotations(self, fixture_datasets):
        # the full rotation, z phase included, matches an enumerated one
        meshes = fixtures.standard_fixtures()
        for (name, _), rots in fixture_datasets.items():
            model, _ = mean_shift_orientations(rots)
            enum = [p.rotation for p in enumerate_stable(meshes[name])]
            for mode in model.modes:
                assert min(geodesic_distance(mode, e) for e in enum) < 1e-6, name


class TestMatchesReference:
    """Same mode count and labels as the SO(3) MeanShift it replaced.  The
    two window means are different estimators: on the synthetic clusters
    (6 degrees of noise) their modes differ by up to about 2e-4 rad."""

    @staticmethod
    def check(rots, bandwidth=np.deg2rad(15.0), mode_tol=1e-3):
        ref_modes, ref_labels = reference_mean_shift(rots, bandwidth)
        model, labels = mean_shift_orientations(rots, bandwidth)
        assert len(model.modes) == len(ref_modes)
        assert labels == ref_labels
        for mode, ref in zip(model.modes, ref_modes):
            assert z_quotient_distance(mode, ref) < mode_tol

    def test_fixture_datasets(self, fixture_datasets):
        for rots in fixture_datasets.values():
            self.check(rots, mode_tol=1e-6)

    def test_synthetic_clusters(self):
        rng = np.random.default_rng(39)
        centers = [np.eye(3), rot_x(np.pi / 2), rot_x(np.pi), rot_y(np.pi / 2),
                   rot_x(np.pi / 2) @ rot_z(np.pi / 4)]
        for k in range(1, len(centers) + 1):
            rots = []
            for c in centers[:k]:
                rots += noisy_cluster(rng, c, 15, noise_deg=6.0)
            self.check([rots[i] for i in rng.permutation(len(rots))])

    def test_synthetic_clusters_other_bandwidths(self):
        rng = np.random.default_rng(40)
        rots = noisy_cluster(rng, np.eye(3), 20, 4.0) + noisy_cluster(
            rng, rot_x(np.pi / 2), 20, 4.0
        )
        for bandwidth_deg in (5.0, 10.0, 30.0):
            self.check(rots, np.deg2rad(bandwidth_deg))


class TestAssignType:
    def test_exact_mode_assignment(self):
        model, _ = mean_shift_orientations([np.eye(3), rot_x(np.pi)])
        assert assign_type(np.eye(3), model) == 0
        assert assign_type(rot_x(np.pi), model) == 1

    def test_z_rotation_invariant(self):
        rng = np.random.default_rng(36)
        model, _ = mean_shift_orientations([np.eye(3), rot_x(np.pi / 2), rot_x(np.pi)])
        for _ in range(50):
            k = int(rng.integers(0, 3))
            r = rot_z(rng.uniform(0, 2 * np.pi)) @ model.modes[k]
            assert assign_type(r, model) == k

    def test_outside_threshold_is_none(self):
        model, _ = mean_shift_orientations([np.eye(3)])
        far = rot_x(np.deg2rad(40.0))
        assert assign_type(far, model) is None
        near = rot_x(np.deg2rad(5.0))
        assert assign_type(near, model) == 0

    def test_threshold_boundary(self):
        model = TypeModel(
            modes=[np.eye(3)],
            bandwidth=np.deg2rad(15.0),
            assign_threshold=np.deg2rad(15.0),
        )
        assert assign_type(rot_x(np.deg2rad(14.9)), model) == 0
        assert assign_type(rot_x(np.deg2rad(15.1)), model) is None


class TestTypeModelSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(37)
        rots = noisy_cluster(rng, np.eye(3), 10, 3.0) + noisy_cluster(
            rng, rot_x(np.pi), 10, 3.0
        )
        model, _ = mean_shift_orientations(rots)
        # acceptance criterion 6's model: modes 0 and 4 share up-axis +z and
        # must not merge on load
        criterion_6 = TypeModel(
            modes=[np.eye(3), rot_x(np.pi / 2), rot_x(np.pi),
                   rot_x(np.pi / 2) @ rot_z(np.pi / 2) @ rot_x(np.pi / 2),
                   rot_x(np.pi / 2) @ rot_z(np.pi) @ rot_x(np.pi / 2)],
            bandwidth=0.26,
            assign_threshold=0.26,
        )
        for model in (model, criterion_6):
            d = model.to_json_dict()
            back = TypeModel.from_json_dict(json.loads(json.dumps(d)))
            assert back.to_json_dict() == d
            assert len(back.modes) == len(model.modes)
            for m0, m1 in zip(model.modes, back.modes):
                assert np.array_equal(m0, m1)
        assert len(back.modes) == 5
