import itertools

import numpy as np
import pytest

from stableplace.losses import (
    DisplacementField,
    EmptyField,
    EmptySet,
    RefineLossWeights,
    chamfer_geodesic_loss,
    predicted_plane_vector,
    refine_loss,
)
from stableplace.rotations import poly_geodesic_distance, random_rotation, rot_z

from conftest import random_rotations


def random_field(rng, m):
    return DisplacementField(
        points=rng.normal(size=(m, 3)), displacements=rng.normal(size=(m, 3))
    )


class TestChamferGeodesicLoss:
    def test_matched_sets_are_exactly_zero(self, poly):
        # self-matches hit t = 3 where the surrogate is exactly zero
        s = [np.eye(3), rot_z(np.pi / 2)]
        value, _ = chamfer_geodesic_loss(s, s, poly)
        assert value == pytest.approx(0.0, abs=2 * len(s) * poly.max_fit_error)

    def test_singletons_sum_both_terms(self, poly):
        d, _ = poly_geodesic_distance(poly, np.eye(3), rot_z(np.pi))
        value, _ = chamfer_geodesic_loss([np.eye(3)], [rot_z(np.pi)], poly)
        assert value == pytest.approx(2 * d, abs=1e-12)
        # the surrogate carries the ~0.1 rad endpoint fit error at t = -1
        assert value == pytest.approx(2 * np.pi, abs=2 * poly.max_fit_error + 1e-9)

    def test_empty_set_rejected(self, poly):
        with pytest.raises(EmptySet):
            chamfer_geodesic_loss([], [np.eye(3)], poly)
        with pytest.raises(EmptySet):
            chamfer_geodesic_loss([np.eye(3)], [], poly)

    def test_permutation_invariance(self, poly):
        sg = random_rotations(20, 4)
        st_ = random_rotations(21, 6)
        v0, _ = chamfer_geodesic_loss(sg, st_, poly)
        v1, _ = chamfer_geodesic_loss(sg[::-1], st_, poly)
        v2, _ = chamfer_geodesic_loss(sg, st_[::-1], poly)
        assert v0 == pytest.approx(v1, abs=1e-12)
        assert v0 == pytest.approx(v2, abs=1e-12)

    def test_self_loss_bounded_by_fit_error(self, poly):
        for seed in range(5):
            s = random_rotations(30 + seed, 4)
            value, _ = chamfer_geodesic_loss(s, s, poly)
            assert abs(value) <= 2 * len(s) * poly.max_fit_error + 1e-9

    def test_gradient_against_finite_differences(self, poly):
        rng = np.random.default_rng(22)
        h = 1e-6
        worst = 0.0
        for _ in range(20):
            sg = [random_rotation(rng) for _ in range(3)]
            st_ = [random_rotation(rng) for _ in range(5)]
            _, grads = chamfer_geodesic_loss(sg, st_, poly)
            for gi in range(3):
                fd = np.zeros((3, 3))
                for i in range(3):
                    for j in range(3):
                        sp = [r.copy() for r in sg]
                        sm = [r.copy() for r in sg]
                        sp[gi][i, j] += h
                        sm[gi][i, j] -= h
                        fd[i, j] = (
                            chamfer_geodesic_loss(sp, st_, poly)[0]
                            - chamfer_geodesic_loss(sm, st_, poly)[0]
                        ) / (2 * h)
                denom = max(np.abs(fd).max(), 1e-8)
                worst = max(worst, np.abs(grads[gi] - fd).max() / denom)
        assert worst <= 1e-4


class TestRefineLoss:
    def test_perfect_field_is_zero(self):
        rng = np.random.default_rng(23)
        # dyadic coordinates keep v_gt - p and p + v exact in IEEE
        p = rng.integers(-8, 8, size=(7, 3)) / 4.0
        v_gt = np.array([0.0, 0.0, 0.5])
        f = DisplacementField(points=p, displacements=v_gt[None, :] - p)
        value, grads = refine_loss(f, v_gt)
        assert value == 0.0
        assert np.allclose(grads, 0.0)

    def test_single_point_hand_value(self):
        f = DisplacementField(points=np.zeros((1, 3)), displacements=np.zeros((1, 3)))
        value, _ = refine_loss(f, np.array([0.0, 0.0, 1.0]), RefineLossWeights(1.0, 1.0, 1.0))
        assert value == pytest.approx(0.5)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(24)
        f = random_field(rng, 9)
        v_gt = rng.normal(size=3)
        perm = rng.permutation(9)
        fp = DisplacementField(points=f.points[perm], displacements=f.displacements[perm])
        assert refine_loss(f, v_gt)[0] == pytest.approx(refine_loss(fp, v_gt)[0], rel=1e-12)

    def test_variance_term_zero_iff_targets_coincide(self):
        rng = np.random.default_rng(25)
        p = rng.normal(size=(6, 3))
        target = np.array([1.0, -2.0, 3.0])
        f = DisplacementField(points=p, displacements=target[None, :] - p)
        w = RefineLossWeights(alpha=0.0, beta=1.0)
        assert refine_loss(f, np.zeros(3), w)[0] == pytest.approx(0.0, abs=1e-24)
        f2 = random_field(rng, 6)
        spread = np.ptp(f2.points + f2.displacements, axis=0).max()
        assert spread > 1e-3
        assert refine_loss(f2, np.zeros(3), w)[0] > 0.0

    def test_empty_field_rejected(self):
        with pytest.raises(EmptyField):
            DisplacementField(points=np.zeros((0, 3)), displacements=np.zeros((0, 3)))

    @pytest.mark.parametrize("v_gt", [[0.5], [0.0, 0.5], [[0.0, 0.0, 0.5]], 0.5])
    def test_v_gt_must_be_one_vector(self, v_gt):
        # a (1,) target used to broadcast: [0.5] on this field gave 0.375
        f = DisplacementField(points=np.zeros((4, 3)), displacements=np.zeros((4, 3)))
        with pytest.raises(ValueError, match="v_gt"):
            refine_loss(f, np.asarray(v_gt))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["alpha", "beta", "smooth_l1_transition"])
    def test_non_finite_weights_rejected(self, name, bad):
        with pytest.raises(ValueError, match="finite"):
            RefineLossWeights(**{name: bad})

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(26)
        h = 1e-6
        worst = 0.0
        for _ in range(50):
            f = random_field(rng, int(rng.integers(1, 10)))
            v_gt = rng.normal(size=3)
            w = RefineLossWeights(
                alpha=float(rng.uniform(0.1, 2.0)),
                beta=float(rng.uniform(0.1, 2.0)),
                smooth_l1_transition=float(rng.uniform(0.5, 2.0)),
            )
            _, grads = refine_loss(f, v_gt, w)
            fd = np.zeros_like(grads)
            for i in range(f.points.shape[0]):
                for j in range(3):
                    dp = f.displacements.copy()
                    dm = f.displacements.copy()
                    dp[i, j] += h
                    dm[i, j] -= h
                    fp = DisplacementField(points=f.points, displacements=dp)
                    fm = DisplacementField(points=f.points, displacements=dm)
                    fd[i, j] = (refine_loss(fp, v_gt, w)[0] - refine_loss(fm, v_gt, w)[0]) / (2 * h)
            denom = max(np.abs(fd).max(), 1e-8)
            worst = max(worst, np.abs(grads - fd).max() / denom)
        assert worst <= 1e-4


class TestPredictedPlaneVector:
    def test_perfect_field_recovers_target(self):
        rng = np.random.default_rng(27)
        p = rng.normal(size=(5, 3))
        v_gt = np.array([0.0, 0.0, 0.5])
        f = DisplacementField(points=p, displacements=v_gt[None, :] - p)
        assert np.allclose(predicted_plane_vector(f), v_gt)

    def test_two_point_mean(self):
        f = DisplacementField(
            points=np.array([[1.0, 0, 0], [-1.0, 0, 0]]),
            displacements=np.array([[-1.0, 0, 2.0], [1.0, 0, 2.0]]),
        )
        assert np.allclose(predicted_plane_vector(f), [0.0, 0.0, 2.0])

    def test_matches_row_mean_oracle(self):
        rng = np.random.default_rng(28)
        f = random_field(rng, 40)
        oracle = np.zeros(3)
        for i in range(40):
            oracle += f.points[i] + f.displacements[i]
        oracle /= 40
        assert np.abs(predicted_plane_vector(f) - oracle).max() < 1e-12


# --- byte identity with the loop kernels --------------------------------
#
# The kernels above were rewritten without changing a single output bit.
# The functions below are the earlier loop implementations, kept as the
# reference: every value and gradient must match them byte for byte.


def _reference_polyval(coeffs, t):
    acc = np.zeros_like(t)
    for ci in coeffs[::-1]:
        acc = acc * t + ci
    return acc


def _reference_polyval_deriv(coeffs, t):
    acc = np.zeros_like(t)
    for i in range(len(coeffs) - 1, 0, -1):
        acc = acc * t + i * coeffs[i]
    return acc


def _reference_chamfer(sg, st, c):
    a = np.stack([np.asarray(r, dtype=float) for r in sg])
    b = np.stack([np.asarray(r, dtype=float) for r in st])
    t = np.einsum("nij,mij->nm", a, b)
    d = (t - 3.0) * _reference_polyval(c.a, t)
    dprime = _reference_polyval(c.a, t) + (t - 3.0) * _reference_polyval_deriv(c.a, t)
    value = 0.0
    grads = np.zeros_like(a)
    j_star = np.argmin(d, axis=1)
    for i, j in enumerate(j_star):
        value += d[i, j]
        grads[i] += dprime[i, j] * b[j]
    i_star = np.argmin(d, axis=0)
    for j, i in enumerate(i_star):
        value += d[i, j]
        grads[i] += dprime[i, j] * b[j]
    return float(value), grads


def _reference_poly_geodesic_distance(c, rg, rt):
    rg = np.asarray(rg, dtype=float)
    rt = np.asarray(rt, dtype=float)
    t = np.asarray(float(np.sum(rg * rt)))  # a 0-d array, as it was
    f = _reference_polyval(c.a, t)
    value = (t - 3.0) * f
    slope = f + (t - 3.0) * _reference_polyval_deriv(c.a, t)
    return float(value), float(slope) * rt


def _reference_refine(f, v_gt, w=RefineLossWeights()):
    v_gt = np.asarray(v_gt, dtype=float)
    p, v = f.points, f.displacements
    m = p.shape[0]
    resid = (v_gt[None, :] - p) - v
    beta = w.smooth_l1_transition
    ad = np.abs(resid)
    quad = ad < beta
    sl1 = np.where(quad, 0.5 * resid * resid / beta, ad - 0.5 * beta)
    sl1_grad = np.where(quad, resid / beta, np.sign(resid))
    field_term = float(sl1.sum()) / m
    q = p + v
    q0 = q - q[0]
    dev = q0 - q0.mean(axis=0)[None, :]
    var_term = float((dev * dev).sum()) / m
    value = w.alpha * field_term + w.beta * var_term
    grads = -w.alpha / m * sl1_grad + w.beta / m * 2.0 * dev
    return value, grads


def _bytes(result):
    value, grads = result
    assert type(value) is float
    return np.float64(value).tobytes(), np.asarray(grads).tobytes()


def _repeated_sets(seed):
    # duplicate rotations tie in the argmin, and most ground-truth
    # rotations share one nearest generated rotation (repeated i_star)
    r = random_rotations(seed, 4)
    sg = [r[0], r[1], r[0], r[2], r[0], r[1]]
    st = [r[0], r[0], r[0], r[3], r[1], r[0], r[3]]
    return sg, st


def _axis_aligned_rotations():
    """The 24 rotations whose entries are all 0 or +-1."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product([1.0, -1.0], repeat=3):
            r = np.zeros((3, 3))
            r[range(3), perm] = signs
            if np.linalg.det(r) > 0:
                out.append(r)
    return out


class TestKernelsMatchReferenceBytes:
    @pytest.mark.parametrize("n,m", [(128, 128), (8, 8), (1, 1), (3, 17), (17, 3)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chamfer_random_sets(self, poly, n, m, seed):
        sg = random_rotations(100 + seed, n)
        st_ = random_rotations(200 + seed, m)
        assert _bytes(chamfer_geodesic_loss(sg, st_, poly)) == _bytes(
            _reference_chamfer(sg, st_, poly)
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chamfer_repeated_rotations(self, poly, seed):
        sg, st_ = _repeated_sets(seed)
        for a, b in [(sg, st_), (st_, sg), (sg, sg), (sg * 20, st_ * 30)]:
            assert _bytes(chamfer_geodesic_loss(a, b, poly)) == _bytes(
                _reference_chamfer(a, b, poly)
            )

    def test_chamfer_at_trace_three_and_minus_one(self, poly):
        # tr(I I^T) = 3 and tr(I Rz(pi)^T) = -1, both exactly
        eye, flip = np.eye(3), rot_z(np.pi)
        for sg, st_ in [([eye], [eye]), ([eye], [flip]), ([eye, flip], [flip, eye, eye])]:
            assert _bytes(chamfer_geodesic_loss(sg, st_, poly)) == _bytes(
                _reference_chamfer(sg, st_, poly)
            )

    def test_poly_geodesic_distance(self, poly):
        pairs = list(zip(random_rotations(41, 50), random_rotations(42, 50)))
        pairs += [(np.eye(3), np.eye(3)), (np.eye(3), rot_z(np.pi))]
        for rg, rt in pairs:
            assert _bytes(poly_geodesic_distance(poly, rg, rt)) == _bytes(
                _reference_poly_geodesic_distance(poly, rg, rt)
            )

    @pytest.mark.parametrize("t", [3.0, -1.0, 0.0, 1.2345, 1e300, np.inf, np.nan])
    def test_polycoeffs_scalar(self, poly, t):
        t0 = np.asarray(t)
        with np.errstate(all="ignore"):
            f = _reference_polyval(poly.a, t0)
            fd = _reference_polyval_deriv(poly.a, t0)
            expected = [f, fd, (t0 - 3.0) * f, f + (t0 - 3.0) * fd]
            got = [poly.factor(t), poly.factor_derivative(t), poly.value(t),
                   poly.derivative(t)]
        assert [np.float64(x).tobytes() for x in got] == [
            np.float64(x).tobytes() for x in expected
        ]
        assert [np.float64(x).tobytes() for x in poly.value_and_derivative(t)] == [
            np.float64(x).tobytes() for x in expected[2:]
        ]

    def test_polycoeffs_array(self, poly):
        t = np.r_[np.linspace(-1.0, 3.0, 103), 3.0, -1.0].reshape(7, 15)
        f = _reference_polyval(poly.a, t)
        fd = _reference_polyval_deriv(poly.a, t)
        expected = [f, fd, (t - 3.0) * f, f + (t - 3.0) * fd]
        got = [poly.factor(t), poly.factor_derivative(t), poly.value(t),
               poly.derivative(t)]
        assert [x.tobytes() for x in got] == [x.tobytes() for x in expected]
        assert all(x.shape == t.shape for x in got)

    @pytest.mark.parametrize("entry", [-0.0, np.inf, -np.inf, np.nan])
    def test_poly_geodesic_distance_special_entries(self, poly, entry):
        # the trace is summed as Python floats in np.sum's order
        for rg, rt in zip(random_rotations(43, 9), random_rotations(44, 9)):
            for k in range(9):
                rg = rg.copy()
                rg.flat[k] = entry
                for a, b in [(rg, rt), (rt, rg), (rg, rg)]:
                    with np.errstate(all="ignore"):
                        expected = _reference_poly_geodesic_distance(poly, a, b)
                    assert _bytes(poly_geodesic_distance(poly, a, b)) == _bytes(expected)

    def test_poly_geodesic_distance_signs_of_zero(self, poly):
        # all nine products -0.0, all +0.0, and mixed, at t = +-0
        for rg, rt in [(-np.zeros((3, 3)), np.ones((3, 3))), (np.zeros((3, 3)), -np.ones((3, 3))),
                       (np.diag([-0.0, 0.0, -0.0]), np.eye(3))]:
            assert _bytes(poly_geodesic_distance(poly, rg, rt)) == _bytes(
                _reference_poly_geodesic_distance(poly, rg, rt))

    def test_poly_geodesic_distance_at_trace_three(self, poly):
        # every proper signed permutation against itself gives t = 3 exactly
        for r in _axis_aligned_rotations():
            assert float(np.sum(r * r)) == 3.0
            assert _bytes(poly_geodesic_distance(poly, r, r)) == _bytes(
                _reference_poly_geodesic_distance(poly, r, r))

    def test_poly_geodesic_distance_memory_orders(self, poly):
        # the kernel sums in C order whatever the memory order, so every
        # layout gives the reference's bits on C-ordered copies
        for rg, rt in zip(random_rotations(45, 20), random_rotations(46, 20)):
            rg = rg * 10.0 ** np.arange(-4, 5).reshape(3, 3)
            for a, b in [(np.asfortranarray(rg), np.asfortranarray(rt)), (rg.T, rt.T),
                         (rg[::-1, ::-1], rt[::-1, ::-1]), (np.asfortranarray(rg), rt)]:
                assert _bytes(poly_geodesic_distance(poly, a, b)) == _bytes(
                    _reference_poly_geodesic_distance(
                        poly, np.ascontiguousarray(a), np.ascontiguousarray(b)))

    def test_poly_geodesic_distance_any_layout_gives_c_order_bits(self, poly):
        rng = np.random.default_rng(47)
        for _ in range(200):
            rg, rt = rng.normal(size=(2, 3, 3)) * 10.0 ** rng.uniform(-4, 4, size=(2, 3, 3))
            want = _bytes(poly_geodesic_distance(poly, rg, rt))
            strided = np.zeros((2, 6, 6))
            strided[:, ::2, ::2] = rg, rt
            for a, b in [(np.asfortranarray(rg), np.asfortranarray(rt)),
                         (strided[0, ::2, ::2], strided[1, ::2, ::2]),
                         (rg.T.copy().T, rt)]:
                assert _bytes(poly_geodesic_distance(poly, a, b)) == want

    @pytest.mark.parametrize("t", [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300])
    def test_value_and_derivative_scalar(self, poly, t):
        # a float runs no numpy call, and gives the bits of numpy's polyval
        t0 = np.asarray(t)
        with np.errstate(all="ignore"):
            f = _reference_polyval(poly.a, t0)
            fd = _reference_polyval_deriv(poly.a, t0)
            expected = [(t0 - 3.0) * f, f + (t0 - 3.0) * fd]
        got = poly.value_and_derivative(t)
        assert all(type(x) is float for x in got)
        assert [np.float64(x).tobytes() for x in got] == [
            np.float64(x).tobytes() for x in expected
        ]

    @pytest.mark.parametrize("seed", [4, 5])
    def test_chamfer_128(self, poly, seed):
        sg, st_ = random_rotations(500 + seed, 128), random_rotations(600 + seed, 128)
        assert _bytes(chamfer_geodesic_loss(sg, st_, poly)) == _bytes(
            _reference_chamfer(sg, st_, poly)
        )

    def test_chamfer_axis_aligned_rotations(self, poly):
        # exact zeros in b times negative slopes give -0 products, which
        # the reference turns into +0 by adding them to zeros
        r = _axis_aligned_rotations()
        rng = np.random.default_rng(320)
        for k in range(20):
            sg = [r[i] for i in rng.integers(0, 24, size=1 + k % 7)]
            st_ = [r[i] for i in rng.integers(0, 24, size=1 + k % 5)]
            got = chamfer_geodesic_loss(sg, st_, poly)
            assert _bytes(got) == _bytes(_reference_chamfer(sg, st_, poly))
            assert not np.signbit(got[1][got[1] == 0.0]).any()

    @pytest.mark.parametrize("m", [2048, 1, 7])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_refine_random_fields(self, m, seed):
        rng = np.random.default_rng(300 + seed)
        # row scales over six decades make the column sums round often
        scale = 10 ** rng.uniform(-3, 3, size=(m, 1))
        f = DisplacementField(
            points=0.05 * rng.normal(size=(m, 3)) * scale,
            displacements=0.05 * rng.normal(size=(m, 3)),
        )
        v_gt = 0.1 * rng.normal(size=3)
        for w in [RefineLossWeights(), RefineLossWeights(0.3, 1.7, 0.02)]:
            assert _bytes(refine_loss(f, v_gt, w)) == _bytes(_reference_refine(f, v_gt, w))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_refine_any_layout_gives_c_order_bits(self, seed):
        rng = np.random.default_rng(330 + seed)
        m = 2048
        scale = 10 ** rng.uniform(-3, 3, size=(m, 1))
        p = 0.05 * rng.normal(size=(m, 3)) * scale
        v = 0.05 * rng.normal(size=(m, 3))
        v_gt = 0.1 * rng.normal(size=3)
        want = _bytes(refine_loss(DisplacementField(p, v), v_gt))
        wide = np.zeros((2, 2 * m, 6))
        wide[:, ::2, ::2] = p, v
        for pts, disp in [(np.asfortranarray(p), np.asfortranarray(v)),
                          (wide[0, ::2, ::2], wide[1, ::2, ::2]),
                          (np.asfortranarray(p), v)]:
            f = DisplacementField(pts, disp)
            assert f.points.flags.c_contiguous and f.displacements.flags.c_contiguous
            assert _bytes(refine_loss(f, v_gt)) == want

    def test_refine_residual_at_transition(self):
        # resid = (0 - 0) - v is exactly +-beta, -0.0 or 0.0
        beta = 0.25
        v = np.array([[-beta, beta, -0.0], [0.0, -2 * beta, beta / 2]])
        f = DisplacementField(points=np.zeros((2, 3)), displacements=v)
        for w in [RefineLossWeights(1.0, 0.5, beta), RefineLossWeights(1.0, 0.0, beta)]:
            got = refine_loss(f, np.zeros(3), w)
            assert _bytes(got) == _bytes(_reference_refine(f, np.zeros(3), w))
        # at |resid| = beta the smooth-L1 slope is already +-1
        assert np.array_equal(got[1], [[-0.5, 0.5, 0.0], [0.0, -0.5, 0.25]])

    def test_refine_identical_targets(self):
        rng = np.random.default_rng(310)
        p = rng.integers(-8, 8, size=(9, 3)) / 4.0
        f = DisplacementField(points=p, displacements=np.array([1.0, -2.0, 3.0]) - p)
        w = RefineLossWeights(alpha=0.0, beta=1.0)
        got = refine_loss(f, np.zeros(3), w)
        assert got[0] == 0.0  # the variance term is exactly zero
        assert _bytes(got) == _bytes(_reference_refine(f, np.zeros(3), w))

    def test_refine_nan_displacement(self):
        rng = np.random.default_rng(311)
        v = rng.normal(size=(5, 3))
        v[2, 1] = np.nan
        f = DisplacementField(points=rng.normal(size=(5, 3)), displacements=v)
        got = refine_loss(f, np.zeros(3))
        assert np.isnan(got[0])
        assert _bytes(got) == _bytes(_reference_refine(f, np.zeros(3)))
