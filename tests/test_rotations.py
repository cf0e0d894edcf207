import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableplace.rotations import (
    DegenerateSixD,
    InvalidAxis,
    InvalidRotation,
    PolyCoeffs,
    angle_between,
    check_rotation,
    cross,
    fit_geodesic_polynomial,
    geodesic_distance,
    poly_geodesic_distance,
    random_rotation,
    rot_x,
    rot_y,
    rot_z,
    rotation_between,
    rotation_from_axis_angle,
    rotation_from_sixd,
    sixd_from_rotation,
    z_align,
    z_quotient_distance,
    z_quotient_distances,
)

from conftest import (
    _reference_rotation_between,
    _reference_rotation_from_axis_angle,
    random_rotations,
)

X = np.array([1.0, 0.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


class TestAxisAngle:
    def test_zero_angle_is_identity(self):
        assert np.allclose(rotation_from_axis_angle(Z, 0.0), np.eye(3))

    def test_pi_about_x(self):
        assert np.allclose(rot_x(np.pi), np.diag([1.0, -1.0, -1.0]))

    def test_quarter_turn_maps_x_to_y(self):
        assert np.allclose(rot_z(np.pi / 2) @ X, [0.0, 1.0, 0.0])

    def test_non_unit_axis_rejected(self):
        with pytest.raises(InvalidAxis):
            rotation_from_axis_angle(np.array([1.0, 1.0, 0.0]), 0.3)

    @pytest.mark.parametrize("value", [1e300, np.inf])
    def test_huge_or_non_finite_rejected_without_warning(self, value):
        m = np.eye(3)
        m[0, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning fails the test
            with pytest.raises(InvalidRotation):
                check_rotation(m)

    def test_results_are_valid_rotations(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            check_rotation(rotation_from_axis_angle(axis, rng.uniform(-np.pi, np.pi)))


def _unit_rows(rng, n):
    """``n`` random unit vectors, then +-z, vectors 1e-9 and 1e-7 off +-z
    (within and beyond the 1e-15 dot-product tolerance) and the
    coordinate axes."""
    v = rng.normal(size=(n, 3))
    v = np.vstack([v, [[0, 0, 1], [0, 0, -1], [1e-9, 0, 1], [0, -1e-9, -1],
                       [-1e-9, 1e-9, 1], [1e-9, 1e-9, -1], [1e-7, 0, 1], [0, 1e-7, -1],
                       [1, 0, 0], [0, -1, 0]]])
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestStackedConstructors:
    """The stacked constructors give, row by row, the bytes of the scalar
    forms in conftest, and one input gives the bytes of its row."""

    def test_rotation_between_matches_reference(self):
        rng = np.random.default_rng(3)
        a = _unit_rows(rng, 200)
        for b in (Z, -Z, a[0], a[1]):
            got = rotation_between(a, b)
            assert got.shape == (len(a), 3, 3)
            for g, v in zip(got, a):
                expected = _reference_rotation_between(v, b).tobytes()
                assert g.tobytes() == rotation_between(v, b).tobytes() == expected

    def test_rotation_between_equal_and_opposite(self):
        b = _unit_rows(np.random.default_rng(4), 50)
        for v in b:
            got = rotation_between(np.stack([v, -v]), v)
            assert got[0].tobytes() == np.eye(3).tobytes()
            assert got[1].tobytes() == _reference_rotation_between(-v, v).tobytes()
            assert np.abs(got[1] @ -v - v).max() <= 1e-15

    def test_rotation_from_axis_angle_matches_reference(self):
        rng = np.random.default_rng(5)
        axes = _unit_rows(rng, 200)
        for angles in (
            rng.uniform(-np.pi, np.pi, len(axes)),
            np.zeros(len(axes)),
            np.full(len(axes), np.pi),
        ):
            got = rotation_from_axis_angle(axes, angles)
            for g, axis, angle in zip(got, axes, angles):
                expected = _reference_rotation_from_axis_angle(axis, angle).tobytes()
                assert g.tobytes() == rotation_from_axis_angle(axis, angle).tobytes()
                assert g.tobytes() == expected

    def test_angle_between_matches_cross_form(self):
        """The per-component angle has the bits of the np.cross, np.linalg.norm
        and np.sum form, broadcast over scales 1e-5 to 1e5 and over zero,
        infinite, NaN and -0 vectors."""
        rng = np.random.default_rng(14)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        for _ in range(20):
            a = rng.normal(size=(50, 1, 3)) * 10.0 ** rng.uniform(-5, 5, (50, 1, 1))
            b = rng.normal(size=(70, 3)) * 10.0 ** rng.uniform(-5, 5, (70, 1))
            for v in (a, b):
                hit = rng.random(v.shape) < 0.02
                v[hit] = rng.choice(special, hit.sum())
            a[:3, 0] = [[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, 0.0, 0.0]]
            b[:2] = [[-0.0, -0.0, -0.0], [1.0, -0.0, 0.0]]
            with np.errstate(invalid="ignore"):
                want = np.arctan2(np.linalg.norm(np.cross(a, b), axis=-1),
                                  np.sum(a * b, axis=-1))
                got = angle_between(a, b)
            assert got.shape == want.shape == (50, 70)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [(), (5,), (0,), (2, 4)])
    def test_shapes(self, rows):
        axes = np.broadcast_to(Z, (*rows, 3))
        assert rotation_from_axis_angle(axes, np.zeros(rows)).shape == (*rows, 3, 3)
        assert rotation_between(axes, X).shape == (*rows, 3, 3)

    def test_nan_rows_pass_through(self):
        axes = np.array([[np.nan, np.nan, np.nan], X])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rotation_from_axis_angle(axes, np.array([0.3, 0.3]))
            between = rotation_between(axes, Z)
        assert np.isnan(got[0]).all() and got[1].tobytes() == rot_x(0.3).tobytes()
        assert np.isnan(between[0]).all() and np.isfinite(between[1]).all()

    def test_non_unit_row_rejected(self):
        with pytest.raises(InvalidAxis):
            rotation_from_axis_angle(np.array([Z, [1.0, 1.0, 0.0]]), 0.3)


class TestCross:
    """``cross`` has the bits of ``np.cross`` for one pair, stacks and
    broadcast stacks, over scales 1e-5 to 1e5 and rows with signed zeros,
    infinities and NaN."""

    @staticmethod
    def _rows(rng, shape):
        v = rng.normal(size=shape) * 10.0 ** rng.uniform(-5, 5, shape[:-1] + (1,))
        hit = rng.random(shape) < 0.05
        v[hit] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], hit.sum())
        return v

    @pytest.mark.parametrize("x_shape, y_shape", [
        ((3,), (3,)),
        ((40, 3), (40, 3)),
        ((40, 3), (3,)),
        ((40, 1, 3), (40, 3, 3)),
        ((7, 1, 3), (1, 5, 3)),
        ((0, 3), (0, 3)),
    ])
    def test_matches_np_cross(self, x_shape, y_shape):
        rng = np.random.default_rng(21)
        for _ in range(20):
            x, y = self._rows(rng, x_shape), self._rows(rng, y_shape)
            with np.errstate(invalid="ignore", over="ignore"):
                want = np.cross(x, y)
                got = cross(x, y)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_signed_zero_rows(self):
        zeros = np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, 0.0, 0.0],
                          [1.0, -0.0, 0.0], [-1.0, 0.0, -0.0]])
        x, y = zeros[:, None], zeros[None]
        assert cross(x, y).tobytes() == np.cross(x, y).tobytes()


class TestGeodesicDistance:
    def test_identity(self):
        assert geodesic_distance(np.eye(3), np.eye(3)) == 0.0

    def test_half_turn(self):
        assert geodesic_distance(rot_z(np.pi), np.eye(3)) == pytest.approx(np.pi)

    def test_quarter_turn(self):
        assert geodesic_distance(rot_x(np.pi / 2), np.eye(3)) == pytest.approx(np.pi / 2)

    def test_symmetry_and_triangle_inequality(self):
        for r1, r2, r3 in zip(
            random_rotations(1, 1000), random_rotations(2, 1000), random_rotations(3, 1000)
        ):
            d12 = geodesic_distance(r1, r2)
            assert d12 == pytest.approx(geodesic_distance(r2, r1), abs=0)
            assert d12 <= geodesic_distance(r1, r3) + geodesic_distance(r3, r2) + 1e-9

    def test_range(self):
        for r1, r2 in zip(random_rotations(4, 200), random_rotations(5, 200)):
            assert 0.0 <= geodesic_distance(r1, r2) <= np.pi


class TestPolynomialSurrogate:
    def test_exact_zero_at_trace_three(self, poly):
        assert poly.value(3.0) == 0.0

    def test_fit_error_reported_matches_recomputation(self, poly):
        t = np.linspace(-1.0, 3.0, 10001)
        err = np.abs(poly.value(t) - np.arccos(np.clip((t - 1) / 2, -1, 1))).max()
        assert err == pytest.approx(poly.max_fit_error, rel=1e-12)

    def test_fit_error_magnitude(self, poly):
        # arccos has square-root singularities at both trace endpoints, so
        # the degree-10 family cannot do better than ~0.046 rad uniformly;
        # the unweighted least-squares fit lands near 0.103.
        assert poly.max_fit_error < 0.11
        t = np.linspace(-0.9, 2.9, 5001)
        interior = np.abs(poly.value(t) - np.arccos((t - 1) / 2)).max()
        assert interior < 0.02

    def test_symmetric_in_arguments(self, poly):
        for r1, r2 in zip(random_rotations(6, 100), random_rotations(7, 100)):
            v1, _ = poly_geodesic_distance(poly, r1, r2)
            v2, _ = poly_geodesic_distance(poly, r2, r1)
            assert v1 == pytest.approx(v2, abs=1e-12)

    def test_value_at_identity_pair(self, poly):
        v, _ = poly_geodesic_distance(poly, np.eye(3), np.eye(3))
        assert v == 0.0

    def test_value_near_half_turn(self, poly):
        # fit error at t = -1 dominates; frozen against the fit oracle
        v, _ = poly_geodesic_distance(poly, rot_z(np.pi), np.eye(3))
        assert v == pytest.approx(np.pi, abs=0.11)

    @pytest.mark.parametrize("rg_shape, rt_shape", [
        ((3, 3), (3,)), ((3,), (3, 3)), ((1, 3, 3), (3, 3)), ((9,), (9,)), ((3, 3), (3, 4)),
    ])
    def test_inputs_must_be_two_3x3(self, poly, rg_shape, rt_shape):
        # an rt of shape (3,) broadcast, and its (3,) gradient came back
        with pytest.raises(ValueError, match=re.escape(f"got {rg_shape} and {rt_shape}")):
            poly_geodesic_distance(poly, np.ones(rg_shape), np.ones(rt_shape))

    def test_min_samples_enforced(self):
        with pytest.raises(ValueError):
            fit_geodesic_polynomial(samples=50)

    @pytest.mark.parametrize(
        "coeffs",
        [np.ones(11), np.ones(5), np.ones(9), np.ones((2, 5)),
         np.r_[np.ones(9), np.nan], np.r_[np.inf, np.ones(9)]],
    )
    def test_coefficients_must_be_ten_finite(self, coeffs):
        # with 11 coefficients derivative(0.5) used to be -0.4906 against
        # a finite difference of -0.5394, and 5 raised IndexError
        with pytest.raises(ValueError, match="10 finite"):
            PolyCoeffs(a=coeffs)

    def test_coefficients_frozen(self, poly):
        c = PolyCoeffs(a=list(poly.a))
        assert c.to_list() == poly.to_list()
        with pytest.raises(ValueError):
            c.a[0] = 1.0

    def test_scalar_in_float_out(self, poly):
        for t in (3.0, -1.0, 2, np.float64(0.5), np.asarray(1.5)):
            value, slope = poly.value_and_derivative(t)
            assert isinstance(value, float) and isinstance(slope, float)
            assert value == poly.value(t) and slope == poly.derivative(t)
        t = np.linspace(-1.0, 3.0, 9)
        value, slope = poly.value_and_derivative(t)
        assert np.array_equal(value, poly.value(t))
        assert np.array_equal(slope, poly.derivative(t))

    def test_gradient_against_finite_differences(self, poly):
        rng = np.random.default_rng(8)
        h = 1e-5
        worst = 0.0
        for _ in range(100):
            rg = random_rotation(rng)
            rt = random_rotation(rng)
            _, grad = poly_geodesic_distance(poly, rg, rt)
            fd = np.zeros((3, 3))
            for i in range(3):
                for j in range(3):
                    rp, rm = rg.copy(), rg.copy()
                    rp[i, j] += h
                    rm[i, j] -= h
                    fd[i, j] = (
                        poly_geodesic_distance(poly, rp, rt)[0]
                        - poly_geodesic_distance(poly, rm, rt)[0]
                    ) / (2 * h)
            denom = max(np.abs(fd).max(), 1e-12)
            worst = max(worst, np.abs(grad - fd).max() / denom)
        assert worst <= 1e-5


class TestSixD:
    def test_identity_round_trip(self):
        s = sixd_from_rotation(np.eye(3))
        assert np.allclose(s, [[1, 0, 0], [0, 1, 0]])
        assert np.allclose(rotation_from_sixd(s), np.eye(3))

    def test_gram_schmidt_normalizes(self):
        r = rotation_from_sixd(np.array([[2.0, 0, 0], [1.0, 1.0, 0]]))
        assert np.allclose(r, np.eye(3))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSixD):
            rotation_from_sixd(np.zeros((2, 3)))
        with pytest.raises(DegenerateSixD):
            rotation_from_sixd(np.array([[1.0, 0, 0], [2.0, 0, 0]]))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_round_trip_property(self, seed):
        r = random_rotation(np.random.default_rng(seed))
        assert np.abs(rotation_from_sixd(sixd_from_rotation(r)) - r).max() < 1e-12

    def test_round_trip_bulk(self):
        for r in random_rotations(9, 1000):
            assert np.abs(rotation_from_sixd(sixd_from_rotation(r)) - r).max() < 1e-12


class TestZQuotient:
    def test_same_fiber_is_zero(self):
        for r in random_rotations(10, 20):
            assert z_quotient_distance(r, rot_z(1.234) @ r) < 1e-7

    def test_x_half_turn(self):
        # trace of Rz(theta) @ Rx(pi) is -1 for every theta
        assert z_quotient_distance(rot_x(np.pi), np.eye(3)) == pytest.approx(np.pi)

    def test_against_dense_sweep_oracle(self):
        def sweep(r1, r2, thetas):
            c, s = np.cos(thetas), np.sin(thetas)
            rz = np.zeros((len(thetas), 3, 3))
            rz[:, 0, 0], rz[:, 0, 1], rz[:, 1, 0], rz[:, 1, 1] = c, -s, s, c
            rz[:, 2, 2] = 1.0
            t = np.einsum("kij,jl,il->k", rz, r1, r2)  # tr(Rz @ r1 @ r2.T)
            d = np.arccos(np.clip((t - 1.0) / 2.0, -1.0, 1.0))
            return thetas[np.argmin(d)], d.min()

        pairs = [(rot_x(np.pi / 2), rot_y(np.pi / 2))]
        pairs += list(zip(random_rotations(18, 50), random_rotations(19, 50)))
        step = 2 * np.pi / 10000
        for r1, r2 in pairs:
            theta, _ = sweep(r1, r2, np.arange(10000) * step)
            theta, oracle = sweep(r1, r2, theta + np.linspace(-step, step, 2001))
            assert z_quotient_distance(r1, r2) == pytest.approx(oracle, abs=1e-6)
            assert geodesic_distance(z_align(r1, r2), r2) == pytest.approx(oracle, abs=1e-6)

    def test_never_exceeds_geodesic(self):
        for r1, r2 in zip(random_rotations(11, 300), random_rotations(12, 300)):
            assert z_quotient_distance(r1, r2) <= geodesic_distance(r1, r2) + 1e-9

    def test_vectorized_matches_scalar(self):
        rs = np.stack(random_rotations(13, 50))
        for r in random_rotations(14, 10):
            fast = z_quotient_distances(r, rs)
            slow = [z_quotient_distance(r, s) for s in rs]
            assert np.abs(fast - slow).max() < 1e-7

    def test_up_axis_characterizes_equivalence(self):
        z = np.array([0.0, 0.0, 1.0])
        for r1, r2 in zip(random_rotations(15, 100), random_rotations(16, 100)):
            equiv = z_quotient_distance(r1, r2) < 1e-6
            same_axis = np.linalg.norm(r1.T @ z - r2.T @ z) < 1e-6
            assert equiv == same_axis
        for r in random_rotations(17, 20):
            r2 = rot_z(0.777) @ r
            assert np.linalg.norm(r.T @ z - r2.T @ z) < 1e-9
            assert z_quotient_distance(r, r2) < 1e-6
