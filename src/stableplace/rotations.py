"""Rotation matrices on SO(3): construction, geodesic distance, a
differentiable polynomial surrogate, the 6D continuous representation,
and the z-rotation quotient metric.

This module is the one place rotations are built: the one Rodrigues
formula (``rotation_from_axis_angle``) and the one minimal rotation onto a
direction (``rotation_between``), each for one input or a stack.  It also
holds the package's one cross product (``cross``).

Rotations that differ only by a turn about the world z-axis share a body
up-axis r.T @ z-hat (the third row of r), so the quotient metric is the
angle between up-axes.

Rotations are plain (3, 3) numpy arrays throughout; JSON serialization is
9 numbers, row-major.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORTHO_TOL = 1e-9


class InvalidAxis(ValueError):
    """Axis-angle construction got a non-unit axis."""


class InvalidRotation(ValueError):
    """Matrix is not orthonormal with determinant +1."""


class DegenerateSixD(ValueError):
    """6D representation vectors are zero or parallel."""


class FitFailed(RuntimeError):
    """Polynomial least-squares system was singular."""


def check_rotation(m: np.ndarray) -> np.ndarray:
    """Validate that ``m`` is a rotation matrix, within ``ORTHO_TOL``, and
    return it as float64."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise InvalidRotation(f"expected (3, 3) matrix, got {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries fail quietly
        orthonormal = np.all(np.abs(m.T @ m - np.eye(3)) <= ORTHO_TOL)
    if not orthonormal:
        raise InvalidRotation("matrix is not orthonormal")
    if abs(np.linalg.det(m) - 1.0) > ORTHO_TOL:
        raise InvalidRotation("determinant is not +1")
    return m


# K = [[0, -z, y], [z, 0, -x], [-y, x, 0]] from the axis (x, y, z); a -0 on
# its diagonal vanishes in I + ..., so the bits are those of the literal K.
_SKEW_INDEX = np.array([[0, 2, 1], [2, 0, 0], [1, 0, 0]])
_SKEW_SIGN = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])


def rotation_from_axis_angle(axis: np.ndarray, angle: float | np.ndarray) -> np.ndarray:
    """Rodrigues rotations I + sin(angle) K + (1 - cos(angle)) K^2 about
    unit axes (..., 3) by angles (...), as (..., 3, 3); K is the skew
    matrix of the axis.  One axis (3,) gives one (3, 3) rotation, with the
    same bits as any row of a stack.

    Raises InvalidAxis for an axis whose norm is not 1; a NaN axis has no
    measurable norm, so its row passes through as NaN."""
    axis = np.asarray(axis, dtype=float)
    norm = np.sqrt(np.vecdot(axis, axis))
    off = np.abs(norm - 1.0) > ORTHO_TOL
    if off.any():
        raise InvalidAxis(f"axis norm {np.extract(off, norm)[0]} != 1")
    k = axis.take(_SKEW_INDEX, axis=-1) * _SKEW_SIGN
    angle = np.asarray(angle, dtype=float)
    angle = angle[..., None, None] if angle.ndim else float(angle)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rotation_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimal rotations taking the unit vectors a (..., 3) onto the unit
    vector b (3,), as (..., 3, 3).

    The turn is about a x b by the angle arccos(a . b).  Within 1e-15 of
    equal, a turns by 0 (the identity), and within 1e-15 of opposite by
    pi about ``_any_perpendicular(a)``."""
    a = np.asarray(a, dtype=float)
    c = np.vecdot(a, b)
    same, flip = c >= 1.0 - 1e-15, c <= -1.0 + 1e-15
    with np.errstate(divide="ignore", invalid="ignore"):
        axis = cross(a, b)
        axis /= np.sqrt(np.vecdot(axis, axis))[..., None]
    axis[same | flip] = _any_perpendicular(a[same | flip])
    angle = np.where(flip, np.pi, np.where(same, 0.0, np.arccos(np.clip(c, -1.0, 1.0))))
    return rotation_from_axis_angle(axis, angle)


def _any_perpendicular(n: np.ndarray) -> np.ndarray:
    """A unit vector perpendicular to each unit vector n (..., 3)."""
    ref = np.where((np.abs(n[..., 0]) < 0.9)[..., None], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    e = cross(n, ref)
    return e / np.sqrt(np.vecdot(e, e))[..., None]


def cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.cross`` of 3-vector arrays x (..., 3) and y (..., 3),
    broadcast, bit for bit: each component is one elementwise product
    minus another, as there, written straight into the output, without
    that function's axis moves and per-call overhead."""
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    y0, y1, y2 = y[..., 0], y[..., 1], y[..., 2]
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.result_type(x, y))
    np.subtract(x1 * y2, x2 * y1, out=out[..., 0])
    np.subtract(x2 * y0, x0 * y2, out=out[..., 1])
    np.subtract(x0 * y1, x1 * y0, out=out[..., 2])
    return out


def angle_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angles between unit vectors a[..., :] and b[..., :], broadcast.
    The arctan2 form is exactly 0 between equal vectors, where arccos of
    their dot product can round to 1.5e-8.

    Written per component, in the operation order of ``np.cross``,
    ``np.linalg.norm(axis=-1)`` and ``np.sum(a * b, axis=-1)``, whose bits
    it keeps, without their temporaries of shape (..., 3).  The sum starts
    from +0, as ``np.sum`` does, so three products of -0 add to +0 and
    the angle between -0 vectors is 0, not pi."""
    a, b = np.asarray(a), np.asarray(b)
    ax, ay, az = a[..., 0], a[..., 1], a[..., 2]
    bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
    cx, cy, cz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    return np.arctan2(np.sqrt(cx * cx + cy * cy + cz * cz), 0.0 + ax * bx + ay * by + az * bz)


def rot_x(angle: float) -> np.ndarray:
    return rotation_from_axis_angle(np.array([1.0, 0.0, 0.0]), angle)


def rot_y(angle: float) -> np.ndarray:
    return rotation_from_axis_angle(np.array([0.0, 1.0, 0.0]), angle)


def rot_z(angle: float) -> np.ndarray:
    return rotation_from_axis_angle(np.array([0.0, 0.0, 1.0]), angle)


def geodesic_distance(rg: np.ndarray, rt: np.ndarray) -> float:
    """Angular distance arccos((tr(rg @ rt.T) - 1) / 2), in [0, pi].

    The arccos argument is clamped to [-1, 1] to absorb floating-point
    drift in the trace.
    """
    t = float(np.trace(np.asarray(rg) @ np.asarray(rt).T))
    return float(np.arccos(np.clip((t - 1.0) / 2.0, -1.0, 1.0)))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation via a normalized Gaussian quaternion."""
    return quaternion_rotations(rng.normal(size=4))


def quaternion_rotations(q: np.ndarray) -> np.ndarray:
    """Rotations (3, 3) or (N, 3, 3) of the quaternions q (4,) or (N, 4),
    ordered (w, x, y, z) and normalized here; one quaternion gives the
    bits of any row of a stack."""
    q = np.asarray(q, dtype=float)
    # one quaternion unpacks to numpy scalars, whose arithmetic is cheap
    w, x, y, z = (q / np.sqrt(np.vecdot(q, q))[..., None]).T
    m = np.array(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ]
    )
    return m.T.reshape(q.shape[:-1] + (3, 3))


# --- polynomial surrogate -------------------------------------------------


@dataclass(frozen=True)
class PolyCoeffs:
    """Coefficients a0..a9 of the degree-9 factor; the surrogate is
    (t - 3) * sum_i a_i t^i with t the trace of rg @ rt.T, which is zero
    by construction at t = 3.

    Every evaluator returns a float for a scalar ``t`` and an array for an
    array ``t``.
    """

    a: np.ndarray  # shape (10,)
    max_fit_error: float = float("nan")

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        if a.shape != (10,) or not np.all(np.isfinite(a)):
            raise ValueError(f"need 10 finite coefficients, got {a.shape} array")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        # Horner order, highest degree first, as Python floats
        object.__setattr__(self, "_factor", tuple(float(c) for c in a[::-1]))
        object.__setattr__(
            self, "_factor_derivative", tuple(i * float(a[i]) for i in range(9, 0, -1))
        )

    def factor(self, t: float | np.ndarray) -> float | np.ndarray:
        """sum_i a_i t^i (Horner)."""
        return _horner(self._factor, _trace_arg(t))

    def factor_derivative(self, t: float | np.ndarray) -> float | np.ndarray:
        return _horner(self._factor_derivative, _trace_arg(t))

    def value(self, t: float | np.ndarray) -> float | np.ndarray:
        t = _trace_arg(t)
        return (t - 3.0) * _horner(self._factor, t)

    def derivative(self, t: float | np.ndarray) -> float | np.ndarray:
        return self.value_and_derivative(t)[1]

    def value_and_derivative(
        self, t: float | np.ndarray
    ) -> tuple[float | np.ndarray, float | np.ndarray]:
        """(value(t), derivative(t)), evaluating the factor once."""
        t = _trace_arg(t)
        f = _horner(self._factor, t)
        s = t - 3.0
        return s * f, f + s * _horner(self._factor_derivative, t)

    def to_list(self) -> list[float]:
        return [float(c) for c in self.a]


def _trace_arg(t: float | np.ndarray) -> float | np.ndarray:
    """A float stays a float, so scalar evaluation runs no numpy call."""
    if isinstance(t, float):
        return t
    t = np.asarray(t, dtype=float)
    return float(t) if t.ndim == 0 else t


def _horner(coeffs: tuple[float, ...], t: float | np.ndarray) -> float | np.ndarray:
    """Polynomial with ``coeffs`` highest degree first.  Starting from zero
    makes the first step 0 * t + c, so an infinite t gives NaN.  Each step
    rounds the product and the sum separately, for a float and an array
    alike, so both give the same bits."""
    if isinstance(t, np.ndarray):
        acc = t * 0.0  # the first step's 0 * t, in one pass
        acc += coeffs[0]
        for c in coeffs[1:]:
            acc *= t
            acc += c
        return acc
    acc = 0.0
    for c in coeffs:
        acc = acc * t + c
    return acc


def fit_geodesic_polynomial(samples: int = 10001) -> PolyCoeffs:
    """Least-squares fit of the surrogate to arccos((t - 1) / 2) on a
    uniform grid of ``samples`` points over t in [-1, 3].

    Uniform unweighted least squares; the surrogate family cannot
    reproduce the square-root behaviour of arccos near t = -1 and t = 3,
    so the max fit error is ~0.1 rad (dominated by the endpoints).
    """
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    t = np.linspace(-1.0, 3.0, samples)
    target = np.arccos(np.clip((t - 1.0) / 2.0, -1.0, 1.0))
    design = (t - 3.0)[:, None] * t[:, None] ** np.arange(10)[None, :]
    coeffs, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < 10:
        raise FitFailed(f"normal equations rank-deficient (rank {rank})")
    err = float(np.abs(design @ coeffs - target).max())
    return PolyCoeffs(a=coeffs, max_fit_error=err)


def poly_geodesic_distance(
    c: PolyCoeffs, rg: np.ndarray, rt: np.ndarray
) -> tuple[float, np.ndarray]:
    """Surrogate distance and its gradient with respect to the entries of
    ``rg``.

    With t = tr(rg @ rt.T) = sum_ij rg_ij rt_ij, dt/drg = rt, so the
    gradient is f'(t) * rt.  Differentiable everywhere, including t = 3.
    The nine products are summed in C order, so inputs in any memory
    order give the bits of their C-ordered copies.
    """
    rg = np.asarray(rg, dtype=float)
    rt = np.asarray(rt, dtype=float)
    if rg.shape != (3, 3) or rt.shape != (3, 3):
        raise ValueError(f"rg and rt must have shape (3, 3), got {rg.shape} and {rt.shape}")
    # np.sum(rg * rt) of C-ordered inputs as Python floats: the products
    # in C order, whatever the inputs' memory order, added in np.sum's
    # pairwise order for nine values
    p = np.multiply(rg, rt).ravel().tolist()
    t = 0.0 + ((((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]))) + p[8])
    value, slope = c.value_and_derivative(t)
    return value, slope * rt


# --- 6D continuous representation -----------------------------------------


def sixd_from_rotation(r: np.ndarray) -> np.ndarray:
    """First two columns of the rotation, stacked as a (2, 3) array."""
    r = np.asarray(r, dtype=float)
    return r[:, :2].T.copy()


def rotation_from_sixd(s: np.ndarray) -> np.ndarray:
    """Gram-Schmidt the two vectors, third column by cross product."""
    s = np.asarray(s, dtype=float)
    a, b = s[0], s[1]
    na = np.linalg.norm(a)
    if na < 1e-12:
        raise DegenerateSixD("first vector is zero")
    c0 = a / na
    b_perp = b - np.dot(b, c0) * c0
    nb = np.linalg.norm(b_perp)
    if nb < 1e-12:
        raise DegenerateSixD("vectors are parallel or second vector is zero")
    c1 = b_perp / nb
    c2 = cross(c0, c1)
    return np.column_stack([c0, c1, c2])


# --- z-rotation quotient metric -------------------------------------------


def z_quotient_distances(r: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """Distance from ``r`` to each of a stack ``rs`` (k, 3, 3) on the
    quotient of SO(3) by rotations about the world z-axis.

    min over theta of geodesic_distance(Rz(theta) @ r, s) is the angle
    between the body up-axes r.T @ z-hat and s.T @ z-hat, the third rows.
    """
    r = np.asarray(r, dtype=float)
    rs = np.asarray(rs, dtype=float)
    return np.arccos(np.clip(rs[:, 2, :] @ r[2], -1.0, 1.0))


def z_quotient_distance(r1: np.ndarray, r2: np.ndarray) -> float:
    """Scalar form of ``z_quotient_distances``."""
    return float(z_quotient_distances(r1, np.asarray(r2, dtype=float)[None])[0])


def z_align(r: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Rz(theta*) @ r with theta* minimizing the geodesic distance to
    ``target``; the canonical fiber representative nearest the target.

    With m = r @ target.T, tr(Rz(theta) @ m) = p cos + q sin + m22, which
    is largest at theta* = atan2(q, p).
    """
    m = np.asarray(r, dtype=float) @ np.asarray(target, dtype=float).T
    theta = float(np.arctan2(m[0, 1] - m[1, 0], m[0, 0] + m[1, 1]))
    return rot_z(theta) @ r


def body_up_axis(r: np.ndarray) -> np.ndarray:
    """Body-frame direction that points world-up: r.T @ z-hat.  Invariant
    under left multiplication by any Rz(theta)."""
    return np.asarray(r, dtype=float).T @ np.array([0.0, 0.0, 1.0])
