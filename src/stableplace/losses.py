"""Differentiable loss kernels: geodesic Chamfer loss over orientation
sets and the auxiliary-plane refinement loss over displacement fields.

Both return analytic gradients suitable for finite-difference checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rotations import PolyCoeffs


class EmptySet(ValueError):
    """Chamfer loss received an empty orientation set."""


class EmptyField(ValueError):
    """Displacement field has no rows."""


@dataclass(frozen=True)
class RefineLossWeights:
    alpha: float = 1.0
    beta: float = 1.0
    smooth_l1_transition: float = 1.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.alpha, self.beta, self.smooth_l1_transition])):
            raise ValueError("weights must be finite")
        if self.alpha < 0 or self.beta < 0 or self.alpha + self.beta <= 0:
            raise ValueError("weights must be non-negative with alpha + beta > 0")
        if self.smooth_l1_transition <= 0:
            raise ValueError("smooth_l1_transition must be positive")


@dataclass
class DisplacementField:
    """Per-point displacement vectors toward an auxiliary-plane vector,
    stored as C-ordered float arrays, so the losses' sums, which run in
    memory order, give the same bits for any memory order of the input."""

    points: np.ndarray  # (M, 3)
    displacements: np.ndarray  # (M, 3)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float, order="C")
        self.displacements = np.asarray(self.displacements, dtype=float, order="C")
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise EmptyField(f"points must be (M, 3), got {self.points.shape}")
        if self.points.shape != self.displacements.shape:
            raise EmptyField("points and displacements must have equal shape")
        if self.points.shape[0] < 1:
            raise EmptyField("field must have at least one row")


def chamfer_geodesic_loss(
    sg: list[np.ndarray], st: list[np.ndarray], c: PolyCoeffs
) -> tuple[float, np.ndarray]:
    """Two-sided Chamfer sum of the polynomial geodesic surrogate.

    Returns (value, grads) where grads[i] is d value / d sg[i] entries.
    Gradient flows through each realized min; ties resolve to the lowest
    index so results are deterministic.
    """
    if len(sg) == 0 or len(st) == 0:
        raise EmptySet("orientation sets must be non-empty")
    a = np.asarray(sg, dtype=float)  # (n, 3, 3)
    b = np.asarray(st, dtype=float)  # (m, 3, 3)
    n, m = len(a), len(b)
    t = np.einsum("nij,mij->nm", a, b)  # traces of a[n] @ b[m].T
    f = c.factor(t)
    d = t - 3.0
    d *= f
    # generated -> nearest ground truth, then ground truth -> nearest
    # generated; the derivative is needed at these realized minima only
    j_star = np.argmin(d, axis=1)
    i_star = np.argmin(d, axis=0)
    mins = (
        np.concatenate([np.arange(n), i_star]),
        np.concatenate([j_star, np.arange(m)]),
    )
    t_min = t[mins]
    slopes = t_min - 3.0
    slopes *= c.factor_derivative(t_min)
    slopes += f[mins]
    # a sequential sum in that order; np.sum would add pairwise.  Started
    # from the first term, it differs from a sum started from 0.0 only in
    # the sign of a zero, which the final + 0.0 settles
    d_min = d[mins]
    value = float(np.add.accumulate(d_min, out=d_min)[-1]) + 0.0
    # plus 0.0, so that a -0 product reads +0, as in a sum started from zeros
    grads = b[j_star]
    grads *= slopes[:n, None, None]
    grads += 0.0
    # add.at applies repeated indices one after another, in order
    np.add.at(grads, i_star, slopes[n:, None, None] * b)
    return value, grads


def _subtract_row(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x - y where one operand is an (M, 3) array and the other a (3,)
    row.  Over the (3, M) transposes in C order, the call runs three inner
    loops of length M; broadcasting the row itself would run M inner loops
    of length 3, several times slower."""
    if out is None:
        out = np.empty_like(x if x.ndim == 2 else y)
    xt = x.T if x.ndim == 2 else x[:, None]
    yt = y.T if y.ndim == 2 else y[:, None]
    np.subtract(xt, yt, out=out.T, order="C")
    return out


def refine_loss(
    f: DisplacementField,
    v_gt: np.ndarray,
    w: RefineLossWeights = RefineLossWeights(),
) -> tuple[float, np.ndarray]:
    """Field + variance loss for auxiliary-plane regression.

    value = alpha * mean_i smoothL1((v_gt - p_i) - v_i) summed over the
    3 components, plus beta * mean_i |p_i + v_i - mean_j (p_j + v_j)|^2.
    Returns (value, grads) with grads (M, 3) with respect to the
    displacements.
    """
    v_gt = np.asarray(v_gt, dtype=float)
    if v_gt.shape != (3,):
        raise ValueError(f"v_gt must have shape (3,), got {v_gt.shape}")
    p, v = f.points, f.displacements
    m = p.shape[0]

    beta = w.smooth_l1_transition
    resid = _subtract_row(v_gt, p)
    resid -= v
    # smooth L1: quadratic below beta, linear above it (NaN stays NaN)
    sl1 = np.abs(resid)
    quad = sl1 < beta
    sq = np.multiply(resid, 0.5)
    sq *= resid
    sq /= beta
    np.subtract(sl1, 0.5 * beta, out=sl1)
    np.copyto(sl1, sq, where=quad)
    field_term = float(sl1.sum()) / m
    # its slope: resid / beta inside the quadratic zone, sign(resid) outside
    sl1_grad = np.divide(resid, beta, out=resid)
    np.clip(sl1_grad, -1.0, 1.0, out=sl1_grad)

    q = p + v
    # shift by the first row so identical targets give an exact zero
    _subtract_row(q, q[0].copy(), out=q)
    # einsum sums row after row, as the mean does, at a fraction of its cost
    dev = _subtract_row(q, np.einsum("ij->j", q) / m, out=q)
    var_term = float((dev * dev).sum()) / m

    value = w.alpha * field_term + w.beta * var_term
    # d resid / d v = -1; the mean cancels inside the variance gradient
    grads = np.multiply(sl1_grad, -w.alpha / m, out=sl1_grad)
    grads += np.multiply(dev, w.beta / m * 2.0, out=dev)
    return value, grads


def predicted_plane_vector(f: DisplacementField) -> np.ndarray:
    """Mean over rows of p_i + v_i: the regressed auxiliary-plane vector."""
    return (f.points + f.displacements).mean(axis=0)
