"""Slice mapping evaluation, two-slice reconstruction, slice derivatives,
per-slice holomorphy checks, and the holomorphic splitting over a module
basis.

A slice map sends x = alpha + J beta to F1(z) + J F2(z) with z = alpha +
i beta and (F1, F2) the even-odd pair of a stem series.  The two-slice
reconstruction recovers the value on any slice I from values on two
distinct slices J, K:

    f(alpha + beta I) = (I-K) ((J-K)^{-1} f(alpha+beta J))
                      - (I-J) ((J-K)^{-1} f(alpha+beta K))

with every product taken in the written order.

Values are coefficient rows: SliceMap.eval_arrays takes points as
(alpha, beta) rows of shape (B, n) and slices as J rows of shape
(B, dim), and representation_formula, two_slice_average and
regularity_residual take and return rows the same way (products by
algebra.mul_batch, (J-K)^{-1} by algebra.invert_batch).  A slice
direction I is a row too, and so is every module basis element.
SliceMap.eval is the one-point wrapper over eval_arrays, the one method
that takes a SlicePoint and returns algebra.CliffordElement values.
regularity_residual shares its stencil (series.central_partials) with
series.cr_residual.

ShadowMap(I, n, g, dg, d2g) is the map given by its shadow alone, with
no stem series: on the slice of I, whose complex plane C_I holds every
coefficient, the map is its holomorphic shadow g on C_I^n.  It is the
one holder of its slice row, f.I, and of f.g, f.dg and f.d2g, g and its
derivatives as callables of (B, n) complex points, which the starlike
and convex criteria read.  Its values are real multiples of 1, I, J and
J I, with no general product, and it is not a SliceMap: it has no stem,
no derivative and no one-point eval.
extremal_map(p, theta, I, n) is the extremal family
x_t (1 - x_t e^{I theta})^{-*p} as one shadow: Koebe p = 2, Cayley p = 1,
the identity p = 0, and p = -1 the paper example x_t (1 - x_t e^{I theta}).
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (
    CliffordElement,
    blade,
    grades,
    invert_batch,
    mul_batch,
    mul_coeffs,
    row_m,
    singular_values_batch,
)
from .errors import BasisError, RepresentationError
from .series import StemSeries, central_partials, power_sum, row_points
from .slicespace import SlicePoint


class SliceMap:
    """Left slice mapping induced by a stem series."""

    def __init__(self, stem: StemSeries):
        self.stem = stem
        self.m = stem.m
        self.n = stem.n

    def stem_arrays(self, alpha: np.ndarray, beta: np.ndarray):
        """The even-odd pair (F1, F2) at z = alpha + i beta, each (B, n, dim)."""
        return self.stem.eval_arrays(alpha, beta)

    def eval(self, p: SlicePoint) -> list[CliffordElement]:
        """The n values at one point, through eval_arrays."""
        vals = self.eval_arrays(np.reshape(p.alpha, (1, -1)),
                                np.reshape(p.beta, (1, -1)), p.J.coeffs)
        return [CliffordElement(self.m, row) for row in vals[0]]

    def eval_arrays(self, alpha: np.ndarray, beta: np.ndarray,
                    j_rows: np.ndarray) -> np.ndarray:
        """Batched values F1 + J*F2, shape (B, n, dim).

        alpha, beta are (B, n) and j_rows is (B, dim); either side may
        have one row, which is broadcast over the other's B rows (one
        stem row over many slices, or one slice over many points).
        """
        f1, f2 = self.stem_arrays(alpha, beta)
        return f1 + mul_batch(self.m, np.atleast_2d(j_rows)[:, None, :], f2)

    def derivative(self, t: int) -> "SliceMap":
        return SliceMap(self.stem.derivative(t))


class ShadowMap:
    """The slice map with every coefficient in C_I, given by its shadow g
    on C_I^n: g maps (B, n) complex points to (B, n) values, dg to (B, n, n)
    Jacobians and d2g to (B, n, n, n) second derivatives d^2 g_s/dz_t dz_u.
    A map given by g alone has no derivatives, and its spot-check reads
    off-slice.

    Its stem is P + Q I with P = (g(z) + conj g(conj z))/2 and
    Q = (g(z) - conj g(conj z))/(2i), so on the slice of J its value is
    P.re + Q.re I + P.im J + Q.im (J I).  It has no stem series.
    """

    def __init__(self, I: np.ndarray, n: int, g, dg=None, d2g=None):
        self.m = row_m(I)
        self.n = n
        self.I = I
        self.g, self.dg, self.d2g = g, dg, d2g

    def _pq(self, alpha: np.ndarray, beta: np.ndarray):
        """P and Q at the (B, n) rows z = alpha + i beta, each (B, n) complex."""
        z = row_points(alpha, beta, self.n)
        gz, gc = self.g(z), np.conj(self.g(np.conj(z)))
        return 0.5 * (gz + gc), -0.5j * (gz - gc)

    def _on_slice(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Rows x 1 + y I of real (B, n) parts x, y: shape (B, n, dim)."""
        return x[..., None] * blade(self.m) + y[..., None] * self.I

    def stem_arrays(self, alpha: np.ndarray, beta: np.ndarray):
        pz, qz = self._pq(alpha, beta)
        return self._on_slice(pz.real, qz.real), self._on_slice(pz.imag, qz.imag)

    def eval_arrays(self, alpha: np.ndarray, beta: np.ndarray,
                    j_rows: np.ndarray) -> np.ndarray:
        """F1 + J F2 with J F2 = P.im J + Q.im (J I), in ~64 KB chunks of
        rows; J I is one vector-matrix product per slice row, by rows e_A I."""
        pz, qz = self._pq(alpha, beta)
        J = np.atleast_2d(j_rows)[:, None, :]
        JI = J @ mul_batch(self.m, np.eye(1 << self.m), self.I)
        out = np.empty((len(J) if len(pz) == 1 else len(pz), self.n, 1 << self.m))
        step = max(1, (1 << 13) // (self.n << self.m))
        for lo in range(0, len(out), step):
            p, q, j, ji = (x if len(x) == 1 else x[lo:lo + step] for x in (pz, qz, J, JI))
            out[lo:lo + step] = self._on_slice(p.real, q.real) + (
                p.imag[..., None] * j + q.imag[..., None] * ji)
        return out


def extremal_map(p: int, theta: float, I: np.ndarray, n: int) -> ShadowMap:
    """The componentwise map x_t (1 - x_t e^{I theta})^{-*p} (Koebe p = 2,
    Cayley p = 1, the identity p = 0, the paper example x_t (1 - x_t e^{I theta})
    as p = -1): the ShadowMap of g_t = z_t (1 - c z_t)^{-p} with c = e^{i theta},
    phi' = (1 - c z)^{-p-1} (1 + (p-1) c z) (1 up to rounding at p = 0) and
    phi'' = p c (1 - c z)^{-p-2} (2 + (p-1) c z) on each component."""
    c = complex(math.cos(theta), math.sin(theta))
    eye = np.eye(n)     # component s depends on z_s alone: diagonal derivatives

    def dg(z):
        return ((1.0 - c * z) ** (-p - 1) * (1.0 + (p - 1) * c * z))[..., None] * eye

    def d2g(z):
        phi2 = p * c * (1.0 - c * z) ** (-p - 2) * (2.0 + (p - 1) * c * z)
        return phi2[..., None, None] * (eye[:, :, None] * eye)
    return ShadowMap(I, n, lambda z: z * (1.0 - c * z) ** -p, dg, d2g)


def representation_formula(f: SliceMap, alpha: np.ndarray, beta: np.ndarray,
                           J: np.ndarray, K: np.ndarray, I: np.ndarray,
                           cond_threshold: float = 1e-3) -> np.ndarray:
    """Reconstruct f on the slices I from its values on the slices J and K.

    alpha, beta are (B, n) orbit rows and J, K, I are (B, dim) slice rows
    (a single row of either is broadcast); returns (B, n, dim).  Rejects
    the batch if any J - K has a left operator with smallest singular
    value below cond_threshold, reporting the worst in the raised error.
    """
    m = f.m
    d = np.atleast_2d(J - K)
    sigma_min = np.min(singular_values_batch(m, d)[:, -1])
    if sigma_min < cond_threshold:
        raise RepresentationError(
            f"slice pair too close: sigma_min(J-K) = {sigma_min:.3e} "
            f"< {cond_threshold:.0e}"
        )
    dinv = invert_batch(m, d)[:, None, :]
    f_j = f.eval_arrays(alpha, beta, J)
    f_k = f.eval_arrays(alpha, beta, K)
    return (mul_batch(m, np.atleast_2d(I - K)[:, None, :], mul_batch(m, dinv, f_j))
            - mul_batch(m, np.atleast_2d(I - J)[:, None, :], mul_batch(m, dinv, f_k)))


def two_slice_average(f: SliceMap, alpha: np.ndarray, beta: np.ndarray,
                      J: np.ndarray, I: np.ndarray) -> np.ndarray:
    """The K = -J specialization, on rows as in representation_formula:
    (f(a+bJ) + f(a-bJ))/2 - (I/2) (J (f(a+bJ) - f(a-bJ)))."""
    m = f.m
    v_j = f.eval_arrays(alpha, beta, J)
    v_mj = f.eval_arrays(alpha, beta, -J)
    J, I = (np.atleast_2d(x)[:, None, :] for x in (J, I))
    return 0.5 * (v_j + v_mj) - 0.5 * mul_batch(m, I, mul_batch(m, J, v_j - v_mj))


def regularity_residual(f: SliceMap, alpha: np.ndarray, beta: np.ndarray,
                        J: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Finite-difference defect of d f_J/d alpha_t + J d f_J/d beta_t at
    the points alpha + J beta, maximized over t; shape (B,).

    alpha, beta are (B, n) and J is (B, dim) or one row broadcast over
    them.  A row's residual vanishes (up to FD truncation) exactly when
    the restriction to its slice is holomorphic.  One eval_arrays call
    takes all 4n shifted points (series.central_partials, the stencil of
    series.cr_residual too).
    """
    B, n = alpha.shape
    J = np.broadcast_to(J, (B, J.shape[-1]))
    da, db = central_partials(
        lambda a, b: f.eval_arrays(a, b, np.tile(J, (4 * n, 1))), alpha, beta, step)
    defect = da + mul_batch(f.m, J[None, :, None, :], db)
    return np.max(np.sqrt(np.sum(defect * defect, axis=(2, 3))), axis=0)


# ---------------------------------------------------------------------------
# complex identification of a slice and holomorphic splitting
# ---------------------------------------------------------------------------

def complex_on_slice(rows: np.ndarray, I: np.ndarray):
    """Project coefficient rows (..., dim) onto span{1, I}, I a slice row.

    Returns (complex array, max off-slice residual).  The projection is
    orthogonal in the coefficient inner product, for which 1 and any
    root of -1 are orthonormal.
    """
    rows = np.asarray(rows)
    re = rows[..., 0]
    im = rows @ I
    resid = rows - re[..., None] * blade(row_m(I)) - im[..., None] * I
    return re + 1j * im, float(np.max(np.abs(resid), initial=0.0))


class ComplexSeries:
    """Multivariate power series with complex n-vector coefficients; a
    holomorphic component of split_components."""

    def __init__(self, kmat: np.ndarray, coeffs: np.ndarray):
        self.kmat = kmat          # (K, n) exponents
        self.coeffs = coeffs      # (K, n) complex

    def eval(self, z) -> np.ndarray:
        """Values at the rows z of shape (B, n); returns (B, n)."""
        return power_sum(self.kmat, self.coeffs, np.asarray(z, dtype=np.complex128))


def default_module_basis(I: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Blade basis of the algebra as a left module over the slice of I.

    For a unit grade-1 direction row I, extends it to an orthonormal frame
    of generator space and returns the rows of the 2**(m-1) blades built
    from the complementary frame vectors, shape (2**(m-1), 2**m).  Raises
    BasisError otherwise (callers must pass an explicit completion).
    """
    m = row_m(I)
    g = grades(m)
    if np.max(np.abs(I[g != 1]), initial=0.0) > tol:
        raise BasisError(
            "default module basis needs a grade-1 direction; "
            "pass an explicit completion"
        )
    axes = [1 << i for i in range(m)]
    frame = np.concatenate([I[axes][None, :], np.eye(m)], axis=0)
    q, _ = np.linalg.qr(frame.T)
    comp_vectors = np.zeros((m - 1, 1 << m))
    comp_vectors[:, axes] = q[:, 1:m].T
    basis = [blade(m)]
    for vec in comp_vectors:
        basis += [mul_coeffs(m, b, vec) for b in basis]
    return np.array(basis)


def split_components(f: SliceMap, I: np.ndarray, completion=None,
                     tol: float = 1e-10):
    """Split f_I into holomorphic complex series F_A with
    f_I(z) = sum_A F_A(z) I_A over a module basis {I_A}, given as rows
    (completion, or default_module_basis(I)).

    Returns (components, basis) where components is a list of
    ComplexSeries aligned with the basis rows.  Raises BasisError when the
    change-of-basis operator {I_A, I*I_A} is numerically singular.
    """
    m, dim = f.m, 1 << f.m
    basis = np.asarray(completion if completion is not None
                       else default_module_basis(I, tol), dtype=np.float64)
    if len(basis) * 2 != dim:
        raise BasisError(
            f"module basis must have {dim // 2} elements, got {len(basis)}"
        )
    cols = []
    for b in basis:
        cols.append(b)
        cols.append(mul_coeffs(m, I, b))
    bmat = np.stack(cols, axis=1)
    svals = np.linalg.svd(bmat, compute_uv=False)
    if svals[-1] <= 1e-10 * max(1.0, svals[0]):
        raise BasisError("completion is not a module basis (singular solve)")

    amat = f.stem._amat  # (K, n, dim)
    K, n = amat.shape[0], amat.shape[1]
    sol = np.linalg.solve(bmat, amat.reshape(K * n, dim).T).T.reshape(K, n, dim)
    components = []
    for a_idx in range(len(basis)):
        coeffs = sol[:, :, 2 * a_idx] + 1j * sol[:, :, 2 * a_idx + 1]
        components.append(ComplexSeries(f.stem._kmat.copy(), coeffs))
    return components, basis


def reassemble_on_slice(components, basis, I: np.ndarray, z) -> np.ndarray:
    """Evaluate sum_A F_A(z) I_A, over the basis rows I_A, as coefficient
    rows on the slice of I: shape (B, n, dim) at the rows z of shape
    (B, n)."""
    m = row_m(I)
    acc = np.zeros(np.shape(z) + (1 << m,))
    for comp, b in zip(components, basis):
        vals = comp.eval(z)
        scale = vals.real[..., None] * blade(m) + vals.imag[..., None] * I
        acc = acc + mul_batch(m, scale, b)
    return acc
