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
algebra.mul_batch, (J-K)^{-1} by algebra.invert_batch).  SliceMap.eval
is the one-point wrapper over eval_arrays.  regularity_residual shares
its stencil (series.central_partials) with series.cr_residual.

On a slice I whose complex plane C_I holds every coefficient, f is its
holomorphic shadow f_I on C_I^n: a ComplexSeries evaluated, like the
stem, by series.power_sum; the criteria read it for its derivatives.

ClosedFormMap(p, theta, I, N, n) evaluates the extremal family
x_t (1 - x_t e^{I theta})^{-*p} (koebe p = 2, cayley p = 1, and the paper
example x_t (1 - x_t e^{I theta}) as p = -1) in closed form.  It builds
its own reference stem, series.extremal_series(p, theta, I, N, n): the
stem's coefficients, tail bound and slice shadow are those of the
truncated series, and only the values come from the closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (
    CliffordElement,
    grades,
    invert_batch,
    mul_batch,
    mul_coeffs,
    singular_values_batch,
)
from .errors import BasisError, RepresentationError
from .series import StemSeries, central_partials, extremal_series, power_derivative, power_sum
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


class ClosedFormMap(SliceMap):
    """The componentwise map x_t (1 - x_t e^{I theta})^{-*p}, evaluated in
    closed form, over its star-built stem extremal_series(p, theta, I, N, n)
    as the reference.

    On z = alpha + i beta each component is F_t = P(z_t) + Q(z_t) I with
    A = (1 - z e^{i theta})^{-p}, B = (1 - z e^{-i theta})^{-p},
    P = z (A + B)/2 and Q = z (A - B)/(2i): the sums of the stem's real
    Clifford coefficients binom(k+p-1, k) e^{I k theta} at power k+1.
    p = 2 is the Koebe map, p = 1 the Cayley map and p = -1 the paper
    example x_t (1 - x_t e^{I theta}), whose P = z - z^2 cos(theta) and
    Q = -z^2 sin(theta) are summed as written.
    """

    def __init__(self, p: int, theta: float, I: CliffordElement, N: int, n: int):
        super().__init__(extremal_series(p, theta, I, N, n))
        self.p = p
        self.theta = theta
        self.I = I

    def stem_arrays(self, alpha: np.ndarray, beta: np.ndarray):
        z = np.atleast_2d(alpha) + 1j * np.atleast_2d(beta)
        cos, sin = math.cos(self.theta), math.sin(self.theta)
        if self.p == -1:
            # the polynomial itself, with fewer roundings than A and B
            pz = z - z * z * cos
            qz = -(z * z) * sin
        else:
            a = (1.0 - z * complex(cos, sin)) ** -self.p
            b = (1.0 - z * complex(cos, -sin)) ** -self.p
            pz = 0.5 * z * (a + b)
            qz = -0.5j * z * (a - b)
        vals = pz[..., None] * _unit_row(self.m) + qz[..., None] * self.I.coeffs
        return np.ascontiguousarray(vals.real), np.ascontiguousarray(vals.imag)

    def coefficient_gap(self) -> float:
        """Largest difference between a coefficient of the stem and the
        closed form's coefficient at the same multi-index, over every
        power 0..stem.degree of every component."""
        kmat, amat = self.stem._kmat, self.stem._amat
        n, degree = self.n, self.stem.degree
        binom = [0, 1]
        for k in range(1, degree):
            binom.append(binom[-1] * (k + self.p - 1) // k)
        # theta reduced to (-pi, pi], so k * angle keeps its digits at large |theta|
        angle = math.atan2(math.sin(self.theta), math.cos(self.theta))
        k = np.arange(-1, degree)
        rows = np.array(binom, dtype=np.float64)[:, None] * (
            np.cos(k * angle)[:, None] * _unit_row(self.m)
            + np.sin(k * angle)[:, None] * self.I.coeffs)
        expected = np.zeros((degree + 1, n, n, 1 << self.m))
        expected[:, np.arange(n), np.arange(n)] = rows[:, None, :]
        # terms in one variable go to (power, variable); the rest must vanish
        single = np.count_nonzero(kmat, axis=1) == 1
        table = np.zeros_like(expected)
        table[kmat[single].sum(axis=1), kmat[single].argmax(axis=1)] = amat[single]
        return max(float(np.max(np.abs(table - expected))),
                   float(np.max(np.abs(amat[~single]), initial=0.0)))


class RawSliceMap(SliceMap):
    """Slice map built from an explicit even-odd pair of row callables.

    f1_fn/f2_fn take (alpha, beta) rows of shape (B, n) and return
    coefficient rows of shape (B, n, dim).  Lets the checks exercise
    slice mappings that are not series-built, e.g. non-holomorphic
    controls.  It has no stem, so no derivative.
    """

    def __init__(self, m: int, n: int, f1_fn, f2_fn):
        self.stem = None
        self.m = m
        self.n = n
        self.f1_fn = f1_fn
        self.f2_fn = f2_fn

    def stem_arrays(self, alpha: np.ndarray, beta: np.ndarray):
        alpha, beta = np.atleast_2d(alpha), np.atleast_2d(beta)
        return self.f1_fn(alpha, beta), self.f2_fn(alpha, beta)


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

    alpha, beta are (B, n) and J is (B, dim).  A row's residual vanishes
    (up to FD truncation) exactly when the restriction to its slice is
    holomorphic.  One eval_arrays call takes all 4n shifted points
    (series.central_partials, the stencil of series.cr_residual too).
    """
    alpha, beta, J = (np.atleast_2d(x) for x in (alpha, beta, J))
    B, n = alpha.shape
    J = np.broadcast_to(J, (B, J.shape[-1]))
    da, db = central_partials(
        lambda a, b: f.eval_arrays(a, b, np.tile(J, (4 * n, 1))), alpha, beta, step)
    defect = da + mul_batch(f.m, J[None, :, None, :], db)
    return np.max(np.sqrt(np.sum(defect * defect, axis=(2, 3))), axis=0)


# ---------------------------------------------------------------------------
# complex identification of a slice and holomorphic splitting
# ---------------------------------------------------------------------------

def complex_on_slice(rows: np.ndarray, I: CliffordElement):
    """Project coefficient rows (..., dim) onto span{1, I}.

    Returns (complex array, max off-slice residual).  The projection is
    orthogonal in the coefficient inner product, for which 1 and any
    root of -1 are orthonormal.
    """
    rows = np.asarray(rows)
    re = rows[..., 0]
    im = rows @ I.coeffs
    resid = rows - re[..., None] * _unit_row(I.m) - im[..., None] * I.coeffs
    return re + 1j * im, float(np.max(np.abs(resid), initial=0.0))


def _unit_row(m: int) -> np.ndarray:
    row = np.zeros(1 << m)
    row[0] = 1.0
    return row


class ComplexSeries:
    """Multivariate power series with complex n-vector coefficients; the
    shadow of a stem series on one slice."""

    def __init__(self, kmat: np.ndarray, coeffs: np.ndarray):
        self.kmat = kmat          # (K, n) exponents
        self.coeffs = coeffs      # (K, n) complex

    @property
    def n(self) -> int:
        return self.kmat.shape[1]

    def eval(self, z) -> np.ndarray:
        """Values at z of shape (n,) or (B, n); returns (n,) or (B, n)."""
        z = np.asarray(z, dtype=np.complex128)
        vals = power_sum(self.kmat, self.coeffs, z.reshape(-1, self.n))
        return vals.reshape(z.shape[:-1] + vals.shape[1:])

    def derivative(self, t: int) -> "ComplexSeries":
        return ComplexSeries(*power_derivative(self.kmat, self.coeffs, t))

    def jacobian(self, z) -> np.ndarray:
        """Complex Jacobian matrices J[..., s, t] = d component_s / d z_t at
        z of shape (n,) or (B, n)."""
        cols = [self.derivative(t).eval(z) for t in range(self.n)]
        return np.stack(cols, axis=-1)


def slice_shadow(f: SliceMap, I: CliffordElement):
    """Complex series of f restricted to the slice of I, plus the total
    off-slice coefficient residual (zero iff all coefficients lie in C_I)."""
    coeffs, resid = complex_on_slice(f.stem._amat, I)
    return ComplexSeries(f.stem._kmat.copy(), coeffs), resid


def default_module_basis(I: CliffordElement, tol: float = 1e-10) -> list[CliffordElement]:
    """Blade basis of the algebra as a left module over the slice of I.

    For a unit grade-1 direction I, extends it to an orthonormal frame of
    generator space and returns the 2**(m-1) blades built from the
    complementary frame vectors.  Raises BasisError otherwise (callers
    must pass an explicit completion).
    """
    m = I.m
    if m == 1:
        return [CliffordElement.scalar(1, 1.0)]
    g = grades(m)
    if np.max(np.abs(I.coeffs[g != 1]), initial=0.0) > tol:
        raise BasisError(
            "default module basis needs a grade-1 direction; "
            "pass an explicit completion"
        )
    axes = [1 << i for i in range(m)]
    frame = np.concatenate([I.coeffs[axes][None, :], np.eye(m)], axis=0)
    q, _ = np.linalg.qr(frame.T)
    comp_vectors = np.zeros((m - 1, 1 << m))
    comp_vectors[:, axes] = q[:, 1:m].T
    basis = [CliffordElement.scalar(m, 1.0)]
    for vec in comp_vectors:
        basis += [CliffordElement(m, mul_coeffs(m, b.coeffs, vec)) for b in basis]
    return basis


def split_components(f: SliceMap, I: CliffordElement, completion=None,
                     tol: float = 1e-10):
    """Split f_I into holomorphic complex series F_A with
    f_I(z) = sum_A F_A(z) I_A over a module basis {I_A}.

    Returns (components, basis) where components is a list of
    ComplexSeries aligned with basis.  Raises BasisError when the
    change-of-basis operator {I_A, I*I_A} is numerically singular.
    """
    m, dim = f.m, 1 << f.m
    basis = list(completion) if completion is not None else default_module_basis(I, tol)
    if len(basis) * 2 != dim:
        raise BasisError(
            f"module basis must have {dim // 2} elements, got {len(basis)}"
        )
    cols = []
    for b in basis:
        cols.append(b.coeffs)
        cols.append(mul_coeffs(m, I.coeffs, b.coeffs))
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


def reassemble_on_slice(components, basis, I: CliffordElement, z) -> np.ndarray:
    """Evaluate sum_A F_A(z) I_A as coefficient rows on the slice of I:
    shape (n, dim) at z of shape (n,), or (B, n, dim) at z of shape (B, n)."""
    m = I.m
    z = np.asarray(z, dtype=np.complex128)
    batch = z.reshape(-1, components[0].n)
    acc = np.zeros(batch.shape + (1 << m,))
    for comp, b in zip(components, basis):
        vals = comp.eval(batch)
        scale = vals.real[..., None] * _unit_row(m) + vals.imag[..., None] * I.coeffs
        acc = acc + mul_batch(m, scale, b.coeffs)
    return acc[0] if z.ndim == 1 else acc
