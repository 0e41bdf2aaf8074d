"""Holomorphic stem series and the one-variable star-product algebra.

A stem series F(z) = sum_k z^k a_k has complex-scalar monomials z^k and
Clifford-vector coefficients a_k; because the coefficients are real
Clifford values, F(conj z) = conj(F(z)) holds identically and the induced
slice mapping is well defined.  The star product realizes the standard
non-commutative Cauchy convolution on one-variable series sum_k x^k a_k
(coefficients on the right of the powers), which is what expressions
like x (1 - x e^{I theta})^{-*2} presume.  Such a series is its (K, 2**m)
coefficient array: row k holds a_k.

power_sum is the one power-series evaluator: stems and their complex
slice shadows (slicemaps.ComplexSeries) are evaluated through it, in
blocks of _EVAL_CHUNK rows, and power_derivative is the one formal
partial derivative of both.  central_partials is the one
finite-difference stencil of the holomorphy checks on rows, cr_residual
and slicemaps.regularity_residual.

star_mul(m, a, b, trunc) and star_inverse(m, a, trunc) take and return
such arrays, and work on the spinor blocks of the coefficients
(algebra.spinor_encode): a series is encoded once and decoded once.
star_mul takes every order from one stacked matrix product over
overlapping windows of one padded copy of a factor; star_inverse forms
the blocks of -a_0^{-1} a_j once and takes one small matrix product per
order, after refusing a constant term whose smallest singular value is
at most 1e-10 of its largest.  Neither holds more than a few copies of
its series' blocks, so memory stays small at m = 8.

extremal_series(p, theta, I, N, n) builds the extremal family
x_t (1 - x_t e^{I theta})^{-*p} by its exponent p, and extremal_tail
bounds the tail its truncation drops.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .algebra import (
    CliffordElement,
    invert_batch,
    singular_values_batch,
    slice_exp,
    spinor_decode,
    spinor_encode,
)
from .errors import DimensionError, NonInvertibleError

# rows per power_sum block.  A block's powers up to exponent e take
# (e + 1) n 256 complex numbers, 2.5 MB at n = 2 and e = 301 (the N = 300
# maps), and its K monomials K 256 more (2.4 MB at K = 600): about the
# 4 MB L2 cache of the 2-vCPU Xeon they were timed on.  There, 4,096 rows
# of the N = 300 Koebe map took 35 ms in blocks of 256 and 53 ms in
# blocks of 2,048, and of a mixed table of 595 monomials 16 and 45 ms.
_EVAL_CHUNK = 256


class StemSeries:
    """Finite multivariate power series with Clifford-vector coefficients.

    terms maps a multi-index (tuple of n non-negative ints) to an (n, 2**m)
    coefficient array.  An optional tail_model(r) upper-bounds the norm of
    the dropped analytic tail on the closed polydisc of radius r (None
    means the series is exact).
    """

    def __init__(self, m: int, n: int, terms: dict, degree: Optional[int] = None,
                 tail_model: Optional[Callable[[float], float]] = None):
        dim = 1 << m
        rows = []
        for k, coeff in terms.items():
            if len(k) != n or any(e < 0 for e in k):
                raise DimensionError(f"bad multi-index {k} for n={n}")
            coeff = np.asarray(coeff, dtype=np.float64)
            if coeff.shape != (n, dim):
                raise DimensionError(
                    f"coefficient for {k} has shape {coeff.shape}, want {(n, dim)}"
                )
            rows.append(coeff)
        kmat = np.array(list(terms), dtype=np.int64).reshape(len(rows), n)
        amat = np.stack(rows) if rows else np.zeros((0, n, dim))
        self._set_tables(m, n, kmat, amat, degree, tail_model)

    @classmethod
    def _from_tables(cls, m: int, n: int, kmat: np.ndarray, amat: np.ndarray,
                     degree: Optional[int] = None,
                     tail_model: Optional[Callable[[float], float]] = None) -> "StemSeries":
        """The series with distinct exponent rows kmat (K, n) and
        coefficients amat (K, n, 2**m), in any row order."""
        self = cls.__new__(cls)
        self._set_tables(m, n, kmat, amat, degree, tail_model)
        return self

    def _set_tables(self, m, n, kmat, amat, degree, tail_model):
        # rows in lexicographic multi-index order, as sorted(terms) gives
        order = np.lexsort(kmat.T[::-1])
        self.m = m
        self.n = n
        self._kmat = kmat[order]
        self._amat = amat[order]
        self._aflat = self._amat.reshape(len(kmat), n << m)
        self.degree = degree if degree is not None else int(kmat.sum(axis=1).max(initial=0))
        self.tail_model = tail_model

    @property
    def dim(self) -> int:
        return 1 << self.m

    def multi_indices(self):
        return [tuple(k) for k in self._kmat.tolist()]

    def coefficient(self, k) -> np.ndarray:
        """A copy of the (n, 2**m) coefficient rows of multi-index k (zero
        if absent)."""
        k = np.asarray(k)
        if k.shape != (self.n,):
            raise DimensionError(f"bad multi-index {k.tolist()} for n={self.n}")
        pos = np.flatnonzero(np.all(self._kmat == k, axis=1))
        if not len(pos):
            return np.zeros((self.n, self.dim))
        return self._amat[pos[0]].copy()

    # -- evaluation -----------------------------------------------------------

    def eval_arrays(self, alpha: np.ndarray, beta: np.ndarray):
        """Vectorized evaluation at z = alpha + i beta.

        alpha, beta: (B, n).  Returns (F1, F2) with shape (B, n, 2**m).
        Conjugating z flips the sign of F2 bit-for-bit (the even-odd pair
        identity is exact; see power_sum).
        """
        alpha = np.atleast_2d(np.asarray(alpha, dtype=np.float64))
        beta = np.atleast_2d(np.asarray(beta, dtype=np.float64))
        vals = power_sum(self._kmat, self._aflat, alpha + 1j * beta)
        shape = (alpha.shape[0], self.n, self.dim)
        return (np.ascontiguousarray(vals.real).reshape(shape),
                np.ascontiguousarray(vals.imag).reshape(shape))

    # -- calculus -------------------------------------------------------------

    def derivative(self, t: int) -> "StemSeries":
        """Formal partial derivative in variable t (0-indexed)."""
        if not 0 <= t < self.n:
            raise DimensionError(f"variable index {t} out of range 0..{self.n - 1}")
        kmat, amat = power_derivative(self._kmat, self._amat, t)
        return StemSeries._from_tables(self.m, self.n, kmat, amat,
                                       degree=max(self.degree - 1, 0))


def power_sum(kmat: np.ndarray, coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The one power-series evaluator: sum_k z^k coeffs[k] at each row of z.

    kmat: (K, n) exponents; coeffs: (K, C) real or complex; z: (B, n)
    complex.  Returns (B, C) complex.  The rows of z go in blocks of
    _EVAL_CHUNK; a block's powers z_t^e are built once, by cumulative
    products, and its monomials are gathered from them into a (K, block)
    table, which is contracted with coeffs.

    A real table is contracted with the monomials viewed as
    interleaved (re, im) floats, so conjugating z flips the sign of the
    imaginary part bit-for-bit.  A complex table is summed row by row
    (einsum, not a BLAS product), so a point gets the same bits alone as
    inside a batch; a real table's BLAS product gives a row bits that
    depend on the batch.
    """
    B, n = z.shape
    top = int(kmat.max(initial=0))
    real = not np.iscomplexobj(coeffs)
    out = np.empty((B, coeffs.shape[1]), dtype=np.complex128)
    for lo in range(0, B, _EVAL_CHUNK):
        zc = np.ascontiguousarray(z[lo:lo + _EVAL_CHUNK].T)
        powers = np.empty((top + 1,) + zc.shape, dtype=np.complex128)
        powers[0] = 1.0
        for prev, cur in zip(powers[:-1], powers[1:]):
            np.multiply(prev, zc, out=cur)
        w = powers[kmat[:, 0], 0]
        for t in range(1, n):
            w *= powers[kmat[:, t], t]
        vals = w.view(np.float64).T @ coeffs if real else np.einsum("kb,kc->bc", w, coeffs)
        block = out[lo:lo + zc.shape[1]]
        if real:    # vals has rows re, im, re, im, ...
            block.real, block.imag = vals[0::2], vals[1::2]
        else:
            block[:] = vals
    return out


def power_derivative(kmat: np.ndarray, coeffs: np.ndarray, t: int):
    """Formal partial derivative in variable t of the table (kmat, coeffs):
    rows with a positive t-exponent, scaled by it, exponent lowered by one."""
    keep = kmat[:, t] >= 1
    kmat = kmat[keep].copy()
    scale = kmat[:, t].reshape((-1,) + (1,) * (coeffs.ndim - 1))
    coeffs = coeffs[keep] * scale
    kmat[:, t] -= 1
    return kmat, coeffs


def identity_map(m: int, n: int) -> StemSeries:
    """F(z) = z; the induced slice mapping is the identity embedding."""
    dim = 1 << m
    terms = {}
    for t in range(n):
        k = [0] * n
        k[t] = 1
        coeff = np.zeros((n, dim))
        coeff[t, 0] = 1.0
        terms[tuple(k)] = coeff
    return StemSeries(m, n, terms, degree=1)


def central_partials(evaluate, alpha: np.ndarray, beta: np.ndarray,
                     step: float = 1e-5):
    """Central-difference partials in every alpha_t and beta_t at the rows
    z = alpha + i beta, from one evaluation of the 4n shifted row sets.

    alpha, beta are (B, n); evaluate maps (4nB, n) alpha and beta rows to
    an array with one leading row per point.  Returns (d_alpha, d_beta),
    each (n, B, ...): index t is the partial in variable t.
    """
    alpha, beta = np.atleast_2d(alpha), np.atleast_2d(beta)
    B, n = alpha.shape
    h = step * np.eye(n)[:, None, :]          # (n, 1, n): a step in variable t
    a = np.broadcast_to(alpha, (n, B, n))
    b = np.broadcast_to(beta, (n, B, n))
    points_a = np.concatenate([a + h, a - h, a, a]).reshape(-1, n)
    points_b = np.concatenate([b, b, b + h, b - h]).reshape(-1, n)
    vals = evaluate(points_a, points_b)
    vals = vals.reshape((4, n, B) + vals.shape[1:])
    return (vals[0] - vals[1]) / (2 * step), (vals[2] - vals[3]) / (2 * step)


def cr_residual(evaluate, alpha: np.ndarray, beta: np.ndarray,
                step: float = 1e-5) -> np.ndarray:
    """Finite-difference d/d(conj z_t) defect of F = F1 + i F2 at the rows
    z = alpha + i beta, maximized over t; shape (B,).

    evaluate is a row evaluator (alpha, beta) -> (F1, F2), each
    (B, n, dim), such as StemSeries.eval_arrays or SliceMap.stem_arrays;
    a row's residual vanishes (up to FD truncation) exactly when F is
    holomorphic there.
    """
    da, db = central_partials(lambda a, b: np.stack(evaluate(a, b), axis=1),
                              alpha, beta, step)
    # d/d(conj z_t) = (d/d alpha_t + i d/d beta_t) / 2 on F = F1 + i F2
    r1 = 0.5 * (da[:, :, 0] - db[:, :, 1])
    r2 = 0.5 * (da[:, :, 1] + db[:, :, 0])
    sq = np.sum(r1 * r1, axis=(2, 3)) + np.sum(r2 * r2, axis=(2, 3))
    return np.max(np.sqrt(sq), axis=0)


# ---------------------------------------------------------------------------
# one-variable star-product series, as (K, 2**m) coefficient arrays
# ---------------------------------------------------------------------------

def _series_rows(m: int, a) -> np.ndarray:
    """The coefficient array of sum_k x^k a_k, validated: (K, 2**m), K >= 1."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or not len(a) or a.shape[1] != 1 << m:
        raise DimensionError(f"series coefficients must be (K, {1 << m}), got {a.shape}")
    return a


def _block_columns(blocks: np.ndarray, width: int, top: int) -> np.ndarray:
    """Columns [X_k; X_{k-1}; ...; X_{k-width+1}] for k = top, ..., 0 of the
    spinor blocks X_i (len(blocks), nb, d, d), zero outside the given
    orders: shape (nb, top + 1, width d, d).  They are overlapping windows
    of one reversed, zero-padded copy, so they take no memory each."""
    nb, d = blocks.shape[1], blocks.shape[2]
    rev = np.zeros((nb, top + width, d, d), dtype=np.complex128)
    rev[:, top + 1 - len(blocks):top + 1] = blocks[::-1].swapaxes(0, 1)
    rows = rev.reshape(nb, (top + width) * d, d)
    win = np.lib.stride_tricks.sliding_window_view(rows, width * d, axis=1)
    return win[:, ::d].swapaxes(-1, -2)


def _block_row(blocks: np.ndarray) -> np.ndarray:
    """Spinor blocks (J, nb, d, d) side by side, in order: (nb, d, J d)."""
    J, nb, d = blocks.shape[:3]
    return blocks.transpose(1, 2, 0, 3).reshape(nb, d, J * d)


def star_mul(m: int, a, b, trunc: Optional[int] = None) -> np.ndarray:
    """Cauchy star product of the coefficient arrays a and b:
    c_k = sum_j a_j * b_{k-j}, order preserved, through order trunc.

    In the spinor representation c_k is the block row [A_0 ... A_F] times
    the block column [B_k; B_{k-1}; ...; B_{k-F}], so one stacked matrix
    product over the windows of _block_columns gives every order.  The
    windows are views, and only orders through the truncation are encoded.
    """
    a, b = _series_rows(m, a), _series_rows(m, b)
    degree = len(a) + len(b) - 2
    top = degree if trunc is None else min(trunc, degree)
    a = spinor_encode(m, a[:top + 1])
    b = spinor_encode(m, b[:top + 1])
    prods = np.matmul(_block_row(a)[:, None], _block_columns(b, len(a), top))
    return spinor_decode(m, prods[:, ::-1].swapaxes(0, 1))


def star_inverse(m: int, a, trunc: int) -> np.ndarray:
    """Star inverse of the coefficient array a through order trunc:
    b_0 = a_0^{-1}, b_k = -a_0^{-1} sum_{j=1..k} a_j * b_{k-j}.

    Raises NonInvertibleError when the smallest singular value of a_0's
    left-multiplication operator is at most 1e-10 max(1, largest).

    The spinor blocks M_j of -a_0^{-1} a_j are formed once; then each
    order is one matrix product of the block row [M_1 ... M_J] with the
    column [B_{k-1}; ...; B_{k-J}] of a history kept in reverse order.
    """
    a = _series_rows(m, a)
    svals = singular_values_batch(m, a[:1])[0]
    if svals[-1] <= 1e-10 * max(1.0, svals[0]):
        raise NonInvertibleError("constant coefficient is not invertible")
    a0inv = invert_batch(m, a[:1])
    J = min(len(a) - 1, trunc)
    enc = spinor_encode(m, np.vstack([a0inv, a[1:J + 1]]))
    ops = _block_row(-np.matmul(enc[0], enc[1:]))               # (nb, d, J d)
    nb, d = enc.shape[1], enc.shape[2]
    # hist[:, trunc - k] = B_k; the J blocks past trunc stay zero (orders < 0)
    hist = np.zeros((nb, trunc + J + 1, d, d), dtype=np.complex128)
    hist[:, trunc] = enc[0]
    rows = hist.reshape(nb, (trunc + J + 1) * d, d)
    for pos in range(trunc - 1, -1, -1):
        np.matmul(ops, rows[:, (pos + 1) * d:(pos + 1 + J) * d], out=hist[:, pos])
    return spinor_decode(m, hist[:, trunc::-1].swapaxes(0, 1))


# ---------------------------------------------------------------------------
# the extremal family and its tail
# ---------------------------------------------------------------------------

def extremal_series(p: int, theta: float, I: CliffordElement, N: int,
                    n: int) -> StemSeries:
    """Componentwise x_t (1 - x_t e^{I theta})^{-*p} through order N + 1:
    p = 2 the starlike Koebe map (coefficients (k+1) e^{I k theta} at
    power k+1; x/(1-x)^2 at theta = 0), p = 1 the convex Cayley map
    (x/(1-x)), and p = -1 the paper's degree-two example, exact at any N,
    whose slice restriction has a vanishing derivative inside the disc."""
    if p not in (-1, 1, 2):
        raise ValueError(f"no extremal map of exponent {p!r}; want -1, 1 or 2")
    m = I.m
    base = np.zeros((2, 1 << m))
    base[0, 0] = 1.0
    base[1] = -slice_exp(I, theta)
    if p == -1:
        return _assemble_componentwise(m, base, n, tail_model=None)
    inv = star_inverse(m, base, N)
    if p == 2:
        inv = star_mul(m, inv, inv, trunc=N)
    return _assemble_componentwise(m, inv, n, tail_model=extremal_tail(p, n, N))


def _assemble_componentwise(m: int, series: np.ndarray, n: int, tail_model) -> StemSeries:
    """The map with components x_t -> x_t series(x_t) for the coefficient
    array series: one exponent row per nonzero coefficient and variable,
    its power shifted by the factor x_t."""
    nonzero = np.flatnonzero(np.any(series, axis=1))
    rows = np.arange(n * len(nonzero))
    var = np.repeat(np.arange(n), len(nonzero))
    kmat = np.zeros((len(rows), n), dtype=np.int64)
    amat = np.zeros((len(rows), n, 1 << m))
    kmat[rows, var] = np.tile(nonzero + 1, n)
    amat[rows, var] = np.tile(series[nonzero], (n, 1))
    return StemSeries._from_tables(m, n, kmat, amat, degree=len(series),
                                   tail_model=tail_model)


def extremal_tail(p: int, n: int, N: int):
    """Norm bound r -> sqrt(n) sum_{k>N} |c_k| r^{k+1} of the tail that
    extremal_series(p, ., ., N, n) drops on the polydisc of radius r:
    |c_k| = k+1 for p = 2 and 1 for p = 1."""
    if p not in (1, 2):
        raise ValueError(f"no truncated extremal map of exponent {p!r}; want 1 or 2")

    def bound(r: float) -> float:
        if r < 0:
            raise ValueError("radius must be non-negative")
        if r >= 1:
            return math.inf
        if p == 2:
            # sum_{k>N} (k+1) r^{k+1} = r^{N+2} ((N+2) - (N+1) r) / (1-r)^2
            return math.sqrt(n) * r ** (N + 2) * ((N + 2) - (N + 1) * r) / (1 - r) ** 2
        # sum_{k>N} r^{k+1} = r^{N+2} / (1-r)
        return math.sqrt(n) * r ** (N + 2) / (1 - r)
    return bound


def tail_bound(f: StemSeries, r: float) -> float:
    """Truncation-error budget of f on the ball of radius r (0 if exact)."""
    if f.tail_model is None:
        return 0.0
    return float(f.tail_model(r))
