"""Holomorphic stem series and the one-variable star-product algebra.

A stem series F(z) = sum_k z^k a_k has complex-scalar monomials z^k and
Clifford-vector coefficients a_k; because the coefficients are real
Clifford values, F(conj z) = conj(F(z)) holds identically and the induced
slice mapping is well defined.  The star product realizes the standard
non-commutative Cauchy convolution on one-variable series sum_k x^k a_k
(coefficients on the right of the powers), which is what expressions
like x (1 - x e^{I theta})^{-*2} presume.  Such a series is its (K, 2**m)
coefficient array: row k holds a_k.

power_sum is the one power-series evaluator: stems, their holomorphic
components (slicemaps.ComplexSeries) and the side-by-side tables of
series that share their exponents (side_by_side) are evaluated through
it, in blocks of _EVAL_CHUNK rows.  central_partials is the one
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
x_t (1 - x_t e^{I theta})^{-*p} by its exponent p, for the slice row I;
the growth map's reference bounds its truncation tail by extremal_tail,
and coefficient_gap compares a series with the family's coefficients.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .algebra import (
    blade,
    invert_batch,
    row_m,
    singular_values_batch,
    slice_exp,
    spinor_decode,
    spinor_encode,
)
from .errors import DimensionError, NonInvertibleError

# rows per power_sum block, at most.  On the 2-vCPU Xeon they were timed
# on, 4,096 rows of the N = 300 Koebe map took 35 ms in blocks of 256 and
# 53 ms in blocks of 2,048, and of a mixed table of 595 monomials 16 and
# 45 ms.  A block's powers up to exponent e take (e + 1) n complex numbers
# per row and its K monomials K more: a long series takes fewer rows, so
# that the two tables hold at most 2**16 numbers (1 MB), 54 rows for the
# N = 300 maps at n = 2 (e = 301, K = 600), where 256 rows took 5 MB
_EVAL_CHUNK = 256


class StemSeries:
    """Finite multivariate power series with Clifford-vector coefficients.

    terms maps a multi-index (tuple of n non-negative ints) to an (n, 2**m)
    coefficient array; degree is the largest total degree of a row.  The
    series is these two tables: a truncation's tail is bounded by the
    growth map whose reference it is (suites.GrowthMap.reference).
    """

    def __init__(self, m: int, n: int, terms: dict):
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
        self._set_tables(m, n, kmat, amat)

    @classmethod
    def _from_tables(cls, m: int, n: int, kmat: np.ndarray, amat: np.ndarray) -> "StemSeries":
        """The series with distinct exponent rows kmat (K, n) and
        coefficients amat (K, n, 2**m), in any row order."""
        self = cls.__new__(cls)
        self._set_tables(m, n, kmat, amat)
        return self

    def _set_tables(self, m, n, kmat, amat):
        # rows in lexicographic multi-index order, as sorted(terms) gives
        order = np.lexsort(kmat.T[::-1])
        self.m = m
        self.n = n
        self._kmat = kmat[order]
        self._amat = amat[order]
        self._aflat = self._amat.reshape(len(kmat), n << m)
        self.degree = int(kmat.sum(axis=1).max(initial=0))

    @property
    def dim(self) -> int:
        return 1 << self.m

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

        alpha, beta: (B, n) (row_points).  Returns (F1, F2) with shape
        (B, n, 2**m).  Conjugating z flips the sign of F2 bit-for-bit (the
        even-odd pair identity is exact; see power_sum).
        """
        vals = power_sum(self._kmat, self._aflat, row_points(alpha, beta, self.n))
        shape = (len(vals), self.n, self.dim)
        return (np.ascontiguousarray(vals.real).reshape(shape),
                np.ascontiguousarray(vals.imag).reshape(shape))

    # -- calculus -------------------------------------------------------------

    def derivative(self, t: int) -> "StemSeries":
        """Formal partial derivative in variable t (0-indexed): the rows
        with a positive t-exponent, scaled by it, exponent lowered by one."""
        if not 0 <= t < self.n:
            raise DimensionError(f"variable index {t} out of range 0..{self.n - 1}")
        keep = self._kmat[:, t] >= 1
        kmat = self._kmat[keep].copy()
        amat = self._amat[keep] * kmat[:, t, None, None]
        kmat[:, t] -= 1
        return StemSeries._from_tables(self.m, self.n, kmat, amat)


def row_points(alpha, beta, n: int) -> np.ndarray:
    """z = alpha + i beta of (B, n) real rows; DimensionError for any other shape."""
    alpha, beta = np.asarray(alpha, dtype=np.float64), np.asarray(beta, dtype=np.float64)
    if alpha.shape[1:] != (n,) or beta.shape != alpha.shape:
        raise DimensionError(f"points must be (B, {n}) rows, got {alpha.shape} and {beta.shape}")
    return alpha + 1j * beta


def power_sum(kmat: np.ndarray, coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The one power-series evaluator: sum_k z^k coeffs[k] at each row of z.

    kmat: (K, n) exponents; coeffs: (K, C) real or complex; z: (B, n)
    complex.  Returns (B, C) complex.  The rows of z go in blocks of at
    most _EVAL_CHUNK, fewer for a long series, whose two tables then hold
    at most 2**16 numbers; a block's powers z_t^e are built once, by
    cumulative products, into a table whose row e n + t holds z_t^e (row
    t is 1).
    The (K, block) monomial table starts as one take from that whole
    table: each row's power of its first variable with a nonzero
    exponent (1 for a constant row).  Each later variable that some row
    needs then multiplies the table's (K, block) columns by its powers,
    taken into a second buffer, with 1 in every row that does not need
    it.  Every multiply covers the whole table, because numpy's complex
    multiply can give an element other bits on a subset of rows or in
    another layout, and a row must get the same bits alone as in any
    batch.  A componentwise table (one variable per row) needs no
    multiply.  The buffers are allocated once per call, and a short last
    block leaves their extra columns unread.

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
    step = max(1, min(_EVAL_CHUNK, (1 << 16) // (len(kmat) + (top + 1) * n)))
    width = min(B, step)
    powers = np.empty((top + 1, n, width), dtype=np.complex128)
    powers[0] = 1.0
    table = powers.reshape((top + 1) * n, width)
    first = np.argmax(kmat != 0, axis=1)
    first_rows = kmat[np.arange(len(kmat)), first] * n + first
    # exponent of each variable after a row's first, 0 (a factor 1) elsewhere
    later = np.where(np.arange(n) > first[:, None], kmat, 0)
    needed = [t for t in range(1, n) if later[:, t].any()]
    monomials = np.empty((len(kmat), width), dtype=np.complex128)
    factors = np.empty_like(monomials) if needed else None
    for lo in range(0, B, step):
        zc = z[lo:lo + step].T
        pw, w = powers[..., :zc.shape[1]], monomials[:, :zc.shape[1]]
        for prev, cur in zip(pw[:-1], pw[1:]):
            np.multiply(prev, zc, out=cur)
        np.take(table, first_rows, axis=0, out=monomials, mode="clip")
        for t in needed:
            np.take(table, later[:, t] * n + t, axis=0, out=factors, mode="clip")
            w *= factors[:, :zc.shape[1]]
        vals = w.view(np.float64).T @ coeffs if real else np.einsum("kb,kc->bc", w, coeffs)
        block = out[lo:lo + zc.shape[1]]
        if real:    # vals has rows re, im, re, im, ...
            block.real, block.imag = vals[0::2], vals[1::2]
        else:
            block[:] = vals
    return out


def side_by_side(stems: list[StemSeries]):
    """The exponent rows kmat (K, n) that the series share and their
    coefficient tables side by side, (K, len(stems) n 2**m): one
    power_sum call evaluates them all, series j in columns
    j n 2**m ... (j + 1) n 2**m.  Raises DimensionError if the series'
    exponent rows differ."""
    kmat = stems[0]._kmat
    if any(stem.m != stems[0].m or not np.array_equal(stem._kmat, kmat) for stem in stems):
        raise DimensionError("series evaluated side by side must share their exponent rows")
    return kmat, np.hstack([stem._aflat for stem in stems])


def central_partials(evaluate, alpha: np.ndarray, beta: np.ndarray,
                     step: float = 1e-5):
    """Central-difference partials in every alpha_t and beta_t at the rows
    z = alpha + i beta, from one evaluation of the 4n shifted row sets.

    alpha, beta are (B, n); evaluate maps (4nB, n) alpha and beta rows to
    an array with one leading row per point.  Returns (d_alpha, d_beta),
    each (n, B, ...): index t is the partial in variable t.
    """
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
    z = alpha + i beta, alpha and beta of shape (B, n), maximized over t;
    shape (B,).

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
    rev = np.zeros((nb, top + width, d, d), dtype=blocks.dtype)
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
    hist = np.zeros((nb, trunc + J + 1, d, d), dtype=enc.dtype)
    hist[:, trunc] = enc[0]
    rows = hist.reshape(nb, (trunc + J + 1) * d, d)
    for pos in range(trunc - 1, -1, -1):
        np.matmul(ops, rows[:, (pos + 1) * d:(pos + 1 + J) * d], out=hist[:, pos])
    return spinor_decode(m, hist[:, trunc::-1].swapaxes(0, 1))


# ---------------------------------------------------------------------------
# the extremal family and its tail
# ---------------------------------------------------------------------------

def extremal_series(p: int, theta: float, I: np.ndarray, N: int,
                    n: int) -> StemSeries:
    """Componentwise x_t (1 - x_t e^{I theta})^{-*p} through order N + 1:
    p = 2 the starlike Koebe map (coefficients (k+1) e^{I k theta} at
    power k+1; x/(1-x)^2 at theta = 0), p = 1 the convex Cayley map
    (x/(1-x)), and p = -1 the paper's degree-two example, exact at any N,
    whose slice restriction has a vanishing derivative inside the disc."""
    if p not in (-1, 1, 2):
        raise ValueError(f"no extremal map of exponent {p!r}; want -1, 1 or 2")
    m = row_m(I)
    base = np.zeros((2, 1 << m))
    base[0, 0] = 1.0
    base[1] = -slice_exp(I, theta)
    coeffs = base if p == -1 else star_inverse(m, base, N)
    if p == 2:
        coeffs = star_mul(m, coeffs, coeffs, trunc=N)
    return _assemble_componentwise(m, coeffs, n)


def coefficient_gap(f: StemSeries, p: int, theta: float, I: np.ndarray) -> float:
    """Largest difference between a coefficient of f, over every power
    0..f.degree of every component, and the one of x_t (1 - x_t e^{I theta})^{-*p}
    at its multi-index: binom(k+p-1, k) e^{I k theta} at power k+1 of x_t."""
    kmat, amat = f._kmat, f._amat
    n, degree = f.n, f.degree
    binom = [0, 1]
    for k in range(1, degree):
        binom.append(binom[-1] * (k + p - 1) // k)
    # theta reduced to (-pi, pi], so k * angle keeps its digits at large |theta|
    angle = math.atan2(math.sin(theta), math.cos(theta))
    k = np.arange(-1, degree)
    rows = np.array(binom, dtype=np.float64)[:, None] * (
        np.cos(k * angle)[:, None] * blade(f.m) + np.sin(k * angle)[:, None] * I)
    expected = np.zeros((degree + 1, n, n, f.dim))
    expected[:, np.arange(n), np.arange(n)] = rows[:, None, :]
    # terms in one variable go to (power, variable); the rest must vanish
    single = np.count_nonzero(kmat, axis=1) == 1
    table = np.zeros_like(expected)
    table[kmat[single].sum(axis=1), kmat[single].argmax(axis=1)] = amat[single]
    # np.max, unlike the builtin max, keeps a NaN
    return float(np.max([np.max(np.abs(table - expected)),
                         np.max(np.abs(amat[~single]), initial=0.0)]))


def _assemble_componentwise(m: int, series: np.ndarray, n: int) -> StemSeries:
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
    return StemSeries._from_tables(m, n, kmat, amat)


def extremal_tail(p: int, n: int, N: int):
    """Norm bound r -> sqrt(n) sum_{k>N} |c_k| r^{k+1} of the tail that
    extremal_series(p, ., ., N, n) drops on the polydisc of radius r:
    |c_k| = k+1 for p = 2, 1 for p = 1 and 0 for p = -1 (exact at any N)."""
    if p not in (-1, 1, 2):
        raise ValueError(f"no extremal map of exponent {p!r}; want -1, 1 or 2")

    def bound(r: float) -> float:
        if r < 0:
            raise ValueError("radius must be non-negative")
        if p == -1:
            return 0.0
        if r >= 1:
            return math.inf
        if p == 2:
            # sum_{k>N} (k+1) r^{k+1} = r^{N+2} ((N+2) - (N+1) r) / (1-r)^2
            return math.sqrt(n) * r ** (N + 2) * ((N + 2) - (N + 1) * r) / (1 - r) ** 2
        # sum_{k>N} r^{k+1} = r^{N+2} / (1-r)
        return math.sqrt(n) * r ** (N + 2) / (1 - r)
    return bound
