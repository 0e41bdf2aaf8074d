"""Holomorphic stem series and the one-variable star-product algebra.

A stem series F(z) = sum_k z^k a_k has complex-scalar monomials z^k and
Clifford-vector coefficients a_k; because the coefficients are real
Clifford values, F(conj z) = conj(F(z)) holds identically and the induced
slice mapping is well defined.  The star product realizes the standard
non-commutative Cauchy convolution on one-variable series (coefficients
on the right of the powers), which is what expressions like
x (1 - x e^{I theta})^{-*2} presume.

power_sum is the one power-series evaluator: stems and their complex
slice shadows (slicemaps.ComplexSeries) are evaluated through it, and
power_derivative is the one formal partial derivative of both.
central_partials is the one finite-difference stencil of the holomorphy
checks on rows, cr_residual and slicemaps.regularity_residual.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .algebra import CliffordElement, mul_coeffs, mul_batch, slice_exp
from .errors import DimensionError, NonInvertibleError

_EVAL_CHUNK = 2048    # rows per power_sum block: about 60 MB of monomials at n = 2, N = 300


class StemSeries:
    """Finite multivariate power series with Clifford-vector coefficients.

    terms maps a multi-index (tuple of n non-negative ints) to an (n, 2**m)
    coefficient array or a sequence of n CliffordElements.  An optional
    tail_model(r) upper-bounds the norm of the dropped analytic tail on
    the closed polydisc of radius r (None means the series is exact).
    """

    def __init__(self, m: int, n: int, terms: dict, degree: Optional[int] = None,
                 tail_model: Optional[Callable[[float], float]] = None):
        self.m = m
        self.n = n
        dim = 1 << m
        keys = sorted(terms)
        rows = []
        for k in keys:
            if len(k) != n or any(e < 0 for e in k):
                raise DimensionError(f"bad multi-index {k} for n={n}")
            coeff = terms[k]
            if isinstance(coeff, (list, tuple)):
                coeff = np.stack([
                    c.coeffs if isinstance(c, CliffordElement) else np.asarray(c, float)
                    for c in coeff
                ])
            else:
                coeff = np.asarray(coeff, dtype=np.float64)
            if coeff.shape != (n, dim):
                raise DimensionError(
                    f"coefficient for {k} has shape {coeff.shape}, want {(n, dim)}"
                )
            rows.append(coeff)
        self._keys = keys
        self._kmat = (
            np.array(keys, dtype=np.int64).reshape(len(keys), n)
            if keys else np.zeros((0, n), dtype=np.int64)
        )
        self._amat = (
            np.stack(rows) if rows else np.zeros((0, n, dim))
        )
        self._aflat = self._amat.reshape(len(keys), n * dim)
        self.degree = degree if degree is not None else (
            int(self._kmat.sum(axis=1).max()) if keys else 0
        )
        self.tail_model = tail_model

    @property
    def dim(self) -> int:
        return 1 << self.m

    def multi_indices(self):
        return list(self._keys)

    def coefficient(self, k) -> list[CliffordElement]:
        k = tuple(k)
        try:
            pos = self._keys.index(k)
        except ValueError:
            return [CliffordElement.zero(self.m) for _ in range(self.n)]
        return [CliffordElement(self.m, row) for row in self._amat[pos]]

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
        return StemSeries(self.m, self.n, dict(zip(map(tuple, kmat.tolist()), amat)),
                          degree=max(self.degree - 1, 0))

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "N": self.degree,
            "terms": [
                {
                    "k": [int(e) for e in k],
                    "a": [CliffordElement(self.m, row).to_json() for row in coeff],
                }
                for k, coeff in zip(self._keys, self._amat)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "StemSeries":
        terms = {
            tuple(entry["k"]): [CliffordElement.from_json(a) for a in entry["a"]]
            for entry in obj["terms"]
        }
        return cls(int(obj["m"]), int(obj["n"]), terms, degree=int(obj["N"]))


def power_sum(kmat: np.ndarray, coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The one power-series evaluator: sum_k z^k coeffs[k] at each row of z.

    kmat: (K, n) exponents; coeffs: (K, C) real or complex; z: (B, n)
    complex.  Returns (B, C) complex.  Powers are built by cumulative
    products, _EVAL_CHUNK rows at a time.  A real table is contracted
    with the real and imaginary parts of the monomials separately, so
    conjugating z flips the sign of the imaginary part bit-for-bit.  A
    complex table is summed row by row (einsum, not a BLAS product), so a
    point gets the same bits alone as inside a batch; a real table's
    BLAS product gives a row bits that depend on the batch.
    """
    B = z.shape[0]
    real = not np.iscomplexobj(coeffs)
    top = int(kmat.max(initial=0))
    out = np.empty((B, coeffs.shape[1]), dtype=np.complex128)
    for lo in range(0, B, _EVAL_CHUNK):
        zc = np.ascontiguousarray(z[lo:lo + _EVAL_CHUNK].T)
        powers = np.empty((top + 1,) + zc.shape, dtype=np.complex128)
        powers[0] = 1.0
        for prev, cur in zip(powers[:-1], powers[1:]):
            np.multiply(prev, zc, out=cur)
        w = np.ones((kmat.shape[0], zc.shape[1]), dtype=np.complex128)
        for t in range(kmat.shape[1]):
            w *= powers[kmat[:, t], t]
        block = out[lo:lo + zc.shape[1]]
        if real:
            block.real = w.real.T @ coeffs
            block.imag = w.imag.T @ coeffs
        else:
            block[:] = np.einsum("kb,kc->bc", w, coeffs)
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
# one-variable star-product series
# ---------------------------------------------------------------------------

class UnivariateSeries:
    """Truncated series sum_k x^k a_k with Clifford coefficients a_k."""

    def __init__(self, m: int, coeffs):
        self.m = m
        dim = 1 << m
        rows = [
            c.coeffs if isinstance(c, CliffordElement) else np.asarray(c, float)
            for c in coeffs
        ]
        if not rows:
            rows = [np.zeros(dim)]
        arr = np.stack(rows).astype(np.float64)
        if arr.shape[1] != dim:
            raise DimensionError(f"coefficients must have length {dim}")
        arr.setflags(write=False)
        self.coeffs = arr

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def coefficient(self, k: int) -> CliffordElement:
        if k > self.degree:
            return CliffordElement.zero(self.m)
        return CliffordElement(self.m, self.coeffs[k])

    def shift(self, p: int = 1) -> "UnivariateSeries":
        """Multiply by x**p (exponent shift; coefficients stay put)."""
        pad = np.zeros((p, self.coeffs.shape[1]))
        return UnivariateSeries(self.m, np.vstack([pad, self.coeffs]))


def star_mul(f: UnivariateSeries, g: UnivariateSeries,
             trunc: Optional[int] = None) -> UnivariateSeries:
    """Cauchy star product: c_k = sum_j a_j * b_{k-j}, order preserved."""
    if f.m != g.m:
        raise DimensionError("star product requires matching generator counts")
    n_out = f.degree + g.degree if trunc is None else min(trunc, f.degree + g.degree)
    out = np.zeros((n_out + 1, f.coeffs.shape[1]))
    for k in range(n_out + 1):
        j0 = max(0, k - g.degree)
        j1 = min(k, f.degree)
        if j0 > j1:
            continue
        js = np.arange(j0, j1 + 1)
        prods = mul_batch(f.m, f.coeffs[js], g.coeffs[k - js])
        out[k] = prods.sum(axis=0)
    return UnivariateSeries(f.m, out)


def star_inverse(f: UnivariateSeries, trunc: int) -> UnivariateSeries:
    """Star inverse through order trunc: b_0 = a_0^{-1},
    b_k = -a_0^{-1} sum_{j=1..k} a_j * b_{k-j}."""
    try:
        a0inv = f.coefficient(0).inverse()
    except NonInvertibleError as exc:
        raise NonInvertibleError("constant coefficient is not invertible") from exc
    dim = f.coeffs.shape[1]
    out = np.zeros((trunc + 1, dim))
    out[0] = a0inv.coeffs
    for k in range(1, trunc + 1):
        j1 = min(k, f.degree)
        if j1 < 1:
            continue
        js = np.arange(1, j1 + 1)
        acc = mul_batch(f.m, f.coeffs[js], out[k - js]).sum(axis=0)
        out[k] = -mul_coeffs(f.m, a0inv.coeffs, acc)
    return UnivariateSeries(f.m, out)


# ---------------------------------------------------------------------------
# extremal map builders and tail accounting
# ---------------------------------------------------------------------------

def _geometric_unit(m: int, theta: float, I: CliffordElement) -> UnivariateSeries:
    one = CliffordElement.scalar(m, 1.0)
    return UnivariateSeries(m, [one, -slice_exp(I, theta)])


def koebe_map(theta: float, I: CliffordElement, N: int, n: int) -> StemSeries:
    """Componentwise x_t (1 - x_t e^{I theta})^{-*2}.

    Built through the star algebra (inverse then square), which lands on
    the coefficients (k+1) e^{I k theta} at power k+1; the classical
    slice restriction is x/(1-x)^2 for theta = 0.
    """
    m = I.m
    inv = star_inverse(_geometric_unit(m, theta, I), N)
    sq = star_mul(inv, inv, trunc=N).shift(1)
    return _assemble_componentwise(sq, n, tail_model=koebe_tail(n, N))


def convex_test_map(theta: float, I: CliffordElement, N: int, n: int,
                    variant: str = "cayley") -> StemSeries:
    """One-variable convex-family test maps applied componentwise.

    "cayley" is x_t (1 - x_t e^{I theta})^{-*1} (slice restriction
    x/(1-x) at theta = 0); "paper_example" is the degree-two polynomial
    x_t (1 - x_t e^{I theta}), kept for reporting because its slice
    restriction has a vanishing derivative inside the unit disc.
    """
    m = I.m
    if variant == "cayley":
        inv = star_inverse(_geometric_unit(m, theta, I), N).shift(1)
        return _assemble_componentwise(inv, n, tail_model=_cayley_tail(n, N))
    if variant == "paper_example":
        base = _geometric_unit(m, theta, I).shift(1)
        return _assemble_componentwise(base, n, tail_model=None)
    raise ValueError(f"unknown convex variant {variant!r}")


def _assemble_componentwise(series: UnivariateSeries, n: int, tail_model) -> StemSeries:
    m = series.m
    dim = 1 << m
    terms = {}
    for p, row in enumerate(series.coeffs):
        if not np.any(row):
            continue
        for t in range(n):
            k = [0] * n
            k[t] = p
            coeff = np.zeros((n, dim))
            coeff[t] = row
            terms[tuple(k)] = coeff
    return StemSeries(m, n, terms, degree=series.degree, tail_model=tail_model)


def koebe_tail(n: int, N: int):
    # sum_{k>N} (k+1) r^{k+1} = r^{N+2} ((N+2) - (N+1) r) / (1-r)^2 per component
    def bound(r: float) -> float:
        if r < 0:
            raise ValueError("radius must be non-negative")
        if r >= 1:
            return math.inf
        return math.sqrt(n) * r ** (N + 2) * ((N + 2) - (N + 1) * r) / (1 - r) ** 2
    return bound


def _cayley_tail(n: int, N: int):
    # sum_{k>N} r^{k+1} = r^{N+2} / (1-r) per component
    def bound(r: float) -> float:
        if r < 0:
            raise ValueError("radius must be non-negative")
        if r >= 1:
            return math.inf
        return math.sqrt(n) * r ** (N + 2) / (1 - r)
    return bound


def tail_bound(f: StemSeries, r: float) -> float:
    """Truncation-error budget of f on the ball of radius r (0 if exact)."""
    if f.tail_model is None:
        return 0.0
    return float(f.tail_model(r))
