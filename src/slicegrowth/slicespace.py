"""Points of the several-variable slice cone, held as rows.

A point x with components x_t = alpha_t + beta_t * J, J a square root of
-1, is the row pair (alpha, beta) of shape (n,) with the slice row J of
shape (2**m,); a batch of B points is (alpha, beta) of shape (B, n) with
J rows of shape (B, 2**m) or one J row broadcast over them.  This is what
SliceMap.eval_arrays and gauge_rho take.  The pair (beta, J) and
(-beta, -J) describe the same point.

sample_S_batch draws J rows (unit grade-1 vectors, each a root of -1),
which unit_rows makes from raw normal rows, so a suite can draw the raw
rows of many cases in one generator call and normalize them once.
SliceOrbit is the orbit alpha + beta*J over all J, and anticommuting_unit
completes a slice I to the sweep J(u) = u*I + sqrt(1-u**2)*I_perp.
make_point builds the one-point SlicePoint that SliceMap.eval takes; its
canonical form keeps the first nonzero coefficient of J positive and, for
real points (beta = 0), pins J to e_1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import CliffordElement, conj_batch, grades, in_sqrt_minus_one, mul_coeffs
from .errors import ConeError, DimensionError, SamplingError

_CANON_EPS = 1e-12


def _as_real_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64).reshape(-1).copy()
    if arr.size == 0:
        raise DimensionError(f"{name} must have at least one component")
    arr.setflags(write=False)
    return arr


def _canonical_j_sign(coeffs: np.ndarray) -> float:
    nz = np.nonzero(np.abs(coeffs) > _CANON_EPS)[0]
    if nz.size == 0:
        return 1.0
    return 1.0 if coeffs[nz[0]] > 0 else -1.0


@dataclass(frozen=True, eq=False)
class SlicePoint:
    alpha: np.ndarray
    beta: np.ndarray
    J: CliffordElement

    @property
    def m(self) -> int:
        return self.J.m

    @property
    def n(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True, eq=False)
class SliceOrbit:
    """The circular orbit alpha + beta*J over all J; beta kept with its
    first nonzero component positive."""

    alpha: np.ndarray
    beta: np.ndarray

    @property
    def n(self) -> int:
        return self.alpha.shape[0]


def make_point(alpha, beta, J: CliffordElement, tol: float = 1e-10) -> SlicePoint:
    """Canonical SlicePoint; validates J against the sphere of roots of -1."""
    alpha = _as_real_vector(alpha, "alpha")
    beta = _as_real_vector(beta, "beta")
    if alpha.shape != beta.shape:
        raise DimensionError("alpha and beta must have equal length")
    if not in_sqrt_minus_one(J, tol):
        raise ConeError("J is not a square root of -1 within tolerance")
    if not np.any(beta):
        return SlicePoint(alpha, beta, CliffordElement.generator(J.m, 1))
    s = _canonical_j_sign(J.coeffs)
    if s < 0:
        J = CliffordElement(J.m, -J.coeffs)
        beta = _as_real_vector(-np.asarray(beta), "beta")
    return SlicePoint(alpha, beta, J)


def make_orbit(alpha, beta) -> SliceOrbit:
    alpha = _as_real_vector(alpha, "alpha")
    beta = _as_real_vector(beta, "beta")
    if alpha.shape != beta.shape:
        raise DimensionError("alpha and beta must have equal length")
    nz = np.nonzero(np.abs(beta) > 0.0)[0]
    if nz.size and beta[nz[0]] < 0:
        beta = _as_real_vector(-np.asarray(beta), "beta")
    return SliceOrbit(alpha, beta)


def point_norm(p: SlicePoint) -> float:
    """sqrt(sum of alpha_t**2 + beta_t**2); the slice-cone Euclidean norm."""
    return float(np.sqrt(np.dot(p.alpha, p.alpha) + np.dot(p.beta, p.beta)))


def vector_norm(values) -> float:
    """Euclidean norm of a Clifford vector given as coefficient rows (all
    blade coefficients stacked)."""
    total = 0.0
    for v in values:
        c = np.asarray(v)
        total += float(np.dot(c, c))
    return float(np.sqrt(total))


def unit_rows(v: np.ndarray) -> np.ndarray:
    """Unit grade-1 coefficient rows of shape (..., 2**m) from the raw
    normal rows v of shape (..., m), each scaled to length one.  For a
    C-contiguous v a row's bits do not depend on the batch it is in."""
    m = v.shape[-1]
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    out = np.zeros(v.shape[:-1] + (1 << m,))
    out[..., [1 << i for i in range(m)]] = v
    return out


def sample_S_batch(rng, m: int, count: int) -> np.ndarray:
    """Uniform unit grade-1 vectors, each a root of -1, as coefficient
    rows of shape (count, 2**m)."""
    return unit_rows(rng.normal(size=(count, m)))


def anticommuting_unit(i_elem: CliffordElement, rng=None,
                       max_tries: int = 200) -> CliffordElement:
    """A root of -1 that is Euclid-orthogonal to I and anticommutes with it.

    Used to sweep J(u) = u*I + sqrt(1-u**2)*I_perp across [-1, 1].  Handles
    grade-1 directions, single blades of even grade, the full trace-free
    sphere at m = 2, and falls back to a randomized search in the
    anticommutant kernel otherwise.
    """
    m = i_elem.m
    if m < 2:
        raise SamplingError("no orthogonal root of -1 exists for m = 1")
    if rng is None:
        rng = np.random.default_rng(0)
    g = grades(m)
    c = i_elem.coeffs

    if np.max(np.abs(c[g != 1]), initial=0.0) <= 1e-12:  # grade-1 direction
        v = c[[1 << i for i in range(m)]]
        for _ in range(max_tries):
            w = rng.normal(size=m)
            w -= (w @ v) * v
            nw = np.linalg.norm(w)
            if nw > 1e-8:
                row = np.zeros(1 << m)
                row[[1 << i for i in range(m)]] = w / nw
                return CliffordElement(m, row)
        raise SamplingError("failed to draw an orthogonal unit vector")

    nz = np.nonzero(np.abs(c) > 1e-12)[0]
    if nz.size == 1 and g[nz[0]] % 2 == 0:  # single even blade: any generator in it
        gen = int(np.log2(nz[0] & -nz[0])) + 1
        return CliffordElement.generator(m, gen)

    if m == 2:  # the whole trace-free unit sphere squares to -1
        for _ in range(max_tries):
            w = rng.normal(size=4)
            w[0] = 0.0
            w -= (w @ c) * c
            nw = np.linalg.norm(w)
            if nw > 1e-8:
                return CliffordElement(m, w / nw)
        raise SamplingError("failed to draw a trace-free orthogonal unit")

    # generic: nullspace of y -> I*y + y*I restricted to trace-free, I-orthogonal
    dim = 1 << m
    lmat = np.empty((dim, dim))
    rmat = np.empty((dim, dim))
    basis = np.eye(dim)
    for j in range(dim):
        lmat[:, j] = mul_coeffs(m, c, basis[j])
        rmat[:, j] = mul_coeffs(m, basis[j], c)
    amat = lmat + rmat
    _, svals, vt = np.linalg.svd(amat)
    null = vt[svals <= 1e-10 * max(1.0, svals[0])]
    for _ in range(max_tries):
        if null.shape[0] == 0:
            break
        y = rng.normal(size=null.shape[0]) @ null
        y = 0.5 * (y - conj_batch(m, y))
        y -= (y @ c) * c
        ny = np.linalg.norm(y)
        if ny < 1e-8:
            continue
        cand = CliffordElement(m, y / ny)
        if in_sqrt_minus_one(cand, 1e-10):
            return cand
    raise SamplingError("no anticommuting root of -1 found for this direction")
