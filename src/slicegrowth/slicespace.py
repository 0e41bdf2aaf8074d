"""Points of the several-variable slice cone, held as rows.

A point x with components x_t = alpha_t + beta_t * J, J a square root of
-1, is a row of the pair (alpha, beta) of shape (B, n), with J rows of
shape (B, 2**m) or one J row broadcast over them; a single point is a
batch of one row.  This is what SliceMap.eval_arrays and gauge_rho take.
The pair (beta, J) and (-beta, -J) describe the same point.

sample_S_batch draws J rows (unit grade-1 vectors, each a root of -1),
which unit_rows makes from raw normal rows, so a suite can draw the raw
rows of many cases in one generator call and normalize them once.
anticommuting_unit completes a slice row I to the sweep
J(u) = u*I + sqrt(1-u**2)*I_perp.
make_point builds the one-point SlicePoint that SliceMap.eval takes, the
one place where J is an algebra.CliffordElement; its canonical form keeps
the first nonzero coefficient of J positive and, for real points
(beta = 0), pins J to e_1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import CliffordElement, generator, grades, in_sqrt_minus_one, mul_coeffs, row_m
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


def make_point(alpha, beta, J: CliffordElement, tol: float = 1e-10) -> SlicePoint:
    """Canonical SlicePoint; validates J against the sphere of roots of -1."""
    alpha = _as_real_vector(alpha, "alpha")
    beta = _as_real_vector(beta, "beta")
    if alpha.shape != beta.shape:
        raise DimensionError("alpha and beta must have equal length")
    if not in_sqrt_minus_one(J.coeffs, tol):
        raise ConeError("J is not a square root of -1 within tolerance")
    if not np.any(beta):
        return SlicePoint(alpha, beta, CliffordElement(J.m, generator(J.m, 1)))
    s = _canonical_j_sign(J.coeffs)
    if s < 0:
        J = CliffordElement(J.m, -J.coeffs)
        beta = _as_real_vector(-np.asarray(beta), "beta")
    return SlicePoint(alpha, beta, J)


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


def anticommuting_unit(I: np.ndarray, rng, max_tries: int = 200) -> np.ndarray:
    """The row of a root of -1 that is Euclid-orthogonal to the row I and
    anticommutes with it, drawn from rng.

    Used to sweep J(u) = u*I + sqrt(1-u**2)*I_perp across [-1, 1].  A
    grade-1 direction gets a drawn grade-1 unit; any other gets the first
    generator e_i orthogonal to I that anticommutes with it (the lowest
    generator of an even blade), or at m = 2, where the whole trace-free
    unit sphere squares to -1, a drawn unit.  Otherwise SamplingError.
    """
    m = row_m(I)
    if m < 2:
        raise SamplingError("no orthogonal root of -1 exists for m = 1")
    g = grades(m)
    c = np.asarray(I, dtype=np.float64)

    if np.max(np.abs(c[g != 1]), initial=0.0) <= 1e-12:  # grade-1 direction
        v = c[[1 << i for i in range(m)]]
        for _ in range(max_tries):
            w = rng.normal(size=m)
            w -= (w @ v) * v
            nw = np.linalg.norm(w)
            if nw > 1e-8:
                row = np.zeros(1 << m)
                row[[1 << i for i in range(m)]] = w / nw
                return row
        raise SamplingError("failed to draw an orthogonal unit vector")

    for i in range(1, m + 1):
        e = generator(m, i)
        if abs(c[1 << (i - 1)]) <= 1e-12 and \
                np.max(np.abs(mul_coeffs(m, c, e) + mul_coeffs(m, e, c))) <= 1e-12:
            return e

    if m == 2:  # the whole trace-free unit sphere squares to -1
        for _ in range(max_tries):
            w = rng.normal(size=4)
            w[0] = 0.0
            w -= (w @ c) * c
            nw = np.linalg.norm(w)
            if nw > 1e-8:
                return w / nw
        raise SamplingError("failed to draw a trace-free orthogonal unit")

    raise SamplingError("no anticommuting root of -1 found for this direction")
