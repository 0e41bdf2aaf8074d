"""Points of the several-variable slice cone in slice coordinates.

A point is stored as (alpha, beta, J) with real n-vectors alpha, beta and
J a square root of -1, representing the Clifford vector with components
x_t = alpha_t + beta_t * J.  The pair (beta, J) and (-beta, -J) describe
the same point; the canonical form keeps the first nonzero coefficient of
J positive and, for real points (beta = 0), pins J to e_1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    CliffordElement,
    grades,
    in_sqrt_minus_one,
    mul_coeffs,
    slice_exp,
)
from .errors import ConeError, DimensionError, SamplingError, SliceMismatchError

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

    def to_json(self) -> dict:
        return {
            "alpha": [float(a) for a in self.alpha],
            "beta": [float(b) for b in self.beta],
            "J": self.J.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SlicePoint":
        return make_point(obj["alpha"], obj["beta"], CliffordElement.from_json(obj["J"]))


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
        J = -J
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


def embed(p: SlicePoint) -> list[CliffordElement]:
    """Componentwise Clifford vector x_t = alpha_t + beta_t * J."""
    out = []
    for a, b in zip(p.alpha, p.beta):
        out.append(CliffordElement.scalar(p.m, a) + b * p.J)
    return out


def decompose(xs, tol: float = 1e-9) -> SlicePoint:
    """Recover canonical (alpha, beta, J) from a vector of Clifford values.

    Every component must be alpha_t + beta_t*J for one shared J (up to
    sign); real components are compatible with any slice.  Raises
    ConeError when a component's imaginary part is not a scaled root of
    -1, SliceMismatchError when components sit on different slices.
    """
    xs = list(xs)
    if not xs:
        raise DimensionError("empty component list")
    m = xs[0].m
    alphas = np.array([x.scalar_part for x in xs])
    imags = np.stack([x.coeffs for x in xs])
    imags[:, 0] = 0.0
    norms = np.linalg.norm(imags, axis=1)
    scale = max(1.0, float(np.max([x.euclid_norm() for x in xs])))

    ref = int(np.argmax(norms))
    if norms[ref] <= tol * scale:
        return make_point(alphas, np.zeros_like(alphas), CliffordElement.generator(m, 1))

    j0 = imags[ref] / norms[ref]
    if not in_sqrt_minus_one(CliffordElement(m, j0), max(tol, 1e-12) * 100):
        raise ConeError("component imaginary part is not a scaled root of -1")

    betas = imags @ j0
    for t in range(len(xs)):
        if norms[t] <= tol * scale:
            betas[t] = 0.0
            continue
        ut = imags[t] / norms[t]
        if not in_sqrt_minus_one(CliffordElement(m, ut), max(tol, 1e-12) * 100):
            raise ConeError(f"component {t} lies outside the quadratic cone")
        if np.linalg.norm(imags[t] - betas[t] * j0) > tol * scale:
            raise SliceMismatchError("components do not share a common slice")
    return make_point(alphas, betas, CliffordElement(m, j0))


def point_norm(p: SlicePoint) -> float:
    """sqrt(sum of alpha_t**2 + beta_t**2); the slice-cone Euclidean norm."""
    return float(np.sqrt(np.dot(p.alpha, p.alpha) + np.dot(p.beta, p.beta)))


def vector_norm(values) -> float:
    """Euclidean norm of a Clifford vector (all blade coefficients stacked)."""
    total = 0.0
    for v in values:
        c = v.coeffs if isinstance(v, CliffordElement) else np.asarray(v)
        total += float(np.dot(c, c))
    return float(np.sqrt(total))


def orbit_point(o: SliceOrbit, J: CliffordElement, tol: float = 1e-10) -> SlicePoint:
    """Representative of the orbit on the slice of J."""
    return make_point(o.alpha, o.beta, J, tol)


def sample_S(rng, m: int, strategy: str = "vector", max_tries: int = 1000,
             tol: float = 1e-10) -> CliffordElement:
    """Draw an element of the sphere of square roots of -1.

    "vector" draws a uniform unit grade-1 vector, which is always a root
    of -1.  "rejection" draws a full random element, projects the trace
    out, normalizes, and accepts when the square lands on -1; for m >= 3
    that set has measure zero among trace-free directions, so rejection
    is only practical for m <= 2 and exhausts its budget otherwise.
    """
    if strategy == "vector":
        v = rng.normal(size=m)
        nv = np.linalg.norm(v)
        while nv < 1e-12:
            v = rng.normal(size=m)
            nv = np.linalg.norm(v)
        return CliffordElement.from_vector(m, v / nv)
    if strategy != "rejection":
        raise ValueError(f"unknown sampling strategy {strategy!r}")
    cs = np.where((grades(m) * (grades(m) + 1) // 2) % 2 == 0, 1.0, -1.0)
    for _ in range(max_tries):
        x = rng.normal(size=1 << m)
        x = 0.5 * (x - cs * x)  # remove the trace: (x - conj(x)) / 2
        nx = np.linalg.norm(x)
        if nx < 1e-12:
            continue
        x /= nx
        cand = CliffordElement(m, x)
        if in_sqrt_minus_one(cand, tol):
            return cand
    raise SamplingError(
        f"rejection sampling found no root of -1 in {max_tries} tries (m={m})"
    )


def sample_S_batch(rng, m: int, count: int) -> np.ndarray:
    """Vector-strategy coefficient rows, shape (count, 2**m)."""
    v = rng.normal(size=(count, m))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    out = np.zeros((count, 1 << m))
    for i in range(m):
        out[:, 1 << i] = v[:, i]
    return out


def circle_rotate(p: SlicePoint, theta: float, tol: float = 1e-9) -> SlicePoint:
    """Left multiplication of every component by e^{J theta}."""
    rot = slice_exp(p.J, theta)
    rotated = [rot * x for x in embed(p)]
    return decompose(rotated, tol)


def is_paravector_slice(p: SlicePoint, tol: float = 1e-10) -> bool:
    """True when J is purely grade-1, so the embedded components are
    paravectors."""
    mask = grades(p.m) != 1
    return bool(np.max(np.abs(p.J.coeffs[mask]), initial=0.0) <= tol)


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
                return CliffordElement.from_vector(m, w / nw)
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
    trace_sign = np.where((g * (g + 1) // 2) % 2 == 0, 1.0, -1.0)
    for _ in range(max_tries):
        if null.shape[0] == 0:
            break
        y = rng.normal(size=null.shape[0]) @ null
        y = 0.5 * (y - trace_sign * y)
        y -= (y @ c) * c
        ny = np.linalg.norm(y)
        if ny < 1e-8:
            continue
        cand = CliffordElement(m, y / ny)
        if in_sqrt_minus_one(cand, 1e-10):
            return cand
    raise SamplingError("no anticommuting root of -1 found for this direction")
