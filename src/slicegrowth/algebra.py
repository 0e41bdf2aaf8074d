"""Dense arithmetic in the real Clifford algebra with m anticommuting
generators of negative square (e_i e_i = -1, e_i e_j = -e_j e_i).

Elements carry 2**m real coefficients over the blade basis
e_A = e_{h_1} ... e_{h_r} with h_1 < ... < h_r.  A blade is indexed by the
bitmask whose bit i-1 marks generator e_i, so for m = 2 the coefficient
order is (1, e1, e2, e12).  Product signs count the transpositions needed
to interleave-sort the two blades plus one factor -1 per repeated
generator; sign tables, conjugation signs and (for small m) the dense
structure tensor are computed once per m and cached.

Conjugation acts on grade k as (-1)**(k*(k+1)/2), i.e. reversion composed
with grade involution.  This makes t(x) = x + conj(x) vanish and
n(x) = x * conj(x) equal 1 on unit vectors, which is the characterization
of the square roots of -1 used throughout.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

import numpy as np

from .errors import DimensionError, NonInvertibleError

MAX_GENERATORS = 8
# dense (dim, dim, dim) structure tensors are kept only up to this m
_STRUCT_MAX = 6


class _Tables:
    """Per-m multiplication machinery (immutable, cached)."""

    __slots__ = (
        "m", "dim", "sign", "xor_flat", "grades", "conj_sign",
        "struct_flat", "xor_mat", "left_sign", "names",
    )

    def __init__(self, m: int):
        dim = 1 << m
        idx = np.arange(dim)
        pc = np.array([bin(i).count("1") for i in range(dim)], dtype=np.int64)

        # reordering transpositions: sum over s>=1 of popcount((a >> s) & b)
        swaps = np.zeros((dim, dim), dtype=np.int64)
        for s in range(1, m):
            swaps += pc[(idx[:, None] >> s) & idx[None, :]]
        swaps += pc[idx[:, None] & idx[None, :]]  # e_i e_i = -1 per shared generator
        sign = np.where(swaps % 2 == 0, 1.0, -1.0)

        self.m = m
        self.dim = dim
        self.sign = sign
        self.xor_flat = (idx[:, None] ^ idx[None, :]).ravel()
        self.grades = pc
        g = pc
        self.conj_sign = np.where((g * (g + 1) // 2) % 2 == 0, 1.0, -1.0)

        if m <= _STRUCT_MAX:
            # struct_flat[i, j*dim + k] = sign(i, j) iff k == i^j
            struct = np.zeros((dim, dim, dim))
            ii = np.repeat(idx, dim)
            jj = np.tile(idx, dim)
            struct[ii, jj, ii ^ jj] = sign.ravel()
            self.struct_flat = struct.reshape(dim, dim * dim)
        else:
            self.struct_flat = None

        # left-multiplication gather: (x*y)[k] = sum_j x[k^j] sign(k^j, j) y[j]
        self.xor_mat = idx[:, None] ^ idx[None, :]
        self.left_sign = sign[self.xor_mat, idx[None, :]]

        self.names = tuple(
            "1" if i == 0 else "e" + "".join(str(b + 1) for b in range(m) if i >> b & 1)
            for i in range(dim)
        )


@functools.lru_cache(maxsize=None)
def _tables(m: int) -> _Tables:
    if not 1 <= m <= MAX_GENERATORS:
        raise DimensionError(f"generator count must be in 1..{MAX_GENERATORS}, got {m}")
    return _Tables(m)


# ---------------------------------------------------------------------------
# raw coefficient-array kernels (shared by the element class and the batched
# verification paths; arrays have trailing axis of length 2**m)
# ---------------------------------------------------------------------------

def mul_coeffs(m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two single coefficient arrays."""
    t = _tables(m)
    outer = (a[:, None] * b[None, :]) * t.sign
    return np.bincount(t.xor_flat, weights=outer.ravel(), minlength=t.dim)


def mul_batch(m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched product: a, b broadcastable to (..., dim)."""
    t = _tables(m)
    a, b = np.broadcast_arrays(a, b)
    flat_a = a.reshape(-1, t.dim)
    flat_b = b.reshape(-1, t.dim)
    rows = flat_a.shape[0]
    if t.struct_flat is None:
        out = np.empty_like(flat_a)
        for i in range(rows):
            out[i] = mul_coeffs(m, flat_a[i], flat_b[i])
        return out.reshape(a.shape)
    out = np.empty_like(flat_a)
    chunk = max(1, (1 << 22) // (t.dim * t.dim))  # ~32 MB of stacked operators
    for lo in range(0, rows, chunk):
        hi = min(lo + chunk, rows)
        left = (flat_a[lo:hi] @ t.struct_flat).reshape(hi - lo, t.dim, t.dim)
        out[lo:hi] = np.matmul(flat_b[lo:hi, None, :], left)[:, 0, :]
    return out.reshape(a.shape)


def conj_batch(m: int, a: np.ndarray) -> np.ndarray:
    return a * _tables(m).conj_sign


def left_matrix_batch(m: int, a: np.ndarray) -> np.ndarray:
    """Stack of left-multiplication matrices L with (x*y) = L @ y for the
    rows x of a, shape (B, dim, dim).  Each matrix is C-contiguous, so a
    row's operator, inverse and products have the bits it has alone."""
    t = _tables(m)
    return np.take(a, t.xor_mat, axis=1) * t.left_sign


def invert_batch(m: int, a: np.ndarray) -> np.ndarray:
    """Batched generic inverse by linear solve with iterative refinement.

    Raises NonInvertibleError if any left operator is exactly singular.
    """
    t = _tables(m)
    rows = a.shape[0]
    out = np.empty_like(a)
    e0 = np.zeros(t.dim)
    e0[0] = 1.0
    chunk = max(1, (1 << 22) // (t.dim * t.dim))
    for lo in range(0, rows, chunk):
        hi = min(lo + chunk, rows)
        ls = left_matrix_batch(m, a[lo:hi])
        rhs = np.broadcast_to(e0, (hi - lo, t.dim))
        try:
            y = np.linalg.solve(ls, rhs[..., None])[..., 0]
            for _ in range(2):  # refinement keeps residual ~eps even near cond 1e7
                r = rhs - np.matmul(ls, y[..., None])[..., 0]
                y = y + np.linalg.solve(ls, r[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise NonInvertibleError("singular left-multiplication operator") from exc
        out[lo:hi] = y
    return out


# ---------------------------------------------------------------------------
# element type
# ---------------------------------------------------------------------------

class CliffordElement:
    """Immutable element of the 2**m-dimensional algebra.

    Supports +, -, * (algebra product or real scaling), / by reals, and
    the conjugate/trace/norm operations used by the slice machinery.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs):
        t = _tables(m)
        arr = np.asarray(coeffs, dtype=np.float64)
        if arr.shape != (t.dim,):
            raise DimensionError(
                f"expected {t.dim} coefficients for m={m}, got shape {arr.shape}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("CliffordElement is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def scalar(cls, m: int, value: float) -> "CliffordElement":
        c = np.zeros(1 << m)
        c[0] = value
        return cls(m, c)

    @classmethod
    def zero(cls, m: int) -> "CliffordElement":
        return cls(m, np.zeros(1 << m))

    @classmethod
    def generator(cls, m: int, i: int) -> "CliffordElement":
        """The generator e_i, 1-indexed."""
        if not 1 <= i <= m:
            raise DimensionError(f"generator index {i} out of range 1..{m}")
        c = np.zeros(1 << m)
        c[1 << (i - 1)] = 1.0
        return cls(m, c)

    @classmethod
    def blade(cls, m: int, indices: Iterable[int]) -> "CliffordElement":
        """Basis blade e_{h_1}...e_{h_r} for strictly increasing indices."""
        idx = list(indices)
        if idx != sorted(set(idx)):
            raise DimensionError("blade indices must be strictly increasing")
        mask = 0
        for i in idx:
            if not 1 <= i <= m:
                raise DimensionError(f"blade index {i} out of range 1..{m}")
            mask |= 1 << (i - 1)
        c = np.zeros(1 << m)
        c[mask] = 1.0
        return cls(m, c)

    @classmethod
    def from_vector(cls, m: int, v) -> "CliffordElement":
        """Grade-1 element with coefficients v over (e_1, ..., e_m)."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (m,):
            raise DimensionError(f"expected {m} vector components, got {v.shape}")
        c = np.zeros(1 << m)
        for i in range(m):
            c[1 << i] = v[i]
        return cls(m, c)

    # -- basic queries -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    @property
    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    def euclid_norm(self) -> float:
        """Coefficient 2-norm; equals sqrt(n(x)) on the quadratic cone."""
        return float(np.linalg.norm(self.coeffs))

    def is_scalar(self, tol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(self.coeffs[1:]), initial=0.0) <= tol)

    def isclose(self, other: "CliffordElement", tol: float = 1e-12) -> bool:
        return self.m == other.m and bool(
            np.max(np.abs(self.coeffs - other.coeffs)) <= tol
        )

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "CliffordElement"):
        if self.m != other.m:
            raise DimensionError(f"mixed generator counts {self.m} and {other.m}")

    def __add__(self, other):
        if isinstance(other, CliffordElement):
            self._check(other)
            return CliffordElement(self.m, self.coeffs + other.coeffs)
        if isinstance(other, (int, float)):
            c = self.coeffs.copy()
            c[0] += other
            return CliffordElement(self.m, c)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, CliffordElement):
            self._check(other)
            return CliffordElement(self.m, self.coeffs - other.coeffs)
        if isinstance(other, (int, float)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CliffordElement(self.m, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, CliffordElement):
            self._check(other)
            return CliffordElement(self.m, mul_coeffs(self.m, self.coeffs, other.coeffs))
        if isinstance(other, (int, float)):
            return CliffordElement(self.m, self.coeffs * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return CliffordElement(self.m, other * self.coeffs)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return CliffordElement(self.m, self.coeffs / other)
        return NotImplemented

    def __eq__(self, other):
        return (
            isinstance(other, CliffordElement)
            and self.m == other.m
            and np.array_equal(self.coeffs, other.coeffs)
        )

    __hash__ = None

    # -- involutions and norms ----------------------------------------------

    def conjugate(self) -> "CliffordElement":
        """Clifford conjugate: (-1)**(k(k+1)/2) on the grade-k part."""
        return CliffordElement(self.m, self.coeffs * _tables(self.m).conj_sign)

    def trace(self) -> "CliffordElement":
        """t(x) = x + conj(x); scalar exactly on the quadratic cone."""
        return self + self.conjugate()

    def norm_sq(self) -> "CliffordElement":
        """n(x) = x * conj(x); scalar exactly on the quadratic cone."""
        return self * self.conjugate()

    def inverse(self, tol: float = 1e-10) -> "CliffordElement":
        """Multiplicative inverse by invert_batch.

        Raises NonInvertibleError when the smallest singular value of the
        left-multiplication operator is below tol relative to the largest.
        """
        row = self.coeffs[None]
        svals = np.linalg.svd(left_matrix_batch(self.m, row)[0], compute_uv=False)
        if svals[-1] <= tol * max(1.0, svals[0]):
            raise NonInvertibleError(
                f"left operator numerically singular (sigma_min={svals[-1]:.3e})"
            )
        return CliffordElement(self.m, invert_batch(self.m, row)[0])

    # -- serialization and display -------------------------------------------

    def to_json(self) -> dict:
        return {"m": self.m, "coeffs": [float(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "CliffordElement":
        return cls(int(obj["m"]), obj["coeffs"])

    def __repr__(self):
        names = _tables(self.m).names
        parts = [
            f"{c:+.6g}*{names[i]}" if i else f"{c:+.6g}"
            for i, c in enumerate(self.coeffs)
            if c != 0.0
        ]
        body = " ".join(parts) if parts else "0"
        return f"<R_{self.m}: {body}>"


# ---------------------------------------------------------------------------
# predicates and helpers
# ---------------------------------------------------------------------------

def in_quadratic_cone(x: CliffordElement, tol: float = 1e-10) -> bool:
    """Membership in the quadratic cone: reals, plus elements whose trace
    and norm are scalar (within tol) with 4 n(x) > t(x)**2."""
    if x.is_scalar(tol):
        return True
    t = x.trace()
    nn = x.norm_sq()
    if not (t.is_scalar(tol) and nn.is_scalar(tol)):
        return False
    return 4.0 * nn.scalar_part > t.scalar_part ** 2


def in_sqrt_minus_one(x: CliffordElement, tol: float = 1e-10) -> bool:
    """True when t(x) ~ 0 and n(x) ~ 1 componentwise, i.e. x*x ~ -1 inside
    the cone."""
    t = x.trace()
    if np.max(np.abs(t.coeffs)) > tol:
        return False
    nn = x.norm_sq()
    target = np.zeros(x.dim)
    target[0] = 1.0
    return bool(np.max(np.abs(nn.coeffs - target)) <= tol)


def slice_exp(i_elem: CliffordElement, theta: float) -> CliffordElement:
    """e^{I theta} = cos(theta) + I sin(theta) for I a square root of -1."""
    return CliffordElement.scalar(i_elem.m, math.cos(theta)) + math.sin(theta) * i_elem


def grades(m: int) -> np.ndarray:
    return _tables(m).grades
