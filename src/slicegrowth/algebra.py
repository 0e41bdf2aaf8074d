"""Dense arithmetic in the real Clifford algebra with m anticommuting
generators of negative square (e_i e_i = -1, e_i e_j = -e_j e_i).

An element is a row of 2**m real coefficients over the blade basis
e_A = e_{h_1} ... e_{h_r} with h_1 < ... < h_r, and a batch of elements
is an array of such rows.  A blade is indexed by the bitmask whose bit
i-1 marks generator e_i, so for m = 2 the coefficient order is
(1, e1, e2, e12).  Product signs count the transpositions needed
to interleave-sort the two blades plus one factor -1 per repeated
generator; sign tables and conjugation signs are computed once per m and
cached.  mul_coeffs multiplies by the sign table and is the reference
every faster path is tested against.  Every product, conjugate and
inverse goes through the row kernels (mul_coeffs, mul_batch, conj_batch,
invert_batch); CliffordElement is only a validated, immutable row with
its m.

Conjugation acts on grade k as (-1)**(k*(k+1)/2), i.e. reversion composed
with grade involution.  This makes t(x) = x + conj(x) vanish and
n(x) = x * conj(x) equal 1 on unit vectors, which is the characterization
of the square roots of -1 used throughout.

Spinor representation.  The algebra embeds in complex matrices of size
d = 2**(m // 2) (Lounesto, Clifford Algebras and Spinors, 2001).  With
n = m // 2 qubits and the Jordan-Wigner matrices
gamma_{2k} = Z^(k) X I^(n-k-1), gamma_{2k+1} = Z^(k) Y I^(n-k-1) (tensor
powers of the Pauli matrices), e_j maps to i gamma_{j-1}, which squares to
-1 and anticommutes with the others.  For odd m the last generator is
i Z^(n) in one block and -i Z^(n) in a second, so an element is a pair of
blocks; the pseudoscalar then acts as opposite scalars on the two blocks
and the map is injective.  An element a maps to M = sum_A a_A E_A, with E_A
the product of its generators' matrices.  The E_A are unitary and
orthogonal under the trace form, so a_A = Re tr(E_A^H M) / (blocks d)
decodes any image exactly.  The singular values of M are those of the
left-multiplication operator of a, each repeated d times.

invert_batch inverts the blocks.  mul_batch multiplies the blocks from
m = _SPINOR_MIN = 4 up; below it the dense structure tensor is faster
(measured on the algebra suite's batches with BLAS at one thread).  Encode
and decode contract each row by its own stacked vector-matrix product, so
a row gets the same bits alone as in a batch.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

import numpy as np

from .errors import DimensionError, NonInvertibleError

MAX_GENERATORS = 8
# mul_batch multiplies spinor blocks from this m up, structure tensors below
_SPINOR_MIN = 4


class _Tables:
    """Per-m multiplication machinery (immutable, cached)."""

    __slots__ = (
        "m", "dim", "sign", "xor_flat", "grades", "conj_sign",
        "struct_flat", "xor_mat", "left_sign",
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

        if m < _SPINOR_MIN:
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


@functools.lru_cache(maxsize=None)
def _tables(m: int) -> _Tables:
    if not 1 <= m <= MAX_GENERATORS:
        raise DimensionError(f"generator count must be in 1..{MAX_GENERATORS}, got {m}")
    return _Tables(m)


class _Spinor:
    """Per-m spinor representation (immutable, cached).

    enc[A] holds E_A as interleaved (re, im) floats over the blocks, so
    a @ enc viewed as complex is M; dec = enc.T / (blocks d) is the trace
    form.  Both are (2 dim)-wide: blocks * d * d = dim complex entries.
    """

    __slots__ = ("blocks", "d", "enc", "dec")

    def __init__(self, m: int):
        n = m // 2
        d = 1 << n
        blocks = 1 + (m & 1)
        eye2 = np.eye(2, dtype=complex)
        pauli = (np.array([[0, 1], [1, 0]], dtype=complex),
                 np.array([[0, -1j], [1j, 0]]))
        z = np.diag([1.0 + 0j, -1.0])

        def kron(factors):
            return functools.reduce(np.kron, factors, np.eye(1, dtype=complex))

        gens = [np.stack([1j * kron([z] * k + [p] + [eye2] * (n - k - 1))] * blocks)
                for k in range(n) for p in pauli]
        if m & 1:
            zn = kron([z] * n)
            gens.append(np.stack([1j * zn, -1j * zn]))

        dim = 1 << m
        blades = np.empty((dim, blocks, d, d), dtype=complex)
        blades[0] = np.eye(d)
        for mask in range(1, dim):
            top = mask.bit_length() - 1
            blades[mask] = blades[mask ^ (1 << top)] @ gens[top]

        self.blocks = blocks
        self.d = d
        self.enc = blades.reshape(dim, -1).view(np.float64)
        self.dec = np.ascontiguousarray(self.enc.T) / (blocks * d)


@functools.lru_cache(maxsize=None)
def _spinor(m: int) -> _Spinor:
    _tables(m)  # validates m
    return _Spinor(m)


# ---------------------------------------------------------------------------
# coefficient-row kernels: every product, conjugate and inverse (arrays
# have trailing axis of length 2**m)
# ---------------------------------------------------------------------------

def mul_coeffs(m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two single coefficient arrays."""
    t = _tables(m)
    outer = (a[:, None] * b[None, :]) * t.sign
    return np.bincount(t.xor_flat, weights=outer.ravel(), minlength=t.dim)


def spinor_encode(m: int, a: np.ndarray) -> np.ndarray:
    """Spinor blocks of the rows of a (B, dim): shape (B, blocks, d, d)."""
    s = _spinor(m)
    flat = np.matmul(np.asarray(a, dtype=np.float64)[:, None, :], s.enc)[:, 0, :]
    return flat.view(np.complex128).reshape(len(a), s.blocks, s.d, s.d)


def spinor_decode(m: int, blocks: np.ndarray) -> np.ndarray:
    """Coefficient rows (B, dim) of spinor blocks (B, blocks, d, d)."""
    flat = np.ascontiguousarray(blocks).reshape(len(blocks), 1, -1).view(np.float64)
    return np.matmul(flat, _spinor(m).dec)[:, 0, :]


def mul_batch(m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched product: a, b broadcastable to (..., dim)."""
    t = _tables(m)
    a, b = np.broadcast_arrays(a, b)
    flat_a = a.reshape(-1, t.dim)
    flat_b = b.reshape(-1, t.dim)
    if m >= _SPINOR_MIN:
        prod = np.matmul(spinor_encode(m, flat_a), spinor_encode(m, flat_b))
        return spinor_decode(m, prod).reshape(a.shape)
    rows = flat_a.shape[0]
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
    rows x of a, shape (B, dim, dim), from the sign table.  Each matrix is
    C-contiguous, so a row's operator and products have the bits it has
    alone."""
    t = _tables(m)
    return np.take(a, t.xor_mat, axis=1) * t.left_sign


def singular_values_batch(m: int, a: np.ndarray) -> np.ndarray:
    """Singular values of the left-multiplication operators of the rows of
    a, largest first, shape (B, blocks d): those of the spinor blocks, each
    of which the operator repeats d times."""
    svals = np.linalg.svd(spinor_encode(m, a), compute_uv=False)
    return -np.sort(-svals.reshape(len(a), -1), axis=1)


def invert_batch(m: int, a: np.ndarray) -> np.ndarray:
    """Batched inverse: the spinor blocks of each row inverted by LU.

    Raises NonInvertibleError if any block is exactly singular.
    """
    try:
        inv = np.linalg.inv(spinor_encode(m, a))
    except np.linalg.LinAlgError as exc:
        raise NonInvertibleError("singular spinor block") from exc
    return spinor_decode(m, inv)


# ---------------------------------------------------------------------------
# element type
# ---------------------------------------------------------------------------

class CliffordElement:
    """An immutable coefficient row of the 2**m-dimensional algebra,
    validated once.  Products, conjugates and inverses go through the row
    kernels above on .coeffs."""

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

    # -- test helpers ----------------------------------------------------------

    @property
    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    def isclose(self, other: "CliffordElement", tol: float = 1e-12) -> bool:
        return self.m == other.m and bool(
            np.max(np.abs(self.coeffs - other.coeffs)) <= tol
        )


# ---------------------------------------------------------------------------
# predicates and helpers
# ---------------------------------------------------------------------------

def in_sqrt_minus_one(x: CliffordElement, tol: float = 1e-10) -> bool:
    """True when t(x) = x + conj(x) ~ 0 and n(x) = x * conj(x) ~ 1
    componentwise, i.e. x*x ~ -1 inside the cone."""
    m, c = x.m, x.coeffs
    t = c + conj_batch(m, c)
    if np.max(np.abs(t)) > tol:
        return False
    nn = mul_coeffs(m, c, conj_batch(m, c))
    target = np.zeros(len(c))
    target[0] = 1.0
    return bool(np.max(np.abs(nn - target)) <= tol)


def slice_exp(i_elem: CliffordElement, theta: float) -> np.ndarray:
    """The row of e^{I theta} = cos(theta) + I sin(theta) for I a square
    root of -1."""
    row = np.zeros(1 << i_elem.m)
    row[0] = math.cos(theta)
    return row + math.sin(theta) * i_elem.coeffs


def grades(m: int) -> np.ndarray:
    return _tables(m).grades
