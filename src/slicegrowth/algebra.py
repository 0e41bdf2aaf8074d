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
invert_batch).  blade and generator build basis rows, and row_m reads
and validates the m of a row; a slice direction I is such a row.
CliffordElement is only the validated, immutable row of the one-point
layer (slicespace.make_point, SliceMap.eval).

Conjugation acts on grade k as (-1)**(k*(k+1)/2), i.e. reversion composed
with grade involution.  This makes t(x) = x + conj(x) vanish and
n(x) = x * conj(x) equal 1 on unit vectors, which is the characterization
of the square roots of -1 used throughout.

Spinor representation.  The algebra embeds in matrix blocks of size
d = 2**(m // 2), the smallest the classification allows: for m = 1..8 it
is C, H, H+H, M2(H), M4(C), M8(R), M8(R)+M8(R), M16(R) (Lounesto,
Clifford Algebras and Spinors, 2001, ch. 16).  Through m = 5 the blocks
are complex: with n = m // 2 qubits and the Jordan-Wigner matrices
gamma_{2k} = Z^(k) X I^(n-k-1), gamma_{2k+1} = Z^(k) Y I^(n-k-1) (tensor
powers of the Pauli matrices), e_j maps to i gamma_{j-1}, and for odd m
the last generator to i Z^(n).  From m = 6 they are real: the generators
are the tensor strings _REAL_GENERATORS, and e_7 is the image of
e_1 ... e_6.  Each squares to -1 and anticommutes with the others.  Where
the pseudoscalar squares to +1 (m = 3, 7) the last generator takes the
other sign in a second block, so an element is a pair of blocks on which
the pseudoscalar acts as opposite scalars, and the map is injective.  An
element a maps to M = sum_A a_A E_A, with E_A the product of its
generators' matrices.  The E_A are unitary and orthogonal under the trace
form, so a_A = Re tr(E_A^H M) / (blocks d) decodes any image exactly.  The
singular values of M are those of the left-multiplication operator of a,
each repeated dim / (blocks d) times.

invert_batch inverts the blocks.  mul_batch multiplies the blocks from
m = _SPINOR_MIN = 4 up; below it, faster there (measured on the algebra
suite's batches with BLAS at one thread), the left operators that
left_matrix_batch builds, each one gather from [x, -x]
(_Tables.left_index).  Encode and decode contract each row by its own
stacked vector-matrix product, so a row gets the same bits alone as in a
batch.  mul_batch expands each row of an operand once and broadcasts it,
with the bits of expanded operands.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Optional

import numpy as np

from .errors import DimensionError, NonInvertibleError

MAX_GENERATORS = 8
# mul_batch multiplies spinor blocks from this m up, sign-table operators below
_SPINOR_MIN = 4


class _Tables:
    """Per-m multiplication machinery (immutable, cached)."""

    __slots__ = ("m", "dim", "sign", "xor_flat", "grades", "conj_sign", "left_index")

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
        xor = idx[:, None] ^ idx[None, :]
        self.xor_flat = xor.ravel()
        self.grades = pc
        g = pc
        self.conj_sign = np.where((g * (g + 1) // 2) % 2 == 0, 1.0, -1.0)

        # (x*y)[k] = sum_j x[k^j] sign(k^j, j) y[j]: the left operator's
        # entry [k, j] is entry left_index[k, j] of the row [x, -x]
        self.left_index = xor + dim * (sign[xor, idx[None, :]] < 0)


@functools.lru_cache(maxsize=None)
def _tables(m: int) -> _Tables:
    if not 1 <= m <= MAX_GENERATORS:
        raise DimensionError(f"generator count must be in 1..{MAX_GENERATORS}, got {m}")
    return _Tables(m)


# the Pauli letters, and J = XZ, whose tensor strings (np.kron left to right)
# give the generators' blocks
_LETTERS = {"1": np.eye(2), "X": np.array([[0.0, 1], [1, 0]]), "Y": np.array([[0, -1j], [1j, 0]]),
            "Z": np.diag([1.0, -1]), "J": np.array([[0.0, -1], [1, 0]])}
# real generators of m = 6 and m = 8, each squaring to -1, all anticommuting
_REAL_GENERATORS = {6: "11J 1JX XJZ ZJZ J1Z JXX", 8: "111J 11JX 1XJZ 1ZJZ 1J1Z 1JXX XJZX ZJZX"}


def _kron(string: str) -> np.ndarray:
    return functools.reduce(np.kron, [_LETTERS[c] for c in string], np.eye(1))


class _Spinor:
    """Per-m spinor representation (immutable, cached).

    enc[A] holds E_A as floats over the blocks, (re, im) interleaved where
    they are complex, so a @ enc viewed as dtype is M; dec = enc.T /
    (blocks d) is the trace form.  From m = 5 up, and at m = 1, they are
    dim wide: the blocks hold exactly the algebra; at m = 2..4, 2 dim.
    """

    __slots__ = ("blocks", "d", "dtype", "enc", "dec")

    def __init__(self, m: int):
        n = m // 2
        d = 1 << n
        blocks = 1 + (m % 4 == 3)  # the pseudoscalar squares to +1
        if m < 6:
            gens = [1j * _kron("Z" * k + p + "1" * (n - k - 1)) for k in range(n) for p in "XY"]
            last = 1j * _kron("Z" * n)
        else:
            gens = [_kron(s) for s in _REAL_GENERATORS[m - m % 2].split()]
            last = functools.reduce(np.matmul, gens)
        gens = [np.stack([g] * blocks) for g in gens]
        if m & 1:
            gens.append(np.stack([last, -last][:blocks]))

        dim = 1 << m
        blades = np.empty((dim, blocks, d, d), dtype=gens[0].dtype)
        blades[0] = np.eye(d)
        for mask in range(1, dim):
            top = mask.bit_length() - 1
            blades[mask] = blades[mask ^ (1 << top)] @ gens[top]

        self.blocks = blocks
        self.d = d
        self.dtype = blades.dtype
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
    """Spinor blocks of the rows of a (..., dim): shape (..., blocks, d, d)."""
    s = _spinor(m)
    a = np.asarray(a, dtype=np.float64)
    flat = np.matmul(a[..., None, :], s.enc)[..., 0, :]
    return flat.view(s.dtype).reshape(a.shape[:-1] + (s.blocks, s.d, s.d))


def spinor_decode(m: int, blocks: np.ndarray) -> np.ndarray:
    """Coefficient rows (..., dim) of spinor blocks (..., blocks, d, d)."""
    dec = _spinor(m).dec
    flat = np.ascontiguousarray(blocks).view(np.float64)
    return np.matmul(flat.reshape(flat.shape[:-3] + (1, len(dec))), dec)[..., 0, :]


def _gather_signed(a: np.ndarray, index: np.ndarray, out=None) -> np.ndarray:
    """The entries index of the rows [a, -a] of a (..., dim): the sign
    table's left operators with index = left_index, and their transposes
    with its transpose.  0.0 + a and 0.0 - a make every zero entry +0.0."""
    both = np.concatenate([0.0 + a, 0.0 - a], axis=-1)
    return np.take(both, index, axis=-1, out=out, mode="clip")


def mul_batch(m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched product: a, b broadcastable to (..., dim).  Below
    _SPINOR_MIN each row b multiplies the transposed sign-table operator
    of its row of a (_gather_signed), built in chunks along the first
    axis, or once where a is broadcast along it."""
    t = _tables(m)
    a, b = (np.asarray(x, dtype=np.float64) for x in (a, b))
    if m >= _SPINOR_MIN:
        return spinor_decode(m, np.matmul(spinor_encode(m, a), spinor_encode(m, b)))
    shape = np.broadcast_shapes(a.shape, b.shape)
    nd = max(len(shape), 2)
    a, b = (x.reshape((1,) * (nd - x.ndim) + x.shape) for x in (a, b))
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    index = t.left_index.T  # operators (..., dim, dim) with row @ op = x * row
    ops = _gather_signed(a, index) if len(a) == 1 else None
    # ~512 KB of operators per chunk stays in cache
    step = max(1, (1 << 16) // max(1, math.prod(a.shape[1:]) * t.dim))
    for lo in range(0, len(out), step):
        op = ops if ops is not None else _gather_signed(a[lo:lo + step], index)
        rows = b if len(b) == 1 else b[lo:lo + step]
        out[lo:lo + step] = np.matmul(rows[..., None, :], op)[..., 0, :]
    return out.reshape(shape)


def conj_batch(m: int, a: np.ndarray) -> np.ndarray:
    return a * _tables(m).conj_sign


def left_matrix_batch(m: int, a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Stack of left-multiplication matrices L with (x*y) = L @ y for the
    rows x of a, shape (B, dim, dim): one gather of the sign table's
    entries (_gather_signed), built in out if given.  Each matrix is
    C-contiguous, so a row's operator and products have the bits it has
    alone."""
    return _gather_signed(a, _tables(m).left_index, out=out)


def singular_values_batch(m: int, a: np.ndarray) -> np.ndarray:
    """Singular values of the left-multiplication operators of the rows of
    a, largest first, shape (B, blocks d): those of the spinor blocks, each
    of which the operator repeats dim / (blocks d) times."""
    svals = np.linalg.svd(spinor_encode(m, a), compute_uv=False)
    return -np.sort(-svals.reshape(len(a), math.prod(svals.shape[1:])), axis=1)


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
# rows of basis blades, and the roots of -1
# ---------------------------------------------------------------------------

def row_m(row) -> int:
    """The m of a coefficient row of length 2**m; DimensionError for any
    other length."""
    dim = np.shape(row)[-1]
    m = dim.bit_length() - 1
    if dim != 1 << m or not 1 <= m <= MAX_GENERATORS:
        raise DimensionError(
            f"a row needs 2**m coefficients for m in 1..{MAX_GENERATORS}, got {dim}")
    return m


def blade(m: int, indices: Iterable[int] = ()) -> np.ndarray:
    """The row of the basis blade e_{h_1}...e_{h_r} for strictly increasing
    1-based indices; () gives the scalar 1."""
    idx = list(indices)
    if idx != sorted(set(idx)):
        raise DimensionError("blade indices must be strictly increasing")
    mask = 0
    for i in idx:
        if not 1 <= i <= m:
            raise DimensionError(f"blade index {i} out of range 1..{m}")
        mask |= 1 << (i - 1)
    row = np.zeros(_tables(m).dim)
    row[mask] = 1.0
    return row


def generator(m: int, i: int) -> np.ndarray:
    """The row of the generator e_i, 1-indexed."""
    return blade(m, (i,))


def in_sqrt_minus_one(x: np.ndarray, tol: float = 1e-10) -> bool:
    """True when the row x has t(x) = x + conj(x) ~ 0 and
    n(x) = x * conj(x) ~ 1 componentwise, i.e. x*x ~ -1 inside the cone."""
    m, c = row_m(x), np.asarray(x, dtype=np.float64)
    t = c + conj_batch(m, c)
    if np.max(np.abs(t)) > tol:
        return False
    nn = mul_coeffs(m, c, conj_batch(m, c))
    target = np.zeros(len(c))
    target[0] = 1.0
    return bool(np.max(np.abs(nn - target)) <= tol)


def slice_exp(I: np.ndarray, theta: float) -> np.ndarray:
    """The row of e^{I theta} = cos(theta) + I sin(theta) for the row I of
    a square root of -1."""
    row = np.zeros(len(I))
    row[0] = math.cos(theta)
    return row + math.sin(theta) * I


def grades(m: int) -> np.ndarray:
    return _tables(m).grades


# ---------------------------------------------------------------------------
# the value type of the one-point layer
# ---------------------------------------------------------------------------

class CliffordElement:
    """An immutable coefficient row of the 2**m-dimensional algebra,
    validated once: the value type of the one-point layer
    (slicespace.make_point, SlicePoint, SliceMap.eval).  Everything else
    takes rows."""

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
