"""Clifford row kernels against an independent brute-force blade oracle."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slicegrowth
from slicegrowth import algebra
from slicegrowth.algebra import (
    CliffordElement,
    blade,
    conj_batch,
    generator,
    in_sqrt_minus_one,
    invert_batch,
    left_matrix_batch,
    mul_batch,
    mul_coeffs,
    row_m,
    singular_values_batch,
    slice_exp,
    spinor_decode,
    spinor_encode,
)
from slicegrowth.errors import DimensionError, NonInvertibleError


def isclose(a, b, tol=1e-12):
    """Two coefficient rows of one length agree within tol."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.max(np.abs(a - b)) <= tol)


# --- reference oracle: tuple blades, bubble sort, explicit cancellation ----

def ref_blade_mul(a, b):
    seq = list(a) + list(b)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    out = []
    k = 0
    while k < len(seq):
        if k + 1 < len(seq) and seq[k] == seq[k + 1]:
            sign = -sign  # e_i e_i = -1
            k += 2
        else:
            out.append(seq[k])
            k += 1
    return tuple(out), sign


def all_blades(m):
    out = []
    for r in range(m + 1):
        out.extend(itertools.combinations(range(1, m + 1), r))
    return sorted(out, key=lambda t: sum(1 << (i - 1) for i in t))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_full_product_table_matches_oracle(m):
    blades = all_blades(m)
    for a in blades:
        ea = blade(m, a)
        for b in blades:
            eb = blade(m, b)
            c, sign = ref_blade_mul(a, b)
            expected = sign * blade(m, c)
            assert np.array_equal(mul_coeffs(m, ea, eb), expected), f"e_{a} * e_{b}"
            if m < 4:  # the sign-table operators of mul_batch, entry by entry
                assert np.array_equal(mul_batch(m, ea, eb), expected), f"e_{a} * e_{b}"


def test_generator_squares_and_bivector():
    e1 = generator(2, 1)
    e2 = generator(2, 2)
    e12 = blade(2, (1, 2))
    minus_one = -blade(2)
    assert np.array_equal(mul_coeffs(2, e1, e1), minus_one)
    assert np.array_equal(mul_coeffs(2, e1, e2), e12)
    # frozen from the transposition-counting oracle
    assert np.array_equal(mul_coeffs(2, e12, e12), minus_one)


def test_conjugate_signs():
    one = blade(3)
    assert np.array_equal(conj_batch(3, one), one)
    for indices, sign in (((1,), -1.0), ((1, 2), -1.0), ((1, 2, 3), 1.0)):  # (-1)^(k(k+1)/2)
        row = blade(3, indices)
        assert np.array_equal(conj_batch(3, row), sign * row), indices


def test_conjugate_matches_reversed_product_oracle():
    # conj(e_{h1..hr}) equals the product of -e_{hr} ... -e_{h1}
    m = 4
    for indices in all_blades(m):
        expected = blade(m)
        for i in reversed(indices):
            expected = mul_coeffs(m, expected, -generator(m, i))
        assert np.array_equal(conj_batch(m, blade(m, indices)), expected)


def test_sqrt_minus_one_members():
    assert in_sqrt_minus_one(generator(3, 2))
    assert in_sqrt_minus_one(blade(2, (1, 2)))
    assert not in_sqrt_minus_one(blade(2))
    mix = np.array([0.0, 0.6, 0.0, 0.0, 0.8, 0.0, 0.0, 0.0])
    assert in_sqrt_minus_one(mix)
    assert isclose(mul_coeffs(3, mix, mix), -blade(3), 1e-12)


def test_sqrt_minus_one_fails_each_condition_alone():
    # e123 at m = 3 has trace 2 e123 and norm 1: only the trace condition
    # fails.  2 e1 has trace 0 and norm 4: only the norm condition fails
    m = 3
    e123 = blade(m, (1, 2, 3))
    two_e1 = 2.0 * generator(m, 1)
    for c, trace, norm in ((e123, 2.0 * e123, blade(m)),
                           (two_e1, np.zeros(1 << m), 4.0 * blade(m))):
        assert np.array_equal(c + conj_batch(m, c), trace)
        assert np.array_equal(mul_coeffs(m, c, conj_batch(m, c)), norm)
        assert in_sqrt_minus_one(c) is False


def test_inverse_examples():
    e1 = generator(2, 1)
    e2 = generator(2, 2)
    assert np.max(np.abs(invert_batch(2, e1[None])[0] + e1)) <= 1e-14
    two = 2.0 * blade(2)
    assert np.max(np.abs(invert_batch(2, two[None])[0]
                         - 0.5 * blade(2))) <= 1e-14
    d = e1 - e2
    dinv = invert_batch(2, d[None])[0]
    assert isclose(mul_coeffs(2, d, dinv), blade(2), 1e-12)
    with pytest.raises(NonInvertibleError):
        invert_batch(3, np.zeros((1, 8)))
    # 1 + e123 is a zero divisor at m = 3 (e123 squares to +1)
    x = blade(3) + blade(3, (1, 2, 3))
    with pytest.raises(NonInvertibleError):
        invert_batch(3, x[None])


def test_batched_matches_scalar_multiply():
    # every m, so both sides of mul_batch's structure-tensor/spinor
    # crossover are pinned to the sign table
    rng = np.random.default_rng(7)
    for m in range(1, 9):
        a = rng.uniform(-1, 1, size=(20, 1 << m))
        b = rng.uniform(-1, 1, size=(20, 1 << m))
        batch = mul_batch(m, a, b)
        for i in range(20):
            np.testing.assert_allclose(batch[i], mul_coeffs(m, a[i], b[i]),
                                       atol=1e-13)


def test_spinor_encode_decode_round_trip():
    rng = np.random.default_rng(5)
    for m in range(1, 9):
        a = rng.uniform(-1, 1, size=(30, 1 << m))
        blocks, table = spinor_encode(m, a), algebra._spinor(m)
        assert blocks.shape == (30, table.blocks, table.d, table.d), m
        assert blocks.dtype == table.dtype, m
        np.testing.assert_allclose(spinor_decode(m, blocks), a, rtol=0, atol=1e-14)


# Cl(0, m) for m = 1..8 is C, H, H+H, M2(H), M4(C), M8(R), M8(R)+M8(R),
# M16(R) (Lounesto, Clifford Algebras and Spinors, ch. 16): (field, blocks, d)
_CLASSIFICATION = {1: ("C", 1, 1), 2: ("H", 1, 2), 3: ("H", 2, 2), 4: ("H", 1, 4),
                   5: ("C", 1, 4), 6: ("R", 1, 8), 7: ("R", 2, 8), 8: ("R", 1, 16)}


@pytest.mark.parametrize("m", range(1, 9))
def test_spinor_layout_is_the_minimal_one_of_the_classification(m):
    # real blocks hold a real matrix algebra and complex ones a complex one,
    # each float for one dimension of the algebra; a quaternion matrix of
    # size d / 2 takes a complex block of size d, twice its dimension
    field, blocks, d = _CLASSIFICATION[m]
    table = algebra._spinor(m)
    assert (table.blocks, table.d) == (blocks, d)
    assert table.dtype == (np.float64 if field == "R" else np.complex128)
    dim = 1 << m
    assert table.enc.shape == (dim, dim * (2 if field == "H" else 1))
    assert np.linalg.matrix_rank(table.enc) == dim
    if field == "C":
        # the pseudoscalar is central and squares to -1: the scalar +-i
        top = spinor_encode(m, blade(m, range(1, m + 1))[None])[0]
        assert abs(top[0, 0, 0]) == 1 and top[0, 0, 0].real == 0
        np.testing.assert_array_equal(top, top[0, 0, 0] * np.eye(d)[None])


def test_spinor_blocks_are_a_representation():
    # the generators' blocks square to -1 and anticommute, and the blocks
    # of a basis blade are the product of its generators' blocks
    for m in range(1, 9):
        gens = [spinor_encode(m, generator(m, i)[None])[0]
                for i in range(1, m + 1)]
        eye = np.broadcast_to(np.eye(gens[0].shape[-1]), gens[0].shape)
        for i, gi in enumerate(gens):
            np.testing.assert_array_equal(gi @ gi, -eye)
            for gj in gens[i + 1:]:
                np.testing.assert_array_equal(gi @ gj, -(gj @ gi))
        e_all = spinor_encode(m, blade(m, range(1, m + 1))[None])[0]
        prod = eye
        for g in gens:
            prod = prod @ g
        np.testing.assert_array_equal(e_all, prod)


def test_block_singular_values_match_the_left_operator():
    # each singular value of the blocks appears dim / (blocks d) times in
    # the operator's
    rng = np.random.default_rng(9)
    for m in range(1, 9):
        a = rng.uniform(-1, 1, size=(4, 1 << m))
        svals = singular_values_batch(m, a)
        dense = np.linalg.svd(left_matrix_batch(m, a), compute_uv=False)
        table = algebra._spinor(m)
        repeated = np.repeat(svals, (1 << m) // (table.blocks * table.d), axis=1)
        np.testing.assert_allclose(repeated, dense, rtol=1e-12)


def test_left_operators_built_in_a_workspace_keep_their_bits():
    # the algebra suite builds the inverse check's operators in one
    # workspace per shard, over whatever the last block left there
    rng = np.random.default_rng(10)
    for m in range(1, 9):
        a = rng.uniform(-1, 1, size=(5, 1 << m))
        ops = np.full((5, 1 << m, 1 << m), np.nan)
        assert left_matrix_batch(m, a, out=ops) is ops, m
        assert ops.tobytes() == left_matrix_batch(m, a).tobytes(), m


def test_batched_kernels_give_each_row_its_own_bits():
    rng = np.random.default_rng(21)
    for m in range(1, 9):
        a = rng.uniform(-1, 1, size=(300, 1 << m))
        b = rng.uniform(-1, 1, size=(300, 1 << m))
        inv, prod = invert_batch(m, a), mul_batch(m, a, b)
        for i in range(300):
            row = slice(i, i + 1)
            assert np.array_equal(invert_batch(m, a[row]), inv[row]), (m, i)
            assert np.array_equal(mul_batch(m, a[row], b[row]), prod[row]), (m, i)


@pytest.mark.parametrize("m", range(1, 9))
def test_broadcast_operands_give_the_bits_of_expanded_ones(m):
    # mul_batch expands each row of an operand once and broadcasts it; a
    # product row must not depend on that
    rng = np.random.default_rng(30 + m)
    dim = 1 << m
    col = rng.uniform(-1, 1, (7, 1, dim))
    rows = rng.uniform(-1, 1, (7, 3, dim))
    one = rng.uniform(-1, 1, dim)
    for a, b in ((col, rows), (one, rows), (rows, one)):
        shape = np.broadcast_shapes(a.shape, b.shape)
        expanded = mul_batch(m, np.broadcast_to(a, shape).copy(),
                             np.broadcast_to(b, shape).copy())
        got = mul_batch(m, a, b)
        assert got.shape == shape and got.tobytes() == expanded.tobytes(), (a.shape, b.shape)


@pytest.mark.parametrize("m", range(1, 9))
def test_kernels_take_zero_rows(m):
    dim = 1 << m
    empty = np.zeros((0, dim))
    assert mul_batch(m, empty, empty).shape == (0, dim)
    assert mul_batch(m, np.zeros((0, 1, dim)), np.zeros((0, 3, dim))).shape == (0, 3, dim)
    assert mul_batch(m, np.zeros((2, 0, dim)), np.ones(dim)).shape == (2, 0, dim)
    assert invert_batch(m, empty).shape == (0, dim)
    table = algebra._spinor(m)
    assert singular_values_batch(m, empty).shape == (0, table.blocks * table.d)
    assert spinor_decode(m, spinor_encode(m, empty)).shape == (0, dim)


@pytest.mark.parametrize("m, blade", [(3, (1, 2, 3)), (4, (1, 2, 3, 4))])
def test_invert_batch_rejects_exactly_singular_rows(m, blade):
    # the pseudoscalar squares to +1 for m = 3 and 4, so 1 + e_A is a zero
    # divisor ((1 + e_A)(1 - e_A) = 0); one such row fails the whole batch
    x = algebra.blade(m) + algebra.blade(m, blade)
    with pytest.raises(NonInvertibleError):
        invert_batch(m, x[None])
    rows = np.random.default_rng(3).uniform(-1, 1, size=(5, 1 << m))
    rows[2] = x
    with pytest.raises(NonInvertibleError):
        invert_batch(m, rows)


def test_batched_inverse_residual():
    rng = np.random.default_rng(11)
    m = 4
    a = rng.uniform(-1, 1, size=(200, 1 << m))
    inv = invert_batch(m, a)
    resid = mul_batch(m, a, inv)
    resid[:, 0] -= 1.0
    assert np.max(np.abs(resid)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_associativity_and_antiautomorphism(m, seed):
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(-1, 1, (3, 1 << m))
    lhs = mul_coeffs(m, mul_coeffs(m, a, b), c)
    rhs = mul_coeffs(m, a, mul_coeffs(m, b, c))
    scale = 1.0 + np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale
    conj_ab = conj_batch(m, mul_coeffs(m, a, b))
    assert np.max(np.abs(conj_ab - mul_coeffs(m, conj_batch(m, b), conj_batch(m, a)))) <= 1e-12
    assert np.array_equal(conj_batch(m, conj_batch(m, a)), a)


def test_anticommutation_exact():
    for m in (2, 3, 4):
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                ei = generator(m, i)
                ej = generator(m, j)
                s = mul_coeffs(m, ei, ej) + mul_coeffs(m, ej, ei)
                expected = (-2.0 if i == j else 0.0) * blade(m)
                assert np.array_equal(s, expected)


def test_slice_exp():
    e1 = generator(2, 1)
    r = slice_exp(e1, np.pi)
    assert isclose(r, -blade(2), 1e-12)
    half = slice_exp(e1, np.pi / 2)
    assert isclose(half, e1, 1e-12)


def test_blade_and_generator_validate():
    assert np.array_equal(blade(2), [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(generator(3, 3), blade(3, (3,)))
    assert np.array_equal(blade(3, (1, 3)), np.eye(8)[0b101])
    for m, i in ((2, 0), (2, 3), (3, -1)):
        with pytest.raises(DimensionError, match="out of range"):
            generator(m, i)
    for indices in ((2, 1), (1, 1), (3, 1, 2)):
        with pytest.raises(DimensionError, match="strictly increasing"):
            blade(3, indices)
    with pytest.raises(DimensionError, match="out of range"):
        blade(2, (1, 3))
    for m in (0, 9):
        with pytest.raises(DimensionError, match="generator count"):
            blade(m)
        with pytest.raises(DimensionError):
            generator(m, 1)


def test_row_m_reads_and_validates_the_length():
    for m in range(1, 9):
        assert row_m(np.zeros(1 << m)) == m
    for length in (1, 6, 512):
        with pytest.raises(DimensionError):
            row_m(np.zeros(length))
    # the row-taking predicates validate through row_m
    with pytest.raises(DimensionError):
        in_sqrt_minus_one(np.zeros(6))
    with pytest.raises(DimensionError):
        in_sqrt_minus_one(np.zeros(512))


def test_immutability():
    x = CliffordElement(2, generator(2, 1))
    with pytest.raises(ValueError):
        x.coeffs[0] = 5.0
    with pytest.raises(AttributeError):
        x.m = 3


def test_clifford_element_stays_in_the_one_point_layer():
    # slice directions are rows everywhere; the class is only the value type
    # of make_point, SlicePoint and SliceMap.eval, with no constructor or
    # helper of its own
    src = Path(slicegrowth.__file__).parent
    files = sorted(p.name for p in src.glob("*.py") if "CliffordElement" in p.read_text())
    assert files == ["__init__.py", "algebra.py", "slicemaps.py", "slicespace.py"]
    users = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, f"{scope}.{child.name}" if scope else child.name)
                continue
            if getattr(child, "id", None) == "CliffordElement" or \
                    getattr(child, "attr", None) == "CliffordElement":
                users.add(f"{module}:{scope}")
            visit(child, module, scope)
    for path in src.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, "")
    assert users == {"slicespace:SlicePoint", "slicespace:make_point",
                     "slicemaps:SliceMap.eval"}
    methods = sorted(k for k, v in vars(CliffordElement).items()
                     if callable(v) or isinstance(v, (classmethod, staticmethod, property)))
    assert methods == ["__init__", "__setattr__"]
