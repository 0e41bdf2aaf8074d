"""Clifford row kernels against an independent brute-force blade oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicegrowth.algebra import (
    CliffordElement,
    conj_batch,
    in_sqrt_minus_one,
    invert_batch,
    left_matrix_batch,
    mul_batch,
    mul_coeffs,
    singular_values_batch,
    slice_exp,
    spinor_decode,
    spinor_encode,
)
from slicegrowth.errors import NonInvertibleError


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
        ea = CliffordElement.blade(m, a).coeffs
        for b in blades:
            eb = CliffordElement.blade(m, b).coeffs
            c, sign = ref_blade_mul(a, b)
            expected = sign * CliffordElement.blade(m, c).coeffs
            assert np.array_equal(mul_coeffs(m, ea, eb), expected), f"e_{a} * e_{b}"


def test_generator_squares_and_bivector():
    e1 = CliffordElement.generator(2, 1).coeffs
    e2 = CliffordElement.generator(2, 2).coeffs
    e12 = CliffordElement.blade(2, (1, 2)).coeffs
    minus_one = CliffordElement.scalar(2, -1.0).coeffs
    assert np.array_equal(mul_coeffs(2, e1, e1), minus_one)
    assert np.array_equal(mul_coeffs(2, e1, e2), e12)
    # frozen from the transposition-counting oracle
    assert np.array_equal(mul_coeffs(2, e12, e12), minus_one)


def test_conjugate_signs():
    one = CliffordElement.scalar(3, 1.0).coeffs
    assert np.array_equal(conj_batch(3, one), one)
    for blade, sign in (((1,), -1.0), ((1, 2), -1.0), ((1, 2, 3), 1.0)):  # (-1)^(k(k+1)/2)
        row = CliffordElement.blade(3, blade).coeffs
        assert np.array_equal(conj_batch(3, row), sign * row), blade


def test_conjugate_matches_reversed_product_oracle():
    # conj(e_{h1..hr}) equals the product of -e_{hr} ... -e_{h1}
    m = 4
    for blade in all_blades(m):
        expected = CliffordElement.scalar(m, 1.0).coeffs
        for i in reversed(blade):
            expected = mul_coeffs(m, expected, -CliffordElement.generator(m, i).coeffs)
        assert np.array_equal(conj_batch(m, CliffordElement.blade(m, blade).coeffs), expected)


def test_sqrt_minus_one_members():
    assert in_sqrt_minus_one(CliffordElement.generator(3, 2))
    assert in_sqrt_minus_one(CliffordElement.blade(2, (1, 2)))
    assert not in_sqrt_minus_one(CliffordElement.scalar(2, 1.0))
    mix = CliffordElement(3, [0.0, 0.6, 0.0, 0.0, 0.8, 0.0, 0.0, 0.0])
    assert in_sqrt_minus_one(mix)
    assert CliffordElement(3, mul_coeffs(3, mix.coeffs, mix.coeffs)).isclose(
        CliffordElement.scalar(3, -1.0), 1e-12)


def test_sqrt_minus_one_fails_each_condition_alone():
    # e123 at m = 3 has trace 2 e123 and norm 1: only the trace condition
    # fails.  2 e1 has trace 0 and norm 4: only the norm condition fails
    m = 3
    e123 = CliffordElement.blade(m, (1, 2, 3))
    two_e1 = CliffordElement(m, 2.0 * CliffordElement.generator(m, 1).coeffs)
    for x, trace, norm in ((e123, 2.0 * e123.coeffs, CliffordElement.scalar(m, 1.0)),
                           (two_e1, np.zeros(1 << m), CliffordElement.scalar(m, 4.0))):
        c = x.coeffs
        assert np.array_equal(c + conj_batch(m, c), trace)
        assert np.array_equal(mul_coeffs(m, c, conj_batch(m, c)), norm.coeffs)
        assert in_sqrt_minus_one(x) is False


def test_inverse_examples():
    e1 = CliffordElement.generator(2, 1).coeffs
    e2 = CliffordElement.generator(2, 2).coeffs
    assert np.max(np.abs(invert_batch(2, e1[None])[0] + e1)) <= 1e-14
    two = CliffordElement.scalar(2, 2.0).coeffs
    assert np.max(np.abs(invert_batch(2, two[None])[0]
                         - CliffordElement.scalar(2, 0.5).coeffs)) <= 1e-14
    d = e1 - e2
    dinv = invert_batch(2, d[None])[0]
    assert CliffordElement(2, mul_coeffs(2, d, dinv)).isclose(
        CliffordElement.scalar(2, 1.0), 1e-12)
    with pytest.raises(NonInvertibleError):
        invert_batch(3, np.zeros((1, 8)))
    # 1 + e123 is a zero divisor at m = 3 (e123 squares to +1)
    x = CliffordElement.scalar(3, 1.0).coeffs + CliffordElement.blade(3, (1, 2, 3)).coeffs
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
        blocks = spinor_encode(m, a)
        assert blocks.shape == (30, 1 + m % 2, 1 << (m // 2), 1 << (m // 2)), m
        np.testing.assert_allclose(spinor_decode(m, blocks), a, rtol=0, atol=1e-14)


def test_spinor_blocks_are_a_representation():
    # the generators' blocks square to -1 and anticommute, and the blocks
    # of a basis blade are the product of its generators' blocks
    for m in range(1, 9):
        gens = [spinor_encode(m, CliffordElement.generator(m, i).coeffs[None])[0]
                for i in range(1, m + 1)]
        eye = np.broadcast_to(np.eye(gens[0].shape[-1]), gens[0].shape)
        for i, gi in enumerate(gens):
            np.testing.assert_array_equal(gi @ gi, -eye)
            for gj in gens[i + 1:]:
                np.testing.assert_array_equal(gi @ gj, -(gj @ gi))
        e_all = spinor_encode(m, CliffordElement.blade(m, range(1, m + 1)).coeffs[None])[0]
        prod = eye
        for g in gens:
            prod = prod @ g
        np.testing.assert_array_equal(e_all, prod)


def test_block_singular_values_match_the_left_operator():
    # each singular value of the blocks appears d times in the operator's
    rng = np.random.default_rng(9)
    for m in range(1, 9):
        a = rng.uniform(-1, 1, size=(4, 1 << m))
        svals = singular_values_batch(m, a)
        dense = np.linalg.svd(left_matrix_batch(m, a), compute_uv=False)
        repeated = np.repeat(svals, 1 << (m // 2), axis=1)
        np.testing.assert_allclose(repeated, dense, rtol=1e-12)


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


@pytest.mark.parametrize("m, blade", [(3, (1, 2, 3)), (4, (1, 2, 3, 4))])
def test_invert_batch_rejects_exactly_singular_rows(m, blade):
    # the pseudoscalar squares to +1 for m = 3 and 4, so 1 + e_A is a zero
    # divisor ((1 + e_A)(1 - e_A) = 0); one such row fails the whole batch
    x = CliffordElement.scalar(m, 1.0).coeffs + CliffordElement.blade(m, blade).coeffs
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
                ei = CliffordElement.generator(m, i).coeffs
                ej = CliffordElement.generator(m, j).coeffs
                s = mul_coeffs(m, ei, ej) + mul_coeffs(m, ej, ei)
                expected = CliffordElement.scalar(m, -2.0 if i == j else 0.0).coeffs
                assert np.array_equal(s, expected)


def test_slice_exp():
    e1 = CliffordElement.generator(2, 1)
    r = slice_exp(e1, np.pi)
    assert CliffordElement(2, r).isclose(CliffordElement.scalar(2, -1.0), 1e-12)
    half = slice_exp(e1, np.pi / 2)
    assert CliffordElement(2, half).isclose(e1, 1e-12)


def test_immutability():
    x = CliffordElement.generator(2, 1)
    with pytest.raises(ValueError):
        x.coeffs[0] = 5.0
    with pytest.raises(AttributeError):
        x.m = 3
