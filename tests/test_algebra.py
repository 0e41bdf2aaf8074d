"""Clifford arithmetic against an independent brute-force blade oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicegrowth.algebra import (
    CliffordElement,
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
from slicegrowth.errors import DimensionError, NonInvertibleError


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
    for i, a in enumerate(blades):
        ea = CliffordElement.blade(m, a)
        for j, b in enumerate(blades):
            eb = CliffordElement.blade(m, b)
            c, sign = ref_blade_mul(a, b)
            expected = sign * CliffordElement.blade(m, c)
            assert (ea * eb) == expected, f"e_{a} * e_{b}"


def test_generator_squares_and_bivector():
    e1 = CliffordElement.generator(2, 1)
    e2 = CliffordElement.generator(2, 2)
    assert (e1 * e1) == CliffordElement.scalar(2, -1.0)
    assert (e1 * e2) == CliffordElement.blade(2, (1, 2))
    e12 = CliffordElement.blade(2, (1, 2))
    # frozen from the transposition-counting oracle
    assert (e12 * e12) == CliffordElement.scalar(2, -1.0)


def test_add_subtract_scale():
    e1 = CliffordElement.generator(2, 1)
    assert (e1 + e1) == 2.0 * e1
    assert (e1 - e1) == CliffordElement.zero(2)
    assert (CliffordElement.blade(2, (1, 2)) * 0.0) == CliffordElement.zero(2)


def test_mixed_m_raises():
    with pytest.raises(DimensionError):
        CliffordElement.generator(2, 1) * CliffordElement.generator(3, 1)
    with pytest.raises(DimensionError):
        CliffordElement.generator(2, 1) + CliffordElement.generator(3, 1)


def test_conjugate_signs():
    assert CliffordElement.scalar(3, 1.0).conjugate() == CliffordElement.scalar(3, 1.0)
    e1 = CliffordElement.generator(3, 1)
    assert e1.conjugate() == -e1
    e12 = CliffordElement.blade(3, (1, 2))
    assert e12.conjugate() == -e12
    e123 = CliffordElement.blade(3, (1, 2, 3))
    assert e123.conjugate() == e123  # grade 3: (-1)^6


def test_conjugate_matches_reversed_product_oracle():
    # conj(e_{h1..hr}) equals the product of -e_{hr} ... -e_{h1}
    m = 4
    for blade in all_blades(m):
        expected = CliffordElement.scalar(m, 1.0)
        for i in reversed(blade):
            expected = expected * (-CliffordElement.generator(m, i))
        assert CliffordElement.blade(m, blade).conjugate() == expected


def test_trace_and_norm_examples():
    e1 = CliffordElement.generator(2, 1)
    assert e1.trace() == CliffordElement.zero(2)
    assert CliffordElement.scalar(2, 3.0).trace() == CliffordElement.scalar(2, 6.0)
    assert (1.0 + e1).trace() == CliffordElement.scalar(2, 2.0)
    assert e1.norm_sq() == CliffordElement.scalar(2, 1.0)
    assert CliffordElement.scalar(2, 2.0).norm_sq() == CliffordElement.scalar(2, 4.0)
    assert (1.0 + e1).norm_sq() == CliffordElement.scalar(2, 2.0)


def test_sqrt_minus_one_members():
    assert in_sqrt_minus_one(CliffordElement.generator(3, 2))
    assert in_sqrt_minus_one(CliffordElement.blade(2, (1, 2)))
    assert not in_sqrt_minus_one(CliffordElement.scalar(2, 1.0))
    mix = CliffordElement.from_vector(3, np.array([0.6, 0.0, 0.8]))
    assert in_sqrt_minus_one(mix)
    assert (mix * mix).isclose(CliffordElement.scalar(3, -1.0), 1e-12)


def test_inverse_examples():
    e1 = CliffordElement.generator(2, 1)
    assert e1.inverse().isclose(-e1, 1e-14)
    assert CliffordElement.scalar(2, 2.0).inverse().isclose(
        CliffordElement.scalar(2, 0.5), 1e-14)
    d = CliffordElement.generator(2, 1) - CliffordElement.generator(2, 2)
    dinv = d.inverse()
    assert (d * dinv).isclose(CliffordElement.scalar(2, 1.0), 1e-12)
    with pytest.raises(NonInvertibleError):
        CliffordElement.zero(3).inverse()
    # 1 + e1 squares to 2 e1 + 2... check a genuinely non-cone invertible:
    x = 1.0 + CliffordElement.blade(3, (1, 2, 3))  # idempotent-like, singular
    with pytest.raises(NonInvertibleError):
        x.inverse()


def test_inverse_rejects_numerically_singular_elements():
    # 1 + t e123 is singular at t = 1 (e123 squares to +1 for m = 3); near
    # it the solve would succeed, and the singular-value test must refuse
    x = 1.0 + (1.0 - 1e-13) * CliffordElement.blade(3, (1, 2, 3))
    with pytest.raises(NonInvertibleError):
        x.inverse()
    y = 1.0 + 0.5 * CliffordElement.blade(3, (1, 2, 3))
    assert (y * y.inverse()).isclose(CliffordElement.scalar(3, 1.0), 1e-14)


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
    x = (1.0 + CliffordElement.blade(m, blade)).coeffs
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
    a, b, c = (CliffordElement(m, rng.uniform(-1, 1, 1 << m)) for _ in range(3))
    lhs = (a * b) * c
    rhs = a * (b * c)
    scale = 1.0 + a.euclid_norm() * b.euclid_norm() * c.euclid_norm()
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12 * scale
    assert (a * b).conjugate().isclose(b.conjugate() * a.conjugate(), 1e-12)
    assert a.conjugate().conjugate() == a


def test_anticommutation_exact():
    for m in (2, 3, 4):
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                ei = CliffordElement.generator(m, i)
                ej = CliffordElement.generator(m, j)
                s = ei * ej + ej * ei
                expected = CliffordElement.scalar(m, -2.0 if i == j else 0.0)
                assert s == expected


def test_slice_exp():
    e1 = CliffordElement.generator(2, 1)
    r = slice_exp(e1, np.pi)
    assert r.isclose(CliffordElement.scalar(2, -1.0), 1e-12)
    half = slice_exp(e1, np.pi / 2)
    assert half.isclose(e1, 1e-12)


def test_immutability():
    x = CliffordElement.generator(2, 1)
    with pytest.raises(ValueError):
        x.coeffs[0] = 5.0
    with pytest.raises(AttributeError):
        x.m = 3
