"""Slice coordinates: canonical form, orbits, norms, sampling."""

import numpy as np
import pytest

from slicegrowth.algebra import CliffordElement, in_sqrt_minus_one, mul_coeffs
from slicegrowth.errors import SamplingError
from slicegrowth.slicespace import (
    anticommuting_unit,
    make_orbit,
    make_point,
    point_norm,
    sample_S_batch,
    vector_norm,
)


def test_canonicalization_folds_sign():
    j = CliffordElement(2, [0.0, -1.0, 0.0, 0.0])  # first coeff negative
    p = make_point([0.5], [1.0], j)
    q = make_point([0.5], [-1.0], CliffordElement(2, -j.coeffs))
    np.testing.assert_allclose(p.beta, q.beta)
    assert np.array_equal(p.J.coeffs, q.J.coeffs)
    # canonical form is idempotent
    r = make_point(p.alpha, p.beta, p.J)
    assert np.array_equal(r.J.coeffs, p.J.coeffs) and np.array_equal(r.beta, p.beta)


def test_real_point_pins_canonical_slice():
    j = CliffordElement.generator(3, 2)
    p = make_point([1.0, 2.0], [0.0, 0.0], j)
    assert np.array_equal(p.J.coeffs, CliffordElement.generator(3, 1).coeffs)


def test_point_norm_examples():
    j = CliffordElement(2, [0.0, 0.6, 0.8, 0.0])
    p = make_point([3.0, 0.0], [4.0, 0.0], j)
    assert point_norm(p) == pytest.approx(5.0, abs=1e-12)
    origin = make_point([0.0], [0.0], CliffordElement.generator(2, 1))
    assert point_norm(origin) == 0.0


def test_point_norm_independent_of_slice():
    rng = np.random.default_rng(5)
    o = make_orbit([0.3, -1.2], [0.7, 0.4])
    values = [point_norm(make_point(o.alpha, o.beta, CliffordElement(3, j)))
              for j in sample_S_batch(rng, 3, 100)]
    assert max(values) - min(values) < 1e-12


def test_orbit_point_real_orbit():
    o = make_orbit([1.0, -2.0], [0.0, 0.0])
    for j in (CliffordElement.generator(2, 1), CliffordElement.generator(2, 2)):
        p = make_point(o.alpha, o.beta, j)
        np.testing.assert_allclose(p.alpha, [1.0, -2.0])
        assert not np.any(p.beta)


def test_orbit_opposite_slices_fold():
    o = make_orbit([0.1], [0.9])
    j = CliffordElement.generator(2, 1)
    a = make_point(o.alpha, o.beta, j)
    b = make_point(o.alpha, o.beta, CliffordElement(2, -j.coeffs))
    # embedded points differ, canonical slices agree up to the beta sign
    assert np.array_equal(a.J.coeffs, b.J.coeffs)
    np.testing.assert_allclose(a.beta, -b.beta)


def test_sample_vector_strategy_always_root():
    rng = np.random.default_rng(11)
    for m in (1, 2, 3, 5):
        rows = sample_S_batch(rng, m, 500)
        for row in rows[:50]:
            assert in_sqrt_minus_one(CliffordElement(m, row), 1e-10)
        norms = np.linalg.norm(rows, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_sample_m1_is_pm_e1():
    rng = np.random.default_rng(2)
    rows = sample_S_batch(rng, 1, 20)
    assert np.all(np.abs(rows) == [0.0, 1.0])
    assert 0 < np.count_nonzero(rows[:, 1] > 0) < 20


def test_vector_norm_stacks_coefficients():
    e1 = CliffordElement.generator(2, 1).coeffs
    assert vector_norm([[3.0, 0.0, 0.0, 0.0], 4.0 * e1]) == pytest.approx(5.0)


def test_anticommuting_unit_families():
    rng = np.random.default_rng(12)
    cases = [
        CliffordElement.generator(3, 1),
        CliffordElement(3, [0.0, 0.6, 0.0, 0.0, 0.8, 0.0, 0.0, 0.0]),   # 0.6 e1 + 0.8 e3
        CliffordElement.blade(2, (1, 2)),
        CliffordElement(2, [0.0, 0.6, 0.0, 0.8]),   # 0.6 e1 + 0.8 e12
    ]
    for i_elem in cases:
        perp = anticommuting_unit(i_elem, rng)
        m = i_elem.m
        assert in_sqrt_minus_one(perp, 1e-9)
        c, d = i_elem.coeffs, perp.coeffs
        anti = mul_coeffs(m, c, d) + mul_coeffs(m, d, c)
        assert np.max(np.abs(anti)) < 1e-9
        assert abs(np.dot(d, c)) < 1e-9
        # the u-sweep stays on the sphere of roots of -1
        for u in (-1.0, -0.4, 0.0, 0.8, 1.0):
            j = CliffordElement(m, u * c + np.sqrt(1 - u ** 2) * d)
            assert in_sqrt_minus_one(j, 1e-9)
    with pytest.raises(SamplingError):
        anticommuting_unit(CliffordElement.generator(1, 1), rng)
