"""Slice coordinates: canonical form, orbits, norms, sampling."""

import numpy as np
import pytest

from slicegrowth.algebra import (CliffordElement, blade, generator, in_sqrt_minus_one,
                                 mul_coeffs, row_m)
from slicegrowth.errors import SamplingError
from slicegrowth.slicespace import (
    anticommuting_unit,
    make_point,
    point_norm,
    sample_S_batch,
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
    j = CliffordElement(3, generator(3, 2))
    p = make_point([1.0, 2.0], [0.0, 0.0], j)
    assert np.array_equal(p.J.coeffs, generator(3, 1))


def test_point_norm_examples():
    j = CliffordElement(2, [0.0, 0.6, 0.8, 0.0])
    p = make_point([3.0, 0.0], [4.0, 0.0], j)
    assert point_norm(p) == pytest.approx(5.0, abs=1e-12)
    origin = make_point([0.0], [0.0], CliffordElement(2, generator(2, 1)))
    assert point_norm(origin) == 0.0


def test_point_norm_independent_of_slice():
    rng = np.random.default_rng(5)
    alpha, beta = np.array([0.3, -1.2]), np.array([0.7, 0.4])
    values = [point_norm(make_point(alpha, beta, CliffordElement(3, j)))
              for j in sample_S_batch(rng, 3, 100)]
    assert max(values) - min(values) < 1e-12


def test_orbit_point_real_orbit():
    alpha, beta = np.array([1.0, -2.0]), np.array([0.0, 0.0])
    for j in (generator(2, 1), generator(2, 2)):
        p = make_point(alpha, beta, CliffordElement(2, j))
        np.testing.assert_allclose(p.alpha, [1.0, -2.0])
        assert not np.any(p.beta)


def test_orbit_opposite_slices_fold():
    alpha, beta = np.array([0.1]), np.array([0.9])
    j = generator(2, 1)
    a = make_point(alpha, beta, CliffordElement(2, j))
    b = make_point(alpha, beta, CliffordElement(2, -j))
    # embedded points differ, canonical slices agree up to the beta sign
    assert np.array_equal(a.J.coeffs, b.J.coeffs)
    np.testing.assert_allclose(a.beta, -b.beta)


def test_sample_vector_strategy_always_root():
    rng = np.random.default_rng(11)
    for m in (1, 2, 3, 5):
        rows = sample_S_batch(rng, m, 500)
        for row in rows[:50]:
            assert in_sqrt_minus_one(row, 1e-10)
        norms = np.linalg.norm(rows, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_sample_m1_is_pm_e1():
    rng = np.random.default_rng(2)
    rows = sample_S_batch(rng, 1, 20)
    assert np.all(np.abs(rows) == [0.0, 1.0])
    assert 0 < np.count_nonzero(rows[:, 1] > 0) < 20


def test_anticommuting_unit_families():
    rng = np.random.default_rng(12)
    cases = [
        generator(3, 1),
        np.array([0.0, 0.6, 0.0, 0.0, 0.8, 0.0, 0.0, 0.0]),   # 0.6 e1 + 0.8 e3
        blade(2, (1, 2)),
        np.array([0.0, 0.6, 0.0, 0.8]),   # 0.6 e1 + 0.8 e12: e2 serves
        0.6 * blade(3, (1, 2)) + 0.8 * blade(3, (1, 3)),   # e1 serves
    ]
    for c in cases:
        d = anticommuting_unit(c, rng)
        m = row_m(c)
        assert in_sqrt_minus_one(d, 1e-9)
        anti = mul_coeffs(m, c, d) + mul_coeffs(m, d, c)
        assert np.max(np.abs(anti)) < 1e-9
        assert abs(np.dot(d, c)) < 1e-9
        # the u-sweep stays on the sphere of roots of -1
        for u in (-1.0, -0.4, 0.0, 0.8, 1.0):
            assert in_sqrt_minus_one(u * c + np.sqrt(1 - u ** 2) * d, 1e-9)
    # no generator serves 0.48 e1 + 0.64 e2 + 0.6 e12, a root of -1 at m = 2
    for c in (generator(1, 1), np.array([0.0, 0.48, 0.64, 0.6])):
        with pytest.raises(SamplingError):
            anticommuting_unit(c, rng)


def test_anticommuting_unit_rejects_other_directions():
    # a root of -1 other than grade 1 gets the first generator orthogonal to
    # it that anticommutes with it: the lowest generator of an even blade,
    # and e1 for 0.6 e12 + 0.8 e13 at m = 3
    rng = np.random.default_rng(12)
    for root, gen in ((blade(3, (1, 2)), generator(3, 1)), (blade(3, (2, 3)), generator(3, 2)),
                      (blade(4, (3, 4)), generator(4, 3))):
        assert np.array_equal(anticommuting_unit(root, rng), gen)
    root = 0.6 * blade(3, (1, 2)) + 0.8 * blade(3, (1, 3))
    assert in_sqrt_minus_one(root, 1e-12)
    assert np.array_equal(anticommuting_unit(root, rng), generator(3, 1))
    # (e12 + e13 + e23)/sqrt(3) squares to -1 too, but each generator
    # commutes with one of its blades: no sweep is drawn for it
    root = (blade(3, (1, 2)) + blade(3, (1, 3)) + blade(3, (2, 3))) / np.sqrt(3)
    assert in_sqrt_minus_one(root, 1e-12)
    with pytest.raises(SamplingError):
        anticommuting_unit(root, rng)
