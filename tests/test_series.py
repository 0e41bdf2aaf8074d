"""Stem series, star-product algebra, extremal map builders, tails."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicegrowth.algebra import (blade, generator, invert_batch, mul_batch, mul_coeffs,
                                 slice_exp)
from slicegrowth.errors import DimensionError, NonInvertibleError
from slicegrowth.series import (
    _EVAL_CHUNK,
    StemSeries,
    central_partials,
    cr_residual,
    extremal_series,
    extremal_tail,
    power_sum,
    star_inverse,
    star_mul,
)
from slicegrowth.slicemaps import ComplexSeries
from slicegrowth.suites import _random_stem


def _rand_stem(rng, m=2, n=2, degree=4, terms=6):
    table = {}
    for _ in range(terms):
        k = tuple(int(v) for v in rng.integers(0, degree + 1, size=n))
        table[k] = rng.uniform(-1, 1, size=(n, 1 << m))
    return StemSeries(m, n, table)


def test_eval_linear_term_at_i():
    # F(z) = z_1 * c at z = (i, 0): real part zero, imaginary part c
    m, n = 2, 2
    c = np.zeros((n, 1 << m))
    c[0] = [0.3, -0.7, 0.2, 0.9]
    stem = StemSeries(m, n, {(1, 0): c})
    f1, f2 = (v[0] for v in stem.eval_arrays([[0.0, 0.0]], [[1.0, 0.0]]))
    assert np.array_equal(f1, np.zeros((n, 1 << m)))
    np.testing.assert_allclose(f2[0], c[0])
    assert np.array_equal(f2[1], np.zeros(1 << m))


def test_eval_square_at_i():
    # F(z) = z_1^2 a: at z_1 = i the value is -a exactly
    m, n = 2, 1
    a = np.array([[0.5, 1.0, -1.0, 0.25]])
    stem = StemSeries(m, n, {(2,): a})
    f1, f2 = (v[0] for v in stem.eval_arrays([[0.0]], [[1.0]]))
    np.testing.assert_allclose(f1[0], -a[0])
    assert np.array_equal(f2[0], np.zeros(1 << m))


def test_coefficient_rejects_a_multi_index_of_the_wrong_length(identity_stem):
    stem = identity_stem(2, 2)
    for k in ((1,), (1, 0, 0), 1):
        with pytest.raises(DimensionError):
            stem.coefficient(k)
    with pytest.raises(DimensionError):
        StemSeries(2, 2, {(1,): np.zeros((2, 4))})
    # an absent index of the right length reads as zero
    assert np.array_equal(stem.coefficient((3, 0)), np.zeros((2, 4)))


def test_coefficient_is_a_copy(identity_stem):
    stem = identity_stem(2, 2)
    rows = stem.coefficient((1, 0))
    rows[0, 0] = 5.0
    assert stem.coefficient((1, 0))[0, 0] == 1.0


def test_even_odd_pair_exact():
    rng = np.random.default_rng(0)
    stem = _rand_stem(rng)
    alpha = rng.uniform(-1, 1, size=(1000, 2))
    beta = rng.uniform(-1, 1, size=(1000, 2))
    f1p, f2p = stem.eval_arrays(alpha, beta)
    f1m, f2m = stem.eval_arrays(alpha, -beta)
    assert np.array_equal(f1p, f1m)
    assert np.array_equal(f2p, -f2m)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(1)
    stem = _rand_stem(rng)
    d0 = stem.derivative(0)
    h = 1e-5
    z = (np.array([[0.3, -0.4]]), np.array([[0.2, 0.1]]))
    f1p, _ = stem.eval_arrays(z[0] + [h, 0.0], z[1])
    f1m, _ = stem.eval_arrays(z[0] - [h, 0.0], z[1])
    fd = (f1p[0, 0] - f1m[0, 0]) / (2 * h)
    exact = d0.eval_arrays(z[0], z[1])[0][0, 0]
    np.testing.assert_allclose(fd, exact, atol=1e-8)


def test_derivative_of_monomials(identity_stem):
    stem = identity_stem(2, 2)
    d = stem.derivative(0)
    assert np.array_equal(d.coefficient((0, 0)), [[1.0, 0, 0, 0], [0, 0, 0, 0]])

    sq = StemSeries(2, 1, {(2,): np.array([[2.0, 0, 0, 0]])})
    dsq = sq.derivative(0)
    assert np.array_equal(dsq.coefficient((1,)), [[4.0, 0, 0, 0]])


def test_a_derivative_has_the_degree_of_its_rows():
    # the top term z_2^3 does not involve z_1: d/dz_1 keeps only the
    # constant, of degree 0, not the degree of the series less one
    stem = StemSeries(2, 2, {(0, 3): np.ones((2, 4)), (1, 0): np.ones((2, 4))})
    assert stem.degree == 3
    assert stem.derivative(0).degree == 0
    assert stem.derivative(1).degree == 2


def _re_z1_rows(alpha, beta):
    # F1 = Re(z_1), F2 = 0 on rows: d/d conj z_1 = 1/2
    f1 = np.zeros(alpha.shape + (4,))
    f1[:, 0, 0] = alpha[:, 0]
    return f1, np.zeros_like(f1)


def test_cr_residual_series_and_control():
    rng = np.random.default_rng(2)
    stem = _rand_stem(rng)
    alpha, beta = np.array([[0.25, -0.3]]), np.array([[0.15, 0.4]])
    assert cr_residual(stem.eval_arrays, alpha, beta)[0] < 1e-8

    const = StemSeries(2, 2, {(0, 0): rng.uniform(-1, 1, (2, 4))})
    assert cr_residual(const.eval_arrays, alpha, beta)[0] < 1e-14

    assert cr_residual(_re_z1_rows, alpha, beta)[0] == pytest.approx(0.5, abs=1e-9)


def _re_z1_squared_rows(alpha, beta):
    # F1 = Re(z_1)^2, F2 = 0: d/d conj z_1 = Re(z_1), which differs by row
    f1 = np.zeros(alpha.shape + (4,))
    f1[:, 0, 0] = alpha[:, 0] ** 2
    return f1, np.zeros_like(f1)


def test_cr_residual_rows():
    # a batch of rows reads what each row reads alone; the controls read
    # their own d/d conj z_1 on every row of a batch
    rng = np.random.default_rng(21)
    stem = _rand_stem(rng)
    alpha, beta = rng.uniform(-0.3, 0.3, (2, 20, 2))
    for evaluate in (stem.eval_arrays, _re_z1_squared_rows):
        batched = cr_residual(evaluate, alpha, beta)
        assert batched.shape == (20,)
        single = [cr_residual(evaluate, alpha[i:i + 1], beta[i:i + 1])[0]
                  for i in range(20)]
        np.testing.assert_allclose(batched, single, rtol=0, atol=1e-9)
    assert np.all(cr_residual(stem.eval_arrays, alpha, beta) < 1e-8)
    np.testing.assert_allclose(cr_residual(_re_z1_squared_rows, alpha, beta),
                               np.abs(alpha[:, 0]), rtol=0, atol=1e-9)
    np.testing.assert_allclose(cr_residual(_re_z1_rows, alpha, beta), 0.5,
                               rtol=0, atol=1e-9)


def test_central_partials_of_a_monomial():
    # F(z) = z_1^2 c: d/d alpha_1 = 2 z_1 c and d/d beta_1 = 2 i z_1 c,
    # the partials in z_2 vanish
    m, n = 2, 2
    c = np.zeros((n, 1 << m))
    c[0] = [1.0, 0.5, -0.25, 2.0]
    stem = StemSeries(m, n, {(2, 0): c})
    rng = np.random.default_rng(22)
    alpha, beta = rng.uniform(-0.5, 0.5, (2, 5, n))
    da, db = central_partials(lambda a, b: np.stack(stem.eval_arrays(a, b), axis=1),
                              alpha, beta)
    z1 = alpha[:, 0] + 1j * beta[:, 0]
    for d, w in ((da, 2 * z1), (db, 2j * z1)):
        np.testing.assert_allclose(d[0, :, 0, 0], w.real[:, None] * c[0], atol=1e-9)
        np.testing.assert_allclose(d[0, :, 1, 0], w.imag[:, None] * c[0], atol=1e-9)
        assert np.max(np.abs(d[1])) < 1e-9


def _geometric_base(m, theta, I=None):
    """Coefficients of 1 - x e^{I theta}, I = e1 by default."""
    I = generator(m, 1) if I is None else I
    return np.stack([blade(m), -slice_exp(I, theta)])


def test_star_unit_identity():
    one = blade(2)[None]
    rng = np.random.default_rng(3)
    g = rng.uniform(-1, 1, size=(5, 4))
    np.testing.assert_allclose(star_mul(2, one, g), g, atol=1e-15)
    np.testing.assert_allclose(star_mul(2, g, one), g, atol=1e-15)


@pytest.mark.parametrize("m", [1, 2, 5, 6, 7, 8])
def test_star_telescoping_geometric(m):
    # (1 - x e1) * (sum x^k e1^k) telescopes to 1, on every block layout
    N = 30
    e1 = generator(m, 1)
    powers = np.zeros((N + 1, 1 << m))
    powers[0, 0] = 1.0
    for k in range(N):
        powers[k + 1] = mul_coeffs(m, powers[k], e1)
    base = np.stack([blade(m), -e1])
    prod = star_mul(m, base, powers, trunc=N)
    expected = np.zeros_like(prod)
    expected[0, 0] = 1.0
    np.testing.assert_allclose(prod, expected, atol=1e-13)


@pytest.mark.parametrize("m", [1, 2, 5, 6, 7, 8])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_star_mul_associative_and_distributive(m, seed):
    rng = np.random.default_rng(seed)
    f, g, h = rng.uniform(-1, 1, size=(3, 4, 1 << m))
    lhs = star_mul(m, star_mul(m, f, g), h)
    rhs = star_mul(m, f, star_mul(m, g, h))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    both = star_mul(m, f, g + h)
    split = star_mul(m, f, g) + star_mul(m, f, h)
    np.testing.assert_allclose(both, split, atol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 5, 6, 7, 8])
def test_star_inverse_geometric_closed_form(m):
    N, theta = 40, 0.8
    e1 = generator(m, 1)
    base = _geometric_base(m, theta)
    inv = star_inverse(m, base, N)
    for k in range(N + 1):
        assert np.max(np.abs(inv[k] - slice_exp(e1, k * theta))) <= 1e-12
    ident = star_mul(m, base, inv, trunc=N)
    expected = np.zeros_like(ident)
    expected[0, 0] = 1.0
    np.testing.assert_allclose(ident, expected, atol=1e-12)


def test_star_inverse_scalar_and_errors():
    inv = star_inverse(2, 2.0 * blade(2)[None], 3)
    assert np.max(np.abs(inv[0] - 0.5 * blade(2))) <= 1e-14
    zero_lead = np.stack([np.zeros(4), blade(2)])
    with pytest.raises(NonInvertibleError):
        star_inverse(2, zero_lead, 3)
    for bad in (np.zeros((0, 4)), np.zeros((2, 8)), np.zeros(4)):
        with pytest.raises(DimensionError):
            star_inverse(2, bad, 3)
        with pytest.raises(DimensionError):
            star_mul(2, bad, zero_lead)


def test_star_inverse_rejects_numerically_singular_constant():
    # 1 + t e123 is singular at t = 1 (e123 squares to +1 for m = 3); near
    # it the solve would succeed, and the singular-value test must refuse
    m = 3
    one = blade(m)
    e123 = blade(m, (1, 2, 3))
    with pytest.raises(NonInvertibleError, match="constant coefficient is not invertible"):
        star_inverse(m, (one + (1.0 - 1e-13) * e123)[None], 2)
    a0 = one + 0.5 * e123
    b = star_inverse(m, a0[None], 2)
    assert np.max(np.abs(mul_coeffs(m, b[0], a0) - one)) <= 1e-14


def test_star_inverse_involution():
    rng = np.random.default_rng(5)
    m, N = 2, 25
    f = np.zeros((N + 1, 4))
    f[0, 0] = 1.0
    for k in range(1, N + 1):
        row = rng.uniform(-1, 1, 4)
        row *= 0.4 ** k / max(1.0, np.linalg.norm(row))
        f[k] = row
    back = star_inverse(m, star_inverse(m, f, N), N)
    np.testing.assert_allclose(back, f, atol=1e-10)


def _reference_star_mul(m, f, g, trunc=None):
    """The star product order by order: one product batch per order."""
    f_deg, g_deg = len(f) - 1, len(g) - 1
    n_out = f_deg + g_deg if trunc is None else min(trunc, f_deg + g_deg)
    out = np.zeros((n_out + 1, f.shape[1]))
    for k in range(n_out + 1):
        j0 = max(0, k - g_deg)
        j1 = min(k, f_deg)
        if j0 > j1:
            continue
        js = np.arange(j0, j1 + 1)
        out[k] = mul_batch(m, f[js], g[k - js]).sum(axis=0)
    return out


def _reference_star_inverse(m, f, trunc):
    """The star inverse order by order: b_k = -a_0^{-1} sum_j a_j b_{k-j}."""
    a0inv = invert_batch(m, f[:1])[0]
    out = np.zeros((trunc + 1, f.shape[1]))
    out[0] = a0inv
    for k in range(1, trunc + 1):
        j1 = min(k, len(f) - 1)
        if j1 < 1:
            continue
        js = np.arange(1, j1 + 1)
        acc = mul_batch(m, f[js], out[k - js]).sum(axis=0)
        out[k] = -mul_coeffs(m, a0inv, acc)
    return out


def _relative_gap(new, ref):
    assert new.shape == ref.shape
    return float(np.max(np.abs(new - ref)) / np.max(np.abs(ref)))


def _decaying_series(rng, m, degree):
    # a_0 = 1 + v and |a_k| <= 0.5**k / 2 with |v| <= 1/2, as in the stem
    # suite but with a constant that is not a scalar, so that the order of
    # the products a_0^{-1} a_j shows: invertible, with an inverse whose
    # coefficients stay bounded
    coeffs = rng.uniform(-1.0, 1.0, (degree + 1, 1 << m))
    coeffs *= (0.5 * 0.5 ** np.arange(degree + 1)
               / np.maximum(1.0, np.linalg.norm(coeffs, axis=1)))[:, None]
    coeffs[0, 0] = 1.0
    return coeffs


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_star_mul_matches_per_order_reference(m):
    # both product regimes of mul_batch (structure tensor below m = 4,
    # spinor blocks from m = 4), truncations below and above the degrees
    rng = np.random.default_rng(40 + m)
    g = rng.uniform(-1, 1, (41, 1 << m))
    for degree in (1, 40, 300):
        f = rng.uniform(-1, 1, (degree + 1, 1 << m))
        for trunc in (None, 0, degree // 2, 20, degree + 60):
            for a, b in ((f, g), (g, f), (f, f)):
                gap = _relative_gap(star_mul(m, a, b, trunc),
                                    _reference_star_mul(m, a, b, trunc))
                assert gap <= 1e-13, (degree, trunc, len(a), len(b), gap)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_star_inverse_matches_per_order_reference(m):
    rng = np.random.default_rng(50 + m)
    for f in (_geometric_base(m, 0.7), _decaying_series(rng, m, 1),
              _decaying_series(rng, m, 40), _decaying_series(rng, m, 300)):
        degree = len(f) - 1
        for trunc in (0, 1, degree // 2, 40, degree + 60):
            gap = _relative_gap(star_inverse(m, f, trunc),
                                _reference_star_inverse(m, f, trunc))
            assert gap <= 1e-13, (degree, trunc, gap)


def test_power_sum_matches_plain_sum():
    # more than three blocks of rows; the stem suite's mixed multi-indices
    # and a componentwise N = 300 Koebe table (terms in one variable
    # each), each with a real table and a complex table through
    # ComplexSeries
    rng = np.random.default_rng(45)
    B = 3 * _EVAL_CHUNK + 17
    z = rng.uniform(-0.9, 0.9, (B, 3)) + 1j * rng.uniform(-0.9, 0.9, (B, 3))
    stem = _random_stem(2, 3, rng, degree=6, terms=12)
    assert np.count_nonzero(stem._kmat, axis=1).max() > 1
    koebe = extremal_series(2, 0.7, generator(2, 1), 300, 2)
    assert np.count_nonzero(koebe._kmat, axis=1).max() == 1
    disc = rng.uniform(0.0, 0.8, (B, 2)) * np.exp(2j * np.pi * rng.uniform(size=(B, 2)))
    for f, z in ((stem, z), (koebe, disc)):
        kmat, real = f._kmat, f._aflat
        complex_table = real[:, :3] + 1j * real[:, 3:6]
        for coeffs, evaluate in (
                (real, lambda: power_sum(kmat, real, z)),
                (complex_table, lambda: ComplexSeries(kmat, complex_table).eval(z))):
            expected = np.zeros((B, coeffs.shape[1]), dtype=complex)
            for k, a in zip(kmat, coeffs):
                expected += np.prod(z ** k, axis=1)[:, None] * a
            assert _relative_gap(evaluate(), expected) <= 1e-13


def _exponent_tables(n: int, rng) -> dict:
    """Exponent tables (K, n) of every shape power_sum takes: one variable
    per row, several per row, the constant alone, distinct random rows
    (constant and one-variable rows among them) and none."""
    componentwise = np.zeros((9, n), dtype=np.int64)
    componentwise[np.arange(9), np.arange(9) % n] = np.arange(1, 10)
    mixed = rng.integers(1, 4, size=(6, n))
    mixed[:, 0] = np.arange(1, 7)               # distinct rows
    return {
        "componentwise": componentwise,
        "mixed": mixed,
        "constant": np.zeros((1, n), dtype=np.int64),
        "random": np.unique(rng.integers(0, 5, size=(12, n)), axis=0),
        "empty": np.zeros((0, n), dtype=np.int64),
    }


@pytest.mark.parametrize("n", [1, 2, 3])
def test_power_sum_equals_the_plain_product_row_by_row(n):
    # against sum_k prod_t z_t^k_t c_k, at points with exact and signed
    # zeros, for widths below, at and above one block; each row gets the
    # same bits alone as in its batch
    rng = np.random.default_rng(46 + n)
    for name, kmat in _exponent_tables(n, rng).items():
        for width in (1, 7, _EVAL_CHUNK, 1000):
            z = rng.uniform(-0.9, 0.9, (width, n)) + 1j * rng.uniform(-0.9, 0.9, (width, n))
            z[rng.random((width, n)) < 0.15] = 0.0
            z.real[rng.random((width, n)) < 0.15] = -0.0
            z.imag[rng.random((width, n)) < 0.15] = -0.0
            real = rng.uniform(-1.0, 1.0, (len(kmat), 5))
            for coeffs in (real, real + 1j * rng.uniform(-1.0, 1.0, real.shape)):
                vals = power_sum(kmat, coeffs, z)
                expected = np.zeros((width, 5), dtype=complex)
                for k, c in zip(kmat, coeffs):
                    expected += np.prod(z ** k, axis=1)[:, None] * c
                where = (name, width, coeffs.dtype)
                assert vals.shape == (width, 5), where
                assert np.max(np.abs(vals - expected), initial=0.0) <= 1e-13, where
                for row in sorted({*range(0, width, max(1, width // 16)), width - 1}):
                    alone = power_sum(kmat, coeffs, z[row:row + 1])[0]
                    assert np.array_equal(alone.view(np.int64), vals[row].view(np.int64)), \
                        (*where, row)


def test_koebe_coefficients_and_normalization():
    m, n, N = 2, 2, 50
    e1 = generator(m, 1)
    f = extremal_series(2, 0.0, e1, N, n)
    # normalized: no constant term, unit linear coefficient
    assert np.array_equal(f.coefficient((0, 0)), np.zeros((n, 1 << m)))
    lin = f.coefficient((1, 0))
    assert np.array_equal(lin, [blade(m), np.zeros(1 << m)])
    for k in range(0, 6):
        coeff = f.coefficient((k + 1, 0))[0]
        assert np.max(np.abs(coeff - (k + 1.0) * blade(m))) <= 1e-12

    theta = 1.1
    g = extremal_series(2, theta, e1, N, n)
    for k in range(0, 6):
        coeff = g.coefficient((0, k + 1))[1]
        expected = (k + 1.0) * slice_exp(e1, k * theta)
        assert np.max(np.abs(coeff - expected)) <= 1e-11
        assert np.linalg.norm(coeff) == pytest.approx(k + 1.0, abs=1e-11)


def test_koebe_matches_closed_form_on_real_axis():
    m, n, N = 3, 1, 300
    e1 = generator(m, 1)
    f = extremal_series(2, 0.0, e1, N, n)
    for x in np.linspace(-0.9, 0.9, 19):
        f1, f2 = f.eval_arrays([[x]], [[0.0]])
        val = f1[0, 0, 0]
        assert abs(val - x / (1 - x) ** 2) < 1e-9
        assert np.array_equal(f2[0, 0], np.zeros(1 << m))


def test_convex_and_paper_example_maps():
    m, n, N = 2, 1, 300
    e1 = generator(m, 1)
    poly = extremal_series(-1, 0.0, e1, N, n)
    assert np.array_equal(poly.coefficient((1,))[0], blade(m))
    assert np.array_equal(poly.coefficient((2,))[0], -blade(m))
    assert poly.degree == 2
    assert extremal_tail(-1, n, N, 0.9) == 0.0

    cay = extremal_series(1, 0.0, e1, N, n)
    for x in np.linspace(-0.9, 0.9, 19):
        f1, _ = cay.eval_arrays([[x]], [[0.0]])
        assert abs(f1[0, 0, 0] - x / (1 - x)) < 1e-9


@pytest.mark.parametrize("p", [0, 3])
def test_extremal_series_rejects_other_exponents(p):
    e1 = generator(2, 1)
    with pytest.raises(ValueError):
        extremal_series(p, 0.0, e1, 40, 1)
    with pytest.raises(ValueError):
        extremal_tail(p, 1, 40, 0.9)


@pytest.mark.parametrize("p", [1, 2])
def test_tail_bounds(p):
    m, n = 2, 2
    e1 = generator(m, 1)
    assert extremal_tail(p, n, 300, 0.9) < 1e-9
    assert extremal_tail(-1, n, 300, 0.9) == 0.0
    # at theta = 0 on the positive real axis the tail is the truncation
    # error itself, so the two agree to rounding in f(x); a tail model
    # that under- or overestimates fails
    small = extremal_series(p, 0.0, e1, 40, 1)
    x = 0.8
    exact = x / (1 - x) ** p
    f1, _ = small.eval_arrays([[x]], [[0.0]])
    actual_gap = abs(f1[0, 0, 0] - exact)
    assert abs(actual_gap - extremal_tail(p, 1, 40, x)) <= 16 * np.finfo(float).eps * exact
    # monotone decrease with the order
    tails = [extremal_tail(p, 1, N, 0.9) for N in (50, 100, 200, 300)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
