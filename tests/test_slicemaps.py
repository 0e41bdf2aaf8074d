"""Slice map evaluation, two-slice reconstruction, holomorphy checks,
and the module-basis splitting."""

import numpy as np
import pytest

from slicegrowth.algebra import CliffordElement, blade, generator
from slicegrowth.errors import BasisError, RepresentationError
from slicegrowth.series import (
    StemSeries,
    central_partials,
    coefficient_gap,
    cr_residual,
    extremal_series,
    identity_map,
    tail_bound,
)
from slicegrowth.slicemaps import (
    ComplexSeries,
    ShadowMap,
    SliceMap,
    complex_on_slice,
    default_module_basis,
    extremal_map,
    reassemble_on_slice,
    regularity_residual,
    representation_formula,
    split_components,
    two_slice_average,
)
from slicegrowth.slicespace import make_point, sample_S_batch, unit_rows
from slicegrowth.suites import GROWTH_MAPS, _random_stem, _re_z1_control


def isclose(a, b, tol=1e-12):
    """Two coefficient rows of one length agree within tol."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.max(np.abs(a - b)) <= tol)


def scalar_part(row) -> float:
    return float(row[0])


def _rand_map(rng, m=3, n=2, degree=5, terms=8):
    table = {}
    for _ in range(terms):
        k = tuple(int(v) for v in rng.integers(0, degree + 1, size=n))
        if sum(k) <= degree:
            table[k] = rng.uniform(-1, 1, size=(n, 1 << m))
    return SliceMap(StemSeries(m, n, table))


def test_identity_map_evaluates_to_embedding():
    # the identity map's values are the points' own rows alpha_t + beta_t J
    f = SliceMap(identity_map(3, 2))
    rng = np.random.default_rng(0)
    alpha, beta = rng.uniform(-1, 1, (2, 20, 2))
    J = sample_S_batch(rng, 3, 20)
    expected = beta[:, :, None] * J[:, None, :]
    expected[:, :, 0] += alpha
    assert np.max(np.abs(f.eval_arrays(alpha, beta, J) - expected)) < 1e-14


def test_well_definedness_is_exact():
    # (beta, J) and (-beta, -J) name one point and give it the same bits
    rng = np.random.default_rng(1)
    f = _rand_map(rng)
    alpha, beta = rng.uniform(-1, 1, (2, 50, 2))
    J = sample_S_batch(rng, 3, 50)
    assert np.array_equal(f.eval_arrays(alpha, beta, J), f.eval_arrays(alpha, -beta, -J))


def test_koebe_on_real_slice_axis():
    e1 = generator(3, 1)
    f = SliceMap(extremal_series(2, 0.0, e1, 300, 2))
    for x in (0.5, -0.7, 0.9):
        p = make_point([x, 0.0], [0.0, 0.0], CliffordElement(3, e1))
        vals = f.eval(p)
        assert abs(scalar_part(vals[0].coeffs) - x / (1 - x) ** 2) < 1e-9


# relative bound on a shadow's hand-written derivatives against central
# differences of step 1e-4 at |z| <= 0.6: the stencils' truncation error
# there is below 4e-7 for every entry
_DERIVATIVE_BOUND = 1e-5


def _derivative_gaps(f: ShadowMap, rng, step: float = 1e-4):
    """Largest gaps of the full tensors Dg and D2g of f's shadow, each over
    its largest entry, to central differences of g (the stencil of
    series.central_partials, nested for D2g) at 20 random interior points."""
    g, dg, d2g = f.g, f.dg, f.d2g
    z = rng.normal(size=(20, f.n)) + 1j * rng.normal(size=(20, f.n))
    z *= rng.uniform(0.05, 0.6, (20, 1)) / np.linalg.norm(z, axis=1, keepdims=True)

    def first(a, b):
        # d g_s / d x_u at rows (B, s, u): g is holomorphic, so a real step
        # gives its complex derivative
        return np.moveaxis(central_partials(lambda x, y: g(x + 1j * y), a, b, step)[0], 0, -1)
    second = np.moveaxis(central_partials(first, z.real, z.imag, step)[0], 0, -1)
    return tuple(float(np.max(np.abs(exact - fd)) / np.max(np.abs(exact)))
                 for exact, fd in ((dg(z), first(z.real, z.imag)), (d2g(z), second)))


@pytest.mark.parametrize("label", list(GROWTH_MAPS))
def test_growth_map_derivatives_match_central_differences(label):
    # the criteria read each entry's hand-written Dg and D2g, never g's own
    # derivatives: both must be those of g, over every index
    rng = np.random.default_rng(44)
    for I in (generator(3, 1), blade(3, (1, 2))):
        for theta in (0.0, 0.7, np.pi / 2):
            for n in (1, 2, 3):
                gaps = _derivative_gaps(GROWTH_MAPS[label].map(theta, I, n), rng)
                assert max(gaps) <= _DERIVATIVE_BOUND, (label, theta, n, gaps)


def test_derivative_check_fails_a_perturbed_entry():
    # D2g off by 1e-3 of its largest entry at one index fails the check,
    # on the diagonal the convex criterion reads and off it; so does Dg
    rng = np.random.default_rng(44)
    e1 = generator(3, 1)
    for label, entry in GROWTH_MAPS.items():
        f = entry.map(0.7, e1, 2)
        z = np.full((1, 2), 0.3 + 0.1j)
        scale1, scale2 = (np.max(np.abs(d(z))) for d in (f.dg, f.d2g))
        for index in ((0, 0, 0), (0, 0, 1), (1, 0, 1)):
            bump = np.zeros((2, 2, 2))
            bump[index] = 1e-3 * scale2
            wrong = ShadowMap(e1, 2, f.g, f.dg, lambda z, d2g=f.d2g, bump=bump: d2g(z) + bump)
            assert _derivative_gaps(wrong, rng)[1] > _DERIVATIVE_BOUND, (label, index)
        bump = np.zeros((2, 2))
        bump[0, 1] = 1e-3 * scale1
        wrong = ShadowMap(e1, 2, f.g, lambda z, dg=f.dg: dg(z) + bump, f.d2g)
        assert _derivative_gaps(wrong, rng)[0] > _DERIVATIVE_BOUND, label


def test_closed_form_matches_series():
    m = 3
    rng = np.random.default_rng(12)
    directions = (generator(m, 1), blade(m, (1, 2)))
    for label, entry in GROWTH_MAPS.items():
        for i_elem in directions:
            for theta in (0.0, 0.7, np.pi / 2):
                for n in (1, 2):
                    f = entry.map(theta, i_elem, n)
                    stem, coeff_gap = entry.reference(theta, i_elem, 300, n)
                    bound = tail_bound(stem, 0.9) + 1e-9
                    # points of the polydisc of radius 0.9 on random slices
                    radius = 0.9 * np.sqrt(rng.uniform(0, 1, size=(200, n)))
                    angle = rng.uniform(0, 2 * np.pi, size=(200, n))
                    alpha, beta = radius * np.cos(angle), radius * np.sin(angle)
                    j_rows = sample_S_batch(rng, m, 200)
                    diff = f.eval_arrays(alpha, beta, j_rows) - \
                        SliceMap(stem).eval_arrays(alpha, beta, j_rows)
                    gap = np.max(np.sqrt(np.sum(diff * diff, axis=(1, 2))))
                    assert gap <= bound, (label, theta, n, gap, bound)
                    assert coeff_gap <= 1e-9, (label, theta, n)
                    # one point, as one row, goes through the same closed form
                    one = f.eval_arrays(alpha[:1], beta[:1], j_rows[0])[0]
                    batch = f.eval_arrays(alpha, beta, j_rows)[0]
                    assert np.max(np.abs(one - batch)) < 1e-12


def test_a_shadow_map_has_no_stem_to_differentiate():
    # a ShadowMap is not a SliceMap: nothing it would inherit reads a stem
    f = extremal_map(2, 0.7, generator(3, 1), 2)
    assert not isinstance(f, SliceMap)
    assert not hasattr(f, "derivative") and not hasattr(f, "stem")


@pytest.mark.parametrize("p", [2, 1, -1])
def test_closed_form_values_match_the_generic_product(p):
    # ShadowMap.eval_arrays sums J F2 as P.im J + Q.im (J I); the generic
    # path multiplies J by F2 = P.im + Q.im I through mul_batch
    m, n = 3, 2
    rng = np.random.default_rng(40 + p)
    directions = (generator(m, 1), blade(m, (1, 2)), unit_rows(np.array([0.6, -0.48, 0.64])))
    for i_elem in directions:
        f = extremal_map(p, 0.7, i_elem, n)
        alpha, beta = rng.uniform(-0.6, 0.6, (2, 50, n))
        j_rows = sample_S_batch(rng, m, 50)
        closed = f.eval_arrays(alpha, beta, j_rows)
        generic = SliceMap.eval_arrays(f, alpha, beta, j_rows)
        scale = np.max(np.abs(generic), axis=2, keepdims=True)
        assert np.all(np.abs(closed - generic) <= 4 * np.finfo(float).eps * scale), p


def test_closed_form_coefficient_gap_detects_wrong_family():
    e1 = generator(2, 1)
    stem = extremal_series(2, 0.7, e1, 40, 2)
    assert coefficient_gap(stem, 2, 0.7, e1) < 1e-12
    # the Koebe stem compared with a wrong exponent or theta
    assert coefficient_gap(stem, 1, 0.7, e1) > 1.0
    assert coefficient_gap(stem, 2, 0.8, e1) > 0.05
    # a stem term in two variables is no part of the componentwise map
    table = {k: stem.coefficient(k) for k in stem.multi_indices()}
    table[(1, 1)] = np.full((2, 4), 1e-6)
    coupled = StemSeries(2, 2, table, degree=stem.degree)
    assert coefficient_gap(coupled, 2, 0.7, e1) == pytest.approx(1e-6, rel=1e-3)


def test_coefficient_gap_keeps_a_nan_cross_term():
    # a NaN in a term of two variables must reach the gap, which is read
    # after the componentwise terms' finite one
    e1 = generator(3, 1)
    stem = extremal_series(1, 0.0, e1, 5, 2)
    table = {k: stem.coefficient(k) for k in stem.multi_indices()}
    table[(1, 1)] = np.full((2, 8), np.nan)
    poisoned = StemSeries(3, 2, table, degree=stem.degree)
    assert np.isnan(coefficient_gap(poisoned, 1, 0.0, e1))


@pytest.mark.parametrize("theta", [123.45678, 12345.678, -1e6, 1e300])
def test_closed_form_coefficient_gap_at_large_theta(theta):
    # the reference e^{I k theta} is taken at theta reduced to (-pi, pi]
    e1 = generator(3, 1)
    assert coefficient_gap(extremal_series(2, theta, e1, 300, 2), 2, theta, e1) < 1e-10


def test_representation_reconstructs_random_maps():
    rng = np.random.default_rng(2)
    f = _rand_map(rng)
    draws = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2),
              *sample_S_batch(rng, 3, 3)) for _ in range(50)]
    alpha, beta, J, K, I = map(np.array, zip(*draws))
    keep = np.linalg.norm(J - K, axis=1) >= 1e-3
    rec = representation_formula(f, alpha[keep], beta[keep], J[keep], K[keep], I[keep])
    direct = f.eval_arrays(alpha[keep], beta[keep], I[keep])
    assert np.max(np.abs(rec - direct)) < 1e-10


def test_representation_collapse_and_average_form():
    rng = np.random.default_rng(3)
    f = _rand_map(rng)
    alpha, beta = np.array([[0.2, -0.6]]), np.array([[0.9, 0.4]])
    J = generator(3, 1)
    K = generator(3, 2)
    I = sample_S_batch(rng, 3, 1)[0]

    collapsed = representation_formula(f, alpha, beta, J, K, J)
    assert np.max(np.abs(collapsed - f.eval_arrays(alpha, beta, J))) < 1e-12

    avg = two_slice_average(f, alpha, beta, J, I)
    assert np.max(np.abs(avg - f.eval_arrays(alpha, beta, I))) < 1e-11

    # the averaged form is the K = -J specialization of the reconstruction
    rec = representation_formula(f, alpha, beta, J, -J, I)
    assert np.max(np.abs(rec - avg)) < 1e-11


def test_representation_rejects_close_pair():
    rng = np.random.default_rng(4)
    f = _rand_map(rng)
    alpha, beta = np.array([[0.1, 0.1]]), np.array([[0.5, -0.2]])
    J = generator(3, 1)
    with pytest.raises(RepresentationError):
        representation_formula(f, alpha, beta, J, J, sample_S_batch(rng, 3, 1)[0])
    nudged = np.array([0.0, np.sqrt(1 - 1e-9), np.sqrt(1e-9), 0, 0, 0, 0, 0])
    with pytest.raises(RepresentationError):
        representation_formula(f, alpha, beta, J, nudged, sample_S_batch(rng, 3, 1)[0])
    # one close pair among good ones rejects the batch
    K = np.stack([generator(3, 2), nudged])
    with pytest.raises(RepresentationError):
        representation_formula(f, np.repeat(alpha, 2, axis=0), np.repeat(beta, 2, axis=0),
                               J, K, sample_S_batch(rng, 3, 1)[0])


def test_two_pair_independence():
    rng = np.random.default_rng(5)
    f = _rand_map(rng)
    alpha, beta = np.array([[0.3, -0.2]]), np.array([[0.8, 0.1]])
    I = sample_S_batch(rng, 3, 1)[0]
    recs = []
    for _ in range(4):
        J, K = sample_S_batch(rng, 3, 2)
        if np.linalg.norm(J - K) < 1e-2:
            continue
        recs.append(representation_formula(f, alpha, beta, J, K, I))
    for other in recs[1:]:
        assert np.max(np.abs(recs[0] - other)) < 1e-9


def test_derivative_commutes_with_reconstruction():
    rng = np.random.default_rng(6)
    f = _rand_map(rng)
    alpha, beta = np.array([[0.4, 0.2]]), np.array([[0.3, -0.5]])
    J = generator(3, 2)
    K = generator(3, 3)
    I = sample_S_batch(rng, 3, 1)[0]
    df = f.derivative(1)
    rec_of_deriv = representation_formula(df, alpha, beta, J, K, I)
    assert np.max(np.abs(rec_of_deriv - df.eval_arrays(alpha, beta, I))) < 1e-8


def test_representation_negative_controls():
    # the checks of the representation suite fail on wrong slices
    rng = np.random.default_rng(13)
    for _ in range(4):
        f = SliceMap(_random_stem(3, 2, rng))
        alpha, beta = rng.uniform(-1, 1, (20, 2)), rng.uniform(-1, 1, (20, 2))
        J, K, I = (sample_S_batch(rng, 3, 20) for _ in range(3))
        # reconstruction aimed at -I instead of I
        rec = representation_formula(f, alpha, beta, J, K, -I)
        assert np.max(np.abs(rec - f.eval_arrays(alpha, beta, I))) > 1e-10
        # collapse compared against f on K instead of J
        collapse = representation_formula(f, alpha, beta, J, K, J)
        assert np.max(np.abs(collapse - f.eval_arrays(alpha, beta, K))) > 1e-12


def test_row_functions_give_each_row_its_own_bits():
    # a closed-form map evaluates row by row; a series map goes through a
    # BLAS product whose bits depend on the batch size (see power_sum), so
    # the stem row is shared here only by broadcasting
    rng = np.random.default_rng(14)
    I0 = sample_S_batch(rng, 3, 1)[0]
    f = extremal_map(2, 0.7, I0, 2)
    stem_map = _rand_map(rng)
    B = 9
    alpha, beta = rng.uniform(-0.5, 0.5, (B, 2)), rng.uniform(-0.5, 0.5, (B, 2))
    J, K, I = (sample_S_batch(rng, 3, B) for _ in range(3))
    control = _re_z1_control(3, 2)
    batched = {
        "representation": representation_formula(f, alpha, beta, J, K, I),
        "average": two_slice_average(f, alpha, beta, J, I),
        "regularity": regularity_residual(f, alpha, beta, J),
        "control": regularity_residual(control, alpha, beta, J),
        # one stem row broadcast over many J
        "orbit": stem_map.eval_arrays(alpha[:1], beta[:1], J),
    }
    for i in range(B):
        row = slice(i, i + 1)
        alone = {
            "representation": representation_formula(
                f, alpha[row], beta[row], J[row], K[row], I[row]),
            "average": two_slice_average(f, alpha[row], beta[row], J[row], I[row]),
            "regularity": regularity_residual(f, alpha[row], beta[row], J[row]),
            "control": regularity_residual(control, alpha[row], beta[row], J[row]),
            "orbit": stem_map.eval_arrays(alpha[:1], beta[:1], J[i]),
        }
        for name, value in alone.items():
            assert np.array_equal(batched[name][row], value), (name, i)
    assert np.all(batched["control"] > 0.1)


def test_jacobian_of_koebe_at_origin_is_identity():
    e1 = generator(2, 1)
    f = SliceMap(extremal_series(2, 0.9, e1, 60, 2))
    origin = make_point([0.0, 0.0], [0.0, 0.0], CliffordElement(2, e1))
    for s in range(2):
        row = f.derivative(s).eval(origin)
        for t in range(2):
            expected = (1.0 if s == t else 0.0) * blade(2)
            assert isclose(row[t].coeffs, expected, 1e-12)


def _projected_series(f, I):
    """The complex series of f's coefficients projected onto C_I, and the
    largest off-slice coefficient residual."""
    coeffs, resid = complex_on_slice(f.stem._amat, I)
    return ComplexSeries(f.stem._kmat, coeffs), resid


def test_shadow_eval_batched_matches_single_points():
    rng = np.random.default_rng(11)
    f = _rand_map(rng, m=2, n=3)
    shadow, _ = _projected_series(f, sample_S_batch(rng, 2, 1)[0])
    z = rng.uniform(-0.7, 0.7, (6, 3)) + 1j * rng.uniform(-0.7, 0.7, (6, 3))
    batch = shadow.eval(z)
    assert batch.shape == (6, 3)
    for i, row in enumerate(batch):
        single = shadow.eval(z[i:i + 1])
        assert single.shape == (1, 3)
        assert np.max(np.abs(row - single[0])) < 1e-14


def test_shadow_matches_slice_map_on_its_slice():
    # koebe coefficients lie in C_I, so f_I is the shadow's value there
    rng = np.random.default_rng(12)
    i_elem = generator(3, 2)
    f = SliceMap(extremal_series(2, 0.7, i_elem, 40, 2))
    alpha = rng.uniform(-0.5, 0.5, (20, 2))
    beta = rng.uniform(-0.5, 0.5, (20, 2))
    on_slice, resid = complex_on_slice(f.eval_arrays(alpha, beta, i_elem), i_elem)
    shadow, coeff_resid = _projected_series(f, i_elem)
    assert max(resid, coeff_resid) < 1e-12
    assert np.max(np.abs(on_slice - shadow.eval(alpha + 1j * beta))) < 1e-12


def test_slice_derivative_matches_finite_differences():
    rng = np.random.default_rng(7)
    f = _rand_map(rng, m=2)
    d0 = f.derivative(0)
    J = CliffordElement(2, sample_S_batch(rng, 2, 1)[0])
    h = 1e-5
    p = make_point([0.3, -0.2], [0.1, 0.25], J)
    plus = f.eval(make_point(p.alpha + [h, 0], p.beta, J))
    minus = f.eval(make_point(p.alpha - [h, 0], p.beta, J))
    exact = d0.eval(p)
    for t in range(2):
        fd = (plus[t].coeffs - minus[t].coeffs) / (2 * h)
        assert np.max(np.abs(fd - exact[t].coeffs)) < 1e-7


def test_regularity_residuals():
    rng = np.random.default_rng(8)
    f = _rand_map(rng, m=2)
    p = (np.array([[0.2, -0.1]]), np.array([[0.3, 0.15]]), sample_S_batch(rng, 2, 1)[0])
    assert regularity_residual(f, *p)[0] < 1e-7

    const = SliceMap(StemSeries(2, 2, {(0, 0): rng.uniform(-1, 1, (2, 4))}))
    assert regularity_residual(const, *p)[0] < 1e-14

    assert regularity_residual(_re_z1_control(2, 2), *p)[0] > 0.1


def test_re_z1_control_fails_both_holomorphy_checks():
    # the one Re(z_1) control of the stem and regularity suites, on every
    # row of a batch: d Re(z_1)/d conj(z_1) = 1/2, and d/d alpha_1 = 1
    # while J d/d beta_1 = 0
    rng = np.random.default_rng(24)
    control = _re_z1_control(3, 2)
    alpha, beta = rng.uniform(-0.4, 0.4, (2, 20, 2))
    cr = cr_residual(control.stem_arrays, alpha, beta)
    np.testing.assert_allclose(cr, 0.5, rtol=0, atol=1e-9)
    reg = regularity_residual(control, alpha, beta, sample_S_batch(rng, 3, 20))
    assert reg.shape == (20,) and np.all(reg > 0.1)
    # a constant stem reads zero through both
    const = SliceMap(StemSeries(3, 2, {(0, 0): rng.uniform(-1, 1, (2, 8))}))
    assert np.all(cr_residual(const.stem_arrays, alpha, beta) < 1e-14)
    assert np.all(regularity_residual(const, alpha, beta,
                                      sample_S_batch(rng, 3, 20)) < 1e-14)


def test_split_single_component_for_m1():
    rng = np.random.default_rng(9)
    f = _rand_map(rng, m=1, n=2, degree=3, terms=5)
    e1 = generator(1, 1)
    comps, basis = split_components(f, e1)
    assert len(comps) == 1 and np.array_equal(basis, [[1.0, 0.0]])
    z = np.array([[0.3 + 0.2j, -0.1 + 0.4j]])
    direct = f.eval_arrays(z.real, z.imag, e1)
    rebuilt = reassemble_on_slice(comps, basis, e1, z)
    assert np.max(np.abs(rebuilt - direct)) < 1e-12


def test_split_koebe_concentrates_on_slice():
    # coefficients live in span{1, e1}: only the unit-blade component survives
    m = 2
    e1 = generator(m, 1)
    f = SliceMap(extremal_series(2, 0.7, e1, 40, 1))
    comps, basis = split_components(f, e1, completion=[blade(m), generator(m, 2)])
    assert np.max(np.abs(comps[1].coeffs)) < 1e-12
    assert np.max(np.abs(comps[0].coeffs)) > 0.5


def test_split_reassembles_generic_map():
    rng = np.random.default_rng(10)
    for m in (2, 3):
        f = _rand_map(rng, m=m)
        i_elem = unit_rows(rng.normal(size=m))
        comps, basis = split_components(f, i_elem)
        assert len(comps) == 1 << (m - 1)
        for _ in range(25):
            z = rng.uniform(-0.8, 0.8, (1, 2)) + 1j * rng.uniform(-0.8, 0.8, (1, 2))
            rebuilt = reassemble_on_slice(comps, basis, i_elem, z)
            direct = f.eval_arrays(z.real, z.imag, i_elem)
            assert np.max(np.abs(rebuilt - direct)) < 1e-10
        # a batch of points gets the bits each point gets alone
        zs = rng.uniform(-0.8, 0.8, (7, 2)) + 1j * rng.uniform(-0.8, 0.8, (7, 2))
        for i, rebuilt in enumerate(reassemble_on_slice(comps, basis, i_elem, zs)):
            alone = reassemble_on_slice(comps, basis, i_elem, zs[i:i + 1])
            assert np.array_equal(rebuilt, alone[0])


def test_split_rejects_degenerate_completion():
    rng = np.random.default_rng(11)
    f = _rand_map(rng, m=2)
    e1 = generator(2, 1)
    with pytest.raises(BasisError):
        split_components(f, e1, completion=[blade(2), e1])  # {1, I} is not a module basis
    with pytest.raises(BasisError):
        split_components(f, e1, completion=[blade(2)])


def test_default_module_basis_requires_vector_direction():
    with pytest.raises(BasisError):
        default_module_basis(blade(2, (1, 2)))
    i_elem = np.array([0.0, 0.6, 0.0, 0.0, 0.8, 0.0, 0.0, 0.0])   # 0.6 e1 + 0.8 e3
    basis = default_module_basis(i_elem)
    assert len(basis) == 4 and basis.shape == (4, 8)
