"""Extremal profiles, starlike/convex criteria, growth checks, gauges."""

import numpy as np
import pytest

from slicegrowth import geometry as geometry_mod
from slicegrowth.algebra import CliffordElement, blade, generator, mul_batch
from slicegrowth.errors import (
    CriterionError,
    DimensionError,
    GaugeError,
    HypothesisViolationError,
)
from slicegrowth.geometry import (
    Gauge,
    _hypothesis_status,
    closed_form_agreement,
    convex_criterion_slice,
    envelope_table,
    gauge_properties_check,
    gauge_rho,
    growth_bounds,
    growth_check_ball,
    growth_check_domain,
    oracle_gauge,
    starlike_criterion_slice,
    value_gauge_on_slice,
    verify_extremal,
)
from slicegrowth.reports import render, summary_lines
from slicegrowth.series import (
    StemSeries,
    coefficient_gap,
    extremal_series,
    extremal_tail,
)
from slicegrowth.slicemaps import (
    ComplexSeries,
    ShadowMap,
    SliceMap,
    complex_on_slice,
    extremal_map,
)
from slicegrowth.slicespace import make_point, point_norm, sample_S_batch
from slicegrowth.suites import (
    GROWTH_MAPS,
    RunConfig,
    _extremal_shard,
    _re_z1_control,
    run_suite,
)


E1_3 = generator(3, 1)


def _orbit(alpha, beta):
    """The orbit alpha + J beta over all J as one row pair, each (1, n)."""
    return np.array([[alpha], [beta]], dtype=np.float64)


def test_profile_real_orbit_is_constant(identity_stem):
    f = SliceMap(identity_stem(3, 2))
    o = _orbit([0.4, -0.7], [0.0, 0.0])
    rep = verify_extremal(f, *o, E1_3, 50, np.random.default_rng(0))
    assert rep.data["c1"] == pytest.approx(0.0, abs=1e-14)
    assert rep.data["endpoint_max"] == pytest.approx(rep.data["endpoint_min"], abs=1e-14)


def test_profile_identity_has_no_slope(identity_stem):
    # B/A ratios are real for the identity, so the norm is J-independent
    rng = np.random.default_rng(0)
    f = SliceMap(identity_stem(3, 2))
    o = _orbit([0.3, -0.5], [0.6, 0.2])
    rep = verify_extremal(f, *o, E1_3, 50, rng)
    assert abs(rep.data["c1"]) < 1e-14
    norms = []
    for j in sample_S_batch(rng, 3, 50):
        p = make_point(*o, CliffordElement(3, j))
        norms.append(np.sqrt(sum(np.dot(v.coeffs, v.coeffs) for v in f.eval(p))))
    assert max(norms) - min(norms) < 1e-12


def test_profile_matches_sampled_norms_for_koebe():
    # the chord through the endpoint norms predicts the norm at every J,
    # each evaluated alone
    rng = np.random.default_rng(1)
    f = SliceMap(extremal_series(2, 0.6, E1_3, 80, 2))
    o = _orbit([0.25, -0.1], [0.3, 0.2])
    rep = verify_extremal(f, *o, E1_3, 50, rng)
    c0, c1 = rep.data["c0"], rep.data["c1"]
    assert abs(c1) > 0.01
    for j in sample_S_batch(rng, 3, 50):
        u = float(np.dot(j, E1_3))
        val = np.sqrt(sum(np.dot(v.coeffs, v.coeffs)
                          for v in f.eval(make_point(*o, CliffordElement(3, j)))))
        assert abs(val ** 2 - (c0 - c1 * u)) < 1e-9


def test_profile_rejects_off_slice_maps():
    # coefficients outside span{1, e1} push values off the slice
    table = {(1, 0): np.zeros((2, 8)), (2, 0): np.zeros((2, 8))}
    table[(1, 0)][0, 0] = 1.0
    table[(2, 0)][0, 4] = 1.0  # e3 coefficient
    f = SliceMap(StemSeries(3, 2, table))
    o = _orbit([0.5, 0.0], [0.2, 0.0])
    with pytest.raises(HypothesisViolationError):
        verify_extremal(f, *o, E1_3, 50, np.random.default_rng(0))


def test_verify_extremal_passes_for_koebe():
    rng = np.random.default_rng(2)
    f = SliceMap(extremal_series(2, 0.3, E1_3, 80, 2))
    o = _orbit([0.2, -0.3], [0.25, 0.15])
    rep = verify_extremal(f, *o, E1_3, 400, rng)
    assert rep.passed, rep.data


def test_verify_extremal_bivector_direction():
    rng = np.random.default_rng(3)
    e12 = blade(2, (1, 2))
    f = SliceMap(extremal_series(2, 0.5, e12, 80, 1))
    o = _orbit([0.3], [0.4])
    rep = verify_extremal(f, *o, e12, 400, rng)
    assert rep.passed, rep.data


def test_profile_linearity_residual():
    f = SliceMap(extremal_series(2, 0.8, E1_3, 80, 2))
    o = _orbit([0.35, -0.15], [0.2, 0.3])
    rep = verify_extremal(f, *o, E1_3, 20, np.random.default_rng(0))
    assert rep.data["linearity_residual"] < 1e-9


class NanOffTheAxis:
    """The values of f, NaN on every slice but those of +-I."""

    def __init__(self, f, I):
        self.f, self.I, self.m, self.n = f, I, f.m, f.n

    def eval_arrays(self, alpha, beta, j_rows):
        vals = self.f.eval_arrays(alpha, beta, j_rows)
        vals[np.abs(np.atleast_2d(j_rows) @ self.I) < 1.0] = np.nan
        return vals


def test_verify_extremal_fails_a_nan_map():
    f = NanOffTheAxis(extremal_map(2, 0.3, E1_3, 2), E1_3)
    o = _orbit([0.2, -0.3], [0.25, 0.15])
    rep = verify_extremal(f, *o, E1_3, 400, np.random.default_rng(2))
    assert np.isfinite(rep.data["c0"]) and np.isfinite(rep.data["c1"])
    assert np.isnan(rep.data["profile_residual"])
    assert np.isnan(rep.data["max_error"])
    assert not rep.passed


class IPlusJIJ:
    """I + J I J in every component on the slice of J: 0 at J = +-I and
    2I on the slices of the J that anticommute with I, so not slice
    regular; the extremal record's negative control."""

    def __init__(self, I, n):
        self.I, self.m, self.n = I, 3, n

    def eval_arrays(self, alpha, beta, j_rows):
        J = np.atleast_2d(j_rows)
        v = self.I + mul_batch(self.m, mul_batch(self.m, J, self.I), J)
        return np.repeat(v[:, None, :], self.n, axis=1)


def test_verify_extremal_negative_control():
    o = _orbit([0.2, -0.3], [0.25, 0.15])
    control = verify_extremal(IPlusJIJ(E1_3, 2), *o, E1_3, 400, np.random.default_rng(2))
    assert not control.passed
    assert control.data["c0"] == control.data["c1"] == 0.0
    # the largest norm is 2 |I| sqrt(n) and its square 8, against 0 at +-I
    assert control.data["endpoint_violation"] == pytest.approx(2 * np.sqrt(2), abs=0.01)
    assert control.data["profile_residual"] == pytest.approx(8.0, abs=0.05)
    koebe = verify_extremal(extremal_map(2, 0.3, E1_3, 2), *o, E1_3, 400,
                            np.random.default_rng(2))
    assert koebe.passed, koebe.data


def test_extremal_shard_draws_its_orbit_with_the_canonical_sign():
    # at seed 1 the drawn beta starts negative: the record is that of the
    # orbit row with beta negated, on the same stream, and not that of the
    # row as drawn (c1 changes sign with beta)
    f = extremal_map(2, 0.7, E1_3, 2)
    rng = np.random.default_rng(1)
    alpha, beta = rng.uniform(-0.5, 0.5, (2, 1, 2))
    assert beta[0, 0] < 0 < beta[0, 1]
    state = rng.bit_generator.state
    expected = verify_extremal(f, alpha, -beta, E1_3, 50, rng)
    rng.bit_generator.state = state
    as_drawn = verify_extremal(f, alpha, beta, E1_3, 50, rng)
    rep, = _extremal_shard("koebe", f, E1_3, 1e-9, 50, np.random.default_rng(1))
    assert rep.data.pop("map") == "koebe"
    assert rep.data == expected.data and rep.passed == expected.passed
    assert rep.data["c1"] == -as_drawn.data["c1"] != 0.0


def _identity_shadow(I, n):
    """The identity map as the ShadowMap of g(z) = z on the slice of I."""
    return ShadowMap(I, n, lambda z: z,
                     lambda z: np.broadcast_to(np.eye(n), z.shape + (n,)),
                     lambda z: np.zeros(z.shape + (n, n)))


def _series_shadow(stem, I):
    """The ShadowMap of a stem series whose coefficients lie in C_I: its
    projection onto C_I and the projections of its formal derivatives."""
    def shadow_of(series):
        return ComplexSeries(series._kmat, complex_on_slice(series._amat, I)[0]).eval

    n = stem.n
    g = shadow_of(stem)
    first = [shadow_of(stem.derivative(t)) for t in range(n)]
    second = [[shadow_of(stem.derivative(t).derivative(u)) for u in range(n)]
              for t in range(n)]
    return ShadowMap(
        I, n, g,
        lambda z: np.stack([d(z) for d in first], axis=-1),
        lambda z: np.stack([np.stack([d(z) for d in row], axis=-1) for row in second],
                           axis=-2))


def test_starlike_criterion_identity_and_koebe():
    e1 = generator(2, 1)
    f = _identity_shadow(e1, 2)
    z = np.array([[0.3 + 0.2j, -0.4 + 0.1j]])
    val = starlike_criterion_slice(f, z)
    assert val.shape == (1,)
    assert val[0] == pytest.approx(float(np.sum(np.abs(z) ** 2)), abs=1e-12)

    rng = np.random.default_rng(4)
    k = extremal_map(2, 0.7, e1, 2)
    w = rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2))
    w *= rng.uniform(0.05, 0.9, size=(100, 1)) / np.linalg.norm(w, axis=1, keepdims=True)
    assert np.all(starlike_criterion_slice(k, w) > 0.0)


def test_starlike_criterion_flags_paper_example():
    # the degree-two polynomial family loses injectivity inside the ball
    e1 = generator(2, 1)
    f = extremal_map(-1, 0.0, e1, 2)
    z = np.array([[0.6 + 0.0j, 0.0 + 0.0j]])
    with pytest.raises(CriterionError):
        # Jacobian is singular where the derivative vanishes (z_1 = 1/2)
        starlike_criterion_slice(f, np.array([[0.5 + 0j, 0.0 + 0j]]))
    assert starlike_criterion_slice(f, z)[0] <= 0.0


def test_convex_criterion_values():
    m = 2
    e1 = generator(m, 1)
    ident = _identity_shadow(e1, 1)
    assert convex_criterion_slice(ident, 0, [0.3])[0] == pytest.approx(1.0, abs=1e-12)

    # cayley slice x/(1-x): criterion 1 + 2x/(1-x) equals 3 at x = 0.5
    cay = extremal_map(1, 0.0, e1, 1)
    assert convex_criterion_slice(cay, 0, [0.5])[0] == pytest.approx(3.0, abs=1e-9)

    # koebe slice x/(1-x)^2 fails convexity on the negative axis:
    # 1 + (4x + 2x^2)/(1 - x^2) = -9.42105... at x = -0.9
    koe = extremal_map(2, 0.0, e1, 1)
    val = convex_criterion_slice(koe, 0, [-0.9])[0]
    assert val == pytest.approx(1 + (4 * -0.9 + 2 * 0.81) / (1 - 0.81), abs=1e-6)
    assert val < 0.0

    # negative controls: the paper example x(1 - x) has f' = 0 at x = 1/2,
    # which reads NaN, and a shadow without derivatives has no criterion
    paper = extremal_map(-1, 0.0, e1, 2)
    assert np.isnan(convex_criterion_slice(paper, 0, [0.5])[0])
    with pytest.raises(HypothesisViolationError):
        convex_criterion_slice(ShadowMap(e1, 1, koe.g), 0, [0.3])


def test_batched_criteria_equal_single_points():
    rng = np.random.default_rng(13)
    e1 = generator(3, 1)
    k = extremal_map(2, 0.7, e1, 2)
    z = rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2))
    z *= rng.uniform(0.05, 0.9, size=(40, 1)) / np.linalg.norm(z, axis=1, keepdims=True)
    batch = starlike_criterion_slice(k, z)
    assert batch.shape == (40,)
    assert np.array_equal(batch, [starlike_criterion_slice(k, w[None])[0] for w in z])

    for f in (k, extremal_map(1, 0.7, e1, 2)):
        for t in (0, 1):
            xs = rng.uniform(-0.9, 0.9, size=40)
            batch = convex_criterion_slice(f, t, xs)
            assert np.array_equal(
                batch, [convex_criterion_slice(f, t, xs[i:i + 1])[0] for i in range(40)])

    # a vanishing derivative reads NaN at its row alone, and a singular
    # Jacobian at any row raises
    paper = extremal_map(-1, 0.0, e1, 2)
    vals = convex_criterion_slice(paper, 0, np.array([0.3, 0.5]))
    assert vals[0] == convex_criterion_slice(paper, 0, np.array([0.3]))[0]
    assert np.isnan(vals[1])
    with pytest.raises(CriterionError):
        starlike_criterion_slice(paper, np.array([[0.3 + 0j, 0j], [0.5 + 0j, 0j]]))


@pytest.mark.parametrize("label", list(GROWTH_MAPS))
def test_closed_form_criteria_match_the_series(label):
    # the criteria of the shadow (g, phi', phi'') against those of the
    # N = 300 series, whose tail at |z| <= 0.8 is far below rounding
    entry = GROWTH_MAPS[label]
    m, n = 3, 2
    rng = np.random.default_rng(41)
    for I in (generator(m, 1), blade(m, (1, 2))):
        for theta in (0.0, 0.7, np.pi / 2):
            closed = entry.map(theta, I, n)
            ref = _series_shadow(entry.reference(theta, I, 300, n, 0.9)[0], I)
            z = rng.normal(size=(50, n)) + 1j * rng.normal(size=(50, n))
            z *= rng.uniform(0.05, 0.8, size=(50, 1)) / np.linalg.norm(z, axis=1, keepdims=True)
            gap = np.abs(starlike_criterion_slice(closed, z)
                         - starlike_criterion_slice(ref, z))
            assert np.max(gap) <= 1e-9, (label, theta)
            for t in range(n):
                xs = rng.uniform(-0.8, 0.8, 50)
                gap = np.abs(convex_criterion_slice(closed, t, xs)
                             - convex_criterion_slice(ref, t, xs))
                assert np.max(gap) <= 1e-9, (label, theta, t)


def test_spot_check_reads_off_slice_without_derivatives():
    # every growth map is judged on its own slice row, e1 or e12; a shadow
    # without derivatives, or a map of a stem series, reads off-slice
    for I in (generator(3, 1), blade(3, (1, 2))):
        for label, entry in GROWTH_MAPS.items():
            f = entry.map(0.7, I, 2)
            status = _hypothesis_status(f, entry.family, 0.9, np.random.default_rng(3))
            assert status != "off-slice", label
    series_map = SliceMap(extremal_series(2, 0.0, generator(3, 1), 40, 2))
    for family in ("starlike", "convex"):
        for f in (_re_z1_control(3, 2), series_map):
            assert _hypothesis_status(f, family, 0.9, np.random.default_rng(3)) == "off-slice"


def test_hypothesis_status_spot_check():
    m = 3
    e1 = generator(m, 1)
    # the default-seed streams of the theta = 0 paper-example records
    reports = run_suite("growth-ball", RunConfig(seed=20240811, theta=0.0,
                                                 map="paper-example"))
    status = {rep.check: rep.data["hypothesis_status"] for rep in reports
              if rep.check.startswith("growth-ball")}
    assert status == {
        "growth-ball-paper-example-e1-theta0.000": "violated(10/64)",
        "growth-ball-paper-example-e12-theta0.000": "violated(9/64)",
    }
    # the paper example fails both criteria on its own slice, e1 or e2
    for I in (e1, generator(m, 2)):
        paper = extremal_map(-1, 0.0, I, 2)
        for family in ("starlike", "convex"):
            rng = np.random.default_rng(14)
            assert _hypothesis_status(paper, family, 0.9, rng).startswith("violated")


def _agreement(maps, p, thetas, gap_p, seed):
    """closed_form_agreement of maps against the e1 reference series of
    exponent p at thetas, with the coefficient gap taken at exponent gap_p."""
    e1 = generator(3, 1)
    stems = [extremal_series(p, theta, e1, 300, 2) for theta in thetas]
    gap = max(coefficient_gap(stem, gap_p, theta, e1) for stem, theta in zip(stems, thetas))
    return closed_form_agreement(maps, stems, thetas, 300, gap,
                                 extremal_tail(p, 2, 300, 0.9), 0.9, 300,
                                 np.random.default_rng(seed))


def test_closed_form_agreement_negative_controls():
    e1 = generator(3, 1)
    good = _agreement([extremal_map(2, 0.7, e1, 2)], 2, [0.7], 2, 15)
    assert good.passed, good.data
    assert good.data["value_gap"] <= good.data["tail_bound"] + 1e-9
    assert good.samples == 300 and good.data["thetas"] == "0.7"
    # the theta = 0.7 Koebe series paired with a map of a wrong theta or
    # exponent fails on the values
    for wrong in (extremal_map(2, 0.75, e1, 2), extremal_map(1, 0.7, e1, 2)):
        bad = _agreement([extremal_map(2, 0.7, e1, 2), wrong], 2, [0.7, 0.7], 2, 15)
        assert not bad.passed, bad.data
        assert bad.data["value_gap"] > 1e-3
    # and the series compared with a wrong family's coefficients fails on them
    bad = _agreement([extremal_map(2, 0.7, e1, 2)], 2, [0.7], 1, 15)
    assert not bad.passed and bad.data["coefficient_gap"] > 1e-3, bad.data


def test_closed_form_agreement_compares_every_map_at_one_point_set():
    # one point set serves every map of the sweep: a record of three maps
    # draws what a record of one draws, and counts 300 points x 3 maps
    e1 = generator(3, 1)
    thetas = [0.0, 0.7, np.pi / 2]
    maps = [extremal_map(2, theta, e1, 2) for theta in thetas]
    rep = _agreement(maps, 2, thetas, 2, 15)
    assert rep.passed and rep.samples == 900, rep.data
    draws = np.random.default_rng(15)
    closed_form_agreement(maps[:1], [extremal_series(2, 0.0, e1, 300, 2)], [0.0], 300,
                          0.0, 0.0, 0.9, 300, draws)
    after_three = np.random.default_rng(15)
    closed_form_agreement(maps, [extremal_series(2, t, e1, 300, 2) for t in thetas],
                          thetas, 300, 0.0, 0.0, 0.9, 300, after_three)
    assert draws.random() == after_three.random()
    # the reference series of one record must share their exponent rows
    with pytest.raises(DimensionError):
        closed_form_agreement(maps[:2], [extremal_series(2, 0.0, e1, 300, 2),
                                         extremal_series(2, 0.7, e1, 299, 2)],
                              thetas[:2], 300, 0.0, 0.0, 0.9, 10, np.random.default_rng(0))


def _nan_first_row(f):
    """The ShadowMap f with NaN values at the first row of every call."""
    def g(z):
        return np.where((np.arange(len(z)) == 0)[:, None], np.nan, f.g(z))
    return ShadowMap(f.I, f.n, g, f.dg, f.d2g)


def _nan_on_the_ray(f):
    """The ShadowMap f with a NaN value at the first real point (beta = 0)
    of every call: the samples hold none, the extremal ray only such."""
    values = f.eval_arrays

    def poisoned(alpha, beta, j_rows):
        vals = values(alpha, beta, j_rows)
        vals[np.flatnonzero(~np.any(beta, axis=1))[:1]] = np.nan
        return vals
    f.eval_arrays = poisoned
    return f


def test_a_nan_row_fails_the_closed_form_and_sharpness_records():
    # the builtin max(0.0, nan) is 0.0: an accumulator built on it passes a
    # map whose values are NaN at one point
    e1 = generator(3, 1)
    for p, family in ((2, "starlike"), (1, "convex")):
        f = extremal_map(p, 0.0, e1, 2)
        stems = [extremal_series(p, 0.0, e1, 300, 2)]
        tail = extremal_tail(p, 2, 300, 0.9)
        good = closed_form_agreement([f], stems, [0.0], 300, 0.0, tail, 0.9, 50,
                                     np.random.default_rng(1))
        bad = closed_form_agreement([_nan_first_row(f)], stems, [0.0], 300, 0.0, tail, 0.9,
                                    50, np.random.default_rng(1))
        assert good.passed and not bad.passed, (good.data, bad.data)
        assert np.isnan(bad.data["value_gap"]) and np.isnan(bad.data["max_error"])
        # a NaN on the extremal ray alone fails the theta = 0 growth record
        for domain in ("ball", "polydisc"):
            sharp = growth_check_domain(_nan_on_the_ray(extremal_map(p, 0.0, e1, 2)),
                                        Gauge(domain, 2, 3), family, 0.9, 50,
                                        np.random.default_rng(1), 0.0)
            assert sharp.data["asserted"] and not sharp.passed, sharp.data
            assert np.isnan(sharp.data["sharpness_gap"]), sharp.data
            assert np.isnan(sharp.data["max_error"]), sharp.data


def test_growth_bounds_shapes():
    lo, hi = growth_bounds(0.5, "starlike")
    assert lo == pytest.approx(0.5 / 2.25)
    assert hi == pytest.approx(2.0)
    lo1, hi1 = growth_bounds(0.5, "convex")
    assert lo1 == pytest.approx(1 / 3)
    assert hi1 == pytest.approx(1.0)
    # the norm-form: ||x|| = 0.8 over the envelopes' denominators at rho = 0.5
    lo2, hi2 = growth_bounds(0.5, "starlike", size=0.8)
    assert lo2 == pytest.approx(0.8 / 2.25)
    assert hi2 == pytest.approx(3.2)


def test_growth_check_ball_koebe():
    rng = np.random.default_rng(5)
    f = extremal_map(2, 0.0, E1_3, 2)
    rep = growth_check_ball(f, "starlike", 0.9, 2000, rng, 0.0)
    assert rep.passed, rep.data
    assert rep.data["hypothesis_status"] == "ok"


def test_growth_check_ball_flags_paper_example():
    rng = np.random.default_rng(6)
    e1 = generator(2, 1)
    f = extremal_map(-1, 0.0, e1, 2)
    rep = growth_check_ball(f, "convex", 0.9, 500, rng, 0.0)
    # the lower growth bound is badly violated, but the hypothesis fails
    # first, so the report flags instead of asserting
    assert rep.passed
    assert rep.data["hypothesis_status"].startswith("violated")
    assert not rep.data["asserted"]
    assert rep.data["max_violation_lower"] > 0.1


def test_sharpness_rows():
    # the truncation-300 Koebe and Cayley series meet the envelopes along
    # the first axis within the growth record's tol; a series map has no
    # shadow, so its record is not asserted and the gap is read directly
    for p, family in ((2, "starlike"), (1, "convex")):
        f = SliceMap(extremal_series(p, 0.0, E1_3, 300, 2))
        rep = growth_check_domain(f, Gauge("ball", 2, 3), family, 0.9, 10,
                                  np.random.default_rng(2), 0.0)
        assert rep.data["sharpness_gap"] <= rep.data["threshold"], rep.data


def test_envelope_table_closed_forms():
    f = SliceMap(extremal_series(2, 0.0, E1_3, 300, 1))
    rows = envelope_table(f, "starlike", [0.0, 0.5])
    assert rows[0]["lower_bound"] == 0.0
    assert rows[0]["f_at_plus_r"] == pytest.approx(0.0, abs=1e-15)
    assert rows[1]["lower_bound"] == pytest.approx(0.5 / 2.25, abs=1e-12)
    assert rows[1]["upper_bound"] == pytest.approx(2.0, abs=1e-12)
    assert rows[1]["f_at_plus_r"] == pytest.approx(2.0, abs=1e-9)
    assert rows[1]["f_at_minus_r"] == pytest.approx(0.5 / 2.25, abs=1e-9)


def test_gauge_closed_forms():
    ball = Gauge("ball", 2, 2)
    poly = Gauge("polydisc", 2, 2)
    assert gauge_rho(ball, [[0.3, 0.0]], [[0.0, 0.4]])[0] == pytest.approx(0.5)
    assert gauge_rho(poly, [[0.3, 0.0]], [[0.0, 0.4]])[0] == pytest.approx(0.4)
    # the polydisc example: sqrt(alpha_t^2 + beta_t^2) per component
    assert gauge_rho(poly, [[0.2, 0.0]], [[0.0, 0.7]])[0] == pytest.approx(0.7)
    # points are rows: a bare (n,) point is refused by every kind
    for g in (ball, poly, oracle_gauge(_closed_member(ball), 2, 2)):
        with pytest.raises(np.exceptions.AxisError):
            gauge_rho(g, [0.3, 0.0], [0.0, 0.4])


def test_gauge_properties_reports():
    rng = np.random.default_rng(7)
    for g in (Gauge("ball", 2, 3), Gauge("polydisc", 2, 3)):
        rep = gauge_properties_check(g, 30, rng)
        assert rep.passed, rep.data


def _closed_member(g):
    return lambda a, b, j: gauge_rho(g, a, b) < 1.0


def test_oracle_gauge_matches_closed_form():
    rng = np.random.default_rng(8)
    ball = Gauge("ball", 2, 2)
    oracle = oracle_gauge(_closed_member(ball), 2, 2)
    for _ in range(50):
        p = make_point(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2),
                       CliffordElement(2, sample_S_batch(rng, 2, 1)[0]))
        rho = gauge_rho(oracle, p.alpha[None], p.beta[None], p.J.coeffs)[0]
        assert abs(rho - gauge_rho(ball, p.alpha[None], p.beta[None])[0]) < 1e-8


def test_oracle_gauge_detects_inconsistency():
    # membership true only in an annulus: not starlike about the origin
    def weird(a, b, j):
        r = np.sqrt(np.sum(a ** 2 + b ** 2, axis=1))
        return (0.5 < r) & (r < 1.0)

    bad = oracle_gauge(weird, 1, 2)
    with pytest.raises(GaugeError):
        gauge_rho(bad, [[2.0]], [[0.0]])


def test_gauge_batch_equals_rows_bit_for_bit():
    rng = np.random.default_rng(21)
    n, m = 3, 3
    alpha = rng.uniform(-1.5, 1.5, (40, n))
    beta = rng.uniform(-1.5, 1.5, (40, n))
    alpha[[0, 17]] = 0.0
    beta[[0, 17]] = 0.0
    beta[5] = 0.0
    j_rows = sample_S_batch(rng, m, 40)
    ball, poly = Gauge("ball", n, m), Gauge("polydisc", n, m)
    # a domain whose radius depends on the slice unit reads j_rows
    by_j = oracle_gauge(
        lambda a, b, j: gauge_rho(ball, a, b) < 1.0 + 0.5 * j[:, 1] ** 2, n, m)
    ball_rows = gauge_rho(ball, alpha, beta)
    assert np.max(np.abs(gauge_rho(by_j, alpha, beta, j_rows) -
                         ball_rows / (1.0 + 0.5 * j_rows[:, 1] ** 2))) < 1e-8
    # the ball gauge keeps the bits of the point norm
    assert ball_rows.tobytes() == np.array([
        point_norm(make_point(a, b, CliffordElement(m, E1_3))) for a, b in zip(alpha, beta)
    ]).tobytes()
    for g in (ball, poly, oracle_gauge(_closed_member(ball), n, m),
              oracle_gauge(_closed_member(poly), n, m), by_j):
        batch = gauge_rho(g, alpha, beta, j_rows)
        rows = [gauge_rho(g, alpha[i:i + 1], beta[i:i + 1], j_rows[i:i + 1])
                for i in range(40)]
        assert all(r.shape == (1,) for r in rows)
        assert batch.shape == (40,)
        assert batch.tobytes() == np.concatenate(rows).tobytes(), g.kind
        assert batch[0] == 0.0 and batch[17] == 0.0
        # one slice unit for the whole batch, e_1 by default
        assert gauge_rho(g, alpha, beta).tobytes() == \
            gauge_rho(g, alpha, beta, E1_3).tobytes()


@pytest.mark.parametrize("inner, outer, point, message", [
    # the annulus 0.5 < rho < 1: doubling from 2 steps over it
    (0.0, 0.5, -2.0, "never became true"),
    # the ball less the shell 0.9 < rho < 0.93: bisection from 0.8 finds
    # the shell's inner edge, and the inner probe lands inside the ball
    (0.9, 0.93, -0.8, "inner probe"),
])
def test_oracle_batch_with_one_annulus_ray_raises(inner, outer, point, message):
    ball = Gauge("ball", 2, 2)

    def member(a, b, j):
        # the rays with alpha_1 < 0 see {rho < 1} less the shell
        # inner <= rho <= outer, the others the ball
        r = gauge_rho(ball, a, b)
        holed = (r < 1.0) & ~((inner <= r) & (r <= outer))
        return np.where(a[:, 0] < 0.0, holed, r < 1.0)

    oracle = oracle_gauge(member, 2, 2)
    rng = np.random.default_rng(22)
    alpha = rng.uniform(0.1, 1.5, (12, 2))
    beta = rng.uniform(-1.5, 1.5, (12, 2))
    good = gauge_rho(oracle, alpha, beta)
    assert np.max(np.abs(good - gauge_rho(ball, alpha, beta))) < 1e-8
    alpha[7], beta[7] = [point, 0.0], 0.0
    with pytest.raises(GaugeError, match=message):
        gauge_rho(oracle, alpha, beta)


def test_oracle_that_is_never_true_raises():
    never = oracle_gauge(lambda a, b, j: np.zeros(len(a), dtype=bool), 2, 2)
    with pytest.raises(GaugeError, match="never became true"):
        gauge_rho(never, np.array([[0.3, 0.1], [0.0, 0.0]]), np.zeros((2, 2)))


def test_oracle_gauge_properties_negative_control():
    ball = Gauge("ball", 2, 3)
    rep = gauge_properties_check(oracle_gauge(_closed_member(ball), 2, 3), 30,
                                 np.random.default_rng(23))
    assert rep.passed, rep.data

    def shelled(a, b, j):
        # the ball with the shell 0.5 < rho < 0.6 removed
        r = gauge_rho(ball, a, b)
        return (r < 1.0) & ~((0.5 < r) & (r < 0.6))

    rep = gauge_properties_check(oracle_gauge(shelled, 2, 3), 30,
                                 np.random.default_rng(23))
    assert not rep.passed
    assert rep.data["homogeneity_error"] > 1.0, rep.data
    assert rep.data["membership_mismatches"] > 0, rep.data


def test_value_gauge_on_slice():
    e1 = generator(2, 1)
    rows = np.array([[[0.3, 0.4, 0.0, 0.0], [-0.1, 0.0, 0.0, 0.0]],
                     [[0.0, 0.0, 0.0, 0.0], [0.6, -0.8, 0.0, 0.0]]])
    rho, resid = value_gauge_on_slice(Gauge("polydisc", 2, 2), rows, e1)
    assert resid < 1e-14
    np.testing.assert_allclose(rho, [0.5, 1.0])
    # a value off the slice of e1 shows in the residual
    rows[1, 0, 2] = 0.25
    _, resid = value_gauge_on_slice(Gauge("polydisc", 2, 2), rows, e1)
    assert resid == 0.25


def test_growth_check_domain_reads_the_map_not_its_series():
    # the closed-form Koebe map: the gauge-form and the real diagonal come
    # from its shadow, whose gauge-form is exact, with no series behind it
    m, n = 3, 2
    e1 = generator(m, 1)
    f = extremal_map(2, 0.0, e1, n)
    rep = growth_check_domain(f, Gauge("polydisc", n, m), "starlike", 0.9, 200,
                              np.random.default_rng(25), 0.0)
    assert rep.data["sharpness_gap"] <= 1e-12, rep.data
    assert rep.data["gauge_form_violation_lower"] == 0.0, rep.data
    assert rep.data["gauge_form_violation_upper"] == 0.0, rep.data


def test_growth_check_domain_ball_matches_ball_suite():
    # on the ball gauge the one checker gives growth_check_ball's record
    # bit for bit from the same stream
    f = extremal_map(2, 0.0, E1_3, 2)
    ball_rep = growth_check_ball(f, "starlike", 0.9, 800,
                                 np.random.default_rng([9, 1]), 0.0)
    dom_rep = growth_check_domain(f, Gauge("ball", 2, 3), "starlike", 0.9, 800,
                                  np.random.default_rng([9, 1]), 0.0)
    assert dom_rep.passed and dom_rep.data["asserted"], dom_rep.data
    assert render([dom_rep], "json") == render([ball_rep], "json")


def _scaled_map(scale, p, theta, I, n):
    """extremal_map(p, theta, I, n) with its values scaled; its shadow, and
    so its spot-check, stays that of the unscaled map."""
    f = extremal_map(p, theta, I, n)
    values = f.eval_arrays
    f.eval_arrays = lambda alpha, beta, j_rows: scale * values(alpha, beta, j_rows)
    return f


@pytest.mark.parametrize("p, family", [(2, "starlike"), (1, "convex")])
def test_growth_checker_fails_scaled_maps_on_every_gauge(p, family):
    # Koebe and Cayley values scaled by 1 +- 1% fail at default budgets, by
    # far more than the slack, on the ball and polydisc gauges and through
    # growth_check_ball; the unscaled maps pass
    m, n = 3, 2
    checks = {
        "ball": lambda f, rng, theta: growth_check_domain(
            f, Gauge("ball", n, m), family, 0.9, 10_000, rng, theta),
        "polydisc": lambda f, rng, theta: growth_check_domain(
            f, Gauge("polydisc", n, m), family, 0.9, 10_000, rng, theta),
        "growth_check_ball": lambda f, rng, theta: growth_check_ball(
            f, family, 0.9, 10_000, rng, theta),
    }
    for theta in (0.0, 0.7):
        for name, check in checks.items():
            for scale in (1.0, 1.01, 0.99):
                f = _scaled_map(scale, p, theta, E1_3, n)
                rep = check(f, np.random.default_rng(31), theta)
                where = (name, theta, scale, rep.data)
                assert rep.data["hypothesis_status"] == "ok", where
                assert rep.data["asserted"], where
                if scale == 1.0:
                    assert rep.passed, where
                else:
                    assert not rep.passed, where
                    assert rep.data["max_error"] > 1e4 * rep.data["threshold"], where


@pytest.mark.parametrize("p, family, delta", [(2, "starlike", 1e-10), (1, "convex", 1e-9)])
def test_the_theta_zero_growth_record_judges_sharpness(p, family, delta):
    # values scaled by 1 +- delta stray from both envelopes along the
    # extremal ray by delta times the envelope, up to 90 delta for Koebe and
    # 9 delta for Cayley at r = 0.9: about 9e-9 each, above the record's own
    # tol of 1e-9, while random points alone resolve a scaling of about 1e-4.
    # So the theta = 0 record fails on its sharpness_gap on both domains,
    # the unscaled maps pass, and a record off theta = 0 reads no ray
    for domain in ("ball", "polydisc"):
        gauge = Gauge(domain, 2, 3)
        for scale in (1.0 + delta, 1.0 - delta, 1.0):
            rep = growth_check_domain(_scaled_map(scale, p, 0.0, E1_3, 2), gauge, family,
                                      0.9, 300, np.random.default_rng(7), 0.0)
            where = (domain, scale, rep.data)
            assert rep.data["asserted"] and rep.data["threshold"] == 1e-9, where
            assert rep.passed == (scale == 1.0), where
            assert rep.data["max_error"] >= rep.data["sharpness_gap"], where
            if scale == 1.0:
                assert rep.data["sharpness_gap"] <= 1e-13, where
            else:
                assert rep.data["sharpness_gap"] > 5e-9, where
        rep = growth_check_domain(_scaled_map(1.0 + delta, p, 0.7, E1_3, 2), gauge, family,
                                  0.9, 300, np.random.default_rng(7), 0.7)
        assert "sharpness_gap" not in rep.data, (domain, rep.data)


@pytest.mark.parametrize("factor", [1.001, 1 / 1.001])
def test_moved_envelopes_fail_the_theta_zero_records(monkeypatch, factor):
    # growth_bounds loosened (factor > 1) or tightened by 0.1%: the theta = 0
    # records compare the extremal ray with the same envelopes, where the
    # Koebe and Cayley maps meet them, so each of those records fails
    bounds = geometry_mod.growth_bounds

    def moved(r, family, size=None):
        lower, upper = bounds(r, family, size)
        return lower / factor, upper * factor
    monkeypatch.setattr(geometry_mod, "growth_bounds", moved)
    for suite in ("growth-ball", "growth-domain"):
        reports = run_suite(suite, RunConfig(samples=200))
        sharp = [rep for rep in reports if rep.check.endswith("-theta0.000")
                 and rep.check.split("-")[2] in ("koebe", "cayley")]
        assert len(sharp) == 4, [rep.check for rep in reports]
        for rep in sharp:
            assert not rep.passed and rep.data["sharpness_gap"] > 1e-5, (rep.check, rep.data)


def test_growth_check_domain_hypothesis_status():
    e1 = generator(2, 1)
    paper = extremal_map(-1, 0.0, e1, 2)
    rep = growth_check_domain(paper, Gauge("ball", 2, 2), "convex", 0.9, 300,
                              np.random.default_rng(16), 0.0)
    assert rep.data["hypothesis_status"].startswith("violated")
    # a shadow without derivatives has no criterion to read
    off = ShadowMap(e1, 2, extremal_map(2, 0.7, e1, 2).g)
    rep = growth_check_domain(off, Gauge("polydisc", 2, 2), "starlike", 0.9, 300,
                              np.random.default_rng(16), 0.7)
    assert rep.data["hypothesis_status"] == "off-slice"


def test_growth_check_reads_a_series_map_off_slice():
    # a map of a stem series gives the criteria no shadow: its spot-check
    # reads off-slice and its record is reported, not asserted, as for a
    # ShadowMap without derivatives
    rng = np.random.default_rng(16)
    rep = growth_check_domain(SliceMap(extremal_series(2, 0.0, generator(3, 1), 40, 2)),
                              Gauge("ball", 2, 3), "starlike", 0.9, 10, rng)
    assert rep.data["hypothesis_status"] == "off-slice", rep.data
    assert rep.data["asserted"] is False and rep.passed


def test_growth_check_domain_fails_a_nan_on_the_slice_of_i():
    # values that are NaN only where the gauge-form reads them, on the
    # slice of I: the norm-form reads finite values first, and the NaN
    # must still reach max_error
    e1 = generator(2, 1)
    f = extremal_map(2, 0.7, e1, 2)
    values = f.eval_arrays

    def nan_on_i(alpha, beta, j_rows):
        vals = values(alpha, beta, j_rows)
        if np.ndim(j_rows) == 1:   # the one call on the slice of I
            vals[-1] = np.nan
        return vals
    f.eval_arrays = nan_on_i
    rep = growth_check_domain(f, Gauge("polydisc", 2, 2), "starlike", 0.9, 300,
                              np.random.default_rng(16), 0.7)
    assert np.isfinite(rep.data["norm_form_violation_upper"]), rep.data
    assert np.isnan(rep.data["max_error"]) and not rep.passed, rep.data


def test_gauge_properties_check_fails_a_nan_on_an_orbit(monkeypatch):
    # a NaN among the orbit gauges alone (the axial reading, read after
    # the finite homogeneity error) must reach max_error
    original = geometry_mod.gauge_rho

    def poisoned(g, alpha, beta, j_rows=None):
        rho = original(g, alpha, beta, j_rows)
        if np.ndim(rho) and len(rho) == 20 * 32:   # the samples' orbits
            rho[-1] = np.nan
        return rho
    monkeypatch.setattr(geometry_mod, "gauge_rho", poisoned)
    rep = gauge_properties_check(Gauge("ball", 2, 3), 20, np.random.default_rng(4))
    assert np.isfinite(rep.data["homogeneity_error"]), rep.data
    assert np.isnan(rep.data["max_error"]) and not rep.passed, rep.data


def test_growth_domain_runs_below_the_spot_check_radius():
    # the starlike spot-check draws radii from [min(0.05, r_max / 2), r_max]
    reports = run_suite("growth-domain", RunConfig(r_max=0.01, samples=50))
    assert reports and all(rep.passed for rep in reports)


def test_growth_check_domain_fails_values_off_the_slice():
    # a map of the slice of e1 whose values take e2 in place of e1: the
    # spot-check reads ok, and the record fails on the values' off-slice
    # residual, which enters max_error as it is, against tol
    e1, e2 = generator(2, 1), generator(2, 2)
    off = extremal_map(2, 0.7, e1, 2)
    off.eval_arrays = extremal_map(2, 0.7, e2, 2).eval_arrays
    rep = growth_check_domain(off, Gauge("polydisc", 2, 2), "starlike", 0.9, 300,
                              np.random.default_rng(16), 0.7)
    assert rep.data["hypothesis_status"] == "ok" and rep.data["asserted"], rep.data
    assert not rep.passed, rep.data
    assert rep.data["off_slice_residual"] > 1.0
    assert rep.data["max_error"] == rep.data["off_slice_residual"]
    assert rep.data["threshold"] == 1e-9
    on = extremal_map(2, 0.7, e1, 2)
    rep = growth_check_domain(on, Gauge("polydisc", 2, 2), "starlike", 0.9, 300,
                              np.random.default_rng(16), 0.7)
    assert rep.passed and rep.data["asserted"], rep.data
    assert rep.data["off_slice_residual"] <= 1e-15

    # a shadow without derivatives: the spot-check reads off-slice, so the
    # record is not asserted and says so
    rep = growth_check_domain(ShadowMap(e1, 2, on.g), Gauge("polydisc", 2, 2), "starlike",
                              0.9, 300, np.random.default_rng(16), 0.7)
    assert rep.data["hypothesis_status"] == "off-slice"
    assert rep.data["asserted"] is False and rep.passed, rep.data
    rep.check = "growth-polydisc-off-e1-theta0.700"
    assert summary_lines([rep])[-1] == \
        "[NOT ASSERTED] growth-polydisc-off-e1-theta0.700  hypothesis_status=off-slice"


def test_growth_check_domain_polydisc():
    f = extremal_map(2, 0.0, E1_3, 2)
    rng = np.random.default_rng(10)
    rep = growth_check_domain(f, Gauge("polydisc", 2, 3), "starlike", 0.9, 800,
                              rng, 0.0)
    assert rep.passed, rep.data
    # literal rho-form with the plain norm overshoots at the diagonal for
    # n = 2 while the norm-form and value-gauge form hold within tol
    assert not rep.data["rho_form_asserted"]
    assert rep.data["sharpness_gap"] < rep.data["threshold"]
    assert rep.data["norm_form_violation_upper"] <= rep.data["threshold"]
    assert rep.data["gauge_form_violation_upper"] <= rep.data["threshold"]


def test_growth_check_domain_polydisc_literal_rho_form_overshoots():
    # documents the sqrt(n) overshoot of the literal rho-form at the
    # real diagonal: ||f(diag(r))|| = sqrt(2) r/(1-r)^2 > r/(1-r)^2
    f = SliceMap(extremal_series(2, 0.0, E1_3, 300, 2))
    diag = make_point([0.9, 0.9], [0.0, 0.0], CliffordElement(3, E1_3))
    val = np.sqrt(sum(np.dot(v.coeffs, v.coeffs) for v in f.eval(diag)))
    rho = gauge_rho(Gauge("polydisc", 2, 3), diag.alpha[None], diag.beta[None])[0]
    assert val > rho / (1 - rho) ** 2 * 1.4
