"""Extremal profiles, starlike/convex criteria, growth checks, gauges."""

import numpy as np
import pytest

from slicegrowth.algebra import CliffordElement
from slicegrowth.errors import (
    CriterionError,
    GaugeError,
    HypothesisViolationError,
)
from slicegrowth.geometry import (
    _hypothesis_status,
    ball_gauge,
    closed_form_agreement,
    convex_criterion_slice,
    envelope_table,
    extremal_profile,
    gauge_properties_check,
    gauge_rho,
    growth_bounds,
    growth_check_ball,
    growth_check_domain,
    oracle_gauge,
    polydisc_gauge,
    profile_linearity,
    sharpness_axis,
    starlike_criterion_slice,
    value_gauge_on_slice,
    verify_extremal,
)
from slicegrowth.reports import render, summary_lines
from slicegrowth.series import (
    StemSeries,
    extremal_series,
    identity_map,
)
from slicegrowth.slicemaps import ClosedFormMap, SliceMap
from slicegrowth.slicespace import make_orbit, make_point, point_norm, sample_S_batch
from slicegrowth.suites import RunConfig, run_growth_ball, run_suite


E1_3 = CliffordElement.generator(3, 1)


def test_profile_real_orbit_is_constant():
    f = SliceMap(identity_map(3, 2))
    o = make_orbit([0.4, -0.7], [0.0, 0.0])
    prof = extremal_profile(f, o, E1_3)
    assert prof.c1 == pytest.approx(0.0, abs=1e-14)
    assert prof.g(1.0) == pytest.approx(prof.g(-1.0), abs=1e-14)


def test_profile_identity_has_no_slope():
    # B/A ratios are real for the identity, so the norm is J-independent
    rng = np.random.default_rng(0)
    f = SliceMap(identity_map(3, 2))
    o = make_orbit([0.3, -0.5], [0.6, 0.2])
    prof = extremal_profile(f, o, E1_3)
    assert abs(prof.c1) < 1e-14
    assert np.max(np.abs(prof.b)) < 1e-14
    norms = []
    for j in sample_S_batch(rng, 3, 50):
        p = make_point(o.alpha, o.beta, CliffordElement(3, j))
        norms.append(np.sqrt(sum(np.dot(v.coeffs, v.coeffs) for v in f.eval(p))))
    assert max(norms) - min(norms) < 1e-12


def test_profile_matches_sampled_norms_for_koebe():
    rng = np.random.default_rng(1)
    f = SliceMap(extremal_series(2, 0.6, E1_3, 80, 2))
    o = make_orbit([0.25, -0.1], [0.3, 0.2])
    prof = extremal_profile(f, o, E1_3)
    for j in sample_S_batch(rng, 3, 50):
        u = float(np.dot(j, E1_3.coeffs))
        val = np.sqrt(sum(np.dot(v.coeffs, v.coeffs)
                          for v in f.eval(make_point(o.alpha, o.beta, CliffordElement(3, j)))))
        assert abs(val ** 2 - prof.g(u)) < 1e-9


def test_profile_rejects_off_slice_maps():
    # coefficients outside span{1, e1} push values off the slice
    table = {(1, 0): np.zeros((2, 8)), (2, 0): np.zeros((2, 8))}
    table[(1, 0)][0, 0] = 1.0
    table[(2, 0)][0, 4] = 1.0  # e3 coefficient
    f = SliceMap(StemSeries(3, 2, table))
    o = make_orbit([0.5, 0.0], [0.2, 0.0])
    with pytest.raises(HypothesisViolationError):
        extremal_profile(f, o, E1_3)


def test_verify_extremal_passes_for_koebe():
    rng = np.random.default_rng(2)
    f = SliceMap(extremal_series(2, 0.3, E1_3, 80, 2))
    o = make_orbit([0.2, -0.3], [0.25, 0.15])
    rep = verify_extremal(f, o, E1_3, 400, rng)
    assert rep.passed, rep.data


def test_verify_extremal_bivector_direction():
    rng = np.random.default_rng(3)
    e12 = CliffordElement.blade(2, (1, 2))
    f = SliceMap(extremal_series(2, 0.5, e12, 80, 1))
    o = make_orbit([0.3], [0.4])
    rep = verify_extremal(f, o, e12, 400, rng)
    assert rep.passed, rep.data


def test_profile_linearity_residual():
    f = SliceMap(extremal_series(2, 0.8, E1_3, 80, 2))
    o = make_orbit([0.35, -0.15], [0.2, 0.3])
    assert profile_linearity(f, o, E1_3) < 1e-9


def test_starlike_criterion_identity_and_koebe():
    f = SliceMap(identity_map(2, 2))
    e1 = CliffordElement.generator(2, 1)
    z = np.array([0.3 + 0.2j, -0.4 + 0.1j])
    val = starlike_criterion_slice(f, e1, z)
    assert val == pytest.approx(float(np.sum(np.abs(z) ** 2)), abs=1e-12)

    rng = np.random.default_rng(4)
    k = SliceMap(extremal_series(2, 0.7, e1, 200, 2))
    for _ in range(100):
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        w *= rng.uniform(0.05, 0.9) / np.linalg.norm(w)
        assert starlike_criterion_slice(k, e1, w) > 0.0


def test_starlike_criterion_flags_paper_example():
    # the degree-two polynomial family loses injectivity inside the ball
    e1 = CliffordElement.generator(2, 1)
    f = SliceMap(extremal_series(-1, 0.0, e1, 10, 2))
    z = np.array([0.6 + 0.0j, 0.0 + 0.0j])
    with pytest.raises(CriterionError):
        # Jacobian is singular where the derivative vanishes (z_1 = 1/2)
        starlike_criterion_slice(f, e1, np.array([0.5 + 0j, 0.0 + 0j]))
    val = starlike_criterion_slice(f, e1, z)
    assert val <= 0.0


def test_convex_criterion_values():
    m = 2
    e1 = CliffordElement.generator(m, 1)
    ident = SliceMap(identity_map(m, 1))
    assert convex_criterion_slice(ident, e1, 0, 0.3) == pytest.approx(1.0, abs=1e-12)

    # cayley slice x/(1-x) (powers 1..60): criterion 1 + 2x/(1-x) equals 3
    # at x = 0.5
    cay = SliceMap(extremal_series(1, 0.0, e1, 59, 1))
    assert convex_criterion_slice(cay, e1, 0, 0.5) == pytest.approx(3.0, abs=1e-9)

    # koebe slice x/(1-x)^2 fails convexity on the negative axis:
    # 1 + (4x + 2x^2)/(1 - x^2) = -9.42105... at x = -0.9
    # (f'' needs ~400 terms to settle at |x| = 0.9: terms decay like k^3 0.9^k)
    koe = SliceMap(extremal_series(2, 0.0, e1, 398, 1))
    val = convex_criterion_slice(koe, e1, 0, -0.9)
    assert val == pytest.approx(1 + (4 * -0.9 + 2 * 0.81) / (1 - 0.81), abs=1e-6)
    assert val < 0.0

    # negative controls: the paper example x(1 - x) has f' = 0 at x = 1/2,
    # and a koebe map built on the slice of e2 leaves the slice of e1
    paper = SliceMap(extremal_series(-1, 0.0, e1, 10, 2))
    with pytest.raises(CriterionError):
        convex_criterion_slice(paper, e1, 0, 0.5)
    e2 = CliffordElement.generator(m, 2)
    with pytest.raises(HypothesisViolationError):
        convex_criterion_slice(SliceMap(extremal_series(2, 0.7, e2, 40, 1)), e1, 0, 0.3)


def test_batched_criteria_equal_single_points():
    rng = np.random.default_rng(13)
    e1 = CliffordElement.generator(3, 1)
    k = SliceMap(extremal_series(2, 0.7, e1, 200, 2))
    z = rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2))
    z *= rng.uniform(0.05, 0.9, size=(40, 1)) / np.linalg.norm(z, axis=1, keepdims=True)
    batch = starlike_criterion_slice(k, e1, z)
    assert batch.shape == (40,)
    assert np.array_equal(batch, [starlike_criterion_slice(k, e1, w) for w in z])

    for f in (k, SliceMap(extremal_series(1, 0.7, e1, 200, 2))):
        for t in (0, 1):
            xs = rng.uniform(-0.9, 0.9, size=40)
            batch = convex_criterion_slice(f, e1, t, xs)
            assert np.array_equal(
                batch, [convex_criterion_slice(f, e1, t, float(x)) for x in xs])

    # where a scalar call raises, the batch reports NaN and still raises on
    # a singular Jacobian
    paper = SliceMap(extremal_series(-1, 0.0, e1, 10, 2))
    vals = convex_criterion_slice(paper, e1, 0, np.array([0.3, 0.5]))
    assert vals[0] == convex_criterion_slice(paper, e1, 0, 0.3)
    assert np.isnan(vals[1])
    with pytest.raises(CriterionError):
        starlike_criterion_slice(paper, e1, np.array([[0.3 + 0j, 0j], [0.5 + 0j, 0j]]))


def test_hypothesis_status_spot_check():
    m = 3
    e1 = CliffordElement.generator(m, 1)
    # the default-seed streams of the theta = 0 paper-example records
    reports = run_growth_ball(RunConfig(seed=20240811, theta=0.0,
                                        maps=("paper-example",)))
    status = {rep.check: rep.data["hypothesis_status"] for rep in reports
              if rep.check.startswith("growth-ball")}
    assert status == {
        "growth-ball-paper-example-e1-theta0.000": "violated(9/64)",
        "growth-ball-paper-example-e12-theta0.000": "violated(11/64)",
    }
    # coefficients off the slice of e1 are flagged for both families
    off = SliceMap(extremal_series(2, 0.7, CliffordElement.generator(m, 2), 40, 2))
    for family in ("starlike", "convex"):
        rng = np.random.default_rng(14)
        assert _hypothesis_status(off, family, e1, 0.9, rng) == "off-slice"


def test_closed_form_agreement_negative_controls():
    e1 = CliffordElement.generator(3, 1)
    good = closed_form_agreement([ClosedFormMap(2, 0.7, e1, 300, 2)], 0.9, 300,
                                 np.random.default_rng(15))
    assert good.passed, good.data
    assert good.data["value_gap"] <= good.data["tail_bound"] + 1e-9
    assert good.samples == 300
    # the Koebe stem paired with a wrong theta or exponent, set on the map
    for attr, value in (("theta", 0.75), ("p", 1)):
        wrong = ClosedFormMap(2, 0.7, e1, 300, 2)
        setattr(wrong, attr, value)
        bad = closed_form_agreement([ClosedFormMap(2, 0.7, e1, 300, 2), wrong],
                                    0.9, 300, np.random.default_rng(15))
        assert not bad.passed, bad.data
        assert bad.data["value_gap"] > 1e-3
        assert bad.data["coefficient_gap"] > 1e-3


def test_growth_bounds_shapes():
    lo, hi = growth_bounds(0.5, "starlike")
    assert lo == pytest.approx(0.5 / 2.25)
    assert hi == pytest.approx(2.0)
    lo1, hi1 = growth_bounds(0.5, "convex")
    assert lo1 == pytest.approx(1 / 3)
    assert hi1 == pytest.approx(1.0)


def test_growth_check_ball_koebe():
    rng = np.random.default_rng(5)
    f = SliceMap(extremal_series(2, 0.0, E1_3, 300, 2))
    rep = growth_check_ball(f, "starlike", 0.9, 2000, rng, E1_3, 0.0)
    assert rep.passed, rep.data
    assert rep.data["hypothesis_status"] == "ok"


def test_growth_check_ball_flags_paper_example():
    rng = np.random.default_rng(6)
    e1 = CliffordElement.generator(2, 1)
    f = SliceMap(extremal_series(-1, 0.0, e1, 20, 2))
    rep = growth_check_ball(f, "convex", 0.9, 500, rng, e1, 0.0)
    # the lower growth bound is badly violated, but the hypothesis fails
    # first, so the report flags instead of asserting
    assert rep.passed
    assert rep.data["hypothesis_status"].startswith("violated")
    assert not rep.data["asserted"]
    assert rep.data["max_violation_lower"] > 0.1


def test_sharpness_rows():
    f = SliceMap(extremal_series(2, 0.0, E1_3, 300, 2))
    rep = sharpness_axis(f, "starlike", (0.1, 0.5, 0.9))
    assert rep.passed, rep.data
    c = SliceMap(extremal_series(1, 0.0, E1_3, 300, 2))
    rep2 = sharpness_axis(c, "convex", (0.1, 0.5, 0.9))
    assert rep2.passed, rep2.data


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
    ball = ball_gauge(2, 2)
    poly = polydisc_gauge(2, 2)
    assert gauge_rho(ball, [0.3, 0.0], [0.0, 0.4]) == pytest.approx(0.5)
    assert gauge_rho(poly, [0.3, 0.0], [0.0, 0.4]) == pytest.approx(0.4)
    # the polydisc example: sqrt(alpha_t^2 + beta_t^2) per component
    assert gauge_rho(poly, [0.2, 0.0], [0.0, 0.7]) == pytest.approx(0.7)


def test_gauge_properties_reports():
    rng = np.random.default_rng(7)
    for g in (ball_gauge(2, 3), polydisc_gauge(2, 3)):
        rep = gauge_properties_check(g, 30, rng)
        assert rep.passed, rep.data


def _closed_member(g):
    return lambda a, b, j: gauge_rho(g, a, b) < 1.0


def test_oracle_gauge_matches_closed_form():
    rng = np.random.default_rng(8)
    ball = ball_gauge(2, 2)
    oracle = oracle_gauge(_closed_member(ball), 2, 2)
    for _ in range(50):
        p = make_point(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2),
                       CliffordElement(2, sample_S_batch(rng, 2, 1)[0]))
        rho = gauge_rho(oracle, p.alpha, p.beta, p.J.coeffs)
        assert abs(rho - gauge_rho(ball, p.alpha, p.beta)) < 1e-8


def test_oracle_gauge_detects_inconsistency():
    # membership true only in an annulus: not starlike about the origin
    def weird(a, b, j):
        r = np.sqrt(np.sum(a ** 2 + b ** 2, axis=1))
        return (0.5 < r) & (r < 1.0)

    bad = oracle_gauge(weird, 1, 2)
    with pytest.raises(GaugeError):
        gauge_rho(bad, [2.0], [0.0])


def test_gauge_batch_equals_rows_bit_for_bit():
    rng = np.random.default_rng(21)
    n, m = 3, 3
    alpha = rng.uniform(-1.5, 1.5, (40, n))
    beta = rng.uniform(-1.5, 1.5, (40, n))
    alpha[[0, 17]] = 0.0
    beta[[0, 17]] = 0.0
    beta[5] = 0.0
    j_rows = sample_S_batch(rng, m, 40)
    ball, poly = ball_gauge(n, m), polydisc_gauge(n, m)
    # a domain whose radius depends on the slice unit reads j_rows
    by_j = oracle_gauge(
        lambda a, b, j: gauge_rho(ball, a, b) < 1.0 + 0.5 * j[:, 1] ** 2, n, m)
    ball_rows = gauge_rho(ball, alpha, beta)
    assert np.max(np.abs(gauge_rho(by_j, alpha, beta, j_rows) -
                         ball_rows / (1.0 + 0.5 * j_rows[:, 1] ** 2))) < 1e-8
    # the ball gauge keeps the bits of the point norm
    assert ball_rows.tobytes() == np.array([
        point_norm(make_point(a, b, E1_3)) for a, b in zip(alpha, beta)]).tobytes()
    for g in (ball, poly, oracle_gauge(_closed_member(ball), n, m),
              oracle_gauge(_closed_member(poly), n, m), by_j):
        batch = gauge_rho(g, alpha, beta, j_rows)
        rows = [gauge_rho(g, a, b, j) for a, b, j in zip(alpha, beta, j_rows)]
        assert all(isinstance(r, float) for r in rows)
        assert batch.shape == (40,)
        assert batch.tobytes() == np.array(rows).tobytes(), g.kind
        assert batch[0] == 0.0 and batch[17] == 0.0
        # one slice unit for the whole batch, e_1 by default
        assert gauge_rho(g, alpha, beta).tobytes() == \
            gauge_rho(g, alpha, beta, E1_3.coeffs).tobytes()


@pytest.mark.parametrize("inner, outer, point, message", [
    # the annulus 0.5 < rho < 1: doubling from 2 steps over it
    (0.0, 0.5, -2.0, "never became true"),
    # the ball less the shell 0.9 < rho < 0.93: bisection from 0.8 finds
    # the shell's inner edge, and the inner probe lands inside the ball
    (0.9, 0.93, -0.8, "inner probe"),
])
def test_oracle_batch_with_one_annulus_ray_raises(inner, outer, point, message):
    ball = ball_gauge(2, 2)

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
    ball = ball_gauge(2, 3)
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
    e1 = CliffordElement.generator(2, 1)
    rows = np.array([[[0.3, 0.4, 0.0, 0.0], [-0.1, 0.0, 0.0, 0.0]],
                     [[0.0, 0.0, 0.0, 0.0], [0.6, -0.8, 0.0, 0.0]]])
    rho, resid = value_gauge_on_slice(polydisc_gauge(2, 2), rows, e1)
    assert resid < 1e-14
    np.testing.assert_allclose(rho, [0.5, 1.0])
    # a value off the slice of e1 shows in the residual
    rows[1, 0, 2] = 0.25
    _, resid = value_gauge_on_slice(polydisc_gauge(2, 2), rows, e1)
    assert resid == 0.25


def test_growth_check_domain_reads_the_map_not_its_series():
    # a closed-form Koebe map over a reference stem truncated at N = 5:
    # the gauge-form and the real diagonal must come from the closed form,
    # whose gauge-form is exact, not from the five-term series
    m, n = 3, 2
    e1 = CliffordElement.generator(m, 1)
    f = ClosedFormMap(2, 0.0, e1, 5, n)
    rep = growth_check_domain(f, polydisc_gauge(n, m), "starlike", 0.9, 200,
                              np.random.default_rng(25), e1, 0.0)
    assert rep.data["diagonal_sharpness_gap"] <= 1e-12, rep.data
    assert rep.data["gauge_form_violation_lower"] == 0.0, rep.data
    assert rep.data["gauge_form_violation_upper"] == 0.0, rep.data


def test_growth_check_domain_ball_matches_ball_suite():
    # on the ball gauge the one checker gives growth_check_ball's record
    # bit for bit from the same stream
    f = SliceMap(extremal_series(2, 0.0, E1_3, 300, 2))
    ball_rep = growth_check_ball(f, "starlike", 0.9, 800,
                                 np.random.default_rng([9, 1]), E1_3, 0.0)
    dom_rep = growth_check_domain(f, ball_gauge(2, 3), "starlike", 0.9, 800,
                                  np.random.default_rng([9, 1]), E1_3, 0.0)
    assert dom_rep.passed and dom_rep.data["asserted"], dom_rep.data
    assert render([dom_rep], "json") == render([ball_rep], "json")


class _ScaledClosedForm(ClosedFormMap):
    """A ClosedFormMap whose values are scaled; its stem, and so its
    spot-check, stays that of the unscaled map."""

    def __init__(self, scale, *args):
        super().__init__(*args)
        self.scale = scale

    def eval_arrays(self, alpha, beta, j_rows):
        return self.scale * super().eval_arrays(alpha, beta, j_rows)


@pytest.mark.parametrize("p, family", [(2, "starlike"), (1, "convex")])
def test_growth_checker_fails_scaled_maps_on_every_gauge(p, family):
    # Koebe and Cayley values scaled by 1 +- 1% fail at default budgets, by
    # far more than the slack, on the ball and polydisc gauges and through
    # growth_check_ball; the unscaled maps pass
    m, n = 3, 2
    checks = {
        "ball": lambda f, rng, theta: growth_check_domain(
            f, ball_gauge(n, m), family, 0.9, 10_000, rng, E1_3, theta),
        "polydisc": lambda f, rng, theta: growth_check_domain(
            f, polydisc_gauge(n, m), family, 0.9, 10_000, rng, E1_3, theta),
        "growth_check_ball": lambda f, rng, theta: growth_check_ball(
            f, family, 0.9, 10_000, rng, E1_3, theta),
    }
    for theta in (0.0, 0.7):
        for name, check in checks.items():
            for scale in (1.0, 1.01, 0.99):
                f = _ScaledClosedForm(scale, p, theta, E1_3, 300, n)
                rep = check(f, np.random.default_rng(31), theta)
                where = (name, theta, scale, rep.data)
                assert rep.data["hypothesis_status"] == "ok", where
                assert rep.data["asserted"], where
                if scale == 1.0:
                    assert rep.passed, where
                else:
                    assert not rep.passed, where
                    assert rep.data["max_error"] > 1e4 * rep.data["threshold"], where


def test_growth_check_domain_hypothesis_status():
    e1 = CliffordElement.generator(2, 1)
    paper = SliceMap(extremal_series(-1, 0.0, e1, 20, 2))
    rep = growth_check_domain(paper, ball_gauge(2, 2), "convex", 0.9, 300,
                              np.random.default_rng(16), e1, 0.0)
    assert rep.data["hypothesis_status"].startswith("violated")
    off = SliceMap(extremal_series(2, 0.7, CliffordElement.generator(2, 2), 40, 2))
    rep = growth_check_domain(off, polydisc_gauge(2, 2), "starlike", 0.9, 300,
                              np.random.default_rng(16), e1, 0.7)
    assert rep.data["hypothesis_status"] == "off-slice"


def test_growth_domain_runs_below_the_spot_check_radius():
    # the starlike spot-check draws radii from [min(0.05, r_max / 2), r_max]
    reports = run_suite("growth-domain", RunConfig(r_max=0.01, samples=50))
    assert reports and all(rep.passed for rep in reports)


def test_growth_check_domain_fails_values_off_the_slice():
    # a stem on the slice of e1 whose closed-form values take e2 in place
    # of e1: the spot-check reads ok, and the record fails on the values'
    # off-slice residual, which is judged against tol, not the tail slack
    e1, e2 = CliffordElement.generator(2, 1), CliffordElement.generator(2, 2)
    off = ClosedFormMap(2, 0.7, e1, 300, 2)
    off.I = e2
    rep = growth_check_domain(off, polydisc_gauge(2, 2), "starlike", 0.9, 300,
                              np.random.default_rng(16), e1, 0.7)
    assert rep.data["hypothesis_status"] == "ok" and rep.data["asserted"], rep.data
    assert not rep.passed, rep.data
    assert rep.data["off_slice_residual"] > 1.0
    assert rep.data["max_error"] == \
        rep.data["off_slice_residual"] * rep.data["threshold"] / 1e-9
    on = ClosedFormMap(2, 0.7, e1, 300, 2)
    rep = growth_check_domain(on, polydisc_gauge(2, 2), "starlike", 0.9, 300,
                              np.random.default_rng(16), e1, 0.7)
    assert rep.passed and rep.data["asserted"], rep.data
    assert rep.data["off_slice_residual"] <= 1e-15

    # coefficients on the slice of e2 judged on the slice of e1: the
    # spot-check reads off-slice, so the record is not asserted and says so
    stem_off = SliceMap(extremal_series(2, 0.7, e2, 40, 2))
    rep = growth_check_domain(stem_off, polydisc_gauge(2, 2), "starlike", 0.9, 300,
                              np.random.default_rng(16), e1, 0.7)
    assert rep.data["hypothesis_status"] == "off-slice"
    assert rep.data["asserted"] is False and rep.passed, rep.data
    rep.check = "growth-domain-polydisc-off"
    assert summary_lines([rep])[-1] == \
        "[NOT ASSERTED] growth-domain-polydisc-off  hypothesis_status=off-slice"


def test_growth_check_domain_polydisc():
    f = SliceMap(extremal_series(2, 0.0, E1_3, 300, 2))
    rng = np.random.default_rng(10)
    rep = growth_check_domain(f, polydisc_gauge(2, 3), "starlike", 0.9, 800,
                              rng, E1_3, 0.0)
    assert rep.passed, rep.data
    # literal rho-form with the plain norm overshoots at the diagonal for
    # n = 2 while the norm-form and value-gauge form hold with tail slack
    assert not rep.data["rho_form_asserted"]
    assert rep.data["diagonal_sharpness_gap"] < rep.data["threshold"]
    assert rep.data["norm_form_violation_upper"] <= rep.data["threshold"]
    assert rep.data["gauge_form_violation_upper"] <= rep.data["threshold"]


def test_growth_check_domain_polydisc_literal_rho_form_overshoots():
    # documents the sqrt(n) overshoot of the literal rho-form at the
    # real diagonal: ||f(diag(r))|| = sqrt(2) r/(1-r)^2 > r/(1-r)^2
    f = SliceMap(extremal_series(2, 0.0, E1_3, 300, 2))
    diag = make_point([0.9, 0.9], [0.0, 0.0], E1_3)
    val = np.sqrt(sum(np.dot(v.coeffs, v.coeffs) for v in f.eval(diag)))
    rho = gauge_rho(polydisc_gauge(2, 3), diag.alpha, diag.beta)
    assert val > rho / (1 - rho) ** 2 * 1.4
