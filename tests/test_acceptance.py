"""Acceptance battery: every exit criterion at its stated budget and
tolerance, one printed pass/fail line per criterion."""

import time

import numpy as np
from click.testing import CliRunner

from slicegrowth.algebra import generator
from slicegrowth.cli import main
from slicegrowth.geometry import (
    Gauge,
    growth_check_ball,
    growth_check_domain,
)
from slicegrowth.reports import render
from slicegrowth.slicemaps import extremal_map
from slicegrowth.suites import RunConfig, run_suite

SEED = 20240811


def _announce(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}  {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_1_algebra_suite():
    cfg = RunConfig(m=5, seed=SEED, samples=10_000)
    t0 = time.perf_counter()
    reports = run_suite("algebra", cfg)
    elapsed = time.perf_counter() - t0
    worst = max(rep.data["max_error"] for rep in reports)
    ok = all(rep.passed for rep in reports) and elapsed < 30.0
    _announce(1, "algebra", ok,
              f"m=1..5 x 10^4 cases, max residual {worst:.2e} "
              f"(threshold 1e-10), {elapsed:.1f}s (< 30s)")


def test_criterion_2_stem_suite():
    cfg = RunConfig(seed=SEED, samples=1_000, truncation=300)
    reports = {rep.check: rep for rep in run_suite("stem", cfg)}
    eo = reports["stem-even-odd"]
    cr = reports["stem-cr-residual"]
    star = reports["stem-star-inverse"]
    ok = (eo.passed and eo.data["threshold"] == 1e-12
          and cr.passed and cr.data["threshold"] == 1e-8
          and star.passed and star.data["threshold"] == 1e-10
          and star.data["order"] == 300)
    _announce(2, "stem", ok,
              f"even-odd {eo.data['max_error']:.2e} (1e-12), "
              f"CR {cr.data['max_error']:.2e} (1e-8), "
              f"star-inverse@300 {star.data['max_error']:.2e} (1e-10)")


def test_criterion_3_representation_suite():
    cfg = RunConfig(m=3, n=2, seed=SEED, samples=1_000)
    t0 = time.perf_counter()
    reports = {rep.check: rep for rep in run_suite("representation", cfg)}
    elapsed = time.perf_counter() - t0
    rec = reports["representation-reconstruction"]
    ok = (all(rep.passed for rep in reports.values())
          and rec.data["threshold"] == 1e-10
          and rec.data["cond_threshold"] == 1e-3
          and rec.samples == 1_000
          and elapsed < 60.0)
    _announce(3, "representation", ok,
              f"reconstruction {rec.data['max_error']:.2e} (1e-10) over "
              f"10^3 cases m=3 n=2, {elapsed:.1f}s (< 60s)")


def test_criterion_4_extremal_suite():
    cfg = RunConfig(seed=SEED, samples=1_000)
    reports = run_suite("extremal", cfg)
    # identity and koebe across m in {2,3}, n in {1,2}
    names = {rep.check for rep in reports}
    expected = {
        f"extremal-{name}-m{m}-n{n}"
        for name in ("identity", "koebe") for m in (2, 3) for n in (1, 2)
    }
    worst = max(rep.data["max_error"] for rep in reports)
    worst_lin = max(rep.data["linearity_residual"] for rep in reports)
    ok = expected <= names and all(rep.passed for rep in reports)
    _announce(4, "extremal", ok,
              f"endpoints+profile over 10^3 J: max error {worst:.2e}, "
              f"11-point linearity {worst_lin:.2e} (threshold 1e-9)")


def _growth_reports(map_name):
    cfg = RunConfig(seed=SEED, samples=10_000, truncation=300, r_max=0.9,
                    map=map_name)
    return run_suite("growth-ball", cfg)


def _sharpness(checks):
    """The theta = 0 growth records, which read the extremal ray, and the
    largest sharpness_gap among them."""
    sharp = [rep for rep in checks if rep.data["theta"] == 0.0]
    return sharp, max(rep.data["sharpness_gap"] for rep in sharp)


def test_criterion_5_growth_ball_starlike():
    reports = _growth_reports("koebe")
    checks = [rep for rep in reports if rep.check.startswith("growth-ball")]
    # theta sweep {0, 0.7, pi/2} across directions e1 and e12
    assert len(checks) == 6, [rep.check for rep in checks]
    worst = max(rep.data["max_error"] for rep in checks)
    slack = max(rep.data["threshold"] for rep in checks)
    sharp, sharp_gap = _sharpness(checks)
    ok = (all(rep.passed and rep.data["asserted"] for rep in checks)
          and len(sharp) == 2 and sharp_gap <= slack)
    _announce(5, "growth-ball starlike", ok,
              f"max violation {worst:.2e} <= tol ({slack:.2e}) over "
              f"10^4 samples x 6 configs; axis sharpness {sharp_gap:.2e} ({slack:.0e})")


def test_criterion_6_growth_ball_convex():
    reports = _growth_reports("cayley")
    checks = [rep for rep in reports if rep.check.startswith("growth-ball")]
    assert len(checks) == 6
    worst = max(rep.data["max_error"] for rep in checks)
    slack = max(rep.data["threshold"] for rep in checks)
    sharp, sharp_gap = _sharpness(checks)
    ok = (all(rep.passed and rep.data["asserted"] for rep in checks)
          and len(sharp) == 2 and sharp_gap <= slack)
    _announce(6, "growth-ball convex", ok,
              f"max violation {worst:.2e} <= 1e-9 band over 10^4 samples; "
              f"axis sharpness {sharp_gap:.2e} ({slack:.0e})")


def test_criterion_7_gauge_suite():
    cfg = RunConfig(seed=SEED, samples=1_000)
    reports = {rep.check: rep for rep in run_suite("gauge", cfg)}
    closed = [reports["gauge-ball"], reports["gauge-polydisc"]]
    bisect = [reports["gauge-bisection-ball"], reports["gauge-bisection-polydisc"]]
    worst_closed = max(rep.data["max_error"] for rep in closed)
    worst_bisect = max(rep.data["max_error"] for rep in bisect)
    ok = (all(rep.passed for rep in closed)
          and all(rep.data["threshold"] == 1e-12 for rep in closed)
          and all(rep.passed for rep in bisect)
          and all(rep.samples == 1_000 for rep in bisect)
          and all(rep.data["threshold"] == 1e-8 for rep in bisect))
    _announce(7, "gauge", ok,
              f"closed-form properties {worst_closed:.2e} (1e-12); "
              f"bisection vs closed form {worst_bisect:.2e} (1e-8) on 10^3 points")


def test_criterion_8_growth_domain():
    m, n = 3, 2
    e1 = generator(m, 1)
    details = []
    ok = True
    for label, family, f in (
        ("koebe", "starlike", extremal_map(2, 0.0, e1, n)),
        ("cayley", "convex", extremal_map(1, 0.0, e1, n)),
    ):
        slack = 1e-9

        # the ball gauge gives the unit-ball record bit for bit on one stream
        ball_rep = growth_check_ball(
            f, family, 0.9, 10_000, np.random.default_rng([SEED, 81]), 0.0)
        dom_rep = growth_check_domain(
            f, Gauge("ball", n, m), family, 0.9, 10_000,
            np.random.default_rng([SEED, 81]), 0.0)
        same = render([dom_rep], "json") == render([ball_rep], "json")
        ok = (ok and dom_rep.passed and dom_rep.data["asserted"] and same
              and dom_rep.data["sharpness_gap"] <= slack)

        # polydisc gauge: both displayed forms evaluated and reported;
        # the rho-form closed-form requirement at the real diagonal is the
        # value-gauge reading (the plain-norm reading overshoots by sqrt(n))
        poly_rep = growth_check_domain(
            f, Gauge("polydisc", n, m), family, 0.9, 10_000,
            np.random.default_rng([SEED, 82]), 0.0)
        diag_ok = poly_rep.data["sharpness_gap"] <= slack
        forms_reported = all(
            key in poly_rep.data for key in (
                "rho_form_violation_lower", "rho_form_violation_upper",
                "norm_form_violation_lower", "norm_form_violation_upper"))
        ok = ok and poly_rep.passed and diag_ok and forms_reported
        details.append(
            f"{label}: ball-coincidence bit-identical {same}, first-axis sharpness "
            f"{dom_rep.data['sharpness_gap']:.1e}; polydisc diag rho-form "
            f"{poly_rep.data['sharpness_gap']:.1e} (<= {slack:.1e}), "
            f"literal rho-form upper {poly_rep.data['rho_form_violation_upper']:.2f} "
            f"reported")
    _announce(8, "growth-domain", ok, "; ".join(details))


def test_criterion_9_full_run_deterministic(tmp_path):
    runner = CliRunner()
    blobs = []
    times = []
    for tag in ("one", "two"):
        out = tmp_path / f"all-{tag}.json"
        t0 = time.perf_counter()
        result = runner.invoke(main, [
            "verify", "all", "--seed", str(SEED), "--out", str(out), "--quiet",
        ])
        times.append(time.perf_counter() - t0)
        assert result.exit_code == 0, result.output
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] and max(times) < 300.0
    _announce(9, "verify all", ok,
              f"runs {times[0]:.1f}s / {times[1]:.1f}s (< 300s), "
              f"reports byte-identical: {blobs[0] == blobs[1]}")
