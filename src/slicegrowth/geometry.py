"""Extremal-norm profiles, starlike/convex criteria, growth-bound checks
on the unit ball and on gauged slice domains, and Minkowski gauge
machinery for slice starlike, slice circular domains.

For a slice map whose restriction to the slice of I stays in that slice,
the squared norm along an orbit alpha + J beta is an affine function of
u = <J, I> (coefficient inner product):

    ||f(alpha + J beta)||^2 = c0 - c1 * u =: g(u),

so the extrema over all J are attained at J = +-I, and g is the chord
through the endpoint norms: c0 - c1 = ||f(I)||^2, c0 + c1 = ||f(-I)||^2.
verify_extremal reads it from one SliceMap.eval_arrays call, one stem
row broadcast over the J rows [I, -I, the sampled J, a u-sweep].  The
starlike and convex criteria (starlike_criterion_slice,
convex_criterion_slice) read a ShadowMap alone: its slice row f.I and its
shadow f.g with the derivatives f.dg and f.d2g, on a batch of rows.
One growth checker, growth_check_domain, samples a gauged domain (the
unit ball is the ball gauge), reads every value through the map's
eval_arrays (the gauge-form through value_gauge_on_slice on the slice
f.I), and compares against the closed-form envelopes with tol as
slack.  One batched starlike/convex spot-check on the map's shadow
decides whether a record is asserted, and judge_growth, the one verdict
rule of every growth record, lets one that is not asserted pass.  At
theta = 0 the same record reads its domain's extremal ray (extremal_ray:
the real points +-r of the ball's first axis or of the polydisc's
diagonal), where the envelopes are sharp, and reports the largest gap to
them as sharpness_gap; envelope_table reads the ball's ray the same way.
closed_form_agreement alone reads a map's truncated reference series.

gauge_rho evaluates a domain's gauge at B rows (alpha, beta of shape
(B, n)): the ball and polydisc in closed form, and an oracle gauge by
bisection along all rays at once, through one batched membership call
per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import generator, mul_batch, row_m
from .errors import CriterionError, GaugeError, HypothesisViolationError
from .reports import Report
from .series import StemSeries, power_sum, side_by_side
from .slicemaps import ShadowMap, SliceMap, complex_on_slice
from .slicespace import anticommuting_unit, sample_S_batch

# resolution credited to oracle bisection (60 halvings); membership is not
# compared within 100 times this of the boundary
_BISECT_TOL = 1e-8


# ---------------------------------------------------------------------------
# extremal norms along an orbit, an affine function of u = <J, I>
# ---------------------------------------------------------------------------

# the u values of the equispaced sweep that the linearity residual fits
_SWEEP_U = np.linspace(-1.0, 1.0, 11)


def _batch_norms(f: SliceMap, alpha, beta, j_rows) -> np.ndarray:
    """Norms of f at the rows of f.eval_arrays(alpha, beta, j_rows)."""
    vals = f.eval_arrays(alpha, beta, j_rows)
    return np.sqrt(np.sum(vals * vals, axis=(1, 2)))


def _sweep_rows(I: np.ndarray, perp: np.ndarray, us: np.ndarray) -> np.ndarray:
    """The roots of -1 u*I + sqrt(1-u^2)*perp, one row per u of us."""
    return us[:, None] * I[None, :] + \
        np.sqrt(np.maximum(0.0, 1.0 - us ** 2))[:, None] * perp[None, :]


def sample_roots_spanning(I: np.ndarray, rng, count: int) -> np.ndarray:
    """J rows mixing vector-strategy draws with the u-sweep family
    u*I + sqrt(1-u^2)*I_perp, so <J, I> covers [-1, 1] even for
    non-grade-1 directions I."""
    half = count // 2
    rows = sample_S_batch(rng, row_m(I), count - half)
    if half:
        perp = anticommuting_unit(I, rng)
        rows = np.vstack([rows, _sweep_rows(I, perp, rng.uniform(-1.0, 1.0, size=half))])
    return rows


def verify_extremal(f: SliceMap, alpha: np.ndarray, beta: np.ndarray, I: np.ndarray,
                    samples: int, rng, tol: float = 1e-9) -> Report:
    """Sampled check, on the orbit alpha + J beta over all J (one row,
    alpha and beta of shape (1, n)), that the norm extrema over J sit at
    J = +-I, that the squared norms match the affine profile
    g(u) = c0 - c1 u and that an equispaced u-sweep toward a perpendicular
    drawn from rng lies on a line (linearity_residual, a least-squares fit).

    One f.eval_arrays call takes the J rows [I, -I, the sampled J, the
    sweep].  The profile is the chord through the endpoint norms,
    g(1) = ||f(I)||^2 and g(-1) = ||f(-I)||^2, which requires f(+-I) to
    lie in the slice of I; raises HypothesisViolationError otherwise.
    A NaN anywhere reaches max_error and fails the record.
    """
    j_rows = sample_roots_spanning(I, rng, samples)
    sweep = _sweep_rows(I, anticommuting_unit(I, rng), _SWEEP_U)
    vals = f.eval_arrays(alpha, beta, np.vstack([I, -I, j_rows, sweep]))
    sq = np.sum(vals * vals, axis=(1, 2))
    norms = np.sqrt(sq)
    _, off_slice = complex_on_slice(vals[:2], I)
    if off_slice > tol * max(1.0, *norms[:2]):
        raise HypothesisViolationError(
            f"values at +-I leave the slice of I (residual {off_slice:.3e})")
    c0, c1 = 0.5 * (sq[0] + sq[1]), 0.5 * (sq[1] - sq[0])
    hi, lo = float(np.max(norms[:2])), float(np.min(norms[:2]))
    sampled, sweep_sq = norms[2:2 + samples], sq[2 + samples:]
    profile_residual = float(np.max(np.abs(sq[2:2 + samples] - (c0 - c1 * (j_rows @ I)))))
    # np.max, unlike the builtin max, keeps a NaN
    violation = float(np.max([0.0, np.max(sampled) - hi, lo - np.min(sampled)]))
    design = np.stack([np.ones_like(_SWEEP_U), _SWEEP_U], axis=1)
    coef, *_ = np.linalg.lstsq(design, sweep_sq, rcond=None)
    linearity = float(np.max(np.abs(sweep_sq - design @ coef)))

    rep = Report.from_error(
        "extremal", np.max([violation, profile_residual, linearity]), tol, samples,
        m=f.m, n=f.n,
        endpoint_max=hi, endpoint_min=lo,
        sampled_max=float(np.max(sampled)), sampled_min=float(np.min(sampled)),
        endpoint_violation=violation, profile_residual=profile_residual,
        c0=float(c0), c1=float(c1),
    )
    rep.data["linearity_residual"] = linearity
    return rep


# ---------------------------------------------------------------------------
# starlike / convex criteria on a slice
# ---------------------------------------------------------------------------

def _shadow(f):
    """(f.g, f.dg, f.d2g); a map without derivatives, such as the SliceMap
    of a stem series or a ShadowMap given by g alone, raises
    HypothesisViolationError, which the spot-check reads as off-slice."""
    if getattr(f, "dg", None) is None or getattr(f, "d2g", None) is None:
        raise HypothesisViolationError(f"a {type(f).__name__} has no derivatives")
    return f.g, f.dg, f.d2g


def starlike_criterion_slice(f: ShadowMap, z: np.ndarray) -> np.ndarray:
    """Re <Df_I(z)^{-1} f_I(z), z> through the complex identification of
    the slice f.I; positive everywhere iff the restriction is starlike.

    z holds B complex rows (B, n); returns B values, each with the bits it
    has alone.  Raises HypothesisViolationError where the map has no
    derivatives, CriterionError on a singular Jacobian at any point.
    """
    g, dg, _ = _shadow(f)
    z = np.asarray(z, dtype=np.complex128)
    try:
        w = np.linalg.solve(dg(z), g(z)[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise CriterionError("singular slice Jacobian") from exc
    if not np.all(np.isfinite(w)):
        raise CriterionError("singular slice Jacobian")
    return np.real(np.sum(np.conj(z) * w, axis=1))


def convex_criterion_slice(f: ShadowMap, t: int, x: np.ndarray,
                           tol: float = 1e-9) -> np.ndarray:
    """Re(1 + x f_t''(x)/f_t'(x)) for component t of the shadow f_I at the
    real points x, of shape (B,), on the z_t axis (the other variables at
    0): the classical convexity criterion of that one-variable
    restriction.  A value is NaN where |f_t'| <= tol.  Raises
    HypothesisViolationError where the map has no derivatives.
    """
    _, dg, d2g = _shadow(f)
    x = np.asarray(x, dtype=np.float64)
    z = np.zeros((len(x), f.n), dtype=np.complex128)
    z[:, t] = x
    v1 = dg(z)[:, t, t]
    v2 = d2g(z)[:, t, t, t]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(v1) <= tol, np.nan, (1.0 + x * v2 / v1).real)


# ---------------------------------------------------------------------------
# growth checks on the unit ball
# ---------------------------------------------------------------------------

_FAMILY_POWER = {"starlike": 2, "convex": 1}


def growth_bounds(r, family: str, size=None):
    """The envelopes (size/(1+r)^p, size/(1-r)^p) of the family at gauge
    value r; size is r (the rho-form) unless given, ||x|| in the norm-form."""
    p = _FAMILY_POWER[family]
    r = np.asarray(r, dtype=np.float64)
    size = r if size is None else size
    return size / (1.0 + r) ** p, size / (1.0 - r) ** p


def _sample_ball(rng, samples: int, n: int, m: int, r_max: float):
    """Shared point sampler: unit directions in R^{2n}, uniform radii,
    vector-strategy slices.  Returns (alpha, beta, j_rows, radii)."""
    dirs = rng.normal(size=(samples, 2 * n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = r_max * rng.uniform(0.0, 1.0, size=samples)
    j_rows = sample_S_batch(rng, m, samples)
    alpha = dirs[:, :n] * radii[:, None]
    beta = dirs[:, n:] * radii[:, None]
    return alpha, beta, j_rows, radii


def _hypothesis_status(f: ShadowMap, family: str, r_max: float, rng,
                       checks: int = 64) -> str:
    """Spot-check of the starlike/convex hypothesis on the slice f.I at
    checks points, drawn whole and judged in one batched criterion call
    (starlike) or one per component (convex)."""
    try:
        if family == "starlike":
            # uniform directions in C^n, radii in [min(0.05, r_max / 2), r_max)
            z = rng.normal(size=(checks, f.n)) + 1j * rng.normal(size=(checks, f.n))
            radii = rng.uniform(min(0.05, r_max / 2), r_max, checks)
            values = [starlike_criterion_slice(
                f, z * (radii / np.linalg.norm(z, axis=1))[:, None])]
        else:
            # convex family: per-component one-variable criterion at real x
            xs = rng.uniform(-r_max, r_max, checks)
            ts = rng.integers(f.n, size=checks)
            values = [convex_criterion_slice(f, t, xs[ts == t])
                      for t in range(f.n)]
    except HypothesisViolationError:
        return "off-slice"
    # NaN marks a vanishing derivative, which fails the point too
    bad = sum(int(np.count_nonzero(~(v > 0))) for v in values)
    return "ok" if bad == 0 else f"violated({bad}/{checks})"


def merge_hypothesis_status(statuses: list[str]) -> str:
    """One status from spot-checks of equal size: off-slice if any is,
    else the failures over all their points, e.g. violated(2/192)."""
    if "off-slice" in statuses:
        return "off-slice"
    counts = [s[len("violated("):-1].split("/") for s in statuses if s != "ok"]
    if not counts:
        return "ok"
    bad = sum(int(k) for k, _ in counts)
    return f"violated({bad}/{int(counts[0][1]) * len(statuses)})"


def growth_check_ball(f: ShadowMap, family: str, r_max: float, samples: int,
                      rng, theta: float = 0.0, tol: float = 1e-9,
                      assert_bounds: bool = True) -> Report:
    """growth_check_domain on the unit ball, Gauge("ball", f.n, f.m).

    No suite calls it: the name stays only as a layer boundary that the
    benchmark's traced run (perfbench/traced.py) wraps, until that run
    reads a trace of its own (ROADMAP items 6 and 10)."""
    return growth_check_domain(f, Gauge("ball", f.n, f.m), family, r_max, samples,
                               rng, theta, tol, assert_bounds)


def judge_growth(rep: Report) -> Report:
    """The verdict rule of every growth record: one whose asserted field
    is false passes whatever its errors are; any other record keeps its
    verdict."""
    if not rep.data.get("asserted", True):
        rep.passed = True
    return rep


def closed_form_agreement(maps: list[ShadowMap], stems: list[StemSeries], thetas, N: int,
                          coeff_gap: float, tail: float, r_max: float, samples: int, rng,
                          tol: float = 1e-9) -> Report:
    """Check closed-form maps against their truncation-N reference series,
    the map of each theta of thetas against its stem, at one set of
    `samples` ball points shared by every map: |series - closed form|
    must stay within tail, the stems' truncation tail bound at r_max,
    plus tol at every point and map, and coeff_gap, the largest
    series.coefficient_gap of the stems, must stay within tol.  Both are
    sample-free (a sharded caller takes them once from
    suites.GrowthMap.reference).

    One power_sum call evaluates every stem, their coefficient tables
    side by side (series.side_by_side, which raises unless the stems
    share their exponent rows), so the points' monomials are built once.
    A NaN anywhere fails the record.
    """
    m, n = maps[0].m, maps[0].n
    kmat, coeffs = side_by_side(stems)
    alpha, beta, j_rows, _ = _sample_ball(rng, samples, n, m, r_max)
    vals = power_sum(kmat, coeffs, alpha + 1j * beta).reshape(samples, len(stems), n, 1 << m)
    reference = vals.real + mul_batch(m, j_rows[:, None, None, :], vals.imag)
    diff = np.stack([f.eval_arrays(alpha, beta, j_rows) for f in maps], axis=1) - reference
    # np.max, unlike the builtin max, keeps a NaN
    value_gap = float(np.max(np.sqrt(np.sum(diff * diff, axis=(2, 3)))))
    return Report.from_error(
        "closed-form", np.max([value_gap - tail, coeff_gap]), tol,
        samples * len(maps),
        m=m, n=n, N=N, r_max=r_max,
        thetas=" ".join(f"{theta:g}" for theta in thetas),
        value_gap=value_gap, tail_bound=tail, coefficient_gap=coeff_gap,
    )


def envelope_table(f: SliceMap, family: str, r_grid) -> list[dict]:
    """Rows (r, lower bound, rho(f(-r)), rho(f(r)), upper bound) along the
    ball's extremal ray, the first axis, read as the growth records read
    it at theta = 0 (extremal_ray)."""
    radii = [float(r) for r in r_grid]
    rho, _ = extremal_ray(f, Gauge("ball", f.n, f.m), radii)
    lower, upper = growth_bounds(radii, family)
    return [{"r": r, "lower_bound": float(lo), "f_at_minus_r": float(minus),
             "f_at_plus_r": float(plus), "upper_bound": float(hi)}
            for r, lo, minus, plus, hi in zip(radii, lower, rho[len(radii):], rho, upper)]


# ---------------------------------------------------------------------------
# gauges of slice starlike, slice circular domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gauge:
    """Defining function of a bounded slice starlike, slice circular
    domain: rho >= 0, rho(tx) = |t| rho(x) for slice-complex scalars, and
    the domain is {rho < 1}.  kind "oracle" carries a batched membership
    test member_fn(alpha, beta, j_rows) -> bool array of shape (B,) and
    evaluates rho by bisection along all rays at once."""

    kind: str
    n: int
    m: int
    member_fn: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray],
                                 np.ndarray]] = None


def oracle_gauge(member, n: int, m: int) -> Gauge:
    return Gauge("oracle", n, m, member_fn=member)


def _bisect_rho(member, alpha: np.ndarray, beta: np.ndarray,
                j_rows: np.ndarray) -> np.ndarray:
    """Oracle gauge of every row: bracket the boundary crossing along each
    ray (doubling search up), then bisect all rays together."""
    rho = np.zeros(alpha.shape[0])

    def inside(rows, radius):
        if rows.size == 0:
            return np.zeros(0, dtype=bool)
        c = (1.0 / radius)[:, None]
        return np.asarray(member(alpha[rows] * c, beta[rows] * c,
                                 j_rows[rows]), dtype=bool)

    rows = np.flatnonzero(np.any(alpha, axis=1) | np.any(beta, axis=1))
    # rho below resolution for any bounded starlike domain
    rows = rows[~inside(rows, np.full(rows.size, 1e-12))]
    hi = np.ones(rows.size)
    out = ~inside(rows, hi)
    doublings = 0
    while np.any(out):
        hi[out] *= 2.0
        doublings += 1
        if doublings > 64:
            raise GaugeError("membership never became true along the ray")
        out[out] = ~inside(rows[out], hi[out])
    lo = np.full(rows.size, 1e-12)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        hit = inside(rows, mid)
        hi = np.where(hit, mid, hi)
        lo = np.where(hit, lo, mid)
    rho[rows] = 0.5 * (lo + hi)
    # starlike consistency probes away from the boundary band
    if not np.all(inside(rows, 1.05 * rho[rows])):
        raise GaugeError("membership non-monotone along the ray (outer probe)")
    if np.any(inside(rows, 0.95 * rho[rows])):
        raise GaugeError("membership non-monotone along the ray (inner probe)")
    return rho


def gauge_rho(g: Gauge, alpha, beta, j_rows=None):
    """Evaluate the gauge at the points alpha + J beta.

    alpha and beta have shape (B, n); returns B values, each with the
    bits it has alone.  Closed forms: the ball gauge is the point norm
    and the polydisc gauge is max_t |x_t|; both ignore J.  The oracle
    kind passes the slice units j_rows, of shape (dim,) or (B, dim) and
    e_1 by default, to its membership test, brackets the boundary
    crossing along every ray and bisects for 60 iterations; inconsistent
    membership along any ray raises GaugeError.
    """
    a, b = (np.asarray(x, dtype=np.float64) for x in (alpha, beta))
    if g.kind == "ball":
        # row dot products, with the bits of slicespace.point_norm
        rho = np.sqrt(np.vecdot(a, a, axis=1) + np.vecdot(b, b, axis=1))
    elif g.kind == "polydisc":
        rho = np.max(np.sqrt(a ** 2 + b ** 2), axis=1)
    elif g.kind == "oracle":
        if j_rows is None:
            j_rows = generator(g.m, 1)
        rho = _bisect_rho(g.member_fn, a, b,
                          np.broadcast_to(j_rows, (len(a), 1 << g.m)))
    else:
        raise ValueError(f"unknown gauge kind {g.kind!r}")
    return rho


def value_gauge_on_slice(g: Gauge, rows: np.ndarray, I: np.ndarray):
    """Gauge of Clifford vectors whose components lie in the slice of the
    row I.

    rows has shape (B, n, dim); returns (rho of shape (B,), the largest
    off-slice residual).  This is the quantity the sharp classical domain
    bounds control; it needs each value to live on one slice, which holds
    for values of f restricted to the slice of I.
    """
    cvals, resid = complex_on_slice(rows, I)
    return gauge_rho(g, cvals.real, cvals.imag), resid


def gauge_properties_check(g: Gauge, samples: int, rng,
                           tol: float = 1e-12) -> Report:
    """Positivity, slice-complex homogeneity, membership equivalence and
    axial symmetry of a gauge, sampled.

    Each sample draws a slice J, a point alpha + J beta in the cube
    [-1, 1]^2n, a scale s in [0.1, 2], an angle phi in [0, 2 pi), a target
    gauge value in [0.2, 1.8] and j_budget slices of its orbit: one
    generator call for the J rows, one for the points and one for the
    scalars.  Then one gauge call per quantity evaluates every sample."""
    n, m = g.n, g.m
    j_budget = 32
    j_rows = sample_S_batch(rng, m, samples * (1 + j_budget))
    j_elem, j_axial = j_rows[:samples], j_rows[samples:]
    alpha, beta = rng.uniform(-1.0, 1.0, (2, samples, n))
    s, phi, scale_target = rng.uniform((0.1, 0.0, 0.2), (2.0, 2.0 * np.pi, 1.8),
                                       (samples, 3)).T
    rho = gauge_rho(g, alpha, beta, j_elem)
    origin = np.zeros((1, n))
    positive_ok = not np.any(gauge_rho(g, origin, origin)) and not np.any(rho <= 0.0)

    # homogeneity under t = s e^{J phi} acting on the slice of J
    ca = np.array([math.cos(x) for x in phi])[:, None]
    sa = np.array([math.sin(x) for x in phi])[:, None]
    rho2 = gauge_rho(g, s[:, None] * (alpha * ca - beta * sa),
                     s[:, None] * (alpha * sa + beta * ca), j_elem)
    worst_hom = float(np.max(np.abs(rho2 - s * rho)))

    # membership equivalence away from the boundary band: the point
    # scaled to gauge value t is in the domain iff t < 1
    c = (scale_target / rho)[:, None]
    inside = gauge_rho(g, alpha * c, beta * c) < 1.0 if g.member_fn is None \
        else g.member_fn(alpha * c, beta * c, j_elem)
    away = np.abs(scale_target - 1.0) > 100 * max(tol, _BISECT_TOL)
    member_mismatch = int(np.count_nonzero((inside != (scale_target < 1.0))[away]))

    # axial symmetry over the orbit
    rhos = gauge_rho(g, np.repeat(alpha, j_budget, axis=0),
                     np.repeat(beta, j_budget, axis=0),
                     j_axial)
    worst_axial = float(np.max(np.ptp(rhos.reshape(samples, j_budget), axis=1)))

    # np.max, unlike the builtin max, keeps a NaN
    max_error = float(np.max([worst_hom, worst_axial, 0.0 if positive_ok else 1.0,
                              float(member_mismatch)]))
    return Report.from_error(
        f"gauge-{g.kind}", max_error, tol, samples,
        kind=g.kind, m=m, n=n,
        homogeneity_error=worst_hom, axial_error=worst_axial,
        membership_mismatches=member_mismatch,
        positive_definite=positive_ok,
    )


# ---------------------------------------------------------------------------
# growth checks on gauged domains
# ---------------------------------------------------------------------------

def growth_check_domain(f: ShadowMap, g: Gauge, family: str, r_max: float,
                        samples: int, rng, theta: float = 0.0, tol: float = 1e-9,
                        asserted: bool = True) -> Report:
    """The one growth checker: every growth record is sampled over random
    slices (_sample_gauged), spot-checked and judged here.  The gauge picks
    the readings of the bounds on the domain {rho < 1}:

    - rho-form:   rho(x)/(1+rho)^p <= ||f(x)||    <= rho(x)/(1-rho)^p
    - norm-form:  ||x||/(1+rho)^p  <= ||f(x)||    <= ||x||/(1-rho)^p
    - gauge-form: rho(x)/(1+rho)^p <= rho(f_I(z)) <= rho(x)/(1-rho)^p
                  on the slice I = f.I, where the value gauge is defined.

    On the ball every form is the rho-form: the record carries it alone,
    as max_violation_lower/upper.  On other gauges the rho-form middle
    ||f(x)|| exceeds its upper envelope by up to sqrt(n) at the real
    diagonal of the polydisc (where the other two forms are exactly
    sharp), so the norm-form and gauge-form are asserted and the rho-form
    is reported.  The gauge-form takes a second sample set on the slice
    of I, drawn before the spot-check, and projects the values onto that
    slice; their largest off-slice residual enters max_error, so a map
    whose values leave the slice fails.

    At theta = 0 a record on the ball or the polydisc also reads the
    domain's extremal ray (extremal_ray), where the envelopes are sharp:
    sharpness_gap, the largest gap between rho(f_I(x)) and growth_bounds
    at r over its real points x = +r (the upper envelope) and x = -r (the
    lower), or the ray values' largest off-slice residual if that is
    larger, enters max_error.  So a map whose values stray from the
    envelopes by more than tol along that ray fails, which random points
    alone do not see.

    The record reads the map alone: f.eval_arrays, its row f.I and its
    shadow.  Every bound gets tol as slack, and a NaN in any reading fails
    the record (np.max keeps it).  The record's asserted field holds when
    `asserted` does and the spot-check reads ok, and judge_growth lets a
    record whose field is false pass.
    """
    alpha, beta, j_rows, rho = _sample_gauged(g, rng, samples, f.n, f.m, r_max)
    norms = _batch_norms(f, alpha, beta, j_rows)
    lo_rho, hi_rho = growth_bounds(rho, family)
    rho_viol = _violations(lo_rho, norms, hi_rho)
    if g.kind == "ball":
        status = _hypothesis_status(f, family, r_max, rng)
        head = {"family": family}
        forms = {"max_violation_lower": rho_viol[0], "max_violation_upper": rho_viol[1]}
        errors = list(rho_viol)
    else:
        xnorm = np.sqrt(np.sum(alpha ** 2 + beta ** 2, axis=1))
        lo_norm, hi_norm = growth_bounds(rho, family, xnorm)
        norm_viol = _violations(lo_norm, norms, hi_norm)
        # slice-of-I samples for the gauge-form
        alpha_i, beta_i, _, rho_i = _sample_gauged(g, rng, samples, f.n, f.m, r_max)
        status = _hypothesis_status(f, family, r_max, rng)
        value_rho, off_slice = value_gauge_on_slice(
            g, f.eval_arrays(alpha_i, beta_i, f.I), f.I)
        lo_g, hi_g = growth_bounds(rho_i, family)
        gauge_viol = _violations(lo_g, value_rho, hi_g)
        head = {"family": family, "domain": g.kind}
        forms = {
            "rho_form_violation_lower": rho_viol[0],
            "rho_form_violation_upper": rho_viol[1],
            "norm_form_violation_lower": norm_viol[0],
            "norm_form_violation_upper": norm_viol[1],
            "gauge_form_violation_lower": gauge_viol[0],
            "gauge_form_violation_upper": gauge_viol[1],
            "off_slice_residual": off_slice,
            "rho_form_asserted": False,
        }
        errors = [*norm_viol, *gauge_viol, off_slice]
    if abs(theta) < 1e-15 and g.kind in _RAY_COLUMNS:
        # sharp at x = +r on the upper envelope, at x = -r on the lower
        ray_rho, ray_off_slice = extremal_ray(f, g, RAY_RADII)
        lower, upper = growth_bounds(RAY_RADII, family)
        forms["sharpness_gap"] = float(np.max(
            [*np.abs(ray_rho - np.concatenate([upper, lower])), ray_off_slice]))
        errors.append(forms["sharpness_gap"])
    max_error = float(np.max(errors))

    return judge_growth(Report(
        f"growth-{g.kind}-{family}", max_error <= tol, samples,
        {
            **head, "m": f.m, "n": f.n, "theta": theta, "r_max": r_max,
            "hypothesis_status": status, "asserted": asserted and status == "ok",
            **forms, "max_error": max_error, "threshold": tol,
        },
    ))


# the extremal ray's radii: growth records read them at theta = 0, envelope by default
RAY_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
# the coordinates that carry the extremal ray of each closed-form gauge:
# the first axis of the ball and the diagonal of the polydisc, where the
# gauge of the point is |x|
_RAY_COLUMNS = {"ball": slice(0, 1), "polydisc": slice(None)}


def extremal_ray(f: ShadowMap, g: Gauge, radii):
    """The real points x = +r, then x = -r, for r of radii, along the
    extremal ray of the ball or polydisc gauge g, with rho(f_I(x)) on the
    slice of f.I (value_gauge_on_slice) and the largest off-slice residual
    of those values: (rho, residual).  The SliceMap of a stem series
    has no slice row; it is read on the slice of e_1, since its values at
    real points do not depend on J."""
    x = np.concatenate([radii, np.negative(radii)])
    alpha = np.zeros((len(x), f.n))
    alpha[:, _RAY_COLUMNS[g.kind]] = x[:, None]
    I = f.I if hasattr(f, "I") else generator(f.m, 1)
    rho, off_slice = value_gauge_on_slice(
        g, f.eval_arrays(alpha, np.zeros_like(alpha), I), I)
    return rho, off_slice


def _violations(lower, values, upper) -> tuple[float, float]:
    """The largest amounts by which values fall below lower and exceed upper."""
    return (float(np.max(lower - values, initial=0.0)),
            float(np.max(values - upper, initial=0.0)))


def _sample_gauged(g: Gauge, rng, samples: int, n: int, m: int, r_max: float):
    """_sample_ball points rescaled so that the gauge value is the drawn
    radius.  Returns (alpha, beta, j_rows, rho)."""
    alpha, beta, j_rows, radii = _sample_ball(rng, samples, n, m, r_max)
    rho_dir = gauge_rho(g, alpha, beta)
    scale = np.where(rho_dir > 0, radii / np.maximum(rho_dir, 1e-300), 0.0)
    alpha *= scale[:, None]
    beta *= scale[:, None]
    return alpha, beta, j_rows, gauge_rho(g, alpha, beta)
