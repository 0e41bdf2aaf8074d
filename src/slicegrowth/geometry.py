"""Extremal-norm profiles, starlike/convex criteria, growth-bound checks
on the unit ball and on gauged slice domains, and Minkowski gauge
machinery for slice starlike, slice circular domains.

For a slice map whose restriction to the slice of I stays in that slice,
the squared norm along an orbit alpha + J beta is an affine function of
u = <J, I> (coefficient inner product):

    ||f(alpha + J beta)||^2 = c0 - c1 * u =: g(u),

so the extrema over all J are attained at J = +-I.  The profile, its
sampled check and envelope_table evaluate through SliceMap.eval_arrays,
one stem row broadcast over many J rows.  The starlike and
convex criteria (starlike_criterion_slice, convex_criterion_slice) read
the slice shadow f_I and its derivatives, at one point or a batch.
One growth checker, growth_check_domain, samples a gauged domain (the
unit ball is the ball gauge), reads every value through
SliceMap.eval_arrays (in closed form for a ClosedFormMap; the gauge-form
through value_gauge_on_slice on the slice of I), and compares against
the closed-form envelopes with the reference series' truncation tail as
slack.  One batched starlike/convex spot-check on the series' slice
shadow decides whether a record is asserted, and judge_growth, the one
verdict rule of every growth record, lets one that is not asserted pass.
closed_form_agreement checks a ClosedFormMap against its series.

gauge_rho evaluates a domain's gauge at one point (alpha, beta of shape
(n,)) or at B rows ((B, n)): the ball and polydisc in closed form, and
an oracle gauge by bisection along all rays at once, through one batched
membership call per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import CliffordElement, mul_batch
from .errors import (
    CriterionError,
    GaugeError,
    HypothesisViolationError,
    SamplingError,
)
from .reports import Report
from .series import tail_bound
from .slicemaps import ClosedFormMap, SliceMap, complex_on_slice, slice_shadow
from .slicespace import (
    SliceOrbit,
    anticommuting_unit,
    sample_S_batch,
    unit_rows,
    vector_norm,
)

_ZERO_COMPONENT_TOL = 1e-12
# resolution credited to oracle bisection (60 halvings); membership is not
# compared within 100 times this of the boundary
_BISECT_TOL = 1e-8


# ---------------------------------------------------------------------------
# extremal profile (norm of f along an orbit as a function of u = <J, I>)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalProfile:
    value_a: np.ndarray    # F1-side slice values, (n, dim) coefficient rows
    value_b: np.ndarray    # F2-side slice values, (n, dim)
    a: np.ndarray          # real parts of B_t / A_t where A_t != 0, else 0
    b: np.ndarray          # imaginary parts, same convention
    c0: float
    c1: float

    def g(self, u):
        return self.c0 - self.c1 * np.asarray(u, dtype=np.float64)


def extremal_profile(f, o: SliceOrbit, I: CliffordElement,
                     tol: float = 1e-9) -> ExtremalProfile:
    """Build the affine norm profile of f along the orbit o for slice I.

    Requires the values at +-I to lie in the slice of I; raises
    HypothesisViolationError otherwise.  Components whose A_t vanishes
    route |B_t|^2 into the constant term.
    """
    v_i, v_mi = f.eval_arrays(o.alpha[None], o.beta[None],
                              np.stack([I.coeffs, -I.coeffs]))
    n = len(v_i)
    value_a = 0.5 * (v_i + v_mi)
    value_b = -0.5 * mul_batch(f.m, I.coeffs, v_i - v_mi)

    a = np.zeros(n)
    b = np.zeros(n)
    c0 = 0.0
    c1 = 0.0
    scale = max(1.0, vector_norm(v_i), vector_norm(v_mi))
    for t in range(n):
        ca, ra = complex_on_slice(value_a[t], I)
        cb, rb = complex_on_slice(value_b[t], I)
        if max(ra, rb) > tol * scale:
            raise HypothesisViolationError(
                f"value component {t} leaves the slice of I "
                f"(residual {max(ra, rb):.3e})"
            )
        ca = complex(ca)
        cb = complex(cb)
        if abs(ca) <= max(tol, _ZERO_COMPONENT_TOL):
            c0 += abs(cb) ** 2
            continue
        ratio = cb / ca
        a[t] = ratio.real
        b[t] = ratio.imag
        c0 += (1.0 + ratio.real ** 2 + ratio.imag ** 2) * abs(ca) ** 2
        c1 += 2.0 * ratio.imag * abs(ca) ** 2
    return ExtremalProfile(value_a, value_b, a, b, c0, c1)


def _batch_norms(f: SliceMap, alpha, beta, j_rows) -> np.ndarray:
    """Norms of f at the rows of f.eval_arrays(alpha, beta, j_rows)."""
    vals = f.eval_arrays(alpha, beta, j_rows)
    return np.sqrt(np.sum(vals * vals, axis=(1, 2)))


def sample_roots_spanning(I: CliffordElement, rng, count: int) -> np.ndarray:
    """J rows mixing vector-strategy draws with the u-sweep family
    u*I + sqrt(1-u^2)*I_perp, so <J, I> covers [-1, 1] even for
    non-grade-1 directions I."""
    m = I.m
    half = count // 2
    rows = sample_S_batch(rng, m, count - half)
    if half:
        try:
            perp = anticommuting_unit(I, rng)
        except SamplingError:
            return np.vstack([rows, sample_S_batch(rng, m, half)])
        us = rng.uniform(-1.0, 1.0, size=half)
        sweep = us[:, None] * I.coeffs[None, :] + \
            np.sqrt(1.0 - us ** 2)[:, None] * perp.coeffs[None, :]
        rows = np.vstack([rows, sweep])
    return rows


def verify_extremal(f: SliceMap, o: SliceOrbit, I: CliffordElement,
                    samples: int, rng, tol: float = 1e-9) -> Report:
    """Sampled check that the norm extrema over J sit at J = +-I and that
    the measured norms match the affine profile g(u)."""
    prof = extremal_profile(f, o, I, tol)
    j_rows = sample_roots_spanning(I, rng, samples)
    # one stem row over the endpoints +-I and every sampled J
    norms = _batch_norms(f, o.alpha[None], o.beta[None],
                         np.vstack([I.coeffs, -I.coeffs, j_rows]))
    hi, lo = float(max(norms[:2])), float(min(norms[:2]))
    norms = norms[2:]
    u = j_rows @ I.coeffs
    profile_residual = float(np.max(np.abs(norms ** 2 - prof.g(u))))
    violation = max(0.0, float(np.max(norms)) - hi, lo - float(np.min(norms)))

    max_error = max(violation, profile_residual)
    return Report.from_error(
        "extremal", max_error, tol, samples,
        m=f.m, n=f.n,
        endpoint_max=hi, endpoint_min=lo,
        sampled_max=float(np.max(norms)), sampled_min=float(np.min(norms)),
        endpoint_violation=violation, profile_residual=profile_residual,
        c0=prof.c0, c1=prof.c1,
    )


def profile_linearity(f: SliceMap, o: SliceOrbit, I: CliffordElement,
                      points: int = 11, rng=None) -> float:
    """Least-squares residual of ||f||^2 against a line in u over an
    equispaced u-sweep; zero in exact arithmetic."""
    perp = anticommuting_unit(I, rng)
    us = np.linspace(-1.0, 1.0, points)
    rows = us[:, None] * I.coeffs[None, :] + \
        np.sqrt(np.maximum(0.0, 1.0 - us ** 2))[:, None] * perp.coeffs[None, :]
    sq = _batch_norms(f, o.alpha[None], o.beta[None], rows) ** 2
    design = np.stack([np.ones_like(us), us], axis=1)
    coef, *_ = np.linalg.lstsq(design, sq, rcond=None)
    return float(np.max(np.abs(sq - design @ coef)))


# ---------------------------------------------------------------------------
# starlike / convex criteria on a slice
# ---------------------------------------------------------------------------

def _shadow_in_slice(f: SliceMap, I: CliffordElement, tol: float):
    """slice_shadow(f, I), raising HypothesisViolationError if a
    coefficient leaves the slice of I by more than tol."""
    shadow, resid = slice_shadow(f, I)
    if resid > tol:
        raise HypothesisViolationError(
            f"map does not send the slice of I into itself "
            f"(coefficient residual {resid:.3e})"
        )
    return shadow


def starlike_criterion_slice(f: SliceMap, I: CliffordElement, z,
                             tol: float = 1e-9):
    """Re <Df_I(z)^{-1} f_I(z), z> through the complex identification of
    the slice of I; positive everywhere iff the restriction is starlike.

    z has shape (n,) (returns a float) or (B, n) (returns B values, each
    with the bits it has alone).  Raises HypothesisViolationError if the
    map's coefficients leave the slice, CriterionError on a singular
    Jacobian at any point.
    """
    shadow = _shadow_in_slice(f, I, tol)
    z = np.asarray(z, dtype=np.complex128)
    batch = z.reshape(-1, f.n)
    jac = shadow.jacobian(batch)
    val = shadow.eval(batch)
    try:
        w = np.linalg.solve(jac, val[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise CriterionError("singular slice Jacobian") from exc
    if not np.all(np.isfinite(w)):
        raise CriterionError("singular slice Jacobian")
    vals = np.real(np.sum(np.conj(batch) * w, axis=1))
    return float(vals[0]) if z.ndim == 1 else vals


def convex_criterion_slice(f: SliceMap, I: CliffordElement, t: int, x,
                           tol: float = 1e-9):
    """Re(1 + x f_t''(x)/f_t'(x)) for component t of the slice shadow f_I
    at real x on the z_t axis (the other variables at 0): the classical
    convexity criterion of that one-variable restriction.

    x is a float (returns a float) or an array (returns values of its
    shape).  Raises HypothesisViolationError if the map's coefficients
    leave the slice, and CriterionError where f_t' vanishes at a float x;
    in an array the value there is NaN.
    """
    shadow = _shadow_in_slice(f, I, tol)
    x = np.asarray(x, dtype=np.float64)
    z = np.zeros(x.shape + (f.n,), dtype=np.complex128)
    z[..., t] = x
    d1 = shadow.derivative(t)
    v1 = d1.eval(z)[..., t]
    v2 = d1.derivative(t).eval(z)[..., t]
    vanished = np.abs(v1) <= tol
    if x.ndim == 0:
        if vanished:
            raise CriterionError(f"derivative vanishes at x={x}")
        return float((1.0 + x * v2 / v1).real)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(vanished, np.nan, (1.0 + x * v2 / v1).real)


# ---------------------------------------------------------------------------
# growth checks on the unit ball
# ---------------------------------------------------------------------------

_FAMILY_POWER = {"starlike": 2, "convex": 1}


def growth_bounds(r, family: str):
    p = _FAMILY_POWER[family]
    r = np.asarray(r, dtype=np.float64)
    return r / (1.0 + r) ** p, r / (1.0 - r) ** p


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


def _hypothesis_status(f: SliceMap, family: str, I: CliffordElement,
                       r_max: float, rng, checks: int = 64) -> str:
    """Spot-check of the starlike/convex hypothesis on the slice of I.

    All points are drawn first; then one batched criterion call per
    record (starlike) or per component (convex) judges them.
    """
    try:
        if family == "starlike":
            points = []
            for _ in range(checks):
                z = rng.normal(size=f.n) + 1j * rng.normal(size=f.n)
                norm = np.linalg.norm(z)
                if norm < 1e-9:
                    continue
                points.append(z * (rng.uniform(min(0.05, r_max / 2), r_max) / norm))
            values = [starlike_criterion_slice(f, I, np.reshape(points, (-1, f.n)))]
        else:
            # convex family: per-component one-variable criterion at real x
            xs = np.empty(checks)
            ts = np.empty(checks, dtype=np.int64)
            for i in range(checks):
                xs[i] = rng.uniform(-r_max, r_max)
                ts[i] = rng.integers(f.n)
            values = [convex_criterion_slice(f, I, t, xs[ts == t])
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


def growth_check_ball(f: SliceMap, family: str, r_max: float, samples: int,
                      rng, I: CliffordElement, theta: float = 0.0,
                      tol: float = 1e-9, assert_bounds: bool = True) -> Report:
    """growth_check_domain on the unit ball, ball_gauge(f.n, f.m).

    No suite calls it: the name stays only as a layer boundary that the
    benchmark's traced run (perfbench/traced.py) wraps, until that run
    reads a trace of its own (ROADMAP items 6 and 10)."""
    return growth_check_domain(f, ball_gauge(f.n, f.m), family, r_max, samples,
                               rng, I, theta, tol, assert_bounds)


def judge_growth(rep: Report, asserted: bool) -> Report:
    """The verdict rule of every growth record: one that is not asserted
    says so and passes whatever its errors are; an asserted one keeps its
    verdict."""
    if not asserted:
        rep.data["asserted"] = False
        rep.passed = True
    return rep


def closed_form_agreement(maps: list[ClosedFormMap], r_max: float,
                          samples: int, rng, tol: float = 1e-9) -> Report:
    """Check closed-form maps against their reference series: at `samples`
    ball points per map, |series - closed form| must stay within the
    series' tail bound at r_max plus tol, and the star-built coefficients
    must equal the closed form's within tol."""
    value_gap = 0.0
    coeff_gap = 0.0
    for f in maps:
        alpha, beta, j_rows, _ = _sample_ball(rng, samples, f.n, f.m, r_max)
        diff = f.eval_arrays(alpha, beta, j_rows) - \
            SliceMap(f.stem).eval_arrays(alpha, beta, j_rows)
        value_gap = max(value_gap, float(np.max(
            np.sqrt(np.sum(diff * diff, axis=(1, 2))), initial=0.0)))
        coeff_gap = max(coeff_gap, f.coefficient_gap())
    tail = max(tail_bound(f.stem, r_max) for f in maps)
    first = maps[0]
    return Report.from_error(
        "closed-form", max(value_gap - tail, coeff_gap), tol,
        samples * len(maps),
        m=first.m, n=first.n, N=first.stem.degree, r_max=r_max,
        thetas=" ".join(f"{f.theta:g}" for f in maps),
        value_gap=value_gap, tail_bound=tail, coefficient_gap=coeff_gap,
    )


def sharpness_axis(f: SliceMap, family: str, r_grid, tol: float = 1e-8) -> Report:
    """Closed-form sharpness along the real first-axis ray at theta = 0:
    ||f(-r e)|| hits the lower envelope and ||f(+r e)|| the upper one.

    The verdict is on the worst gap over the grid, also reported as
    raw_gap, with no truncation tail subtracted.
    """
    worst = 0.0
    rows = envelope_table(f, family, r_grid)
    for row in rows:
        worst = max(worst, abs(row["f_at_minus_r"] - row["lower_bound"]),
                    abs(row["f_at_plus_r"] - row["upper_bound"]))
    return Report.from_error(
        f"sharpness-{family}", worst, tol, len(rows),
        family=family, m=f.m, n=f.n, N=f.stem.degree,
        raw_gap=worst,
        r_grid=" ".join(f"{row['r']:g}" for row in rows),
    )


def envelope_table(f: SliceMap, family: str, r_grid) -> list[dict]:
    """Rows (r, lower bound, ||f(-r)||, ||f(r)||, upper bound) along the
    first-axis real ray."""
    radii = [float(r) for r in r_grid]
    alpha = np.zeros((2 * len(radii), f.n))
    alpha[:, 0] = radii + [-r for r in radii]
    vals = f.eval_arrays(alpha, np.zeros_like(alpha),
                         CliffordElement.generator(f.m, 1).coeffs)
    norms = [vector_norm(v) for v in vals]   # the bits of the sharpness records
    rows = []
    for r, plus, minus in zip(radii, norms, norms[len(radii):]):
        lower, upper = growth_bounds(r, family)
        rows.append({
            "r": r, "lower_bound": float(lower), "f_at_minus_r": minus,
            "f_at_plus_r": plus, "upper_bound": float(upper),
        })
    return rows


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


def ball_gauge(n: int, m: int) -> Gauge:
    return Gauge("ball", n, m)


def polydisc_gauge(n: int, m: int) -> Gauge:
    return Gauge("polydisc", n, m)


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

    alpha and beta have shape (n,) (returns a float) or (B, n) (returns B
    values, each with the bits it has alone).  Closed forms: the ball
    gauge is the point norm and the polydisc gauge is max_t |x_t|; both
    ignore J.  The oracle kind passes the slice units j_rows, of shape
    (dim,) or (B, dim) and e_1 by default, to its membership test,
    brackets the boundary crossing along every ray and bisects for 60
    iterations; inconsistent membership along any ray raises GaugeError.
    """
    a, b = (np.asarray(x, dtype=np.float64).reshape(-1, g.n) for x in (alpha, beta))
    if g.kind == "ball":
        # row dot products, with the bits of slicespace.point_norm
        rho = np.sqrt(np.vecdot(a, a) + np.vecdot(b, b))
    elif g.kind == "polydisc":
        rho = np.max(np.sqrt(a ** 2 + b ** 2), axis=1)
    elif g.kind == "oracle":
        if j_rows is None:
            j_rows = CliffordElement.generator(g.m, 1).coeffs
        rho = _bisect_rho(g.member_fn, a, b,
                          np.broadcast_to(j_rows, (len(a), 1 << g.m)))
    else:
        raise ValueError(f"unknown gauge kind {g.kind!r}")
    return float(rho[0]) if np.ndim(alpha) == 1 else rho


def value_gauge_on_slice(g: Gauge, rows: np.ndarray, I: CliffordElement):
    """Gauge of Clifford vectors whose components lie in the slice of I.

    rows has shape (B, n, dim); returns (rho of shape (B,), the largest
    off-slice residual).  This is the quantity the sharp classical domain
    bounds control; it needs each value to live on one slice, which holds
    for values of f restricted to the slice of I.
    """
    cvals, resid = complex_on_slice(rows, I)
    return gauge_rho(g, cvals.real, cvals.imag), resid


def _gauge_property_draws(rng, m: int, n: int, samples: int, j_budget: int):
    """(J, alpha, beta, s, phi, scale_target, axial J rows) for
    gauge_properties_check, in the stream order of drawing sample by
    sample, with one generator call per run of same-distribution draws:
    one uniform call per sample, with array bounds, and one normal call for
    a sample's axial rows together with the next sample's J row."""
    per = 1 + j_budget  # a sample's J row, then its axial rows
    lows = np.array([-1.0] * (2 * n) + [0.1, 0.0, 0.2])
    highs = np.array([1.0] * (2 * n) + [2.0, 2.0 * np.pi, 1.8])
    uniforms = np.empty((samples, 2 * n + 3))
    raw = np.empty((samples * per, m))
    raw[0] = rng.normal(size=m)
    for i in range(samples):
        uniforms[i] = rng.uniform(lows, highs)
        normals = raw[i * per + 1:(i + 1) * per + 1]  # j_budget rows for the last
        normals[:] = rng.normal(size=normals.shape)
    rows = unit_rows(raw).reshape(samples, per, -1)
    s, phi, scale_target = uniforms[:, 2 * n:].T.copy()
    return (rows[:, 0].copy(), uniforms[:, :n].copy(), uniforms[:, n:2 * n].copy(),
            s, phi, scale_target, rows[:, 1:].reshape(samples * j_budget, -1))


def gauge_properties_check(g: Gauge, samples: int, rng,
                           tol: float = 1e-12) -> Report:
    """Positivity, slice-complex homogeneity, membership equivalence and
    axial symmetry of a gauge, sampled.

    The draws (_gauge_property_draws) take one generator call per run of
    same-distribution draws, in stream order; then one gauge call per
    quantity evaluates every sample."""
    n, m = g.n, g.m
    j_budget = 32
    j_elem, alpha, beta, s, phi, scale_target, j_axial = _gauge_property_draws(
        rng, m, n, samples, j_budget)
    rho = gauge_rho(g, alpha, beta, j_elem)
    positive_ok = gauge_rho(g, np.zeros(n), np.zeros(n)) == 0.0 and \
        not np.any(rho <= 0.0)

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

    max_error = max(worst_hom, worst_axial, 0.0 if positive_ok else 1.0,
                    float(member_mismatch))
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

def growth_check_domain(f: SliceMap, g: Gauge, family: str, r_max: float,
                        samples: int, rng, I: CliffordElement,
                        theta: float = 0.0, tol: float = 1e-9,
                        asserted: bool = True) -> Report:
    """The one growth checker: every growth record is sampled over random
    slices (_sample_gauged), spot-checked and judged here.  The gauge picks
    the readings of the bounds on the domain {rho < 1}:

    - rho-form:   rho(x)/(1+rho)^p <= ||f(x)||    <= rho(x)/(1-rho)^p
    - norm-form:  ||x||/(1+rho)^p  <= ||f(x)||    <= ||x||/(1-rho)^p
    - gauge-form: rho(x)/(1+rho)^p <= rho(f_I(z)) <= rho(x)/(1-rho)^p
                  on the slice of I, where the value gauge is defined.

    On the ball every form is the rho-form: the record carries it alone,
    as max_violation_lower/upper.  On other gauges the rho-form middle
    ||f(x)|| exceeds its upper envelope by up to sqrt(n) at the real
    diagonal of the polydisc (where the other two forms are exactly
    sharp), so the norm-form and gauge-form are asserted and the rho-form
    is reported.  The gauge-form takes a second sample set on the slice
    of I, drawn before the spot-check, and projects the values onto that
    slice; their largest off-slice residual is asserted against tol alone
    and enters max_error scaled by threshold / tol, so a map whose values
    leave the slice fails.  At theta = 0 the real polydisc diagonal is
    also checked in closed form through the gauge-form.

    Bounds get the truncation tail plus tol as slack.  A record is
    asserted when `asserted` holds and the spot-check reads ok, and
    judge_growth lets one that is not asserted pass.
    """
    p = _FAMILY_POWER[family]
    tail = tail_bound(f.stem, r_max)
    slack = tail + tol

    alpha, beta, j_rows, rho = _sample_gauged(g, rng, samples, f.n, f.m, r_max)
    norms = _batch_norms(f, alpha, beta, j_rows)
    lo_rho, hi_rho = growth_bounds(rho, family)
    rho_viol = _violations(lo_rho, norms, hi_rho)
    if g.kind == "ball":
        status = _hypothesis_status(f, family, I, r_max, rng)
        head = {"family": family}
        forms = {"max_violation_lower": rho_viol[0], "max_violation_upper": rho_viol[1]}
        max_error = max(rho_viol)
    else:
        xnorm = np.sqrt(np.sum(alpha ** 2 + beta ** 2, axis=1))
        norm_viol = _violations(xnorm / (1.0 + rho) ** p, norms, xnorm / (1.0 - rho) ** p)
        # slice-of-I samples for the gauge-form, then at theta = 0 on the
        # polydisc the real diagonal z = (x, ..., x), where the gauge is |x|
        # and the gauge-form is sharp; one eval_arrays call on the slice of
        # I takes both
        alpha_i, beta_i, _, rho_i = _sample_gauged(g, rng, samples, f.n, f.m, r_max)
        status = _hypothesis_status(f, family, I, r_max, rng)
        diag_x = []
        if abs(theta) < 1e-15 and g.kind == "polydisc":
            diag_x = [sign * r for r in (0.1, 0.3, 0.5, 0.7, 0.9) for sign in (1.0, -1.0)]
        diag = np.repeat(np.array(diag_x, dtype=np.float64)[:, None], f.n, axis=1)
        vals = f.eval_arrays(np.vstack([alpha_i, diag]), np.vstack([beta_i, 0 * diag]),
                             I.coeffs)
        rhos, off_slice = value_gauge_on_slice(g, vals, I)
        value_rho, diag_rho = rhos[:samples], rhos[samples:]
        lo_g, hi_g = growth_bounds(rho_i, family)
        gauge_viol = _violations(lo_g, value_rho, hi_g)
        envelope = np.array([abs(x) / (1.0 - x) ** p for x in diag_x])
        diag_gap = float(np.max(np.abs(diag_rho - envelope), initial=0.0))
        head = {"family": family, "domain": g.kind}
        forms = {
            "rho_form_violation_lower": rho_viol[0],
            "rho_form_violation_upper": rho_viol[1],
            "norm_form_violation_lower": norm_viol[0],
            "norm_form_violation_upper": norm_viol[1],
            "gauge_form_violation_lower": gauge_viol[0],
            "gauge_form_violation_upper": gauge_viol[1],
            "diagonal_sharpness_gap": diag_gap,
            "off_slice_residual": off_slice,
            "rho_form_asserted": False,
        }
        # truncating a series keeps its values on the slice, so the residual
        # gets tol alone, not the tail slack: in units of the threshold it is
        # off_slice * slack / tol
        max_error = max(*norm_viol, *gauge_viol, diag_gap, off_slice * slack / tol)

    asserted = asserted and status == "ok"
    return judge_growth(Report(
        f"growth-{g.kind}-{family}", max_error <= slack, samples,
        {
            **head, "m": f.m, "n": f.n, "theta": theta, "r_max": r_max,
            "N": f.stem.degree, "hypothesis_status": status, "asserted": asserted,
            **forms, "tail_bound": tail, "max_error": max_error, "threshold": slack,
        },
    ), asserted)


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
