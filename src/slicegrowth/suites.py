"""Verification suites: deterministic, seeded batteries of checks that
produce one report record each.

Every suite derives its RNG stream from (seed, suite tag, shard index),
so reports are byte-identical for a fixed (config, seed, shard count).
The algebra suite and both growth suites split their sample budgets over
`shards` independent streams (_sharded); the other suites run one stream
whatever the shard count.  Shard merging takes maxima of the error
fields, sums sample counts and ANDs the pass verdicts.  Every growth
record, on the ball or another gauge, comes from one checker,
geometry.growth_check_domain, through _growth_record.

Slice maps are evaluated on coefficient rows (SliceMap.eval_arrays).
The representation, regularity and gauge suites draw their cases with
one generator call per run of same-distribution draws, in stream order:
consecutive normal draws, or consecutive uniform draws, give the same
bits in one call as one at a time, so the reports are those of drawing
value by value.  J rows come from raw normal rows through
slicespace.unit_rows, once per block; the representation and regularity
suites evaluate their cases in blocks of _BLOCK, and no report depends
on its size.

run_suite(name, cfg) splits the requested suites into tasks.  "all" is
one task per suite.  A single suite whose function in SUITES has a
.tasks(cfg) splitter gives the tasks it lists (run_algebra: one per m,
each with streams of its own); any other suite is one task.  A
fork-context multiprocessing pool of min(tasks, usable CPUs) workers
maps the tasks in report order and concatenates their reports.  Since
no task's numbers depend on the process that runs it or on what ran
before it, and a task keeps its shards and batches whole, the report is
byte-identical to that of the serial loop over SUITES, which runs with
one task, one usable CPU or where os.sched_getaffinity does not exist.
A worker looks its task up by suite name and index in SUITES as it was
at the fork, so a replaced entry without a splitter runs whole on both
paths, and an exception a task raises is raised again in the parent.
multiprocessing is imported only for the pool, so importing the package
and one-task runs do not load it.

The growth suites evaluate the extremal families in closed form, as
slicemaps.ClosedFormMap(p, theta, I, N, n) with the exponent p that
MAP_FAMILIES names; the truncated star-product series
(series.extremal_series) stays the reference for tail bounds, slice
shadows and the closed-form-* agreement records.  The stem, regularity
and extremal suites test that series itself (extremal_series(2, ...)).
"""

from __future__ import annotations

import functools
import math
import os
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import algebra, geometry, series, slicemaps, slicespace
from .algebra import CliffordElement
from .reports import Report

DEFAULT_SEED = 1
MAX_M = algebra.MAX_GENERATORS

_SUITE_TAGS = {
    "algebra": 11,
    "stem": 12,
    "representation": 13,
    "regularity": 14,
    "extremal": 15,
    "growth-ball": 16,
    "growth-domain": 17,
    "gauge": 18,
}

_DEFAULT_SAMPLES = {
    "algebra": 10_000,
    "stem": 1_000,
    "representation": 1_000,
    "regularity": 200,
    "extremal": 1_000,
    "growth-ball": 10_000,
    "growth-domain": 10_000,
    "gauge": 200,
}

_SHARP_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
# cases per batched evaluation, so peak memory does not grow with the budget
_BLOCK = 512


# growth-suite map families: name -> (family, exponent p of
# slicemaps.ClosedFormMap(p, theta, I, N, n), asserted).  The degree-two
# paper example fails the convex hypothesis, so its growth bounds are
# reported but never asserted.
MAP_FAMILIES = {
    "koebe": ("starlike", 2, True),
    "cayley": ("convex", 1, True),
    "paper-example": ("convex", -1, False),
}


@dataclass
class RunConfig:
    m: Optional[int] = None
    n: Optional[int] = None   # suites take 2 (extremal sweeps 1 and 2)
    seed: int = DEFAULT_SEED
    samples: Optional[int] = None
    truncation: int = 300
    r_max: float = 0.9
    theta: Optional[float] = None
    maps: Optional[tuple[str, ...]] = None
    domains: tuple[str, ...] = ("ball", "polydisc")
    shards: int = 1

    def validate(self):
        if self.m is not None and not 1 <= self.m <= MAX_M:
            raise ValueError(f"m must be in 1..{MAX_M}")
        if self.n is not None and self.n < 1:
            raise ValueError("n must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be positive")
        if not 0.0 < self.r_max < 1.0:
            raise ValueError("r_max must be in (0, 1)")
        if self.theta is not None and not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if self.truncation < 1:
            raise ValueError("truncation must be positive")
        if self.shards < 1:
            raise ValueError("shards must be positive")
        for name in self.maps or ():
            if name not in MAP_FAMILIES:
                raise ValueError(f"unknown map {name!r}")
        for name in self.domains:
            if name not in ("ball", "polydisc"):
                raise ValueError(f"unknown domain {name!r}")
        return self

    def budget(self, suite: str) -> int:
        return self.samples if self.samples is not None else _DEFAULT_SAMPLES[suite]


def _rng(cfg: RunConfig, suite: str, shard: int, extra: int = 0):
    return np.random.default_rng([cfg.seed, _SUITE_TAGS[suite], shard, extra])


def _stable_tag(*parts) -> int:
    """Deterministic 31-bit stream tag (the builtin hash is salted)."""
    text = "|".join(str(p) for p in parts)
    return zlib.crc32(text.encode("utf-8")) & 0x7FFFFFFF


def _shard_sizes(total: int, shards: int) -> list[int]:
    """The non-empty shares of total samples over shards streams, the
    first total % shards of them one larger: at most total entries."""
    used = min(shards, total)
    return [total // used + (i < total % used) for i in range(used)]


def _merge_shards(parts: list[Report], keys) -> Report:
    """One record from per-shard records: the maximum of each named field,
    the sum of samples and the AND of the pass verdicts.  A record with a
    hypothesis spot-check is asserted only if every shard's passed, and
    geometry.judge_growth lets an unasserted record pass."""
    merged = parts[0]
    if "asserted" in merged.data:
        merged.data["hypothesis_status"] = geometry.merge_hypothesis_status(
            [part.data["hypothesis_status"] for part in parts])
        merged.data["asserted"] = all(part.data["asserted"] for part in parts)
    for extra in parts[1:]:
        for key in keys:
            merged.data[key] = max(merged.data[key], extra.data[key])
        merged.samples += extra.samples
        merged.passed = merged.passed and extra.passed
    return geometry.judge_growth(merged, merged.data.get("asserted", True))


def _sharded(cfg: RunConfig, suite: str, budget: int, tag: int, check, keys) -> Report:
    """One record from check(size, rng) on each shard of budget samples,
    shard i drawing from the stream _rng(cfg, suite, i, tag), merged by
    _merge_shards over keys."""
    return _merge_shards([check(size, _rng(cfg, suite, shard, tag))
                          for shard, size in enumerate(_shard_sizes(budget, cfg.shards))],
                         keys)


def _re_z1_control(m: int, n: int) -> slicemaps.RawSliceMap:
    """Slice map of the even-odd pair (F1, F2) = (Re z_1, 0): not
    holomorphic, the control both holomorphy checks must detect."""
    def f1(a, b):
        rows = np.zeros(a.shape + (1 << m,))
        rows[:, 0, 0] = a[:, 0]
        return rows
    return slicemaps.RawSliceMap(m, n, f1, lambda a, b: np.zeros(a.shape + (1 << m,)))


# ---------------------------------------------------------------------------
# algebra suite
# ---------------------------------------------------------------------------

_ALGEBRA_ERRORS = ("associativity", "anti_automorphism", "involution",
                   "inverse_identity", "anticommutation", "root_square")
# the inverse's backward error must stay below _INVERSE_MULTIPLE * dim * eps:
# invert_batch inverts spinor blocks of size d = 2**(m//2) <= sqrt(dim) by LU
# (residual of order d eps |M| |M^-1|, Higham 2002, section 14.3), encode and
# decode sum at most 2 d terms per entry, and the check's own product adds
# gamma_dim |a| |a^-1| with |a| |a^-1| >= 1 (the scalar part of a a^-1 is a
# signed dot product of the two rows); the tightest case is m = 1, where
# dim = 2 and the threshold is 4 eps
_INVERSE_MULTIPLE = 2


def _inverse_errors(m: int, a: np.ndarray, inv: np.ndarray):
    """(normwise backward error, raw residual) of the inverse rows inv of
    the rows a: the largest |a a^{-1} - 1|_max / (|a|_2 |a^{-1}|_2)
    (Higham 2002, section 7.1) and the largest |a a^{-1} - 1|_max.

    The product goes through the sign-table operator, not through the
    spinor kernel that invert_batch and mul_batch share, so a fault in
    that kernel cannot cancel in the check.  Each residual coefficient is
    a dot product of length dim, which adds at most gamma_dim |a| |a^-1|
    (Cauchy-Schwarz) to the inverse's own backward error."""
    dim = 1 << m
    resid = np.empty_like(a)
    chunk = max(1, (1 << 18) // (dim * dim))  # ~2 MB of operators stays in cache
    for lo in range(0, len(a), chunk):
        hi = min(lo + chunk, len(a))
        ls = algebra.left_matrix_batch(m, a[lo:hi])
        resid[lo:hi] = np.matmul(ls, inv[lo:hi, :, None])[..., 0]
    resid[:, 0] -= 1.0
    raw = np.max(np.abs(resid), axis=1)
    backward = raw / (np.linalg.norm(a, axis=1) * np.linalg.norm(inv, axis=1))
    return float(np.max(backward)), float(np.max(raw))


def _anticommutation_error(m: int) -> float:
    """Largest deviation of e_i e_j + e_j e_i from -2 delta_ij over the
    generators of R_m: exact integer identities, so one value per m.  One
    mul_batch call forms every product e_i e_j."""
    gens = np.eye(1 << m)[[1 << i for i in range(m)]]
    prods = algebra.mul_batch(m, gens[:, None], gens[None, :])
    sums = prods + prods.transpose(1, 0, 2)
    sums[np.arange(m), np.arange(m), 0] += 2.0
    return float(np.max(np.abs(sums)))


def _algebra_shard(m: int, pair_err: float, count: int, rng) -> Report:
    """One algebra record from count sampled cases, with the m-wide
    anticommutation error pair_err (_anticommutation_error) folded in."""
    dim = 1 << m
    a = rng.uniform(-1.0, 1.0, size=(count, dim))
    b = rng.uniform(-1.0, 1.0, size=(count, dim))
    c = rng.uniform(-1.0, 1.0, size=(count, dim))

    ab = algebra.mul_batch(m, a, b)
    bc = algebra.mul_batch(m, b, c)
    assoc = algebra.mul_batch(m, ab, c) - algebra.mul_batch(m, a, bc)
    scale = 1.0 + (
        np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1) * np.linalg.norm(c, axis=1)
    )
    assoc_err = float(np.max(np.abs(assoc) / scale[:, None]))

    conj_ab = algebra.conj_batch(m, ab)
    conj_ba = algebra.mul_batch(m, algebra.conj_batch(m, b), algebra.conj_batch(m, a))
    anti_err = float(np.max(np.abs(conj_ab - conj_ba)))

    invol_err = float(np.max(np.abs(algebra.conj_batch(m, algebra.conj_batch(m, a)) - a)))

    inv_err, inv_resid = _inverse_errors(m, a, algebra.invert_batch(m, a))

    # sampled roots of -1 square to -1
    roots = slicespace.sample_S_batch(rng, m, min(count, 2000))
    sq = algebra.mul_batch(m, roots, roots)
    sq[:, 0] += 1.0
    root_err = float(np.max(np.abs(sq)))

    errors = dict(zip(_ALGEBRA_ERRORS, (assoc_err, anti_err, invol_err, inv_err,
                                        pair_err, root_err)))
    max_error = max(errors.values())
    passed = max_error <= 1e-10 and \
        inv_err <= _INVERSE_MULTIPLE * dim * np.finfo(np.float64).eps
    # the raw residual grows like |a| |a^{-1}| eps: reported, not asserted
    return Report(f"algebra-m{m}", passed, count,
                  {"m": m, "max_error": max_error, "threshold": 1e-10, **errors,
                   "inverse_residual": inv_resid})


def _algebra_record(cfg: RunConfig, m: int) -> list[Report]:
    total = cfg.budget("algebra")
    # work per case grows like 4**m; keep large-m batches tractable
    budget_m = max(200, total // 4 ** max(0, m - 5)) if m > 5 else total
    return [_sharded(cfg, "algebra", budget_m, m,
                     functools.partial(_algebra_shard, m, _anticommutation_error(m)),
                     ("max_error",) + _ALGEBRA_ERRORS + ("inverse_residual",))]


def _algebra_tasks(cfg: RunConfig):
    return [functools.partial(_algebra_record, cfg, m) for m in range(1, (cfg.m or 5) + 1)]


def run_algebra(cfg: RunConfig) -> list[Report]:
    return [rep for task in _algebra_tasks(cfg) for rep in task()]


# each m draws from streams of its own: one pool task per m (run_suite)
run_algebra.tasks = _algebra_tasks


# ---------------------------------------------------------------------------
# stem suite
# ---------------------------------------------------------------------------

def _random_stem(m: int, n: int, rng, degree: int = 5, terms: int = 8) -> series.StemSeries:
    dim = 1 << m
    table = {}
    for _ in range(terms):
        k = tuple(int(v) for v in rng.integers(0, degree + 1, size=n))
        if sum(k) > degree:
            continue
        table[k] = rng.uniform(-1.0, 1.0, size=(n, dim))
    if not table:
        table[(0,) * n] = rng.uniform(-1.0, 1.0, size=(n, dim))
    return series.StemSeries(m, n, table)


def run_stem(cfg: RunConfig) -> list[Report]:
    m = cfg.m or 3
    n = cfg.n or 2
    count = cfg.budget("stem")
    trunc = cfg.truncation
    rng = _rng(cfg, "stem", 0)
    reports = []

    # even-odd pair identity on random stems (exact by construction)
    stem = _random_stem(m, n, rng)
    alpha = rng.uniform(-0.9, 0.9, size=(count, n))
    beta = rng.uniform(-0.9, 0.9, size=(count, n))
    f1p, f2p = stem.eval_arrays(alpha, beta)
    f1m, f2m = stem.eval_arrays(alpha, -beta)
    eo_err = max(
        float(np.max(np.abs(f1m - f1p), initial=0.0)),
        float(np.max(np.abs(f2m + f2p), initial=0.0)),
    )
    reports.append(Report.from_error(
        "stem-even-odd", eo_err, 1e-12, count, m=m, n=n))

    # holomorphy residual via finite differences; sampled away from the
    # boundary so the third derivative keeps the FD error under budget
    theta = cfg.theta if cfg.theta is not None else 0.7
    i_elem = CliffordElement.generator(m, 1)
    koebe = series.extremal_series(2, theta, i_elem, trunc, n)
    cr_points = min(count, 50)
    alpha, beta = rng.uniform(-0.3, 0.3, (cr_points, 2, n)).transpose(1, 0, 2)
    worst_cr = max(float(np.max(series.cr_residual(s.eval_arrays, alpha, beta)))
                   for s in (stem, koebe))
    reports.append(Report.from_error(
        "stem-cr-residual", worst_cr, 1e-8, cr_points, m=m, n=n))

    # the non-holomorphic control must be detected: d Re(z_1)/d conj(z_1) = 1/2
    control = float(series.cr_residual(_re_z1_control(m, n).stem_arrays,
                                       np.full((1, n), 0.3), np.full((1, n), 0.2))[0])
    reports.append(Report.from_error(
        "stem-cr-control", abs(control - 0.5), 1e-6, 1, m=m, n=n,
        control_residual=control))

    # star-inverse identity through the full truncation order
    unit = np.zeros((trunc + 1, 1 << m))
    unit[0, 0] = 1.0
    base = np.stack([unit[0], -algebra.slice_exp(i_elem, theta)])
    inv = series.star_inverse(m, base, trunc)
    ident = series.star_mul(m, base, inv, trunc=trunc)
    ident_err = float(np.max(np.abs(ident - unit)))

    rand_series = np.zeros((41, 1 << m))
    rand_series[0, 0] = 1.0
    budget = 0.5
    for k in range(1, 41):
        row = rng.uniform(-1.0, 1.0, size=1 << m)
        row *= budget * 0.5 ** k / max(1.0, float(np.linalg.norm(row)))
        rand_series[k] = row
    rinv = series.star_inverse(m, rand_series, trunc)
    rident = series.star_mul(m, rand_series, rinv, trunc=trunc)
    ident_err = max(ident_err, float(np.max(np.abs(rident - unit))))
    # rinv is exact only through trunc, so its inverse is too
    order = min(40, trunc)
    dbl = series.star_inverse(m, rinv, order)
    ident_err = max(ident_err, float(np.max(np.abs(dbl - rand_series[:order + 1]))))
    reports.append(Report.from_error(
        "stem-star-inverse", ident_err, 1e-10, trunc,
        m=m, order=trunc))

    # coefficient norms of the starlike family: (k+1) exactly
    coeff_err = 0.0
    for p in range(1, trunc + 2):
        key = [0] * n
        key[0] = p
        row = koebe.coefficient(tuple(key))[0]
        coeff_err = max(coeff_err, abs(float(np.linalg.norm(row)) - p))
    reports.append(Report.from_error(
        "stem-koebe-coefficients", coeff_err, 1e-9, trunc + 1, m=m, n=n))

    # analytic tail decreases with the truncation order
    orders = sorted({max(10, trunc // 8), max(20, trunc // 4),
                     max(30, trunc // 2), trunc})
    tails = [series.extremal_tail(2, n, N)(cfg.r_max) for N in orders]
    monotone = all(t1 >= t2 for t1, t2 in zip(tails, tails[1:]))
    reports.append(Report.from_error(
        "stem-tail-monotone", 0.0 if monotone else 1.0, 0.5, len(tails),
        tails=" ".join(f"{t:.3e}" for t in tails)))
    return reports


# ---------------------------------------------------------------------------
# representation suite
# ---------------------------------------------------------------------------

def _gap(u: np.ndarray, v: np.ndarray) -> float:
    """Largest coefficient difference between two batches of rows."""
    return float(np.max(np.abs(u - v), initial=0.0))


def _representation_cases(rng, m: int, n: int, cases: np.ndarray,
                          cond_threshold: float):
    """(alpha, beta, rows, rejected) for the representation cases, drawn
    in stream order with one generator call per run of same-distribution
    draws: case c draws alpha and beta in one call, the pair (J, K) in one
    and I in one, with the pair (J2, K2) when c % 10 == 0 (otherwise J2, K2
    are J, K).  A pair whose rows are closer than cond_threshold is
    redrawn alone, and rejected counts the redraws.  rows stacks the unit
    rows J, K, I, J2, K2, shape (5, cases, 2**m); beta keeps its first
    nonzero component positive, as make_orbit does."""
    size = cases.size
    alpha, beta = np.empty((2, size, n))
    raw = np.empty((5, size, m))
    rejected = 0

    def accepted(pair):
        nonlocal rejected
        while True:
            # a pair with |a/|a| - b/|b|| > 2 cond_threshold in floats
            # passes at once: that distance differs from the rows' by
            # rounding only.  Any other pair is judged on its unit rows,
            # the rows sample_S_batch would have drawn.
            a, b = pair.tolist()
            na, nb = math.hypot(*a), math.hypot(*b)
            if math.dist([x * nb for x in a], [y * na for y in b]) > \
                    2.0 * cond_threshold * na * nb:
                return pair
            j_row, k_row = slicespace.unit_rows(pair)
            if np.linalg.norm(j_row - k_row) >= cond_threshold:
                return pair
            rejected += 1
            pair = rng.normal(size=(2, m))

    for row, case in enumerate(cases):
        alpha[row], beta[row] = rng.uniform(-1, 1, (2, n))
        raw[:2, row] = accepted(rng.normal(size=(2, m)))
        if case % 10 == 0:
            drawn = rng.normal(size=(3, m))
            raw[2, row] = drawn[0]
            raw[3:, row] = accepted(drawn[1:])
        else:
            raw[2, row] = rng.normal(size=m)
            raw[3:, row] = raw[:2, row]

    first = beta[np.arange(size), np.argmax(beta != 0.0, axis=1)]
    beta[first < 0.0] *= -1.0
    return alpha, beta, slicespace.unit_rows(raw), rejected


def run_representation(cfg: RunConfig) -> list[Report]:
    m = cfg.m or 3
    n = cfg.n or 2
    count = cfg.budget("representation")
    rng = _rng(cfg, "representation", 0)
    cond_threshold = 1e-3
    rec_formula = functools.partial(slicemaps.representation_formula,
                                    cond_threshold=cond_threshold)

    worst = 0.0
    worst_two_pair = 0.0
    worst_cor = 0.0
    worst_collapse = 0.0
    worst_deriv = 0.0
    rejected = 0
    maps = [slicemaps.SliceMap(_random_stem(m, n, rng)) for _ in range(8)]
    derivatives = [f.derivative(0) for f in maps]

    # case c uses map c % 8 and runs the sub-checks when c % 10 == 0
    for lo in range(0, count, _BLOCK):
        cases = np.arange(lo, min(lo + _BLOCK, count))
        alpha, beta, rows, block_rejected = _representation_cases(
            rng, m, n, cases, cond_threshold)
        J, K, I, J2, K2 = rows
        rejected += block_rejected

        for index, (f, df) in enumerate(zip(maps, derivatives)):
            r = np.flatnonzero(cases % len(maps) == index)
            if r.size == 0:
                continue
            a, b = alpha[r], beta[r]
            direct = f.eval_arrays(a, b, I[r])
            rec = rec_formula(f, a, b, J[r], K[r], I[r])
            worst = max(worst, _gap(rec, direct))

            s = np.flatnonzero(cases[r] % 10 == 0)
            if s.size == 0:
                continue
            a, b, rs = a[s], b[s], r[s]
            rec2 = rec_formula(f, a, b, J2[rs], K2[rs], I[rs])
            worst_two_pair = max(worst_two_pair, _gap(rec[s], rec2))

            cor = slicemaps.two_slice_average(f, a, b, J[rs], I[rs])
            worst_cor = max(worst_cor, _gap(cor, direct[s]))

            collapse = rec_formula(f, a, b, J[rs], K[rs], J[rs])
            worst_collapse = max(worst_collapse,
                                 _gap(collapse, f.eval_arrays(a, b, J[rs])))

            rec_d = rec_formula(df, a, b, J[rs], K[rs], I[rs])
            worst_deriv = max(worst_deriv, _gap(rec_d, df.eval_arrays(a, b, I[rs])))

    sub = (count + 9) // 10  # cases that ran the sub-checks (case % 10 == 0)
    return [
        Report.from_error("representation-reconstruction", worst, 1e-10, count,
                          m=m, n=n, cond_threshold=cond_threshold,
                          rejected_pairs=rejected),
        Report.from_error("representation-two-pair", worst_two_pair, 1e-9, sub,
                          m=m, n=n),
        Report.from_error("representation-average-form", worst_cor, 1e-10, sub,
                          m=m, n=n),
        Report.from_error("representation-collapse", worst_collapse, 1e-12, sub,
                          m=m, n=n),
        Report.from_error("representation-derivative-commutes", worst_deriv,
                          1e-8, sub, m=m, n=n),
    ]


# ---------------------------------------------------------------------------
# regularity suite
# ---------------------------------------------------------------------------

def run_regularity(cfg: RunConfig) -> list[Report]:
    m = cfg.m or 3
    n = cfg.n or 2
    count = cfg.budget("regularity")
    rng = _rng(cfg, "regularity", 0)
    theta = cfg.theta if cfg.theta is not None else 0.7
    i_elem = CliffordElement.generator(m, 1)
    reports = []

    worst = 0.0
    maps = [
        slicemaps.SliceMap(_random_stem(m, n, rng)),
        slicemaps.SliceMap(series.extremal_series(2, theta, i_elem, 60, n)),
        slicemaps.SliceMap(series.identity_map(m, n)),
    ]
    for lo in range(0, count, _BLOCK):
        size = min(_BLOCK, count - lo)
        which = np.empty(size, dtype=np.int64)
        raw = np.empty((size, m))
        alpha, beta = np.empty((2, size, n))
        for row in range(size):
            which[row] = rng.integers(len(maps))
            raw[row] = rng.normal(size=m)
            alpha[row], beta[row] = rng.uniform(-0.4, 0.4, (2, n))
        J = slicespace.unit_rows(raw)
        for index, f in enumerate(maps):
            r = which == index
            if np.any(r):
                worst = max(worst, float(np.max(
                    slicemaps.regularity_residual(f, alpha[r], beta[r], J[r]))))
    reports.append(Report.from_error(
        "regularity-series", worst, 1e-7, count, m=m, n=n))

    const = slicemaps.SliceMap(series.StemSeries(
        m, n, {(0,) * n: rng.uniform(-1, 1, size=(n, 1 << m))}))
    a0, b0 = rng.uniform(-0.4, 0.4, n), rng.uniform(-0.4, 0.4, n)
    reports.append(Report.from_error(
        "regularity-constant",
        float(slicemaps.regularity_residual(const, a0, b0, i_elem.coeffs)[0]), 1e-14,
        1, m=m, n=n))

    # control with stem F1 = Re(z_1): residual must be O(1), not small
    control = _re_z1_control(m, n)
    control_res = float(slicemaps.regularity_residual(control, a0, b0, i_elem.coeffs)[0])
    reports.append(Report.from_error(
        "regularity-control-detected", 0.0 if control_res > 0.1 else 1.0, 0.5,
        1, m=m, n=n, control_residual=control_res))

    # holomorphic splitting reassembles the slice restriction
    f = slicemaps.SliceMap(_random_stem(m, n, rng))
    comps, basis = slicemaps.split_components(f, i_elem)
    re_im = rng.uniform(-0.7, 0.7, (min(count, 200), 2, n))
    zs = re_im[:, 0] + 1j * re_im[:, 1]
    worst_split = _gap(slicemaps.reassemble_on_slice(comps, basis, i_elem, zs),
                       f.eval_arrays(zs.real, zs.imag, i_elem.coeffs))
    reports.append(Report.from_error(
        "regularity-splitting", worst_split, 1e-10,
        min(count, 200), m=m, n=n, components=len(comps)))
    return reports


# ---------------------------------------------------------------------------
# extremal suite
# ---------------------------------------------------------------------------

def _extremal_maps(m: int, n: int, trunc: int, theta: float):
    e1 = CliffordElement.generator(m, 1)
    out = [("identity", slicemaps.SliceMap(series.identity_map(m, n)), e1)]
    out.append(("koebe", slicemaps.SliceMap(
        series.extremal_series(2, theta, e1, trunc, n)), e1))
    if m == 2:
        e12 = CliffordElement.blade(m, (1, 2))
        out.append(("koebe-bivector", slicemaps.SliceMap(
            series.extremal_series(2, theta, e12, trunc, n)), e12))
    return out


def run_extremal(cfg: RunConfig) -> list[Report]:
    count = cfg.budget("extremal")
    theta = cfg.theta if cfg.theta is not None else 0.7
    tol = 1e-9
    reports = []
    m_values = (cfg.m,) if cfg.m else (2, 3)
    n_values = (cfg.n,) if cfg.n else (1, 2)
    for m in m_values:
        if m < 2:
            # the sphere of roots of -1 is {-e1, e1}: no transverse sweep
            reports.append(Report.from_error(
                "extremal-skipped-m1", 0.0, tol, 0,
                m=m, note="no orthogonal root of -1 exists for m=1"))
            continue
        for n in n_values:
            rng = _rng(cfg, "extremal", 0, m * 10 + n)
            for name, f, i_elem in _extremal_maps(m, n, min(cfg.truncation, 120), theta):
                o = slicespace.make_orbit(
                    rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n))
                rep = geometry.verify_extremal(f, o, i_elem, count, rng, tol)
                lin = geometry.profile_linearity(f, o, i_elem, rng=rng)
                rep.check = f"extremal-{name}-m{m}-n{n}"
                rep.data["map"] = name
                rep.data["linearity_residual"] = lin
                rep.data["max_error"] = max(rep.data["max_error"], lin)
                rep.passed = rep.data["max_error"] <= tol
                reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# growth suites
# ---------------------------------------------------------------------------

def _growth_cases(cfg: RunConfig):
    m = cfg.m or 3
    thetas = (cfg.theta,) if cfg.theta is not None else (0.0, 0.7, np.pi / 2)
    e1 = CliffordElement.generator(m, 1)
    directions = [("e1", e1)]
    if m >= 2:
        directions.append(("e12", CliffordElement.blade(m, (1, 2))))
    return m, thetas, directions


# the fields a shard merge takes the maximum of: the readings the gauge picks
_GROWTH_KEYS = {
    "ball": ("max_violation_lower", "max_violation_upper", "max_error"),
    "polydisc": tuple(f"{form}_form_violation_{side}" for form in ("rho", "norm", "gauge")
                      for side in ("lower", "upper"))
    + ("diagonal_sharpness_gap", "off_slice_residual", "max_error"),
}


def _growth_record(cfg: RunConfig, suite: str, check: str, label: str, tag: int,
                   f: slicemaps.ClosedFormMap, gauge: geometry.Gauge) -> Report:
    """The record `check` of map `label`, f, on the gauge: the suite's
    budget over its shards, shard i drawing from _rng(cfg, suite, i, tag)."""
    family, _, asserted = MAP_FAMILIES[label]
    rep = _sharded(cfg, suite, cfg.budget(suite), tag,
                   lambda size, rng: geometry.growth_check_domain(
                       f, gauge, family, cfg.r_max, size, rng, f.I, f.theta, 1e-9,
                       asserted),
                   _GROWTH_KEYS[gauge.kind])
    rep.check = check
    rep.data["map"] = label
    return rep


def run_growth_ball(cfg: RunConfig) -> list[Report]:
    m, thetas, directions = _growth_cases(cfg)
    n = cfg.n or 2
    ball = geometry.ball_gauge(n, m)
    reports = []
    wanted = cfg.maps or tuple(MAP_FAMILIES)

    for label, (family, p, asserted) in MAP_FAMILIES.items():
        if label not in wanted:
            continue
        for iname, i_elem in directions:
            sweep = []
            for theta in thetas:
                f = slicemaps.ClosedFormMap(p, theta, i_elem, cfg.truncation, n)
                sweep.append(f)
                reports.append(_growth_record(
                    cfg, "growth-ball", f"growth-ball-{label}-{iname}-theta{theta:.3f}",
                    label, _stable_tag(label, iname, f"{theta:.9f}"), f, ball))

            f0 = next((f for f in sweep if abs(f.theta) < 1e-15), None)
            if f0 is not None:
                sharp = geometry.sharpness_axis(f0, family, _SHARP_GRID, 1e-8)
                sharp.check = f"sharpness-{label}-{iname}"
                sharp.data["map"] = label
                reports.append(geometry.judge_growth(sharp, asserted))

            agree = geometry.closed_form_agreement(
                sweep, cfg.r_max, min(cfg.budget("growth-ball"), 1000),
                _rng(cfg, "growth-ball", 0, _stable_tag("closed-form", label, iname)))
            agree.check = f"closed-form-{label}-{iname}"
            agree.data["map"] = label
            reports.append(agree)
    return reports


def run_growth_domain(cfg: RunConfig) -> list[Report]:
    m, thetas, directions = _growth_cases(cfg)
    n = cfg.n or 2
    reports = []
    wanted = cfg.maps or tuple(MAP_FAMILIES)

    # the domain suite reports the asserted families only
    for label, (family, p, asserted) in MAP_FAMILIES.items():
        if label not in wanted or not asserted:
            continue
        f = slicemaps.ClosedFormMap(p, thetas[0], directions[0][1], cfg.truncation, n)
        for domain in cfg.domains:
            reports.append(_growth_record(
                cfg, "growth-domain", f"growth-domain-{domain}-{label}", label,
                _stable_tag(label, domain), f, geometry.Gauge(domain, n, m)))
    return reports


def run_gauge(cfg: RunConfig) -> list[Report]:
    m = cfg.m or 3
    n = cfg.n or 2
    count = cfg.budget("gauge")
    rng = _rng(cfg, "gauge", 0)
    reports = []

    closed = {"ball": geometry.ball_gauge(n, m),
              "polydisc": geometry.polydisc_gauge(n, m)}
    for g in closed.values():
        reports.append(geometry.gauge_properties_check(
            g, max(count // 10, 20), rng, 1e-12))

    # bisection oracles wrapping the closed-form membership tests
    oracles = {name: geometry.oracle_gauge(
        lambda a, b, j, _g=g: geometry.gauge_rho(_g, a, b) < 1.0, n, m)
        for name, g in closed.items()}
    for name, oracle in oracles.items():
        points = max(count, 100)
        raw = np.empty((points, m))
        alpha, beta = np.empty((2, points, n))
        for row in range(points):
            raw[row] = rng.normal(size=m)
            alpha[row], beta[row] = rng.uniform(-1.5, 1.5, (2, n))
        j_rows = slicespace.unit_rows(raw)
        worst = float(np.max(np.abs(
            geometry.gauge_rho(oracle, alpha, beta, j_rows) -
            geometry.gauge_rho(closed[name], alpha, beta))))
        reports.append(Report.from_error(
            f"gauge-bisection-{name}", worst, 1e-8,
            points, m=m, n=n))

    # the oracles' own properties: bisection over a membership test that
    # is not starlike breaks homogeneity and membership equivalence
    for name, oracle in oracles.items():
        rep = geometry.gauge_properties_check(
            oracle, max(count // 10, 20), rng, 1e-12)
        rep.check = f"gauge-oracle-{name}"
        reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

SUITES = {
    "algebra": run_algebra,
    "stem": run_stem,
    "representation": run_representation,
    "regularity": run_regularity,
    "extremal": run_extremal,
    "growth-ball": run_growth_ball,
    "growth-domain": run_growth_domain,
    "gauge": run_gauge,
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def _suite_tasks(cfg: RunConfig, name: str):
    """The pool tasks of SUITES[name]: those its .tasks(cfg) lists, or
    the whole suite as one task."""
    run = SUITES[name]
    split = getattr(run, "tasks", None)
    return split(cfg) if split else [functools.partial(run, cfg)]


def _run_task(cfg: RunConfig, task) -> list[Report]:
    """The reports of task (suite name, index into _suite_tasks, or None
    for the whole suite): a pool task, looked up in the forked worker so
    that it runs whatever SUITES held at the fork."""
    name, index = task
    if index is None:
        return SUITES[name](cfg)
    return _suite_tasks(cfg, name)[index]()


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else 1


def run_suite(name: str, cfg: RunConfig) -> list[Report]:
    cfg.validate()
    if name == "all":
        # one task per suite: growth-ball, the longest suite, already bounds
        # the schedule, and algebra's per-m tasks would only start it later
        # (verify all on 2 CPUs: 1.13 -> 1.23 s when split)
        names = tuple(SUITES)
        tasks = [(suite, None) for suite in names]
    elif name in SUITES:
        names = (name,)
        tasks = [(name, index) for index in range(len(_suite_tasks(cfg, name)))]
    else:
        raise ValueError(f"unknown suite {name!r}")
    workers = min(len(tasks), _usable_cpus())
    if workers < 2:
        parts = [SUITES[suite](cfg) for suite in names]
    else:
        # loaded here, not at import: one-task runs never pay for it
        import multiprocessing
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            parts = pool.map(functools.partial(_run_task, cfg), tasks, chunksize=1)
            pool.close()
            pool.join()
    return [rep for part in parts for rep in part]
