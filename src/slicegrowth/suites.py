"""Verification suites: deterministic, seeded batteries of checks that
produce one report record each.

A suite is a function of the run's config that declares its checks in
report order and runs none of them.  A check, Check(name, budget, run,
tag), gives its records for size samples as run(size, rng).  Declaring
one is free: it makes no draw and builds no series, map or gauge.  A
check's setup sits in run behind functools.cache, so it runs once, in
the process that runs the check, for all its shards.  A record that uses
no samples comes from a check of budget 1: one shard.

Every check runs through one runner, _sharded: shard i of its budget
draws from the stream _rng(cfg, suite, i, tag) of (seed, suite, shard,
check tag).  So reports are byte-identical for a fixed (config, seed,
shard count), and no check's draws depend on the checks run before it.
_merge_shards reduces each field by its reducer in _REDUCERS, sums the
samples and ANDs the verdicts, and a growth record that not every shard
asserted passes (geometry.judge_growth).  Any exception inside a check
becomes its one failed record, <name>-error, and its traceback goes to
stderr; an exception while declaring checks propagates.  Every growth
record comes from one checker, geometry.growth_check_domain.

A check draws its cases in bulk, one generator call per array (alpha and
beta together, the raw normal rows of its J rows, the scalars), and
redraws rejected cases in bulk.  Slice maps are evaluated on coefficient
rows (SliceMap.eval_arrays); the representation and regularity suites
expand their J rows (slicespace.unit_rows) and evaluate their cases in
blocks of _BLOCK (representation takes each map's own cases _BLOCK at a
time, so a block holds one map's rows).  The algebra suite draws and
checks a shard's cases block by block, at most 128 KB per case array,
each block where whole draws would put it (_algebra_case_errors), so its
working set does not grow with its budget; the other suites' case
arrays do.  No report depends on the block size.

run_suite(name, cfg) lists the declared checks of the requested suites
in report order as (suite, index) tasks.  min(tasks, usable CPUs)
forked workers run them when that is 2 or more (_run_forked), and a
loop runs them in process otherwise (one task, one usable CPU or no
os.sched_getaffinity).  Both run a task through _run_task, which
declares its suite again where it runs, so that a forked worker runs
what SUITES held at the fork.  No check's numbers depend on the process
that runs it or on what ran before it, so both give the same bytes.
The workers take task indices from one pipe and send each task's index,
then its records, down pipes of their own; the parent reads those to EOF
and reaps every worker.  A task whose worker died running it becomes its
<name>-error record, with that exit status.  numpy.random, which
each worker would otherwise import at its first draw, is imported
before the fork: the workers then share its pages with the parent, and
the largest worker of `verify all` peaks about 4.7 MB lower.  Import
and serial runs leave numpy.random unloaded until a check draws.

The growth suites read one table, GROWTH_MAPS: each GrowthMap gives a
map's hypothesis family, whether its bounds are asserted, its ShadowMap
map(theta, I, n) and reference(theta, I, N, n, r_max), the truncated
series, coefficient gap and tail bound at r_max that only the
closed-form-* records read.  Both growth suites take one product,
_growth_product: its maps (or cfg.map alone) by the slices of e1 and e12
by the theta sweep.  One builder, _growth_check, names each record
growth-{domain}-{map}-{slice}-theta{theta:.3f}; at theta = 0 that record
also judges the map's sharpness along the domain's extremal ray
(geometry.extremal_ray).  growth-ball takes the product on the ball, with
a closed-form check per (map, slice), and growth-domain on the polydisc.
The CLI reads the table by name, so a new growth map is one entry plus
its reference.  Extremal rays, per-domain assertion and negative
controls join an entry with their first reader (ROADMAP items 8, 3 and
5).  Every other record reads a ShadowMap too, the identity as extremal_map
of p = 0: --truncation reaches only closed-form-* and the series records
stem-koebe-coefficients, stem-star-inverse and stem-tail-monotone.
"""

from __future__ import annotations

import copy
import functools
import io
import math
import os
import pickle
import sys
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import algebra, geometry, series, slicemaps, slicespace
from .algebra import blade, generator
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
    "growth-domain": 1_000,
    "gauge": 200,
}

# each shard has a fixed cost: in process, extremal takes 0.05 s at
# --shards 1, 0.9 s at 64 and 2.9 s at 300 (2-vCPU Xeon VM)
MAX_SHARDS = 64

_GROWTH_THETAS = (0.0, 0.7, np.pi / 2)  # the growth suites' theta sweep without --theta
# cases per batched evaluation or algebra check (fewer from m = 6 up, where
# an algebra block holds at most 128 KB per case array): no evaluation
# temporary grows with the budget
_BLOCK = 512


@dataclass(frozen=True)
class GrowthMap:
    """A map of the growth suites: the hypothesis family whose bounds it
    meets, whether they are asserted, map(theta, I, n), its ShadowMap at
    theta on the slice of I, and reference(theta, I, N, n, r_max), which
    the closed-form-* records compare it with: the truncation-N series of
    that map, its coefficient gap and the bound of the tail the
    truncation drops at radius r_max."""
    family: str
    asserted: bool
    map: Callable[[float, np.ndarray, int], slicemaps.ShadowMap]
    reference: Callable[..., tuple[series.StemSeries, float, float]]


def _extremal(family: str, p: int, asserted: bool) -> GrowthMap:
    """The extremal family of exponent p: slicemaps.extremal_map and its
    star-product series, series.extremal_series, with series.extremal_tail."""
    def reference(theta, I, N, n, r_max):
        stem = series.extremal_series(p, theta, I, N, n)
        return stem, series.coefficient_gap(stem, p, theta, I), series.extremal_tail(p, n, N, r_max)
    return GrowthMap(family, asserted,
                     lambda theta, I, n: slicemaps.extremal_map(p, theta, I, n), reference)


# the maps of the growth suites, in report order.  The degree-two paper
# example fails the convex hypothesis: its bounds are reported, not asserted.
GROWTH_MAPS = {
    "koebe": _extremal("starlike", 2, True),
    "cayley": _extremal("convex", 1, True),
    "paper-example": _extremal("convex", -1, False),
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
    map: Optional[str] = None   # the growth suites' one map; every map if None
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
        if not 1 <= self.shards <= MAX_SHARDS:
            raise ValueError(f"shards must be in 1..{MAX_SHARDS}")
        if self.map is not None and self.map not in GROWTH_MAPS:
            raise ValueError(f"unknown map {self.map!r}, not one of {', '.join(GROWTH_MAPS)}")
        return self

    def budget(self, suite: str) -> int:
        return self.samples if self.samples is not None else _DEFAULT_SAMPLES[suite]


@dataclass(frozen=True)
class Check:
    """A declared check: run(size, rng) gives its records for size of its
    budget's samples, drawn from rng, whose streams tag picks
    (_stable_tag(name) by default).  Its first record is named name."""
    name: str
    budget: int
    run: Callable[[int, np.random.Generator], list[Report]]
    tag: Optional[int] = None


def _rng(cfg: RunConfig, suite: str, shard: int, tag: int):
    return np.random.default_rng([cfg.seed, _SUITE_TAGS[suite], shard, tag])


def _stable_tag(*parts) -> int:
    """Deterministic 31-bit stream tag (the builtin hash is salted)."""
    text = "|".join(str(p) for p in parts)
    return zlib.crc32(text.encode("utf-8")) & 0x7FFFFFFF


def _shard_sizes(total: int, shards: int) -> list[int]:
    """The non-empty shares of total samples over shards streams, the
    first total % shards of them one larger: at most total entries."""
    used = min(shards, total)
    return [total // used + (i < total % used) for i in range(used)]


_ALGEBRA_ERRORS = ("associativity", "anti_automorphism", "involution",
                   "inverse_identity", "anticommutation", "root_square")

def _worst(values: list[float]) -> float:
    """The largest error; a NaN in any place, which the builtin max keeps
    only in the first, makes it NaN."""
    return float(np.max(values))


# a field's reducer over the shards of a check: _worst for an error, sum for
# a count, all for a flag (a growth record is asserted only if every shard's
# spot-check passed); any other field is shard 0's
_REDUCERS = {
    **dict.fromkeys(
        ("max_error", *_ALGEBRA_ERRORS, "inverse_residual", "endpoint_violation",
         "profile_residual", "linearity_residual", "homogeneity_error", "axial_error",
         "value_gap", "coefficient_gap", "max_violation_lower", "max_violation_upper",
         *(f"{form}_form_violation_{side}" for form in ("rho", "norm", "gauge")
           for side in ("lower", "upper")),
         "sharpness_gap", "off_slice_residual"), _worst),
    "rejected_pairs": sum, "membership_mismatches": sum,
    "positive_definite": all, "asserted": all,
    "hypothesis_status": geometry.merge_hypothesis_status,
}


def _merge_shards(parts: list[Report]) -> Report:
    """One record from the per-shard records of one check: each field that
    _REDUCERS names is its reducer over the shards' values, every other
    field is shard 0's, samples are summed and the pass verdicts ANDed.  A
    record that not every shard asserted passes (geometry.judge_growth)."""
    merged = parts[0]
    for key, reduce in _REDUCERS.items():
        if key in merged.data:
            merged.data[key] = reduce([part.data[key] for part in parts])
    merged.samples = sum(part.samples for part in parts)
    merged.passed = all(part.passed for part in parts)
    return geometry.judge_growth(merged)


def _sharded(cfg: RunConfig, suite: str, check: Check) -> list[Report]:
    """The records of check: check.run(size, rng) on each shard of its
    budget, drawing from _rng(cfg, suite, shard, tag), merged over
    _REDUCERS, the first named check.name.  Any exception inside the check
    becomes its one record, <name>-error, and its traceback goes to stderr."""
    tag = _stable_tag(check.name) if check.tag is None else check.tag
    try:
        shards = [check.run(size, _rng(cfg, suite, shard, tag))
                  for shard, size in enumerate(_shard_sizes(check.budget, cfg.shards))]
    except Exception as exc:
        import traceback  # loaded here, not at import: only a failed check uses it
        traceback.print_exc()
        return [Report(f"{check.name}-error", False, 0,
                       {"error": f"{type(exc).__name__}: {exc}"})]
    records = [_merge_shards(list(parts)) for parts in zip(*shards)]
    records[0].check = check.name
    return records


def _re_z1_control(m: int, n: int) -> slicemaps.ShadowMap:
    """Slice map of the shadow g = (Re z_1, 0, ..., 0), of even-odd pair
    (Re z_1, 0): not holomorphic, the control both holomorphy checks must
    detect.  It has no derivatives, so no spot-check reads it."""
    return slicemaps.ShadowMap(generator(m, 1), n,
                               lambda z: np.where(np.arange(n) == 0, z.real, 0.0))


# ---------------------------------------------------------------------------
# algebra suite
# ---------------------------------------------------------------------------

# the inverse's backward error must stay below _INVERSE_MULTIPLE * dim * eps:
# invert_batch inverts spinor blocks of size d = 2**(m//2) <= sqrt(dim) by LU
# (residual of order d eps |M| |M^-1|, Higham 2002, section 14.3), decode sums
# the blocks d nonzeros of E_A per entry and encode as many (half at m = 2..4,
# where the blocks hold 2 dim floats), blocks d <= 2 d, and the check's own
# product adds gamma_dim |a| |a^-1| with |a| |a^-1| >= 1 (the scalar part of
# a a^-1 is a signed dot product of the two rows); the tightest case is
# m = 1, where dim = 2 and the threshold is 4 eps
_INVERSE_MULTIPLE = 2


def _inverse_errors(m: int, a: np.ndarray, inv: np.ndarray, ops: np.ndarray):
    """(normwise backward error, raw residual) of the inverse rows inv of
    the rows a: the largest |a a^{-1} - 1|_max / (|a|_2 |a^{-1}|_2)
    (Higham 2002, section 7.1) and the largest |a a^{-1} - 1|_max.  The
    operators of len(ops) rows at a time are built in the workspace ops.

    The product goes through the sign-table gather (left_matrix_batch),
    not through the spinor kernel that invert_batch and mul_batch share,
    so a fault in that kernel cannot cancel in the check.  Each residual
    coefficient is a dot product of length dim, which adds at most
    gamma_dim |a| |a^-1| (Cauchy-Schwarz) to the inverse's own backward
    error."""
    resid = np.empty_like(a)
    chunk = len(ops)
    for lo in range(0, len(a), chunk):
        hi = min(lo + chunk, len(a))
        ls = algebra.left_matrix_batch(m, a[lo:hi], out=ops[:hi - lo])
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


def _algebra_block_errors(m: int, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                          ops: np.ndarray):
    """(associativity, anti_automorphism, involution, inverse_identity,
    inverse_residual) over the rows of the cases a, b, c, with the
    workspace ops of _inverse_errors."""
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
    return (assoc_err, anti_err, invol_err,
            *_inverse_errors(m, a, algebra.invert_batch(m, a), ops))


def _algebra_case_errors(m: int, count: int, rng) -> np.ndarray:
    """The errors of _algebra_block_errors, maxima over count sampled cases.

    The cases a, b and c are those of three whole draws from rng,
    uniform(-1, 1, (count, dim)) each, checked in blocks of
    min(_BLOCK, 2**14 / dim) rows, 128 KB per case array.  Each block is
    drawn where those draws put it: PCG64 spends one 64-bit word per
    double, so a copy of rng advanced by (k count + lo) dim words yields
    rows lo.. of array k.  rng then advances past all three, as the whole
    draws would.  The blocks and the inverse check's operators (about
    512 KB, which stays in cache) are built in workspaces that every
    block reuses.  Every error is a maximum over rows, so none depends on
    the block size."""
    dim = 1 << m
    rows = min(_BLOCK, (1 << 14) // dim)
    streams = [np.random.Generator(copy.deepcopy(rng.bit_generator).advance(k * count * dim))
               for k in range(3)]
    blocks = np.empty((3, rows, dim))
    ops = np.empty((max(1, (1 << 16) // (dim * dim)), dim, dim))
    worst = np.zeros(5)
    for lo in range(0, count, rows):
        cases = blocks[:, :min(rows, count - lo)]
        for stream, case in zip(streams, cases):
            stream.random(out=case)
        cases *= 2.0
        cases -= 1.0    # -1 + 2U: the bits of uniform(-1, 1)
        worst = np.maximum(worst, _algebra_block_errors(m, *cases, ops))
    rng.bit_generator.advance(3 * count * dim)
    return worst


def _algebra_shard(m: int, pair_err: float, count: int, rng) -> Report:
    """One algebra record from count sampled cases (_algebra_case_errors,
    whose workspaces are freed before the roots draw), with the m-wide
    anticommutation error pair_err (_anticommutation_error) folded in."""
    dim = 1 << m
    assoc_err, anti_err, invol_err, inv_err, inv_resid = map(
        float, _algebra_case_errors(m, count, rng))

    # sampled roots of -1 square to -1
    roots = slicespace.sample_S_batch(rng, m, min(count, 2000))
    sq = algebra.mul_batch(m, roots, roots)
    sq[:, 0] += 1.0
    root_err = float(np.max(np.abs(sq)))

    errors = dict(zip(_ALGEBRA_ERRORS, (assoc_err, anti_err, invol_err, inv_err,
                                        pair_err, root_err)))
    max_error = _worst(list(errors.values()))
    passed = max_error <= 1e-10 and \
        inv_err <= _INVERSE_MULTIPLE * dim * np.finfo(np.float64).eps
    # the raw residual grows like |a| |a^{-1}| eps: reported, not asserted
    return Report(f"algebra-m{m}", passed, count,
                  {"m": m, "max_error": max_error, "threshold": 1e-10, **errors,
                   "inverse_residual": inv_resid})


def algebra_checks(cfg: RunConfig) -> list[Check]:
    total = cfg.budget("algebra")

    def check(m):
        # work per case grows like 4**m; keep large-m batches tractable
        budget = max(200, total // 4 ** (m - 5)) if m > 5 else total
        pair_err = functools.cache(lambda: _anticommutation_error(m))
        return Check(f"algebra-m{m}", budget,
                     lambda size, rng: [_algebra_shard(m, pair_err(), size, rng)], tag=m)
    return [check(m) for m in range(1, (cfg.m or 5) + 1)]


# ---------------------------------------------------------------------------
# stem suite
# ---------------------------------------------------------------------------

def _random_stem(m: int, n: int, rng, degree: int = 5, terms: int = 8) -> series.StemSeries:
    """A stem with the drawn multi-indices of total degree at most degree
    among `terms` draws (a repeated one keeps its last coefficients), or
    the constant term alone if none qualifies; one call per array."""
    ks = rng.integers(0, degree + 1, size=(terms, n)).tolist()
    coeffs = rng.uniform(-1.0, 1.0, size=(terms, n, 1 << m))
    table = {tuple(k): c for k, c in zip(ks, coeffs) if sum(k) <= degree}
    return series.StemSeries(m, n, table or {(0,) * n: coeffs[0]})


def stem_checks(cfg: RunConfig) -> list[Check]:
    m = cfg.m or 3
    n = cfg.n or 2
    count = cfg.budget("stem")
    trunc = cfg.truncation
    theta = cfg.theta if cfg.theta is not None else 0.7
    e1 = generator(m, 1)

    # even-odd pair identity on random stems (exact by construction)
    def even_odd(size, rng):
        stem = _random_stem(m, n, rng)
        alpha, beta = rng.uniform(-0.9, 0.9, (2, size, n))
        f1p, f2p = stem.eval_arrays(alpha, beta)
        f1m, f2m = stem.eval_arrays(alpha, -beta)
        eo_err = _worst([_gap(f1m, f1p), _gap(f2m, -f2p)])
        return [Report.from_error("stem-even-odd", eo_err, 1e-12, size, m=m, n=n)]

    # holomorphy residual via finite differences; sampled away from the
    # boundary so the third derivative keeps the FD error under budget
    def cr_residual(size, rng):
        stem = _random_stem(m, n, rng)
        alpha, beta = rng.uniform(-0.3, 0.3, (2, size, n))
        pairs = (stem.eval_arrays, slicemaps.extremal_map(2, theta, e1, n).stem_arrays)
        worst_cr = _worst([float(np.max(series.cr_residual(f, alpha, beta))) for f in pairs])
        return [Report.from_error("stem-cr-residual", worst_cr, 1e-8, size, m=m, n=n)]

    # the non-holomorphic control must be detected: d Re(z_1)/d conj(z_1) = 1/2
    def cr_control(_, rng):
        control = float(series.cr_residual(_re_z1_control(m, n).stem_arrays,
                                           np.full((1, n), 0.3), np.full((1, n), 0.2))[0])
        return [Report.from_error("stem-cr-control", abs(control - 0.5), 1e-6, 1, m=m, n=n,
                                  control_residual=control)]

    # star-inverse identity through the full truncation order, on
    # 1 + sum_k x^k a_k with |a_k| <= 0.5**(k+1): row k drawn, then scaled;
    # 40 rows are no sample budget, so the check runs one shard
    def star_inverse(_, rng):
        unit = np.zeros((trunc + 1, 1 << m))
        unit[0, 0] = 1.0
        base = np.stack([unit[0], -algebra.slice_exp(e1, theta)])
        inv = series.star_inverse(m, base, trunc)
        ident = series.star_mul(m, base, inv, trunc=trunc)
        rows = rng.uniform(-1.0, 1.0, (40, 1 << m))
        scale = 0.5 ** np.arange(2, 42) / np.maximum(1.0, np.linalg.norm(rows, axis=1))
        rows *= scale[:, None]
        rand_series = np.vstack([unit[:1], rows])
        rinv = series.star_inverse(m, rand_series, trunc)
        rident = series.star_mul(m, rand_series, rinv, trunc=trunc)
        # rinv is exact only through trunc, so its inverse is too
        order = min(40, trunc)
        dbl = series.star_inverse(m, rinv, order)
        ident_err = _worst([_gap(ident, unit), _gap(rident, unit),
                            _gap(dbl, rand_series[:order + 1])])
        return [Report.from_error("stem-star-inverse", ident_err, 1e-10, trunc,
                                  m=m, order=trunc)]

    # coefficient norms of the starlike family: (k+1) exactly
    def koebe_coefficients(_, rng):
        koebe = series.extremal_series(2, theta, e1, trunc, n)
        rows = [koebe.coefficient((p,) + (0,) * (n - 1))[0] for p in range(1, trunc + 2)]
        coeff_err = _worst([abs(float(np.linalg.norm(row)) - p)
                            for p, row in enumerate(rows, 1)])
        return [Report.from_error("stem-koebe-coefficients", coeff_err, 1e-9, trunc + 1,
                                  m=m, n=n)]

    # analytic tail decreases with the truncation order
    def tail_monotone(_, rng):
        orders = sorted({max(10, trunc // 8), max(20, trunc // 4),
                         max(30, trunc // 2), trunc})
        tails = [series.extremal_tail(2, n, N, cfg.r_max) for N in orders]
        monotone = all(t1 >= t2 for t1, t2 in zip(tails, tails[1:]))
        return [Report.from_error("stem-tail-monotone", 0.0 if monotone else 1.0, 0.5,
                                  len(tails), tails=" ".join(f"{t:.3e}" for t in tails))]

    return [Check("stem-even-odd", count, even_odd),
            Check("stem-cr-residual", min(count, 50), cr_residual),
            Check("stem-cr-control", 1, cr_control),
            Check("stem-star-inverse", 1, star_inverse),
            Check("stem-koebe-coefficients", 1, koebe_coefficients),
            Check("stem-tail-monotone", 1, tail_monotone)]


# ---------------------------------------------------------------------------
# representation suite
# ---------------------------------------------------------------------------

def _gap(u: np.ndarray, v: np.ndarray) -> float:
    """Largest coefficient difference between two batches of rows."""
    return float(np.max(np.abs(u - v), initial=0.0))


def _representation_cases(rng, m: int, n: int, count: int, cond_threshold: float):
    """(alpha, beta, raw, rejected) for count representation cases, one
    generator call per array: alpha and beta, the raw normal rows of every
    pair (J, K) and then of a second pair (J2, K2) for each case
    c % 10 == 0, and those of I.  The other cases take J2, K2 = J, K.  The
    pairs whose unit rows are closer than cond_threshold are redrawn
    together, round after round, and rejected counts the redraws.  raw
    stacks the rows of J, K, I, J2, K2: shape (5, count, m)."""
    alpha, beta = rng.uniform(-1.0, 1.0, (2, count, n))
    sub = np.arange(0, count, 10)
    pairs = rng.normal(size=(2, count + sub.size, m))
    raw = np.empty((5, count, m))
    raw[2] = rng.normal(size=(count, m))
    rejected = 0
    close = np.arange(pairs.shape[1])
    while close.size:
        unit = pairs[:, close] / np.linalg.norm(pairs[:, close], axis=-1, keepdims=True)
        close = close[np.linalg.norm(unit[0] - unit[1], axis=-1) < cond_threshold]
        rejected += close.size
        pairs[:, close] = rng.normal(size=(2, close.size, m))
    raw[:2] = raw[3:] = pairs[:, :count]
    raw[3:, sub] = pairs[:, count:]
    return alpha, beta, raw, rejected


def _representation_shard(m: int, n: int, count: int, rng) -> list[Report]:
    """The five representation records, all read from the same count cases."""
    cond_threshold = 1e-3
    rec_formula = functools.partial(slicemaps.representation_formula,
                                    cond_threshold=cond_threshold)

    worst = worst_two_pair = worst_cor = worst_collapse = worst_deriv = 0.0
    maps = [slicemaps.SliceMap(_random_stem(m, n, rng)) for _ in range(8)]
    derivatives = [f.derivative(0) for f in maps]
    alpha, beta, raw, rejected = _representation_cases(rng, m, n, count, cond_threshold)

    # case c uses map c % 8 and runs the sub-checks when c % 10 == 0; each
    # map takes its own cases _BLOCK at a time
    for index, (f, df) in enumerate(zip(maps, derivatives)):
        own = np.arange(index, count, len(maps))
        for lo in range(0, own.size, _BLOCK):
            cases = own[lo:lo + _BLOCK]
            J, K, I, J2, K2 = slicespace.unit_rows(raw[:, cases])
            a, b = alpha[cases], beta[cases]
            direct = f.eval_arrays(a, b, I)
            rec = rec_formula(f, a, b, J, K, I)
            worst = _worst([worst, _gap(rec, direct)])

            s = np.flatnonzero(cases % 10 == 0)
            if s.size == 0:
                continue
            a, b = a[s], b[s]
            rec2 = rec_formula(f, a, b, J2[s], K2[s], I[s])
            worst_two_pair = _worst([worst_two_pair, _gap(rec[s], rec2)])

            cor = slicemaps.two_slice_average(f, a, b, J[s], I[s])
            worst_cor = _worst([worst_cor, _gap(cor, direct[s])])

            collapse = rec_formula(f, a, b, J[s], K[s], J[s])
            worst_collapse = _worst([worst_collapse,
                                     _gap(collapse, f.eval_arrays(a, b, J[s]))])

            rec_d = rec_formula(df, a, b, J[s], K[s], I[s])
            worst_deriv = _worst([worst_deriv, _gap(rec_d, df.eval_arrays(a, b, I[s]))])

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


def representation_checks(cfg: RunConfig) -> list[Check]:
    return [Check("representation-reconstruction", cfg.budget("representation"),
                  functools.partial(_representation_shard, cfg.m or 3, cfg.n or 2))]


# ---------------------------------------------------------------------------
# regularity suite
# ---------------------------------------------------------------------------

def _regularity_series(m: int, n: int, fixed: list, count: int, rng) -> list[Report]:
    """regularity-series on count cases of a drawn map and the maps fixed:
    case c checks map which[c] at alpha + J beta."""
    worst = 0.0
    maps = [slicemaps.SliceMap(_random_stem(m, n, rng)), *fixed]
    which = rng.integers(len(maps), size=count)
    raw = rng.normal(size=(count, m))
    alpha, beta = rng.uniform(-0.4, 0.4, (2, count, n))
    for lo in range(0, count, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        J = slicespace.unit_rows(raw[block])
        for index, f in enumerate(maps):
            r = which[block] == index
            if np.any(r):
                worst = _worst([worst, float(np.max(slicemaps.regularity_residual(
                    f, alpha[block][r], beta[block][r], J[r])))])
    return [Report.from_error("regularity-series", worst, 1e-7, count, m=m, n=n)]


def regularity_checks(cfg: RunConfig) -> list[Check]:
    m = cfg.m or 3
    n = cfg.n or 2
    count = cfg.budget("regularity")
    theta = cfg.theta if cfg.theta is not None else 0.7
    e1 = generator(m, 1)
    fixed = functools.cache(lambda: [slicemaps.extremal_map(p, theta, e1, n) for p in (2, 0)])

    # the constant map and the control share one point: one shard
    def constant(_, rng):
        const = slicemaps.SliceMap(series.StemSeries(
            m, n, {(0,) * n: rng.uniform(-1, 1, size=(n, 1 << m))}))
        a0, b0 = rng.uniform(-0.4, 0.4, (2, 1, n))
        # control with stem F1 = Re(z_1): residual must be O(1), not small
        residual, control_res = (float(slicemaps.regularity_residual(
            g, a0, b0, e1)[0]) for g in (const, _re_z1_control(m, n)))
        return [Report.from_error("regularity-constant", residual, 1e-14, 1, m=m, n=n),
                Report.from_error("regularity-control-detected",
                                  0.0 if control_res > 0.1 else 1.0, 0.5, 1, m=m, n=n,
                                  control_residual=control_res)]

    # holomorphic splitting reassembles the slice restriction
    def splitting(size, rng):
        f = slicemaps.SliceMap(_random_stem(m, n, rng))
        comps, basis = slicemaps.split_components(f, e1)
        x, y = rng.uniform(-0.7, 0.7, (2, size, n))
        worst_split = _gap(slicemaps.reassemble_on_slice(comps, basis, e1, x + 1j * y),
                           f.eval_arrays(x, y, e1))
        return [Report.from_error("regularity-splitting", worst_split, 1e-10, size,
                                  m=m, n=n, components=len(comps))]

    return [Check("regularity-series", count,
                  lambda size, rng: _regularity_series(m, n, fixed(), size, rng)),
            Check("regularity-constant", 1, constant),
            Check("regularity-splitting", min(count, 200), splitting)]


# ---------------------------------------------------------------------------
# extremal suite
# ---------------------------------------------------------------------------

def _extremal_shard(name: str, f: slicemaps.ShadowMap, I: np.ndarray, tol: float,
                    count: int, rng) -> list[Report]:
    """The record of map `name`, f, on an orbit it draws as one row
    (alpha, beta), beta's first nonzero component made positive: one
    evaluation of f at +-I, count roots of -1 and an 11-point u-sweep,
    with c0 and c1 the chord through the norms at +-I
    (geometry.verify_extremal).  Each shard draws its own orbit, so a
    merged record's error fields are maxima over the shards, and c0, c1,
    endpoint_* and sampled_* are shard 0's: their --shards 1 values."""
    alpha, beta = rng.uniform(-0.5, 0.5, (2, 1, f.n))
    nonzero = beta[beta != 0]
    if nonzero.size and nonzero[0] < 0:  # the orbit's canonical sign
        beta = -beta
    rep = geometry.verify_extremal(f, alpha, beta, I, count, rng, tol)
    *head, last = rep.data.items()   # map goes before the last, linearity_residual
    rep.data = dict([*head, ("map", name), last])
    return [rep]


def extremal_checks(cfg: RunConfig) -> list[Check]:
    count = cfg.budget("extremal")
    theta = cfg.theta if cfg.theta is not None else 0.7
    tol = 1e-9

    def check(name, p, m, n, I):
        f = functools.cache(functools.partial(slicemaps.extremal_map, p, theta, I, n))
        return Check(f"extremal-{name}-m{m}-n{n}", count,
                     lambda size, rng: _extremal_shard(name, f(), I, tol, size, rng))

    def skipped(_, rng):
        # the sphere of roots of -1 is {-e1, e1}: no transverse sweep
        return [Report.from_error("extremal-skipped-m1", 0.0, tol, 0, m=1,
                                  note="no orthogonal root of -1 exists for m=1")]

    checks = []
    for m in (cfg.m,) if cfg.m else (2, 3):
        if m < 2:
            checks.append(Check("extremal-skipped-m1", 1, skipped))
            continue
        # the identity is the extremal map of p = 0: x_t (1 - x_t e^{I theta})^0
        maps = [("identity", 0, generator(m, 1)), ("koebe", 2, generator(m, 1))]
        if m == 2:
            maps.append(("koebe-bivector", 2, blade(m, (1, 2))))
        checks += [check(name, p, m, n, I) for n in ((cfg.n,) if cfg.n else (1, 2))
                   for name, p, I in maps]
    return checks


# ---------------------------------------------------------------------------
# growth suites
# ---------------------------------------------------------------------------

def _growth_product(cfg: RunConfig):
    """The (label, entry, iname, I) of every map of GROWTH_MAPS (or of
    cfg.map alone) on the slices of e1 and, for m >= 2, e12, in report
    order, with the theta sweep (cfg.theta alone if given)."""
    m = cfg.m or 3
    slices = [("e1", generator(m, 1))]
    if m >= 2:
        slices.append(("e12", blade(m, (1, 2))))
    thetas = (cfg.theta,) if cfg.theta is not None else _GROWTH_THETAS
    return [(label, entry, iname, I) for label, entry in GROWTH_MAPS.items()
            if cfg.map in (None, label) for iname, I in slices], thetas


def _growth_check(cfg: RunConfig, suite: str, label: str, entry: GrowthMap, iname: str,
                  I: np.ndarray, domain: str, theta: float) -> Check:
    """The record growth-{domain}-{label}-{iname}-theta{theta:.3f}: map label
    at theta on the slice of I, on the domain "ball" or "polydisc", over
    the suite's budget and shards, judged once merged (_merge_shards)."""
    f = functools.cache(functools.partial(entry.map, theta, I, cfg.n or 2))

    def shard(size, rng):
        gauge = geometry.Gauge(domain, f().n, f().m)
        rep = geometry.growth_check_domain(f(), gauge, entry.family, cfg.r_max, size, rng,
                                           theta, 1e-9, entry.asserted)
        rep.data["map"] = label
        return [rep]
    return Check(f"growth-{domain}-{label}-{iname}-theta{theta:.3f}", cfg.budget(suite),
                 shard, _stable_tag(label, iname, f"{theta:.9f}"))


def growth_ball_checks(cfg: RunConfig) -> list[Check]:
    """Per (map, slice) of _growth_product: a ball growth check at each
    theta and the closed-form check of the theta sweep."""
    n = cfg.n or 2
    product, thetas = _growth_product(cfg)

    def closed_form(label, entry, iname, I):
        # the sweep's maps and reference series; the sample-free gap and tail once
        @functools.cache
        def reference():
            stems, gaps, tails = zip(*(entry.reference(theta, I, cfg.truncation, n, cfg.r_max)
                                       for theta in thetas))
            return ([entry.map(theta, I, n) for theta in thetas], stems, thetas,
                    cfg.truncation, _worst(gaps), _worst(tails))

        def run(size, rng):
            agree = geometry.closed_form_agreement(*reference(), cfg.r_max, size, rng)
            agree.data["map"] = label
            return [agree]
        return Check(f"closed-form-{label}-{iname}", min(cfg.budget("growth-ball"), 1000),
                     run, _stable_tag("closed-form", label, iname))

    checks = []
    for label, entry, iname, I in product:
        checks += [_growth_check(cfg, "growth-ball", label, entry, iname, I, "ball", theta)
                   for theta in thetas]
        checks.append(closed_form(label, entry, iname, I))
    return checks


def growth_domain_checks(cfg: RunConfig) -> list[Check]:
    """Per (map, slice) of _growth_product: a polydisc growth check at
    each theta."""
    product, thetas = _growth_product(cfg)
    return [_growth_check(cfg, "growth-domain", label, entry, iname, I, "polydisc", theta)
            for label, entry, iname, I in product for theta in thetas]


def gauge_checks(cfg: RunConfig) -> list[Check]:
    m = cfg.m or 3
    n = cfg.n or 2
    count = cfg.budget("gauge")
    names = ("ball", "polydisc")

    def oracle(name):
        """The bisection oracle wrapping the closed-form membership test."""
        closed = geometry.Gauge(name, n, m)
        return geometry.oracle_gauge(
            lambda a, b, j: geometry.gauge_rho(closed, a, b) < 1.0, n, m)

    def properties(check, gauge):
        return Check(check, max(count // 10, 20), lambda size, rng: [
            geometry.gauge_properties_check(gauge(), size, rng, 1e-12)])

    def bisection(name):
        def run(size, rng):
            j_rows = slicespace.sample_S_batch(rng, m, size)
            alpha, beta = rng.uniform(-1.5, 1.5, (2, size, n))
            worst = _gap(geometry.gauge_rho(oracle(name), alpha, beta, j_rows),
                         geometry.gauge_rho(geometry.Gauge(name, n, m), alpha, beta))
            return [Report.from_error(f"gauge-bisection-{name}", worst, 1e-8, size, m=m, n=n)]
        return Check(f"gauge-bisection-{name}", max(count, 100), run)

    # the oracles' own properties: bisection over a membership test that
    # is not starlike breaks homogeneity and membership equivalence
    return [*(properties(f"gauge-{name}", functools.partial(geometry.Gauge, name, n, m))
              for name in names),
            *(bisection(name) for name in names),
            *(properties(f"gauge-oracle-{name}", functools.partial(oracle, name))
              for name in names)]


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

SUITES = {
    "algebra": algebra_checks,
    "stem": stem_checks,
    "representation": representation_checks,
    "regularity": regularity_checks,
    "extremal": extremal_checks,
    "growth-ball": growth_ball_checks,
    "growth-domain": growth_domain_checks,
    "gauge": gauge_checks,
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def _run_task(cfg: RunConfig, task) -> list[Report]:
    """The records of task (suite name, index of one of its checks), the
    suite declared where the task runs, so that a forked worker runs
    whatever SUITES held at the fork."""
    suite, index = task
    return _sharded(cfg, suite, SUITES[suite](cfg)[index])


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else 1


def suite_tasks(name: str, cfg: RunConfig) -> list[tuple[str, int]]:
    """The declared checks of suite name (every suite for "all") in report
    order, as (suite, index of the check) tasks."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")
    return [(suite, index) for suite in (SUITES if name == "all" else (name,))
            for index in range(len(SUITES[suite](cfg)))]


def _worker(cfg: RunConfig, tasks, queue: int, out: int, inherited) -> None:
    """A forked worker: for each 4-byte index it takes from the pipe queue,
    it pickles the index and then that task's records to the pipe out."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        with os.fdopen(out, "wb") as fh:
            while index := os.read(queue, 4):
                i = int.from_bytes(index, "little")
                pickle.dump(i, fh)
                fh.flush()
                pickle.dump(_run_task(cfg, tasks[i]), fh)
                fh.flush()
        status = 0
    except BaseException:  # a forked copy of the caller must not unwind: its status tells
        import traceback
        traceback.print_exc()
    finally:
        sys.stderr.flush()
        os._exit(status)


def _run_forked(cfg: RunConfig, tasks, workers: int) -> list[list[Report]]:
    """The records of each task, run on `workers` forked workers (_worker).
    A task that no worker returned becomes <check>-error, with the exit
    status of the worker that died running it."""
    queue, fill = os.pipe()  # a 64 KiB pipe holds 16,384 tasks, all in before a fork
    os.write(fill, b"".join(i.to_bytes(4, "little") for i in range(len(tasks))))
    os.close(fill)
    sys.stderr.flush()  # or a worker writes what it holds of it again
    pipes = {}
    try:
        for _ in range(workers):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                _worker(cfg, tasks, queue, write, [read, *(fh.fileno() for fh in pipes.values())])
            os.close(write)
            pipes[pid] = os.fdopen(read, "rb")
        # one pipe holds all of `verify all` (31 KB): none fills while another is read
        streams = {pid: fh.read() for pid, fh in pipes.items()}
    except BaseException:
        import signal
        for pid in pipes:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = {pid: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pipes}
        for fh in pipes.values():
            fh.close()
        os.close(queue)

    def lost(i, error):
        suite, index = tasks[i]
        return [Report(f"{SUITES[suite](cfg)[index].name}-error", False, 0,
                       {"error": f"WorkerExit: {error}"})]

    parts = [None] * len(tasks)
    for pid, stream in streams.items():
        messages = io.BytesIO(stream)
        while messages.tell() < len(stream):
            running = pickle.load(messages)
            try:
                parts[running] = pickle.load(messages)
            except (EOFError, pickle.UnpicklingError):  # its worker died running it
                parts[running] = lost(running, "the worker running it exited with status "
                                               f"{statuses[pid]}")
    return [lost(i, "every worker exited before it ran") if part is None else part
            for i, part in enumerate(parts)]


def run_suite(name: str, cfg: RunConfig) -> list[Report]:
    cfg.validate()
    tasks = suite_tasks(name, cfg)
    workers = min(len(tasks), _usable_cpus())
    if workers < 2:
        parts = [_run_task(cfg, task) for task in tasks]
    else:
        # numpy.random (with secrets, hashlib and OpenSSL) loads before the
        # fork, so the workers share its pages instead of each loading it
        import numpy.random
        parts = _run_forked(cfg, tasks, workers)
    return [rep for part in parts for rep in part]
