"""Every random check draws its cases in bulk from a stream of its own:
these tests hold the draws to their contract and each check to its own
stream, the reports to independence from the evaluation block size, and
the blocked suites' working sets to a bound."""

import copy
import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

import slicegrowth.geometry as geometry
import slicegrowth.slicemaps as slicemaps
import slicegrowth.suites as suites
from slicegrowth.algebra import generator
from slicegrowth.cli import main
from slicegrowth.geometry import Gauge, gauge_properties_check, growth_check_domain
from slicegrowth.reports import Report, render
from slicegrowth.series import extremal_series, power_sum, side_by_side
from slicegrowth.slicemaps import extremal_map
from slicegrowth.slicespace import unit_rows
from slicegrowth.suites import RunConfig, _random_stem, _representation_cases, _rng, \
    _shard_sizes, _stable_tag, run_suite


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_unit_grade1(rows, count, m):
    assert rows.shape == (count, 1 << m)
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=0, atol=1e-15)
    assert not np.any(np.delete(rows, [1 << i for i in range(m)], axis=1))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", range(1, 9))
def test_representation_block_draws_keep_the_stream(m, n):
    count, cond = 131, 1e-3
    alpha, beta, raw, rejected = _representation_cases(
        np.random.default_rng(100 * m + n), m, n, count, cond)
    assert alpha.shape == beta.shape == (count, n)
    assert np.all(np.abs(alpha) <= 1.0) and np.all(np.abs(beta) <= 1.0)
    J, K, I, J2, K2 = unit_rows(raw)
    for rows in (J, K, I, J2, K2):
        assert_unit_grade1(rows, count, m)
    # every used pair is at least cond_threshold apart
    for a, b in ((J, K), (J2, K2)):
        assert np.min(np.linalg.norm(a - b, axis=1)) >= cond
    # a case c % 10 == 0 draws a second pair; the others reuse (J, K)
    own = np.arange(count) % 10 == 0
    assert same_bits(J2[~own], J[~own]) and same_bits(K2[~own], K[~own])
    assert not np.any(np.all(raw[3:, own] == raw[:2, own], axis=2))
    if m == 1:
        # J, K in {e1, -e1}: about half the pairs are redrawn
        assert rejected > 10
    # the suite reads its cases from the stream of its first record, after
    # the eight stems of its maps, and reports the redraws
    cfg = RunConfig(m=m, n=n, samples=count if m < 7 else 11, seed=m + 10 * n)
    rng = _rng(cfg, "representation", 0, _stable_tag("representation-reconstruction"))
    for _ in range(8):
        _random_stem(m, n, rng)
    expect = _representation_cases(rng, m, n, cfg.samples, cond)[3]
    assert run_suite("representation", cfg)[0].data["rejected_pairs"] == expect


def test_sharded_representation_counts_every_shards_redraws():
    # at m = 1 about half the pairs are redrawn, and each shard redraws the
    # pairs of its own stream
    cfg = RunConfig(m=1, samples=300, shards=3, seed=4)
    expect = 0
    for shard, size in enumerate(_shard_sizes(cfg.samples, cfg.shards)):
        rng = _rng(cfg, "representation", shard, _stable_tag("representation-reconstruction"))
        for _ in range(8):
            _random_stem(1, 2, rng)
        expect += _representation_cases(rng, 1, 2, size, 1e-3)[3]
    rep = run_suite("representation", cfg)[0]
    assert rep.check == "representation-reconstruction"
    assert rep.samples == cfg.samples
    assert rep.data["rejected_pairs"] == expect


def test_every_stream_comes_from_the_shard_runner_once(tmp_path, monkeypatch):
    # one path to the generators: each (suite, shard, tag) stream of a
    # serial run is drawn by _sharded, and by it alone, once
    calls = []
    rng = suites._rng

    def recording_rng(cfg, suite, shard, tag):
        caller = sys._getframe(1)
        while caller.f_code.co_name.startswith("<"):  # a comprehension's frame
            caller = caller.f_back
        calls.append((caller.f_code.co_name, suite, shard, tag))
        return rng(cfg, suite, shard, tag)

    monkeypatch.setattr(suites, "_rng", recording_rng)
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 1)
    result = CliRunner().invoke(main, ["verify", "all", "--shards", "3", "--samples", "200",
                                       "--truncation", "40", "--quiet",
                                       "--out", str(tmp_path / "report.json")])
    assert result.exit_code == 0, result.output
    assert {caller for caller, *_ in calls} == {"_sharded"}
    streams = [call[1:] for call in calls]
    assert len(set(streams)) == len(streams)
    assert {suite for suite, _, _ in streams} == set(suites.SUITES)
    assert {shard for _, shard, _ in streams} == {0, 1, 2}


class RecordingGauge:
    """gauge_rho that records the points and slices it is called with."""

    def __init__(self):
        self.calls = []
        self.gauge_rho = geometry.gauge_rho

    def __call__(self, g, alpha, beta, j_rows=None):
        self.calls.append((np.asarray(alpha), np.asarray(beta), j_rows))
        return self.gauge_rho(g, alpha, beta, j_rows)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", range(1, 9))
def test_gauge_property_draws_keep_the_stream(m, n, monkeypatch):
    samples, j_budget = 20, 32
    recorder = RecordingGauge()
    monkeypatch.setattr(geometry, "gauge_rho", recorder)
    rep = gauge_properties_check(Gauge("ball", n, m), samples,
                                 np.random.default_rng(m + 10 * n))
    assert rep.passed, rep.data
    (a, b, j_elem), _, (a2, b2, j2), (a3, b3, _), (a4, b4, j_axial) = recorder.calls
    # the points in [-1, 1]^2n on the slices J, and the orbits' slices
    assert a.shape == b.shape == (samples, n)
    assert np.all(np.abs(a) <= 1.0) and np.all(np.abs(b) <= 1.0)
    assert_unit_grade1(j_elem, samples, m)
    assert j2 is j_elem
    assert same_bits(a4, np.repeat(a, j_budget, axis=0))
    assert same_bits(b4, np.repeat(b, j_budget, axis=0))
    assert_unit_grade1(j_axial, samples * j_budget, m)
    # t = s e^{J phi} with s in [0.1, 2] and phi in [0, 2 pi)
    z, z2 = a + 1j * b, a2 + 1j * b2
    rho = np.sqrt(np.sum(np.abs(z) ** 2, axis=1))
    s = np.sqrt(np.sum(np.abs(z2) ** 2, axis=1)) / rho
    assert np.all((s >= 0.1 - 1e-12) & (s <= 2.0 + 1e-12))
    phi = np.angle(z2 / (s[:, None] * z)) % (2 * np.pi)
    assert np.allclose(phi, phi[:, :1], atol=1e-9)
    assert np.max(phi) > np.pi > np.min(phi)
    # the scaled point's gauge value is the target, in [0.2, 1.8]
    target = np.sqrt(np.sum(a3 ** 2 + b3 ** 2, axis=1))
    assert np.all((target >= 0.2 - 1e-12) & (target <= 1.8 + 1e-12))
    # the gauge suite's record is the check on its own stream
    monkeypatch.undo()
    cfg = RunConfig(m=m, n=n, samples=200, seed=m)
    fresh = gauge_properties_check(Gauge("ball", n, m), 20,
                                   _rng(cfg, "gauge", 0, _stable_tag("gauge-ball")))
    assert render([run_suite("gauge", cfg)[0]], "json") == render([fresh], "json")


def stub_call(monkeypatch, owner, name: str, index: int, check: str):
    """Replace call `index` of owner.name by a stub that draws 10,000
    normals from the generator it is given and returns a passing record
    named check."""
    real = getattr(owner, name)
    calls = itertools.count()

    def patched(*args):
        if next(calls) != index:
            return real(*args)
        next(arg for arg in args if isinstance(arg, np.random.Generator)).normal(size=10_000)
        return Report.from_error(check, 0.0, 1.0, 1)

    monkeypatch.setattr(owner, name, patched)


@pytest.mark.parametrize("suite, layer, index, check", [
    ("gauge", "gauge_properties_check", 0, "gauge-ball"),
    ("extremal", "verify_extremal", 1, "extremal-koebe-m2-n1"),
])
def test_a_stubbed_check_leaves_the_other_records(suite, layer, index, check, monkeypatch):
    # one stream per check: a check that draws differently moves no other
    # record of its suite
    cfg = RunConfig(samples=200, seed=5)
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 1)  # stub_call counts in process
    before = {rep.check: render([rep], "json") for rep in run_suite(suite, cfg)}
    stub_call(monkeypatch, geometry, layer, index, check)
    after = {rep.check: render([rep], "json") for rep in run_suite(suite, cfg)}
    assert list(after) == list(before)
    assert after.pop(check) != before.pop(check)
    assert after == before


@pytest.mark.parametrize("shards", [1, 3])
def test_an_extremal_record_evaluates_its_map_once_per_shard(shards, monkeypatch):
    # the endpoints +-I, the sampled J and the u-sweep share one call
    calls = itertools.count()
    real = slicemaps.ShadowMap.eval_arrays

    def counted(self, *args):
        next(calls)
        return real(self, *args)

    monkeypatch.setattr(suites, "_usable_cpus", lambda: 1)  # counts in process
    monkeypatch.setattr(slicemaps.ShadowMap, "eval_arrays", counted)
    reports = run_suite("extremal", RunConfig(samples=30, seed=5, shards=shards))
    assert len(reports) == 10 and all(rep.passed for rep in reports)
    assert next(calls) == len(reports) * shards


@pytest.mark.parametrize("suite", ["representation", "regularity", "algebra"])
def test_reports_do_not_depend_on_the_block_size(suite, monkeypatch):
    # at 1000 samples each representation map has 125 cases, more than
    # one block of 97
    options = {"algebra": {"m": 6, "samples": 300}, "representation": {"samples": 1000},
               "regularity": {"samples": 150}}[suite]
    for seed in (1, 7):
        cfg = RunConfig(seed=seed, **options)
        reports = []
        for block in (1, 97, suites._BLOCK):
            monkeypatch.setattr(suites, "_BLOCK", block)
            reports.append(render(run_suite(suite, cfg), "json"))
            monkeypatch.undo()
        assert reports[0] == reports[1] == reports[2], seed


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("m, total", [(1, 2100), (5, 3400), (6, 1700), (8, 300)])
def test_streamed_algebra_draws_equal_whole_draws(m, total, shards, monkeypatch):
    # each shard leaves a short last block (512 rows up to m = 5, 256 at
    # m = 6, 64 at m = 8); the blocks concatenate to the whole draws of a,
    # b and c bit for bit, and the roots draw starts where it started
    # after them, so the generator ends where the whole draws leave it
    dim = 1 << m
    rows = min(suites._BLOCK, (1 << 14) // dim)
    blocks, roots_state = [], []
    sample_roots = suites.slicespace.sample_S_batch

    def recorded(m, a, b, c, ops):
        assert len(a) <= rows
        blocks.append(np.stack([a, b, c]))
        return np.zeros(5)

    def roots(rng, *args):
        roots_state.append(rng.bit_generator.state)
        return sample_roots(rng, *args)

    monkeypatch.setattr(suites, "_algebra_block_errors", recorded)
    monkeypatch.setattr(suites.slicespace, "sample_S_batch", roots)
    for shard, count in enumerate(_shard_sizes(total, shards)):
        assert count % rows, count
        rng = _rng(RunConfig(), "algebra", shard, m)
        whole = np.random.Generator(copy.deepcopy(rng.bit_generator))
        blocks.clear()
        roots_state.clear()
        suites._algebra_shard(m, 0.0, count, rng)
        expected = np.stack([whole.uniform(-1.0, 1.0, size=(count, dim)) for _ in range(3)])
        assert same_bits(np.concatenate(blocks, axis=1), expected), (m, count)
        assert roots_state == [whole.bit_generator.state]
        sample_roots(whole, m, min(count, 2000))
        assert rng.bit_generator.state == whole.bit_generator.state


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_working_sets_stay_bounded():
    # an algebra shard draws its cases block by block, 128 KB per case
    # array, into one buffer, and builds the inverse check's operators in
    # one 512 KB workspace: at m = 5 it held 2.0 MiB from 2,000 cases up
    # (drawn whole, 3.9 MiB at 2,000 cases, 9.8 at 10,000 and 17.1 at
    # 20,000), and at m = 8 2.0 MiB for 200 cases (5.4 drawn whole).
    # Each shard here runs after the algebra tables are built
    MiB = 1 << 20
    suites._algebra_shard(5, 0.0, 10, np.random.default_rng(4))
    suites._algebra_shard(8, 0.0, 10, np.random.default_rng(4))
    small, large = (traced_peak(lambda: suites._algebra_shard(
        5, 0.0, count, np.random.default_rng(5))) for count in (2_000, 20_000))
    assert large - small < 0.5 * MiB, (small, large)
    shard = traced_peak(lambda: suites._algebra_shard(5, 0.0, 10_000, np.random.default_rng(5)))
    assert shard < 3 * MiB, shard
    shard = traced_peak(lambda: suites._algebra_shard(8, 0.0, 200, np.random.default_rng(5)))
    assert shard < 3 * MiB, shard
    # power_sum's two tables hold at most 2**16 numbers (1 MiB): 54 rows of
    # the side-by-side N = 300 Koebe stems, 1.8 MiB with the 0.7 MiB of
    # values of 1,000 points (5.8 MiB in blocks of 256 rows)
    stems = [extremal_series(2, theta, generator(3, 1), 300, 2)
             for theta in (0.0, 0.7, np.pi / 2)]
    kmat, coeffs = side_by_side(stems)
    rng = np.random.default_rng(7)
    z = rng.uniform(-0.6, 0.6, (1000, 2)) + 1j * rng.uniform(-0.6, 0.6, (1000, 2))
    table = traced_peak(lambda: power_sum(kmat, coeffs, z))
    assert table < 2.5 * MiB, table
    # a 10,000-sample polydisc growth record holds its samples and values
    # (7 MB).  Evaluated whole, with operands copied to the full shape, it
    # peaked at about 18 MB
    m, n = 3, 2
    e1 = generator(m, 1)
    f = extremal_map(2, 0.7, e1, n)
    record = traced_peak(lambda: growth_check_domain(
        f, Gauge("polydisc", n, m), "starlike", 0.9, 10_000,
        np.random.default_rng(6), 0.7))
    assert record < 10e6, record
