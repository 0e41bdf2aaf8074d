"""The pointwise suites draw with one generator call per run of
same-distribution draws; these tests hold them to the stream of drawing
one value at a time, bit for bit, and their reports to independence from
the evaluation block size; the blocked suites' working sets stay bounded."""

import tracemalloc

import numpy as np
import pytest

import slicegrowth.suites as suites
from slicegrowth.algebra import CliffordElement
from slicegrowth.geometry import _gauge_property_draws, growth_check_domain, polydisc_gauge
from slicegrowth.reports import render
from slicegrowth.slicemaps import ClosedFormMap
from slicegrowth.slicespace import make_orbit, sample_S_batch
from slicegrowth.suites import RunConfig, _representation_cases, run_suite


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def representation_reference(rng, m, n, cases, cond_threshold):
    """The representation draws case by case, one generator call per
    value: (alpha, beta, J, K, I, J2, K2, rejected)."""
    rejected = 0

    def draw_pair():
        nonlocal rejected
        while True:
            j_row = sample_S_batch(rng, m, 1)[0]
            k_row = sample_S_batch(rng, m, 1)[0]
            if np.linalg.norm(j_row - k_row) >= cond_threshold:
                return j_row, k_row
            rejected += 1

    drawn = []
    for case in cases:
        o = make_orbit(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
        j_row, k_row = draw_pair()
        i_row = sample_S_batch(rng, m, 1)[0]
        j2, k2 = draw_pair() if case % 10 == 0 else (j_row, k_row)
        drawn.append((o.alpha, o.beta, j_row, k_row, i_row, j2, k2))
    return [np.array(part) for part in zip(*drawn)] + [rejected]


def gauge_reference(rng, m, n, samples, j_budget):
    """The gauge property draws sample by sample, one generator call per
    value."""
    draws = [(sample_S_batch(rng, m, 1)[0], rng.uniform(-1.0, 1.0, n),
              rng.uniform(-1.0, 1.0, n), rng.uniform(0.1, 2.0),
              rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.2, 1.8),
              sample_S_batch(rng, m, j_budget)) for _ in range(samples)]
    *head, j_axial = map(np.array, zip(*draws))
    return head + [j_axial.reshape(samples * j_budget, -1)]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", range(1, 9))
def test_representation_block_draws_keep_the_stream(m, n):
    seed = 100 * m + n
    rejected = 0
    for cases in (np.arange(0, 45), np.arange(95, 131)):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        *expect, ref_rejected = representation_reference(ref_rng, m, n, cases, 1e-3)
        alpha, beta, rows, block_rejected = _representation_cases(rng, m, n, cases, 1e-3)
        for name, want, got in zip(("alpha", "beta", "J", "K", "I", "J2", "K2"),
                                   expect, [alpha, beta, *rows]):
            assert same_bits(got, want), (name, cases[0])
        assert block_rejected == ref_rejected
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        rejected += block_rejected
    if m == 1:
        # J, K in {e1, -e1}: about half the pairs are redrawn
        assert rejected > 10


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", range(1, 9))
def test_gauge_property_draws_keep_the_stream(m, n):
    for samples in (1, 20):
        ref_rng, rng = np.random.default_rng(m + 10 * n), np.random.default_rng(m + 10 * n)
        expect = gauge_reference(ref_rng, m, n, samples, 32)
        got = _gauge_property_draws(rng, m, n, samples, 32)
        for index, (want, have) in enumerate(zip(expect, got)):
            assert same_bits(have, want), index
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("suite", ["representation", "regularity", "algebra"])
def test_reports_do_not_depend_on_the_block_size(suite, monkeypatch):
    options = {"m": 6, "samples": 300} if suite == "algebra" else {"samples": 150}
    for seed in (1, 7):
        cfg = RunConfig(seed=seed, **options)
        reports = []
        for block in (1, 97, suites._BLOCK):
            monkeypatch.setattr(suites, "_BLOCK", block)
            reports.append(render(run_suite(suite, cfg), "json"))
            monkeypatch.undo()
        assert reports[0] == reports[1] == reports[2], seed


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_working_sets_stay_bounded():
    # an m = 5 algebra shard holds its three case arrays (7.7 MB) and one
    # block of checks (12 MB in all); a 10,000-sample polydisc growth record
    # holds its samples and values (7 MB).  Evaluated whole, with operands
    # copied to the full shape, they peaked at about 39 and 18 MB
    rng = np.random.default_rng(5)
    shard = traced_peak(lambda: suites._algebra_shard(5, 0.0, 10_000, rng))
    assert shard < 20e6, shard
    m, n = 3, 2
    e1 = CliffordElement.generator(m, 1)
    f = ClosedFormMap(2, 0.7, e1, 300, n)
    record = traced_peak(lambda: growth_check_domain(
        f, polydisc_gauge(n, m), "starlike", 0.9, 10_000,
        np.random.default_rng(6), e1, 0.7))
    assert record < 10e6, record
