"""Harness wiring: suite registry, report formats, CLI contract."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from slicegrowth import algebra, geometry, series, slicemaps
from slicegrowth import suites as suites_mod
from slicegrowth.cli import main
from slicegrowth.errors import GaugeError, HypothesisViolationError
from slicegrowth.reports import Report, render, summary_lines
from slicegrowth.suites import (
    _INVERSE_MULTIPLE,
    _REDUCERS,
    Check,
    RunConfig,
    SUITES,
    _algebra_shard,
    _anticommutation_error,
    _merge_shards,
    _shard_sizes,
    _usable_cpus,
    run_suite,
)


def small_config(**kw):
    base = dict(samples=40, truncation=40, seed=123)
    base.update(kw)
    return RunConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(m=9).validate()
    with pytest.raises(ValueError):
        RunConfig(r_max=1.0).validate()
    with pytest.raises(ValueError):
        RunConfig(samples=0).validate()
    with pytest.raises(ValueError):
        RunConfig(maps=("bogus",)).validate()
    with pytest.raises(ValueError):
        RunConfig(theta=float("nan")).validate()
    RunConfig(m=8, samples=10).validate()


def test_every_suite_runs_and_passes_small():
    cfg = small_config()
    for name in SUITES:
        reports = run_suite(name, cfg)
        assert reports, name
        for rep in reports:
            assert rep.passed, (name, rep.check, rep.data)


def test_suite_reports_are_deterministic():
    for name in ("representation", "growth-ball", "gauge"):
        a = render(run_suite(name, small_config()), "json")
        b = render(run_suite(name, small_config()), "json")
        assert a == b


def test_different_seeds_differ():
    a = render(run_suite("representation", small_config(seed=1)), "json")
    b = render(run_suite("representation", small_config(seed=2)), "json")
    assert a != b


def test_shard_merge_is_deterministic():
    # a check that splits less than the whole budget of 40 samples sums to
    # its share; a representation sub-check runs on every tenth case of
    # each shard
    shares = {"stem-cr-residual": min(40, 50), "regularity-splitting": min(40, 200),
              **{f"gauge-{kind}{name}": max(40 // 10, 20)
                 for kind in ("", "oracle-") for name in ("ball", "polydisc")},
              **{f"gauge-bisection-{name}": max(40, 100) for name in ("ball", "polydisc")}}
    whole = ("stem-even-odd", "representation-reconstruction", "regularity-series",
             "extremal-")
    sub = sum((size + 9) // 10 for size in _shard_sizes(40, 3))
    for suite in SUITES:
        a = run_suite(suite, small_config(shards=3))
        b = run_suite(suite, small_config(shards=3))
        assert render(a, "json") == render(b, "json"), suite
        for rep in a:
            if rep.check in shares:
                assert rep.samples == shares[rep.check], rep.check
            elif rep.check.startswith(whole):
                assert rep.samples == 40, rep.check
            elif rep.check.startswith("representation-"):
                assert rep.samples == sub, rep.check
        if suite not in ("algebra", "growth-ball", "growth-domain"):
            continue
        # every sharded record accounts for the whole budget across shards;
        # a closed-form agreement record compares each of its three maps at
        # every point of the budget
        sampled = [rep for rep in a
                   if not rep.check.startswith(("sharpness-", "closed-form-"))]
        assert sampled and all(rep.samples == 40 for rep in sampled), suite
        agree = [rep for rep in a if rep.check.startswith("closed-form-")]
        assert all(rep.samples == 40 * 3 for rep in agree), suite
        assert len(agree) == (6 if suite == "growth-ball" else 0), suite
        # a growth record's spot-check counts the 64 points of every shard
        for rep in sampled:
            status = rep.data.get("hypothesis_status", "ok")
            assert status == "ok" or status.endswith("/192)"), (rep.check, status)
            assert status == "ok" or rep.data["asserted"] is False, rep.check


def test_extremal_runs_only_the_requested_n(tmp_path):
    # without --n the extremal suite sweeps n = 1 and 2; --n 2 runs n = 2
    # alone, with the records the sweep gives it
    sweep = run_suite("extremal", small_config())
    assert {rep.data["n"] for rep in sweep} == {1, 2}
    out = tmp_path / "n2.json"
    result = CliRunner().invoke(main, ["verify", "extremal", "--n", "2", "--samples", "40",
                                       "--truncation", "40", "--seed", "123",
                                       "--out", str(out), "--quiet"])
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text()) == [rep.record() for rep in sweep
                                           if rep.data["n"] == 2]


def test_shard_merge_keeps_algebra_key_order():
    rec = run_suite("algebra", small_config(shards=3, m=2))[0].record()
    assert list(rec) == [
        "check", "m", "max_error", "threshold", "associativity",
        "anti_automorphism", "involution", "inverse_identity",
        "anticommutation", "root_square", "inverse_residual", "samples", "pass",
    ]


def test_sharded_growth_ball_asserts_only_what_every_shard_checked(monkeypatch):
    # the paper example, marked asserted: at theta = 0 its convex criterion
    # (1 - 4x)/(1 - 2x) fails for x in (1/4, 1/2), so at r_max just above 1/4
    # the spot-check fails on some shards only; shard 1 of this record reads
    # violated(1/64) while shards 0 and 2 read ok
    monkeypatch.setitem(suites_mod.GROWTH_MAPS, "paper-example", dataclasses.replace(
        suites_mod.GROWTH_MAPS["paper-example"], asserted=True))
    cfg = RunConfig(seed=5, samples=60, shards=3, r_max=0.26, theta=0.0,
                    maps=("paper-example",))
    reports = {rep.check: rep for rep in run_suite("growth-ball", cfg)}
    rep = reports["growth-ball-paper-example-e1-theta0.000"]
    assert rep.data["hypothesis_status"] == "violated(1/192)"
    assert rep.data["asserted"] is False and rep.passed
    # every sharded record counts the spot-checks of all three shards
    for rep in reports.values():
        if rep.check.startswith("growth-ball-"):
            status = rep.data["hypothesis_status"]
            assert status == "ok" or status.endswith("/192)"), status
            assert rep.data["asserted"] == (status == "ok")


def test_sharded_closed_form_records_compare_coefficients_once(monkeypatch):
    # the coefficient gap draws nothing, so each map of a sweep is compared
    # once, not once per shard of its closed-form-* record
    calls = Counter()
    original = series.coefficient_gap

    def counted(stem, p, theta, I):
        calls[p, theta, I.tobytes()] += 1
        return original(stem, p, theta, I)
    monkeypatch.setattr(series, "coefficient_gap", counted)
    monkeypatch.setattr(suites_mod, "_usable_cpus", lambda: 1)  # counted in this process
    reports = run_suite("growth-ball", small_config(shards=3))
    closed = [rep for rep in reports if rep.check.startswith("closed-form-")]
    # each record's 40 samples per map, over its three shards
    assert len(closed) == 6 and all(rep.passed and rep.samples == 120 for rep in closed)
    # three maps, two directions and three thetas
    assert len(calls) == 18 and set(calls.values()) == {1}, calls


@pytest.mark.parametrize("shards", [1, 3])
def test_closed_form_records_evaluate_their_series_once_per_shard(shards, monkeypatch):
    # the series of a record's theta sweep share one point set and one
    # power_sum call per shard; nothing else in growth-ball reads a series
    calls = Counter()
    original = series.power_sum

    def counted(kmat, coeffs, z):
        calls[coeffs.shape[1], len(z)] += 1
        return original(kmat, coeffs, z)
    for owner in (series, slicemaps, geometry):
        monkeypatch.setattr(owner, "power_sum", counted, raising=False)
    monkeypatch.setattr(suites_mod, "_usable_cpus", lambda: 1)  # counted in this process
    reports = run_suite("growth-ball", small_config(shards=shards))
    assert all(rep.passed for rep in reports)
    # six records, each shard a third of 40 points, three maps of n 2^m columns
    sizes = _shard_sizes(40, shards)
    assert calls == Counter({(3 * 2 * 8, size): 6 * sizes.count(size) for size in sizes})


def test_a_closed_form_sweep_of_other_exponents_is_an_error_record(monkeypatch):
    # the stems of one record share their exponent rows, or the record is
    # its check's error record
    original = series.extremal_series

    def uneven(p, theta, I, N, n):
        return original(p, theta, I, N + (theta > 0), n)
    monkeypatch.setattr(series, "extremal_series", uneven)
    reports = run_suite("growth-ball", small_config(maps=("koebe",)))
    errors = [rep for rep in reports if rep.check.startswith("closed-form-")]
    assert [rep.check for rep in errors] == ["closed-form-koebe-e1-error",
                                             "closed-form-koebe-e12-error"]
    assert all(not rep.passed and rep.data["error"].startswith("DimensionError")
               for rep in errors)


def test_a_nan_in_slice_map_values_fails_every_record_that_reads_them(monkeypatch):
    # one NaN row in every SliceMap.eval_arrays value must reach max_error:
    # an accumulator through the builtin max drops it (max(0.0, nan) is 0.0)
    original = slicemaps.SliceMap.eval_arrays

    def poisoned(self, alpha, beta, j_rows):
        vals = original(self, alpha, beta, j_rows)
        vals[-1] = np.nan
        return vals
    monkeypatch.setattr(slicemaps.SliceMap, "eval_arrays", poisoned)
    monkeypatch.setattr(suites_mod, "_usable_cpus", lambda: 1)  # poisoned in this process
    cfg = RunConfig(seed=20240811, samples=300)
    reports = {rep.check: rep for suite in ("representation", "regularity")
               for rep in run_suite(suite, cfg)}
    for name in ("representation-reconstruction", "representation-two-pair",
                 "representation-average-form", "representation-collapse",
                 "representation-derivative-commutes", "regularity-series"):
        assert not reports[name].passed, name
        assert np.isnan(reports[name].data["max_error"]), (name, reports[name].data)


def _module_bindings(value):
    """(module, name) of every module-level binding of value in the package."""
    return [(module, name) for module_name, module in list(sys.modules.items())
            if module_name.split(".")[0] == "slicegrowth"
            for name, bound in vars(module).items() if bound is value]


@pytest.mark.parametrize("owner, name", [(slicemaps.ShadowMap, "eval_arrays"),
                                         (algebra, "mul_batch"), (geometry, "gauge_rho")],
                         ids=["ShadowMap.eval_arrays", "mul_batch", "gauge_rho"])
def test_a_nan_row_fails_every_asserted_record_whose_check_reads_it(owner, name, monkeypatch):
    # one row of each return value of the evaluator is NaN, through every
    # binding of it; a check that called it must fail each of its asserted
    # records, with a NaN in the field that failed, or as an error record.
    # regularity-constant shares its check with the control, a ShadowMap,
    # but reads only the constant series map
    exempt = {"regularity-constant"} if owner is slicemaps.ShadowMap else set()
    original = vars(owner)[name]
    calls, running = Counter(), [None]

    def poisoned(*args, **kwargs):
        calls[running[0]] += 1
        values = original(*args, **kwargs)
        if np.ndim(values) == 0:
            return np.nan
        values = np.array(values, dtype=np.float64)
        values[-1] = np.nan
        return values
    sites = [(owner, name)] if isinstance(owner, type) else _module_bindings(original)
    for site, attr in sites:
        monkeypatch.setattr(site, attr, poisoned)
    assert not _module_bindings(original)

    sharded, check_of = suites_mod._sharded, {}

    def counted(cfg, suite, check):
        running[0] = check.name
        records = sharded(cfg, suite, check)
        check_of.update((rep.check, check.name) for rep in records)
        return records
    monkeypatch.setattr(suites_mod, "_sharded", counted)
    monkeypatch.setattr(suites_mod, "_usable_cpus", lambda: 1)  # counted in this process
    reports = run_suite("all", RunConfig(seed=20240811, samples=300))

    read = [rep for rep in reports if calls[check_of[rep.check]]
            and rep.data.get("asserted", True)
            and rep.check not in exempt]
    assert len(read) >= 20, [rep.check for rep in read]
    for rep in read:
        nan = [key for key, value in rep.data.items()
               if isinstance(value, float) and np.isnan(value)]
        assert not rep.passed, rep.record()
        assert nan or rep.check.endswith("-error"), rep.record()


def test_declaring_checks_is_free(monkeypatch):
    # a suite declares its checks without drawing or building anything:
    # each check's setup runs where the check runs
    def refuse(*args, **kwargs):
        raise AssertionError("called while declaring checks")
    for owner, name in ((series, "extremal_series"), (series, "power_sum"),
                        (series, "coefficient_gap"),
                        (suites_mod, "_rng"), (suites_mod, "_anticommutation_error"),
                        (geometry, "Gauge"), (slicemaps, "extremal_map")):
        monkeypatch.setattr(owner, name, refuse)
    for name, declare in SUITES.items():
        for cfg in (RunConfig(), RunConfig(m=2, shards=3)):
            assert declare(cfg), name


def test_check_setup_runs_once_per_check(monkeypatch):
    # a check's setup runs once for all its shards: the anticommutation
    # error of each m, and each series a check reads
    calls = Counter()
    for owner, name in ((suites_mod, "_anticommutation_error"), (series, "extremal_series")):
        def counted(*args, _name=name, _original=getattr(owner, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(owner, name, counted)
    monkeypatch.setattr(suites_mod, "_usable_cpus", lambda: 1)  # counted in this process
    run_suite("algebra", small_config(shards=3, m=3))
    assert calls == {"_anticommutation_error": 3}
    # stem-koebe-coefficients and the closed-form-* sweeps of three thetas;
    # regularity and extremal read closed-form maps, no series
    for suite, count in {"stem": 1, "regularity": 0, "extremal": 0, "growth-ball": 18}.items():
        calls.clear()
        run_suite(suite, small_config(shards=3))
        assert calls == Counter(extremal_series=count), suite


def test_shard_plan_has_at_most_total_entries():
    # the plan is the split into `shards` shares with the empty ones dropped
    for total in range(30):
        for shards in range(1, 40):
            base = total // shards
            split = [base + (i < total - base * shards) for i in range(shards)]
            assert _shard_sizes(total, shards) == [s for s in split if s > 0]
    # without ever holding the `shards`-long split (8 MB at 10**6)
    tracemalloc.start()
    try:
        plan = _shard_sizes(3, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan == [1, 1, 1]
    assert peak < 10_000, peak


def test_shard_merge_fails_on_one_failing_shard():
    parts = [Report.from_error("c", err, 1.0, 10, rejected_pairs=count, positive_definite=flag)
             for err, count, flag in ((0.5, 1, True), (2.0, 2, False), (0.1, 4, True))]
    merged = _merge_shards(parts, {"max_error": max, "rejected_pairs": sum,
                                   "positive_definite": all})
    assert merged.passed is False
    assert merged.samples == 30
    assert merged.data["max_error"] == 2.0
    # a count is summed and a flag ANDed over the shards
    assert merged.data["rejected_pairs"] == 7
    assert merged.data["positive_definite"] is False


def test_shard_merge_keeps_a_nan_error():
    # the builtin max keeps a NaN only when it comes first
    for errors in ((1e-12, float("nan")), (float("nan"), 1e-12)):
        parts = [Report.from_error("c", err, 1.0, 10, value_gap=err) for err in errors]
        merged = _merge_shards(parts, _REDUCERS)
        assert np.isnan(merged.data["max_error"]) and np.isnan(merged.data["value_gap"])
        assert merged.passed is False


# the extremal record's fields that are shard 0's by design: each shard
# draws its own orbit, and these read that orbit (suites._extremal_shard)
_SHARD0_FIELDS = {"c0", "c1", "endpoint_max", "endpoint_min", "sampled_max", "sampled_min"}


def test_every_field_that_varies_across_shards_has_a_reducer(monkeypatch):
    # a field whose shards disagree keeps shard 0's value unless _REDUCERS
    # names it: only the extremal orbit's readings may do so
    merge = suites_mod._merge_shards
    unreduced = set()

    def spy(parts, keys):
        for key in parts[0].data:
            values = {repr(part.data.get(key)) for part in parts}   # NaN-safe
            if len(values) > 1 and key not in keys:
                unreduced.add((parts[0].check.split("-")[0], key))
        return merge(parts, keys)

    monkeypatch.setattr(suites_mod, "_merge_shards", spy)
    monkeypatch.setattr(suites_mod, "_usable_cpus", lambda: 1)  # spied in this process
    for extra in ({"seed": 1}, {"seed": 20240811}, {"m": 2, "n": 1}):
        run_suite("all", RunConfig(samples=300, shards=3, **extra))
    assert unreduced <= {("extremal", key) for key in _SHARD0_FIELDS}, unreduced


def test_anticommutation_error_matches_the_pairwise_products():
    # the reference forms e_i e_j + e_j e_i pair by pair through the
    # sign-table product mul_coeffs
    for m in range(1, 9):
        worst = 0.0
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                ei, ej = algebra.generator(m, i), algebra.generator(m, j)
                expect = np.zeros(1 << m)
                expect[0] = -2.0 if i == j else 0.0
                anti = algebra.mul_coeffs(m, ei, ej) + algebra.mul_coeffs(m, ej, ei)
                worst = max(worst, float(np.max(np.abs(anti - expect))))
        assert _anticommutation_error(m) == worst == 0.0, m


def test_algebra_inverse_check_and_its_negative_controls(monkeypatch):
    # the algebra record passes with invert_batch and fails with an inverse
    # perturbed by a relative 1e-12 (a backward error far below the 1e-10
    # of the other fields), with the cone formula conj(a)/n(a) off the
    # cone (exact for m <= 2, where every element is in the cone), and
    # with a spinor decode table whose e1 has the other sign (the check's
    # sign-table product does not go through that table)
    invert = algebra.invert_batch
    spinor = algebra._spinor

    def perturbed(m, a):
        noise = np.random.default_rng(0).choice([-1.0, 1.0], size=a.shape)
        return invert(m, a) * (1 + 1e-12 * noise)

    def cone(m, a):
        return algebra.conj_batch(m, a) / np.sum(a * a, axis=1, keepdims=True)

    def flipped_decode(m):
        table = spinor(m)
        sign = np.where(np.arange(1 << m) & 1, -1.0, 1.0)
        fields = {k: getattr(table, k) for k in table.__slots__}
        return SimpleNamespace(**{**fields, "dec": table.dec * sign})

    for m in (1, 2, 3, 5, 6, 7, 8):
        rng = np.random.default_rng(m)
        pair_err = _anticommutation_error(m)
        assert _algebra_shard(m, pair_err, 200, rng).passed, m
        controls = [("invert_batch", perturbed), ("_spinor", flipped_decode)]
        if m >= 3:
            controls.append(("invert_batch", cone))
        for name, control in controls:
            monkeypatch.setattr(algebra, name, control)
            rep = _algebra_shard(m, pair_err, 200, np.random.default_rng(m))
            monkeypatch.undo()
            assert not rep.passed, (m, control.__name__, rep.data)
            assert rep.data["inverse_identity"] > _INVERSE_MULTIPLE * (1 << m) * \
                np.finfo(np.float64).eps


def test_cli_algebra_inverse_passes_at_large_condition_numbers(tmp_path):
    # the raw residual of this seed's m = 6 inverses is above 1e-10 (their
    # |a| |a^-1| reaches 1e6); it is reported, and the backward error passes
    out = tmp_path / "alg.json"
    result = CliRunner().invoke(main, [
        "verify", "algebra", "--m", "6", "--seed", "1221660105",
        "--out", str(out), "--quiet"])
    assert result.exit_code == 0, result.output
    m6 = json.loads(out.read_text())[-1]
    assert m6["check"] == "algebra-m6" and m6["inverse_residual"] > 1e-10


def test_representation_subcheck_samples_count_cases_run(monkeypatch):
    reports = run_suite("representation", small_config(samples=1))
    assert [rep.samples for rep in reports] == [1, 1, 1, 1, 1]
    # across evaluation blocks each case is reconstructed once, and each
    # sub-check case three more times (two-pair, collapse, derivative)
    import slicegrowth.slicemaps as slicemaps_mod
    rows = []
    formula = slicemaps_mod.representation_formula

    pairs = set()

    def counting(f, alpha, beta, J, K, *args, **kwargs):
        rows.append(len(alpha))
        pairs.update(zip(map(tuple, J), map(tuple, K)))
        return formula(f, alpha, beta, J, K, *args, **kwargs)

    monkeypatch.setattr(slicemaps_mod, "representation_formula", counting)
    reports = run_suite("representation", small_config(samples=300))
    assert [rep.samples for rep in reports] == [300, 30, 30, 30, 30]
    assert sum(rows) == 300 + 3 * 30
    # the two-pair check draws a second pair for each of its cases
    assert len(pairs) == 300 + 30


def test_report_rendering():
    reps = [
        Report.from_error("alpha", 1e-12, 1e-9, 10, m=3),
        Report("beta", False, 5, {"family": "starlike", "max_error": 2.0,
                                  "threshold": 1.0}),
    ]
    blob = json.loads(render(reps, "json"))
    assert blob[0]["check"] == "alpha"
    assert blob[0]["pass"] is True
    assert blob[1]["pass"] is False

    csv_text = render(reps, "csv")
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("check,")
    assert len(lines) == 3
    # 17 significant digits round-trip
    assert "9.9999999999999998e-10" in csv_text or "1e-09" in csv_text

    lines_out = summary_lines(reps)
    assert lines_out[0].startswith("[PASS]")
    assert lines_out[1].startswith("[FAIL]")


def test_csv_keeps_an_error_record_to_the_header_width(monkeypatch):
    # an error message with commas in it, here a tuple, is one quoted cell
    def broken_check(*args):
        series.StemSeries(3, 2, {(1, 0): np.zeros(2)})

    monkeypatch.setattr(geometry, "growth_check_domain", broken_check)
    reports = run_suite("growth-ball", small_config(maps=("paper-example",)))
    rows = list(csv.reader(io.StringIO(render(reports, "csv"))))
    header, body = rows[0], rows[1:]
    assert len(body) == len(reports)
    assert all(len(row) == len(header) for row in body)
    error = dict(zip(header, body[0]))
    assert error["check"] == "growth-ball-paper-example-e1-theta0.000-error"
    assert error["error"] == \
        "DimensionError: coefficient for (1, 0) has shape (2,), want (2, 8)"


def test_cli_verify_pass_and_report(tmp_path):
    runner = CliRunner()
    out = tmp_path / "rep.json"
    result = runner.invoke(main, [
        "verify", "gauge", "--samples", "30", "--truncation", "40",
        "--seed", "7", "--out", str(out), "--quiet",
    ])
    assert result.exit_code == 0, result.output
    blob = json.loads(out.read_text())
    assert all(rec["pass"] for rec in blob)
    assert any(rec["check"].startswith("gauge-bisection") for rec in blob)


def test_cli_usage_errors():
    runner = CliRunner()
    assert runner.invoke(main, ["verify", "algebra", "--m", "9"]).exit_code == 2
    assert runner.invoke(main, ["verify", "nonsense"]).exit_code == 2
    assert runner.invoke(main, ["verify", "growth-ball", "--r-max", "1.5"]).exit_code == 2
    # the shard count is capped, not clamped: a larger one is rejected
    for shards in ("0", "65", "100000"):
        result = runner.invoke(main, ["verify", "extremal", "--shards", shards])
        assert result.exit_code == 2, (shards, result.output)
        assert "shards must be in 1..64" in result.output
    assert runner.invoke(main, ["envelope", "--r-grid", "0.1,banana"]).exit_code == 2
    for theta in ("nan", "inf"):
        result = runner.invoke(main, ["verify", "growth-ball", "--theta", theta])
        assert result.exit_code == 2, (theta, result.output)
        assert "theta must be finite" in result.output
    # a map name that is not in the table, the empty one too, is rejected
    for command in ("verify", "envelope"):
        for name in ("bogus", ""):
            args = [command] + (["growth-ball"] if command == "verify" else [])
            result = runner.invoke(main, args + ["--map", name])
            assert result.exit_code == 2, (command, name, result.output)
            assert f"unknown map {name!r}" in result.output
    # envelope validates through RunConfig.validate like verify
    for args in (["--n", "0"], ["--n", "-1"], ["--theta", "inf"], ["--theta", "nan"],
                 ["--m", "0"], ["--m", "9"]):
        result = runner.invoke(main, ["envelope"] + args)
        assert result.exit_code == 2, (args, result.output)


def test_summary_lines_name_unasserted_checks():
    reps = [
        Report.from_error("growth-ball-koebe", 0.0, 1.0, 10, asserted=False,
                          hypothesis_status="violated(2/64)"),
        Report.from_error("sharpness-paper-example", 5.0, 1e-8, 9,
                          asserted=False),
        Report.from_error("growth-ball-cayley", 0.0, 1.0, 10, asserted=True,
                          hypothesis_status="ok"),
        Report.from_error("stem", 0.0, 1.0, 10),
    ]
    reps[1].passed = True
    lines = summary_lines(reps)
    assert len(lines) == 6
    assert all(line.startswith("[PASS]") for line in lines[:4])
    assert lines[4:] == [
        "[NOT ASSERTED] growth-ball-koebe  hypothesis_status=violated(2/64)",
        "[NOT ASSERTED] sharpness-paper-example",
    ]


def test_cli_seed_envvar(tmp_path):
    runner = CliRunner()
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["verify", "representation", "--samples", "25",
            "--truncation", "30", "--quiet"]
    r1 = runner.invoke(main, args + ["--out", str(out1)],
                       env={"SLICEGROWTH_SEED": "99"})
    r2 = runner.invoke(main, args + ["--out", str(out2), "--seed", "99"])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_failure_exit_code(tmp_path, monkeypatch):
    # an impossible tolerance forces a check failure; report is still written
    def failing_suite(cfg):
        return [Check("forced", 1,
                      lambda size, rng: [Report.from_error("forced", 1.0, 1e-12, 1)])]

    monkeypatch.setitem(suites_mod.SUITES, "gauge", failing_suite)
    runner = CliRunner()
    out = tmp_path / "fail.json"
    result = runner.invoke(main, ["verify", "gauge", "--out", str(out), "--quiet"])
    assert result.exit_code == 1
    assert json.loads(out.read_text())[0]["pass"] is False


def test_cli_all_with_one_map_still_reports(tmp_path):
    out = tmp_path / "all.json"
    result = CliRunner().invoke(main, ["verify", "all", "--map", "paper-example",
                                       "--out", str(out), "--quiet"])
    assert result.exit_code == 0, result.output
    blob = json.loads(out.read_text())
    assert blob and all(rec["pass"] for rec in blob)
    assert any("paper-example" in rec["check"] for rec in blob)


def test_cli_suite_value_error_is_not_a_usage_error(monkeypatch):
    # only config validation maps to exit 2; an error inside a suite does not
    def broken_suite(cfg):
        raise ValueError("internal failure")

    monkeypatch.setitem(suites_mod.SUITES, "gauge", broken_suite)
    result = CliRunner().invoke(main, ["verify", "gauge", "--quiet"])
    assert result.exit_code == 1
    assert isinstance(result.exception, ValueError)


@pytest.mark.skipif(_usable_cpus() < 2, reason="the pool needs 2 usable CPUs")
@pytest.mark.parametrize("shards", [1, 3])
def test_pooled_run_all_equals_serial_concatenation(shards, monkeypatch):
    cfg = small_config(shards=shards)
    serial = [rep for name, declare in SUITES.items() for check in declare(cfg)
              for rep in suites_mod._sharded(cfg, name, check)]
    assert render(run_suite("all", cfg), "json") == render(serial, "json")
    # the checks ran in forked workers, not in this process
    monkeypatch.setitem(SUITES, "gauge", lambda cfg: [Check(
        "pid", 1, lambda size, rng: [Report("pid", True, 1, {"pid": os.getpid()})])])
    assert run_suite("all", cfg)[-1].data["pid"] != os.getpid()


def test_run_all_raises_a_suite_error_as_the_suite_did(monkeypatch):
    # an error while a suite declares its checks, one of the package's too,
    # propagates with its type and message, and no report is written
    for error in (ValueError, GaugeError):
        def broken_suite(cfg):
            raise error("boom")

        monkeypatch.setitem(SUITES, "extremal", broken_suite)
        with pytest.raises(error) as info:
            run_suite("all", small_config())
        assert type(info.value) is error and str(info.value) == "boom"
        result = CliRunner().invoke(main, ["verify", "all", "--samples", "40",
                                           "--truncation", "40", "--quiet"])
        assert result.exit_code == 1
        assert type(result.exception) is error
        assert str(result.exception) == "boom"


@pytest.mark.parametrize("pooled", [
    pytest.param(True, marks=pytest.mark.skipif(
        _usable_cpus() < 2, reason="the pool needs 2 usable CPUs")),
    False,
])
def test_a_check_error_becomes_one_failed_record(pooled, tmp_path, monkeypatch):
    # any error inside one check, sampled or not and from outside the
    # package too, fails that check's one record, <check>-error, in its
    # place; every other record keeps its bytes
    if not pooled:
        monkeypatch.setattr(suites_mod, "_usable_cpus", lambda: 1)
    args = ["verify", "all", "--samples", "40", "--truncation", "40", "--out"]
    result = CliRunner().invoke(main, args + [str(tmp_path / "clean.json"), "--quiet"])
    assert result.exit_code == 0, result.output
    check = geometry.gauge_properties_check

    def broken_check(g, *rest):
        if g.kind == "oracle":
            raise GaugeError("membership never became true along the ray")
        return check(g, *rest)

    def broken_coefficient(stem, key):
        raise ValueError(f"no coefficient {key}")

    monkeypatch.setattr(geometry, "gauge_properties_check", broken_check)
    monkeypatch.setattr(series.StemSeries, "coefficient", broken_coefficient)
    result = CliRunner().invoke(main, args + [str(tmp_path / "broken.json")])
    assert result.exit_code == 1, result.output
    clean, broken = (json.loads((tmp_path / name).read_text())
                     for name in ("clean.json", "broken.json"))
    gauge_error = "GaugeError: membership never became true along the ray"
    errors = {"stem-koebe-coefficients": "ValueError: no coefficient (1, 0)",
              "gauge-oracle-ball": gauge_error, "gauge-oracle-polydisc": gauge_error}
    failed = [i for i, rec in enumerate(clean) if rec["check"] in errors]
    assert len(broken) == len(clean) and len(failed) == len(errors)
    for i in failed:
        assert broken[i] == {"check": clean[i]["check"] + "-error",
                             "error": errors[clean[i]["check"]], "samples": 0, "pass": False}
    assert json.dumps([rec for i, rec in enumerate(broken) if i not in failed]) == \
        json.dumps([rec for i, rec in enumerate(clean) if i not in failed])
    assert f"[FAIL] gauge-oracle-ball-error  {gauge_error}" in result.output
    assert "[FAIL] stem-koebe-coefficients-error  ValueError: no coefficient (1, 0)" in \
        result.output
    if not pooled:
        # the traceback goes to stderr (a worker's stderr is its own)
        assert "Traceback (most recent call last)" in result.output


def test_a_growth_check_error_is_neither_renamed_nor_judged(monkeypatch):
    # an error record has no verdict: it fails even where the map's growth
    # record would not be asserted
    check = geometry.growth_check_domain

    def broken_check(f, gauge, family, r_max, size, rng, theta, *rest):
        if theta == 0.0 and f.I[1] == 1.0:  # the first record's, e1 at theta 0
            raise HypothesisViolationError("values leave the slice")
        return check(f, gauge, family, r_max, size, rng, theta, *rest)

    monkeypatch.setattr(geometry, "growth_check_domain", broken_check)
    reports = run_suite("growth-ball", small_config(shards=3, maps=("paper-example",)))
    assert reports[0].record() == {
        "check": "growth-ball-paper-example-e1-theta0.000-error",
        "error": "HypothesisViolationError: values leave the slice",
        "samples": 0, "pass": False}
    assert reports[1].check == "growth-ball-paper-example-e1-theta0.700"
    assert reports[1].passed and reports[1].data["asserted"] is False


@pytest.mark.skipif(_usable_cpus() < 2, reason="the pool needs 2 usable CPUs")
@pytest.mark.parametrize("shards", [1, 3])
def test_pooled_algebra_equals_its_serial_run(shards, monkeypatch):
    cfg = small_config(shards=shards, m=8)
    pooled = render(run_suite("algebra", cfg), "json")
    monkeypatch.setattr(suites_mod, "_usable_cpus", lambda: 1)
    assert render(run_suite("algebra", cfg), "json") == pooled


def test_a_replaced_suite_runs_whole_pooled_or_serial(monkeypatch):
    # an entry of SUITES declares the checks that run: a pooled run runs
    # every check of the replacement, in order, as the serial run does
    def replacement(name):
        return lambda cfg: [Check(f"{name}-{i}", 1, lambda size, rng: [Report("", True, 1)])
                            for i in range(2)]
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, replacement(name))
    cfg = small_config(m=8)
    assert [rep.check for rep in run_suite("algebra", cfg)] == ["algebra-0", "algebra-1"]
    pooled = render(run_suite("all", cfg), "json")
    assert [rec["check"] for rec in json.loads(pooled)] == \
        [f"{name}-{i}" for name in SUITES for i in range(2)]
    monkeypatch.setattr(suites_mod, "_usable_cpus", lambda: 1)
    assert render(run_suite("all", cfg), "json") == pooled


@pytest.mark.skipif(_usable_cpus() < 2, reason="the pool needs 2 usable CPUs")
def test_pooled_algebra_runs_each_m_in_a_worker(monkeypatch):
    monkeypatch.setattr(suites_mod, "_algebra_shard", lambda m, pair_err, count, rng:
                        Report("pid", True, count, {"pid": os.getpid()}))
    reports = run_suite("algebra", small_config(m=3))
    assert [rep.check for rep in reports] == ["algebra-m1", "algebra-m2", "algebra-m3"]
    assert os.getpid() not in {rep.data["pid"] for rep in reports}
    monkeypatch.setattr(suites_mod, "_usable_cpus", lambda: 1)
    assert {rep.data["pid"] for rep in run_suite("algebra", small_config(m=3))} == \
        {os.getpid()}


def test_pooled_suite_fails_a_check_error_as_the_serial_run_does(monkeypatch):
    # one m of the algebra suite fails: an error inside its check, from
    # outside the package too, fails that check's record alone, with the
    # same bytes pooled or serial
    shard = suites_mod._algebra_shard

    def broken_shard(m, *args):
        if m == 2:
            raise ValueError("boom at m=2")
        return shard(m, *args)

    monkeypatch.setattr(suites_mod, "_algebra_shard", broken_shard)
    pooled = run_suite("algebra", small_config(m=3))
    assert [rep.check for rep in pooled] == ["algebra-m1", "algebra-m2-error", "algebra-m3"]
    assert pooled[1].data == {"error": "ValueError: boom at m=2"}
    result = CliRunner().invoke(main, ["verify", "algebra", "--m", "3",
                                       "--samples", "40", "--quiet"])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    monkeypatch.setattr(suites_mod, "_usable_cpus", lambda: 1)
    assert render(run_suite("algebra", small_config(m=3)), "json") == render(pooled, "json")


@pytest.mark.parametrize("death, status", [
    ("os.kill(os.getpid(), signal.SIGKILL)", -9), ("os._exit(3)", 3)])
def test_a_dead_worker_fails_its_check_and_the_run_goes_on(death, status, tmp_path):
    # a worker that dies inside a check, where no exception can be caught,
    # fails that check's one record with the worker's exit status; the
    # other records keep their bytes, the report is written, the run exits
    # 1 and leaves no child behind.  The run must not wait for the lost task
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    script = (
        "import os, signal, sys\n"
        "from slicegrowth import cli, series, suites\n"
        "suites._usable_cpus = lambda: 2\n"
        "def die(stem, key):\n"
        f"    {death}\n"
        "if sys.argv[1] == 'broken':\n"
        "    series.StemSeries.coefficient = die\n"
        "try:\n"
        "    cli.main(['verify', 'all', '--samples', '40', '--truncation', '40',\n"
        "              '--quiet', '--out', sys.argv[2]], standalone_mode=False)\n"
        "    code = 0\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no child left')\n"
        "print(code)")
    outcomes = {}
    for run in ("clean", "broken"):
        result = subprocess.run([sys.executable, "-c", script, run, str(tmp_path / run)],
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        outcomes[run] = result.stdout.split("\n")[:2]
    assert outcomes == {"clean": ["no child left", "0"], "broken": ["no child left", "1"]}
    clean, broken = (json.loads((tmp_path / run).read_text()) for run in ("clean", "broken"))
    failed = [i for i, rec in enumerate(clean) if rec["check"] == "stem-koebe-coefficients"]
    assert len(broken) == len(clean) and len(failed) == 1
    assert broken[failed[0]] == {
        "check": "stem-koebe-coefficients-error",
        "error": f"WorkerExit: the worker running it exited with status {status}",
        "samples": 0, "pass": False}
    del clean[failed[0]], broken[failed[0]]
    assert json.dumps(broken) == json.dumps(clean)


def test_checks_left_when_every_worker_died_fail_as_never_run(monkeypatch):
    # both workers die in their first check: those two fail with the exit
    # status, and the four checks no worker took fail as never run
    monkeypatch.setattr(suites_mod, "_run_task", lambda cfg, task: os._exit(5))
    monkeypatch.setattr(suites_mod, "_usable_cpus", lambda: 2)
    reports = run_suite("stem", small_config())
    assert [rep.check for rep in reports] == [f"{check.name}-error"
                                              for check in suites_mod.stem_checks(small_config())]
    assert Counter(rep.data["error"] for rep in reports) == {
        "WorkerExit: the worker running it exited with status 5": 2,
        "WorkerExit: every worker exited before it ran": 4}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_import_does_not_load_multiprocessing():
    # no run imports multiprocessing: neither interpreter start-up nor a
    # one-check suite (representation) pays for it, and a run of several
    # checks forks its workers itself
    # (test_pooled_workers_load_no_module_the_parent_lacks)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, slicegrowth.cli; print('multiprocessing' in sys.modules)\n"
         "from slicegrowth.suites import RunConfig, run_suite\n"
         "run_suite('representation', RunConfig(samples=20))\n"
         "print('multiprocessing' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"] * 2


def test_cli_import_does_not_load_numpy_random():
    # numpy.random (with secrets, hashlib and OpenSSL) loads at a check's
    # first draw or before a pool forks, not at start-up; this process
    # has it loaded already, so ask a fresh interpreter
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, slicegrowth.cli; print('numpy.random' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]


@pytest.mark.skipif(_usable_cpus() < 2, reason="the pool needs 2 usable CPUs")
def test_pooled_workers_load_no_module_the_parent_lacks(tmp_path):
    # the parent imports what the checks load before the pool forks, so
    # the workers share those pages instead of each loading its own copy.
    # Each worker writes its sys.modules after every task it runs.  The
    # parent loads no multiprocessing and has reaped every worker
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-c",
         "import os, sys\n"
         "from slicegrowth import suites\n"
         "original = suites._run_task\n"
         "def recording(cfg, task):\n"
         "    reports = original(cfg, task)\n"
         "    with open(os.path.join(sys.argv[1], str(os.getpid())), 'w') as fh:\n"
         "        fh.write('\\n'.join(sys.modules))\n"
         "    return reports\n"
         "suites._run_task = recording\n"
         "suites.run_suite('all', suites.RunConfig(samples=20, truncation=20))\n"
         "try:\n"
         "    os.waitpid(-1, os.WNOHANG)\n"
         "except ChildProcessError:\n"
         "    print('no-child-left')\n"
         "print('\\n'.join(sys.modules))",
         str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    reaped, *names = result.stdout.split()
    parent = set(names)
    assert reaped == "no-child-left" and "multiprocessing" not in parent
    workers = {path.name: set(path.read_text().split()) for path in tmp_path.iterdir()}
    assert len(workers) >= 2 and str(os.getpid()) not in workers
    assert {pid: sorted(modules - parent) for pid, modules in workers.items()} == \
        {pid: [] for pid in workers}


def test_only_the_cli_freezes_the_heap(tmp_path):
    # importing the CLI and running a suite as a library leave the
    # collector alone; a CLI run freezes what import built before any
    # check runs, and its summary counts records and declared checks
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = tmp_path / "rep.json"
    result = subprocess.run(
        [sys.executable, "-c",
         "import gc, sys, slicegrowth.cli\n"
         "from slicegrowth.suites import RunConfig, run_suite\n"
         "run_suite('representation', RunConfig(samples=50))\n"
         "print(gc.get_freeze_count())\n"
         "slicegrowth.cli.main(['verify', 'representation', '--samples', '50',\n"
         "                      '--out', sys.argv[1]], standalone_mode=False)\n"
         "print(gc.get_freeze_count())\n"
         "slicegrowth.cli.main(['verify', 'all', '--samples', '20', '--truncation', '20',\n"
         "                      '--out', sys.argv[1]], standalone_mode=False)",
         str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    before, after = map(int, result.stdout.split())
    assert before == 0 < after
    summaries = [line for line in result.stderr.splitlines()
                 if line.startswith(("representation:", "all:"))]
    assert summaries[0].startswith("representation: 5 records from 1 check in ")
    records = len(json.loads(out.read_text()))
    declared = sum(len(declare(RunConfig(samples=20, truncation=20)))
                   for declare in SUITES.values())
    assert records > declared
    assert summaries[1].startswith(f"all: {records} records from {declared} checks in ")


def test_representation_evaluates_each_maps_cases_in_one_batch(monkeypatch):
    # at 3000 samples each of the 8 maps has 375 cases, one block of
    # _BLOCK: one reconstruction per map and three more for the four maps
    # of even index, whose cases include the sub-check cases c % 10 == 0
    calls = Counter()
    formula = slicemaps.representation_formula
    eval_arrays = slicemaps.SliceMap.eval_arrays

    def counting_formula(*args, **kwargs):
        calls["representation_formula"] += 1
        return formula(*args, **kwargs)

    def counting_eval(self, *args, **kwargs):
        calls["eval_arrays"] += 1
        assert len(args[0]) <= suites_mod._BLOCK
        return eval_arrays(self, *args, **kwargs)

    monkeypatch.setattr(slicemaps, "representation_formula", counting_formula)
    monkeypatch.setattr(slicemaps.SliceMap, "eval_arrays", counting_eval)
    reports = run_suite("representation", RunConfig(seed=20240811, samples=3000))
    assert all(rep.passed for rep in reports)
    assert calls == {"representation_formula": 20, "eval_arrays": 64}


def test_a_new_growth_map_is_one_table_entry(monkeypatch, tmp_path):
    # an entry added to GROWTH_MAPS alone gets its growth, sharpness and
    # closed-form records and its envelope through the CLI.  Koebe's shadow
    # scaled by 1.01 keeps Koebe's spot-check and reference series, and its
    # sharpness records leave the envelopes along the extremal ray
    koebe = suites_mod.GROWTH_MAPS["koebe"]

    def scaled(theta, I, n):
        f = koebe.map(theta, I, n)
        return slicemaps.ShadowMap(I, n, *(lambda z, h=h: 1.01 * h(z)
                                           for h in (f.g, f.dg, f.d2g)))
    monkeypatch.setitem(suites_mod.GROWTH_MAPS, "koebe-scaled",
                        dataclasses.replace(koebe, map=scaled))
    out = tmp_path / "scaled.json"
    result = CliRunner().invoke(main, ["verify", "growth-ball", "--map", "koebe-scaled",
                                       "--samples", "40", "--truncation", "40",
                                       "--out", str(out), "--quiet"])
    assert result.exit_code == 1, result.output
    records = json.loads(out.read_text())
    assert [rec["check"] for rec in records] == [
        name for iname in ("e1", "e12") for name in (
            *(f"growth-ball-koebe-scaled-{iname}-theta{theta}"
              for theta in ("0.000", "0.700", "1.571")),
            f"sharpness-koebe-scaled-{iname}", f"closed-form-koebe-scaled-{iname}")]
    assert all(rec["map"] == "koebe-scaled" for rec in records)
    for rec in records:
        if rec["check"].startswith("sharpness-"):
            assert not rec["pass"] and rec["raw_gap"] > 1e-3, rec
        elif rec["check"].startswith("growth-"):
            assert rec["hypothesis_status"] == "ok" and rec["asserted"], rec
    env = tmp_path / "env.csv"
    result = CliRunner().invoke(main, ["envelope", "--map", "koebe-scaled", "--r-grid", "0.5",
                                       "--out", str(env)])
    assert result.exit_code == 0, result.output
    row = [float(v) for v in env.read_text().split("\n")[1].split(",")]
    assert row[3] == pytest.approx(1.01 * _HALF_ROWS["koebe"][2], rel=1e-12)


# map -> (lower, ||f(-1/2)||, ||f(1/2)||, upper) at r = 1/2, theta = 0
_HALF_ROWS = {
    "koebe": (0.5 / 2.25, 0.5 / 2.25, 2.0, 2.0),
    "cayley": (1 / 3, 1 / 3, 1.0, 1.0),
    "paper-example": (1 / 3, 0.75, 0.25, 1.0),  # x (1 - x) is not convex
}


def test_cli_envelope(tmp_path):
    runner = CliRunner()
    for map_name, expected in _HALF_ROWS.items():
        out = tmp_path / f"env-{map_name}.csv"
        result = runner.invoke(main, [
            "envelope", "--map", map_name, "--theta", "0.0",
            "--r-grid", "0.0,0.5", "--out", str(out),
        ])
        assert result.exit_code == 0, (map_name, result.output)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "r,lower_bound,f_at_minus_r,f_at_plus_r,upper_bound"
        zero_row = [float(v) for v in lines[1].split(",")]
        assert zero_row == [0.0, 0.0, 0.0, 0.0, 0.0]
        half_row = [float(v) for v in lines[2].split(",")]
        assert half_row[0] == 0.5
        assert half_row[1:] == pytest.approx(expected, abs=1e-12), map_name
        # monotone in r
        assert half_row[1] > zero_row[1] and half_row[4] > zero_row[4]


def test_cli_csv_format(tmp_path):
    runner = CliRunner()
    # truncation 20 sits below the order-40 double inverse of stem-star-inverse
    for trunc in ("40", "20"):
        out = tmp_path / f"rep-{trunc}.csv"
        result = runner.invoke(main, [
            "verify", "stem", "--samples", "30", "--truncation", trunc,
            "--format", "csv", "--out", str(out), "--quiet",
        ])
        assert result.exit_code == 0, (trunc, result.output)
        text = out.read_text()
        assert text.startswith("check,")
        assert "stem-even-odd" in text


def test_cli_growth_ball_short_truncation(tmp_path):
    # the closed form is exact, so a short reference series only widens
    # the tail slack of the agreement records, the one reader of the series
    out = tmp_path / "ball-20.json"
    result = CliRunner().invoke(main, [
        "verify", "growth-ball", "--truncation", "20", "--out", str(out),
        "--quiet",
    ])
    assert result.exit_code == 0, result.output
    records = json.loads(out.read_text())
    agree = [rec for rec in records if rec["check"].startswith("closed-form-")]
    assert len(agree) == 6 and all(rec["pass"] for rec in agree)
    assert all(rec["N"] == 20 for rec in agree)


@pytest.mark.parametrize("truncation", [20, 300])
def test_closed_form_records_report_their_truncation(truncation):
    # N is the order of the reference series that the tail bound reads, for
    # every map: not the series' degree, N + 1 for koebe and cayley and 2
    # for the paper example, which is exact at any N
    closed = [rep for rep in run_suite("growth-ball", small_config(truncation=truncation))
              if rep.check.startswith("closed-form-")]
    assert len(closed) == 6 and all(rep.data["N"] == truncation for rep in closed)


# the records whose subject is the truncated series itself
_SERIES_RECORDS = ("closed-form-", "stem-koebe-coefficients", "stem-star-inverse",
                   "stem-tail-monotone")


@pytest.mark.parametrize("shards", [1, 3])
def test_truncation_moves_only_the_closed_form_records(shards):
    # every other record of every suite reads closed-form maps or stems of
    # its own: its bytes are the same at every truncation, and only the
    # records of the series, closed-form-* and three stem records, may differ
    def other_bytes(truncation):
        reports = run_suite("all", small_config(truncation=truncation, shards=shards))
        assert sum(rep.check.startswith(_SERIES_RECORDS) for rep in reports) == 9
        return render([rep for rep in reports
                       if not rep.check.startswith(_SERIES_RECORDS)], "json")
    reference = other_bytes(300)
    assert '"N"' not in reference and '"tail_bound"' not in reference
    for truncation in (1, 40):
        assert other_bytes(truncation) == reference, truncation


def test_koebe_is_asserted_at_truncation_one(tmp_path):
    # the spot-check reads the map's own derivatives, not a one-term series
    out = tmp_path / "koebe-1.json"
    result = CliRunner().invoke(main, [
        "verify", "growth-ball", "--truncation", "1", "--theta", "0", "--map", "koebe",
        "--out", str(out), "--quiet"])
    assert result.exit_code == 0, result.output
    records = {rec["check"]: rec for rec in json.loads(out.read_text())}
    for direction in ("e1", "e12"):
        rec = records[f"growth-ball-koebe-{direction}-theta0.000"]
        assert rec["hypothesis_status"] == "ok" and rec["asserted"] and rec["pass"], rec
        assert rec["threshold"] == 1e-9, rec


@pytest.mark.parametrize("options", [{}, {"m": 1}, {"theta": 0.3}])
def test_growth_checks_run_each_map_domain_slice_and_theta_once(options):
    # the growth checks of `verify all` are the product of the maps, the
    # ball and the polydisc, the slices (e1 alone at m = 1) and the theta
    # sweep, each on a stream of its own
    cfg = RunConfig(**options)
    slices = ("e1",) if cfg.m == 1 else ("e1", "e12")
    thetas = (cfg.theta,) if cfg.theta is not None else suites_mod._GROWTH_THETAS
    expected = [f"growth-{domain}-{label}-{iname}-theta{theta:.3f}"
                for label in suites_mod.GROWTH_MAPS for domain in ("ball", "polydisc")
                for iname in slices for theta in thetas]
    checks = [(suite, SUITES[suite](cfg)[index])
              for suite, index in suites_mod.suite_tasks("all", cfg)]
    growth = [(suite, check) for suite, check in checks if check.name.startswith("growth-")]
    assert Counter(check.name for _, check in growth) == Counter(expected)
    assert len(set(expected)) == len(expected)
    assert len({(suite, check.tag) for suite, check in growth}) == len(growth)


def test_short_truncation_asserts_every_starlike_and_convex_record():
    # at truncation 40 a spot-check on the series read violated(k/64) on
    # nine koebe and cayley records, which were then not asserted; the map's
    # shadow asserts every koebe and cayley growth record of both domains
    prefixes = tuple(f"growth-{domain}-{label}-" for domain in ("ball", "polydisc")
                     for label in ("koebe", "cayley"))
    growth = [rep for rep in run_suite("all", RunConfig(seed=7, samples=40, truncation=40))
              if rep.check.startswith(prefixes)]
    assert len(growth) == 2 * 2 * 2 * 3
    for rep in growth:
        assert rep.data["hypothesis_status"] == "ok", (rep.check, rep.data)
        assert rep.data["asserted"] and rep.passed, (rep.check, rep.data)


def test_growth_ball_evaluates_no_series(monkeypatch):
    # the closed-form-* records evaluate their reference series through
    # series.power_sum; nothing in growth-ball evaluates a ComplexSeries
    calls = Counter()
    original = slicemaps.ComplexSeries.eval

    def counted(self, z):
        calls["eval"] += 1
        return original(self, z)
    monkeypatch.setattr(slicemaps.ComplexSeries, "eval", counted)
    reports = run_suite("growth-ball", small_config())
    assert reports and all(rep.passed for rep in reports)
    assert calls["eval"] == 0


def test_traced_benchmark_finds_every_layer_boundary():
    # perfbench/traced.py wraps named functions of the package and raises
    # when one is gone; install() patches the package, so run it in a child
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    result = subprocess.run(
        [sys.executable, "-c",
         "import slicegrowth.cli, traced; traced.install(traced.Tracer())"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
