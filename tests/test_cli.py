"""Harness wiring: suite registry, report formats, CLI contract."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from slicegrowth import algebra
from slicegrowth import suites as suites_mod
from slicegrowth.cli import main
from slicegrowth.errors import SliceAnalysisError
from slicegrowth.reports import Report, render, summary_lines
from slicegrowth.suites import (
    _INVERSE_MULTIPLE,
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
    for suite in ("algebra", "growth-ball", "growth-domain"):
        a = run_suite(suite, small_config(shards=3))
        b = run_suite(suite, small_config(shards=3))
        assert render(a, "json") == render(b, "json"), suite
        # every sharded record accounts for the whole budget across shards;
        # a closed-form agreement record runs one stream of the budget per theta
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


def test_sharded_growth_ball_asserts_only_what_every_shard_checked():
    # at truncation 40 the series' spot-check fails on some shards only;
    # shard 1 of this record reads violated(2/64) while shard 0 reads ok
    cfg = RunConfig(seed=7, samples=60, truncation=40, shards=3, maps=("koebe",))
    reports = {rep.check: rep for rep in run_suite("growth-ball", cfg)}
    rep = reports["growth-ball-koebe-e1-theta0.700"]
    assert rep.data["hypothesis_status"] == "violated(2/192)"
    assert rep.data["asserted"] is False and rep.passed
    # every sharded record counts the spot-checks of all three shards
    for rep in reports.values():
        if rep.check.startswith("growth-ball-"):
            status = rep.data["hypothesis_status"]
            assert status == "ok" or status.endswith("/192)"), status
            assert rep.data["asserted"] == (status == "ok")


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
    parts = [Report.from_error("c", err, 1.0, 10) for err in (0.5, 2.0, 0.1)]
    merged = _merge_shards(parts, ("max_error",))
    assert merged.passed is False
    assert merged.samples == 30
    assert merged.data["max_error"] == 2.0


def test_anticommutation_error_matches_the_pairwise_products():
    # the reference forms e_i e_j + e_j e_i pair by pair through the
    # sign-table product mul_coeffs
    for m in range(1, 9):
        worst = 0.0
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                ei, ej = algebra.CliffordElement.generator(m, i).coeffs, \
                    algebra.CliffordElement.generator(m, j).coeffs
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
        return SimpleNamespace(blocks=table.blocks, d=table.d, enc=table.enc,
                               dec=table.dec * sign)

    for m in (1, 2, 3, 6, 8):
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
    assert runner.invoke(main, ["envelope", "--r-grid", "0.1,banana"]).exit_code == 2
    for theta in ("nan", "inf"):
        result = runner.invoke(main, ["verify", "growth-ball", "--theta", theta])
        assert result.exit_code == 2, (theta, result.output)
        assert "theta must be finite" in result.output
    # envelope validates through RunConfig.validate like verify
    for args in (["--n", "0"], ["--n", "-1"], ["--truncation", "-3"],
                 ["--truncation", "0"], ["--theta", "inf"], ["--theta", "nan"],
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
        return [Report.from_error("forced", 1.0, 1e-12, 1)]

    monkeypatch.setitem(suites_mod.SUITES, "gauge", failing_suite)
    runner = CliRunner()
    out = tmp_path / "fail.json"
    result = runner.invoke(main, ["verify", "gauge", "--out", str(out), "--quiet"])
    assert result.exit_code == 1
    assert json.loads(out.read_text())[0]["pass"] is False


def test_cli_run_without_checks_is_an_error(tmp_path):
    # growth-domain skips unasserted maps, so paper-example alone selects
    # no check: exit 2, naming the suite and options, and no report
    out = tmp_path / "empty.json"
    result = CliRunner().invoke(main, ["verify", "growth-domain", "--map", "paper-example",
                                       "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "verify growth-domain ran no check with --map paper-example" in result.output
    assert not out.exists()


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
    serial = [rep for run in SUITES.values() for rep in run(cfg)]
    assert render(run_suite("all", cfg), "json") == render(serial, "json")
    # the suites ran in forked workers, not in this process
    monkeypatch.setitem(SUITES, "gauge",
                        lambda cfg: [Report("pid", True, 1, {"pid": os.getpid()})])
    assert run_suite("all", cfg)[-1].data["pid"] != os.getpid()


def test_run_all_raises_a_suite_error_as_the_suite_did(monkeypatch):
    # the error crosses back from the worker with its type and message
    def broken_suite(cfg):
        raise SliceAnalysisError("boom")

    monkeypatch.setitem(SUITES, "extremal", broken_suite)
    with pytest.raises(SliceAnalysisError) as info:
        run_suite("all", small_config())
    assert type(info.value) is SliceAnalysisError and str(info.value) == "boom"
    result = CliRunner().invoke(main, ["verify", "all", "--samples", "40",
                                       "--truncation", "40", "--quiet"])
    assert result.exit_code == 1
    assert type(result.exception) is SliceAnalysisError
    assert str(result.exception) == "boom"


@pytest.mark.skipif(_usable_cpus() < 2, reason="the pool needs 2 usable CPUs")
@pytest.mark.parametrize("shards", [1, 3])
def test_pooled_algebra_equals_its_serial_run(shards, monkeypatch):
    cfg = small_config(shards=shards, m=8)
    pooled = render(run_suite("algebra", cfg), "json")
    monkeypatch.setattr(suites_mod, "_usable_cpus", lambda: 1)
    assert render(run_suite("algebra", cfg), "json") == pooled


def test_a_replaced_suite_runs_whole_pooled_or_serial(monkeypatch):
    # an entry of SUITES without a .tasks splitter is one task, so a
    # pooled run calls the replacement as the serial run does
    for name in SUITES:
        monkeypatch.setitem(SUITES, name,
                            lambda cfg, name=name: [Report(name, True, 1, {})])
    cfg = small_config(m=8)
    assert [rep.check for rep in run_suite("algebra", cfg)] == ["algebra"]
    assert [rep.check for rep in run_suite("all", cfg)] == list(SUITES)


@pytest.mark.skipif(_usable_cpus() < 2, reason="the pool needs 2 usable CPUs")
def test_pooled_algebra_runs_each_m_in_a_worker(monkeypatch):
    monkeypatch.setattr(suites_mod, "_algebra_record", lambda cfg, m: [
        Report(f"pid-m{m}", True, 1, {"pid": os.getpid()})])
    reports = run_suite("algebra", small_config(m=3))
    assert [rep.check for rep in reports] == ["pid-m1", "pid-m2", "pid-m3"]
    assert os.getpid() not in {rep.data["pid"] for rep in reports}
    monkeypatch.setattr(suites_mod, "_usable_cpus", lambda: 1)
    assert {rep.data["pid"] for rep in run_suite("algebra", small_config(m=3))} == \
        {os.getpid()}


def test_pooled_suite_raises_a_task_error_as_the_task_did(monkeypatch):
    # one m of the algebra suite fails; its error crosses back from the worker
    record = suites_mod._algebra_record

    def broken_record(cfg, m):
        if m == 2:
            raise SliceAnalysisError("boom at m=2")
        return record(cfg, m)

    monkeypatch.setattr(suites_mod, "_algebra_record", broken_record)
    with pytest.raises(SliceAnalysisError) as info:
        run_suite("algebra", small_config(m=3))
    assert type(info.value) is SliceAnalysisError and str(info.value) == "boom at m=2"
    result = CliRunner().invoke(main, ["verify", "algebra", "--m", "3",
                                       "--samples", "40", "--quiet"])
    assert result.exit_code == 1
    assert type(result.exception) is SliceAnalysisError
    assert str(result.exception) == "boom at m=2"


def test_cli_import_does_not_load_multiprocessing():
    # the pool is imported only by runs of two or more tasks, so interpreter
    # start-up and one-task suites (the pointwise ones) do not pay for it
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, slicegrowth.cli; print('multiprocessing' in sys.modules)\n"
         "from slicegrowth.suites import RunConfig, run_suite\n"
         "for name in ('gauge', 'representation'):\n"
         "    run_suite(name, RunConfig(samples=20))\n"
         "    print('multiprocessing' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"] * 3


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
            "--r-grid", "0.0,0.5", "--truncation", "120", "--out", str(out),
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
    # the tail slack of the checks and of the agreement records
    out = tmp_path / "ball-20.json"
    result = CliRunner().invoke(main, [
        "verify", "growth-ball", "--truncation", "20", "--out", str(out),
        "--quiet",
    ])
    assert result.exit_code == 0, result.output
    records = json.loads(out.read_text())
    agree = [rec for rec in records if rec["check"].startswith("closed-form-")]
    assert len(agree) == 6 and all(rec["pass"] for rec in agree)
    assert all(rec["N"] in (21, 2) for rec in agree)


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
