"""Benchmark of the slicegrowth verification harness.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is used from `src/` without
installation.  The metric names and units are those of BENCHMARK.json.

--trace 0 measures the end-to-end metrics.  One client runs one CLI
child (`python -m slicegrowth.cli verify ...`) at a time, in a closed
loop, for about S seconds and always at least one iteration of the
workload.  Each child's CPU time and peak RSS come from os.wait4 for
that child alone.  Set-up time is the median of several interpreter
starts that import the CLI.

--trace 1 measures the per-layer metrics with a fixed amount of work:
one untraced and two traced in-process passes of the workload
(perfbench/traced.py), each in its own child.  The two traced passes
must give identical counters, and all three passes identical reports.

Every run applies the correctness gate (exit status 0, every record
passing, report bytes identical across repeats of the seed) and checks
that the gate rejects tampered reports.  Progress and every metric go to
stderr, a results file goes to perfbench/results/, and the last line of
stdout is one JSON object {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, verify_argv

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 24      # interpreter starts per run, for the median setup_s
SETUP_EDGE = 8          # of them at least this many before and after the iterations
SETUP_GAP = 2           # and this many between two iterations
RUN_LIMIT_S = 170.0     # children still running then are killed
BLAS_THREADS = "1"      # one BLAS thread keeps CPU time equal to wall time


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Child:
    """Outcome of one child process, accounted for by os.wait4: its CPU
    time and peak RSS are its own, not a maximum over earlier children."""

    def __init__(self, argv, env, deadline):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        self.wall_s = time.perf_counter() - t0
        self.status = proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0   # ru_maxrss is in KiB


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def gate(status: int, report: bytes | None, reference: bytes | None, known_records: int):
    """Judge one CLI invocation.  Returns (records, failed, problems).

    A non-zero exit or an unreadable report fails every check of the
    invocation; known_records stands in for the count of an unwritten one.
    """
    problems = []
    records = None
    if report is not None:
        try:
            records = json.loads(report)
        except ValueError:
            problems.append("report is not valid JSON")
    count = len(records) if isinstance(records, list) else max(known_records, 1)
    failing = [str(rec.get("check")) for rec in records if rec.get("pass") is not True] \
        if isinstance(records, list) else []
    if failing:
        problems.append(f"{len(failing)} of {count} records do not pass: {', '.join(failing)}")
    if status != 0:
        problems.append(f"exit status {status}")
        return count, count, problems
    if records is None:
        problems.append("no report written")
        return count, count, problems
    failed = len(failing)
    if reference is not None and report != reference:
        problems.append("report bytes differ from the first repeat of this seed")
    return count, failed, problems


def negative_controls(reference: bytes) -> list[str]:
    """Feed the gate tampered copies of a good report; each must be rejected.
    Returns the controls the gate wrongly accepted."""
    flipped = reference.replace(b'"pass": true', b'"pass": false', 1)
    # the last digit of the report belongs to a number, so JSON stays valid
    pos = max(i for i, byte in enumerate(reference) if 48 <= byte <= 57)
    edited = reference[:pos] + str((reference[pos] - 47) % 10).encode() \
        + reference[pos + 1:]
    # each control is judged so that only the check it targets can reject it
    controls = {
        "record set to fail": (0, flipped, None),
        "one digit changed": (0, edited, reference),
        "non-zero exit": (1, reference, reference),
        "no report written": (0, None, None),
    }
    return [name for name, (status, data, ref) in controls.items()
            if not gate(status, data, ref, 1)[2]]


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def measure_setup(env, deadline, samples: int) -> list[float]:
    """Wall times of interpreter start plus import of the CLI."""
    argv = [sys.executable, "-c", "import slicegrowth.cli"]
    times = []
    for _ in range(samples):
        child = Child(argv, env, deadline)
        if child.status != 0:
            raise SystemExit("perfbench: importing slicegrowth.cli failed")
        times.append(child.wall_s)
    return times


class Ledger:
    """Gate verdicts and report digests of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[int, bytes] = {}
        self.records: dict[int, int] = {}
        self.sha256: dict[int, str] = {}

    def judge(self, index: int, status: int, path: Path, label: str):
        data = path.read_bytes() if path.exists() else None
        if path.exists():
            path.unlink()
        count, failed, problems = gate(status, data, self.reference.get(index),
                                       self.records.get(index, 0))
        self.attempted += count
        self.failed += failed
        self.problems += [f"{label}: {p}" for p in problems]
        if data is not None and index not in self.reference:
            self.reference[index] = data
            self.records[index] = count
            self.sha256[index] = hashlib.sha256(data).hexdigest()


def run_untraced(workload, seed, seconds, ledger, deadline):
    env = child_env()
    measure_setup(env, deadline, 1)    # warm-up: fills the bytecode cache
    # set-up samples are spread before, between and after the iterations:
    # the machine's speed shifts within seconds, so one burst of samples
    # would time one speed and not the run's
    setup = measure_setup(env, deadline, SETUP_EDGE)
    report = RESULTS / f"report-{workload}.json"
    iterations = []
    t0 = time.monotonic()
    while True:
        children = []
        for i, args in enumerate(WORKLOADS[workload]):
            argv = [sys.executable, "-m", "slicegrowth.cli", *verify_argv(args, seed, report)]
            child = Child(argv, env, deadline)
            ledger.judge(i, child.status, report, f"iteration {len(iterations)} command {i}")
            children.append(child)
        iterations.append({
            "wall_s": sum(c.wall_s for c in children),
            "cpu_s": sum(c.cpu_s for c in children),
            "peak_rss_mb": max(c.peak_rss_mb for c in children),
            "exit_status": [c.status for c in children],
        })
        elapsed = time.monotonic() - t0
        typical = statistics.median(it["wall_s"] for it in iterations)
        if elapsed + typical > seconds or time.monotonic() + 2 * typical > deadline:
            break
        setup += measure_setup(env, deadline, SETUP_GAP)
    metrics = {key: statistics.median(it[key] for it in iterations)
               for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    setup += measure_setup(env, deadline, max(SETUP_SAMPLES - len(setup), SETUP_EDGE))
    metrics["setup_s"] = statistics.median(setup)
    detail = {
        "iterations": iterations,
        "setup_samples_s": setup,
        "wall_s_quartiles": quartiles([it["wall_s"] for it in iterations]),
        "cpu_s_quartiles": quartiles([it["cpu_s"] for it in iterations]),
    }
    return metrics, detail


def run_traced(workload, seed, ledger, deadline):
    env = child_env()
    passes = {}
    # the untraced pass sits between the traced ones, so a steady drift in
    # machine speed cancels out of trace.overhead_s
    for label, flags in (("traced-1", ["--trace"]), ("untraced", []), ("traced-2", ["--trace"])):
        out = RESULTS / f"trace-{workload}" / label
        argv = [sys.executable, str(HERE / "traced.py"), "--workload", workload,
                "--seed", str(seed), "--out", str(out), *flags]
        child = Child(argv, env, deadline)
        summary = out / "summary.json"
        if child.status != 0 or not summary.exists():
            raise SystemExit(f"traced child {label} failed with status {child.status}")
        passes[label] = json.loads(summary.read_text())
        for i, code in enumerate(passes[label]["exit_codes"]):
            ledger.judge(i, code, out / f"report-{i}.json", f"{label} command {i}")

    one, two = passes["traced-1"], passes["traced-2"]
    inexact = sorted(key for key in set(one["counts"]) | set(two["counts"])
                     if one["counts"].get(key) != two["counts"].get(key))
    values = dict(one["counts"])
    for span in one["self_s"]:
        values[f"{span}.self_s"] = (one["self_s"][span] + two["self_s"][span]) / 2
        values[f"{span}.wall_s"] = (one["total_s"][span] + two["total_s"][span]) / 2
    values["representation.pair_accept_ratio"] = pair_accept_ratio(ledger)
    traced_wall = (sum(one["walls"]) + sum(two["walls"])) / 2
    values["trace.overhead_s"] = traced_wall - sum(passes["untraced"]["walls"])
    detail = {
        "untraced_walls_s": passes["untraced"]["walls"],
        "traced_walls_s": [one["walls"], two["walls"]],
        "spans": [one["spans"], two["spans"]],
        "bindings": one["bindings"],
        "inexact_counts": inexact,
    }
    return values, detail


def pair_accept_ratio(ledger) -> float:
    """Accepted over drawn slice pairs of the representation suite, from
    its report: each case draws one pair and every tenth case one more.
    0 when the workload runs no representation suite."""
    for data in ledger.reference.values():
        for rec in json.loads(data):
            if rec.get("check") == "representation-reconstruction" \
                    and "rejected_pairs" in rec:
                cases = rec["samples"]
                accepted = cases + (cases + 9) // 10
                return accepted / (accepted + rec["rejected_pairs"])
    return 0.0


# ---------------------------------------------------------------------------
# environment and entry point
# ---------------------------------------------------------------------------

def git_commit(root: Path):
    """Commit of the checkout, or None outside a git repository."""
    try:
        # --git-dir keeps git from searching the directories above root
        proc = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root: Path, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "seed": seed,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "slicegrowth" / "cli.py").is_file():
        sys.exit("perfbench: run from the repository root; src/slicegrowth is missing")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if opts.trace else "end_to_end"]
    if opts.seconds is None:
        opts.seconds = spec["run_seconds"]
    deadline = time.monotonic() + RUN_LIMIT_S
    RESULTS.mkdir(exist_ok=True)

    ledger = Ledger()
    if opts.trace:
        values, detail = run_traced(opts.workload, opts.seed, ledger, deadline)
    else:
        values, detail = run_untraced(opts.workload, opts.seed, opts.seconds, ledger,
                                      deadline)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        sys.exit(f"perfbench: no value for declared metrics {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    accepted = negative_controls(ledger.reference[0]) if 0 in ledger.reference \
        else ["no report to tamper with"]
    ledger.problems += [f"gate accepted a tampered report ({name})" for name in accepted]
    correct = not ledger.problems

    record = {
        "workload": opts.workload, "seconds": opts.seconds, "trace": opts.trace,
        "environment": environment(root, opts.seed),
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "check_fail_ratio": ledger.failed / max(ledger.attempted, 1),
        "problems": ledger.problems,
        "report_sha256": [ledger.sha256[i] for i in sorted(ledger.sha256)],
        "metrics": metrics, **detail,
    }
    out = RESULTS / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    log = sys.stderr
    print(f"perfbench {opts.workload} seed={opts.seed} trace={opts.trace} "
          f"env={json.dumps(record['environment'])}", file=log)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=log)
    if "wall_s_quartiles" in detail:
        q1, _, q3 = detail["wall_s_quartiles"]
        print(f"  wall_s quartiles {q1:.4g}..{q3:.4g} s over "
              f"{len(detail['iterations'])} iterations", file=log)
    for name in detail.get("inexact_counts", ()):
        print(f"  FLAG: count {name} differs between the two traced passes", file=log)
    print(f"  checks {ledger.attempted}, failed {ledger.failed}, "
          f"check_fail_ratio {record['check_fail_ratio']:.4g}", file=log)
    for digest in record["report_sha256"]:
        print(f"  report sha256 {digest}", file=log)
    for problem in ledger.problems:
        print(f"  GATE: {problem}", file=log)
    print(f"  results in {out.relative_to(root) if out.is_relative_to(root) else out}",
          file=log)
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
