"""Run-to-run spread of the end-to-end metrics, to check the benchmark is steady.

    python3 perfbench/spread.py [--runs 10] [--workloads a,b] [--seed0 N] [--seconds S]

Run from the repository root.  Runs perfbench/run.py once per seed and
workload, seeds seed0 .. seed0+runs-1, interleaving the workloads seed by
seed so that drift in machine speed reaches every workload alike.  For
each workload and end-to-end metric it prints the median and the
quartile spread (Q3 - Q1) / median, with quartiles from
statistics.quantiles(values, n=4), next to the metric's bound in
BENCHMARK.json.  Exits 1 if any run is not correct or any spread
exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    opts = parser.parse_args()
    workloads = opts.workloads.split(",")

    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    incorrect = []
    for seed in range(opts.seed0, opts.seed0 + opts.runs):
        for workload in workloads:
            argv = [sys.executable, *spec["command"][1:], "--workload", workload,
                    "--seed", str(seed), "--seconds", str(opts.seconds), "--trace", "0"]
            t0 = time.monotonic()
            proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if not result or not result["correct"]:
                incorrect.append((workload, seed, proc.returncode))
                print(f"{workload} seed {seed}: NOT CORRECT (exit {proc.returncode})",
                      flush=True)
                continue
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {shown} ({time.monotonic() - t0:.0f}s)",
                  flush=True)

    over = []
    print(f"\n{'workload':12s} {'metric':12s} {'median':>10s} {'spread':>7s} "
          f"{'bound':>6s} {'bound/3':>7s}")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            vals = values[workload][metric["name"]]
            if len(vals) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            mark = ""
            if spread > metric["bound"] / 3:
                mark = " over bound/3"
            if spread > metric["bound"]:
                mark = " OVER BOUND"
                over.append((workload, metric["name"]))
            print(f"{workload:12s} {metric['name']:12s} {q2:10.4g} {spread:7.3f} "
                  f"{metric['bound']:6.3f} {metric['bound'] / 3:7.3f}{mark}")

    out = HERE / "results" / f"spread-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": [opts.seed0, opts.seed0 + opts.runs - 1],
                               "seconds": opts.seconds, "values": values,
                               "incorrect": incorrect}, indent=1) + "\n")
    print(f"raw values in {out.relative_to(Path.cwd())}")
    sys.exit(1 if incorrect or over else 0)


if __name__ == "__main__":
    main()
