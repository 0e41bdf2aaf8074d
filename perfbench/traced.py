"""Run one workload inside this process, optionally with per-layer tracing.

    python3 perfbench/traced.py --workload NAME --seed N --out DIR [--trace]

Run from the repository root.  Each `slicegrowth verify` invocation of
the workload is made through the click entry point in this process and
writes DIR/report-<i>.json.  DIR/summary.json holds the wall time and
exit code of each invocation and, with --trace, every counter and the
self and total time of every span name.  With --trace the spans
themselves (name, start, end, parent) are kept in memory and written to
DIR/spans.npz when the workload ends.

Tracing wraps every binding of each timed function: a name imported
with `from .algebra import mul_batch` is a separate binding in the
importing module, and patching only the defining module would miss its
calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import WORKLOADS, verify_argv


class Tracer:
    """In-memory span recorder with exact counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.bindings: dict[str, int] = {}

    def _declare(self, label: str, keys=()):
        """Register a span name so it is reported, at zero if never hit."""
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
            for key in ("calls", *keys):
                self.counts[f"{label}.{key}"] += 0

    def spanned(self, fn, labels, pick=None, before=None, after=None):
        """Wrap fn so each call records a span and bumps counters.

        labels: every span name the wrapper may record; pick(args, kwargs)
        chooses one per call (default: the only one).  before maps a
        counter key to f(args, kwargs) and after maps one to f(result);
        each adds its value to `<label>.<key>`.
        """
        before = before or {}
        after = after or {}
        for label in labels:
            self._declare(label, (*before, *after))
        ids = self._ids
        counts, stack = self.counts, self._stack
        name_arr, parent, start, end = self.name, self.parent, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = pick(args, kwargs) if pick else labels[0]
            counts[label + ".calls"] += 1
            for key, amount in before.items():
                counts[f"{label}.{key}"] += amount(args, kwargs)
            idx = len(start)
            name_arr.append(ids[label])
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            for key, amount in after.items():
                counts[f"{label}.{key}"] += amount(result)
            return result

        return wrapper

    def counted(self, fn, key: str):
        """Wrap fn so each call bumps counts[key]; no span."""
        counts = self.counts
        counts[key] += 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        """Counters plus per-name self and total time of the spans."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        name = np.frombuffer(self.name, dtype=np.intc)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        width = len(self.names)
        self_s = np.bincount(name, weights=dur - child, minlength=width)
        total_s = np.bincount(name, weights=dur, minlength=width)
        return {
            "spans": int(dur.size),
            "bindings": self.bindings,
            "counts": dict(sorted(self.counts.items())),
            "self_s": {n: float(v) for n, v in zip(self.names, self_s)},
            "total_s": {n: float(v) for n, v in zip(self.names, total_s)},
        }

    def write_spans(self, path: Path):
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.intc),
                 parent=np.frombuffer(self.parent, dtype=np.intc),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "slicegrowth" or name.startswith("slicegrowth.")]


def _binding_sites(obj):
    """(container, key) of every module-level binding of obj in the
    package, including values of module-level dicts such as SUITES."""
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if value is obj:
                yield vars(mod), key
            elif isinstance(value, dict):
                yield from ((value, k) for k, v in value.items() if v is obj)


def rebind(original, replacement) -> int:
    """Point every binding of original at replacement; returns the count."""
    sites = list(_binding_sites(original))
    for container, key in sites:
        container[key] = replacement
    return len(sites)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(x) -> int:
    """Leading-axis length of a batch argument (1 for a single row)."""
    return 1 if np.ndim(x) < 2 else int(np.shape(x)[0])


def install(tracer: Tracer):
    """Wrap the layer boundaries of the slicegrowth package.

    A boundary the program no longer has raises, so a renamed or removed
    layer cannot read as a layer that got faster.
    """
    from slicegrowth import algebra, geometry, reports, series, slicemaps, slicespace, suites

    def batch_rows(args, kwargs):
        a, b = _arg(args, kwargs, 1, "a"), _arg(args, kwargs, 2, "b")
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        return int(np.prod(shape[:-1], dtype=np.int64))

    def points(args, kwargs):
        return _rows(_arg(args, kwargs, 1, "alpha"))

    def span(*labels, **options):
        return lambda fn: tracer.spanned(fn, labels, **options)

    def count(key):
        return lambda fn: tracer.counted(fn, key)

    def counting_member(oracle_gauge):
        """oracle_gauge whose membership test counts its calls."""
        @functools.wraps(oracle_gauge)
        def wrapper(member, *args, **kwargs):
            member = tracer.counted(member, "geometry.gauge_rho.oracle.member_calls")
            return oracle_gauge(member, *args, **kwargs)
        return wrapper

    mul_labels = tuple(f"algebra.mul_batch.m{m}" for m in range(1, 9))
    gauge_labels = ("geometry.gauge_rho.oracle", "geometry.gauge_rho.closed")
    targets = [
        (algebra, "mul_batch", span(*mul_labels, before={"rows": batch_rows},
                                    pick=lambda a, k: mul_labels[_arg(a, k, 0, "m") - 1])),
        (algebra, "invert_batch", span("algebra.invert_batch", before={
            "rows": lambda a, k: _rows(_arg(a, k, 1, "a"))})),
        (algebra, "mul_coeffs", span("algebra.mul_coeffs")),
        (algebra, "in_sqrt_minus_one", count("algebra.in_sqrt_minus_one.calls")),
        (algebra.CliffordElement, "__init__",
         count("algebra.CliffordElement.init.calls")),
        (slicespace, "make_point", span("slicespace.make_point")),
        (slicespace, "sample_S_batch", span("slicespace.sample_S_batch", before={
            "rows": lambda a, k: int(_arg(a, k, 2, "count"))})),
        (series.StemSeries, "eval_arrays",
         span("series.StemSeries.eval_arrays", before={"points": points})),
        (series, "star_inverse", span("series.star_inverse")),
        (series, "star_mul", span("series.star_mul")),
        (slicemaps.ComplexSeries, "eval",
         span("slicemaps.ComplexSeries.eval")),
        (slicemaps.SliceMap, "eval", span("slicemaps.SliceMap.eval")),
        (slicemaps.SliceMap, "eval_arrays",
         span("slicemaps.SliceMap.eval_arrays", before={"points": points})),
        (slicemaps, "representation_formula", span("slicemaps.representation_formula")),
        (geometry, "gauge_rho", span(*gauge_labels, pick=lambda a, k: gauge_labels[
            _arg(a, k, 0, "g").kind != "oracle"])),
        (geometry, "oracle_gauge", counting_member),
        (geometry, "growth_check_ball", span("geometry.growth_check_ball")),
        (geometry, "growth_check_domain", span("geometry.growth_check_domain")),
        (geometry, "starlike_criterion_slice", span("geometry.starlike_criterion_slice")),
        (reports, "render", span("reports.render", after={
            "bytes": lambda text: len(text.encode("utf-8"))})),
    ]
    tracer.counts["geometry.gauge_rho.oracle.member_calls"] += 0   # 0 if no oracle
    for name, run in suites.SUITES.items():
        targets.append((suites, run.__name__, span(f"suites.{name}")))

    for owner, attr, wrap in targets:
        where = f"{owner.__name__}.{attr}"
        original = vars(owner)[attr]
        if isinstance(owner, type):
            # a method is looked up through its class: one binding
            setattr(owner, attr, wrap(original))
            tracer.bindings[where] = 1
            continue
        tracer.bindings[where] = rebind(original, wrap(original))
        if any(_binding_sites(original)):
            raise RuntimeError(f"unwrapped bindings of {where} remain")


def run_workload(workload: str, seed: int, out: Path) -> dict:
    """Run each invocation of the workload through the CLI entry point."""
    from slicegrowth import cli

    walls, codes = [], []
    for i, args in enumerate(WORKLOADS[workload]):
        argv = verify_argv(args, seed, out / f"report-{i}.json")
        t0 = perf_counter()
        try:
            cli.main(argv, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        walls.append(perf_counter() - t0)
        codes.append(code)
    return {"walls": walls, "exit_codes": codes}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    opts = parser.parse_args()

    sys.path.insert(0, str(Path.cwd() / "src"))
    import slicegrowth.cli  # noqa: F401  (loads every module before patching)

    opts.out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if opts.trace else None
    if tracer:
        install(tracer)
    result = run_workload(opts.workload, opts.seed, opts.out)
    if tracer:
        result.update(tracer.summary())
        tracer.write_spans(opts.out / "spans.npz")
    (opts.out / "summary.json").write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
