"""Command-line harness: `slicegrowth verify <suite>` runs the seeded
verification suites and writes machine-readable reports;
`slicegrowth envelope` emits growth-envelope plot data.

Exit codes: 0 all checks pass, 1 at least one check failed (report still
written), 2 usage error (no report written).
"""

from __future__ import annotations

import gc
import sys
import time

import click

from . import geometry, reports, suites
from .algebra import generator

_SEED_ENVVAR = "SLICEGROWTH_SEED"


def _validated(cfg: suites.RunConfig) -> suites.RunConfig:
    """cfg.validate(), with a ValueError reported as a usage error."""
    try:
        return cfg.validate()
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _write_report(text: str, out):
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@click.group()
def main():
    """Numerical verification harness for slice analysis of several
    Clifford variables."""
    # what import built lives until exit; frozen, it is walked by no
    # collection again, neither the one at exit nor a forked worker's
    gc.freeze()


@main.command()
@click.argument("suite", type=click.Choice(suites.SUITE_NAMES))
@click.option("--m", type=int, default=None, help="Generator count (1..8).")
@click.option("--n", type=int, default=None,
              help="Number of slice variables (default 2; extremal sweeps 1 and 2).")
@click.option("--seed", type=int, default=suites.DEFAULT_SEED,
              envvar=_SEED_ENVVAR, show_default=True,
              help=f"RNG seed (env {_SEED_ENVVAR} overrides the default).")
@click.option("--samples", type=int, default=None,
              help="Sample budget override (suite defaults otherwise).")
@click.option("--truncation", type=int, default=suites.RunConfig.truncation, show_default=True,
              help="Order of the truncated series under test: closed-form-* "
                   "references and the stem-koebe-coefficients, stem-star-inverse "
                   "and stem-tail-monotone records.")
@click.option("--r-max", type=float, default=suites.RunConfig.r_max, show_default=True,
              help="Largest sampled radius / gauge value.")
@click.option("--theta", type=float, default=None,
              help="Rotation parameter of the test maps (default: the growth suites "
                   "sweep 0, 0.7 and pi/2; stem, regularity and extremal take 0.7).")
@click.option("--map", default=None,
              help=f"Restrict growth suites to one map: {', '.join(suites.GROWTH_MAPS)}.")
@click.option("--shards", type=int, default=suites.RunConfig.shards, show_default=True,
              help="Split every suite's sample budgets over this many seeded "
                   f"streams, at most {suites.MAX_SHARDS} (deterministic per shard "
                   "count).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Report file (stdout otherwise).")
@click.option("--quiet", is_flag=True, help="Suppress the per-check summary.")
def verify(suite, fmt, out, quiet, **options):
    """Run one verification suite (or `all`) and write its report."""
    cfg = _validated(suites.RunConfig(**options))
    started = time.perf_counter()
    results = suites.run_suite(suite, cfg)
    elapsed = time.perf_counter() - started
    _write_report(reports.render(results, fmt), out)
    if not quiet:
        for line in reports.summary_lines(results):
            click.echo(line, err=True)
        checks = len(suites.suite_tasks(suite, cfg))
        click.echo(f"{suite}: {len(results)} records from {checks} "
                   f"check{'s' * (checks != 1)} in {elapsed:.1f}s", err=True)
    if not all(rep.passed for rep in results):
        sys.exit(1)


@main.command()
@click.option("--map", default=next(iter(suites.GROWTH_MAPS)), show_default=True,
              help=f"A growth map: {', '.join(suites.GROWTH_MAPS)}.")
@click.option("--theta", type=float, default=0.0, show_default=True)
@click.option("--r-grid", default=",".join(f"{r:g}" for r in geometry.RAY_RADII),
              show_default=True, help="Comma-separated radii.")
@click.option("--m", type=int, default=3, show_default=True)
@click.option("--n", type=int, default=2, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def envelope(map, theta, r_grid, m, n, out):
    """Emit growth-envelope rows (r, lower, ||f(-r)||, ||f(r)||, upper)."""
    try:
        radii = [float(tok) for tok in r_grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad --r-grid: {exc}")
    if not radii or any(not 0.0 <= r < 1.0 for r in radii):
        raise click.UsageError("--r-grid values must lie in [0, 1)")
    _validated(suites.RunConfig(m=m, n=n, theta=theta, map=map))

    entry = suites.GROWTH_MAPS[map]
    rows = geometry.envelope_table(entry.map(theta, generator(m, 1), n), entry.family, radii)
    _write_report(reports.rows_to_csv(rows), out)


if __name__ == "__main__":
    main()
