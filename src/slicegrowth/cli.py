"""Command-line harness: `slicegrowth verify <suite>` runs the seeded
verification suites and writes machine-readable reports;
`slicegrowth envelope` emits growth-envelope plot data.

Exit codes: 0 all checks pass, 1 at least one check failed (report still
written), 2 usage error or a run that selects no check (no report
written).
"""

from __future__ import annotations

import sys
import time

import click

from . import geometry, reports, slicemaps, suites
from .algebra import CliffordElement

_SEED_ENVVAR = "SLICEGROWTH_SEED"


def _build_config(m, n, seed, samples, truncation, r_max, theta, map_, domain,
                  shards) -> suites.RunConfig:
    return _validated(suites.RunConfig(
        m=m, n=n, seed=seed, samples=samples, truncation=truncation,
        r_max=r_max, theta=theta,
        maps=(map_,) if map_ else None,
        domains=(domain,) if domain else ("ball", "polydisc"),
        shards=shards,
    ))


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
@click.option("--truncation", type=int, default=300, show_default=True,
              help="Series truncation order.")
@click.option("--r-max", type=float, default=0.9, show_default=True,
              help="Largest sampled radius / gauge value.")
@click.option("--theta", type=float, default=None,
              help="Rotation parameter of the test maps (default: a small sweep).")
@click.option("--map", "map_", type=click.Choice(list(suites.MAP_FAMILIES)),
              default=None, help="Restrict growth suites to one map family.")
@click.option("--domain", type=click.Choice(["ball", "polydisc"]), default=None,
              help="Restrict the domain suite to one gauge.")
@click.option("--shards", type=int, default=1, show_default=True,
              help="Sample-shard count (deterministic per shard count).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Report file (stdout otherwise).")
@click.option("--quiet", is_flag=True, help="Suppress the per-check summary.")
def verify(suite, m, n, seed, samples, truncation, r_max, theta, map_, domain,
           shards, fmt, out, quiet):
    """Run one verification suite (or `all`) and write its report."""
    cfg = _build_config(m, n, seed, samples, truncation, r_max, theta, map_,
                        domain, shards)
    started = time.perf_counter()
    results = suites.run_suite(suite, cfg)
    elapsed = time.perf_counter() - started
    if not results:
        chosen = {"--map": map_, "--domain": domain, "--m": m, "--n": n, "--theta": theta}
        given = " ".join(f"{key} {value}" for key, value in chosen.items()
                         if value is not None)
        click.echo(f"Error: verify {suite} ran no check with {given}; no report written",
                   err=True)
        sys.exit(2)

    _write_report(reports.render(results, fmt), out)
    if not quiet:
        for line in reports.summary_lines(results):
            click.echo(line, err=True)
        click.echo(f"{suite}: {len(results)} checks in {elapsed:.1f}s", err=True)
    if not all(rep.passed for rep in results):
        sys.exit(1)


@main.command()
@click.option("--map", "map_", type=click.Choice(list(suites.MAP_FAMILIES)),
              default=next(iter(suites.MAP_FAMILIES)), show_default=True)
@click.option("--theta", type=float, default=0.0, show_default=True)
@click.option("--r-grid", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
              show_default=True, help="Comma-separated radii.")
@click.option("--m", type=int, default=3, show_default=True)
@click.option("--n", type=int, default=2, show_default=True)
@click.option("--truncation", type=int, default=300, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def envelope(map_, theta, r_grid, m, n, truncation, out):
    """Emit growth-envelope rows (r, lower, ||f(-r)||, ||f(r)||, upper)."""
    try:
        radii = [float(tok) for tok in r_grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad --r-grid: {exc}")
    if not radii or any(not 0.0 <= r < 1.0 for r in radii):
        raise click.UsageError("--r-grid values must lie in [0, 1)")
    _validated(suites.RunConfig(m=m, n=n, truncation=truncation, theta=theta))

    family, p, _ = suites.MAP_FAMILIES[map_]
    f = slicemaps.ClosedFormMap(p, theta, CliffordElement.generator(m, 1), truncation, n)
    rows = geometry.envelope_table(f, family, radii)

    header = "r,lower_bound,f_at_minus_r,f_at_plus_r,upper_bound"
    lines = [header]
    for row in rows:
        lines.append(",".join(
            f"{row[key]:.17g}" for key in
            ("r", "lower_bound", "f_at_minus_r", "f_at_plus_r", "upper_bound")
        ))
    _write_report("\n".join(lines) + "\n", out)


if __name__ == "__main__":
    main()
