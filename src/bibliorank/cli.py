"""Command-line driver: validate, rank, compare, quadrant.

Exit codes: 0 success, 1 input error, 2 configuration error.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import click

from .errors import BiblioRankError, ConfigError
from .pipeline import RunConfig, load_config, parse_window, run_compare, run_rank, run_validate

EXIT_INPUT_ERROR = 1
EXIT_CONFIG_ERROR = 2


def _apply_overrides(config: RunConfig, windows: tuple[str, ...], out: str | None,
                     min_n: int | None, q1_policy: str | None,
                     strict_quartiles: bool) -> RunConfig:
    if windows:
        config = replace(config, windows=tuple(parse_window(w) for w in windows))
    if out is not None:
        config = replace(config, out_dir=Path(out).resolve())
    if min_n is not None:
        config = replace(config, min_n=min_n)
    if q1_policy is not None:
        config = replace(config, q1_policy=q1_policy)
    if strict_quartiles:
        config = replace(config, missing_quartile="strict")
    return config


def common_options(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(exists=True, dir_okay=False),
                      help="JSON run configuration.")(fn)
    fn = click.option("--window", "windows", multiple=True, metavar="START:END",
                      help="Override configured windows (repeatable).")(fn)
    fn = click.option("--out", default=None, metavar="DIR",
                      help="Override output directory.")(fn)
    fn = click.option("--min-n", type=int, default=None,
                      help="Minimum joined institutions to report rho.")(fn)
    fn = click.option("--q1-policy", type=click.Choice(["any-relevant", "best-all"]),
                      default=None, help="Category policy for the Q1 share.")(fn)
    fn = click.option("--strict-quartiles", is_flag=True,
                      help="Treat missing quartile lookups as errors.")(fn)
    return fn


def _load(config_path, windows, out, min_n, q1_policy, strict_quartiles) -> RunConfig:
    config = load_config(config_path)
    config = _apply_overrides(config, windows, out, min_n, q1_policy, strict_quartiles)
    config.validate()
    return config


def _run(body) -> None:
    try:
        body()
    except ConfigError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(EXIT_CONFIG_ERROR)
    except BiblioRankError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)


@click.group()
def main() -> None:
    """Bibliometric ranking and ranking-comparison toolkit."""


@main.command()
@common_options
def validate(config_path, windows, out, min_n, q1_policy, strict_quartiles) -> None:
    """Load and validate every configured input; print counts."""
    def body():
        config = _load(config_path, windows, out, min_n, q1_policy, strict_quartiles)
        report = run_validate(config)
        click.echo(f"publications: {report.publication_count}")
        click.echo(f"journals: {report.journal_count}")
        click.echo(f"fields: {report.field_count}")
        for window in sorted(report.retained_by_window):
            click.echo(
                f"window {window}: retained {report.retained_by_window[window]}, "
                f"dropped {report.dropped_by_window[window]}"
            )
            unassigned = report.unassigned_by_window[window]
            click.echo(f"window {window}: unassigned {len(unassigned)}")
            for rid in unassigned:
                click.echo(f"  unassigned: {rid}")
    _run(body)


@main.command()
@common_options
def rank(config_path, windows, out, min_n, q1_policy, strict_quartiles) -> None:
    """Write per-field ranking, quadrant, and indicator files per window."""
    def body():
        config = _load(config_path, windows, out, min_n, q1_policy, strict_quartiles)
        for path in run_rank(config):
            click.echo(str(path))
    _run(body)


@main.command()
@common_options
def quadrant(config_path, windows, out, min_n, q1_policy, strict_quartiles) -> None:
    """Write only the quadrant scatter files (plot-ready CSV)."""
    def body():
        config = _load(config_path, windows, out, min_n, q1_policy, strict_quartiles)
        for path in run_rank(config, outputs=("quadrants",)):
            click.echo(str(path))
    _run(body)


@main.command()
@common_options
def compare(config_path, windows, out, min_n, q1_policy, strict_quartiles) -> None:
    """Write one concordance report per crosswalk system pair."""
    def body():
        config = _load(config_path, windows, out, min_n, q1_policy, strict_quartiles)
        for path in run_compare(config):
            click.echo(str(path))
    _run(body)


if __name__ == "__main__":
    main()
