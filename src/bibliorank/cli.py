"""Command-line driver: validate, rank, compare.

Exit codes: 0 success, 1 input error, 2 configuration error.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import replace
from pathlib import Path

import click

from .errors import BiblioRankError, ConfigError
from .pipeline import (Q1_POLICIES, RunConfig, load_config, parse_window, run_compare,
                       run_rank, run_validate)

EXIT_INPUT_ERROR = 1
EXIT_CONFIG_ERROR = 2


@click.group()
def main() -> None:
    """Bibliometric ranking and ranking-comparison toolkit."""


# Applied to each command in this order; --help lists them in reverse.
_OPTIONS = (
    click.option("--config", "config_path", required=True,
                 type=click.Path(exists=True, dir_okay=False),
                 help="JSON run configuration."),
    click.option("--window", "windows", multiple=True, metavar="START:END",
                 help="Override configured windows (repeatable)."),
    click.option("--out", default=None, metavar="DIR",
                 help="Override output directory."),
    click.option("--min-n", type=int, default=None,
                 help="Minimum joined institutions to report rho."),
    click.option("--q1-policy", type=click.Choice(Q1_POLICIES),
                 default=None, help="Category policy for the Q1 share."),
    click.option("--strict-quartiles", is_flag=True,
                 help="Treat missing quartile lookups as errors."),
)


def command(body):
    """Register ``body(config)`` as a subcommand taking the shared options.

    The command loads the config and applies the overrides; ``body`` runs a
    ``run_*`` function, which validates the config first. Errors become the
    documented exit codes.
    """
    @functools.wraps(body)
    def run(config_path, windows, out, min_n, q1_policy, strict_quartiles) -> None:
        try:
            config = load_config(config_path)
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
            body(config)
        except ConfigError as exc:
            click.echo(f"configuration error: {exc}", err=True)
            sys.exit(EXIT_CONFIG_ERROR)
        except BiblioRankError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INPUT_ERROR)

    for option in _OPTIONS:
        run = option(run)
    return main.command()(run)


@command
def validate(config: RunConfig) -> None:
    """Load and validate every configured input; print counts."""
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


@command
def rank(config: RunConfig) -> None:
    """Write per-field ranking, quadrant, and indicator files per window."""
    for path in run_rank(config):
        click.echo(str(path))


@command
def compare(config: RunConfig) -> None:
    """Write one concordance report per crosswalk system pair."""
    for path in run_compare(config):
        click.echo(str(path))


if __name__ == "__main__":
    main()
