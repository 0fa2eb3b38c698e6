"""Command-line driver: validate, rank, compare.

Exit codes: 0 success, 1 input error, 2 configuration error. A closed
standard output or an interrupt also exits 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from .config import Q1_POLICIES, RunConfig, load_config, parse_window
from .errors import BiblioRankError, ConfigError
from .pipeline import run_compare, run_rank, run_validate

EXIT_INPUT_ERROR = 1
EXIT_CONFIG_ERROR = 2


def validate(config: RunConfig) -> None:
    """Load and validate every configured input; print counts."""
    report = run_validate(config)
    print(f"publications: {report.publication_count}")
    print(f"journals: {report.journal_count}")
    print(f"fields: {report.field_count}")
    for window in sorted(report.retained_by_window):
        print(f"window {window}: retained {report.retained_by_window[window]}, "
              f"dropped {report.dropped_by_window[window]}")
        unassigned = report.unassigned_by_window[window]
        print(f"window {window}: unassigned {len(unassigned)}")
        for rid in unassigned:
            print(f"  unassigned: {rid}")


def rank(config: RunConfig) -> None:
    """Write per-field ranking, quadrant, and indicator files per window."""
    for path in run_rank(config):
        print(path)


def compare(config: RunConfig) -> None:
    """Write one concordance report per crosswalk system pair."""
    for path in run_compare(config):
        print(path)


def _parser() -> argparse.ArgumentParser:
    """One subcommand per command, each taking the shared options."""
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument("--config", required=True, metavar="PATH", help="JSON run configuration.")
    options.add_argument("--window", dest="windows", action="append", metavar="START:END",
                         help="Override configured windows (repeatable).")
    options.add_argument("--out", metavar="DIR", help="Override output directory.")
    options.add_argument("--min-n", type=int, metavar="N",
                         help="Minimum joined institutions to report rho.")
    options.add_argument("--q1-policy", choices=Q1_POLICIES,
                         help="Category policy for the Q1 share.")
    options.add_argument("--strict-quartiles", action="store_true",
                         help="Treat missing quartile lookups as errors.")
    parser = argparse.ArgumentParser(
        prog="bibliorank", description="Bibliometric ranking and ranking-comparison toolkit.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for body in (validate, rank, compare):
        commands.add_parser(body.__name__, parents=[options], help=body.__doc__,
                            description=body.__doc__).set_defaults(body=body)
    return parser


def main(argv: Sequence[str] | None = None) -> None:
    """The console script: run the command that ``argv`` (by default the
    process's arguments) names. The command loads the config and applies the
    overrides; it then runs a ``run_*`` function, which validates the config
    first. Errors become the documented exit codes; a malformed command line
    exits 2 with argparse's usage message."""
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.windows:
            config = config._replace(windows=tuple(map(parse_window, args.windows)))
        if args.out is not None:
            config = config._replace(out_dir=Path(args.out).resolve())
        if args.min_n is not None:
            config = config._replace(min_n=args.min_n)
        if args.q1_policy is not None:
            config = config._replace(q1_policy=args.q1_policy)
        if args.strict_quartiles:
            config = config._replace(missing_quartile="strict")
        args.body(config)
        sys.stdout.flush()  # so that a broken pipe is met here, not at exit
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        sys.exit(EXIT_CONFIG_ERROR)
    except BiblioRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_INPUT_ERROR)
    except BrokenPipeError:  # the reader of the printout, `head` say, has gone
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for exit's flush
        sys.exit(1)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)  # after the ^C the terminal echoed
        sys.exit(1)


if __name__ == "__main__":
    main()
