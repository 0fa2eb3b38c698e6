import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from typing import NamedTuple

import pytest

from bibliorank.cli import main
from bibliorank.corpus import Corpus, PublicationRecord

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def make_journal(categories=("alpha",), quartile=2, years=range(2000, 2021)):
    """A journal's quartiles by category and year: one quartile across all
    categories and years."""
    return {c: {y: quartile for y in years} for c in categories}


def make_corpus(citations_by_inst, journal=None, year=2010):
    """Corpus from {institution: [citations, ...]}, one shared journal "J"."""
    records = []
    for inst, citation_list in citations_by_inst.items():
        for c in citation_list:
            records.append(PublicationRecord(inst, year, "J", c))
    return Corpus(tuple(records), {"J": journal or make_journal()})


class CliResult(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr, interleaved as written
    exception: BaseException | None  # None for exit 0
    exc_info: tuple | None


def run_cli(*args) -> CliResult:
    """Run ``bibliorank ARGS`` in this process, as the console script would,
    with stdout and stderr captured together. An exception other than
    SystemExit is caught and reported with exit code 1."""
    output = StringIO()
    exit_code, exception, exc_info = 0, None, None
    with redirect_stdout(output), redirect_stderr(output):
        try:
            main([str(arg) for arg in args])
        except SystemExit as exc:
            exit_code = exc.code or 0
            if exit_code:
                exception, exc_info = exc, sys.exc_info()
        except Exception as exc:
            exit_code, exception, exc_info = 1, exc, sys.exc_info()
    return CliResult(exit_code, output.getvalue(), exception, exc_info)


@pytest.fixture
def fixtures_dir():
    return FIXTURES


def pytest_runtest_logreport(report):
    """One pass/fail line per acceptance criterion (visible with -s / in CI logs)."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    verdict = "PASS" if report.passed else "FAIL"
    name = report.nodeid.split("::")[-1]
    print(f"\nACCEPTANCE {name}: {verdict}")
