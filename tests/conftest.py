from pathlib import Path

import pytest

from bibliorank.corpus import Corpus, PublicationRecord

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def make_journal(categories=("alpha",), quartile=2, years=range(2000, 2021)):
    """A journal's quartiles by category and year: one quartile across all
    categories and years."""
    return {c: {y: quartile for y in years} for c in categories}


def make_corpus(citations_by_inst, journal=None, year=2010):
    """Corpus from {institution: [citations, ...]}, one shared journal "J"."""
    records = []
    i = 0
    for inst, citation_list in citations_by_inst.items():
        for c in citation_list:
            i += 1
            records.append(PublicationRecord(f"r{i}", inst, year, "J", c))
    return Corpus(tuple(records), {"J": journal or make_journal()})


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
