from pathlib import Path

import pytest

from bibliorank.corpus import Corpus, JournalProfile, PublicationRecord, TimeWindow

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

WINDOW = TimeWindow(2008, 2012)


def make_journal(journal_id="J", categories=("alpha",), quartile=2,
                 years=range(2000, 2021)):
    """Journal with one quartile across all categories and years."""
    cats = frozenset(categories)
    return JournalProfile(
        journal_id=journal_id,
        categories=cats,
        quartiles={c: {y: quartile for y in years} for c in cats},
    )


def make_corpus(citations_by_inst, journal=None, window=WINDOW, year=2010):
    """Corpus from {institution: [citations, ...]}, one shared journal."""
    journal = journal or make_journal()
    records = []
    i = 0
    for inst, citation_list in citations_by_inst.items():
        for c in citation_list:
            i += 1
            records.append(
                PublicationRecord(f"r{i}", inst, year, journal.journal_id, c)
            )
    return Corpus(
        publications=tuple(records),
        journals={journal.journal_id: journal},
        window=window,
    )


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
