"""Per-institution primary indicators over a field corpus.

NDOC (paper count), NCIT (citation sum), H (h-index), %1Q (share of papers
in first-quartile journals), ACIT (citations per paper), TOPCIT (share of
papers in the field-wide top 10% by citations, pooled across institutions).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple, Sequence

from .corpus import Corpus, Quartiles
from .errors import QuartileLookupError


class IndicatorSet(NamedTuple):
    institution_id: str
    ndoc: int
    ncit: int
    h: int
    pct_q1: float
    acit: float
    topcit: float


def _h_of_ascending(cites: Sequence[int]) -> int:
    """Largest h such that at least h papers have >= h citations each, for
    citation counts sorted ascending."""
    h = 0
    for c in reversed(cites):  # c is the (h + 1)-th most cited paper
        if c <= h:
            break
        h += 1
    return h


def top10_threshold(field_corpus: Corpus) -> int:
    """Citation count of the ceil(0.10 * N)-th most cited of N >= 1 papers.

    Papers with citations >= threshold are the field's top papers; boundary
    ties are all included.
    """
    pool = sorted((p.citations for p in field_corpus.publications), reverse=True)
    return pool[-(-len(pool) // 10) - 1]


def _is_q1(journal_id: str, quartiles: Quartiles, year: int,
           field_categories: frozenset[str], q1_policy: str,
           missing_quartile: str) -> tuple[bool, int]:
    """Whether a paper of that journal and year counts as first-quartile;
    second value tallies lookup misses."""
    if q1_policy == "any-relevant":
        cats = quartiles.keys() & field_categories
    else:
        cats = quartiles
    misses = 0
    for cat in sorted(cats):
        quartile = quartiles[cat].get(year)
        if quartile == 1:
            return True, misses
        if quartile is None:
            if missing_quartile == "strict":
                raise QuartileLookupError(
                    f"journal {journal_id!r} has no quartile for category "
                    f"{cat!r} in year {year}"
                )
            misses += 1
    return False, misses


def compute_indicators(field_corpus: Corpus, threshold: int,
                       field_categories: frozenset[str], q1_policy: str,
                       missing_quartile: str) -> tuple[dict[str, IndicatorSet], int]:
    """All six indicators per institution with at least one paper in the
    field, and how many quartile lookups missed (each counted as not-Q1).

    ``threshold`` must come from ``top10_threshold`` of the same field corpus.
    Under the "any-relevant" policy a paper is Q1 if its journal is
    first-quartile in some category belonging to the field, for the paper's
    year; "best-all" considers every category of the journal.
    ``RunConfig.validate`` checks both policy values.
    """
    # One pass in corpus order: each institution's citation counts and Q1
    # tally. (is_q1, misses) depends only on the paper's journal and year here.
    cites_by_inst: dict[str, list[int]] = {}
    q1_by_inst: dict[str, int] = {}
    decided: dict[tuple[str, int], tuple[bool, int]] = {}
    total_misses = 0
    for _, inst, year, journal_id, citations in field_corpus.publications:
        key = (journal_id, year)
        if key not in decided:
            decided[key] = _is_q1(
                journal_id, field_corpus.journals[journal_id], year,
                field_categories, q1_policy, missing_quartile,
            )
        is_q1, misses = decided[key]
        total_misses += misses
        cites = cites_by_inst.get(inst)
        if cites is None:
            cites = cites_by_inst[inst] = []
            q1_by_inst[inst] = 0
        cites.append(citations)
        q1_by_inst[inst] += is_q1

    out: dict[str, IndicatorSet] = {}
    for inst, cites in cites_by_inst.items():
        cites.sort()
        ndoc = len(cites)
        ncit = sum(cites)
        top_count = ndoc - bisect_left(cites, threshold)
        out[inst] = IndicatorSet(inst, ndoc, ncit, _h_of_ascending(cites),
                                 q1_by_inst[inst] / ndoc, ncit / ndoc, top_count / ndoc)
    return out, total_misses
