import math

import pytest
from hypothesis import given, strategies as st

from bibliorank.corpus import Corpus, PublicationRecord
from bibliorank.errors import QuartileLookupError
from bibliorank.indicators import compute_indicators, top10_threshold

from conftest import make_corpus, make_journal


def brute_force_h(citations):
    return max(
        (h for h in range(len(citations) + 1)
         if sum(1 for c in citations if c >= h) >= h),
        default=0,
    )


def h_of(citations):
    """H of one institution whose papers have these citation counts."""
    corpus = make_corpus({"u": citations})
    return compute_indicators(corpus, top10_threshold(corpus), frozenset(), "best-all",
                              "warn")[0]["u"].h


class TestHIndex:
    def test_empty(self):
        # an institution with no papers gets no indicator row, so no H; an
        # empty pool has no top-10% threshold, so any threshold will do
        corpus = make_corpus({"u": []})
        assert compute_indicators(corpus, 0, frozenset(), "best-all", "warn")[0] == {}

    def test_all_zero(self):
        assert h_of([0, 0, 0]) == 0

    def test_worked_example(self):
        assert h_of([10, 8, 5, 4, 3]) == 4

    @given(st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=200))
    def test_matches_brute_force(self, citations):
        assert h_of(citations) == brute_force_h(citations)

    @given(st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=50))
    def test_order_invariant(self, citations):
        assert h_of(citations) == h_of(sorted(citations))


class TestTop10Threshold:
    def test_ten_papers(self):
        corpus = make_corpus({"u": [9, 8, 7, 6, 5, 4, 3, 2, 1, 0]})
        assert top10_threshold(corpus) == 9

    def test_singleton(self):
        assert top10_threshold(make_corpus({"u": [5]})) == 5

    def test_boundary_tie(self):
        pool = [20, 17, 17] + [10] * 12
        assert top10_threshold(make_corpus({"u": pool})) == 17

    @given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=80))
    def test_matches_sort_and_index_oracle(self, pool):
        t = top10_threshold(make_corpus({"u": pool}))
        ranked = sorted(pool, reverse=True)
        k = math.ceil(0.10 * len(pool))
        assert t == ranked[k - 1]
        # inclusive >= rule can only grow the top set past k
        assert sum(1 for c in pool if c >= t) >= k


class TestComputeIndicators:
    def test_worked_example_from_pooled_field(self):
        corpus = make_corpus({
            "x": [9, 0],
            "y": [8, 7, 6, 5, 4, 3, 2, 1],
        })
        t = top10_threshold(corpus)
        assert t == 9
        ind = compute_indicators(corpus, t, frozenset(), "best-all", "warn")[0]["x"]
        assert ind.ndoc == 2
        assert ind.ncit == 9
        assert ind.h == 1
        assert ind.acit == pytest.approx(4.5)
        assert ind.topcit == pytest.approx(0.5)

    def test_acit_division(self):
        corpus = make_corpus({"u": [27, 0, 0, 0, 0, 0, 0, 0]})
        ind = compute_indicators(corpus, top10_threshold(corpus), frozenset(), "best-all",
                                 "warn")[0]["u"]
        assert ind.acit == pytest.approx(3.375)

    def test_pct_q1_ratio(self):
        q1 = make_journal(("a",), quartile=1)
        q3 = make_journal(("a",), quartile=3)
        records = [
            PublicationRecord("r1", "u", 2010, "JQ1", 1),
            PublicationRecord("r2", "u", 2010, "JQ1", 1),
            PublicationRecord("r3", "u", 2010, "JQ3", 1),
            PublicationRecord("r4", "u", 2010, "JQ3", 1),
        ]
        corpus = Corpus(tuple(records), {"JQ1": q1, "JQ3": q3})
        ind = compute_indicators(corpus, top10_threshold(corpus), frozenset(), "best-all",
                                 "warn")[0]["u"]
        assert ind.pct_q1 == pytest.approx(0.5)

    def test_q1_policy_any_relevant_vs_best_all(self):
        # Q1 only in a category outside the field under evaluation
        journal = {"inside": {2010: 2}, "outside": {2010: 1}}
        corpus = Corpus((PublicationRecord("r1", "u", 2010, "J", 1),), {"J": journal})
        t = top10_threshold(corpus)
        relevant = compute_indicators(corpus, t, frozenset({"inside"}), "any-relevant",
                                      "warn")[0]
        best_all = compute_indicators(corpus, t, frozenset({"inside"}), "best-all", "warn")[0]
        assert relevant["u"].pct_q1 == 0.0
        assert best_all["u"].pct_q1 == 1.0

    def test_missing_quartile_strict_raises(self):
        journal = make_journal(("a",), years=[2011])
        corpus = Corpus((PublicationRecord("r1", "u", 2010, "J", 1),), {"J": journal})
        t = top10_threshold(corpus)
        with pytest.raises(QuartileLookupError):
            compute_indicators(corpus, t, frozenset(), "best-all", "strict")
        # warn mode counts the paper as not-Q1
        assert compute_indicators(corpus, t, frozenset(), "best-all",
                                  "warn")[0]["u"].pct_q1 == 0.0

    def test_missing_quartiles_tallied_per_paper_sharing_journal_year(self):
        # every 2010 lookup misses in both categories; 2011 is Q1
        journal = make_journal(("a", "b"), quartile=1, years=[2011])
        records = [PublicationRecord(f"r{i}", inst, 2010, "J", i)
                   for i, inst in enumerate("uuuvv")]
        records.append(PublicationRecord("r9", "v", 2011, "J", 0))
        corpus = Corpus(tuple(records), {"J": journal})
        t = top10_threshold(corpus)
        result, misses = compute_indicators(corpus, t, frozenset(), "best-all", "warn")
        assert misses == 10
        assert result["u"].pct_q1 == 0.0
        assert result["v"].pct_q1 == pytest.approx(1 / 3)
        with pytest.raises(QuartileLookupError):
            compute_indicators(corpus, t, frozenset(), "best-all", "strict")

    def test_strict_names_first_missing_quartile_in_corpus_order(self):
        # u's papers come first and last; the first miss in corpus order is v's
        journals = {"JOK": make_journal(("a",)),
                    "JM1": make_journal(("a",), years=[2011]),
                    "JM2": make_journal(("a",), years=[2011])}
        records = [PublicationRecord("r1", "u", 2010, "JOK", 1),
                   PublicationRecord("r2", "v", 2010, "JM1", 1),
                   PublicationRecord("r3", "u", 2010, "JM2", 1)]
        corpus = Corpus(tuple(records), journals)
        with pytest.raises(QuartileLookupError, match="'JM1'"):
            compute_indicators(corpus, top10_threshold(corpus), frozenset(), "best-all",
                               "strict")

    def test_ndoc_sums_to_corpus_size(self):
        corpus = make_corpus({"a": [1, 2, 3], "b": [4], "c": [5, 6]})
        result = compute_indicators(corpus, top10_threshold(corpus), frozenset(), "best-all",
                                    "warn")[0]
        assert sum(ind.ndoc for ind in result.values()) == len(corpus)

    def test_zero_paper_institutions_omitted(self):
        corpus = make_corpus({"a": [1]})
        assert set(compute_indicators(corpus, top10_threshold(corpus), frozenset(), "best-all",
                                      "warn")[0]) == {"a"}

    def test_replication_keeps_ratios_scales_counts(self):
        # distinct citations, pool size a multiple of 10: threshold is tie-free
        base = {"a": [50, 40, 30, 20], "b": [45, 35, 25, 15, 10, 5]}
        k = 3
        replicated = {inst: cites * k for inst, cites in base.items()}
        corpus1 = make_corpus(base)
        corpusk = make_corpus(replicated)
        t1 = top10_threshold(corpus1)
        tk = top10_threshold(corpusk)
        assert t1 == tk
        ind1 = compute_indicators(corpus1, t1, frozenset(), "best-all", "warn")[0]
        indk = compute_indicators(corpusk, tk, frozenset(), "best-all", "warn")[0]
        for inst in base:
            assert indk[inst].ndoc == k * ind1[inst].ndoc
            assert indk[inst].ncit == k * ind1[inst].ncit
            assert indk[inst].acit == pytest.approx(ind1[inst].acit, rel=1e-12)
            assert indk[inst].pct_q1 == pytest.approx(ind1[inst].pct_q1, rel=1e-12)
            assert indk[inst].topcit == pytest.approx(ind1[inst].topcit, rel=1e-12)


def brute_force_indicators(corpus, threshold, field_categories, q1_policy):
    """The six indicators per institution, straight from their definitions."""
    def is_q1(rec):
        quartiles = corpus.journals[rec.journal_id]
        cats = set(quartiles)
        if q1_policy == "any-relevant":
            cats = cats & field_categories
        # a missing quartile counts as not-Q1 under "warn"
        return any(quartiles[c].get(rec.year) == 1 for c in cats)

    out = {}
    for inst in {rec.institution_id for rec in corpus.publications}:
        papers = [rec for rec in corpus.publications if rec.institution_id == inst]
        cites = [rec.citations for rec in papers]
        ndoc, ncit = len(papers), sum(cites)
        top = sum(1 for c in cites if c >= threshold)
        out[inst] = (ndoc, ncit, brute_force_h(cites),
                     sum(1 for rec in papers if is_q1(rec)) / ndoc, ncit / ndoc, top / ndoc)
    return out


CATEGORY_SETS = st.frozensets(st.sampled_from("abc"), min_size=1)
YEARS = (2009, 2010, 2011)


@st.composite
def quartile_corpora(draw):
    """Journals with some (category, year) quartiles missing, and their papers."""
    journals = {}
    for i in range(draw(st.integers(1, 4))):
        cats = draw(CATEGORY_SETS)
        quartiles = {}
        for cat in sorted(cats):
            by_year = quartiles[cat] = {}
            for year in YEARS:
                q = draw(st.sampled_from((None, 1, 1, 2, 3, 4)))
                if q is not None:
                    by_year[year] = q
        journals[f"J{i}"] = quartiles
    picks = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, len(journals) - 1),
                                    st.sampled_from(YEARS), st.integers(0, 30)),
                          min_size=1, max_size=60))
    records = tuple(PublicationRecord(f"r{n}", f"u{inst}", year, f"J{j}", cites)
                    for n, (inst, j, year, cites) in enumerate(picks))
    return Corpus(records, journals)


@given(corpus=quartile_corpora(),
       field_categories=CATEGORY_SETS,
       q1_policy=st.sampled_from(["any-relevant", "best-all"]))
def test_compute_indicators_matches_brute_force(corpus, field_categories, q1_policy):
    threshold = top10_threshold(corpus)
    result = compute_indicators(corpus, threshold, field_categories, q1_policy, "warn")[0]
    expected = brute_force_indicators(corpus, threshold, field_categories, q1_policy)
    assert {
        ind.institution_id: (ind.ndoc, ind.ncit, ind.h, ind.pct_q1, ind.acit, ind.topcit)
        for ind in result.values()
    } == expected
    assert all(inst == ind.institution_id for inst, ind in result.items())
