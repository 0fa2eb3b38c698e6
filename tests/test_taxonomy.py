import random

import pytest
from hypothesis import given, strategies as st

from bibliorank.corpus import Corpus, PublicationRecord
from bibliorank.errors import InputError
from bibliorank.taxonomy import assign_fields, field_corpus, load_taxonomy

from conftest import make_journal

TAXONOMY_HEADER = "field_name,level,category\n"


def write(tmp_path, text):
    path = tmp_path / "taxonomy.csv"
    path.write_text(TAXONOMY_HEADER + text, encoding="utf-8")
    return path


class TestLoadTaxonomy:
    def test_overlapping_fields_allowed(self, tmp_path):
        path = write(tmp_path, (
            'F1,field,"COMPUTER SCIENCE, THEORY"\n'
            'F2,field,"COMPUTER SCIENCE, THEORY"\n'
            "F2,field,OTHER\n"
        ))
        taxonomy = load_taxonomy(path)
        assert taxonomy["F1"] & taxonomy["F2"]

    def test_empty_category_rejected(self, tmp_path):
        path = write(tmp_path, "F1,field,\n")
        with pytest.raises(InputError, match="empty category"):
            load_taxonomy(path)

    def test_conflicting_levels_rejected(self, tmp_path):
        path = write(tmp_path, "F1,field,A\nF1,subfield,B\n")
        with pytest.raises(InputError, match="conflicting levels"):
            load_taxonomy(path)

    def test_bad_level_rejected(self, tmp_path):
        path = write(tmp_path, "F1,megafield,A\n")
        with pytest.raises(InputError, match="level"):
            load_taxonomy(path)

    def test_union_matches_brute_force(self, tmp_path):
        rows = []
        expected: dict[str, set] = {}
        for i in range(12):
            name = f"F{i}"
            for j in range(1 + i % 4):
                cat = f"cat{(i * 3 + j) % 17}"
                rows.append(f"{name},field,{cat}\n")
                expected.setdefault(name, set()).add(cat)
        taxonomy = load_taxonomy(write(tmp_path, "".join(rows)))
        assert taxonomy == expected

    def test_categories_normalized(self, tmp_path):
        path = write(tmp_path, "F1,field,  Physics APPLIED \n")
        assert load_taxonomy(path) == {"F1": {"physics applied"}}


@pytest.fixture
def taxonomy(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(TAXONOMY_HEADER + (
        "F,field,a\n"
        "F,field,b\n"
        "G,field,c\n"
    ), encoding="utf-8")
    return load_taxonomy(path)


def fields_of(assignment, record_id):
    """Names of the fields whose bucket holds the record."""
    return {name for name, recs in assignment.records_by_field.items()
            if any(rec.record_id == record_id for rec in recs)}


class TestAssignFields:
    def test_intersection_rule(self, taxonomy):
        corpus = Corpus((PublicationRecord("r1", "u", 2010, "J", 0),),
                        {"J": make_journal(("a",))})
        assignment = assign_fields(corpus, taxonomy)
        assert fields_of(assignment, "r1") == {"F"}
        assert assignment.unassigned == ()

    def test_no_matching_field_reported_unassigned(self, taxonomy):
        corpus = Corpus((PublicationRecord("r1", "u", 2010, "J", 0),),
                        {"J": make_journal(("zzz",))})
        assignment = assign_fields(corpus, taxonomy)
        assert fields_of(assignment, "r1") == set()
        assert assignment.unassigned == ("r1",)

    def test_matches_nested_loop_oracle(self, taxonomy):
        rng = random.Random(7)
        cats = ["a", "b", "c", "d"]
        journals = {f"J{i}": make_journal(rng.sample(cats, rng.randint(1, 3)))
                    for i in range(8)}
        records = [
            PublicationRecord(f"r{i}", f"u{i % 4}", 2010, rng.choice(list(journals)), i)
            for i in range(50)
        ]
        corpus = Corpus(tuple(records), journals)
        assignment = assign_fields(corpus, taxonomy)
        unassigned = []
        for rec in records:
            jcats = set(corpus.journals[rec.journal_id])
            expected = {
                name for name, fcats in taxonomy.items()
                if any(c in fcats for c in jcats)
            }
            assert fields_of(assignment, rec.record_id) == expected
            if not expected:
                unassigned.append(rec.record_id)
        assert assignment.unassigned == tuple(sorted(unassigned))

    def test_order_independent(self, taxonomy):
        journals = {"J1": make_journal(("a",)), "J2": make_journal(("c",))}
        records = [PublicationRecord(f"r{i}", "u", 2010, f"J{1 + i % 2}", 0)
                   for i in range(10)]
        corpus = Corpus(tuple(records), journals)
        shuffled = Corpus(tuple(reversed(records)), journals)
        first = assign_fields(corpus, taxonomy)
        second = assign_fields(shuffled, taxonomy)
        for rec in records:
            assert fields_of(first, rec.record_id) == fields_of(second, rec.record_id)
        assert first.unassigned == second.unassigned


class TestFieldCorpus:
    def test_record_in_two_fields_appears_in_both(self, taxonomy):
        corpus = Corpus((PublicationRecord("r1", "u", 2010, "J", 0),),
                        {"J": make_journal(("a", "c"))})
        assignment = assign_fields(corpus, taxonomy)
        assert len(field_corpus(corpus, assignment, "F")) == 1
        assert len(field_corpus(corpus, assignment, "G")) == 1

    def test_empty_field_is_valid(self, taxonomy):
        corpus = Corpus((PublicationRecord("r1", "u", 2010, "J", 0),),
                        {"J": make_journal(("a",))})
        assignment = assign_fields(corpus, taxonomy)
        assert len(field_corpus(corpus, assignment, "G")) == 0

    def test_union_over_fields_covers_assigned_records(self, taxonomy):
        rng = random.Random(11)
        journals = {f"J{i}": make_journal((rng.choice("abcz"),)) for i in range(6)}
        records = [PublicationRecord(f"r{i}", "u", 2010, rng.choice(list(journals)), 0)
                   for i in range(40)]
        corpus = Corpus(tuple(records), journals)
        assignment = assign_fields(corpus, taxonomy)
        assigned = {rec.record_id for rec in records} - set(assignment.unassigned)
        union = set()
        for name in taxonomy:
            union |= {p.record_id
                      for p in field_corpus(corpus, assignment, name).publications}
        assert union == assigned

    def test_disjoint_taxonomies_give_disjoint_fields(self, taxonomy):
        # F uses {a,b}, G uses {c}: single-category journals cannot overlap
        journals = {"J1": make_journal(("a",)), "J2": make_journal(("c",))}
        records = [PublicationRecord(f"r{i}", "u", 2010, f"J{1 + i % 2}", 0)
                   for i in range(20)]
        corpus = Corpus(tuple(records), journals)
        assignment = assign_fields(corpus, taxonomy)
        f_ids = {p.record_id for p in field_corpus(corpus, assignment, "F").publications}
        g_ids = {p.record_id for p in field_corpus(corpus, assignment, "G").publications}
        assert not (f_ids & g_ids)

    def test_journals_shared(self, taxonomy):
        journals = {"J1": make_journal(("a",)), "J2": make_journal(("c",))}
        corpus = Corpus((PublicationRecord("r1", "u", 2010, "J1", 0),), journals)
        assignment = assign_fields(corpus, taxonomy)
        sub = field_corpus(corpus, assignment, "F")
        assert sub.journals is corpus.journals


CATS = st.frozensets(st.sampled_from("abcdefg"), min_size=1, max_size=3)


@given(
    field_cats=st.lists(CATS, min_size=1, max_size=6),
    journal_cats=st.lists(CATS, min_size=1, max_size=8),
    picks=st.lists(st.tuples(st.integers(0, 7), st.integers(2008, 2012)), max_size=60),
)
def test_field_corpus_matches_order_preserving_filter(field_cats, journal_cats, picks):
    taxonomy = {f"F{i}": cats for i, cats in enumerate(field_cats)}
    journals = {f"J{i}": make_journal(cats) for i, cats in enumerate(journal_cats)}
    records = [PublicationRecord(f"r{i}", f"u{i % 5}", year,
                                 f"J{j % len(journals)}", i)
               for i, (j, year) in enumerate(picks)]
    corpus = Corpus(tuple(records), journals)
    assignment = assign_fields(corpus, taxonomy)
    for name, cats in taxonomy.items():
        expected = tuple(rec for rec in corpus.publications
                         if cats & set(corpus.journals[rec.journal_id]))
        sub = field_corpus(corpus, assignment, name)
        assert sub.publications == expected
        assert sub.journals is corpus.journals
