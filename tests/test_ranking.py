import random

import pytest
from hypothesis import given, strategies as st

from bibliorank.errors import InputError
from bibliorank.ranking import (
    RankEntry,
    RankingTable,
    build_ranking,
    load_external_rankings,
    parse_rank,
    restrict_to_system,
)
from bibliorank.scoring import IndexScore


def scores_from(values):
    return {f"u{i}": IndexScore(f"u{i}", 1.0, 1.0, v) for i, v in enumerate(values)}


class TestRankValue:
    def test_parse_exact(self):
        assert parse_rank("89") == 89

    def test_parse_interval(self):
        assert parse_rank("201-300") == 250.5

    def test_degenerate_interval_equals_exact(self):
        assert parse_rank("7-7") == parse_rank("7") == 7.0

    @pytest.mark.parametrize("text", ["0", "00", "0-5"])
    def test_exact_rank_below_one_rejected(self, text):
        with pytest.raises(InputError, match="must be >= 1"):
            parse_rank(text)

    def test_reversed_interval_rejected(self):
        with pytest.raises(InputError, match="lo > hi"):
            parse_rank("300-201")

    @pytest.mark.parametrize("text", ["", "abc", "10-", "-5", "1.5"])
    def test_malformed_rejected(self, text):
        with pytest.raises(InputError):
            parse_rank(text)


class TestBuildRanking:
    def test_distinct_scores(self):
        table = build_ranking(scores_from([5.0, 3.0, 1.0]), "sys", "f")
        assert [(e.institution_id, e.rank) for e in table.entries] == [
            ("u0", 1), ("u1", 2), ("u2", 3)]

    def test_competition_ties(self):
        table = build_ranking(scores_from([5.0, 5.0, 1.0]), "sys", "f")
        assert [e.rank for e in table.entries] == [1, 1, 3]
        # ints, so that a ranking file prints "1", not "1.0"
        assert all(type(e.rank) is int for e in table.entries)

    def test_matches_argsort_oracle(self):
        rng = random.Random(1)
        values = [rng.choice([0.0, 1.5, 2.5, 7.0]) for _ in range(30)]
        scores = scores_from(values)
        table = build_ranking(scores, "sys", "f")
        ranked_desc = sorted(values, reverse=True)
        for entry in table.entries:
            v = scores[entry.institution_id].ifq2a
            assert entry.rank == ranked_desc.index(v) + 1

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=25))
    def test_rank_values_order_independent(self, values):
        scores = scores_from(values)
        permuted = dict(reversed(list(scores.items())))
        ranks = lambda t: {e.institution_id: e.rank for e in t.entries}
        assert ranks(build_ranking(scores, "s", "f")) == ranks(
            build_ranking(permuted, "s", "f"))

    @given(st.lists(st.integers(0, 200).map(lambda i: i / 2.0),
                    min_size=1, max_size=25))
    def test_monotone_transform_preserves_ranks(self, values):
        scores = scores_from(values)
        transformed = {
            u: IndexScore(u, s.qnif, s.qlif, 3.0 * s.ifq2a + 1.0)
            for u, s in scores.items()
        }
        ranks = lambda t: {e.institution_id: e.rank for e in t.entries}
        assert ranks(build_ranking(scores, "s", "f")) == ranks(
            build_ranking(transformed, "s", "f"))

    def test_tie_display_order_is_lexicographic(self):
        scores = {
            "zeta": IndexScore("zeta", 1, 1, 4.0),
            "alpha": IndexScore("alpha", 1, 1, 4.0),
        }
        table = build_ranking(scores, "s", "f")
        assert [e.institution_id for e in table.entries] == ["alpha", "zeta"]


class TestExternalTables:
    def test_load_fixture_tables(self, fixtures_dir):
        tables = load_external_rankings(fixtures_dir / "external_rankings.csv")
        shanghai = tables[("shanghai", "overall")]
        ntu = tables[("ntu", "overall")]
        by_id = {e.institution_id: e.rank for e in shanghai.entries}
        assert by_id["Barcelona"] == 250.5
        assert ntu.entries[0].institution_id == "Barcelona"
        assert ntu.entries[0].rank == 89
        assert len(ntu) == 13

    def test_duplicate_institution_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "system_name,field_name,institution_id,rank\n"
            "s,f,X,1\n"
            "s,f,X,2\n",
            encoding="utf-8",
        )
        with pytest.raises(InputError, match="duplicate institution"):
            load_external_rankings(path)
        # one institution in two tables is fine; a repeat within a table is not
        header = "system_name,field_name,institution_id,rank\n"
        path.write_text(header + "s,f,X,1\ns,g,X,1\n", encoding="utf-8")
        assert set(load_external_rankings(path)) == {("s", "f"), ("s", "g")}
        path.write_text(header + "s,f,X,1\ns,g,X,1\ns,g,Y,2\ns,g,X,3\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"duplicate institution\(s\) in table s/g: X$"):
            load_external_rankings(path)

    def test_malformed_rank_has_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "system_name,field_name,institution_id,rank\ns,f,X,banana\n",
            encoding="utf-8",
        )
        with pytest.raises(InputError, match="line 2"):
            load_external_rankings(path)


class TestRestrictToSystem:
    def test_filters_and_preserves_ranks(self, fixtures_dir):
        tables = load_external_rankings(fixtures_dir / "external_rankings.csv")
        ntu = tables[("ntu", "overall")]
        spanish = ntu.institution_ids()
        restricted = restrict_to_system(ntu, spanish)
        assert len(restricted) == 13
        assert restricted.entries[0].institution_id == "Barcelona"
        assert restricted.entries[0].rank == 89

    def test_empty_filter(self, fixtures_dir):
        tables = load_external_rankings(fixtures_dir / "external_rankings.csv")
        assert len(restrict_to_system(tables[("qs", "overall")], set())) == 0

    def test_preserves_pairwise_order(self, fixtures_dir):
        tables = load_external_rankings(fixtures_dir / "external_rankings.csv")
        table = tables[("leiden", "overall")]
        subset = set(list(table.institution_ids())[::2])
        restricted = restrict_to_system(table, subset)
        source_pos = {e.institution_id: i for i, e in enumerate(table.entries)}
        kept = [e.institution_id for e in restricted.entries]
        assert kept == sorted(kept, key=source_pos.__getitem__)

    def test_fully_kept_table_is_not_copied(self, fixtures_dir):
        table = load_external_rankings(fixtures_dir / "external_rankings.csv")[("ntu", "overall")]
        assert restrict_to_system(table, table.institution_ids() | {"elsewhere"}) is table

    def test_partly_kept_table_keeps_order_and_ranks(self, fixtures_dir):
        table = load_external_rankings(
            fixtures_dir / "external_rankings.csv")[("shanghai", "overall")]
        dropped = table.entries[1].institution_id
        restricted = restrict_to_system(table, table.institution_ids() - {dropped})
        assert (restricted.system_name, restricted.field_name) == ("shanghai", "overall")
        assert restricted.entries == tuple(e for e in table.entries
                                           if e.institution_id != dropped)

    def test_idempotent(self, fixtures_dir):
        tables = load_external_rankings(fixtures_dir / "external_rankings.csv")
        table = tables[("shanghai", "overall")]
        subset = {"Barcelona", "Granada", "Valencia"}
        once = restrict_to_system(table, subset)
        assert restrict_to_system(once, subset) == once


class TestCompetitionRanks:
    def test_interval_ties_share_rank(self):
        entries = (
            RankEntry("a", 250.5),
            RankEntry("b", 250.5),
            RankEntry("c", 350.5),
        )
        table = RankingTable("s", "f", entries)
        assert table.competition_ranks() == {"a": 1, "b": 1, "c": 3}

    def test_ranks_are_read_only(self):
        table = RankingTable("s", "f", (RankEntry("a", 1), RankEntry("b", 2)))
        ranks = table.competition_ranks()
        with pytest.raises(TypeError):
            ranks["a"] = 2
        assert table.competition_ranks() == {"a": 1, "b": 2}

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=6)
           .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=25)))
    def test_internal_table_ranks_consistent(self, values):
        table = build_ranking(scores_from(values), "s", "f")
        stored = {e.institution_id: e.rank for e in table.entries}
        assert table.competition_ranks() == stored
        for entry in table.entries:
            assert entry.rank == 1 + sum(v > entry.score for v in values)
