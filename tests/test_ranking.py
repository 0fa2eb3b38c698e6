import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from bibliorank.errors import InputError
from bibliorank.ranking import (
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
        assert list(zip(table.ids, table.ranks)) == [
            ("u0", 1), ("u1", 2), ("u2", 3)]

    def test_competition_ties(self):
        table = build_ranking(scores_from([5.0, 5.0, 1.0]), "sys", "f")
        assert list(table.ranks) == [1, 1, 3]
        # ints, so that a ranking file prints "1", not "1.0"
        assert all(type(rank) is int for rank in table.ranks)

    def test_matches_argsort_oracle(self):
        rng = random.Random(1)
        values = [rng.choice([0.0, 1.5, 2.5, 7.0]) for _ in range(30)]
        scores = scores_from(values)
        table = build_ranking(scores, "sys", "f")
        ranked_desc = sorted(values, reverse=True)
        for inst, rank in zip(table.ids, table.ranks):
            v = scores[inst].ifq2a
            assert rank == ranked_desc.index(v) + 1

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=25))
    def test_rank_values_order_independent(self, values):
        scores = scores_from(values)
        permuted = dict(reversed(list(scores.items())))
        ranks = lambda t: dict(zip(t.ids, t.ranks))
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
        ranks = lambda t: dict(zip(t.ids, t.ranks))
        assert ranks(build_ranking(scores, "s", "f")) == ranks(
            build_ranking(transformed, "s", "f"))

    def test_tie_display_order_is_lexicographic(self):
        scores = {
            "zeta": IndexScore("zeta", 1, 1, 4.0),
            "alpha": IndexScore("alpha", 1, 1, 4.0),
        }
        table = build_ranking(scores, "s", "f")
        assert list(table.ids) == ["alpha", "zeta"]


class TestExternalTables:
    def test_load_fixture_tables(self, fixtures_dir):
        tables = load_external_rankings(fixtures_dir / "external_rankings.csv")
        shanghai = tables[("shanghai", "overall")]
        ntu = tables[("ntu", "overall")]
        by_id = dict(zip(shanghai.ids, shanghai.ranks))
        assert by_id["Barcelona"] == 250.5
        assert ntu.ids[0] == "Barcelona"
        assert ntu.ranks[0] == 89
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
        with pytest.raises(InputError,
                           match=r"duplicate institution\(s\) in table 's'/'g': 'X'$"):
            load_external_rankings(path)

    # The loader looks up a table once per run of rows that repeat its key
    # cells as they are; a run's end never ends its table. Tables are checked
    # in the order their first rows appear, so a duplicate names the first
    # such table, not the one whose repeat comes first.
    @pytest.mark.parametrize("rows, expected", [
        ("s,f,A,5\ns,f,B,3\ns,g,A,1\ns,f,C,5\ns,f,D,3\n",
         {("s", "f"): [("B", 3), ("D", 3), ("A", 5), ("C", 5)], ("s", "g"): [("A", 1)]}),
        ("S,f,A,2\n S,f,B,1\nS,f,C,3\nS, f ,D,1-7\n",
         {("S", "f"): [("B", 1), ("A", 2), ("C", 3), ("D", 4)]}),
        ("s,f,A,1\ns,g,A,1\ns,f,A,2\n",
         "duplicate institution(s) in table 's'/'f': 'A'"),
        ("s,g,X,1\ns,g,X,2\ns,f,Y,1\ns,f,Y,2\n",
         "duplicate institution(s) in table 's'/'g': 'X'"),
        ("s,g,X,1\ns,f,Y,1\ns,f,Y,2\ns,g,X,2\n",
         "duplicate institution(s) in table 's'/'g': 'X'"),
    ], ids=["two_runs_apart", "spelled_apart", "duplicate_across_runs",
            "duplicates_in_two_tables", "duplicates_in_two_tables_interleaved"])
    def test_runs_of_one_table(self, tmp_path, rows, expected):
        path = tmp_path / "r.csv"
        path.write_text("system_name,field_name,institution_id,rank\n" + rows, encoding="utf-8")
        try:
            loaded = {key: list(zip(t.ids, t.ranks))
                      for key, t in load_external_rankings(path).items()}
        except InputError as exc:
            loaded = str(exc)
        assert loaded == expected

    def test_peak_memory_per_row(self, tmp_path):
        # 60 tables x 500 rows, exact positions to 100 and "LO-HI" bands
        # beyond, the shape of a published top-500 league table.
        bands = [f"{lo}-{lo + 49}" for lo in range(101, 500, 50)]
        rows = [f"sys{t % 4},field{t:02d},inst{i:04d},"
                f"{i + 1 if i < 100 else bands[(i - 100) // 50]}\n"
                for t in range(60) for i in range(500)]
        path = tmp_path / "r.csv"
        path.write_text("system_name,field_name,institution_id,rank\n" + "".join(rows),
                        encoding="utf-8")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tables = load_external_rankings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(map(len, tables.values())) == len(rows)
        assert (peak - before) / len(rows) < 30

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
        spanish = set(ntu.ids)
        restricted = restrict_to_system(ntu, spanish)
        assert len(restricted) == 13
        assert restricted.ids[0] == "Barcelona"
        assert restricted.ranks[0] == 89

    def test_empty_filter(self, fixtures_dir):
        tables = load_external_rankings(fixtures_dir / "external_rankings.csv")
        assert len(restrict_to_system(tables[("qs", "overall")], set())) == 0

    def test_preserves_pairwise_order(self, fixtures_dir):
        tables = load_external_rankings(fixtures_dir / "external_rankings.csv")
        table = tables[("leiden", "overall")]
        subset = set(list(set(table.ids))[::2])
        restricted = restrict_to_system(table, subset)
        source_pos = {inst: i for i, inst in enumerate(table.ids)}
        kept = list(restricted.ids)
        assert kept == sorted(kept, key=source_pos.__getitem__)

    def test_fully_kept_table_is_not_copied(self, fixtures_dir):
        table = load_external_rankings(fixtures_dir / "external_rankings.csv")[("ntu", "overall")]
        assert restrict_to_system(table, set(table.ids) | {"elsewhere"}) is table

    def test_partly_kept_table_keeps_order_and_ranks(self, fixtures_dir):
        table = load_external_rankings(
            fixtures_dir / "external_rankings.csv")[("shanghai", "overall")]
        dropped = table.ids[1]
        restricted = restrict_to_system(table, set(table.ids) - {dropped})
        assert (restricted.system_name, restricted.field_name) == ("shanghai", "overall")
        assert list(zip(restricted.ids, restricted.ranks)) == [
            (inst, rank) for inst, rank in zip(table.ids, table.ranks) if inst != dropped]

    def test_idempotent(self, fixtures_dir):
        tables = load_external_rankings(fixtures_dir / "external_rankings.csv")
        table = tables[("shanghai", "overall")]
        subset = {"Barcelona", "Granada", "Valencia"}
        once = restrict_to_system(table, subset)
        assert restrict_to_system(once, subset) == once


class TestCompetitionRanks:
    def test_interval_ties_share_rank(self):
        table = RankingTable("s", "f", ("a", "b", "c"), (250.5, 250.5, 350.5))
        assert table.competition_ranks() == {"a": 1, "b": 1, "c": 3}

    def test_ranks_are_read_only(self):
        table = RankingTable("s", "f", ("a", "b"), (1, 2))
        ranks = table.competition_ranks()
        with pytest.raises(TypeError):
            ranks["a"] = 2
        assert table.competition_ranks() == {"a": 1, "b": 2}

    def test_equal_ranks_are_one_object_across_tables(self):
        # Exact ranks beyond 256, where CPython caches no small int.
        first = RankingTable("s", "f", tuple(f"a{i}" for i in range(600)),
                             tuple(float(i) for i in range(1, 601)))
        second = RankingTable("s", "g", tuple(f"b{i}" for i in range(700)),
                              tuple(float(i) for i in range(1, 701)))
        ranks_first, ranks_second = first.competition_ranks(), second.competition_ranks()
        for i in range(600):
            assert ranks_first[f"a{i}"] is ranks_second[f"b{i}"]

    def test_cached_ranks_memory_per_row(self):
        # 40 tables x 1,200 exact ranks: the cached mappings own no int per row.
        tables = [RankingTable("s", f"f{t}", tuple(f"inst{t}-{i}" for i in range(1200)),
                               tuple(float(i) for i in range(1, 1201)))
                  for t in range(40)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cached = [table.competition_ranks() for table in tables]
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert all(len(ranks) == 1200 for ranks in cached)
        assert (kept - before) / (40 * 1200) < 36

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=6)
           .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=25)))
    def test_internal_table_ranks_consistent(self, values):
        table = build_ranking(scores_from(values), "s", "f")
        stored = dict(zip(table.ids, table.ranks))
        assert table.competition_ranks() == stored
        for rank, score in zip(table.ranks, table.scores):
            assert rank == 1 + sum(v > score for v in values)
