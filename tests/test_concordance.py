import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from bibliorank import ranking
from bibliorank.concordance import (
    FieldCrosswalk,
    aggregate_agreement,
    agreement_decimal,
    agreement_level,
    compare_pair,
    load_crosswalk,
    midranks,
    run_crosswalk,
    spearman_rho,
)
from bibliorank.corpus import TimeWindow
from bibliorank.errors import ConstantInputError, InputError, InsufficientDataError
from bibliorank.config import RunConfig, load_config
from bibliorank.pipeline import run_compare
from bibliorank.ranking import RankingTable, load_external_rankings, restrict_to_system


def closed_form(x, y):
    n = len(x)
    rank = lambda v, vals: sorted(vals).index(v) + 1
    d2 = sum((rank(a, x) - rank(b, y)) ** 2 for a, b in zip(x, y))
    return 1 - 6 * d2 / (n * (n * n - 1))


def exact_table(pairs, system="s", field="f"):
    ids, ranks = zip(*sorted(pairs, key=lambda p: p[1]))
    return RankingTable(system, field, ids, ranks)


class TestMidranks:
    def test_no_ties(self):
        assert midranks([30, 10, 20]) == [3.0, 1.0, 2.0]

    def test_ties_get_average_rank(self):
        assert midranks([10, 20, 10, 30]) == [1.5, 3.0, 1.5, 4.0]

    def test_all_equal(self):
        assert midranks([5, 5, 5]) == [2.0, 2.0, 2.0]

    @given(st.lists(st.integers(0, 4) | st.integers(0, 4).map(float)
                    | st.sampled_from([0.5, 2.5, -0.0, 1e300]), max_size=40))
    def test_matches_mean_of_sorted_positions(self, values):
        # Heavy ties, and an int beside the float equal to it.
        ordered = sorted(values)
        expected = []
        for value in values:
            positions = [p for p, v in enumerate(ordered, start=1) if v == value]
            expected.append(sum(positions) / len(positions))
        ranks = midranks(values)
        assert ranks == expected
        assert all((2 * r).is_integer() for r in ranks)


class TestSpearmanRho:
    def test_identity(self):
        assert spearman_rho([3, 1, 4, 1.5, 9], [3, 1, 4, 1.5, 9], 3) == pytest.approx(1.0)

    def test_reversal(self):
        assert spearman_rho([1, 2, 3, 4], [4, 3, 2, 1], 3) == pytest.approx(-1.0)

    def test_worked_example(self):
        # d^2 sums to 4 at n = 4 -> 1 - 24/60
        assert spearman_rho([1, 2, 3, 4], [2, 1, 4, 3], 3) == pytest.approx(0.6, abs=1e-12)

    def test_insufficient_pairs(self):
        with pytest.raises(InsufficientDataError):
            spearman_rho([1, 2], [2, 1], min_n=3)

    def test_constant_input(self):
        with pytest.raises(ConstantInputError):
            spearman_rho([1, 1, 1], [1, 2, 3], 3)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            spearman_rho([1, 2, 3], [1, 2], 3)

    @given(st.permutations(list(range(1, 21))))
    def test_matches_closed_form_without_ties(self, perm):
        x = list(range(1, len(perm) + 1))
        assert spearman_rho(x, perm, 3) == pytest.approx(closed_form(x, perm), abs=1e-12)

    @given(
        st.lists(st.integers(0, 10), min_size=3, max_size=30),
        st.randoms(use_true_random=False),
    )
    def test_symmetric_and_bounded(self, y, rnd):
        x = list(range(len(y)))
        try:
            rho_xy = spearman_rho(x, y, 3)
            rho_yx = spearman_rho(y, x, 3)
        except ConstantInputError:
            return
        assert rho_xy == pytest.approx(rho_yx, abs=1e-12)
        assert -1 - 1e-12 <= rho_xy <= 1 + 1e-12

    @given(st.permutations(list(range(10))))
    def test_invariant_under_increasing_transform(self, perm):
        x = list(range(10))
        transformed = [3.0 * v + 7 for v in perm]
        assert spearman_rho(x, list(perm), 3) == pytest.approx(
            spearman_rho(x, transformed, 3), abs=1e-12)


class TestAgreementLevel:
    def test_two_of_six(self):
        # six institutions abroad, only two inside the national top six
        intl = exact_table([(f"i{k}", k + 1) for k in range(6)])
        national_pairs = [("i0", 1), ("i1", 2)] + [
            (f"x{k}", 3 + k) for k in range(4)
        ] + [(f"i{k}", 7 + k - 2) for k in range(2, 6)]
        natl = exact_table(national_pairs)
        assert agreement_level(intl, natl, "warn") == (2, 6)

    def test_perfect_agreement(self):
        intl = exact_table([(f"i{k}", k + 1) for k in range(5)])
        natl = exact_table([(f"i{k}", k + 1) for k in range(5)])
        assert agreement_level(intl, natl, "warn") == (5, 5)

    def test_tie_group_straddling_cutoff_counts_by_rank_value(self):
        intl = exact_table([("a", 10), ("b", 20)])  # s = 2
        # national competition ranks 1, 2, 2: the tie at rank 2 stays <= s
        natl = RankingTable("n", "f", ("x", "a", "b"), (1, 2, 2))
        assert agreement_level(intl, natl, "warn") == (2, 2)

    def test_missing_national_warn_vs_strict(self):
        intl = exact_table([("a", 1), ("ghost", 2)])
        natl = exact_table([("a", 1)])
        assert agreement_level(intl, natl, "warn")[0] == 1
        with pytest.raises(InputError, match="ghost"):
            agreement_level(intl, natl, "strict")

    def test_matches_brute_force_on_random_tables(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(1, 100)
            insts = [f"u{k}" for k in range(n)]
            natl_order = insts[:]
            rng.shuffle(natl_order)
            natl = exact_table([(u, k + 1) for k, u in enumerate(natl_order)])
            s = rng.randint(1, n)
            intl_insts = rng.sample(insts, s)
            intl = exact_table([(u, k + 1) for k, u in enumerate(intl_insts)])
            natl_rank = {u: k + 1 for k, u in enumerate(natl_order)}
            expected = sum(1 for u in intl_insts if natl_rank[u] <= s)
            assert agreement_level(intl, natl, "warn") == (expected, s)

    def test_invariant_under_relabeling(self):
        intl = exact_table([("a", 1), ("b", 2), ("c", 3)])
        natl = exact_table([("b", 1), ("d", 2), ("a", 3), ("c", 4)])
        rename = {"a": "W", "b": "X", "c": "Y", "d": "Z"}
        intl2 = exact_table([(rename[inst], rank)
                             for inst, rank in zip(intl.ids, intl.ranks)])
        natl2 = exact_table([(rename[inst], rank)
                             for inst, rank in zip(natl.ids, natl.ranks)])
        assert agreement_level(intl, natl, "warn") == agreement_level(intl2, natl2, "warn")


class TestComparePair:
    def test_small_n_keeps_agreement(self):
        intl = exact_table([("a", 1), ("b", 2)])
        natl = exact_table([("a", 1), ("b", 2)])
        pair = compare_pair(intl, natl, 3, "warn")
        assert pair.rho is None
        assert (pair.agreement_num, pair.agreement_den) == (2, 2)

    def test_identical_tables(self):
        pairs = [(f"u{k}", k + 1) for k in range(5)]
        pair = compare_pair(exact_table(pairs), exact_table(pairs), 3, "warn")
        assert pair.rho == pytest.approx(1.0)
        assert (pair.agreement_num, pair.agreement_den) == (5, 5)

    def test_fixture_cross_system_rho_matches_oracle(self, fixtures_dir, tmp_path):
        # The six international pairs in the fixture crosswalk, checked on
        # the real compare path against scipy and a brute-force count.
        scipy_stats = pytest.importorskip("scipy.stats")
        config = load_config(fixtures_dir / "config.json")._replace(out_dir=tmp_path)
        reports = {p.name: p for p in run_compare(config)}
        tables = load_external_rankings(fixtures_dir / "external_rankings.csv")
        national = load_external_rankings(fixtures_dir / "national_rankings.csv")
        system = set().union(*(t.ids for t in national.values()))
        effective = {s: {inst: rank for inst, rank in zip(t.ids, t.ranks)
                         if inst in system}
                     for (s, _), t in tables.items()}
        for a, b in itertools.combinations(["shanghai", "leiden", "qs", "ntu"], 2):
            text = reports[f"concordance_{a}_{b}.csv"].read_text(encoding="utf-8")
            row = [l for l in text.splitlines() if not l.startswith("#")][1]
            _, _, n, rho, num, den, _ = row.split(",")
            src, tgt = effective[a], effective[b]
            shared = sorted(src.keys() & tgt.keys())
            expected_rho = scipy_stats.spearmanr([src[i] for i in shared],
                                                 [tgt[i] for i in shared]).statistic
            assert int(n) == len(shared)
            assert float(rho) == pytest.approx(expected_rho, abs=5e-4)
            # target competition rank: 1 + institutions strictly ahead of it
            ahead = {i: sum(1 for v in tgt.values() if v < tgt[i]) for i in tgt}
            assert int(den) == len(src)
            assert int(num) == sum(1 for i in src if i in tgt and ahead[i] + 1 <= len(src))


class TestAggregateAgreement:
    def pair(self, num, den):
        return SimpleNamespace(agreement_num=num, agreement_den=den)

    def test_pooled_and_mean(self):
        pairs = [self.pair(2, 6), self.pair(4, 4)]
        assert aggregate_agreement(pairs) == (6, 10, (2, 3))

    def test_single_pair(self):
        assert aggregate_agreement([self.pair(3, 5)]) == (3, 5, (3, 5))

    def test_all_perfect(self):
        num, den, mean = aggregate_agreement([self.pair(1, 1)] * 4)
        assert agreement_decimal(num, den) == 1.0
        assert mean == (1, 1)

    def test_empty_tables_left_out(self):
        assert aggregate_agreement(
            [self.pair(2, 6), self.pair(0, 0), self.pair(4, 4)]) == (6, 10, (2, 3))
        num, den, mean = aggregate_agreement([self.pair(0, 0)] * 3)
        assert (num, den) == (0, 0)
        assert agreement_decimal(num, den) == 0.0
        assert mean == (0, 1)

    def test_pooled_bounded_by_extremes(self):
        pairs = [self.pair(1, 4), self.pair(3, 4), self.pair(2, 5)]
        num, den, (mean_num, mean_den) = aggregate_agreement(pairs)
        fracs = [Fraction(p.agreement_num, p.agreement_den) for p in pairs]
        assert min(fracs) <= Fraction(num, den) <= max(fracs)
        assert min(fracs) <= Fraction(mean_num, mean_den) <= max(fracs)

    @given(st.lists(st.integers(0, 10**6).flatmap(
        lambda den: st.tuples(st.integers(0, den), st.just(den))), max_size=30))
    def test_mean_is_the_reduced_fraction(self, drawn):
        # Fraction is the reference: the mean of the measurable fractions,
        # reduced, and its float; no measurable pair gives Fraction(0).
        measurable = [Fraction(num, den) for num, den in drawn if den]
        expected = sum(measurable, Fraction(0)) / (len(measurable) or 1)
        _, _, (mean_num, mean_den) = aggregate_agreement([self.pair(*p) for p in drawn])
        assert (mean_num, mean_den) == (expected.numerator, expected.denominator)
        assert mean_num / mean_den == float(expected)


class TestRunCrosswalk:
    def tables(self):
        natl_pairs = [(f"u{k}", k + 1) for k in range(8)]
        natl = {
            "alpha": exact_table(natl_pairs, "nat", "alpha"),
            "beta": exact_table(natl_pairs, "nat", "beta"),
            "gamma": exact_table(natl_pairs, "nat", "gamma"),
        }
        intl = {
            "wide": exact_table([("u3", 10), ("u0", 40), ("u5", 55), ("u7", 60)],
                                "intl", "wide"),
        }
        return intl, natl

    def test_one_source_to_three_targets(self):
        intl, natl = self.tables()
        crosswalk = FieldCrosswalk("intl", "nat", (
            ("wide", "alpha"), ("wide", "beta"), ("wide", "gamma")))
        report = run_crosswalk(crosswalk, intl, natl, 3, "warn")
        assert len(report.pairs) == 3
        assert report.unresolved == ()

    def test_unresolved_reported_not_fatal(self):
        intl, natl = self.tables()
        crosswalk = FieldCrosswalk("intl", "nat", (
            ("wide", "alpha"), ("missing", "beta")))
        report = run_crosswalk(crosswalk, intl, natl, 3, "warn")
        assert report.unresolved == (("missing", "beta"),)
        assert len(report.pairs) == 1

    def test_zero_resolvable_is_error(self):
        intl, natl = self.tables()
        crosswalk = FieldCrosswalk("intl", "nat", (("missing", "beta"),))
        with pytest.raises(InputError, match="zero field pairs"):
            run_crosswalk(crosswalk, intl, natl, 3, "warn")

    def test_empty_intersection_emits_insufficient_pair(self):
        intl = {"wide": restrict_to_system(exact_table([("stranger", 1)], "intl", "wide"),
                                           {"u0"})}
        natl = {"alpha": exact_table([("u0", 1)], "nat", "alpha")}
        crosswalk = FieldCrosswalk("intl", "nat", (("wide", "alpha"),))
        report = run_crosswalk(crosswalk, intl, natl, 3, "warn")
        pair = report.pairs[0]
        assert pair.rho is None
        assert pair.agreement_den == 0

    def test_each_national_table_ranked_once(self, monkeypatch):
        intl, natl = self.tables()
        intl["narrow"] = exact_table([("u1", 3), ("u4", 9), ("u6", 12)], "intl", "narrow")
        ranked = []

        def counting(keys):
            ranked.append(len(keys))
            return real(keys)

        real = ranking.competition_ranks
        monkeypatch.setattr(ranking, "competition_ranks", counting)
        crosswalk = FieldCrosswalk("intl", "nat", (
            ("wide", "alpha"), ("narrow", "alpha"), ("wide", "beta"), ("narrow", "beta")))
        first = run_crosswalk(crosswalk, intl, natl, 3, "warn")
        assert ranked == [8, 8]  # alpha and beta, once each
        assert run_crosswalk(crosswalk, intl, natl, 3, "warn") == first
        assert ranked == [8, 8]

    def test_duplicate_crosswalk_pair_rejected(self, tmp_path):
        path = tmp_path / "cw.csv"
        path.write_text(
            "source_system,source_field,target_system,target_field\n"
            "a,f,b,g\na,f,c,g\na,f,b,g\n",
            encoding="utf-8")
        with pytest.raises(InputError,
                           match=r"^line 4: duplicate .* 'a' -> 'b' \(first seen at line 2\)$"):
            load_crosswalk(path)


class TestLoadCrosswalk:
    def test_fixture_groups_by_system_pair(self, fixtures_dir):
        crosswalks = load_crosswalk(fixtures_dir / "crosswalk.csv")
        international = ["shanghai", "leiden", "qs", "ntu"]
        assert {(c.source_system, c.target_system) for c in crosswalks} == {
            *((s, "national") for s in international),
            *itertools.combinations(international, 2)}
        assert all(c.pairs == (("overall", "overall"),) for c in crosswalks)

    def test_empty_cell_rejected(self, tmp_path):
        path = tmp_path / "cw.csv"
        path.write_text(
            "source_system,source_field,target_system,target_field\na,,b,c\n",
            encoding="utf-8")
        with pytest.raises(InputError, match="line 2"):
            load_crosswalk(path)


class TestRunCompare:
    def report_row(self, tmp_path, fixtures_dir, external, crosswalk):
        """The one data row of the report that compare writes for the given
        external-ranking and crosswalk rows, against the national table
        u1..u4 ranked 1..4."""
        def write(name, header, rows):
            path = tmp_path / name
            path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
            return path

        header = "system_name,field_name,institution_id,rank"
        config = RunConfig(
            publications=fixtures_dir / "publications.csv",
            journals=fixtures_dir / "journals.csv",
            taxonomy=fixtures_dir / "taxonomy.csv",
            windows=(TimeWindow(2008, 2012),),
            out_dir=tmp_path / "out",
            external_rankings=write("external.csv", header, external),
            national_rankings=write("national.csv", header,
                                    [f"nat,f,u{k},{k}" for k in range(1, 5)]),
            crosswalk=write("crosswalk.csv",
                            "source_system,source_field,target_system,target_field",
                            crosswalk),
            national_system="nat",
        )
        [path] = run_compare(config)
        text = path.read_text(encoding="utf-8")
        return [l for l in text.splitlines() if not l.startswith("#")][1]

    def test_international_target_restricted_to_national_system(self, tmp_path,
                                                                fixtures_dir):
        # Restricted, a is u1, u4, u2 (s = 3) and b is u3, u2, u1, u4 with
        # competition ranks 1-4: rho over ranks (1,2,3) vs (3,4,2) is -0.5, and
        # u1 and u2 sit in b's top 3. Unrestricted, b would rank them 5 and 4.
        external = ["a,f,u1,1", "a,f,u4,2", "a,f,u2,3", "a,f,y,4",
                    "b,f,x1,1", "b,f,u3,2", "b,f,x2,3", "b,f,u2,4", "b,f,u1,5", "b,f,u4,6"]
        row = self.report_row(tmp_path, fixtures_dir, external, ["a,f,b,f"])
        assert row == "f,f,3,-0.500,2,3,0.666667"

    def test_national_system_names_the_national_tables(self, tmp_path, fixtures_dir):
        # The external system "nat" reverses the national order; the national
        # tables win the name.
        external = ["a,f,u1,1", "a,f,u2,2", "a,f,u3,3",
                    "nat,f,u3,1", "nat,f,u2,2", "nat,f,u1,3"]
        row = self.report_row(tmp_path, fixtures_dir, external, ["a,f,nat,f"])
        assert row == "f,f,3,1.000,3,3,1.000000"
