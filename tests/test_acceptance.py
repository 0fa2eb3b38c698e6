"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -s` to see the
lines as they complete."""

import itertools
import json
import math
import random
import shutil
import time

import numpy as np
import pytest
import scipy.stats

from bibliorank.concordance import agreement_level, spearman_rho
from bibliorank.corpus import Corpus, PublicationRecord
from bibliorank.indicators import IndicatorSet, compute_indicators, top10_threshold
from bibliorank.config import load_config
from bibliorank.pipeline import run_compare, run_rank
from bibliorank.ranking import RankingTable, build_ranking, load_external_rankings
from bibliorank.scoring import IndexScore, classify_quadrants, score, score_field

from conftest import make_corpus, make_journal


def random_indicator_set(rng, inst="u"):
    ndoc = rng.randint(1, 500)
    ncit = rng.randint(0, 5000)
    return IndicatorSet(
        institution_id=inst,
        ndoc=ndoc,
        ncit=ncit,
        h=rng.randint(0, 100),
        pct_q1=rng.random(),
        acit=ncit / ndoc,
        topcit=rng.random(),
    )


def test_01_formula_fidelity():
    rng = random.Random(1)
    start = time.perf_counter()
    for _ in range(1000):
        ind = random_indicator_set(rng)
        s = score(ind)
        assert s.qnif ** 3 == pytest.approx(ind.ndoc * ind.ncit * ind.h,
                                            rel=1e-12, abs=1e-12)
        assert s.qlif ** 3 == pytest.approx(ind.pct_q1 * ind.acit * ind.topcit,
                                            rel=1e-12, abs=1e-12)
        assert s.ifq2a == pytest.approx(s.qnif * s.qlif, rel=1e-12, abs=1e-15)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"formula fidelity took {elapsed:.2f}s"


def test_02_h_index_oracle_equivalence():
    rng = np.random.default_rng(2)
    journals = {"J": make_journal()}
    start = time.perf_counter()
    for _ in range(10_000):
        n = int(rng.integers(0, 201))
        citations = rng.integers(0, 300, size=n)
        # independent oracle: count-based brute force over every candidate h
        if n == 0:
            expected = 0
        else:
            hs = np.arange(1, n + 1)
            counts = (citations[None, :] >= hs[:, None]).sum(axis=1)
            feasible = hs[counts >= hs]
            expected = int(feasible.max()) if feasible.size else 0
        # one institution's papers; record ids do not matter to the indicators
        corpus = Corpus(tuple(PublicationRecord("r", "u", 2010, "J", c)
                              for c in citations.tolist()), journals)
        # top10_threshold needs a non-empty pool; with no papers any threshold
        # gives no indicator row
        indicators = compute_indicators(corpus, top10_threshold(corpus) if n else 0,
                                        frozenset(), "best-all", "warn")[0]
        assert {u: ind.h for u, ind in indicators.items()} == ({"u": expected} if n else {})
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"h-index oracle took {elapsed:.2f}s"


def test_03_top10_threshold_oracle():
    rng = random.Random(3)
    start = time.perf_counter()
    for _ in range(10_000):
        n = rng.randint(1, 60)
        # small value range forces frequent ties at the boundary
        pool = [rng.randint(0, 12) for _ in range(n)]
        t = top10_threshold(make_corpus({"u": pool}))
        ranked = sorted(pool, reverse=True)
        k = math.ceil(0.10 * n)
        assert t == ranked[k - 1]
        assert sum(1 for c in pool if c >= t) >= k
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"threshold oracle took {elapsed:.2f}s"


def test_04_spearman_correctness():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(3, 50)
        x = list(range(1, n + 1))
        y = x[:]
        rng.shuffle(y)
        d2 = sum((a - b) ** 2 for a, b in zip(x, y))
        closed = 1 - 6 * d2 / (n * (n * n - 1))
        assert spearman_rho(x, y, 3) == pytest.approx(closed, abs=1e-12)
    assert spearman_rho([1, 2, 3, 4], [2, 1, 4, 3], 3) == pytest.approx(0.600, abs=1e-12)
    x = [1.0, 2.5, 4.0, 7.5, 9.0]
    assert spearman_rho(x, x, 3) == pytest.approx(1.0, abs=1e-12)
    assert spearman_rho(x, list(reversed(x)), 3) == pytest.approx(-1.0, abs=1e-12)


def _exact_table(pairs, system="s", field="f"):
    ids, ranks = zip(*sorted(pairs, key=lambda p: p[1]))
    return RankingTable(system, field, ids, ranks)


def test_05_agreement_fixture():
    # six institutions in the international table, two inside the national top six
    intl = _exact_table([(f"i{k}", k + 1) for k in range(6)])
    natl = _exact_table(
        [("i0", 1), ("i1", 2), ("x0", 3), ("x1", 4), ("x2", 5), ("x3", 6)]
        + [(f"i{k}", 7 + k - 2) for k in range(2, 6)]
    )
    assert agreement_level(intl, natl, "warn") == (2, 6)

    for s in [1, 4, 9]:
        pairs = [(f"i{k}", k + 1) for k in range(s)]
        assert agreement_level(_exact_table(pairs), _exact_table(pairs), "warn") == (s, s)


def test_06_external_table_fixture_round_trip(fixtures_dir):
    tables = load_external_rankings(fixtures_dir / "external_rankings.csv")
    effective = lambda t: dict(zip(t.ids, t.ranks))
    shanghai = effective(tables[("shanghai", "overall")])
    ntu = effective(tables[("ntu", "overall")])
    assert shanghai["Barcelona"] == 250.5
    assert ntu["Barcelona"] == 89

    for (sys_a, sys_b) in itertools.combinations(
            ["shanghai", "leiden", "qs", "ntu"], 2):
        a = tables[(sys_a, "overall")]
        b = tables[(sys_b, "overall")]
        shared = set(a.ids) & set(b.ids)
        ids = sorted(shared)
        eff_a = effective(a)
        eff_b = effective(b)
        x = [eff_a[i] for i in ids]
        y = [eff_b[i] for i in ids]
        oracle = scipy.stats.spearmanr(x, y).statistic
        assert spearman_rho(x, y, 3) == pytest.approx(oracle, abs=1e-12)


def test_07_rank_order_invariances():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 12)
        s = rng.choice([0.05, 0.5, 3.0, 40.0])
        base, scaled = {}, {}
        for i in range(n):
            ndoc, ncit, h = rng.randint(1, 60), rng.randint(1, 600), rng.randint(1, 25)
            q1, acit, top = rng.random(), rng.random() * 8, rng.random()
            base[f"u{i}"] = IndicatorSet(f"u{i}", ndoc, ncit, h, q1, acit, top)
            scaled[f"u{i}"] = IndicatorSet(f"u{i}", ndoc, ncit, h,
                                           q1 * s, acit * s, top * s)
        argsort = lambda sc: sorted(sc, key=lambda u: (-sc[u].ifq2a, u))
        assert argsort(score_field(base)) == argsort(score_field(scaled))

    rng2 = random.Random(71)
    values = [rng2.choice([0.0, 1.0, 2.5, 7.0, 7.0]) for _ in range(30)]
    scores = {f"u{i}": IndexScore(f"u{i}", 1, 1, v) for i, v in enumerate(values)}
    permuted = dict(sorted(scores.items(), reverse=True))
    ranks = lambda t: dict(zip(t.ids, t.ranks))
    assert ranks(build_ranking(scores, "s", "f")) == ranks(
        build_ranking(permuted, "s", "f"))

    transformed = {u: IndexScore(u, 1, 1, 5.0 * v.ifq2a + 2.0)
                   for u, v in scores.items()}
    assert ranks(build_ranking(scores, "s", "f")) == ranks(
        build_ranking(transformed, "s", "f"))


def test_08_size_independence_split():
    q1 = make_journal(quartile=1)
    q3 = make_journal(quartile=3)
    base = {
        "a": [("JQ1", 95), ("JQ3", 80), ("JQ1", 60), ("JQ3", 40)],
        "b": [("JQ1", 90), ("JQ3", 70), ("JQ1", 50), ("JQ3", 30),
              ("JQ1", 20), ("JQ3", 10)],
    }
    for k in (2, 3, 5):
        def corpus_for(mult):
            records = []
            i = 0
            for inst, papers in base.items():
                for jid, c in papers * mult:
                    i += 1
                    records.append(PublicationRecord(f"r{i}", inst, 2010, jid, c))
            return Corpus(tuple(records), {"JQ1": q1, "JQ3": q3})

        c1, ck = corpus_for(1), corpus_for(k)
        t1, tk = top10_threshold(c1), top10_threshold(ck)
        assert t1 == tk  # tie-free boundary by construction
        ind1 = compute_indicators(c1, t1, frozenset(), "best-all", "warn")[0]
        indk = compute_indicators(ck, tk, frozenset(), "best-all", "warn")[0]
        for inst in base:
            assert indk[inst].ndoc == k * ind1[inst].ndoc
            assert indk[inst].ncit == k * ind1[inst].ncit
            for attr in ("acit", "pct_q1", "topcit"):
                assert getattr(indk[inst], attr) == pytest.approx(
                    getattr(ind1[inst], attr), rel=1e-12, abs=1e-12)
            assert score(indk[inst]).qlif == pytest.approx(
                score(ind1[inst]).qlif, rel=1e-12, abs=1e-12)


def test_09_end_to_end_determinism(tmp_path, fixtures_dir):
    for name in ["publications.csv", "journals.csv", "taxonomy.csv",
                 "external_rankings.csv", "national_rankings.csv", "crosswalk.csv"]:
        shutil.copy(fixtures_dir / name, tmp_path / name)
    config_data = json.loads((fixtures_dir / "config.json").read_text(encoding="utf-8"))
    config_data["out_dir"] = "out"
    (tmp_path / "config.json").write_text(json.dumps(config_data), encoding="utf-8")
    config = load_config(tmp_path / "config.json")

    start = time.perf_counter()

    def snapshot():
        return {p.name: p.read_bytes() for p in sorted(config.out_dir.iterdir())}

    # the taxonomy file's rows as shipped, reversed, and shuffled
    header, *rows = (tmp_path / "taxonomy.csv").read_text(encoding="utf-8").splitlines()
    shuffled = rows[:]
    random.Random(9).shuffle(shuffled)
    outputs = []
    for order in (rows, rows[::-1], shuffled):
        (tmp_path / "taxonomy.csv").write_text("\n".join([header, *order]) + "\n",
                                               encoding="utf-8")
        run_rank(config)
        run_compare(config)
        outputs.append(snapshot())
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0]  # something was actually written
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"end-to-end runs took {elapsed:.2f}s"


def test_10_quadrant_partition():
    rng = random.Random(10)
    for _ in range(100):
        n = rng.randint(1, 40)
        scores = {
            f"u{i}": IndexScore(f"u{i}", rng.random() * 20, rng.random() * 5, 0.0)
            for i in range(n)
        }
        _, _, labels = classify_quadrants(scores)
        counts = {name: 0 for name in
                  ("both_outstanding", "quantitative_only", "qualitative_only", "neither")}
        for q in labels.values():
            counts[q] += 1
        assert sum(counts.values()) == n

    _, _, labels = classify_quadrants({
        "quant": IndexScore("quant", 2.0, 0.0, 0.0),
        "qual": IndexScore("qual", 0.0, 2.0, 0.0),
    })
    assert labels["quant"] == "quantitative_only"
    assert labels["qual"] == "qualitative_only"
