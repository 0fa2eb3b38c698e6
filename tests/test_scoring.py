import random

import pytest
from hypothesis import given, strategies as st

from bibliorank.indicators import IndicatorSet
from bibliorank.scoring import IndexScore, classify_quadrants, score, score_field


def make_indicators(inst="u", ndoc=8, ncit=27, h=1, pct_q1=0.5, acit=None, topcit=0.125):
    if acit is None:
        acit = ncit / ndoc if ndoc else 0.0
    return IndicatorSet(inst, ndoc, ncit, h, pct_q1, acit, topcit)


class TestScore:
    def test_qnif_cube_root(self):
        s = score(make_indicators(ndoc=8, ncit=27, h=1))
        assert s.qnif == pytest.approx(6.0, rel=1e-12)

    def test_qlif_cube_root(self):
        s = score(make_indicators(pct_q1=0.5, acit=4.0, topcit=0.125))
        assert s.qlif == pytest.approx(0.25 ** (1 / 3), rel=1e-12)
        assert s.qlif == pytest.approx(0.6299605249474366, rel=1e-9)

    @pytest.mark.parametrize("kwargs", [
        {"ndoc": 0, "ncit": 0, "h": 0, "acit": 0.0},
        {"ncit": 0, "acit": 0.0},
        {"h": 0},
    ])
    def test_zero_quantitative_input_annihilates(self, kwargs):
        s = score(make_indicators(**kwargs))
        assert s.qnif == 0.0
        assert s.ifq2a == 0.0

    def test_composite_is_product(self):
        s = score(make_indicators())
        assert s.ifq2a == pytest.approx(s.qnif * s.qlif, rel=1e-12)

    @given(
        ndoc=st.integers(1, 500), ncit=st.integers(0, 5000), h=st.integers(0, 100),
        pct_q1=st.floats(0, 1), topcit=st.floats(0, 1),
    )
    def test_monotone_in_each_input(self, ndoc, ncit, h, pct_q1, topcit):
        base = score(make_indicators(ndoc=ndoc, ncit=ncit, h=h,
                                     pct_q1=pct_q1, topcit=topcit))
        more = score(make_indicators(ndoc=ndoc + 1, ncit=ncit + 1, h=h + 1,
                                     pct_q1=pct_q1, topcit=topcit))
        assert more.qnif >= base.qnif


class TestScoreField:
    def test_single_and_identical(self):
        ind = make_indicators("a")
        scores = score_field({"a": ind, "b": make_indicators("b")})
        assert set(scores) == {"a", "b"}
        assert scores["a"].qnif == scores["b"].qnif

    def test_recomputation_oracle(self):
        rng = random.Random(3)
        indicators = {}
        for i in range(20):
            ndoc = rng.randint(1, 100)
            ncit = rng.randint(0, 1000)
            indicators[f"u{i}"] = make_indicators(
                f"u{i}", ndoc=ndoc, ncit=ncit, h=rng.randint(0, 30),
                pct_q1=rng.random(), topcit=rng.random(),
            )
        for inst, s in score_field(indicators).items():
            ind = indicators[inst]
            qnif = (ind.ndoc * ind.ncit * ind.h) ** (1 / 3)
            qlif = (ind.pct_q1 * ind.acit * ind.topcit) ** (1 / 3)
            assert s.ifq2a == pytest.approx(qnif * qlif, rel=1e-12, abs=1e-15)


class TestClassifyQuadrants:
    def test_two_point_case(self):
        scores = {
            "quant": IndexScore("quant", 2.0, 0.0, 0.0),
            "qual": IndexScore("qual", 0.0, 2.0, 0.0),
        }
        mean_qnif, mean_qlif, labels = classify_quadrants(scores)
        assert labels["quant"] == "quantitative_only"
        assert labels["qual"] == "qualitative_only"
        assert mean_qnif == pytest.approx(1.0)
        assert mean_qlif == pytest.approx(1.0)

    def test_all_identical_sit_on_means(self):
        scores = {f"u{i}": IndexScore(f"u{i}", 3.0, 2.0, 6.0) for i in range(4)}
        _, _, labels = classify_quadrants(scores)
        assert all(q == "both_outstanding" for q in labels.values())

    def test_dominator_is_both_outstanding(self):
        scores = {
            "top": IndexScore("top", 10.0, 10.0, 100.0),
            "low": IndexScore("low", 1.0, 1.0, 1.0),
        }
        _, _, labels = classify_quadrants(scores)
        assert labels["top"] == "both_outstanding"
        assert labels["low"] == "neither"

    def test_labels_partition_institutions(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 30)
            scores = {
                f"u{i}": IndexScore(f"u{i}", rng.random() * 10, rng.random() * 3, 0.0)
                for i in range(n)
            }
            _, _, labels = classify_quadrants(scores)
            assert len(labels) == n


class TestRankOrderInvariance:
    def test_scaling_qualitative_inputs_preserves_argsort(self):
        rng = random.Random(9)
        for _ in range(100):
            n = rng.randint(2, 15)
            s = rng.choice([0.01, 0.5, 2.0, 100.0])
            base = {}
            scaled = {}
            for i in range(n):
                ndoc = rng.randint(1, 50)
                ncit = rng.randint(1, 500)
                h = rng.randint(1, 20)
                pct_q1, acit, topcit = rng.random(), rng.random() * 10, rng.random()
                base[f"u{i}"] = make_indicators(f"u{i}", ndoc, ncit, h,
                                                pct_q1, acit, topcit)
                scaled[f"u{i}"] = make_indicators(f"u{i}", ndoc, ncit, h,
                                                  pct_q1 * s, acit * s, topcit * s)
            order = lambda scores: sorted(scores, key=lambda u: (-scores[u].ifq2a, u))
            assert order(score_field(base)) == order(score_field(scaled))
