"""Composite index: QNIF, QLIF, IFQ2A, and quadrant classification.

QNIF is the cube root of NDOC * NCIT * H (size-dependent); QLIF is the cube
root of %1Q * ACIT * TOPCIT (size-independent); the composite index is their
product. Quadrants split institutions by the field means of both dimensions.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .indicators import IndicatorSet


class IndexScore(NamedTuple):
    institution_id: str
    qnif: float
    qlif: float
    ifq2a: float


# Quadrant label by (qnif >= mean_qnif, qlif >= mean_qlif).
QUADRANT_LABELS = {
    (True, True): "both_outstanding",
    (True, False): "quantitative_only",
    (False, True): "qualitative_only",
    (False, False): "neither",
}


def score(ind: IndicatorSet) -> IndexScore:
    """Combine one institution's six indicators into the composite index."""
    qnif = (ind.ndoc * ind.ncit * ind.h) ** (1.0 / 3.0)
    qlif = (ind.pct_q1 * ind.acit * ind.topcit) ** (1.0 / 3.0)
    return IndexScore(ind.institution_id, qnif, qlif, qnif * qlif)


def score_field(indicators: Mapping[str, IndicatorSet]) -> dict[str, IndexScore]:
    """Score every institution of a field; output keyed identically."""
    return {inst: score(ind) for inst, ind in indicators.items()}


def classify_quadrants(scores: Mapping[str, IndexScore]
                       ) -> tuple[float, float, dict[str, str]]:
    """The unweighted field means of QNIF and QLIF, and each institution's
    quadrant label against them.

    At-mean positions count as outstanding on that axis (closed upper
    quadrant). ``scores`` is not empty: ``compute_field_results`` skips
    empty fields.
    """
    n = len(scores)
    mean_qnif = sum(s.qnif for s in scores.values()) / n
    mean_qlif = sum(s.qlif for s in scores.values()) / n
    return mean_qnif, mean_qlif, {
        inst: QUADRANT_LABELS[s.qnif >= mean_qnif, s.qlif >= mean_qlif]
        for inst, s in scores.items()
    }
