"""Concordance between ranking systems: tie-corrected Spearman rho and the
agreement level A.

Rho is Pearson correlation over midranks (fractional ranks for ties), which
reduces to 1 - 6*sum(d^2)/(n(n^2-1)) in the tie-free case. Agreement is the
fraction of the institutions in a source field table of size s that also
occupy the top-s positions of the target field table; the fraction is kept
exact and never pre-reduced. Either side may be the national system or an
international one; the caller restricts both to the national system's
institutions first.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .corpus import normalize_id, read_csv
from .errors import ConstantInputError, InputError, InsufficientDataError
from .ranking import RankingTable

CROSSWALK_COLUMNS = ("source_system", "source_field", "target_system", "target_field")


def midranks(values: Sequence[float]) -> list[float]:
    """Average ranks (1-based); tied values share the mean of their positions:
    the c copies of a value with ``below`` smaller ones hold positions
    below+1 .. below+c, so each gets below + (c+1)/2, twice which is an int."""
    counts = Counter(values)
    ranks: dict[float, float] = {}
    below = 0
    for value in sorted(counts):
        count = counts[value]
        ranks[value] = below + (count + 1) / 2
        below += count
    return list(map(ranks.__getitem__, values))


def _pearson(x: Sequence[float], y: Sequence[float]) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    if vx == 0 or vy == 0:
        raise ConstantInputError("correlation undefined for a constant input")
    return cov / math.sqrt(vx * vy)


def spearman_rho(x: Sequence[float], y: Sequence[float], min_n: int) -> float:
    """Rank correlation of two paired lists, midrank tie handling."""
    if len(x) != len(y):
        raise InputError(f"paired lists differ in length: {len(x)} vs {len(y)}")
    if len(x) < min_n:
        raise InsufficientDataError(
            f"need at least {min_n} pairs to report rho, got {len(x)}"
        )
    return _pearson(midranks(x), midranks(y))


def agreement_level(source: RankingTable, target: RankingTable,
                    missing_national: str) -> tuple[int, int]:
    """Unreduced (numerator, s): how many of the source table's s
    institutions are in the target's top-s.

    s is the source table size; positions use the target table's
    competition ranks, so a tie group straddling s counts members with rank
    value <= s. An institution absent from the target table counts as
    non-coinciding under "warn" and is an error under "strict";
    ``RunConfig.validate`` checks the policy value.
    """
    s = len(source)
    target_ranks = target.competition_ranks()
    numerator = 0
    for inst in source.ids:
        rank = target_ranks.get(inst)
        if rank is None:
            if missing_national == "strict":
                raise InputError(
                    f"institution {inst!r} missing from target table "
                    f"{target.system_name!r}/{target.field_name!r}"
                )
            continue
        if rank <= s:
            numerator += 1
    return numerator, s


def agreement_decimal(num: int, den: int) -> float:
    """The agreement fraction as a float; 0/0 (an empty source table) is 0.0."""
    return num / den if den else 0.0


class ConcordancePair(NamedTuple):
    source_field: str
    target_field: str
    n: int
    rho: float | None
    agreement_num: int
    agreement_den: int


def compare_pair(source: RankingTable, target: RankingTable, min_n: int,
                 missing_national: str) -> ConcordancePair:
    """Rho and agreement for one crosswalk-matched field pair.

    Both tables come restricted to the national system's institutions. Rho
    correlates source effective ranks with target competition ranks over the
    institutions present on both sides.
    """
    target_ranks = target.competition_ranks()
    joined = [(rank, target_rank) for inst, rank in zip(source.ids, source.ranks)
              if (target_rank := target_ranks.get(inst)) is not None]
    x = [rank for rank, _ in joined]
    y = [float(target_rank) for _, target_rank in joined]
    try:
        rho: float | None = spearman_rho(x, y, min_n)
    except (InsufficientDataError, ConstantInputError):
        rho = None
    return ConcordancePair(source.field_name, target.field_name, len(joined), rho,
                           *agreement_level(source, target, missing_national))


def aggregate_agreement(pairs: Sequence[ConcordancePair]
                        ) -> tuple[int, int, tuple[int, int]]:
    """(sum of numerators, sum of denominators, unweighted mean of fractions)
    over the pairs with a non-zero denominator; (0, 0, (0, 1)) when no pair
    has one. The mean is the reduced (numerator, denominator) of the exact
    rational, so ``n / d`` is its correctly rounded float."""
    measurable = [p for p in pairs if p.agreement_den > 0]
    if not measurable:
        return 0, 0, (0, 1)
    num = sum(p.agreement_num for p in measurable)
    den = sum(p.agreement_den for p in measurable)
    common = math.lcm(*(p.agreement_den for p in measurable))
    mean_num = sum(p.agreement_num * (common // p.agreement_den) for p in measurable)
    mean_den = common * len(measurable)
    g = math.gcd(mean_num, mean_den)
    return num, den, (mean_num // g, mean_den // g)


class FieldCrosswalk(NamedTuple):
    """Field matching between one source system and one target system."""

    source_system: str
    target_system: str
    pairs: tuple[tuple[str, str], ...]


class ConcordanceReport(NamedTuple):
    pairs: tuple[ConcordancePair, ...]
    unresolved: tuple[tuple[str, str], ...]


def load_crosswalk(path: str | Path) -> list[FieldCrosswalk]:
    """Load crosswalks from CSV, grouped by (source_system, target_system)."""
    grouped: dict[tuple[str, str], dict[tuple[str, str], int]] = {}
    with read_csv(path, CROSSWALK_COLUMNS, "crosswalk") as (rows, line):
        for cells in rows:
            values = [normalize_id(c or "") for c in cells]
            if not all(values):
                raise InputError("empty crosswalk cell", line())
            source_system, source_field, target_system, target_field = values
            key = (source_system, target_system)
            pair = (source_field, target_field)
            first_line = grouped.setdefault(key, {})
            if pair in first_line:
                raise InputError(f"duplicate (source, target) pair in crosswalk {key[0]!r} -> "
                                 f"{key[1]!r} (first seen at line {first_line[pair]})", line())
            first_line[pair] = line()
    return [
        FieldCrosswalk(src, tgt, tuple(pairs))
        for (src, tgt), pairs in grouped.items()
    ]


def run_crosswalk(crosswalk: FieldCrosswalk,
                  source_tables: Mapping[str, RankingTable],
                  target_tables: Mapping[str, RankingTable], min_n: int,
                  missing_national: str) -> ConcordanceReport:
    """One concordance pair per crosswalk row; unresolvable rows are reported."""
    pairs: list[ConcordancePair] = []
    unresolved: list[tuple[str, str]] = []
    for source_field, target_field in crosswalk.pairs:
        source = source_tables.get(source_field)
        target = target_tables.get(target_field)
        if source is None or target is None:
            unresolved.append((source_field, target_field))
            continue
        pairs.append(compare_pair(source, target, min_n, missing_national))
    if not pairs:
        raise InputError(
            f"crosswalk {crosswalk.source_system!r} -> {crosswalk.target_system!r} "
            "resolves to zero field pairs"
        )
    return ConcordanceReport(tuple(pairs), tuple(unresolved))
