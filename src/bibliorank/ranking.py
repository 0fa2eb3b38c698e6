"""Ranking tables: internally built from index scores, or loaded from
published league tables whose positions may be exact ("89") or interval
("201-300").

Interval ranks resolve to their midpoint for all quantitative use;
institutions sharing an interval become exact ties. Internally built tables
use competition ranking ("1,2,2,4").
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .corpus import memoize_checked, normalize_id, read_csv
from .errors import InputError
from .scoring import IndexScore

_RANK_RE = re.compile(r"^(\d+)(?:-(\d+))?$")
EXTERNAL_COLUMNS = ("system_name", "field_name", "institution_id", "rank")


class ExactRank(NamedTuple):
    """A position >= 1: ``parse_rank`` checks text, ``build_ranking`` counts from 1."""

    position: int

    @property
    def effective(self) -> float:
        return float(self.position)

    def __str__(self) -> str:
        return str(self.position)


class IntervalRank(NamedTuple):
    """A published band "LO-HI" with 1 <= lo <= hi; ``parse_rank`` checks text."""

    lo: int
    hi: int

    @property
    def effective(self) -> float:
        return (self.lo + self.hi) / 2

    def __str__(self) -> str:
        return f"{self.lo}-{self.hi}"


RankValue = ExactRank | IntervalRank


def parse_rank(text: str) -> RankValue:
    """Parse "N" into an exact rank or "LO-HI" into an interval rank."""
    m = _RANK_RE.match(text.strip())
    if m is None:
        raise InputError(f"malformed rank {text!r} (expected 'N' or 'LO-HI')")
    lo = int(m.group(1))
    if m.group(2) is None:
        if lo < 1:
            raise InputError(f"rank position must be >= 1, got {lo}")
        return ExactRank(lo)
    hi = int(m.group(2))
    if lo < 1:
        raise InputError(f"rank interval start must be >= 1, got {lo}")
    if lo > hi:
        raise InputError(f"rank interval {lo}-{hi} has lo > hi")
    return IntervalRank(lo, hi)


class RankEntry(NamedTuple):
    institution_id: str
    rank: RankValue
    score: float | None = None


@dataclass(frozen=True)
class RankingTable:
    """Entries in ascending effective rank, one per institution: built sorted
    by ``build_ranking``, checked by ``load_external_rankings``."""

    system_name: str
    field_name: str
    entries: tuple[RankEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def institution_ids(self) -> set[str]:
        return {e.institution_id for e in self.entries}

    def competition_ranks(self) -> Mapping[str, int]:
        """Local 1..m competition ranks from effective ranks; ties share a rank.
        Computed once per table and shared, so the mapping is read-only."""
        return self._competition_ranks

    @cached_property
    def _competition_ranks(self) -> Mapping[str, int]:
        ranks = competition_ranks([e.rank.effective for e in self.entries])
        return MappingProxyType({e.institution_id: r for e, r in zip(self.entries, ranks)})


def competition_ranks(keys: Sequence) -> list[int]:
    """1-based competition ranks ("1,2,2,4") of keys already in rank order."""
    ranks: list[int] = []
    for position, key in enumerate(keys, start=1):
        if position == 1 or key != keys[position - 2]:
            rank = position
        ranks.append(rank)
    return ranks


def build_ranking(scores: Mapping[str, IndexScore], system_name: str,
                  field_name: str) -> RankingTable:
    """Rank institutions by composite score descending, competition ranking.

    Ties share a rank; the next distinct score is ranked at preceding rank
    plus tie-group size. Display order within a tie is institution id
    lexicographic and never affects rank values.
    """
    # Two stable sorts: by id, then by score descending, so ties stay in id order.
    ordered = sorted(scores.values(), key=attrgetter("institution_id"))
    ordered.sort(key=attrgetter("ifq2a"), reverse=True)
    keys = [s.ifq2a for s in ordered]
    entries = tuple(map(RankEntry, [s.institution_id for s in ordered],
                        map(ExactRank, competition_ranks(keys)), keys))
    return RankingTable(system_name, field_name, entries)


def _check_ranking_row(cells: Sequence[str | None], line: int,
                       memos: Sequence[dict]) -> tuple:
    system, field, inst = (normalize_id(c or "") for c in cells[:3])
    if not system or not field or not inst:
        raise InputError("empty system_name, field_name or institution_id", line)
    try:
        rank = parse_rank(cells[3] or "")
    except (InputError, ValueError) as exc:  # ValueError: too many digits for int
        raise InputError(str(exc), line) from None
    return memoize_checked(memos, cells, (system, field, inst, (rank.effective, rank)))


def load_external_rankings(path: str | Path) -> dict[tuple[str, str], RankingTable]:
    """Load every (system, field) table from an external-ranking CSV."""
    # One memo per column (see memoize_checked); the rank's holds the
    # effective value and the immutable rank value that rows share.
    memos: tuple[dict, ...] = ({}, {}, {}, {})
    system_memo, field_memo, inst_memo, rank_memo = memos
    rows: dict[tuple[str, str], list[tuple[float, RankEntry]]] = {}
    for line, cells in read_csv(path, EXTERNAL_COLUMNS, "external ranking"):
        raw_system, raw_field, raw_inst, raw_rank = cells
        try:
            system, field, inst, (effective, rank) = (
                system_memo[raw_system], field_memo[raw_field], inst_memo[raw_inst],
                rank_memo[raw_rank])
        except KeyError:  # a cell not checked yet
            system, field, inst, (effective, rank) = _check_ranking_row(cells, line, memos)
        rows.setdefault((system, field), []).append((effective, RankEntry(inst, rank)))
    tables: dict[tuple[str, str], RankingTable] = {}
    for (system, field), keyed in rows.items():
        # Stable sort by effective rank keeps file order among exact ties.
        entries = tuple(e for _, e in sorted(keyed, key=itemgetter(0)))
        ids = [e.institution_id for e in entries]
        if len(set(ids)) != len(ids):
            dupes = sorted(i for i, n in Counter(ids).items() if n > 1)
            raise InputError(
                f"duplicate institution(s) in table {system}/{field}: {', '.join(dupes)}"
            )
        tables[system, field] = RankingTable(system, field, entries)
    return tables


def restrict_to_system(table: RankingTable, system_institutions: set[str]) -> RankingTable:
    """Filter a table to a set of institutions, preserving rank values and order.
    A table that keeps every entry is returned as it is, not copied."""
    kept = tuple(e for e in table.entries if e.institution_id in system_institutions)
    if len(kept) == len(table.entries):
        return table
    return RankingTable(table.system_name, table.field_name, kept)
