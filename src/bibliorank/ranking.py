"""Ranking tables: internally built from index scores, or loaded from
published league tables whose positions may be exact ("89") or interval
("201-300").

A loaded rank is kept as its effective value, the position or the
interval's midpoint; institutions sharing an interval become exact ties.
Internally built tables use competition ranking ("1,2,2,4").
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


def parse_rank(text: str) -> float:
    """The effective rank of "N" (N itself) or of a band "LO-HI" (its midpoint)."""
    m = _RANK_RE.match(text.strip())
    if m is None:
        raise InputError(f"malformed rank {text!r} (expected 'N' or 'LO-HI')")
    lo = int(m.group(1))
    hi = lo if m.group(2) is None else int(m.group(2))
    if lo < 1:
        what = "position" if m.group(2) is None else "interval start"
        raise InputError(f"rank {what} must be >= 1, got {lo}")
    if lo > hi:
        raise InputError(f"rank interval {lo}-{hi} has lo > hi")
    try:
        return (lo + hi) / 2
    except OverflowError:
        raise InputError(f"rank {text.strip()!r} is too large for a float") from None


class RankEntry(NamedTuple):
    institution_id: str
    rank: float  # effective: a built table's int rank, a loaded position or band midpoint
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
        ranks = competition_ranks([e.rank for e in self.entries])
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
                        competition_ranks(keys), keys))
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
    return memoize_checked(memos, cells, (system, field, inst, rank))


def load_external_rankings(path: str | Path) -> dict[tuple[str, str], RankingTable]:
    """Load every (system, field) table from an external-ranking CSV."""
    # One memo per column (see memoize_checked), so rows share one float.
    memos: tuple[dict, ...] = ({}, {}, {}, {})
    system_memo, field_memo, inst_memo, rank_memo = memos
    rows: dict[tuple[str, str], list[RankEntry]] = {}
    for line, cells in read_csv(path, EXTERNAL_COLUMNS, "external ranking"):
        raw_system, raw_field, raw_inst, raw_rank = cells
        try:
            system, field, inst, rank = (system_memo[raw_system], field_memo[raw_field],
                                         inst_memo[raw_inst], rank_memo[raw_rank])
        except KeyError:  # a cell not checked yet
            system, field, inst, rank = _check_ranking_row(cells, line, memos)
        rows.setdefault((system, field), []).append(RankEntry(inst, rank))
    tables: dict[tuple[str, str], RankingTable] = {}
    for (system, field), entries in rows.items():
        # Stable sort by effective rank keeps file order among exact ties.
        entries.sort(key=itemgetter(1))
        ids = [e.institution_id for e in entries]
        if len(set(ids)) != len(ids):
            dupes = sorted(i for i, n in Counter(ids).items() if n > 1)
            raise InputError(
                f"duplicate institution(s) in table {system}/{field}: {', '.join(dupes)}"
            )
        tables[system, field] = RankingTable(system, field, tuple(entries))
    return tables


def restrict_to_system(table: RankingTable, system_institutions: set[str]) -> RankingTable:
    """Filter a table to a set of institutions, preserving rank values and order.
    A table that keeps every entry is returned as it is, not copied."""
    kept = tuple(e for e in table.entries if e.institution_id in system_institutions)
    if len(kept) == len(table.entries):
        return table
    return RankingTable(table.system_name, table.field_name, kept)
