"""Ranking tables: internally built from index scores, or loaded from
published league tables whose positions may be exact ("89") or interval
("201-300").

A loaded rank is kept as its effective value, the position or the
interval's midpoint; institutions sharing an interval become exact ties.
Internally built tables use competition ranking ("1,2,2,4").
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from itertools import compress
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

from .corpus import memoize_checked, normalize_id, read_csv
from .errors import InputError
from .scoring import IndexScore

_RANK_RE = re.compile(r"^(\d+)(?:-(\d+))?$")
EXTERNAL_COLUMNS = ("system_name", "field_name", "institution_id", "rank")

# A ranking table as plain data, to cross from a forked child (RankingTable.columns).
Columns = tuple[str, str, tuple[str, ...], tuple[float, ...], tuple[float, ...]]


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


class RankingTable:
    """Parallel columns in ascending effective rank, one row per institution:
    built sorted by ``build_ranking``, checked by ``load_external_rankings``."""

    __slots__ = ("system_name", "field_name", "ids", "ranks", "scores", "_competition")

    def __init__(self, system_name: str, field_name: str, ids: tuple[str, ...],
                 ranks: tuple[float, ...], scores: tuple[float, ...] = ()):
        self.system_name = system_name
        self.field_name = field_name
        self.ids = ids
        self.ranks = ranks  # effective ranks; ints in a built table
        self.scores = scores  # a built table's IFQ²A values; a loaded table has none
        self._competition: Mapping[str, int] | None = None

    def columns(self) -> Columns:
        """Its five fields in order: ``RankingTable(*table.columns())`` rebuilds it."""
        return self.system_name, self.field_name, self.ids, self.ranks, self.scores

    def __len__(self) -> int:
        return len(self.ids)

    def competition_ranks(self) -> Mapping[str, int]:
        """Local 1..m competition ranks from effective ranks; ties share a rank.
        Computed once per table and shared, so the mapping is read-only."""
        if self._competition is None:
            self._competition = MappingProxyType(
                dict(zip(self.ids, competition_ranks(self.ranks))))
        return self._competition


# _POSITIONS[p] is p: one int object per position, shared by every table's
# ranks, so a cached mapping owns no int of its own. It grows by rebinding to
# a longer copy, never in place, so a concurrent caller still reads a list
# whose every entry is its own index.
_POSITIONS: list[int] = [0]


def competition_ranks(keys: Sequence) -> list[int]:
    """1-based competition ranks ("1,2,2,4") of keys already in rank order."""
    global _POSITIONS
    positions = _POSITIONS
    if len(positions) <= len(keys):
        positions = _POSITIONS = positions + list(range(len(positions), len(keys) + 1))
    ranks: list[int] = []
    for position, key in enumerate(keys, start=1):
        if position == 1 or key != keys[position - 2]:
            rank = positions[position]
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
    keys = tuple(s.ifq2a for s in ordered)
    return RankingTable(system_name, field_name, tuple(s.institution_id for s in ordered),
                        tuple(competition_ranks(keys)), keys)


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
    """Load every (system, field) table from an external-ranking CSV.

    A league table's rows sit together, so its system_name and field_name
    cells are looked up once per run of rows that repeat them as they are;
    the run's other rows check only institution_id and rank.
    """
    # One memo per column (see memoize_checked), so rows share one float.
    memos: tuple[dict, ...] = ({}, {}, {}, {})
    system_memo, field_memo, inst_memo, rank_memo = memos
    by_table: dict[tuple[str, str], tuple[list[str], list[float]]] = defaultdict(lambda: ([], []))
    run_system = run_field = object()  # the current run's raw key cells; object() equals no cell
    with read_csv(path, EXTERNAL_COLUMNS, "external ranking") as (rows, line):
        for cells in rows:
            raw_system, raw_field, raw_inst, raw_rank = cells
            if raw_field == run_field and raw_system == run_system:
                try:
                    inst, rank = inst_memo[raw_inst], rank_memo[raw_rank]
                except KeyError:  # a cell not checked yet
                    inst, rank = _check_ranking_row(cells, line(), memos)[2:]
            else:
                try:
                    system, field, inst, rank = (system_memo[raw_system], field_memo[raw_field],
                                                 inst_memo[raw_inst], rank_memo[raw_rank])
                except KeyError:  # a cell not checked yet
                    system, field, inst, rank = _check_ranking_row(cells, line(), memos)
                ids, ranks = by_table[system, field]
                run_system, run_field = raw_system, raw_field
            ids.append(inst)
            ranks.append(rank)
    tables: dict[tuple[str, str], RankingTable] = {}
    # In first-seen order, the table a duplicate error names; each table's
    # lists are popped, so they are freed once its tuples exist.
    for system, field in list(by_table):
        ids, ranks = by_table.pop((system, field))
        if len(set(ids)) != len(ids):
            dupes = sorted(i for i, n in Counter(ids).items() if n > 1)
            raise InputError(f"duplicate institution(s) in table {system!r}/{field!r}: "
                             f"{', '.join(map(repr, dupes))}")
        # Stable sort by effective rank keeps file order among exact ties.
        order = sorted(range(len(ranks)), key=ranks.__getitem__)
        tables[system, field] = RankingTable(system, field, tuple(map(ids.__getitem__, order)),
                                             tuple(map(ranks.__getitem__, order)))
    return tables


def restrict_to_system(table: RankingTable, system_institutions: set[str]) -> RankingTable:
    """Filter a table to a set of institutions, preserving rank values and order.
    A table that keeps every row is returned as it is, not copied."""
    keep = [i in system_institutions for i in table.ids]
    if all(keep):
        return table
    return RankingTable(table.system_name, table.field_name,
                        *(tuple(compress(column, keep))
                          for column in (table.ids, table.ranks, table.scores)))
