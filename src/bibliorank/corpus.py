"""Publication and journal data: loading, validation, and time-windowing.

The loaders return plain values: a list of records, and each journal's
quartiles as nested dicts. A :class:`Corpus` is one window's or one field's
records beside the journal map. Input files are UTF-8; identifiers are compared byte-exactly
after trimming surrounding whitespace.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence, TextIO

from .errors import ConfigError, InputError

YEAR_MIN = 1900
YEAR_MAX = 2100
# Keeps NDOC*NCIT*H and NCIT/NDOC finite for any corpus that fits in memory.
CITATIONS_MAX = 10**9

PUBLICATION_COLUMNS = ("record_id", "institution_id", "year", "journal_id", "citations")
PUBLICATION_FORMATS = ("csv", "jsonl")
JOURNAL_COLUMNS = ("journal_id", "category", "year", "quartile")


def normalize_id(raw: str) -> str:
    return raw.strip()


def normalize_category(raw: str) -> str:
    return raw.strip().casefold()


class PublicationRecord(NamedTuple):
    """One citable paper with a snapshot citation count."""

    record_id: str
    institution_id: str
    year: int
    journal_id: str
    citations: int


# A journal's quartile in {1,2,3,4} by normalized subject category, then by
# year; a missing year has no entry. Its keys are the journal's categories.
Quartiles = Mapping[str, Mapping[int, int]]


@dataclass(frozen=True, order=True)
class TimeWindow:
    """Inclusive year range, e.g. TimeWindow(2008, 2012) spans five years."""

    start_year: int
    end_year: int

    def __post_init__(self):
        if self.start_year > self.end_year:
            raise ConfigError(
                f"window start {self.start_year} is after end {self.end_year}"
            )

    def __contains__(self, year: int) -> bool:
        return self.start_year <= year <= self.end_year

    @property
    def length(self) -> int:
        return self.end_year - self.start_year + 1

    @property
    def label(self) -> str:
        return f"w{self.length}"

    def __str__(self) -> str:
        return f"{self.start_year}-{self.end_year}"


@dataclass(frozen=True)
class Corpus:
    """Windowed publications plus the journal set they resolve against."""

    publications: tuple[PublicationRecord, ...]
    journals: Mapping[str, Quartiles]

    def __len__(self) -> int:
        return len(self.publications)


@contextmanager
def _open_input(path: Path) -> Iterator[TextIO]:
    """Open a UTF-8 input file; a failure to open or decode it is an InputError
    without a line number, since decoding runs a buffer ahead of the rows."""
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def read_csv(path: str | Path, columns: Sequence[str],
             what: str) -> Iterator[tuple[int, tuple[str | None, ...]]]:
    """Yield (line, cells) for each data row of a CSV file with a header.

    A header lacking any of ``columns`` is an error at line 1, naming the
    file as ``what``. A row's line is the physical line it ends on, so blank
    lines and quoted fields that span lines are counted. ``cells`` holds the
    row's cells for ``columns``, in that order, as ``csv.DictReader`` gives
    them: a repeated name takes its last cell and a short row is padded with
    None.
    """
    with _open_input(Path(path)) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or set(columns) - set(header):
                raise InputError(f"{what} file must have columns {','.join(columns)}", line=1)
            index = {name: i for i, name in enumerate(header)}
            wanted = [index[c] for c in columns]
            width = max(wanted) + 1
            # itemgetter of one index gives the bare cell, so wrap it.
            take = itemgetter(*wanted) if len(wanted) > 1 else lambda row: (row[wanted[0]],)
            for row in reader:
                if len(row) < width:
                    if not row:
                        continue
                    row += [None] * (width - len(row))
                yield reader.line_num, take(row)
        except csv.Error as exc:
            raise InputError(f"malformed CSV: {exc}", reader.line_num) from None


def _read_jsonl(path: str | Path,
                columns: Sequence[str]) -> Iterator[tuple[int, tuple[str | None, ...]]]:
    """Yield (line, cells) for each non-blank line of a JSON Lines file, with
    the cells as ``read_csv`` gives them: each value of ``columns`` as text,
    or None where the key is absent or null."""
    with _open_input(Path(path)) as fh:
        for line, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                row = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise InputError(f"invalid JSON: {exc.msg}", line) from None
            except (RecursionError, ValueError) as exc:  # too deep; an integer too long
                raise InputError(f"invalid JSON: {exc}", line) from None
            if not isinstance(row, dict):
                raise InputError(f"expected a JSON object, got {type(row).__name__}", line)
            yield line, tuple(None if (v := row.get(c)) is None else str(v) for c in columns)


def _parse_int(raw: str, what: str, line: int) -> int:
    try:
        return int(raw.strip())
    except (TypeError, ValueError, AttributeError):
        raise InputError(f"{what} must be a base-10 integer, got {raw!r}", line)


def memoize_checked(memos: Sequence[dict], cells: Sequence[str | None],
                    values: Sequence) -> tuple:
    """Store each checked value in its column's memo under its raw cell text
    and return the stored values; an earlier entry wins, so rows share it.

    The publication, journal and ranking loaders keep one memo per column, so
    each distinct cell text is normalized or parsed once. A row whose cells
    are all in the memos is valid; any other row takes the full checks, in
    order, and stores its values here only once all of them passed. So a
    fault is reported at its own line with its own message.
    """
    return tuple(memo.setdefault(raw, value) for memo, raw, value in zip(memos, cells, values))


def _check_record(cells: Sequence[str | None], line: int,
                  memos: Sequence[dict]) -> PublicationRecord:
    # Every cell is normalized before the check, so a blank one counts as missing.
    texts = ["" if c is None else normalize_id(c) for c in cells]
    missing = [c for c, text in zip(PUBLICATION_COLUMNS, texts) if not text]
    if missing:
        raise InputError(f"missing required column(s) {', '.join(missing)}", line)
    record_id, institution_id, year_text, journal_id, citations_text = texts
    year = _parse_int(year_text, "year", line)
    if not YEAR_MIN <= year <= YEAR_MAX:
        raise InputError(f"year {year} outside sanity range [{YEAR_MIN}, {YEAR_MAX}]", line)
    citations = _parse_int(citations_text, "citations", line)
    if citations < 0:
        raise InputError(f"negative citations ({citations})", line)
    if citations > CITATIONS_MAX:
        raise InputError(f"citations {citations} above sanity bound {CITATIONS_MAX}", line)
    # record_id is unique, so it is not memoized.
    return PublicationRecord(record_id, *memoize_checked(
        memos, cells[1:], (institution_id, year, journal_id, citations)))


def load_publications(path: str | Path, format: str = "csv") -> list[PublicationRecord]:
    """Load publication records from a CSV or JSONL file.

    Row order is preserved; duplicate record ids are an error naming both rows.
    ``RunConfig.validate`` checks ``format``.
    """
    rows = (read_csv(path, PUBLICATION_COLUMNS, "publications") if format == "csv"
            else _read_jsonl(path, PUBLICATION_COLUMNS))
    memos: tuple[dict, ...] = ({}, {}, {}, {})
    institutions, years, journals, citations = memos
    records: list[PublicationRecord] = []
    seen: dict[str, int] = {}
    for line, cells in rows:
        rid, inst, year, jid, cites = cells
        try:
            rec = PublicationRecord(rid.strip(), institutions[inst], years[year],
                                    journals[jid], citations[cites])
        except (AttributeError, KeyError):  # a None record_id, or a cell not checked yet
            rec = None
        if rec is None or not rec.record_id:
            rec = _check_record(cells, line, memos)
        if rec.record_id in seen:
            raise InputError(
                f"duplicate record_id {rec.record_id!r} "
                f"(first seen at line {seen[rec.record_id]})",
                line,
            )
        seen[rec.record_id] = line
        records.append(rec)
    return records


def _check_journal_row(cells: Sequence[str | None], line: int,
                       memos: Sequence[dict]) -> tuple[str, str, int, int]:
    raw_jid, raw_cat, raw_year, raw_quartile = cells
    jid = normalize_id(raw_jid or "")
    cat = normalize_category(raw_cat or "")
    if not jid or not cat:
        raise InputError("empty journal_id or category", line)
    year = _parse_int(raw_year, "year", line)
    quartile = _parse_int(raw_quartile, "quartile", line)
    if quartile not in (1, 2, 3, 4):
        raise InputError(f"quartile {quartile} outside {{1,2,3,4}}", line)
    return memoize_checked(memos, cells, (jid, cat, year, quartile))


def load_journals(path: str | Path) -> dict[str, dict[str, dict[int, int]]]:
    """Load each journal's quartiles, by category then year, from a
    (journal_id, category, year, quartile) CSV.

    A repeated (journal, category, year) must repeat its quartile; a conflict
    is an error at the later row that names the line of the first.
    """
    memos: tuple[dict, ...] = ({}, {}, {}, {})
    jid_memo, cat_memo, year_memo, quartile_memo = memos
    # journal -> category -> year -> quartile. Each row costs one dict entry
    # and no line record: a conflict reads the file again to name the first.
    quartiles: dict[str, dict[str, dict[int, int]]] = {}
    for line, cells in read_csv(path, JOURNAL_COLUMNS, "journals"):
        raw_jid, raw_cat, raw_year, raw_quartile = cells
        try:
            jid, cat, year, quartile = (jid_memo[raw_jid], cat_memo[raw_cat],
                                        year_memo[raw_year], quartile_memo[raw_quartile])
        except KeyError:  # a cell not checked yet
            jid, cat, year, quartile = _check_journal_row(cells, line, memos)
        by_cat = quartiles.get(jid)
        if by_cat is None:
            by_cat = quartiles[jid] = {}
        by_year = by_cat.get(cat)
        if by_year is None:
            by_year = by_cat[cat] = {}
        if by_year.setdefault(year, quartile) != quartile:
            raise InputError(
                f"conflicting quartiles for journal {jid!r}, category {cat!r}, "
                f"year {year}: Q{by_year[year]} "
                f"(line {_first_journal_line(path, (jid, cat, year), memos)}) vs Q{quartile}",
                line,
            )
    return quartiles


def _first_journal_line(path: str | Path, key: tuple[str, str, int],
                        memos: Sequence[dict]) -> int | None:
    """The line of the journals file's first row whose normalized (journal_id,
    category, year) is ``key``. Read again only to word a conflict, so that
    the load keeps no line per key."""
    for line, cells in read_csv(path, JOURNAL_COLUMNS, "journals"):
        if _check_journal_row(cells, line, memos)[:3] == key:
            return line
    return None


def build_corpus(publications: Sequence[PublicationRecord],
                 journals: Mapping[str, Quartiles], window: TimeWindow) -> Corpus:
    """The publications inside ``window``, in order, beside the journal map."""
    return Corpus(tuple(rec for rec in publications if rec.year in window), journals)
