"""Publication and journal data: loading, validation, and time-windowing.

The loaders return plain values: the records of the years a run uses, and
each journal's quartiles as nested dicts. A :class:`Corpus` is one window's
or one field's records beside the journal map. Input files are UTF-8;
identifiers are compared byte-exactly after trimming surrounding whitespace.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from functools import partial
from itertools import compress, islice, repeat
from operator import add, eq, itemgetter
from pathlib import Path
from typing import (Callable, Container, ContextManager, Iterable, Iterator, Mapping,
                    NamedTuple, Sequence, TextIO)

from .errors import ConfigError, InputError

YEAR_MIN = 1900
YEAR_MAX = 2100
# Keeps NDOC*NCIT*H and NCIT/NDOC finite for any corpus that fits in memory.
CITATIONS_MAX = 10**9

PUBLICATION_COLUMNS = ("record_id", "institution_id", "year", "journal_id", "citations")
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


# A record from a tuple of its five fields, built in C: the class's own
# __new__ is a Python function, one frame per row of a load.
_new_record = partial(tuple.__new__, PublicationRecord)


# A journal's quartile in {1,2,3,4} by normalized subject category, then by
# year; a missing year has no entry. Its keys are the journal's categories.
Quartiles = Mapping[str, Mapping[int, int]]


class _Years(NamedTuple):
    start_year: int
    end_year: int


class TimeWindow(_Years):
    """Inclusive year range, e.g. TimeWindow(2008, 2012) spans five years."""

    __slots__ = ()

    def __new__(cls, start_year: int, end_year: int):
        if start_year > end_year:
            raise ConfigError(f"window start {start_year} is after end {end_year}")
        return super().__new__(cls, start_year, end_year)

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


def window_years(windows: Iterable[TimeWindow]) -> frozenset[int]:
    """The years inside any of ``windows``: the only years whose records
    and quartiles a run over them looks up."""
    return frozenset(year for w in windows for year in range(w.start_year, w.end_year + 1))


class Corpus(NamedTuple):
    """Windowed publications plus the journal set they resolve against."""

    publications: tuple[PublicationRecord, ...]
    journals: Mapping[str, Quartiles]

    def __len__(self) -> int:  # the record count, so _replace (which checks len) refuses it
        return len(self.publications)


@contextmanager
def _open_input(path: Path) -> Iterator[TextIO]:
    """Open a UTF-8 input file, less any byte-order mark; a failure to open or
    decode it is an InputError without a line number, since decoding runs a
    buffer ahead of the rows."""
    try:
        with path.open(encoding="utf-8-sig", newline="") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


# An input reader's (rows, line): each data row's cells, and line(), the line of the last row.
Rows = tuple[Iterator[tuple[str | None, ...]], Callable[[], int]]


@contextmanager
def read_csv(path: str | Path, columns: Sequence[str], what: str) -> Iterator[Rows]:
    """``with read_csv(path, columns, what) as (rows, line):`` gives the cells
    of each data row of a CSV file with a header, each tuple made in C with
    no Python frame per row, and ``line()``, the physical line that the row
    given last ends on, so blank lines and quoted fields are counted.

    A header lacking any of ``columns`` is an error at line 1, naming the
    file as ``what``. A row's cells are those of ``columns``, in that order,
    as ``csv.DictReader`` gives them: a repeated name takes its last cell, a
    short row is padded with None, and a blank row is skipped.
    """
    with _open_input(Path(path)) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or set(columns) - set(header):
                raise InputError(f"{what} file must have columns {','.join(columns)}", line=1)
            index = {name: i for i, name in enumerate(header)}
            wanted = [index[c] for c in columns]
            # Padding every row keeps this in C; testing a row's length would not.
            padded = map(add, filter(None, reader), repeat([None] * (max(wanted) + 1)))
            # itemgetter of one index gives the bare cell; zip makes it a 1-tuple.
            yield (map(itemgetter(*wanted), padded) if len(wanted) > 1
                   else zip(map(itemgetter(*wanted), padded))), lambda: reader.line_num
        except csv.Error as exc:
            raise InputError(f"malformed CSV: {exc}", reader.line_num) from None


@contextmanager
def _read_jsonl(path: str | Path, columns: Sequence[str]) -> Iterator[Rows]:
    """``read_csv``'s ``(rows, line)`` for the non-blank lines of a JSON
    Lines file: each value of ``columns`` as text, or None where the key is
    absent or null."""
    line = 0

    def rows() -> Iterator[tuple[str | None, ...]]:
        nonlocal line
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
            yield tuple(None if (v := row.get(c)) is None else str(v) for c in columns)

    with _open_input(Path(path)) as fh:
        yield rows(), lambda: line


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


class Publications(NamedTuple):
    """What ``load_publications`` keeps of a publications file."""

    records: list[PublicationRecord]  # those of the years asked for, in file order
    rows: int  # every data row, of those years or not
    # Each journal id, in file order, and the first record that names it.
    first_records: dict[str, str]


def load_publications(path: str | Path, format: str, years: Container[int]) -> Publications:
    """Load the records of ``years`` from a CSV or JSONL publications file.

    Every row is checked, of those years or not; a duplicate record id is an
    error naming both rows. Only a record whose year is in ``years`` is kept,
    and row order is preserved. ``RunConfig.validate`` checks ``format``.
    """
    memos: tuple[dict, ...] = ({}, {}, {}, {})
    institutions, year_memo, journals, citations = memos
    records: list[PublicationRecord] = []
    # A journal id's first row has a journal cell not in the memo, so it
    # takes the full checks, which alone fill this.
    first_records: dict[str, str] = {}
    # One hash per row, sorted once at the end: a repeat is only a candidate,
    # which _raise_duplicate settles by reading the file again.
    hashes: list[int] = []
    try:
        with _publication_rows(path, format) as (rows, line):
            for cells in rows:
                rid, inst, year, jid, cites = cells
                try:
                    rec = _new_record((rid.strip(), institutions[inst], year_memo[year],
                                       journals[jid], citations[cites]))
                except (AttributeError, KeyError):  # a None record_id, or a cell not checked yet
                    rec = None
                if rec is None or not rec.record_id:
                    rec = _check_record(cells, line(), memos)
                    first_records.setdefault(rec.journal_id, rec.record_id)
                hashes.append(hash(rec.record_id))
                if rec.year in years:
                    records.append(rec)
    except InputError:
        # A duplicate among the rows before the fault comes first in the file.
        _raise_duplicate(path, format, hashes)
        raise
    _raise_duplicate(path, format, hashes)
    return Publications(records, len(hashes), first_records)


def _publication_rows(path: str | Path, format: str) -> ContextManager[Rows]:
    """``read_csv``'s ``(rows, line)`` for a publications file in ``format``."""
    return (read_csv(path, PUBLICATION_COLUMNS, "publications") if format == "csv"
            else _read_jsonl(path, PUBLICATION_COLUMNS))


def _raise_duplicate(path: str | Path, format: str, hashes: list[int]) -> None:
    """Raise the first duplicate record id, in file order, among the first
    ``len(hashes)`` rows of a publications file, which passed their checks and
    whose ids hash to ``hashes``; sorts ``hashes``. Only the ids whose hash
    repeats are read again and tracked, so a hash collision raises nothing."""
    hashes.sort()
    repeated = set(compress(hashes, map(eq, hashes, islice(hashes, 1, None))))
    if not repeated:
        return
    first_lines: dict[str, int] = {}
    with _publication_rows(path, format) as (rows, line):
        for cells in islice(rows, len(hashes)):
            record_id = normalize_id(cells[0])
            if hash(record_id) in repeated:
                first = first_lines.setdefault(record_id, line())
                if first != line():
                    raise InputError(f"duplicate record_id {record_id!r} "
                                     f"(first seen at line {first})", line()) from None


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

    A journal's years in a category sit together, so its journal_id and
    category cells are looked up once per run of rows that repeat them as
    they are; the run's other rows check only year and quartile.
    """
    memos: tuple[dict, ...] = ({}, {}, {}, {})
    jid_memo, cat_memo, year_memo, quartile_memo = memos
    # journal -> category -> year -> quartile. Each row costs one dict entry
    # and no line record: a conflict reads the file again to name the first.
    quartiles: dict[str, dict[str, dict[int, int]]] = {}
    run_jid = run_cat = object()  # the current run's raw key cells; object() equals no cell
    with read_csv(path, JOURNAL_COLUMNS, "journals") as (rows, line):
        for cells in rows:
            raw_jid, raw_cat, raw_year, raw_quartile = cells
            if raw_jid == run_jid and raw_cat == run_cat:
                try:
                    year, quartile = year_memo[raw_year], quartile_memo[raw_quartile]
                except KeyError:  # a cell not checked yet
                    year, quartile = _check_journal_row(cells, line(), memos)[2:]
            else:
                try:
                    jid, cat, year, quartile = (jid_memo[raw_jid], cat_memo[raw_cat],
                                                year_memo[raw_year], quartile_memo[raw_quartile])
                except KeyError:  # a cell not checked yet
                    jid, cat, year, quartile = _check_journal_row(cells, line(), memos)
                by_cat = quartiles.get(jid)
                if by_cat is None:
                    by_cat = quartiles[jid] = {}
                by_year = by_cat.get(cat)
                if by_year is None:
                    by_year = by_cat[cat] = {}
                run_jid, run_cat = raw_jid, raw_cat
            if by_year.setdefault(year, quartile) != quartile:
                raise InputError(
                    f"conflicting quartiles for journal {jid!r}, category {cat!r}, "
                    f"year {year}: Q{by_year[year]} "
                    f"(line {_first_journal_line(path, (jid, cat, year), memos)}) vs Q{quartile}",
                    line(),
                )
    return quartiles


def _first_journal_line(path: str | Path, key: tuple[str, str, int],
                        memos: Sequence[dict]) -> int | None:
    """The line of the journals file's first row whose normalized (journal_id,
    category, year) is ``key``. Read again only to word a conflict, so that
    the load keeps no line per key."""
    with read_csv(path, JOURNAL_COLUMNS, "journals") as (rows, line):
        for cells in rows:
            if _check_journal_row(cells, line(), memos)[:3] == key:
                return line()
    return None


def build_corpus(publications: Sequence[PublicationRecord],
                 journals: Mapping[str, Quartiles], window: TimeWindow) -> Corpus:
    """The publications inside ``window``, in order, beside the journal map."""
    return Corpus(tuple(rec for rec in publications if rec.year in window), journals)
