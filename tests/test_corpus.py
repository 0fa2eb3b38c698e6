import csv
import io
import json
import re
import tempfile
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from bibliorank import corpus
from bibliorank.concordance import load_crosswalk
from bibliorank.corpus import (
    JOURNAL_COLUMNS,
    PUBLICATION_COLUMNS,
    YEAR_MAX,
    YEAR_MIN,
    PublicationRecord,
    TimeWindow,
    build_corpus,
    load_journals,
    load_publications,
    read_csv,
    window_years,
)
from bibliorank.errors import BiblioRankError, ConfigError, InputError, QuartileLookupError
from bibliorank.indicators import compute_indicators, top10_threshold
from bibliorank.ranking import (EXTERNAL_COLUMNS, RankingTable, load_external_rankings,
                                parse_rank)
from bibliorank.taxonomy import load_taxonomy

from conftest import make_corpus, make_journal


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class Row(NamedTuple):
    """A publications row: its record id, then the fields of its record."""

    record_id: str
    institution_id: str
    year: int
    journal_id: str
    citations: int


def dump_publications(rows, path, format):
    """Serialize rows so that a re-load round-trips exactly."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        if format == "csv":
            writer = csv.writer(fh)
            writer.writerow(PUBLICATION_COLUMNS)
            for r in rows:
                writer.writerow([r.record_id, r.institution_id, r.year, r.journal_id, r.citations])
        else:
            for r in rows:
                fh.write(json.dumps({
                    "record_id": r.record_id,
                    "institution_id": r.institution_id,
                    "year": r.year,
                    "journal_id": r.journal_id,
                    "citations": r.citations,
                }) + "\n")


PUB_HEADER = "record_id,institution_id,year,journal_id,citations\n"
EVERY_YEAR = window_years([TimeWindow(YEAR_MIN, YEAR_MAX)])


def load_rows(path, format):
    """Every row of a publications file, each a Row of its id and record:
    those of each year a valid row can hold."""
    loaded = load_publications(path, format, EVERY_YEAR, True)
    return [Row(record_id, *rec) for record_id, rec in zip(loaded.ids, loaded.records)]

RANKING_HEADER = "system_name,field_name,institution_id,rank\n"


class TestLoadPublications:
    def test_three_rows_pass_through(self, tmp_path):
        path = write(tmp_path, "p.csv", PUB_HEADER + (
            "r1,ua,2010,j1,5\n"
            "r2,ub,2011,j1,0\n"
            "r3,ua,2012,j2,17\n"
        ))
        records = load_rows(path, "csv")
        assert len(records) == 3
        assert records[0] == Row("r1", "ua", 2010, "j1", 5)
        assert records[2].citations == 17

    def test_negative_citations_names_row(self, tmp_path):
        path = write(tmp_path, "p.csv", PUB_HEADER + "r1,ua,2010,j1,-1\n")
        with pytest.raises(InputError, match="line 2.*negative"):
            load_rows(path, "csv")

    def test_duplicate_id_names_both_rows(self, tmp_path):
        path = write(tmp_path, "p.csv", PUB_HEADER + (
            "r1,ua,2010,j1,1\n"
            "dup,ua,2010,j1,1\n"
            "r3,ua,2010,j1,1\n"
            "dup,ub,2011,j1,2\n"
            "r5,ua,2010,j1,1\n"
        ))
        with pytest.raises(InputError, match=r"line 5.*'dup'.*line 3"):
            load_rows(path, "csv")

    def test_duplicate_after_blank_and_multiline_rows_names_physical_lines(self, tmp_path):
        path = write(tmp_path, "p.csv", PUB_HEADER + (
            "\n"
            'dup,"u\na",2010,j1,1\n'
            "dup,ub,2011,j1,2\n"
        ))
        with pytest.raises(InputError, match=r"line 5.*'dup'.*line 4"):
            load_rows(path, "csv")

    @pytest.mark.parametrize("name, text", [
        ("p.csv", PUB_HEADER + 'r1,"u\na",2010,j1,1\n\n\n dup ,ua,2010,j1,1\n'
         "r2,ua,2010,j1,1\ndup,ub,2011,j1,2\n"),
        ("p.jsonl", '{"record_id":"r1","institution_id":"u\\na","year":2010,'
         '"journal_id":"j1","citations":1}\n\n  \n{"record_id":" dup ","institution_id":"ua",'
         '"year":2010,"journal_id":"j1","citations":1}\n{"record_id":"r2","institution_id":'
         '"ua","year":2010,"journal_id":"j1","citations":1}\n{"record_id":"dup",'
         '"institution_id":"ub","year":2011,"journal_id":"j1","citations":2}\n'),
    ], ids=["csv", "jsonl"])
    def test_duplicate_names_first_copy_after_line_breaks_and_blank_lines(
            self, tmp_path, name, text):
        # the first copy's line is found by reading the file again
        path = write(tmp_path, name, text)
        line = 8 if name == "p.csv" else 6
        with pytest.raises(InputError) as info:
            load_rows(path, name.rsplit(".", 1)[1])
        assert str(info.value) == (
            f"line {line}: duplicate record_id 'dup' (first seen at line {line - 2})")
        assert info.value.line == line

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "p.csv", "record_id,year,journal_id,citations\nr1,2010,j1,1\n")
        with pytest.raises(InputError):
            load_rows(path, "csv")

    def test_year_sanity_range(self, tmp_path):
        path = write(tmp_path, "p.csv", PUB_HEADER + "r1,ua,1825,j1,1\n")
        with pytest.raises(InputError, match="sanity range"):
            load_rows(path, "csv")

    def test_jsonl(self, tmp_path):
        path = write(tmp_path, "p.jsonl",
                     '{"record_id":"r1","institution_id":"ua","year":2010,'
                     '"journal_id":"j1","citations":3}\n')
        records = load_rows(path, "jsonl")
        assert records == [Row("r1", "ua", 2010, "j1", 3)]

    def test_jsonl_parse_error_has_line(self, tmp_path):
        path = write(tmp_path, "p.jsonl", '{"record_id": "r1"\n')
        with pytest.raises(InputError, match="line 1"):
            load_rows(path, "jsonl")

    @pytest.mark.parametrize("value", ["[1, 2]", "7"], ids=["array", "number"])
    def test_jsonl_non_object_line_has_line(self, tmp_path, value):
        path = write(tmp_path, "p.jsonl",
                     '{"record_id":"r1","institution_id":"ua","year":2010,'
                     '"journal_id":"j1","citations":3}\n' + value + "\n")
        with pytest.raises(InputError, match="line 2.*JSON object"):
            load_rows(path, "jsonl")

    def test_ids_trimmed(self, tmp_path):
        path = write(tmp_path, "p.csv", PUB_HEADER + " r1 , ua ,2010, j1 ,5\n")
        rec = load_rows(path, "csv")[0]
        assert (rec.record_id, rec.institution_id, rec.journal_id) == ("r1", "ua", "j1")

    @pytest.mark.parametrize("column", ["record_id", "institution_id", "journal_id"])
    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_whitespace_only_id_is_missing(self, tmp_path, format, column):
        row = {"record_id": "r1", "institution_id": "ua", "year": "2010",
               "journal_id": "j1", "citations": "5", column: "   "}
        path = tmp_path / f"p.{format}"
        if format == "csv":
            path.write_text(PUB_HEADER + ",".join(row[c] for c in PUBLICATION_COLUMNS) + "\n",
                            encoding="utf-8")
        else:
            path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        line = 2 if format == "csv" else 1
        with pytest.raises(InputError,
                           match=re.escape(f"line {line}: missing required column(s) {column}")):
            load_rows(path, format)

    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_round_trip(self, tmp_path, format):
        records = [Row(f"r{i}", f"u{i % 3}", 2005 + i % 9, "j1", i * 7 % 23)
                   for i in range(20)]
        path = tmp_path / f"out.{format}"
        dump_publications(records, path, format)
        assert load_rows(path, format) == records

    def test_only_records_of_the_years_asked_for_are_kept(self, tmp_path):
        path = write(tmp_path, "p.csv", PUB_HEADER + (
            "r1,ua,1999,j1,5\n"
            "r2,ub,2010,j2,0\n"
            "r3,ua,2013,j3,1\n"
            "r4,ua,2011,j1,2\n"
            "r5,uc,2010,j3,3\n"
        ))
        years = window_years([TimeWindow(2010, 2011)])
        loaded = load_publications(path, "csv", years, True)
        assert loaded.records == [PublicationRecord("ub", 2010, "j2", 0),
                                  PublicationRecord("ua", 2011, "j1", 2),
                                  PublicationRecord("uc", 2010, "j3", 3)]
        assert loaded.ids == ["r2", "r4", "r5"]
        assert loaded.rows == 5
        # every row's journal, by the first record that names it, in file order
        assert list(loaded.first_records.items()) == [("j1", "r1"), ("j2", "r2"), ("j3", "r3")]
        # without keep_ids, the same but no id of a record
        assert load_publications(path, "csv", years, False) == loaded._replace(ids=[])

    @staticmethod
    def traced_bytes_per_row_of_another_year(tmp_path):
        """The load's traced (kept, peak) bytes per row of another year, for
        20,000 rows of years outside every window and 1,000 of a year inside one."""
        path = tmp_path / "p.csv"
        path.write_text(PUB_HEADER + "".join(
            f"r{i},u{i % 50},{2010 if i % 21 == 0 else 1990 + i % 10},j{i % 30},{i % 97}\n"
            for i in range(21_000)), encoding="utf-8")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_publications(path, "csv", frozenset({2010}), False)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(loaded.records), loaded.rows) == (1_000, 21_000)
        return (kept - before) / 20_000, (peak - before) / 20_000

    def test_memory_kept_per_row_of_another_year(self, tmp_path):
        # a row outside keeps its id's hash in the load's list of hashes,
        # which goes on return, and nothing after it
        assert self.traced_bytes_per_row_of_another_year(tmp_path)[0] < 24

    def test_peak_memory_per_row(self, tmp_path):
        # while the file loads, a row of another year holds only its id's
        # hash: a repeat is only a candidate until the file is read again,
        # so the load keeps no set of ids
        assert self.traced_bytes_per_row_of_another_year(tmp_path)[1] < 80

    def test_memory_kept_per_record_of_the_years_asked_for(self, tmp_path):
        # a kept record is four fields, whose texts the memos share, and its
        # list slot: its record id goes with its row (about 92 bytes here,
        # against 156-165 when each record held its id)
        path = tmp_path / "p.csv"
        path.write_text(PUB_HEADER + "".join(
            f"record-{i:08d},u{i % 50},2010,j{i % 30},{i % 97}\n" for i in range(10_000)),
            encoding="utf-8")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_publications(path, "csv", frozenset({2010}), False)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (len(loaded.records), loaded.ids) == (10_000, [])
        assert (kept - before) / 10_000 < 110

    @pytest.mark.parametrize("format, tail", [
        ("csv", 'r6,"' + "x" * 140_000 + "\n"),  # an unterminated quote: a csv.Error
        ("jsonl", '{"record_id": "r6"\n'),
    ], ids=["csv", "jsonl"])
    def test_duplicate_before_later_faults_wins(self, tmp_path, format, tail):
        # duplicates are settled after the last row, but the first fault in the file wins
        path = tmp_path / f"p.{format}"
        dump_publications([Row("r1", "ua", 2010, "j1", 1),
                           Row("dup", "ua", 2010, "j1", 1),
                           Row("r3", "ua", 1999, "j1", 1),
                           Row("dup", "ub", 2011, "j2", 2),
                           Row("r5", "ua", 2010, "j1", -1)], path, format)
        with path.open("a", encoding="utf-8") as fh:
            fh.write(tail)
        line = 5 if format == "csv" else 4
        with pytest.raises(InputError) as info:
            load_rows(path, format)
        assert str(info.value) == (
            f"line {line}: duplicate record_id 'dup' (first seen at line {line - 2})")
        assert info.value.line == line

    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_cell_fault_before_duplicate_wins(self, tmp_path, format):
        path = tmp_path / f"p.{format}"
        dump_publications([Row("dup", "ua", 2010, "j1", 1),
                           Row("r2", "ua", 1999, "j1", -1),
                           Row("dup", "ub", 2011, "j2", 2)], path, format)
        line = 3 if format == "csv" else 2
        with pytest.raises(InputError) as info:
            load_rows(path, format)
        assert str(info.value) == f"line {line}: negative citations (-1)"

    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_hash_collisions_are_not_duplicates(self, tmp_path, monkeypatch, format):
        rows = [Row(f" r{i} ", f"u{i % 3}", 2005 + i % 9, "j1", i) for i in range(20)]
        path = tmp_path / f"p.{format}"
        dump_publications(rows, path, format)
        years = frozenset({2006, 2010})
        unpatched = load_publications(path, format, years, True)
        monkeypatch.setattr(corpus, "hash", lambda _: 0, raising=False)  # every row a candidate
        assert load_publications(path, format, years, True) == unpatched
        dump_publications(rows + [Row("r7", "u9", 2000, "j2", 1)], path, format)
        line = 22 if format == "csv" else 21
        with pytest.raises(InputError) as info:
            load_publications(path, format, years, False)
        assert str(info.value) == (
            f"line {line}: duplicate record_id 'r7' (first seen at line {line - 13})")


JOURNAL_HEADER = "journal_id,category,year,quartile\n"


class TestLoadJournals:
    def test_grouping_unions_categories(self, tmp_path):
        path = write(tmp_path, "j.csv", JOURNAL_HEADER + (
            "J,A,2010,1\n"
            "J,B,2010,3\n"
        ))
        journals = load_journals(path)
        assert journals == {"J": {"a": {2010: 1}, "b": {2010: 3}}}

    def test_quartile_out_of_range(self, tmp_path):
        path = write(tmp_path, "j.csv", JOURNAL_HEADER + "J,A,2010,5\n")
        with pytest.raises(InputError, match="quartile 5"):
            load_journals(path)

    @pytest.mark.parametrize("rows, line", [
        ('"J\nX",A,2010,1\nJ,A,2010,9\n', 4),
        ("J,A,2010,1\n\nJ,A,2010,9\n", 4),
        ("\nJ,A,2010,9\n", 3),
    ], ids=["after_multiline_field", "after_blank_line", "blank_line_first"])
    def test_error_names_physical_line(self, tmp_path, rows, line):
        path = write(tmp_path, "j.csv", JOURNAL_HEADER + rows)
        with pytest.raises(InputError, match=f"^line {line}: quartile 9") as info:
            load_journals(path)
        assert info.value.line == line

    def test_conflicting_quartiles(self, tmp_path):
        path = write(tmp_path, "j.csv", JOURNAL_HEADER + (
            "J,A,2010,1\n"
            "J,A,2010,2\n"
        ))
        with pytest.raises(InputError, match="conflicting"):
            load_journals(path)

    def test_conflict_names_first_row_of_its_key(self, tmp_path):
        # The two rows spell the key differently and sit far apart; rows of
        # the same journal and category in other years come between them.
        filler = "".join(f"J{i},cat,{1950 + i % 50},3\n" for i in range(600))
        path = write(tmp_path, "j.csv", JOURNAL_HEADER + "J1,cat,2009,4\n" + (
            " J1 ,CAT,2010,1\n") + filler + "J1,cat,2010,2\n")
        with pytest.raises(InputError) as info:
            load_journals(path)
        assert str(info.value) == (
            "line 604: conflicting quartiles for journal 'J1', category 'cat', "
            "year 2010: Q1 (line 3) vs Q2")
        assert info.value.line == 604

    def test_peak_memory_per_row(self, tmp_path):
        # 360 journals x 4-8 categories x 14 years, the shape of a real
        # quartile table: every (journal, category) has a quartile each year.
        rows = [f"J{j:05d},cat-{(j + c) % 40:03d},{year},{1 + (j + year) % 4}\n"
                for j in range(360) for c in range(4 + j % 5) for year in range(2001, 2015)]
        assert len(rows) >= 20_000
        path = write(tmp_path, "j.csv", JOURNAL_HEADER + "".join(rows))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            journals = load_journals(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(by_year) for j in journals.values()
                   for by_year in j.values()) == len(rows)
        assert (peak - before) / len(rows) < 120

    def test_consistent_repeat_is_fine(self, tmp_path):
        path = write(tmp_path, "j.csv", JOURNAL_HEADER + (
            "J,A,2010,1\n"
            "J,A,2010,1\n"
        ))
        assert load_journals(path) == {"J": {"a": {2010: 1}}}

    def test_missing_quartile_is_defined_error(self):
        corpus = make_corpus({"u": [1]}, journal=make_journal(years=[2010]), year=1999)
        with pytest.raises(QuartileLookupError,
                           match="journal 'J' has no quartile for category 'alpha' in year 1999"):
            compute_indicators(corpus, top10_threshold(corpus), frozenset(), "best-all", "strict")


class TestTimeWindow:
    def test_inclusive_bounds(self):
        w = TimeWindow(2008, 2012)
        assert 2008 in w and 2012 in w
        assert 2007 not in w and 2013 not in w
        assert w.length == 5
        assert w.label == "w5"

    def test_reversed_window_rejected(self):
        with pytest.raises(ConfigError):
            TimeWindow(2012, 2008)


# Each input loader with the header line its file format needs.
EVERY_LOADER = pytest.mark.parametrize("loader, header", [
    (lambda p: load_rows(p, "csv"), PUB_HEADER),
    (lambda p: load_rows(p, "jsonl"), ""),
    (load_journals, JOURNAL_HEADER),
    (load_taxonomy, "field_name,level,category\n"),
    (load_external_rankings, "system_name,field_name,institution_id,rank\n"),
    (load_crosswalk, "source_system,source_field,target_system,target_field\n"),
], ids=["publications_csv", "publications_jsonl", "journals", "taxonomy",
        "external_rankings", "crosswalk"])


# Two valid data rows for each EVERY_LOADER header.
VALID_ROWS = {
    PUB_HEADER: "r1,u1,2010,J,3\nr2,u2,2011,K,0\n",
    "": "".join(json.dumps(dict(zip(PUBLICATION_COLUMNS, row))) + "\n"
                for row in [["r1", "u1", 2010, "J", 3], ["r2", "u2", 2011, "K", 0]]),
    JOURNAL_HEADER: "J,A,2010,1\nJ,A,2011,2\n",
    "field_name,level,category\n": "Physics,field,a\nBiology,subfield,b\n",
    RANKING_HEADER: "s,f,i1,2\ns,f,i2,1-3\n",
    "source_system,source_field,target_system,target_field\n": "s,f,t,g\ns,f,t,h\n",
}


def as_data(loaded):
    """``loaded``, with each RankingTable among a dict's values as its columns."""
    if isinstance(loaded, dict):
        return {key: value.columns() if isinstance(value, RankingTable) else value
                for key, value in loaded.items()}
    return loaded


@EVERY_LOADER
def test_byte_order_mark_is_dropped(tmp_path, loader, header):
    # Excel's "CSV UTF-8" starts the file with U+FEFF.
    text = header + VALID_ROWS[header]
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert as_data(loader(marked)) == as_data(loader(plain))


@pytest.mark.parametrize("loader, header", [
    (lambda p: load_rows(p, "csv"), PUB_HEADER),
    (load_journals, JOURNAL_HEADER),
    (load_taxonomy, "field_name,level,category\n"),
    (load_external_rankings, RANKING_HEADER),
    (load_crosswalk, "source_system,source_field,target_system,target_field\n"),
], ids=["publications", "journals", "taxonomy", "external_rankings", "crosswalk"])
@pytest.mark.parametrize("tail, message", [
    ('x,"5', "unexpected end of data"),
    ('x,"5"z\n', "',' expected after '\"'"),
], ids=["quote_open_at_end", "text_after_quote"])
def test_malformed_csv_is_an_error_at_its_line(tmp_path, loader, header, tail, message):
    # read without strict mode, either row would load as the cells x and 5 or 5z
    path = tmp_path / "input.csv"
    path.write_text(header + VALID_ROWS[header] + tail, encoding="utf-8")
    with pytest.raises(InputError) as info:
        loader(path)
    assert str(info.value) == f"line 4: malformed CSV: {message}"
    assert info.value.line == 4


@EVERY_LOADER
def test_non_utf8_input_names_the_file(tmp_path, loader, header):
    path = tmp_path / "input.txt"
    path.write_bytes(header.encode("utf-8") + b"caf\xe9,x,y,z\n")
    with pytest.raises(InputError, match="cannot read .*input.txt") as info:
        loader(path)
    assert info.value.line is None


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=6,
)
CELLS = st.sampled_from(["", " ", "0", "1", "-1", "2010", "201-300", "300-201", "9" * 30,
                         "a", "field", "subfield", '"', ",", "\n", "\x00", "\u0661"])
FUZZ_BYTES = st.one_of(
    st.binary(max_size=200),
    st.text(alphabet='019-az ,;"{}[]:\n\r\x00\xe9', max_size=200).map(str.encode),
    st.lists(st.lists(CELLS, max_size=6).map(",".join), max_size=6)
    .map(lambda lines: "\n".join(lines).encode()),
    st.lists(st.dictionaries(st.sampled_from(PUBLICATION_COLUMNS), JSON_VALUES), max_size=4)
    .map(lambda rows: "".join(json.dumps(r) + "\n" for r in rows).encode()),
)


@EVERY_LOADER
@settings(max_examples=150, deadline=None)
@given(data=FUZZ_BYTES, with_header=st.booleans())
def test_arbitrary_bytes_raise_only_toolkit_errors(loader, header, data, with_header):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_bytes((header.encode() if with_header else b"") + data)
        try:
            loader(path)
        except BiblioRankError:
            pass


READ_COLUMNS = ("a", "b", "c")


def dictreader_rows(path, columns):
    """The reference for read_csv: strict csv.DictReader's (line, row) pairs,
    each row cut to ``columns`` as a tuple in ``columns`` order, up to its
    first csv.Error; and that error as read_csv words it, or None."""
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh, strict=True)
        try:
            for row in reader:
                rows.append((reader.line_num, tuple(row[c] for c in columns)))
        except csv.Error as exc:
            # DictReader's own line_num moves only on a row it returns
            return rows, str(InputError(f"malformed CSV: {exc}", reader.reader.line_num))
    return rows, None


def read_csv_rows(path, columns):
    """read_csv's (line, cells) pairs, up to its first InputError; and that
    error's message, or None."""
    rows = []
    try:
        with read_csv(path, columns, "test") as (cells, line):
            for row in cells:
                rows.append((line(), row))
    except InputError as exc:
        return rows, str(exc)
    return rows, None


def csv_text(rows, terminator):
    buf = io.StringIO()
    csv.writer(buf, lineterminator=terminator).writerows(rows)
    return buf.getvalue()


@settings(deadline=None)
@given(
    # Every wanted column, in any order, among extra and repeated names.
    header=st.lists(st.sampled_from(["a", "b", "c", "x", " a"]), max_size=3)
    .flatmap(lambda extra: st.permutations([*READ_COLUMNS, *extra])),
    # Quoted commas, quotes and newlines, whitespace, short and long rows,
    # blank lines ([]), or raw text that need not come from a writer.
    body=st.one_of(
        st.tuples(st.lists(st.lists(st.text(alphabet='ab ,"\n\r', max_size=5), max_size=7),
                           max_size=8),
                  st.sampled_from(["\n", "\r\n"])).map(lambda rt: csv_text(*rt)),
        st.text(alphabet='ab ,"\n\r', max_size=60),
    ),
)
def test_read_csv_matches_dictreader(header, body):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text(csv_text([header], "\n") + body, encoding="utf-8", newline="")
        # One wanted column still gives 1-tuples. A row that breaks the CSV
        # syntax, such as a quote left open at the end, is an error at its line.
        for columns in (READ_COLUMNS, READ_COLUMNS[1:2]):
            assert read_csv_rows(path, columns) == dictreader_rows(path, columns)


# The loaders memoize each column's checked values by raw cell text. These
# references check every row on its own, with no memo, in the loaders' order.


def _reference_rows(path, columns, format):
    """(line, cells) per row, None where a cell is absent."""
    with open(path, encoding="utf-8", newline="") as fh:
        if format == "jsonl":
            rows = [(line, json.loads(raw)) for line, raw in enumerate(fh, start=1)
                    if raw.strip()]
            return [(line, [None if row.get(c) is None else str(row[c]) for c in columns])
                    for line, row in rows]
        reader = csv.DictReader(fh)
        return [(reader.line_num, [row[c] for c in columns]) for row in reader]


def _strip(cells):
    return ["" if c is None else c.strip() for c in cells]


def _reference_int(raw, what, line):
    """int of the stripped cell; the message shows the cell as given."""
    try:
        return int((raw or "").strip())
    except ValueError:
        raise InputError(f"{what} must be a base-10 integer, got {raw!r}", line) from None


def reference_publications(path, format):
    records, seen = [], {}
    for line, cells in _reference_rows(path, PUBLICATION_COLUMNS, format):
        cells = _strip(cells)
        missing = [c for c, cell in zip(PUBLICATION_COLUMNS, cells) if not cell]
        if missing:
            raise InputError(f"missing required column(s) {', '.join(missing)}", line)
        record_id, inst, year_text, jid, citations_text = cells
        year = _reference_int(year_text, "year", line)
        if not 1900 <= year <= 2100:
            raise InputError(f"year {year} outside sanity range [1900, 2100]", line)
        citations = _reference_int(citations_text, "citations", line)
        if citations < 0:
            raise InputError(f"negative citations ({citations})", line)
        if citations > 10**9:
            raise InputError(f"citations {citations} above sanity bound 1000000000", line)
        if record_id in seen:
            raise InputError(f"duplicate record_id {record_id!r} "
                             f"(first seen at line {seen[record_id]})", line)
        seen[record_id] = line
        records.append(Row(record_id, inst, year, jid, citations))
    return records


def reference_journals(path):
    quartiles, first_seen = {}, {}
    for line, cells in _reference_rows(path, JOURNAL_COLUMNS, "csv"):
        jid, cat = _strip(cells[:2])
        cat = cat.casefold()
        year_text, quartile_text = cells[2:]
        if not jid or not cat:
            raise InputError("empty journal_id or category", line)
        year = _reference_int(year_text, "year", line)
        quartile = _reference_int(quartile_text, "quartile", line)
        if quartile not in (1, 2, 3, 4):
            raise InputError(f"quartile {quartile} outside {{1,2,3,4}}", line)
        by_year = quartiles.setdefault(jid, {}).setdefault(cat, {})
        if year in by_year and by_year[year] != quartile:
            raise InputError(
                f"conflicting quartiles for journal {jid!r}, category {cat!r}, year {year}: "
                f"Q{by_year[year]} (line {first_seen[jid, cat, year]}) vs Q{quartile}", line)
        by_year.setdefault(year, quartile)
        first_seen.setdefault((jid, cat, year), line)
    return quartiles


def reference_rankings(path):
    rows = {}
    for line, cells in _reference_rows(path, EXTERNAL_COLUMNS, "csv"):
        system, field, inst = _strip(cells[:3])
        if not system or not field or not inst:
            raise InputError("empty system_name, field_name or institution_id", line)
        try:
            rank = parse_rank(cells[3] or "")  # names the rank text as given
        except InputError as exc:
            raise InputError(str(exc), line) from None
        rows.setdefault((system, field), []).append((inst, rank))
    tables = {}
    for (system, field), entries in rows.items():
        ids = [inst for inst, _ in entries]
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        if dupes:
            raise InputError(f"duplicate institution(s) in table {system!r}/{field!r}: "
                             f"{', '.join(map(repr, dupes))}")
        tables[system, field] = sorted(entries, key=lambda e: e[1])
    return tables


def outcome(load, path):
    """What a loader gives: its result, or its error message."""
    try:
        return load(path)
    except InputError as exc:
        return f"InputError: {exc}"


def write_rows(path, header, rows, format="csv"):
    """Write rows of cells; a short row lacks the last columns' cells."""
    if format == "jsonl":
        path.write_text("".join(json.dumps(dict(zip(header, row))) + "\n" for row in rows),
                        encoding="utf-8")
    else:
        path.write_text(csv_text([header, *rows], "\n"), encoding="utf-8", newline="")


UNIQUE = object()  # stands for a text no other row has


def rows_then_fault(valid, faults):
    """Rows of cells drawn from ``valid`` (one list of texts per column, which
    repeat and vary in whitespace), then perhaps one row that copies a drawn
    row but for a cell from ``faults``, so that its other cells are all in
    the loader's memos. A None fault cuts the row short at that column."""
    def build(drawn):
        rows, fault = drawn
        rows = [[f"u{i}" if c is UNIQUE else c for c in row] for i, row in enumerate(rows)]
        if fault is not None:
            source, column, text = fault
            row = list(rows[source % len(rows)])
            row[column] = text
            rows.append(row[:column] if text is None else row)
        return rows
    fault = st.one_of(*(st.tuples(st.integers(0, 7), st.just(column), st.sampled_from(texts))
                        for column, texts in enumerate(faults)))
    return st.tuples(st.lists(st.tuples(*map(st.sampled_from, valid)), min_size=1, max_size=8),
                     st.none() | fault).map(build)


BLANK = ["", " ", None]
IDS = ["I1", " I1", "I1 ", "I2", "I3"]


@settings(max_examples=300, deadline=None)
@given(
    rows=rows_then_fault(
        valid=[[UNIQUE] * 4 + [" r0", "r0 "], IDS, ["2010", " 2010", "2010 ", "2011"], IDS,
               ["0", "5", " 5", "5 ", "12", "1000000000"]],
        faults=[BLANK, BLANK, ["5", "1899", "2101", "x", "20 10", *BLANK], BLANK,
                ["-1", "1000000001", "x", *BLANK]]),
    format=st.sampled_from(["csv", "jsonl"]),
    years=st.frozensets(st.sampled_from([2010, 2011])),
    keep_ids=st.booleans(),
)
def test_load_publications_matches_per_row_reference(rows, format, years, keep_ids):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"p.{format}"
        write_rows(path, PUBLICATION_COLUMNS, rows, format)
        expected = outcome(lambda p: reference_publications(p, format), path)
        if isinstance(expected, list):
            first_records = {}
            for row in expected:
                first_records.setdefault(row.journal_id, row.record_id)
            kept = [row for row in expected if row.year in years]
            expected = ([row[1:] for row in kept], len(expected), first_records,
                        [row.record_id for row in kept] if keep_ids else [])
        assert outcome(lambda p: load_publications(p, format, years, keep_ids),
                       path) == expected


@settings(max_examples=300, deadline=None)
@given(rows=rows_then_fault(
    # A journal year has no range check, so "5" is valid here.
    valid=[IDS, ["A", " a", "A ", "B"], ["2010", " 2010", "2011", "5"], ["1", " 1", "1 ", "4"]],
    faults=[BLANK, BLANK, ["x", "20 10", *BLANK], ["0", "5", "x", *BLANK]]))
def test_load_journals_matches_per_row_reference(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "j.csv"
        write_rows(path, JOURNAL_COLUMNS, rows)
        assert outcome(load_journals, path) == outcome(reference_journals, path)


@settings(max_examples=300, deadline=None)
@given(rows=rows_then_fault(
    valid=[["S", " S", "S ", "T"], ["F", " F", "G"], [UNIQUE] * 3 + IDS,
           ["1", " 1", "1 ", "2", "201-300", " 201-300"]],
    faults=[BLANK, BLANK, BLANK, ["0", "300-201", "0-5", "x", "1-", *BLANK]]))
def test_load_external_rankings_matches_per_row_reference(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.csv"
        write_rows(path, EXTERNAL_COLUMNS, rows)
        loaded = outcome(load_external_rankings, path)
        if isinstance(loaded, dict):
            loaded = {key: list(zip(t.ids, t.ranks)) for key, t in loaded.items()}
        assert loaded == outcome(reference_rankings, path)


class TestMemoizedCells:
    """A cell text the memo holds for one column never skips another column's
    checks, and a fault after valid rows is reported at its own line."""

    def test_citations_memo_does_not_pass_a_year(self, tmp_path):
        path = write(tmp_path, "p.csv", PUB_HEADER + "r1,ua,2010,j1,5\nr2,ua,5,j1,5\n")
        with pytest.raises(InputError,
                           match=re.escape("line 3: year 5 outside sanity range [1900, 2100]")):
            load_rows(path, "csv")

    @pytest.mark.parametrize("format, text", [
        ("csv", PUB_HEADER + "r1,ua,2010,j1,1\nr2,ua,20x0,j1,1\n"),
        ("jsonl", "".join(json.dumps(dict(zip(PUBLICATION_COLUMNS, row))) + "\n" for row in [
            ["r1", "ua", 2010, "j1", 1], ["r2", "ua", 2010.0, "j1", 1]])),
    ])
    def test_malformed_year_after_valid_one(self, tmp_path, format, text):
        path = write(tmp_path, f"p.{format}", text)
        line = 3 if format == "csv" else 2
        with pytest.raises(InputError, match=f"^line {line}: year must be a base-10 integer"):
            load_rows(path, format)

    def test_year_memo_does_not_pass_a_quartile(self, tmp_path):
        path = write(tmp_path, "j.csv", JOURNAL_HEADER + "J,A,5,1\nJ,A,5,5\n")
        with pytest.raises(InputError, match=re.escape("line 3: quartile 5 outside {1,2,3,4}")):
            load_journals(path)

    def test_malformed_journal_year_after_valid_one(self, tmp_path):
        path = write(tmp_path, "j.csv", JOURNAL_HEADER + "J,A,2010,1\nJ,A,2010x,1\n")
        with pytest.raises(InputError, match="^line 3: year must be a base-10 integer"):
            load_journals(path)

    @pytest.mark.parametrize("rank, message", [
        ("5x", "malformed rank '5x'"),
        ("300-201", "rank interval 300-201 has lo > hi"),
    ])
    def test_malformed_rank_after_valid_one(self, tmp_path, rank, message):
        path = write(tmp_path, "r.csv", "system_name,field_name,institution_id,rank\n"
                     f"s,f,i1,5\ns,f,i2,201-300\ns,f,i3,{rank}\n")
        with pytest.raises(InputError, match=f"^line 4: {re.escape(message)}"):
            load_external_rankings(path)

    # The loaders check a run's key cells once; the other cells of every row
    # in the run are still checked, each fault at its own line.
    @pytest.mark.parametrize("loader, text, message", [
        (load_external_rankings, RANKING_HEADER + "s,f,i1,5\ns,f,i2,7\ns,f,i3,x\ns,f,i4,9\n",
         "line 4: malformed rank 'x' (expected 'N' or 'LO-HI')"),
        (load_external_rankings, RANKING_HEADER + "s,f,i1,5\ns,f,i2,7\ns,f, ,8\n",
         "line 4: empty system_name, field_name or institution_id"),
        (load_journals, JOURNAL_HEADER + "J,A,2010,1\nJ,A,2011,1\nJ,A,20x2,1\nJ,A,2013,1\n",
         "line 4: year must be a base-10 integer, got '20x2'"),
        (load_journals, JOURNAL_HEADER + "J,A,2010,1\nJ,A,2011,1\nJ,A,2012,7\n",
         "line 4: quartile 7 outside {1,2,3,4}"),
        (load_journals, JOURNAL_HEADER + "J,A,2010,1\nJ,A,2011,2\nJ,A,2012,2\nJ,A,2010,3\n",
         "line 5: conflicting quartiles for journal 'J', category 'a', year 2010: "
         "Q1 (line 2) vs Q3"),
    ], ids=["rank", "institution", "year", "quartile", "conflict"])
    def test_fault_inside_a_run_names_its_own_line(self, tmp_path, loader, text, message):
        path = write(tmp_path, "t.csv", text)
        with pytest.raises(InputError) as info:
            loader(path)
        assert str(info.value) == message

    def test_rows_share_one_object_per_cell_text(self, tmp_path):
        path = write(tmp_path, "p.csv", PUB_HEADER + "r1,ua,2010,j1,5\nr2,ua,2010,j1,5\n")
        first, second = load_publications(path, "csv", EVERY_YEAR, False).records
        assert all(a is b for a, b in zip(first, second))
        # the second row is built from the memos alone, not by _check_record
        assert type(second) is PublicationRecord
        assert second == PublicationRecord("ua", 2010, "j1", 5)


def _records(years):
    return [PublicationRecord("ua", y, "J", i) for i, y in enumerate(years)]


class TestBuildCorpus:
    journals = {"J": make_journal()}

    def test_boundary_filter(self):
        corpus = build_corpus(_records([2007, 2010, 2013]), self.journals,
                              TimeWindow(2008, 2012))
        assert [p.year for p in corpus.publications] == [2010]

    def test_windowing_matches_brute_force(self):
        years = [2005 + (i * 37) % 11 for i in range(100)]
        window = TimeWindow(2008, 2012)
        corpus = build_corpus(_records(years), self.journals, window)
        expected = sum(1 for y in years if 2008 <= y <= 2012)
        assert len(corpus) == expected

    def test_idempotent(self):
        window = TimeWindow(2008, 2012)
        once = build_corpus(_records([2007, 2009, 2011, 2014]), self.journals, window)
        twice = build_corpus(once.publications, self.journals, window)
        assert twice.publications == once.publications

    @given(
        years=st.lists(st.integers(min_value=2000, max_value=2020), max_size=60),
        inner=st.tuples(st.integers(2000, 2020), st.integers(2000, 2020)).map(sorted),
        pad=st.integers(min_value=0, max_value=5),
    )
    def test_nested_windows_give_nested_corpora(self, years, inner, pad):
        small = TimeWindow(inner[0], inner[1])
        big = TimeWindow(inner[0] - pad, inner[1] + pad)
        records = _records(years)
        kept_small = set(build_corpus(records, self.journals, small).publications)
        kept_big = set(build_corpus(records, self.journals, big).publications)
        assert kept_small <= kept_big
