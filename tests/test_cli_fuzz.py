"""Fuzz test of the command line: no mutated copy of the fixture set may end
in a traceback.

Each example copies the fixture inputs into a fresh directory and applies one
to three mutations: a cell, a row, a header, a few raw bytes, a config value
(a NUL byte and a 5,000-character string included), or the publications
rewritten as JSON Lines. It then runs ``validate``, ``rank`` and ``compare``
in-process. Each run must exit 0, or 1 or 2 with the one-line message the
README promises.

The test does not require ``validate`` to fail whenever ``rank`` or
``compare`` does. Some faults are found only while computing: a crosswalk
system pair whose rows all name a missing field passes ``validate`` and makes
``compare`` exit 1, and so does a missing quartile under ``strict``.
"""

import csv
import io
import json
import re
import tempfile
import traceback
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import run_cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
INPUTS = ("publications.csv", "journals.csv", "taxonomy.csv", "external_rankings.csv",
          "national_rankings.csv", "crosswalk.csv")
FIXTURE_ROWS = {name: list(csv.reader(io.StringIO((FIXTURES / name).read_text(encoding="utf-8"))))
                for name in INPUTS}
FIXTURE_CONFIG = json.loads((FIXTURES / "config.json").read_text(encoding="utf-8"))
COLUMNS = sorted({column for rows in FIXTURE_ROWS.values() for column in rows[0]})
PATH_KEYS = ("publications", "journals", "taxonomy", "external_rankings",
             "national_rankings", "crosswalk", "out_dir")
OTHER_KEYS = ("windows", "publications_format", "q1_policy", "missing_quartile",
              "missing_national", "min_n", "national_system")

FILES = st.sampled_from(INPUTS)
# Row and cell positions are taken modulo the count, so any integer is valid.
INDEX = st.integers(0, 1_000)
LONG = "x" * 5000
CELLS = st.one_of(
    st.sampled_from(["", " ", "0", "-1", "1.5", "1899", "2101", "1e309", "nan", "abc",
                     "10-1", "1-", "0-5", "3-3", "\x00", '"', ",", "\n", "\r", LONG,
                     "1" * 5000, "ﬁ", "İ", "Barcelona", "overall", "national",
                     "shanghai", "Physics", "J-CS-A"]),
    st.text(max_size=12),
)
# Values for keys that name a path. Free text is left out, since a path such
# as "/" or "../.." would read or write outside the example's directory.
PATH_VALUES = st.one_of(
    st.sampled_from([None, 5, True, [], "", ".", "missing.csv", *INPUTS, "config.json",
                     "out", "sub/out"]),
    # Text that no file system takes as a name.
    st.sampled_from(["\x00", "journals\x00.csv", "out\x00/x", LONG, "a/" * 2500]),
)
CONFIG_VALUES = st.one_of(
    st.sampled_from([
        None, True, False, 0, 1, 2, -1, 3.5, 2.0, 1e308, 10**400, "", LONG, "a\x00b",
        "csv", "jsonl", "any-relevant", "best-all", "strict", "warn", "national",
        "shanghai", [], {}, [[2008, 2012]], [[2012, 2008]], [[1900, 2100]], [[2008]],
        [["2008", 2012]], [[2008.0, 2012.0]], [[2008, 2012], [2003, 2012]],
        [[2008, 2012], [2007, 2011]], [[1899, 2012]], [[2008, 10**400]], [[[2008]]],
    ]),
    st.text(max_size=12),
)
JSONL_LINES = st.sampled_from([
    "[1]", "{", "null", "{}", "", '{"year": 1e400}', '{"record_id": null}', "[" * 5000,
    '{"record_id": "R0001", "institution_id": "UnivA", "year": 2010, '
    '"journal_id": "J-CS-A", "citations": 1}',
])
JSONL_VALUES = st.sampled_from([None, True, 2010.0, -1, 10**400, [], {}, "", " 2010 ", "\x00"])

MUTATIONS = st.one_of(
    st.tuples(st.just("cell"), FILES, INDEX, INDEX, CELLS),
    st.tuples(st.just("header"), FILES, INDEX, st.one_of(st.sampled_from(COLUMNS), CELLS)),
    st.tuples(st.just("drop_row"), FILES, INDEX),
    st.tuples(st.just("copy_row"), FILES, INDEX),
    st.tuples(st.just("row_width"), FILES, INDEX, st.integers(-3, 3)),
    st.tuples(st.just("raw"), FILES, INDEX,
              st.sampled_from([b"\xff", b"\x00", b'"', b"\n", b",", b"\r", b"\xef\xbb\xbf"])),
    st.tuples(st.just("config"), st.sampled_from(PATH_KEYS), PATH_VALUES),
    st.tuples(st.just("config"), st.sampled_from(OTHER_KEYS), CONFIG_VALUES),
    st.tuples(st.just("drop_key"), st.sampled_from(PATH_KEYS + OTHER_KEYS)),
    st.tuples(st.just("jsonl"), INDEX, st.one_of(
        st.tuples(st.just("line"), JSONL_LINES),
        st.tuples(st.sampled_from(FIXTURE_ROWS["publications.csv"][0]), JSONL_VALUES))),
)


def json_value(cell: str):
    """A publications cell as a JSON Lines file holds it: an int where it is one."""
    return int(cell) if re.fullmatch(r"[0-9]{1,18}", cell) else cell


def mutate_rows(table: list[list[str]], kind: str, *args) -> None:
    """Apply one row, cell or header mutation to a CSV file's rows, in place."""
    if not table:
        return
    index = 0 if kind == "header" else args[0] % len(table)
    if kind == "drop_row":
        del table[index]
    elif kind == "copy_row":
        table.insert(index, list(table[index]))
    elif kind == "row_width":
        width = len(table[index]) + args[1]
        table[index] = (table[index] + ["7"] * args[1])[:width]
    elif table[index]:  # a cell, or a header cell
        column, value = args[-2:]
        table[index][column % len(table[index])] = value


def write_jsonl(root: Path, rows: list[list[str]], index: int, key: str, value) -> None:
    """Write the publications rows as JSON Lines, with one line replaced by
    ``value`` when ``key`` is "line" and otherwise one object's ``key`` set to it."""
    header, *records = rows
    objects = [dict(zip(header, map(json_value, row))) for row in records]
    if key != "line" and objects:
        objects[index % len(objects)][key] = value
    lines = [json.dumps(o) for o in objects]
    if key == "line":
        lines.insert(index % (len(lines) + 1), value)
    (root / "publications.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_workspace(root: Path, mutations) -> None:
    """Write the fixture inputs and config under ``root``, mutated."""
    rows = {name: [list(row) for row in table] for name, table in FIXTURE_ROWS.items()}
    config = dict(FIXTURE_CONFIG)
    raw: dict[str, list[tuple[int, bytes]]] = {}
    for kind, *args in mutations:
        if kind == "config":
            config[args[0]] = args[1]
        elif kind == "drop_key":
            config.pop(args[0], None)
        elif kind == "raw":
            raw.setdefault(args[0], []).append((args[1], args[2]))
        elif kind == "jsonl":
            index, (key, value) = args
            write_jsonl(root, rows["publications.csv"], index, key, value)
            config.update(publications="publications.jsonl", publications_format="jsonl")
        else:
            mutate_rows(rows[args[0]], kind, *args[1:])
    for name, table in rows.items():
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(table)
        data = text.getvalue().encode("utf-8")
        for offset, insert in raw.get(name, ()):
            offset %= len(data) + 1
            data = data[:offset] + insert + data[offset:]
        (root / name).write_bytes(data)
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")


def check_commands(root: Path) -> None:
    for command in ("validate", "rank", "compare"):
        result = run_cli(command, "--config", root / "config.json")
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            raise AssertionError(f"{command} raised:\n"
                                 + "".join(traceback.format_exception(*result.exc_info)))
        assert result.exit_code in (0, 1, 2), (command, result.output)
        if result.exit_code:
            # Quartile-miss warnings may precede the message.
            assert re.search(r"^(configuration )?error: ", result.output, re.MULTILINE), (
                command, result.output)
            assert "Traceback" not in result.output, (command, result.output)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(MUTATIONS, min_size=1, max_size=3))
def test_mutated_fixtures_never_end_in_a_traceback(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        write_workspace(Path(tmp), mutations)
        check_commands(Path(tmp))
