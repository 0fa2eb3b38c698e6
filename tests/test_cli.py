import csv
import gc
import json
import marshal
import os
import shutil
import signal
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path

import pytest
from click.testing import CliRunner

import bibliorank
from bibliorank import pipeline
from bibliorank.cli import main
from bibliorank.errors import InputError
from bibliorank.pipeline import RunConfig, load_config, run_compare, run_rank
from bibliorank.ranking import RankingTable
from conftest import FIXTURES


@pytest.fixture
def workspace(tmp_path, fixtures_dir):
    """Copy of the fixture set with a config pointing into tmp_path."""
    for name in ["publications.csv", "journals.csv", "taxonomy.csv",
                 "external_rankings.csv", "national_rankings.csv", "crosswalk.csv"]:
        shutil.copy(fixtures_dir / name, tmp_path / name)
    config = json.loads((fixtures_dir / "config.json").read_text(encoding="utf-8"))
    config["out_dir"] = "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return tmp_path


def run_cli(*args):
    return CliRunner().invoke(main, list(args))


def edit_config(workspace, **changes):
    path = workspace / "config.json"
    config = json.loads(path.read_text(encoding="utf-8"))
    config.update(changes)
    path.write_text(json.dumps(config), encoding="utf-8")


def watch_live_field_results(monkeypatch, log: Path):
    """At each call of compute_indicators, in whichever process makes it,
    append ``pid,live`` to ``log``: the number of fields whose results are
    alive in that process, each counted by the indicators mapping that
    compute_indicators returned for it. Forked children inherit the wrapper.
    Returns a function that reads back and empties the (pid, live) pairs."""
    real = pipeline.compute_indicators

    class Indicators(dict):
        """A field's indicators, told apart from every other dict."""

    def counting(*args, **kwargs):
        live = sum(type(o) is Indicators for o in gc.get_objects())
        with log.open("a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()},{live}\n")
        return Indicators(real(*args, **kwargs))

    monkeypatch.setattr(pipeline, "compute_indicators", counting)

    def entries() -> list[tuple[int, int]]:
        lines = log.read_text(encoding="ascii").splitlines()
        log.unlink()
        return [tuple(map(int, line.split(","))) for line in lines]
    return entries


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pin_cpus(monkeypatch, cpus: int) -> list[int]:
    """Make bibliorank see ``cpus`` usable CPUs; returns the pids it forks."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    forked: list[int] = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(pipeline.os, "fork", fork)
    return forked


LOADERS = ("load_publications", "load_journals", "load_taxonomy", "load_external_rankings",
           "load_crosswalk")


def log_loads(monkeypatch, log: Path):
    """At each call of a pipeline loader, in whichever process makes it,
    append ``pid,loader,file name`` to ``log``. Forked children inherit the
    wrappers. Returns a function that reads back and empties the log, as
    (pid, loader, file name) tuples."""
    def logged(name):
        real = getattr(pipeline, name)

        def wrapper(path, *args, **kwargs):
            with log.open("a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()},{name},{Path(path).name}\n")
            return real(path, *args, **kwargs)
        return wrapper

    for name in LOADERS:
        monkeypatch.setattr(pipeline, name, logged(name))

    def entries() -> list[tuple[int, str, str]]:
        lines = log.read_text(encoding="utf-8").splitlines()
        log.unlink()
        return [(int(pid), name, file) for pid, name, file in (line.split(",") for line in lines)]
    return entries


# (command, whether the config names a national file) for each fork point
# combination: validate, rank and compare without a national file fork for
# the journals, compare with one for the national file; rank and compare
# then fork their shares.
COMMANDS = (("validate", True), ("rank", True), ("compare", False), ("compare", True))


# lines printed on the fixtures: validate's counts, one path per file written
PRINTED = {"validate": 13, "rank": 18, "compare": 10}


def set_national(workspace, national: bool) -> None:
    """Name the national file in the config, or name none and point the
    crosswalk's national side at a field that ``compare`` then ranks."""
    edit_config(workspace, national_rankings="national_rankings.csv" if national else None)
    crosswalk = (FIXTURES / "crosswalk.csv").read_text(encoding="utf-8")
    if not national:
        crosswalk = crosswalk.replace(",national,overall\n", ",national,Computer Science\n")
    (workspace / "crosswalk.csv").write_text(crosswalk, encoding="utf-8")


class TestValidate:
    def test_fixture_set_passes(self, workspace):
        result = run_cli("validate", "--config", str(workspace / "config.json"))
        assert result.exit_code == 0, result.output
        assert "publications: 203" in result.output
        assert "fields: 3" in result.output
        assert "window 2003-2012: retained 169, dropped 34\n" in result.output
        assert "window 2008-2012: retained 119, dropped 84\n" in result.output

    def test_unassigned_records_listed(self, workspace):
        result = run_cli("validate", "--config", str(workspace / "config.json"))
        for rid in ["R0201", "R0202", "R0203"]:
            assert f"unassigned: {rid}" in result.output

    def test_corrupted_csv_exits_one(self, workspace):
        (workspace / "publications.csv").write_text(
            "record_id,institution_id,year,journal_id,citations\n"
            "r1,u,2010,J-CS-A,-3\n",
            encoding="utf-8",
        )
        result = run_cli("validate", "--config", str(workspace / "config.json"))
        assert result.exit_code == 1
        assert "line 2" in result.output

    def test_bad_config_exits_two(self, workspace):
        config = json.loads((workspace / "config.json").read_text())
        config["q1_policy"] = "nonsense"
        (workspace / "config.json").write_text(json.dumps(config))
        result = run_cli("validate", "--config", str(workspace / "config.json"))
        assert result.exit_code == 2

    def test_missing_input_path_exits_two(self, workspace):
        (workspace / "journals.csv").unlink()
        result = run_cli("validate", "--config", str(workspace / "config.json"))
        assert result.exit_code == 2

    @pytest.mark.parametrize("setup, args, code, message", [
        (lambda ws: edit_config(ws, windows=[[2012, 2008]]), (), 2, "after end"),
        (lambda ws: None, ("--window", "2012:2008"), 2, "after end"),
        (lambda ws: (ws / "config.json").write_text("[]"), (), 2, "JSON object"),
        (lambda ws: edit_config(ws, publications_format="xml"), (), 2,
         "publications_format"),
        (lambda ws: edit_config(ws, journals="."), (), 2, "not an existing file"),
        (lambda ws: (ws / "config.json").write_bytes(b'{"min_n": "\xff"}'), (), 2,
         "cannot read config"),
        (lambda ws: (ws / "journals.csv").write_bytes(
            b"journal_id,category,year,quartile\nJ\xff,a,2010,1\n"), (), 1, "journals.csv"),
        (lambda ws: ((ws / "p.jsonl").write_text("[1]\n"),
                     edit_config(ws, publications="p.jsonl", publications_format="jsonl")),
         (), 1, "line 1"),
        (lambda ws: edit_config(ws, journals=5), (), 2, "journals must be a string"),
        (lambda ws: edit_config(ws, out_dir=7), (), 2, "out_dir must be a string"),
        (lambda ws: edit_config(ws, windows=5), (), 2, "windows must be a list"),
        (lambda ws: edit_config(ws, national_system=["a"]), (), 2,
         "national_system must be a string"),
        (lambda ws: edit_config(ws, q1_policy=None), (), 2, "q1_policy must be a string"),
        (lambda ws: edit_config(ws, windows=[[2008, True]]), (), 2,
         "window year must be an integer, got True"),
        (lambda ws: edit_config(ws, min_n=False), (), 2, "min_n must be an integer"),
        (lambda ws: (ws / "journals.csv").write_text(
            "journal_id,category,year,quartile\nJ," + "a" * 140_000 + ",2010,1\n"),
         (), 1, "line 2: malformed CSV: field larger than field limit"),
        # Python 3.10's csv module rejects NUL; later versions read it into the year.
        (lambda ws: (ws / "journals.csv").write_bytes(
            b"journal_id,category,year,quartile\nJ,a,20\x0010,1\n"), (), 1, "line 2: "),
        (lambda ws: ((ws / "p.jsonl").write_text("[" * 200_000 + "\n"),
                     edit_config(ws, publications="p.jsonl", publications_format="jsonl")),
         (), 1, "line 1: invalid JSON"),
        (lambda ws: ((ws / "p.jsonl").write_text('{"year": ' + "1" * 5000 + "}\n"),
                     edit_config(ws, publications="p.jsonl", publications_format="jsonl")),
         (), 1, "line 1: invalid JSON"),
        (lambda ws: (ws / "external_rankings.csv").write_text(
            "system_name,field_name,institution_id,rank\ns,f,i," + "1" * 5000 + "\n"),
         (), 1, "line 2: "),
        (lambda ws: (ws / "external_rankings.csv").write_text(
            "system_name,field_name,institution_id,rank\ns,f,i,1" + "0" * 400 + "\n"),
         (), 1, "line 2: rank '1" + "0" * 400 + "' is too large for a float"),
        (lambda ws: (ws / "external_rankings.csv").write_text(
            "system_name,field_name,institution_id,rank\ns,f,i,1-1" + "0" * 400 + "\n"),
         (), 1, "line 2: rank '1-1" + "0" * 400 + "' is too large for a float"),
        (lambda ws: (ws / "publications.csv").write_text(
            "record_id,institution_id,year,journal_id,citations\n"
            "r1,u,2010,J-CS-A,1" + "0" * 400 + "\n"),
         (), 1, "line 2: citations 1" + "0" * 400 + " above sanity bound 1000000000"),
        (lambda ws: edit_config(ws, missing_quartile="nonsense"), (), 2,
         "missing_quartile must be one of"),
        (lambda ws: edit_config(ws, missing_national="nonsense"), (), 2,
         "missing_national must be one of"),
        (lambda ws: edit_config(ws, windows=[[2008, 2012], [2003, 2007]]), (), 2,
         "windows 2008-2012 and 2003-2007 share the output label 'w5'"),
        (lambda ws: None, ("--window", "2008:2012", "--window", "2008:2012"), 2,
         "share the output label 'w5'"),
        (lambda ws: (ws / "config.json").write_text('{"min_n": ' + "1" * 5001 + "}"), (), 2,
         "cannot read config"),
        (lambda ws: (ws / "config.json").write_text(
            '{"min_n": ' + "[" * 100_000 + "]" * 100_000 + "}"), (), 2, "cannot read config"),
        (lambda ws: edit_config(ws, windows=[[2008, 10**300]]), (), 2,
         "outside year range [1900, 2100]"),
        (lambda ws: None, ("--window", "1899:2012"), 2,
         "window 1899-2012 outside year range [1900, 2100]"),
        (lambda ws: edit_config(ws, journals="journals\u0000.csv"), (), 2,
         "journals is not a usable path: embedded null byte"),
        (lambda ws: edit_config(ws, out_dir="o\u0000ut"), (), 2,
         "out_dir is not a usable path: embedded null byte"),
        (lambda ws: edit_config(ws, journals="j" * 5000), (), 2,
         "input is not an existing file: "),
    ], ids=["reversed_window", "reversed_window_flag", "json_list", "unknown_format",
            "directory_input", "non_utf8_config", "non_utf8_csv", "jsonl_not_object",
            "path_number", "out_dir_number", "windows_number", "national_system_list",
            "policy_null", "window_year_bool", "min_n_bool", "csv_field_too_large",
            "csv_nul_byte", "jsonl_nested_too_deep", "jsonl_integer_too_long",
            "rank_too_long", "rank_too_large", "band_too_large", "citations_too_large",
            "missing_quartile", "missing_national",
            "equal_length_windows", "repeated_window_flag", "config_integer_too_long",
            "config_nested_too_deep", "window_year_too_large", "window_year_too_small_flag",
            "path_nul_byte", "out_dir_nul_byte", "path_too_long"])
    def test_boundary_fault_exit_code(self, workspace, setup, args, code, message):
        setup(workspace)
        result = run_cli("validate", "--config", str(workspace / "config.json"), *args)
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit)
        prefix = "configuration error: " if code == 2 else "error: "
        assert result.output.startswith(prefix), result.output
        assert message in result.output

    @pytest.mark.parametrize("name, row, message", [
        ("taxonomy.csv", 'Physics!,field,"Physics, Applied"\n',
         "error: fields 'Physics' and 'Physics!' share the output name 'physics'"),
        ("crosswalk.csv", "shanghai,overall,National!,overall\n",
         "error: system pairs 'shanghai'->'National!' and 'shanghai'->'national' "
         "share the output name 'shanghai_national'"),
    ], ids=["fields", "system_pairs"])
    def test_output_name_collision_exits_one(self, workspace, name, row, message):
        # validate runs the same checks as rank and compare
        with (workspace / name).open("a", encoding="utf-8") as fh:
            fh.write(row)
        result = run_cli("validate", "--config", str(workspace / "config.json"))
        assert result.exit_code == 1, result.output
        assert result.output.startswith(message), result.output

    def test_unknown_crosswalk_system_exits_one(self, workspace):
        # validate runs the same check as compare
        with (workspace / "crosswalk.csv").open("a", encoding="utf-8") as fh:
            fh.write("zzz,overall,national,overall\n")
        result = run_cli("validate", "--config", str(workspace / "config.json"))
        assert result.exit_code == 1, result.output
        assert result.output.startswith(
            "error: system pair 'zzz'->'national' names unknown system 'zzz'"), result.output

    def test_name_with_line_break_keeps_message_on_one_line(self, workspace):
        with (workspace / "crosswalk.csv").open("a", encoding="utf-8") as fh:
            fh.write('"a\nb",overall,national,overall\n' * 2)
        result = run_cli("validate", "--config", str(workspace / "config.json"))
        assert result.exit_code == 1, result.output
        assert result.output.startswith("error: "), result.output
        assert len(result.output.splitlines()) == 1, result.output
        assert "crosswalk 'a\\nb' -> 'national'" in result.output

    @pytest.mark.parametrize("command", ["validate", "compare"])
    @pytest.mark.parametrize("name, text, code, message", [
        ("national_rankings.csv", "system_name,field_name,institution_id,rank\n"
         "natA,overall,Barcelona,1\nnatB,overall,Barcelona,1\n", 2,
         "configuration error: national rankings file holds systems ['natA', 'natB']; "
         "none match national_system='national'"),
        ("crosswalk.csv", "source_system,source_field,target_system,target_field\n", 1,
         "error: crosswalk file defines no system pairs"),
    ], ids=["no_national_system", "header_only_crosswalk"])
    def test_validate_runs_compare_checks(self, workspace, command, name, text, code,
                                          message):
        (workspace / name).write_text(text, encoding="utf-8")
        result = run_cli(command, "--config", str(workspace / "config.json"))
        assert result.exit_code == code, result.output
        assert result.output.startswith(message), result.output
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "rank", "compare"])
    def test_unknown_journal_exits_one_before_any_window(self, workspace, monkeypatch,
                                                         command):
        # 1999 is outside both windows, so only a check of every loaded
        # record finds it; compare without a national file loads them too
        with (workspace / "publications.csv").open("a", encoding="utf-8") as fh:
            fh.write("R9999,UnivA,1999,J-NOPE,1\n")
        edit_config(workspace, national_rankings=None)
        windows = []
        real = pipeline.build_corpus

        def counting(publications, journals, window):
            windows.append(window)
            return real(publications, journals, window)

        monkeypatch.setattr(pipeline, "build_corpus", counting)
        result = run_cli(command, "--config", str(workspace / "config.json"))
        assert result.exit_code == 1, result.output
        assert result.output == "error: record 'R9999' references unknown journal 'J-NOPE'\n"
        assert windows == []
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("min_n", "abc"),
        ("min_n", 3.7),
        ("min_n", None),
        ("windows", [[2008, "x"]]),
    ], ids=["min_n", "min_n_fraction", "min_n_null", "window_year"])
    def test_non_integer_config_value_exits_two(self, workspace, key, value):
        config = json.loads((workspace / "config.json").read_text())
        config[key] = value
        (workspace / "config.json").write_text(json.dumps(config))
        result = run_cli("validate", "--config", str(workspace / "config.json"))
        assert result.exit_code == 2, result.output
        assert "must be an integer" in result.output

    def test_required_keys_only_load_to_defaults(self, tmp_path):
        paths = {key: f"{key}.csv" for key in ("publications", "journals", "taxonomy")}
        (tmp_path / "config.json").write_text(json.dumps(paths), encoding="utf-8")
        assert load_config(tmp_path / "config.json") == RunConfig(
            **{key: (tmp_path / name).resolve() for key, name in paths.items()},
            windows=(), out_dir=(tmp_path / "out").resolve())


def read_back(path) -> list[list[str]]:
    """The rows of an output file as csv.reader parses them, ``#`` lines skipped."""
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


class TestRoundTrip:
    def test_every_output_parses_back_to_its_column_count(self, workspace):
        config = load_config(workspace / "config.json")
        for path in run_rank(config) + run_compare(config):
            columns, *rows = read_back(path)
            assert rows, path
            assert all(len(row) == len(columns) for row in rows), path

    @pytest.mark.parametrize("field, institution", [
        ("50%", "%s"),
        pytest.param("Field 013, Applied", "UnivA", marks=pytest.mark.xfail(
            strict=True, reason="names are written unquoted until ROADMAP item 1")),
    ], ids=["percent_signs", "comma"])
    def test_names_written_verbatim(self, workspace, field, institution):
        taxonomy = workspace / "taxonomy.csv"
        quoted = '"' + field.replace('"', '""') + '"'
        taxonomy.write_text(taxonomy.read_text(encoding="utf-8").replace(
            "\nPhysics,", f"\n{quoted},"), encoding="utf-8")
        publications = workspace / "publications.csv"
        publications.write_text(publications.read_text(encoding="utf-8").replace(
            ",UnivA,", f",{institution},"), encoding="utf-8")
        written = [p for p in run_rank(load_config(workspace / "config.json"))
                   if p.name.startswith(f"{pipeline.slugify(field)}_")]
        assert len(written) == 6
        for path in written:
            columns, *rows = read_back(path)
            assert all(len(row) == len(columns) for row in rows), path
            field_at = columns.index("field_name")
            assert {row[field_at] for row in rows} == {field}, path
            assert institution in {row[field_at + 1] for row in rows}, path


class TestRank:
    def test_writes_expected_files_per_window(self, workspace):
        result = run_cli("rank", "--config", str(workspace / "config.json"))
        assert result.exit_code == 0, result.output
        out = workspace / "out"
        for field in ["computer_science", "physics", "artificial_intelligence"]:
            for suffix in ["w5", "w10"]:
                for kind in ["ranking", "quadrants", "indicators"]:
                    assert (out / f"{field}_{suffix}_{kind}.csv").exists()

    def test_rerun_is_byte_identical(self, workspace):
        run_cli("rank", "--config", str(workspace / "config.json"))
        first = {p.name: p.read_bytes() for p in (workspace / "out").iterdir()}
        run_cli("rank", "--config", str(workspace / "config.json"))
        second = {p.name: p.read_bytes() for p in (workspace / "out").iterdir()}
        assert first == second

    def test_field_processing_order_does_not_change_output(self, workspace):
        # fields are listed in the taxonomy file in one order, then reversed
        config = load_config(workspace / "config.json")
        taxonomy = workspace / "taxonomy.csv"
        header, *rows = taxonomy.read_text(encoding="utf-8").splitlines()
        run_rank(config)
        first = {p.name: p.read_bytes() for p in config.out_dir.iterdir()}
        taxonomy.write_text("\n".join([header, *rows[::-1]]) + "\n", encoding="utf-8")
        run_rank(config)
        second = {p.name: p.read_bytes() for p in config.out_dir.iterdir()}
        assert first == second

    def test_field_name_collision_exits_one_before_writing(self, workspace):
        # "Physics" and "Physics!" would both write physics_w5_ranking.csv
        with (workspace / "taxonomy.csv").open("a", encoding="utf-8") as fh:
            fh.write('Physics!,field,"Physics, Applied"\n')
        result = run_cli("rank", "--config", str(workspace / "config.json"))
        assert result.exit_code == 1, result.output
        assert result.output.startswith("error: fields 'Physics' and 'Physics!' "), result.output
        assert not (workspace / "out").exists()

    def test_inputs_parsed_once_per_run(self, workspace, monkeypatch):
        # counted over every process: at two CPUs the journals, or the
        # national file, load in a child
        assert len(load_config(workspace / "config.json").windows) == 2
        entries = log_loads(monkeypatch, workspace / "loads.log")
        inputs = {"load_publications": "publications.csv", "load_journals": "journals.csv",
                  "load_taxonomy": "taxonomy.csv"}
        rankings = {("load_external_rankings", "external_rankings.csv"),
                    ("load_crosswalk", "crosswalk.csv")}
        national = ("load_external_rankings", "national_rankings.csv")
        expected = {
            ("validate", True): {*inputs.items(), *rankings, national},
            ("rank", True): set(inputs.items()),
            ("compare", False): {*inputs.items(), *rankings},
            ("compare", True): {*rankings, national},
        }
        for (command, has_national), loads in expected.items():
            set_national(workspace, has_national)
            for cpus in (1, 2):
                pin_cpus(monkeypatch, cpus)
                result = run_cli(command, "--config", str(workspace / "config.json"))
                assert result.exit_code == 0, result.output
                assert_no_child_process()
                calls = entries()
                assert sorted(call[1:] for call in calls) == sorted(loads), (command, calls)
                in_children = {call[1:] for call in calls if call[0] != os.getpid()}
                assert in_children == (set() if cpus == 1 else
                                       {national} if command == "compare" and has_national
                                       else {("load_journals", "journals.csv")}), (command, calls)

    def test_one_and_two_shares_write_the_same_files(self, workspace, monkeypatch):
        # forks at two CPUs: one for the journals or the national file, then
        # one share per window for rank's three fields (shares of one and
        # two), one for the fields of compare's national tables when it has
        # no national file, and one for compare's ten system pairs
        forks = {("validate", True): 1, ("rank", True): 1 + 2, ("compare", False): 1 + 1 + 1,
                 ("compare", True): 1 + 1}
        out = workspace / "out"
        for (command, has_national), expected_forks in forks.items():
            set_national(workspace, has_national)
            runs = []
            for cpus in (1, 2):
                forked = pin_cpus(monkeypatch, cpus)
                shutil.rmtree(out, ignore_errors=True)
                result = run_cli(command, "--config", str(workspace / "config.json"))
                assert result.exit_code == 0, result.output
                assert_no_child_process()
                files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
                runs.append((result.output, files))
                assert len(forked) == expected_forks * (cpus - 1), command
            assert runs[0] == runs[1], command
            printed = runs[0][0].splitlines()
            assert len(printed) == PRINTED[command], printed
            assert len(runs[0][1]) == {"validate": 0, "rank": 18, "compare": 10}[command]

    def test_holds_one_field_result_at_a_time(self, workspace, monkeypatch):
        entries = watch_live_field_results(monkeypatch, workspace / "live.log")
        for cpus in (1, 2):
            pin_cpus(monkeypatch, cpus)
            written = run_rank(load_config(workspace / "config.json"))
            assert_no_child_process()
            assert len(written) == 18  # 3 fields x 3 files x 2 windows
            calls = entries()
            assert len(calls) == 6 and max(live for _, live in calls) <= 1, calls
            pids = {pid for pid, _ in calls}
            assert pids == {os.getpid()} if cpus == 1 else len(pids) >= 2, calls

    @pytest.mark.parametrize("failing", [
        # the fixture fields in name order are artificial_intelligence,
        # computer_science, physics; of two shares, computer_science is the
        # first, which this process runs, and the other two are the second
        ("artificial_intelligence", "computer_science"),
        ("computer_science", "physics"),
    ], ids=["child_first", "parent_first"])
    def test_fault_of_the_earliest_field_wins(self, workspace, monkeypatch, failing):
        outputs = []
        for cpus in (1, 2):
            pin_cpus(monkeypatch, cpus)
            out = workspace / f"out{cpus}"
            for stem in failing:  # a directory where the file goes: its write fails
                (out / f"{stem}_w5_ranking.csv").mkdir(parents=True)
            result = run_cli("rank", "--config", str(workspace / "config.json"),
                             "--out", str(out))
            assert_no_child_process()
            assert result.exit_code == 1, result.output
            assert not list(out.glob("*.tmp"))
            outputs.append(result.output.replace(str(out), "OUT"))
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith(f"error: cannot write OUT/{failing[0]}_w5_ranking.csv: ")

    def test_killed_child_is_an_error(self, workspace, monkeypatch):
        # each fork point, by a function that only its child calls
        for command, national, victim in (("rank", True, "_write_field"),
                                          ("rank", True, "load_journals"),
                                          ("compare", False, "_field_table"),
                                          ("compare", True, "load_external_rankings"),
                                          ("compare", True, "_write_concordance")):
            set_national(workspace, national)
            with monkeypatch.context() as patch:
                pin_cpus(patch, 2)
                parent, real = os.getpid(), getattr(pipeline, victim)

                def die_in_child(*args, real=real, **kwargs):
                    if os.getpid() != parent:
                        os.kill(os.getpid(), signal.SIGKILL)
                    return real(*args, **kwargs)

                patch.setattr(pipeline, victim, die_in_child)
                with pytest.raises(RuntimeError,
                                   match="^a forked child ended with wait status 9$"):
                    getattr(pipeline, f"run_{command}")(load_config(workspace / "config.json"))
                assert_no_child_process()

    def test_no_fork_while_another_thread_runs(self, workspace, monkeypatch):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(pipeline.os, "fork", lambda: pytest.fail("forked"))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(10,))
        thread.start()
        try:
            for command, national in COMMANDS:
                set_national(workspace, national)
                result = run_cli(command, "--config", str(workspace / "config.json"))
                assert result.exit_code == 0, result.output
                assert len(result.output.splitlines()) == PRINTED[command]
        finally:
            stop.set()
            thread.join(10)
        assert not thread.is_alive()

    def test_cli_import_loads_no_process_pool_or_pickle(self, tmp_path):
        # Importing the CLI loads none of these. A rank and a compare with a
        # national file, on two usable CPUs, load no pickle either: a child's
        # value comes back by marshal, and only a child's fault is pickled.
        src = str(Path(bibliorank.__file__).resolve().parent.parent)
        code = ("import dataclasses, os, pathlib, sys; import bibliorank.cli\n"
                "from bibliorank import pipeline\n"
                "modules = ('multiprocessing', 'concurrent.futures', 'pickle', '_pickle')\n"
                "print(sorted(m for m in modules if m in sys.modules))\n"
                "pipeline._usable_cpus = lambda: 2\n"
                "forks, fork = [], os.fork\n"
                "os.fork = lambda: forks.append(1) or fork()\n"
                "config = dataclasses.replace(pipeline.load_config(sys.argv[1]),"
                " out_dir=pathlib.Path(sys.argv[2]))\n"
                "assert config.national_rankings is not None\n"
                "pipeline.run_rank(config); pipeline.run_compare(config)\n"
                "print(len(forks), sorted(m for m in modules if m in sys.modules))\n")
        out = subprocess.run([sys.executable, "-c", code, str(FIXTURES / "config.json"),
                              str(tmp_path)], check=True, capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        # forks: the journals and one share per window (rank), the national
        # file and one share of system pairs (compare)
        assert out == "[]\n5 []\n"

    @pytest.mark.parametrize("failing", ["compute_indicators", "_atomic_write"])
    def test_collector_thresholds_restored(self, workspace, monkeypatch, failing):
        # the per-field loop raises the third threshold; an exception raised
        # while a field is computed, or while its files are written, restores it
        before = gc.get_threshold()
        config = load_config(workspace / "config.json")
        seen = []
        real = getattr(pipeline, failing)

        def fail_second_call(*args, **kwargs):
            seen.append(gc.get_threshold())
            if len(seen) == 2:
                raise InputError("stop")
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, failing, fail_second_call)
        with pytest.raises(InputError, match="stop"):
            run_rank(config)
        assert seen[0] == (before[0], before[1], before[2] * 100)
        assert gc.get_threshold() == before

    def test_out_under_a_regular_file_exits_one(self, workspace):
        (workspace / "file").write_text("", encoding="utf-8")
        out = workspace / "file" / "x"
        result = run_cli("rank", "--config", str(workspace / "config.json"), "--out", str(out))
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"error: cannot write {out}/"), result.output
        assert "Not a directory" in result.output

    def test_failed_write_leaves_no_tmp_file(self, workspace):
        # a directory where an output file goes: the .tmp file is written
        # and then cannot replace it
        out = workspace / "out"
        (out / "physics_w5_ranking.csv").mkdir(parents=True)
        result = run_cli("rank", "--config", str(workspace / "config.json"))
        assert result.exit_code == 1, result.output
        assert result.output.startswith(
            f"error: cannot write {out / 'physics_w5_ranking.csv'}: "), result.output
        assert not list(out.glob("*.tmp"))

    def test_window_override_flag(self, workspace):
        result = run_cli("rank", "--config", str(workspace / "config.json"),
                         "--window", "2010:2012")
        assert result.exit_code == 0
        names = [p.name for p in (workspace / "out").iterdir()]
        assert all("_w3_" in n for n in names)

    def test_ranks_match_hand_computed_order(self, workspace):
        run_cli("rank", "--config", str(workspace / "config.json"))
        lines = [
            line for line in
            (workspace / "out" / "computer_science_w5_ranking.csv")
            .read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")
        ]
        rows = [line.split(",") for line in lines[1:]]
        scores = [float(r[4]) for r in rows]
        assert scores == sorted(scores, reverse=True)
        ranks = [int(r[3]) for r in rows]
        assert ranks[0] == 1
        assert ranks == sorted(ranks)


class TestQuadrant:
    def test_quadrant_columns(self, workspace):
        run_cli("rank", "--config", str(workspace / "config.json"))
        text = (workspace / "out" / "physics_w5_quadrants.csv").read_text(encoding="utf-8")
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header == ("field_name,institution_id,qnif,qlif,ifq2a,"
                          "quadrant,mean_qnif,mean_qlif")


class TestCompare:
    def test_one_report_per_system_pair(self, workspace):
        result = run_cli("compare", "--config", str(workspace / "config.json"))
        assert result.exit_code == 0, result.output
        out = workspace / "out"
        for system in ["shanghai", "leiden", "qs", "ntu"]:
            assert (out / f"concordance_{system}_national.csv").exists()

    def test_rho_within_bounds_and_footer_present(self, workspace):
        run_cli("compare", "--config", str(workspace / "config.json"))
        for path in (workspace / "out").glob("concordance_*.csv"):
            lines = path.read_text(encoding="utf-8").splitlines()
            data = [l for l in lines if l and not l.startswith("#")][1:]
            for row in data:
                rho = row.split(",")[3]
                if rho != "*":
                    assert -1.0 <= float(rho) <= 1.0
            assert any(l.startswith("# pooled_agreement=") for l in lines)
            assert any(l.startswith("# mean_of_fractions=") for l in lines)

    def test_identical_tables_give_perfect_concordance(self, workspace):
        shutil.copy(workspace / "national_rankings.csv",
                    workspace / "external_rankings.csv")
        (workspace / "crosswalk.csv").write_text(
            "source_system,source_field,target_system,target_field\n"
            "national,overall,national,overall\n",
            encoding="utf-8",
        )
        result = run_cli("compare", "--config", str(workspace / "config.json"))
        assert result.exit_code == 0, result.output
        text = (workspace / "out" / "concordance_national_national.csv").read_text()
        row = [l for l in text.splitlines() if l and not l.startswith("#")][1]
        _, _, n, rho, num, den, _ = row.split(",")
        assert float(rho) == pytest.approx(1.0)
        assert num == den == n == "19"

    def test_system_pair_collision_exits_one_before_writing(self, workspace):
        # both pairs would write concordance_shanghai_national.csv
        with (workspace / "crosswalk.csv").open("a", encoding="utf-8") as fh:
            fh.write("shanghai,overall,National!,overall\n")
        result = run_cli("compare", "--config", str(workspace / "config.json"))
        assert result.exit_code == 1, result.output
        assert "'shanghai'->'National!'" in result.output
        assert "'shanghai'->'national'" in result.output
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("rows, message", [
        ("shanghai,overall,nosuch,overall\n",
         "error: system pair 'shanghai'->'nosuch' names unknown system 'nosuch'"),
        ("shanghai,overall,national,overall\nzzz,overall,national,overall\n",
         "error: system pair 'zzz'->'national' names unknown system 'zzz'"),
    ], ids=["target", "source_of_second_pair"])
    def test_unknown_system_exits_one_before_writing(self, workspace, rows, message):
        (workspace / "crosswalk.csv").write_text(
            "source_system,source_field,target_system,target_field\n" + rows,
            encoding="utf-8")
        result = run_cli("compare", "--config", str(workspace / "config.json"))
        assert result.exit_code == 1, result.output
        assert result.output.startswith(message), result.output
        assert not (workspace / "out").exists()

    def test_nonexistent_crosswalk_field_exits_one(self, workspace):
        (workspace / "crosswalk.csv").write_text(
            "source_system,source_field,target_system,target_field\n"
            "shanghai,no_such_field,national,overall\n",
            encoding="utf-8",
        )
        result = run_cli("compare", "--config", str(workspace / "config.json"))
        assert result.exit_code == 1
        assert "zero field pairs" in result.output

    def test_no_national_file_holds_one_field_result_at_a_time(self, workspace, monkeypatch):
        edit_config(workspace, national_rankings=None)
        (workspace / "crosswalk.csv").write_text(
            "source_system,source_field,target_system,target_field\n"
            "shanghai,overall,national,Computer Science\n",
            encoding="utf-8",
        )
        entries = watch_live_field_results(monkeypatch, workspace / "live.log")
        for cpus in (1, 2):
            pin_cpus(monkeypatch, cpus)
            written = run_compare(load_config(workspace / "config.json"))
            assert_no_child_process()
            assert [p.name for p in written] == ["concordance_shanghai_national.csv"]
            # window 0's three fields, ranked for their tables only
            calls = entries()
            assert len(calls) == 3 and max(live for _, live in calls) <= 1, calls
            pids = {pid for pid, _ in calls}
            assert pids == {os.getpid()} if cpus == 1 else len(pids) >= 2, calls

    def test_compare_rerun_is_byte_identical(self, workspace):
        run_cli("compare", "--config", str(workspace / "config.json"))
        first = {p.name: p.read_bytes() for p in (workspace / "out").iterdir()}
        run_cli("compare", "--config", str(workspace / "config.json"))
        second = {p.name: p.read_bytes() for p in (workspace / "out").iterdir()}
        assert first == second


# One fault per input file: the row appended and a part of its message.
FAULTS = {
    "publications": ("publications.csv", "R9001,UnivA,2010,J-CS-A,-1\n",
                     "line 205: negative citations (-1)"),
    "journals": ("journals.csv", "J-X,Physics,2010,7\n", "line 86: quartile 7 outside"),
    "taxonomy": ("taxonomy.csv", "Physics,level9,Physics\n",
                 "line 7: level must be one of"),
    "external": ("external_rankings.csv", "shanghai,overall,Nowhere,abc\n",
                 "line 53: malformed rank 'abc'"),
    "national": ("national_rankings.csv", "national,overall,Nowhere,xyz\n",
                 "line 21: malformed rank 'xyz'"),
    "crosswalk": ("crosswalk.csv", "zzz,overall,national,overall\n",
                  "names unknown system 'zzz'"),
    # a second system in the national file, and none named national_system
    "national_system": ("national_rankings.csv", "other,overall,Barcelona,1\n",
                        "none match national_system='natl'"),
}


class TestForkPoints:
    """The loads side by side and the forked shares run what one process
    would, with its faults: the first in a one-CPU run's order wins."""

    @pytest.mark.parametrize("command, national, faults", [
        ("validate", True, ("publications", "journals")),
        ("rank", True, ("publications", "journals")),
        ("compare", False, ("publications", "journals")),
        ("validate", True, ("journals", "taxonomy")),
        ("rank", True, ("journals", "taxonomy")),
        ("rank", True, ("journals",)),
        ("compare", True, ("external", "national")),
        ("compare", True, ("crosswalk", "national")),
        ("compare", True, ("national",)),
        ("compare", True, ("national_system",)),
        ("compare", True, ("crosswalk", "national_system")),
    ], ids=lambda v: v if isinstance(v, str) else "+".join(v) if isinstance(v, tuple) else None)
    def test_first_fault_of_a_one_cpu_run_wins(self, workspace, monkeypatch, command,
                                                national, faults):
        set_national(workspace, national)
        if "national_system" in faults:  # the crosswalk follows the new name
            edit_config(workspace, national_system="natl")
            crosswalk = workspace / "crosswalk.csv"
            crosswalk.write_text(crosswalk.read_text(encoding="utf-8").replace(
                ",national,", ",natl,"), encoding="utf-8")
        for fault in faults:
            name, row, _ = FAULTS[fault]
            with (workspace / name).open("a", encoding="utf-8") as fh:
                fh.write(row)
        outputs = []
        for cpus in (1, 2):
            forked = pin_cpus(monkeypatch, cpus)
            result = run_cli(command, "--config", str(workspace / "config.json"))
            assert_no_child_process()
            assert isinstance(result.exception, SystemExit), result.exception
            outputs.append((result.exit_code, result.output))
            assert len(forked) == cpus - 1  # the journals, or the national file
        assert outputs[0] == outputs[1]
        code, message = outputs[0]
        assert code == (2 if faults == ("national_system",) else 1), message
        assert message.startswith("configuration error: " if code == 2 else "error: "), message
        assert FAULTS[faults[0]][2] in message
        assert len(message.splitlines()) == 1, message
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("removed, message", [
        (('J-PH-A,"Physics, Applied",2010,1\n',),
         "journal 'J-PH-A' has no quartile for category 'physics, applied' in year 2010"),
        # at two CPUs computer_science, the first faulty field in name order,
        # is this process's share, and physics is in the child's
        (('J-CS-T,"Computer Science, Theory & Methods",2009,2\n',
          'J-PH-A,"Physics, Applied",2010,1\n'),
         "journal 'J-CS-T' has no quartile for category "
         "'computer science, theory & methods' in year 2009"),
    ], ids=["physics", "computer_science+physics"])
    def test_national_share_fault_of_the_first_field_wins(self, workspace, monkeypatch,
                                                          removed, message):
        set_national(workspace, False)
        journals = workspace / "journals.csv"
        text = journals.read_text(encoding="utf-8")
        for row in removed:
            assert row in text
            text = text.replace(row, "")
        journals.write_text(text, encoding="utf-8")
        outputs = []
        for cpus in (1, 2):
            forked = pin_cpus(monkeypatch, cpus)
            result = run_cli("compare", "--config", str(workspace / "config.json"),
                             "--strict-quartiles")
            assert_no_child_process()
            assert isinstance(result.exception, SystemExit), result.exception
            outputs.append((result.exit_code, result.output))
            assert len(forked) == 2 * (cpus - 1)  # the journals, then the fields' share
        assert outputs[0] == outputs[1] == (1, f"error: {message}\n")
        assert not (workspace / "out").exists()

    # shares of _split(WEIGHTS, 2): [0, 3] in this process, [1, 2, 4] in the child
    WEIGHTS = (5, 1, 1, 1, 3)

    def test_shares_return_values_in_index_order(self, monkeypatch):
        assert pipeline._split(self.WEIGHTS, 2) == [[0, 3], [1, 2, 4]]
        runs = []
        for cpus in (1, 2):
            forked = pin_cpus(monkeypatch, cpus)
            runs.append(pipeline._fork_shares(self.WEIGHTS, lambda i: (i, i / 2, f"field {i}")))
            assert_no_child_process()
            assert len(forked) == cpus - 1
        assert runs[0] == runs[1] == [(i, i / 2, f"field {i}") for i in range(5)]

    @pytest.mark.parametrize("failing, first", [((1, 3), 1), ((0, 4), 0)],
                             ids=["child_first", "parent_first"])
    def test_shares_raise_the_fault_of_the_lowest_index(self, monkeypatch, failing, first):
        def run(i):
            if i in failing:
                raise ValueError(f"index {i}")
            return i

        for cpus in (1, 2):
            forked = pin_cpus(monkeypatch, cpus)
            with pytest.raises(ValueError, match=f"^index {first}$"):
                pipeline._fork_shares(self.WEIGHTS, run)
            assert_no_child_process()
            assert len(forked) == cpus - 1

    def test_input_error_in_a_child_keeps_its_line(self, workspace, monkeypatch):
        name, row, message = FAULTS["journals"]
        with (workspace / name).open("a", encoding="utf-8") as fh:
            fh.write(row)
        forked = pin_cpus(monkeypatch, 2)
        with pytest.raises(InputError) as info:
            pipeline._load_inputs(load_config(workspace / "config.json"))
        assert_no_child_process()
        assert len(forked) == 1
        assert info.value.line == 86
        assert str(info.value).startswith(message)

    def test_numbers_stay_shared_through_a_child(self, workspace, monkeypatch):
        # Two national fields whose rows repeat ids and rank texts: as loaded,
        # equal ranks are one float and equal ids one string, as equal years in
        # the journals file are one int. The file's only system, natl, is not
        # the configured national_system; its tables cross as columns, as
        # run_compare sends them.
        (workspace / "national_rankings.csv").write_text(
            "system_name,field_name,institution_id,rank\n" + "".join(
                f"natl,{field},{inst},{rank}\n" for field in ("a", "b")
                for inst, rank in (("U1", "1"), ("U2", "2-3"), ("U3", "2-3"), ("U4", "250"))),
            encoding="utf-8")
        config = load_config(workspace / "config.json")

        def national():
            columns = pipeline._fork_call(partial(pipeline._national_file_columns, config))()
            return {field: RankingTable(*c) for field, c in columns.items()}

        forked = pin_cpus(monkeypatch, 2)
        through_child = pipeline._load_inputs(config)[1], national()
        assert len(forked) == 2
        pin_cpus(monkeypatch, 1)
        in_process = pipeline._load_inputs(config)[1], national()
        assert through_child == in_process
        for journals, tables in (through_child, in_process):
            assert {table.system_name for table in tables.values()} == {"natl"}
            years = [year for quartiles in journals.values()
                     for by_year in quartiles.values() for year in by_year]
            ranks = [rank for table in tables.values() for rank in table.ranks]
            ids = [inst for table in tables.values() for inst in table.ids]
            for values in (years, ranks, ids):
                assert len({id(v) for v in values}) == len(set(values)) < len(values)
        assert_no_child_process()

    @pytest.mark.parametrize("value", [RankingTable("natl", "a", ("U1",), (1.0,)), object()],
                             ids=["table", "object"])
    def test_value_marshal_refuses_is_a_value_error(self, monkeypatch, value):
        # a child's value must be plain data; nothing falls back to pickle
        forked = pin_cpus(monkeypatch, 2)
        with pytest.raises(ValueError, match="^unmarshallable object$"):
            pipeline._fork_call(lambda: value)()
        assert_no_child_process()
        # shares of _split(WEIGHTS, 2): indices 1, 2 and 4 are the child's
        with pytest.raises(ValueError, match="^unmarshallable object$"):
            pipeline._fork_shares(self.WEIGHTS, lambda i: value)
        assert_no_child_process()
        assert len(forked) == 2

    @pytest.mark.parametrize("end, status", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), 9),
        (lambda: os._exit(1), 256),  # as _child ends when its write fails
    ], ids=["killed", "exits"])
    def test_report_cut_short_is_a_runtime_error(self, monkeypatch, end, status):
        pin_cpus(monkeypatch, 2)
        pipes = []
        real_pipe = os.pipe

        def pipe():
            pipes.append(real_pipe())
            return pipes[-1]

        monkeypatch.setattr(pipeline.os, "pipe", pipe)

        def write_half_then_end():
            report = pipeline._VALUE + marshal.dumps(list(range(100_000)))
            os.write(pipes[-1][1], report[:len(report) // 2])
            end()

        wait = pipeline._fork_call(write_half_then_end)
        with pytest.raises(RuntimeError, match=f"^a forked child ended with wait status {status}$"):
            wait()
        assert_no_child_process()
