import csv
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from click.testing import CliRunner

import bibliorank
from bibliorank import pipeline
from bibliorank.cli import main
from bibliorank.errors import InputError
from bibliorank.pipeline import RunConfig, load_config, run_compare, run_rank


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
    append ``pid,live`` to ``log``: the number of FieldResult objects alive
    in that process. Forked children inherit the wrapper. Returns a function
    that reads back the (pid, live) pairs."""
    real = pipeline.compute_indicators

    def counting(*args, **kwargs):
        live = sum(isinstance(o, pipeline.FieldResult) for o in gc.get_objects())
        with log.open("a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()},{live}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "compute_indicators", counting)
    # An earlier test's CliRunner may leave a failed run's results in a
    # reference cycle; count only what this run keeps alive.
    gc.collect()
    return lambda: [tuple(map(int, line.split(","))) for line in
                    log.read_text(encoding="ascii").splitlines()]


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
        calls = {}

        def counted(name):
            real = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)
            return wrapper

        for name in ("load_publications", "load_journals", "load_taxonomy"):
            monkeypatch.setattr(pipeline, name, counted(name))
        config = load_config(workspace / "config.json")
        assert len(config.windows) == 2
        run_rank(config)
        assert calls == {"load_publications": 1, "load_journals": 1, "load_taxonomy": 1}

    def test_holds_one_field_result_at_a_time(self, workspace, monkeypatch):
        entries = watch_live_field_results(monkeypatch, workspace / "live.log")
        written = run_rank(load_config(workspace / "config.json"))
        assert len(written) == 18  # 3 fields x 3 files x 2 windows
        live = [count for _, count in entries()]
        assert len(live) == 6 and max(live) <= 1, entries()
        if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2:
            assert len({pid for pid, _ in entries()}) >= 2, entries()

    @staticmethod
    def pin_cpus(monkeypatch, cpus: int) -> list[int]:
        """Make run_rank see ``cpus`` usable CPUs; returns the pids it forks."""
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

    def test_one_and_two_shares_write_the_same_files(self, workspace, monkeypatch):
        config = load_config(workspace / "config.json")
        runs = []
        for cpus in (1, 2):
            forked = self.pin_cpus(monkeypatch, cpus)
            shutil.rmtree(config.out_dir, ignore_errors=True)
            written = run_rank(config)
            assert_no_child_process()
            runs.append((written, {p.name: p.read_bytes() for p in config.out_dir.iterdir()}))
            # the three fields split into shares of one and two, in each window
            assert len(forked) == 2 * (cpus - 1)
        assert runs[0] == runs[1]
        assert len(runs[0][0]) == 18

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
            self.pin_cpus(monkeypatch, cpus)
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
        self.pin_cpus(monkeypatch, 2)
        parent, real = os.getpid(), pipeline._write_field

        def die_in_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            real(*args)

        monkeypatch.setattr(pipeline, "_write_field", die_in_child)
        with pytest.raises(RuntimeError, match="^a forked child ended with wait status 9$"):
            run_rank(load_config(workspace / "config.json"))
        assert_no_child_process()

    def test_no_fork_while_another_thread_runs(self, workspace, monkeypatch):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(pipeline.os, "fork", lambda: pytest.fail("forked"))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(10,))
        thread.start()
        try:
            assert len(run_rank(load_config(workspace / "config.json"))) == 18
        finally:
            stop.set()
            thread.join(10)
        assert not thread.is_alive()

    def test_cli_import_loads_no_process_pool_or_pickle(self):
        # rank imports pickle only to pass a fault from a child to its parent
        src = str(Path(bibliorank.__file__).resolve().parent.parent)
        code = ("import sys; import bibliorank.cli; print(sorted(m for m in ("
                "'multiprocessing', 'concurrent.futures', 'pickle') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out == "[]\n"

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
        written = run_compare(load_config(workspace / "config.json"))
        assert [p.name for p in written] == ["concordance_shanghai_national.csv"]
        live = [count for _, count in entries()]
        assert len(live) == 3 and max(live) <= 1, entries()
        assert {pid for pid, _ in entries()} == {os.getpid()}  # compare does not fork

    def test_compare_rerun_is_byte_identical(self, workspace):
        run_cli("compare", "--config", str(workspace / "config.json"))
        first = {p.name: p.read_bytes() for p in (workspace / "out").iterdir()}
        run_cli("compare", "--config", str(workspace / "config.json"))
        second = {p.name: p.read_bytes() for p in (workspace / "out").iterdir()}
        assert first == second
