"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import csv
import io
import json
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SMALL = 0.05


def _files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    gen.generate(workload, 7, tmp_path / "a", SMALL)
    gen.generate(workload, 7, tmp_path / "b", SMALL)
    gen.generate(workload, 8, tmp_path / "c", SMALL)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One pipeline-few-fields sample (rank + compare) at the smallest scale."""
    work = tmp_path_factory.mktemp("work")
    config = gen.generate("pipeline-few-fields", 3, work / "inputs", SMALL)
    commands = gen.WORKLOADS["pipeline-few-fields"]["commands"]
    result = run.spawn(work, config, commands, trace=False)
    assert result["errors"] == {}
    expected = check.expected_outputs(config.parent, commands)
    return config.parent / "out", expected


def _rewrite(path: Path, mutate) -> None:
    """Apply ``mutate`` to the first data row it accepts (returns True for)."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("#"):
            continue
        row = next(csv.reader([line]))
        if mutate(row):
            lines[i] = ",".join(row) + "\n"
            path.write_text("".join(lines), encoding="utf-8")
            return
    raise AssertionError(f"no row to corrupt in {path.name}")


def _corrupt_and_check(out_dir, expected, kind, mutate):
    before = check.check_outputs(out_dir, expected)
    name = next(n for n, (k, _) in expected.items() if k == kind)
    backup = (out_dir / name).read_bytes()
    try:
        _rewrite(out_dir / name, mutate)
        after = check.check_outputs(out_dir, expected)
    finally:
        (out_dir / name).write_bytes(backup)
    return before, after


def test_checker_fails_a_corrupted_ranking_row(pipeline_run):
    out_dir, expected = pipeline_run
    rows = dict(next(rows for k, rows in expected.values() if k == "ranking"))

    def mutate(row):
        exp = rows.get((row[1], row[2])) if len(row) == 5 else None
        if exp is None or row[3] != str(exp["rank"]):
            return False
        row[3] = str(exp["rank"] + 1)
        return True

    before, after = _corrupt_and_check(out_dir, expected, "ranking", mutate)
    assert after["rank"] == before["rank"] + 1
    assert sum(after.values()) == sum(before.values()) + 1


def test_checker_fails_a_corrupted_concordance_row(pipeline_run):
    out_dir, expected = pipeline_run

    def mutate(row):
        if len(row) != 7 or not row[4].isdigit():
            return False
        row[4] = str(int(row[4]) + 1)  # agreement numerator
        return True

    before, after = _corrupt_and_check(out_dir, expected, "concordance", mutate)
    assert sum(after.values()) == sum(before.values()) + 1
    assert after["agreement"] + after["n"] == before["agreement"] + before["n"] + 1


def test_missing_wrapped_name_is_reported_not_zeroed():
    pipeline = types.SimpleNamespace()
    concordance = types.SimpleNamespace()
    for module_key, attr, *_ in tracing.WRAPPED:
        if attr != "field_corpus":
            setattr(pipeline if module_key == "pipeline" else concordance, attr, lambda *a: None)
    tracer = tracing.Tracer()
    tracer.install({"pipeline": pipeline, "concordance": concordance})
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, tracer.missing)
    assert tracer.missing == ["bibliorank.pipeline.field_corpus"]
    assert "taxonomy.field_corpus.s" not in metrics
    assert "taxonomy.field_corpus.kept_ratio" not in metrics
    assert metrics["taxonomy.assign_fields.calls"] == 0


def test_self_time_subtracts_child_spans():
    spans = [["pipeline.run_rank", 0.0, 10.0, -1],
             ["pipeline.compute_field_results", 1.0, 9.0, 0],
             ["taxonomy.field_corpus", 2.0, 5.0, 1],
             ["taxonomy.field_corpus", 5.0, 6.0, 1]]
    metrics = tracing.layer_metrics(spans, {}, [])
    assert metrics["pipeline.self_s"] == pytest.approx(2.0)
    assert metrics["pipeline.compute_field_results.s"] == pytest.approx(4.0)
    assert metrics["taxonomy.field_corpus.s"] == pytest.approx(4.0)
    assert metrics["taxonomy.field_corpus.calls"] == 2


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smallest_configuration_runs_end_to_end(workload, trace):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                         "--trace", trace, "--scale", str(SMALL)])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}


def test_times_are_adjusted_to_the_reference_speed():
    slow = {"setup_s": 0.2, "command_s": 4.0, "peak_rss_mb": 50.0,
            "setup_ref_s": 2 * run.REF_NOMINAL_S, "command_ref_s": 4 * run.REF_NOMINAL_S}
    values, _ = run.end_to_end([slow], ())
    assert values["command_s"] == pytest.approx(1.0)
    assert values["setup_s"] == pytest.approx(0.1)
    assert values["command_raw_s"] == pytest.approx(4.0)
