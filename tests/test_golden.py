"""Output bytes of the fixture runs, pinned by two sha256 digests per file:
one of its data rows and one of its ``#`` comment lines.

The comment digest leaves out the ``# config_sha256=`` line, because that hash
covers absolute paths and so changes with where the fixtures sit. When an
output is meant to change, regenerate both JSON files with
``PYTHONPATH=src python tests/test_golden.py`` and say which outputs changed
and why.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from bibliorank.config import load_config
from bibliorank.pipeline import run_compare, run_rank

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden_rows.json"
GOLDEN_COMMENTS = Path(__file__).resolve().parent / "golden_comments.json"


def data_rows_sha256(path: Path) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(l for l in lines if not l.startswith(b"#"))).hexdigest()


def comment_lines_sha256(path: Path) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(
        l for l in lines if l.startswith(b"#") and not l.startswith(b"# config_sha256=")
    )).hexdigest()


FIELDS = ("Artificial Intelligence", "Computer Science", "Physics")

# One external table per fixture field over the fixture institutions and one
# outside them, with shared bands; compare ranks the national side itself.
LEAGUE_CSV = "system_name,field_name,institution_id,rank\n" + "".join(
    f"league,{field},{inst},{rank}\n" for field in FIELDS for inst, rank in (
        ("UnivB", "1"), ("UnivD", "2-3"), ("Outside", "2-3"), ("UnivA", "4"),
        ("UnivC", "5-9"), ("UnivE", "5-9")))
LEAGUE_CROSSWALK_CSV = "source_system,source_field,target_system,target_field\n" + "".join(
    f"{a},{field},{b},{field}\n" for a, b in (("league", "national"), ("national", "league"))
    for field in FIELDS)


def fixture_outputs(out: Path) -> list[Path]:
    """The files written by rank + compare on fixtures/config.json, rank with
    no national file under best-all, and compare of the league tables above
    with no national file."""
    config = load_config(FIXTURES / "config.json")
    full = config._replace(out_dir=out / "fixtures")
    no_national = config._replace(out_dir=out / "best_all_no_national",
                                  national_rankings=None, q1_policy="best-all")
    inputs = out / "league_inputs"
    inputs.mkdir()
    (inputs / "league.csv").write_text(LEAGUE_CSV, encoding="utf-8")
    (inputs / "crosswalk.csv").write_text(LEAGUE_CROSSWALK_CSV, encoding="utf-8")
    internal = config._replace(out_dir=out / "league_internal", national_rankings=None,
                               external_rankings=inputs / "league.csv",
                               crosswalk=inputs / "crosswalk.csv")
    return (run_rank(full) + run_compare(full) + run_rank(no_national)
            + run_compare(internal))


def digests(out: Path, paths: list[Path], digest) -> dict[str, str]:
    """``digest`` of each file, keyed by its path relative to ``out``."""
    return {p.relative_to(out).as_posix(): digest(p) for p in paths}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> tuple[Path, list[Path]]:
    out = tmp_path_factory.mktemp("golden")
    return out, fixture_outputs(out)


def test_fixture_outputs_match_golden_rows(outputs):
    assert digests(*outputs, data_rows_sha256) == json.loads(
        GOLDEN.read_text(encoding="utf-8"))


def test_fixture_outputs_match_golden_comments(outputs):
    assert digests(*outputs, comment_lines_sha256) == json.loads(
        GOLDEN_COMMENTS.read_text(encoding="utf-8"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        paths = fixture_outputs(Path(tmp))
        for golden, digest in ((GOLDEN, data_rows_sha256),
                               (GOLDEN_COMMENTS, comment_lines_sha256)):
            found = digests(Path(tmp), paths, digest)
            golden.write_text(json.dumps(found, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
            print(f"{len(found)} digests written to {golden}")
