"""Independent check of every bibliorank output row.

``expected_outputs`` recomputes, from the generated input files alone and
without importing bibliorank, every data row that ``rank`` and ``compare``
should write. ``check_outputs`` parses each written data row with the
``csv`` module (``#`` header lines are skipped) and classifies every
expected row that has no correct counterpart:

- ``columns``: a data row whose column count is wrong, such as an id with an
  unquoted comma;
- ``missing`` / ``extra``: an expected row that is absent, or a written row
  or file that no expected row matches;
- ``rank``: not the competition rank over the exact key
  NCIT^2 * H * Q1 * TOP / NDOC^2 (IFQ2A cubed);
- ``value``: an indicator, score or quadrant that differs;
- ``n``, ``agreement``, ``rho``: a concordance row whose joined count,
  agreement numerator/denominator, or Spearman rho (against
  ``scipy.stats.spearmanr``) differs;
- ``error``: any row of a command that raised.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import warnings
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

KINDS = ("error", "columns", "missing", "extra", "rank", "value", "n", "agreement", "rho")
TOL = 1e-6  # outputs carry 6 decimals


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.casefold()).strip("_")


def _rows(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return [{k: (v or "").strip() for k, v in row.items()} for row in csv.DictReader(fh)]


def _close(text: str, value: float, tol: float = TOL) -> bool:
    try:
        return abs(float(text) - value) <= tol + 1e-9 * abs(value)
    except ValueError:
        return False


def _effective(rank: str) -> float:
    lo, _, hi = rank.partition("-")
    return (int(lo) + int(hi)) / 2 if hi else float(lo)


def _competition_ranks(ordered: list[tuple[str, object]]) -> dict[str, int]:
    """Ranks for (id, key) pairs already sorted best first; equal keys share
    the position of the first of them."""
    ranks, prev = {}, None
    for position, (inst, key) in enumerate(ordered, start=1):
        if position == 1 or key != prev[1]:
            prev = (position, key)
        ranks[inst] = prev[0]
    return ranks


def _h_index(citations: list[int]) -> int:
    return sum(1 for i, c in enumerate(sorted(citations, reverse=True), start=1) if c >= i)


def _load_corpus(inputs: Path, config: dict) -> tuple:
    """Field categories, journal categories and quartiles, and publications."""
    fields = defaultdict(set)
    for row in _rows(inputs / config["taxonomy"]):
        fields[row["field_name"]].add(row["category"].casefold())
    cats, quartile = defaultdict(set), {}
    for row in _rows(inputs / config["journals"]):
        cat = row["category"].casefold()
        cats[row["journal_id"]].add(cat)
        quartile[(row["journal_id"], cat, int(row["year"]))] = int(row["quartile"])
    pubs = [(row["institution_id"], int(row["year"]), row["journal_id"], int(row["citations"]))
            for row in _rows(inputs / config["publications"])]
    return fields, cats, quartile, pubs


def _field_rows(corpus: tuple, window: tuple[int, int]) -> dict[str, dict]:
    """Per non-empty field: {institution: indicator and score dict}."""
    fields, cats, quartile, pubs = corpus
    fields_of = {j: [f for f, fc in fields.items() if cs & fc] for j, cs in cats.items()}
    papers = defaultdict(lambda: defaultdict(list))  # field -> inst -> [(cit, q1)]
    q1_cache = {}
    for inst, year, journal, citations in pubs:
        if not window[0] <= year <= window[1]:
            continue
        for f in fields_of[journal]:
            key = (journal, f, year)
            if key not in q1_cache:
                # any-relevant policy; a missing quartile counts as not Q1
                q1_cache[key] = any(quartile.get((journal, c, year)) == 1
                                    for c in cats[journal] & fields[f])
            papers[f][inst].append((citations, q1_cache[key]))

    out = {}
    for f, by_inst in papers.items():
        pool = sorted((c for recs in by_inst.values() for c, _ in recs), reverse=True)
        # ceil(0.10 * N) in floating point, as documented and tested upstream
        threshold = pool[math.ceil(0.10 * len(pool)) - 1]
        table = {}
        for inst, recs in by_inst.items():
            cits = [c for c, _ in recs]
            ndoc, ncit, h = len(recs), sum(cits), _h_index(cits)
            q1 = sum(1 for _, q in recs if q)
            top = sum(1 for c in cits if c >= threshold)
            qnif = (ndoc * ncit * h) ** (1 / 3)
            qlif = ((q1 / ndoc) * (ncit / ndoc) * (top / ndoc)) ** (1 / 3)
            table[inst] = dict(ndoc=ndoc, ncit=ncit, h=h, pct_q1=q1 / ndoc,
                               acit=ncit / ndoc, topcit=top / ndoc, qnif=qnif, qlif=qlif,
                               ifq2a=qnif * qlif,
                               key=Fraction(ncit * ncit * h * q1 * top, ndoc * ndoc))
        ordered = sorted(table.items(), key=lambda kv: -kv[1]["key"])
        for inst, rank in _competition_ranks([(i, v["key"]) for i, v in ordered]).items():
            table[inst]["rank"] = rank
        n = len(table)
        mean_qnif = sum(v["qnif"] for v in table.values()) / n
        mean_qlif = sum(v["qlif"] for v in table.values()) / n
        for v in table.values():
            v["mean_qnif"], v["mean_qlif"] = mean_qnif, mean_qlif
        out[f] = table
    return out


def _tables(path: Path) -> dict[tuple[str, str], list[tuple[str, float]]]:
    tables = defaultdict(list)
    for row in _rows(path):
        tables[(row["system_name"], row["field_name"])].append(
            (row["institution_id"], _effective(row["rank"])))
    return {k: sorted(v, key=lambda e: e[1]) for k, v in tables.items()}


def _concordance(inputs: Path, config: dict, natl: dict[str, list[tuple[str, float]]]):
    """{file name: {(source_field, target_field): expected values}}."""
    from scipy.stats import spearmanr

    intl = _tables(inputs / config["external_rankings"])
    system_set = {inst for table in natl.values() for inst, _ in table}
    natl_ranks = {f: _competition_ranks(t) for f, t in natl.items()}
    grouped = defaultdict(list)
    for row in _rows(inputs / config["crosswalk"]):
        grouped[(row["source_system"], row["target_system"])].append(
            (row["source_field"], row["target_field"]))
    out = {}
    for (src, tgt), pairs in grouped.items():
        rows = {}
        for sf, tf in pairs:
            if (src, sf) not in intl or tf not in natl:
                continue  # unresolved: reported in a header line
            restricted = [e for e in intl[(src, sf)] if e[0] in system_set]
            ranks = natl_ranks[tf]
            joined = [(eff, ranks[inst]) for inst, eff in restricted if inst in ranks]
            rho = None
            if len(joined) >= config.get("min_n", 3):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    value = spearmanr([x for x, _ in joined], [y for _, y in joined])[0]
                rho = None if math.isnan(value) else float(value)
            s = len(restricted)
            num = sum(1 for inst, _ in restricted if ranks.get(inst, s + 1) <= s)
            rows[(sf, tf)] = dict(n=len(joined), rho=rho, num=num, den=s)
        out[f"concordance_{_slug(src)}_{_slug(tgt)}.csv"] = rows
    return out


def expected_outputs(inputs: Path, commands: tuple[str, ...]) -> dict[str, tuple[str, dict]]:
    """{output file name: (file kind, {row key: expected values})}."""
    config = json.loads((inputs / "config.json").read_text(encoding="utf-8"))
    out = {}
    windows = [tuple(w) for w in config["windows"]]
    results = {}
    if "rank" in commands or not config.get("national_rankings"):
        corpus = _load_corpus(inputs, config)
        for w in windows if "rank" in commands else windows[:1]:
            results[w] = _field_rows(corpus, w)
    if "rank" in commands:
        for w in windows:
            for field, table in results[w].items():
                stem = f"{_slug(field)}_w{w[1] - w[0] + 1}"
                for kind in ("ranking", "quadrants", "indicators"):
                    out[f"{stem}_{kind}.csv"] = (kind, {(field, inst): v
                                                         for inst, v in table.items()})
    if "compare" in commands:
        if config.get("national_rankings"):
            chosen = config.get("national_system", "national")
            natl = {f: t for (s, f), t in _tables(inputs / config["national_rankings"]).items()
                    if s == chosen}
        else:
            natl = {f: sorted(((inst, float(v["rank"])) for inst, v in table.items()),
                              key=lambda e: e[1])
                    for f, table in results[windows[0]].items()}
        for name, rows in _concordance(inputs, config, natl).items():
            out[name] = ("concordance", rows)
    return out


COLUMNS = {"ranking": 5, "quadrants": 8, "indicators": 8, "concordance": 7}
KEY_COLUMNS = {"ranking": (1, 2), "quadrants": (0, 1), "indicators": (0, 1),
               "concordance": (0, 1)}
LABELS = {(True, True): "both_outstanding", (True, False): "quantitative_only",
          (False, True): "qualitative_only", (False, False): "neither"}


def _row_failure(kind: str, row: list[str], exp: dict, national: str) -> str | None:
    """The failure kind of a well-formed data row against its expected values."""
    if kind == "ranking":
        if row[0] != national:
            return "value"
        if row[3] != str(exp["rank"]):
            return "rank"
        return None if _close(row[4], exp["ifq2a"]) else "value"
    if kind == "indicators":
        ints = [row[2], row[3], row[4]] == [str(exp["ndoc"]), str(exp["ncit"]), str(exp["h"])]
        floats = all(_close(t, exp[k]) for t, k in zip(row[5:], ("pct_q1", "acit", "topcit")))
        return None if ints and floats else "value"
    if kind == "quadrants":
        names = ("qnif", "qlif", "ifq2a", None, "mean_qnif", "mean_qlif")
        if not all(_close(t, exp[k]) for t, k in zip(row[2:], names) if k):
            return "value"
        labels = {LABELS[(quant, qual)]
                  for quant in _sides(exp["qnif"], exp["mean_qnif"])
                  for qual in _sides(exp["qlif"], exp["mean_qlif"])}
        return None if row[5] in labels else "value"
    # concordance
    if row[2] != str(exp["n"]):
        return "n"
    if (row[4], row[5]) != (str(exp["num"]), str(exp["den"])) or \
            not _close(row[6], exp["num"] / exp["den"] if exp["den"] else 0.0):
        return "agreement"
    if exp["rho"] is None:
        return None if row[3] == "*" else "rho"
    return None if _close(row[3], exp["rho"], 0.0005) else "rho"


def _sides(value: float, mean: float) -> tuple[bool, ...]:
    """At-mean counts as outstanding; within float noise of the mean, either side."""
    if abs(value - mean) <= 1e-9 * max(1.0, abs(mean)):
        return (True, False)
    return (value >= mean,)


def check_outputs(out_dir: Path, expected: dict, failed_commands=(),
                  national: str = "national") -> Counter:
    """Failure counts by kind over every expected row (plus extras)."""
    failures = Counter()
    written = {p.name for p in out_dir.glob("*.csv")} if out_dir.is_dir() else set()
    failures["extra"] += sum(len(_data_rows(out_dir / name)) for name in written - set(expected))
    for name, (kind, rows) in expected.items():
        if ("compare" if kind == "concordance" else "rank") in failed_commands:
            failures["error"] += len(rows)
            continue
        if name not in written:
            failures["missing"] += len(rows)
            continue
        data = _data_rows(out_dir / name)
        width = COLUMNS[kind]
        malformed = sum(1 for r in data if len(r) != width)
        seen = set()
        for r in data:
            if len(r) != width:
                continue
            key = tuple(r[i] for i in KEY_COLUMNS[kind])
            if key not in rows or key in seen:
                failures["extra"] += 1
                continue
            seen.add(key)
            failure = _row_failure(kind, r, rows[key], national)
            if failure:
                failures[failure] += 1
        # a malformed row is taken to be one of the expected rows not matched
        unmatched = len(rows) - len(seen)
        failures["columns"] += min(unmatched, malformed)
        failures["missing"] += max(0, unmatched - malformed)
        failures["extra"] += max(0, malformed - unmatched)
    return +failures


def _data_rows(path: Path) -> list[list[str]]:
    """The rows after the column header, ``#`` lines skipped."""
    with path.open(encoding="utf-8", newline="") as fh:
        return [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]


def digest(out_dir: Path) -> str:
    """SHA-256 over every output file name and its data rows (``#`` lines skipped)."""
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode() + b"\0")
        for line in path.read_bytes().splitlines(keepends=True):
            if not line.startswith(b"#"):
                h.update(line)
    return h.hexdigest()
