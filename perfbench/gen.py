"""Seeded synthetic inputs for the bibliorank benchmark (standard library only).

``generate(workload, seed, out_dir)`` writes every input file a workload
needs plus its ``config.json``. The same (workload, seed, scale) always gives
byte-identical files: all randomness comes from one ``random.Random`` seeded
with a string, and every file is written in a fixed order with ``\\n`` line
endings.

Shapes shared by all workloads:

- institution output and citation counts are Pareto-skewed;
- journals belong to several subject categories, and a seeded scatter of
  (journal, category, year) quartile rows is missing, so the
  ``missing_quartile=warn`` path runs;
- a small seeded share of institution and field names contain a comma, as
  real names do ("University of California, Berkeley");
- published tables rank the top 100 exactly and the rest in intervals
  (101-150 ... 401-500), so their ranks tie heavily.
"""

from __future__ import annotations

import csv
import itertools
import json
import random
from pathlib import Path

INTERVALS = ((101, 150), (151, 200), (201, 300), (301, 400), (401, 500))
SYSTEMS = ("shanghai", "leiden", "qs", "ntu")
NATIONAL = "national"
YEARS = range(2001, 2015)  # a little wider than the widest window, so some records drop

# Sizes at scale 1. Each workload is a closed loop: one client runs the
# workload's commands one after another in a single process, no threads.
# One sample takes 2 to 4 s on a shared 2-core machine: long enough to average
# over the second-long bursts of contention seen there, short enough for
# about ten samples in a 30 s run.
WORKLOADS = {
    # taxonomy's per-field full-corpus rescan and the per-window re-parse
    # dominate; pipeline writes 3 files per (field, window).
    "rank-many-fields": dict(
        commands=("rank",), records=24_000, institutions=1_200, categories=120,
        broad_fields=22, subfields=60, journals=500, cats_per_journal=(1, 3),
        windows=((2008, 2012), (2003, 2012)),
    ),
    # parsing and indicators dominate; compare rebuilds the national tables
    # by ranking window 0 again.
    "pipeline-few-fields": dict(
        commands=("rank", "compare"), records=48_000, institutions=3_000,
        categories=40, broad_fields=4, subfields=0, journals=1_000,
        cats_per_journal=(4, 8), windows=((2008, 2012),),
        external_systems=2, external_fields=4, external_top=200,
    ),
    # only ranking-table loading and concordance work; no publication parse.
    "compare-tables": dict(
        commands=("compare",), institutions=3_000, national_fields=80,
        national_size=1_200, external_systems=4, external_fields=60,
        external_top=500, targets_per_source=2, unresolved=6,
    ),
}

COMMA_EVERY = 50  # about one name in 50 carries a comma


def _scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(n * scale)))


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _institutions(rng: random.Random, n: int) -> tuple[list[str], list[float]]:
    """Names and Pareto(1.2) output weights, largest first; a stratified seeded
    share of names (every COMMA_EVERY-th by size) contain a comma.

    The weights are the distribution's quantiles at (i + 0.5) / n rather than
    random draws, so every seed has the same size profile and the work per
    run does not swing with one outsized institution.
    """
    weights = [((i + 0.5) / n) ** (-1 / 1.2) for i in range(n)]
    offset = rng.randrange(COMMA_EVERY)
    names = []
    for i in range(n):
        if (i + offset) % COMMA_EVERY == 0:
            names.append(f"University {i:04d}, Campus {rng.choice('ABCDEFGH')}")
        else:
            names.append(f"University {i:04d}")
    return names, weights


def _field_names(rng: random.Random, count: int, stem: str) -> list[str]:
    offset = rng.randrange(COMMA_EVERY // 2)
    return [
        f"{stem} {i:03d}, Applied" if (i + offset) % (COMMA_EVERY // 2) == 0
        else f"{stem} {i:03d}"
        for i in range(count)
    ]


def _ranked_table(rng: random.Random, system: str, field: str, pool: list[str],
                  strength: dict[str, float], size: int, interval_ranks: bool):
    """Rows (system, field, institution, rank) for a noisy strength ordering."""
    chosen = rng.sample(pool, min(size, len(pool)))
    chosen.sort(key=lambda inst: -strength[inst] * rng.lognormvariate(0, 0.6))
    rows = []
    for position, inst in enumerate(chosen, start=1):
        rank = str(position)
        if interval_ranks and position > 100:
            lo, hi = next(iv for iv in INTERVALS if iv[0] <= position <= iv[1])
            rank = f"{lo}-{hi}"
        elif not interval_ranks and position > 1 and rng.random() < 0.02:
            rank = rows[-1][3]  # an exact tie with the previous institution
        rows.append((system, field, inst, rank))
    return rows


def _corpus(rng: random.Random, spec: dict, scale: float, out: Path,
            institutions: list[str], weights: list[float]) -> list[str]:
    """Write taxonomy, journals and publications; return the field names."""
    n_cats = spec["categories"]
    categories = [f"cat-{i:03d}" for i in range(n_cats)]
    groups = [categories[g::spec["broad_fields"]] for g in range(spec["broad_fields"])]
    broad = _field_names(rng, spec["broad_fields"], "Field")
    taxonomy = []
    for name, group in zip(broad, groups):
        taxonomy += [(name, "field", c) for c in group]
    # the first category of the next group makes neighbouring broad fields overlap
    for g, name in enumerate(broad):
        if spec["broad_fields"] > 1:
            taxonomy.append((name, "field", groups[(g + 1) % len(groups)][0]))
    subfields = _field_names(rng, spec["subfields"], "Subfield")
    # subfields here, and journals' groups and category counts below, are
    # dealt in turn rather than drawn, so every seed gives fields of about
    # the same sizes and a run's work does not swing with the seed
    for i, name in enumerate(subfields):
        group = groups[i % len(groups)]
        for c in rng.sample(group, min(len(group), 3)):
            taxonomy.append((name, "subfield", c))
    _write_csv(out / "taxonomy.csv", ("field_name", "level", "category"), taxonomy)

    journal_ids = [f"J{j:05d}" for j in range(_scaled(spec["journals"], scale, 20))]
    lo, hi = spec["cats_per_journal"]
    journal_rows = []
    for j, jid in enumerate(journal_ids):
        group = groups[j % len(groups)]
        cats = {rng.choice(group)}
        wanted = min(lo + j % (hi - lo + 1), n_cats)
        while len(cats) < wanted:
            cats.add(rng.choice(group) if rng.random() < 0.6 else rng.choice(categories))
        quality = rng.randint(1, 4)
        for cat in sorted(cats):
            for year in YEARS:
                if rng.random() < 0.004:
                    continue  # missing quartile: exercises the warn path
                quartile = min(4, max(1, quality + rng.choice((-1, 0, 0, 0, 1))))
                journal_rows.append((jid, cat, year, quartile))
    _write_csv(out / "journals.csv", ("journal_id", "category", "year", "quartile"),
               journal_rows)

    cum = list(itertools.accumulate(weights))
    quality = [rng.lognormvariate(0, 0.5) for _ in institutions]
    pubs = []
    for r in range(_scaled(spec["records"], scale, 50)):
        i = rng.choices(range(len(institutions)), cum_weights=cum)[0]
        citations = int((rng.paretovariate(1.6) - 1.0) * 6.0 * quality[i])
        pubs.append((f"R{r:07d}", institutions[i], rng.choice(YEARS),
                     rng.choice(journal_ids), citations))
    _write_csv(out / "publications.csv",
               ("record_id", "institution_id", "year", "journal_id", "citations"), pubs)
    return broad + subfields


def _external(rng: random.Random, spec: dict, scale: float, out: Path,
              institutions: list[str], strength: dict[str, float],
              targets: list[str]) -> None:
    """Write external_rankings.csv and crosswalk.csv against ``targets``."""
    n_fields = _scaled(spec["external_fields"], scale, 2)
    top = _scaled(spec["external_top"], scale, 10)
    rows, crosswalk = [], []
    for system in SYSTEMS[:spec["external_systems"]]:
        fields = _field_names(rng, n_fields, f"{system} area")
        for field in fields:
            rows += _ranked_table(rng, system, field, institutions, strength, top, True)
            for target in rng.sample(targets, min(len(targets),
                                                  spec.get("targets_per_source", 1))):
                crosswalk.append((system, field, NATIONAL, target))
    for k in range(spec.get("unresolved", 1)):
        system = SYSTEMS[k % spec["external_systems"]]
        crosswalk.append((system, f"{system} area unpublished {k}", NATIONAL,
                          rng.choice(targets)))
    _write_csv(out / "external_rankings.csv",
               ("system_name", "field_name", "institution_id", "rank"), rows)
    _write_csv(out / "crosswalk.csv",
               ("source_system", "source_field", "target_system", "target_field"), crosswalk)


def generate(workload: str, seed: int, out_dir: str | Path, scale: float = 1.0) -> Path:
    """Write the workload's inputs and config into ``out_dir``; return the config path."""
    spec = WORKLOADS[workload]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}:{scale}")
    institutions, weights = _institutions(rng, _scaled(spec["institutions"], scale, 20))
    strength = dict(zip(institutions, weights))
    config = {"out_dir": "out", "q1_policy": "any-relevant", "missing_quartile": "warn",
              "missing_national": "warn", "min_n": 3, "national_system": NATIONAL}

    if "records" in spec:
        fields = _corpus(rng, spec, scale, out, institutions, weights)
        config["windows"] = [list(w) for w in spec["windows"]]
    else:
        # compare only: the corpus files exist (the config requires them) but
        # are tiny and never parsed by compare.
        _write_csv(out / "taxonomy.csv", ("field_name", "level", "category"),
                   [("Unused", "field", "cat-000")])
        _write_csv(out / "journals.csv", ("journal_id", "category", "year", "quartile"),
                   [("J00000", "cat-000", 2010, 1)])
        _write_csv(out / "publications.csv",
                   ("record_id", "institution_id", "year", "journal_id", "citations"),
                   [("R0000000", institutions[0], 2010, "J00000", 1)])
        config["windows"] = [[2008, 2012]]
        fields = _field_names(rng, _scaled(spec["national_fields"], scale, 2), "National area")
        size = _scaled(spec["national_size"], scale, 10)
        national = []
        for i, field in enumerate(fields):
            # every 20th table is too small to report rho for (rho suppressed)
            national += _ranked_table(rng, NATIONAL, field, institutions, strength,
                                      2 if i % 20 == 19 else size, False)
        _write_csv(out / "national_rankings.csv",
                   ("system_name", "field_name", "institution_id", "rank"), national)
        config["national_rankings"] = "national_rankings.csv"

    if "compare" in spec["commands"]:
        _external(rng, spec, scale, out, institutions, strength, fields)
        config["external_rankings"] = "external_rankings.csv"
        config["crosswalk"] = "crosswalk.csv"
    config.update(publications="publications.csv", journals="journals.csv",
                  taxonomy="taxonomy.csv")
    path = out / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
