"""End-to-end runs: validate inputs, build per-field rankings, compare
ranking systems. All file outputs are deterministic: identical inputs and
configuration produce byte-identical files, and every output carries a
comment header with the tool version, config hash, and policy choices.

Each run validates its ``config.RunConfig`` first, then spreads its
parses, fields and system pairs over processes through ``forks.fork_shares``.
"""

from __future__ import annotations

import gc
import logging
import os
import re
from contextlib import contextmanager, suppress
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

from . import __version__
from .concordance import (
    FieldCrosswalk,
    aggregate_agreement,
    agreement_decimal,
    load_crosswalk,
    run_crosswalk,
)
from .config import RunConfig
from .config import load_config  # noqa: F401  perfbench/child.py calls pipeline.load_config
from .corpus import (
    Corpus,
    PublicationRecord,
    Publications,
    Quartiles,
    TimeWindow,
    build_corpus,
    load_journals,
    load_publications,
    window_years,
)
from .errors import ConfigError, InputError
from .forks import fork_shares
from .indicators import IndicatorSet, compute_indicators, top10_threshold
from .ranking import (Columns, RankingTable, build_ranking, load_external_rankings,
                      restrict_to_system)
from .scoring import IndexScore, classify_quadrants, score_field
from .taxonomy import Taxonomy, assign_fields, field_corpus, fields_of_journal, load_taxonomy

_T = TypeVar("_T")

# perfbench's tracer sums the miss counts, each record's second argument.
_quartile_log = logging.getLogger("bibliorank.indicators")


def slugify(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.casefold()).strip("_")


def _check_stems(named: Iterable[tuple[str, str]], what: str) -> None:
    """Raise InputError if two of the (file stem, name) pairs share a stem:
    the second one's files would overwrite the first one's."""
    seen: dict[str, str] = {}
    for stem, name in named:
        first = seen.setdefault(stem, name)
        if first != name:
            raise InputError(f"{what} {first} and {name} share the output name {stem!r}")


def _check_field_stems(taxonomy: Taxonomy) -> None:
    _check_stems(((slugify(name), repr(name)) for name in sorted(taxonomy)), "fields")


def _load_crosswalks(config: RunConfig, external: Mapping[tuple[str, str], RankingTable]
                     ) -> list[tuple[str, FieldCrosswalk]]:
    """The crosswalks in output order, each with its report's file stem.

    InputError if two system pairs would write the same file, or if a pair
    names a system that is neither ``config.national_system`` nor one of the
    ``external`` tables' systems, or if the file defines no pair at all.
    """
    crosswalks = sorted(load_crosswalk(config.crosswalk),
                        key=lambda c: (c.source_system, c.target_system))
    if not crosswalks:
        raise InputError("crosswalk file defines no system pairs")
    stems = [f"{slugify(cw.source_system)}_{slugify(cw.target_system)}" for cw in crosswalks]
    _check_stems(((stem, f"{cw.source_system!r}->{cw.target_system!r}")
                  for stem, cw in zip(stems, crosswalks)), "system pairs")
    systems = {system for system, _ in external} | {config.national_system}
    for cw in crosswalks:
        for name in (cw.source_system, cw.target_system):
            if name not in systems:
                raise InputError(f"system pair {cw.source_system!r}->{cw.target_system!r} "
                                 f"names unknown system {name!r}")
    return list(zip(stems, crosswalks))


def _atomic_write(path: Path, content: str) -> None:
    """Write ``path`` whole or not at all, through a ``.tmp`` file beside it.

    An OSError is an InputError naming the path, and leaves no ``.tmp`` file.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(content, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        with suppress(OSError):  # the directory may be what failed
            tmp.unlink(missing_ok=True)
        raise InputError(f"cannot write {path}: {exc}") from None


def _write_csv(path: Path, header: str, columns: str, row_format: str,
               rows: Iterable[tuple], trailer: Iterable[str] = ()) -> None:
    """Write one output file: the ``header`` text, the ``columns`` line,
    ``row_format % row`` for each of ``rows``, then the ``#`` ``trailer``
    lines. ``header`` ends in a line end, ``row_format`` too; ``columns`` and
    the ``trailer`` lines do not.

    Names and ids reach the text only as ``row_format`` arguments. They are
    written unquoted (ROADMAP item 1), so one holding a comma, a quote or a
    line break breaks its row.
    """
    _atomic_write(path, "".join([header, columns, "\n", *[row_format % row for row in rows],
                                 *[f"{line}\n" for line in trailer]]))


def _header(config: RunConfig, window: TimeWindow | None = None) -> str:
    lines = [
        f"# bibliorank {__version__}",
        f"# config_sha256={config.digest()}",
        f"# q1_policy={config.q1_policy} missing_quartile={config.missing_quartile} "
        f"missing_national={config.missing_national} min_n={config.min_n}",
    ]
    if window is not None:
        lines.append(f"# window={window}")
    return "\n".join(lines) + "\n"


class ValidationReport(NamedTuple):
    publication_count: int
    journal_count: int
    field_count: int
    retained_by_window: Mapping[str, int]
    dropped_by_window: Mapping[str, int]
    unassigned_by_window: Mapping[str, tuple[str, ...]]


def _load_inputs(config: RunConfig, windows: Sequence[TimeWindow], keep_ids: bool
                 ) -> tuple[Publications, dict[str, Quartiles], Taxonomy]:
    """Parse the publications, journals and taxonomy files, once per run,
    keeping of the first two only the records and quartiles of years inside
    one of ``windows``, the windows the command ranks, and the records' ids
    only under ``keep_ids``. Then check that every record, in any window or
    none, names a journal of the journals file.

    The two parses are the two indices of ``fork_shares``: the
    publications, index 0, are parsed in this process and stay here (a round
    trip of the records cost more than their parse, and marshal refuses a
    NamedTuple), and the journals file in a forked child
    (``_journals_in_windows``). Each load checks every row of its file,
    in a window or not. A fault is the one a one-process run raises: the
    publications', then the journals', then the taxonomy's, then the first
    record in file order that names an unknown journal.
    """
    years = window_years(windows)
    loads = (partial(load_publications, config.publications, config.publications_format,
                     years, keep_ids),
             partial(_journals_in_windows, config.journals, years))
    publications, journals = fork_shares((1, 1), lambda i: loads[i]())
    taxonomy = load_taxonomy(config.taxonomy)
    for journal_id, record_id in publications.first_records.items():
        if journal_id not in journals:
            raise InputError(
                f"record {record_id!r} references unknown journal {journal_id!r}")
    return publications, journals, taxonomy


def _journals_in_windows(path: Path, years: frozenset[int]
                         ) -> dict[str, dict[str, dict[int, int]]]:
    """The journals file, every row checked, with only the quartiles of
    ``years``: a quartile is looked up only for a record in a window, and so
    only for a year in one. Every journal and category is kept, so the
    journal count and the unknown-journal check see them all.

    The (journal, category) pairs with the same quartiles in ``years`` share
    one year map, which no caller changes. Marshal sends a map held more
    than once as one object, so the sharing survives the trip back from a
    forked child."""
    journals = load_journals(path)
    shared: dict[tuple[tuple[int, int], ...], dict[int, int]] = {}
    for by_cat in journals.values():
        for cat, by_year in by_cat.items():
            series = tuple(sorted((year, q) for year, q in by_year.items() if year in years))
            kept = shared.get(series)
            if kept is None:
                # A new dict, sized to its years: deleting keys would not shrink one.
                kept = shared[series] = dict(series)
            by_cat[cat] = kept
    return journals


def run_validate(config: RunConfig) -> ValidationReport:
    """Run all loaders and count each window's records; raise on hard errors."""
    config.validate()
    publications, journals, taxonomy = _load_inputs(config, config.windows, keep_ids=True)
    _check_field_stems(taxonomy)
    external = ({} if config.external_rankings is None
                else load_external_rankings(config.external_rankings))
    if config.national_rankings is not None:
        _supplied_national_tables(config, load_external_rankings(config.national_rankings))
    if config.crosswalk is not None:
        _load_crosswalks(config, external)
    # Whether each journal's records belong to no field.
    fieldless = {journal_id: not fields_of_journal(journal, taxonomy)
                 for journal_id, journal in journals.items()}
    retained: dict[str, int] = {}
    dropped: dict[str, int] = {}
    unassigned: dict[str, tuple[str, ...]] = {}
    for window in config.windows:
        kept = 0
        ids: list[str] = []
        for rec, record_id in zip(publications.records, publications.ids, strict=True):
            if rec.year in window:
                kept += 1
                if fieldless[rec.journal_id]:
                    ids.append(record_id)
        retained[str(window)] = kept
        dropped[str(window)] = publications.rows - kept
        unassigned[str(window)] = tuple(sorted(ids))
    return ValidationReport(
        publication_count=publications.rows,
        journal_count=len(journals),
        field_count=len(taxonomy),
        retained_by_window=retained,
        dropped_by_window=dropped,
        unassigned_by_window=unassigned,
    )


def compute_field_results(window: TimeWindow,
                          publications: Sequence[PublicationRecord],
                          journals: Mapping[str, Quartiles], taxonomy: Taxonomy,
                          each: Callable[[str, Corpus], _T]) -> dict[str, _T]:
    """``each(name, field corpus)`` for every non-empty field in ``window``, by
    field name in name order, from the files the caller parsed once per run.

    The records are bucketed by field once, in this process; then
    ``fork_shares`` spreads the fields over the usable CPUs, and each value
    comes back from the process that computed it, so it must be plain data
    that ``marshal`` takes. ``each`` should drop what it does not return, so that
    one field's results are alive at a time in each process. The buckets go
    on return.
    """
    corpus = build_corpus(publications, journals, window)
    assignment = assign_fields(corpus, taxonomy)
    names = [name for name in sorted(taxonomy) if assignment.records_by_field[name]]
    weights = [len(assignment.records_by_field[name]) for name in names]
    with _rare_full_collections():
        values = fork_shares(
            weights, lambda i: each(names[i], field_corpus(corpus, assignment, names[i])))
    return dict(zip(names, values))


@contextmanager
def _rare_full_collections() -> Iterator[None]:
    """Run the block with the cycle collector's third threshold raised a
    hundredfold, for a per-field loop."""
    # Each field's results outlive the young collections until they are
    # written or dropped, and so keep triggering full collections, each of which
    # traverses every loaded record. The loop builds no reference cycles for
    # them to free: at 1M records they took about a third of rank's CPU time.
    # A hundredfold third threshold leaves a few in the loop, not dozens.
    thresholds = gc.get_threshold()
    gc.set_threshold(thresholds[0], thresholds[1], thresholds[2] * 100)
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)


def _field_scores(config: RunConfig, taxonomy: Taxonomy, name: str, fc: Corpus
                  ) -> tuple[dict[str, IndicatorSet], dict[str, IndexScore], int]:
    """The indicators, the index scores and the quartile-miss count of one
    non-empty field."""
    indicators, misses = compute_indicators(fc, top10_threshold(fc), taxonomy[name],
                                            config.q1_policy, config.missing_quartile)
    return indicators, score_field(indicators), misses


def _field_table(config: RunConfig, taxonomy: Taxonomy, name: str,
                 fc: Corpus) -> tuple[Columns, int]:
    """One non-empty field's ranking table, as columns, and its quartile-miss
    count; its other results are dropped."""
    scores, misses = _field_scores(config, taxonomy, name, fc)[1:]
    return build_ranking(scores, config.national_system, name).columns(), misses


def _warn_quartile_misses(window: TimeWindow, misses: Mapping[str, int]) -> None:
    """One warning per field with misses, in the order of ``misses``. Only the
    parent logs, so stderr does not depend on how the fields were spread."""
    for name, count in misses.items():
        if count:
            _quartile_log.warning(
                "field %r: %d quartile lookup(s) missing in window %s, counted as not-Q1",
                name, count, window)


def _output_paths(config: RunConfig, window: TimeWindow, name: str) -> tuple[Path, ...]:
    """The ranking, quadrants and indicators files of field ``name`` in ``window``."""
    stem = f"{slugify(name)}_{window.label}"
    return tuple(config.out_dir / f"{stem}_{kind}.csv"
                 for kind in ("ranking", "quadrants", "indicators"))


def _write_field(config: RunConfig, taxonomy: Taxonomy, window: TimeWindow,
                 header: str, name: str, fc: Corpus) -> int:
    """Compute one non-empty field's results and write its ranking, quadrants
    and indicators files, and return its quartile-miss count; the results
    are dropped on return."""
    indicators, scores, misses = _field_scores(config, taxonomy, name, fc)
    table = build_ranking(scores, config.national_system, name)
    mean_qnif, mean_qlif, labels = classify_quadrants(scores)
    means = "%.6f,%.6f" % (mean_qnif, mean_qlif)
    outputs = (
        ("system_name,field_name,institution_id,rank,ifq2a",
         "%s,%s,%s,%d,%.6f\n",
         zip(repeat(table.system_name), repeat(name), table.ids, table.ranks, table.scores)),
        ("field_name,institution_id,qnif,qlif,ifq2a,quadrant,mean_qnif,mean_qlif",
         "%s,%s,%.6f,%.6f,%.6f,%s,%s\n",
         ((name, *scores[inst], labels[inst], means) for inst in sorted(scores))),
        ("field_name,institution_id,ndoc,ncit,h,pct_q1,acit,topcit",
         "%s,%s,%d,%d,%d,%.6f,%.6f,%.6f\n",
         ((name, *indicators[inst]) for inst in sorted(indicators))),
    )
    for path, (columns, row_format, rows) in zip(_output_paths(config, window, name), outputs):
        _write_csv(path, header, columns, row_format, rows)
    return misses


def run_rank(config: RunConfig) -> list[Path]:
    """Write per-field ranking, quadrant scatter, and indicator files.

    One output set per configured window, suffixed by window length (w5,
    w10, ...). Returns the written paths in deterministic order.
    """
    config.validate()
    publications, journals, taxonomy = _load_inputs(config, config.windows, keep_ids=False)
    _check_field_stems(taxonomy)
    written: list[Path] = []
    for window in config.windows:
        misses = compute_field_results(
            window, publications.records, journals, taxonomy,
            partial(_write_field, config, taxonomy, window, _header(config, window)))
        _warn_quartile_misses(window, misses)
        written += [path for name in misses for path in _output_paths(config, window, name)]
    return written


def _supplied_national_tables(config: RunConfig,
                              tables: Mapping[tuple[str, str], RankingTable]
                              ) -> dict[str, RankingTable]:
    """The national system's tables by field, from the loaded national file:
    those of ``config.national_system``, or of the file's only system."""
    systems = {system for system, _ in tables}
    if not systems:
        raise InputError("national rankings file has no rows")
    if config.national_system in systems:
        chosen = config.national_system
    elif len(systems) == 1:
        chosen = next(iter(systems))
    else:
        raise ConfigError(
            f"national rankings file holds systems {sorted(systems)}; "
            f"none match national_system={config.national_system!r}"
        )
    return {f: t for (s, f), t in tables.items() if s == chosen}


def _national_file_columns(config: RunConfig) -> dict[str, Columns]:
    """The national file's tables (``_supplied_national_tables``), as columns."""
    tables = _supplied_national_tables(config, load_external_rankings(config.national_rankings))
    return {field: table.columns() for field, table in tables.items()}


def _national_tables(config: RunConfig) -> dict[str, RankingTable]:
    """Without a national file: the tables of ranking the first window, its
    fields spread over the usable CPUs as ``rank`` spreads them. Only that
    window's records and quartiles are kept."""
    publications, journals, taxonomy = _load_inputs(config, config.windows[:1], keep_ids=False)
    results = compute_field_results(config.windows[0], publications.records, journals,
                                    taxonomy, partial(_field_table, config, taxonomy))
    if not results:
        raise InputError("no non-empty fields to build national tables from")
    _warn_quartile_misses(config.windows[0],
                          {name: misses for name, (_, misses) in results.items()})
    return {name: RankingTable(*columns) for name, (columns, _) in results.items()}


def _write_concordance(config: RunConfig, header: str,
                       tables: Mapping[str, Mapping[str, RankingTable]],
                       stem: str, cw: FieldCrosswalk) -> None:
    """Compare one crosswalk system pair and write its report."""
    report = run_crosswalk(
        cw, tables[cw.source_system], tables[cw.target_system],
        min_n=config.min_n, missing_national=config.missing_national,
    )
    num, den, (mean_num, mean_den) = aggregate_agreement(report.pairs)
    _write_csv(
        config.out_dir / f"concordance_{stem}.csv",
        f"{header}# systems={cw.source_system}->{cw.target_system}\n",
        "source_field,target_field,n,rho,agreement_num,agreement_den,agreement_decimal",
        "%s,%s,%d,%s,%d,%d,%.6f\n",
        ((src, tgt, n, "*" if rho is None else "%.3f" % rho, a_num, a_den,
          agreement_decimal(a_num, a_den))
         for src, tgt, n, rho, a_num, a_den in report.pairs),
        trailer=(f"# pooled_agreement={num}/{den} decimal={agreement_decimal(num, den):.6f}",
                 f"# mean_of_fractions={mean_num}/{mean_den} decimal={mean_num / mean_den:.6f}",
                 *(f"# unresolved={src}->{tgt}" for src, tgt in report.unresolved)),
    )


def run_compare(config: RunConfig) -> list[Path]:
    """Write one concordance report per crosswalk system pair.

    Each side of a pair is looked up by system name: ``national_system``
    always names the national tables, and any other name the external
    tables of that system. Every external table is restricted once to the
    national system's institutions before any pair is compared.

    With a national file, the two parses are the two indices of
    ``fork_shares``: the external rankings and the crosswalk in this
    process, the national file in a forked child, whose tables come back as
    columns, the file's system name kept. A fault is the one a one-process
    run raises, in that order: external rankings, crosswalk, national file.
    The system pairs are then spread over the usable CPUs by
    ``fork_shares``, weighted by their field pairs.
    """
    config.validate()
    if config.external_rankings is None or config.crosswalk is None:
        raise ConfigError("compare requires external_rankings and crosswalk paths")

    def load_external() -> tuple[dict[tuple[str, str], RankingTable],
                                 list[tuple[str, FieldCrosswalk]]]:
        external = load_external_rankings(config.external_rankings)
        return external, _load_crosswalks(config, external)

    if config.national_rankings is None:
        external, crosswalks = load_external()
        natl_tables = _national_tables(config)
    else:
        loads = (load_external, partial(_national_file_columns, config))
        (external, crosswalks), national = fork_shares((1, 1), lambda i: loads[i]())
        natl_tables = {field: RankingTable(*c) for field, c in national.items()}
    system_set = set().union(*(t.ids for t in natl_tables.values()))
    tables: dict[str, dict[str, RankingTable]] = {}
    for (system, field), table in external.items():
        tables.setdefault(system, {})[field] = restrict_to_system(table, system_set)
    tables[config.national_system] = natl_tables
    header = _header(config)
    fork_shares([len(cw.pairs) for _, cw in crosswalks],
                 lambda i: _write_concordance(config, header, tables, *crosswalks[i]))
    return [config.out_dir / f"concordance_{stem}.csv" for stem, _ in crosswalks]
