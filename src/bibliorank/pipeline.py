"""End-to-end runs: validate inputs, build per-field rankings, compare
ranking systems. All file outputs are deterministic: identical inputs and
configuration produce byte-identical files, and every output carries a
comment header with the tool version, config hash, and policy choices.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import __version__
from .concordance import (
    MISSING_NATIONAL_POLICIES,
    FieldCrosswalk,
    aggregate_agreement,
    agreement_decimal,
    load_crosswalk,
    run_crosswalk,
)
from .corpus import (
    PUBLICATION_FORMATS,
    YEAR_MAX,
    YEAR_MIN,
    Corpus,
    PublicationRecord,
    Quartiles,
    TimeWindow,
    build_corpus,
    load_journals,
    load_publications,
)
from .errors import ConfigError, InputError
from .indicators import (
    MISSING_QUARTILE_POLICIES,
    Q1_POLICIES,
    IndicatorSet,
    compute_indicators,
    top10_threshold,
)
from .ranking import RankingTable, build_ranking, load_external_rankings, restrict_to_system
from .scoring import IndexScore, classify_quadrants, score_field
from .taxonomy import Taxonomy, assign_fields, field_corpus, load_taxonomy


@dataclass(frozen=True)
class RunConfig:
    publications: Path
    journals: Path
    taxonomy: Path
    windows: tuple[TimeWindow, ...]
    out_dir: Path
    external_rankings: Path | None = None
    national_rankings: Path | None = None
    crosswalk: Path | None = None
    publications_format: str = "csv"
    q1_policy: str = "any-relevant"
    missing_quartile: str = "warn"
    missing_national: str = "warn"
    min_n: int = 3
    national_system: str = "national"

    def validate(self) -> None:
        if self.publications_format not in PUBLICATION_FORMATS:
            raise ConfigError(f"publications_format must be one of {PUBLICATION_FORMATS}")
        if self.q1_policy not in Q1_POLICIES:
            raise ConfigError(f"q1_policy must be one of {Q1_POLICIES}")
        if self.missing_quartile not in MISSING_QUARTILE_POLICIES:
            raise ConfigError(
                f"missing_quartile must be one of {MISSING_QUARTILE_POLICIES}"
            )
        if self.missing_national not in MISSING_NATIONAL_POLICIES:
            raise ConfigError(f"missing_national must be one of {MISSING_NATIONAL_POLICIES}")
        if self.min_n < 2:
            raise ConfigError("min_n must be >= 2")
        if not self.windows:
            raise ConfigError("at least one window is required")
        # run_rank names each window's files by its label, so two windows
        # of one length would overwrite each other's files.
        by_label: dict[str, TimeWindow] = {}
        for window in self.windows:
            if not (YEAR_MIN <= window.start_year and window.end_year <= YEAR_MAX):
                raise ConfigError(
                    f"window {window} outside year range [{YEAR_MIN}, {YEAR_MAX}]"
                )
            first = by_label.setdefault(window.label, window)
            if first is not window:
                raise ConfigError(
                    f"windows {first} and {window} share the output label {window.label!r}"
                )
        for p in (self.publications, self.journals, self.taxonomy,
                  self.external_rankings, self.national_rankings, self.crosswalk):
            # Unlike Path.is_file, os.path.isfile is False for a name too long.
            if p is not None and not os.path.isfile(p):
                raise ConfigError(f"input is not an existing file: {p}")

    def digest(self) -> str:
        payload = {
            "publications": str(self.publications),
            "journals": str(self.journals),
            "taxonomy": str(self.taxonomy),
            "windows": [[w.start_year, w.end_year] for w in self.windows],
            "external_rankings": str(self.external_rankings or ""),
            "national_rankings": str(self.national_rankings or ""),
            "crosswalk": str(self.crosswalk or ""),
            "publications_format": self.publications_format,
            "q1_policy": self.q1_policy,
            "missing_quartile": self.missing_quartile,
            "missing_national": self.missing_national,
            "min_n": self.min_n,
            "national_system": self.national_system,
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


def parse_window(text: str) -> TimeWindow:
    m = re.match(r"^(\d{4}):(\d{4})$", text.strip())
    if m is None:
        raise ConfigError(f"window must look like START:END, got {text!r}")
    return TimeWindow(int(m.group(1)), int(m.group(2)))


def load_config(path: str | Path) -> RunConfig:
    """Load a JSON run configuration; relative paths resolve against the file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    # ValueError covers undecodable bytes, invalid JSON and an integer of
    # more than 4,300 digits; RecursionError a value nested too deeply.
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object, got {type(raw).__name__}")
    base = path.parent

    def _str(key: str) -> str:
        value = raw[key]
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
        return value

    def _resolve(key: str) -> Path:
        try:
            return (base / _str(key)).resolve()
        except ValueError as exc:  # a NUL byte
            raise ConfigError(f"{key} is not a usable path: {exc}") from None

    def _path(key: str, required: bool = False) -> Path | None:
        """The path at ``key``; null or absent is allowed only where not required."""
        if raw.get(key) is None:
            if required:
                raise ConfigError(f"config is missing required key {key!r}")
            return None
        return _resolve(key)

    def _int(value, what: str) -> int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{what} must be an integer, got {value!r}")
        return value

    pairs = raw.get("windows", [])
    if not isinstance(pairs, list):
        raise ConfigError(f"windows must be a list of [start, end] pairs, got {pairs!r}")
    windows = []
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError(f"each window must be [start, end], got {pair!r}")
        windows.append(TimeWindow(_int(pair[0], "window year"), _int(pair[1], "window year")))

    # A key the file leaves out keeps RunConfig's default; null is a fault.
    settings = {key: _str(key) for key in ("publications_format", "q1_policy", "missing_quartile",
                                           "missing_national", "national_system") if key in raw}
    if "min_n" in raw:
        settings["min_n"] = _int(raw["min_n"], "min_n")
    return RunConfig(
        publications=_path("publications", required=True),
        journals=_path("journals", required=True),
        taxonomy=_path("taxonomy", required=True),
        windows=tuple(windows),
        out_dir=_resolve("out_dir") if "out_dir" in raw else (base / "out").resolve(),
        external_rankings=_path("external_rankings"),
        national_rankings=_path("national_rankings"),
        crosswalk=_path("crosswalk"),
        **settings,
    )


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


@dataclass(frozen=True)
class FieldResult:
    """Everything computed for one (field, window)."""

    field_name: str
    indicators: Mapping[str, IndicatorSet]
    scores: Mapping[str, IndexScore]
    quadrants: tuple[float, float, Mapping[str, str]]  # as classify_quadrants returns
    table: RankingTable


@dataclass(frozen=True)
class ValidationReport:
    publication_count: int
    journal_count: int
    field_count: int
    retained_by_window: Mapping[str, int]
    dropped_by_window: Mapping[str, int]
    unassigned_by_window: Mapping[str, tuple[str, ...]]


def _load_inputs(config: RunConfig) -> tuple[list[PublicationRecord],
                                             dict[str, Quartiles], Taxonomy]:
    """Parse the publications, journals and taxonomy files, once per run,
    then check that every record, in any window or none, names a journal of
    the journals file."""
    publications = load_publications(config.publications, config.publications_format)
    journals = load_journals(config.journals)
    taxonomy = load_taxonomy(config.taxonomy)
    for rec in publications:
        if rec.journal_id not in journals:
            raise InputError(
                f"record {rec.record_id!r} references unknown journal {rec.journal_id!r}")
    return publications, journals, taxonomy


def run_validate(config: RunConfig) -> ValidationReport:
    """Run all loaders and per-window corpus builds; raise on hard errors."""
    config.validate()
    publications, journals, taxonomy = _load_inputs(config)
    _check_field_stems(taxonomy)
    external = ({} if config.external_rankings is None
                else load_external_rankings(config.external_rankings))
    if config.national_rankings is not None:
        _supplied_national_tables(config, load_external_rankings(config.national_rankings))
    if config.crosswalk is not None:
        _load_crosswalks(config, external)
    retained: dict[str, int] = {}
    dropped: dict[str, int] = {}
    unassigned: dict[str, tuple[str, ...]] = {}
    for window in config.windows:
        corpus = build_corpus(publications, journals, window)
        assignment = assign_fields(corpus, taxonomy)
        retained[str(window)] = len(corpus)
        dropped[str(window)] = len(publications) - len(corpus)
        unassigned[str(window)] = assignment.unassigned
    return ValidationReport(
        publication_count=len(publications),
        journal_count=len(journals),
        field_count=len(taxonomy),
        retained_by_window=retained,
        dropped_by_window=dropped,
        unassigned_by_window=unassigned,
    )


def compute_field_results(config: RunConfig, window: TimeWindow,
                          publications: Sequence[PublicationRecord],
                          journals: Mapping[str, Quartiles],
                          taxonomy: Taxonomy) -> dict[str, RankingTable]:
    """The ranking table of each non-empty field in ``window``, by field name
    in name order, from the files the caller parsed once per run.

    Each field's other results are dropped as soon as its table is kept, so
    one field's results are alive at a time.
    """
    corpus = build_corpus(publications, journals, window)
    assignment = assign_fields(corpus, taxonomy)
    tables: dict[str, RankingTable] = {}
    with _rare_full_collections():
        for name in sorted(taxonomy):
            fc = field_corpus(corpus, assignment, name)
            if len(fc) > 0:
                tables[name] = _field_result(config, taxonomy, fc, name).table
    return tables


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


def _field_result(config: RunConfig, taxonomy: Taxonomy, fc: Corpus,
                  name: str) -> FieldResult:
    indicators = compute_indicators(
        fc, top10_threshold(fc),
        field_categories=taxonomy[name],
        q1_policy=config.q1_policy,
        missing_quartile=config.missing_quartile,
        field_name=name,
    )
    scores = score_field(indicators)
    return FieldResult(
        field_name=name,
        indicators=indicators,
        scores=scores,
        quadrants=classify_quadrants(scores),
        table=build_ranking(scores, config.national_system, name),
    )


def _field_outputs(result: FieldResult) -> tuple[tuple[str, str, Iterator[tuple]], ...]:
    """Each output file of one field, in ``_output_paths`` order: (column
    line, row format, iterator of row tuples)."""
    name, table = result.field_name, result.table
    scores, indicators = result.scores, result.indicators
    mean_qnif, mean_qlif, labels = result.quadrants
    means = "%.6f,%.6f" % (mean_qnif, mean_qlif)
    return (
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


def _output_paths(config: RunConfig, window: TimeWindow, name: str) -> tuple[Path, ...]:
    """The ranking, quadrants and indicators files of field ``name`` in ``window``."""
    stem = f"{slugify(name)}_{window.label}"
    return tuple(config.out_dir / f"{stem}_{kind}.csv"
                 for kind in ("ranking", "quadrants", "indicators"))


def _write_field(config: RunConfig, taxonomy: Taxonomy, window: TimeWindow,
                 header: str, fc: Corpus, name: str) -> None:
    """Compute one non-empty field's results and write its files; the results
    are dropped on return."""
    result = _field_result(config, taxonomy, fc, name)
    for path, (columns, row_format, rows) in zip(_output_paths(config, window, name),
                                                 _field_outputs(result)):
        _write_csv(path, header, columns, row_format, rows)


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _split(weights: Sequence[int], k: int) -> list[list[int]]:
    """The indices of ``weights`` in ``k`` shares of near-equal total weight.

    Heaviest first, each index joins the lightest share (the first of equals).
    Each share lists its indices in ascending order.
    """
    shares: list[list[int]] = [[] for _ in range(k)]
    loads = [0] * k
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):
        lightest = loads.index(min(loads))
        shares[lightest].append(i)
        loads[lightest] += weights[i]
    return [sorted(share) for share in shares]


_Fault = tuple[int, Exception]  # (index, what run(index) raised)


def _run_share(share: Sequence[int], run: Callable[[int], None]) -> _Fault | None:
    """Call ``run(i)`` for each index of ``share`` in order; the first to
    raise ends the share, and its fault is returned."""
    for i in share:
        try:
            run(i)
        except Exception as exc:  # kept until every share has ended
            return i, exc
    return None


def _reap(pid: int, read_fd: int, first: int) -> _Fault | None:
    """Read a child's fault pipe to its end and wait for the child, whose
    share starts at index ``first``."""
    try:
        with open(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    if data:
        import pickle  # only a fault loads it

        return pickle.loads(data)
    if status:
        return first, RuntimeError(f"a forked child ended with wait status {status}")
    return None


def _fork_shares(weights: Sequence[int], run: Callable[[int], None]) -> None:
    """Call ``run(i)`` once for each index of ``weights``, split over the
    usable CPUs: ``_split`` makes one share per CPU (no more than there are
    indices), the first share runs in this process and each other one in a
    child made by ``os.fork``. A child shares this process's memory
    copy-on-write and is always reaped before this function returns or raises.

    A share stops at its first fault. If any share failed, the fault of the
    lowest index is raised, so the error is the one a single process running
    the indices in order would raise.
    """
    # Forking a process that runs threads can leave a lock held for ever in
    # the child, so such a process runs every index itself.
    k = 1 if threading.active_count() > 1 else max(1, min(_usable_cpus(), len(weights)))
    shares = _split(weights, k)
    children: list[tuple[int, int, int]] = []  # pid, its fault pipe's read end, first index
    faults: list[_Fault | None] = []
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child(share, run, read_fd, write_fd)
            os.close(write_fd)
            children.append((pid, read_fd, share[0]))
        faults.append(_run_share(shares[0], run))
    finally:
        faults += [_reap(*child) for child in children]
    first = min(filter(None, faults), key=itemgetter(0), default=None)
    del faults
    if first is not None:
        try:
            raise first[1]
        finally:
            # The traceback holds this frame: no local may hold the fault,
            # or the two would keep each other alive until a full collection.
            del first


def _child(share: Sequence[int], run: Callable[[int], None], read_fd: int,
           write_fd: int) -> None:
    """Run ``share`` in a forked child, write its fault, if any, to
    ``write_fd`` pickled, and end the process. Never returns, so the child
    never unwinds into its caller's stack. Exit status 0 means the share ran
    to its end or to a fault that was written."""
    status = 1
    try:
        os.close(read_fd)
        fault = _run_share(share, run)
        if fault is not None:
            import pickle

            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(fault))
        status = 0
    finally:
        os._exit(status)


def run_rank(config: RunConfig) -> list[Path]:
    """Write per-field ranking, quadrant scatter, and indicator files.

    One output set per configured window, suffixed by window length (w5,
    w10, ...). Returns the written paths in deterministic order.
    """
    config.validate()
    publications, journals, taxonomy = _load_inputs(config)
    _check_field_stems(taxonomy)
    written: list[Path] = []
    for window in config.windows:
        written += _rank_window(config, window, publications, journals, taxonomy)
    return written


def _rank_window(config: RunConfig, window: TimeWindow,
                 publications: Sequence[PublicationRecord],
                 journals: Mapping[str, Quartiles],
                 taxonomy: Taxonomy) -> list[Path]:
    """Write the files of every non-empty field in ``window``; return their paths.

    The records are bucketed by field once, in this process; then
    ``_fork_shares`` spreads the fields over the usable CPUs. Each process
    keeps one field's results alive at a time. The buckets go on return,
    before the next window's are built.
    """
    header = _header(config, window)
    corpus = build_corpus(publications, journals, window)
    assignment = assign_fields(corpus, taxonomy)
    names = [name for name in sorted(taxonomy) if assignment.records_by_field[name]]
    with _rare_full_collections():
        _fork_shares([len(assignment.records_by_field[name]) for name in names],
                     lambda i: _write_field(config, taxonomy, window, header,
                                            field_corpus(corpus, assignment, names[i]),
                                            names[i]))
    return [path for name in names for path in _output_paths(config, window, name)]


def _supplied_national_tables(config: RunConfig,
                              tables: Mapping[tuple[str, str], RankingTable]
                              ) -> dict[str, RankingTable]:
    """The national system's tables by field, from the loaded national file:
    those of ``config.national_system``, or of the file's only system."""
    systems = {system for system, _ in tables}
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


def _national_tables(config: RunConfig) -> dict[str, RankingTable]:
    if config.national_rankings is not None:
        return _supplied_national_tables(config, load_external_rankings(config.national_rankings))
    # No supplied national tables: rank internally over the first window.
    tables = compute_field_results(config, config.windows[0], *_load_inputs(config))
    if not tables:
        raise InputError("no non-empty fields to build national tables from")
    return tables


def run_compare(config: RunConfig) -> list[Path]:
    """Write one concordance report per crosswalk system pair.

    Each side of a pair is looked up by system name: ``national_system``
    always names the national tables, and any other name the external
    tables of that system. Every external table is restricted once to the
    national system's institutions before any pair is compared.
    """
    config.validate()
    if config.external_rankings is None or config.crosswalk is None:
        raise ConfigError("compare requires external_rankings and crosswalk paths")
    external = load_external_rankings(config.external_rankings)
    crosswalks = _load_crosswalks(config, external)
    natl_tables = _national_tables(config)
    system_set = set().union(*(t.ids for t in natl_tables.values()))
    tables: dict[str, dict[str, RankingTable]] = {}
    for (system, field), table in external.items():
        tables.setdefault(system, {})[field] = restrict_to_system(table, system_set)
    tables[config.national_system] = natl_tables
    header = _header(config)
    written: list[Path] = []
    for stem, cw in crosswalks:
        report = run_crosswalk(
            cw, tables[cw.source_system], tables[cw.target_system],
            min_n=config.min_n, missing_national=config.missing_national,
        )
        num, den, mean = aggregate_agreement(report.pairs)
        path = config.out_dir / f"concordance_{stem}.csv"
        _write_csv(
            path, f"{header}# systems={cw.source_system}->{cw.target_system}\n",
            "source_field,target_field,n,rho,agreement_num,agreement_den,agreement_decimal",
            "%s,%s,%d,%s,%d,%d,%.6f\n",
            ((src, tgt, n, "*" if rho is None else "%.3f" % rho, a_num, a_den,
              agreement_decimal(a_num, a_den))
             for src, tgt, n, rho, a_num, a_den in report.pairs),
            trailer=(f"# pooled_agreement={num}/{den} decimal={agreement_decimal(num, den):.6f}",
                     f"# mean_of_fractions={mean.numerator}/{mean.denominator} "
                     f"decimal={float(mean):.6f}",
                     *(f"# unresolved={src}->{tgt}" for src, tgt in report.unresolved)),
        )
        written.append(path)
    return written
