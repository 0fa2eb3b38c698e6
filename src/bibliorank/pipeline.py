"""End-to-end runs: validate inputs, build per-field rankings, compare
ranking systems. All file outputs are deterministic: identical inputs and
configuration produce byte-identical files, and every output carries a
comment header with the tool version, config hash, and policy choices.
"""

from __future__ import annotations

import gc
import hashlib
import json
import marshal
import os
import re
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NoReturn, Sequence, TypeVar

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

_T = TypeVar("_T")
_U = TypeVar("_U")


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
    the journals file.

    The journals file is parsed in a forked child while this process parses
    the publications (``_side_by_side``). The records stay here: a pickled
    round trip of 48k of them cost more than their parse. A fault is the one
    a one-process run raises: the publications', then the journals', then
    the taxonomy's.
    """
    publications, journals = _side_by_side(
        lambda: load_journals(config.journals),
        lambda: load_publications(config.publications, config.publications_format))
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


def compute_field_results(window: TimeWindow,
                          publications: Sequence[PublicationRecord],
                          journals: Mapping[str, Quartiles], taxonomy: Taxonomy,
                          each: Callable[[str, Corpus], _T]) -> dict[str, _T]:
    """``each(name, field corpus)`` for every non-empty field in ``window``, by
    field name in name order, from the files the caller parsed once per run.

    The records are bucketed by field once, in this process; then
    ``_fork_shares`` spreads the fields over the usable CPUs, and each value
    comes back from the process that computed it, so it must be plain data
    (``_fork_call``). ``each`` should drop what it does not return, so that
    one field's results are alive at a time in each process. The buckets go
    on return.
    """
    corpus = build_corpus(publications, journals, window)
    assignment = assign_fields(corpus, taxonomy)
    names = [name for name in sorted(taxonomy) if assignment.records_by_field[name]]
    weights = [len(assignment.records_by_field[name]) for name in names]
    with _rare_full_collections():
        values = _fork_shares(
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


def _field_scores(config: RunConfig, taxonomy: Taxonomy, name: str,
                  fc: Corpus) -> tuple[dict[str, IndicatorSet], dict[str, IndexScore]]:
    """The indicators and the index scores of one non-empty field."""
    indicators = compute_indicators(
        fc, top10_threshold(fc),
        field_categories=taxonomy[name],
        q1_policy=config.q1_policy,
        missing_quartile=config.missing_quartile,
        field_name=name,
    )
    return indicators, score_field(indicators)


# A ranking table as plain data, to cross from a forked child: its fields in
# order, so that RankingTable(*columns) rebuilds it.
_Columns = tuple[str, str, tuple[str, ...], tuple[float, ...], tuple[float, ...]]


def _columns(table: RankingTable) -> _Columns:
    return table.system_name, table.field_name, table.ids, table.ranks, table.scores


def _field_table(config: RunConfig, taxonomy: Taxonomy, name: str, fc: Corpus) -> _Columns:
    """One non-empty field's ranking table, as columns; its other results
    are dropped."""
    return _columns(build_ranking(_field_scores(config, taxonomy, name, fc)[1],
                                  config.national_system, name))


def _output_paths(config: RunConfig, window: TimeWindow, name: str) -> tuple[Path, ...]:
    """The ranking, quadrants and indicators files of field ``name`` in ``window``."""
    stem = f"{slugify(name)}_{window.label}"
    return tuple(config.out_dir / f"{stem}_{kind}.csv"
                 for kind in ("ranking", "quadrants", "indicators"))


def _write_field(config: RunConfig, taxonomy: Taxonomy, window: TimeWindow,
                 header: str, name: str, fc: Corpus) -> None:
    """Compute one non-empty field's results and write its ranking, quadrants
    and indicators files; the results are dropped on return."""
    indicators, scores = _field_scores(config, taxonomy, name, fc)
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


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _fork_cpus() -> int:
    """How many processes a fork point may keep busy: the usable CPUs, or 1
    while another thread runs, since forking a process that runs threads can
    leave a lock held for ever in the child."""
    return 1 if threading.active_count() > 1 else _usable_cpus()


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


def _fork_call(fn: Callable[[], _T]) -> Callable[..., _T]:
    """Start ``fn()`` in a child made by ``os.fork`` and return its waiter,
    to be called once.

    ``wait()`` reaps the child, then returns ``fn``'s value or raises what
    ``fn`` raised; a child that ends without reporting either is a
    RuntimeError naming its wait status. ``wait(discard=True)`` reaps the
    child and drops its report. The child shares this process's memory
    copy-on-write and reports through a pipe (``_child``), so the value must
    be plain data that ``marshal`` takes: any other value is marshal's
    ValueError, raised here. Where ``_fork_cpus()`` is 1 no child is made:
    ``wait()`` calls ``fn`` in this process and ``wait(discard=True)`` does
    not call it, which is the one-process run.
    """
    if _fork_cpus() < 2:
        return lambda discard=False: None if discard else fn()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        _child(fn, read_fd, write_fd)
    os.close(write_fd)

    def wait(discard: bool = False):
        try:
            # Closed before the wait: a child still writing then fails and ends.
            with open(read_fd, "rb") as pipe:
                report = b"" if discard else pipe.read()
        finally:
            status = os.waitpid(pid, 0)[1]
        if discard:
            return None
        if status != 0 or not report:  # no report, or one cut short
            raise RuntimeError(f"a forked child ended with wait status {status}")
        if report[:1] == _VALUE:
            return marshal.loads(memoryview(report)[1:])
        fault = _pickle_core().loads(memoryview(report)[1:])
        try:
            raise fault
        finally:
            # The traceback holds this frame: no local may hold the fault,
            # or the two would keep each other alive until a full collection.
            del fault

    return wait


_VALUE, _FAULT = b"v", b"f"  # the first byte of a child's report


def _child(fn: Callable[[], object], read_fd: int, write_fd: int) -> NoReturn:
    """Run ``fn`` in a forked child, send its report to ``write_fd`` and end
    the process. Never returns, so the child never unwinds into its caller's
    stack. Exit status 0 means the report was sent whole.

    The report is ``_VALUE`` and ``fn``'s value by ``marshal``, or ``_FAULT``
    and what ``fn`` raised, pickled so that its class and attributes (an
    InputError's ``line``) survive. A value that marshal refuses is sent as
    marshal's ValueError. Marshal writes an object held more than once as a
    back-reference, so the loaders' shared years, ranks and ids stay one
    object each in the receiving process.
    """
    status = 1
    try:
        os.close(read_fd)
        try:
            kind, body = _VALUE, marshal.dumps(fn())
        except Exception as exc:
            kind, body = _FAULT, _pickle_core().dumps(exc, -1)  # -1: the highest protocol
        with open(write_fd, "wb") as pipe:
            pipe.write(kind)
            pipe.write(body)
        status = 0
    finally:
        os._exit(status)


def _pickle_core():
    """The pickle module's C core, imported only to send and receive a
    child's fault. The ``pickle`` module around it adds 0.35 MB to the peak
    RSS of a run."""
    try:
        import _pickle as pickle
    except ImportError:  # a Python without the C core
        import pickle
    return pickle


def _side_by_side(there: Callable[[], _T], here: Callable[[], _U]) -> tuple[_U, _T]:
    """``(here(), there())``, with ``there`` run in a forked child
    (``_fork_call``) while this process runs ``here``. If ``here`` raises, the
    child is reaped and its report dropped, so the fault raised is the one of
    a run that calls ``here`` first."""
    wait = _fork_call(there)
    try:
        value = here()
    except BaseException:
        wait(discard=True)
        raise
    return value, wait()


_Fault = tuple[int, Exception]  # (index, what run(index) raised)


class _ShareFault(Exception):
    """A share's first fault: ``args`` is its ``_Fault``."""


def _run_share(share: Sequence[int], run: Callable[[int], _T]) -> list[_T]:
    """``run(i)`` for each index of ``share`` in order; once one raises,
    ``_ShareFault(i, exception)``."""
    values = []
    for i in share:
        try:
            values.append(run(i))
        except Exception as exc:
            raise _ShareFault(i, exc)
    return values


def _fork_shares(weights: Sequence[int], run: Callable[[int], _T]) -> list[_T]:
    """``run(i)`` for each index of ``weights``, in index order, split over
    the processes ``_fork_cpus`` allows: ``_split`` makes one share per
    process (no more than there are indices), the first share runs in this
    process and each other one in a child made by ``_fork_call``, which sends
    back its share's values. Every child is reaped before this function
    returns or raises.

    A share stops at its first fault. If any share failed, every value is
    dropped and the fault of the lowest index is raised, so the error is the
    one a single process running the indices in order would raise.
    """
    shares = _split(weights, max(1, min(_fork_cpus(), len(weights))))
    waits: list[tuple[Sequence[int], Callable[[], list[_T]]]] = []
    by_index: dict[int, _T] = {}
    faults: list[_Fault] = []  # kept until every share has ended

    def collect(share: Sequence[int], values: Callable[[], list[_T]]) -> None:
        try:
            by_index.update(zip(share, values()))
        except _ShareFault as fault:
            faults.append(fault.args)
        except Exception as exc:  # a child that did not report, or sent no plain data
            faults.append((share[0], exc))

    try:
        for share in shares[1:]:
            waits.append((share, _fork_call(partial(_run_share, share, run))))
        collect(shares[0], partial(_run_share, shares[0], run))
    finally:
        for share, wait in waits:
            collect(share, wait)
    if faults:
        by_index.clear()
        first = min(faults, key=itemgetter(0))[1]
        del faults
        try:
            raise first
        finally:
            del first  # as in _fork_call's waiter
    return [by_index[i] for i in range(len(weights))]


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
        names = compute_field_results(
            window, publications, journals, taxonomy,
            partial(_write_field, config, taxonomy, window, _header(config, window)))
        written += [path for name in names for path in _output_paths(config, window, name)]
    return written


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


def _national_file_columns(config: RunConfig) -> dict[str, _Columns]:
    """The national file's tables (``_supplied_national_tables``), as columns."""
    tables = _supplied_national_tables(config, load_external_rankings(config.national_rankings))
    return {field: _columns(table) for field, table in tables.items()}


def _national_tables(config: RunConfig) -> dict[str, RankingTable]:
    """Without a national file: the tables of ranking the first window, its
    fields spread over the usable CPUs as ``rank`` spreads them."""
    publications, journals, taxonomy = _load_inputs(config)
    columns = compute_field_results(config.windows[0], publications, journals, taxonomy,
                                    partial(_field_table, config, taxonomy))
    if not columns:
        raise InputError("no non-empty fields to build national tables from")
    return {name: RankingTable(*c) for name, c in columns.items()}


def _write_concordance(config: RunConfig, header: str,
                       tables: Mapping[str, Mapping[str, RankingTable]],
                       stem: str, cw: FieldCrosswalk) -> None:
    """Compare one crosswalk system pair and write its report."""
    report = run_crosswalk(
        cw, tables[cw.source_system], tables[cw.target_system],
        min_n=config.min_n, missing_national=config.missing_national,
    )
    num, den, mean = aggregate_agreement(report.pairs)
    _write_csv(
        config.out_dir / f"concordance_{stem}.csv",
        f"{header}# systems={cw.source_system}->{cw.target_system}\n",
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


def run_compare(config: RunConfig) -> list[Path]:
    """Write one concordance report per crosswalk system pair.

    Each side of a pair is looked up by system name: ``national_system``
    always names the national tables, and any other name the external
    tables of that system. Every external table is restricted once to the
    national system's institutions before any pair is compared.

    A national file is parsed in a forked child while this process parses
    the external rankings and the crosswalk; its tables come back as
    columns, the file's system name kept. A fault is the one a one-process
    run raises, in that order: external rankings, crosswalk, national file.
    The system pairs are then spread over the usable CPUs by
    ``_fork_shares``, weighted by their field pairs.
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
        (external, crosswalks), national = _side_by_side(
            partial(_national_file_columns, config), load_external)
        natl_tables = {field: RankingTable(*c) for field, c in national.items()}
    system_set = set().union(*(t.ids for t in natl_tables.values()))
    tables: dict[str, dict[str, RankingTable]] = {}
    for (system, field), table in external.items():
        tables.setdefault(system, {})[field] = restrict_to_system(table, system_set)
    tables[config.national_system] = natl_tables
    header = _header(config)
    _fork_shares([len(cw.pairs) for _, cw in crosswalks],
                 lambda i: _write_concordance(config, header, tables, *crosswalks[i]))
    return [config.out_dir / f"concordance_{stem}.csv" for stem, _ in crosswalks]
