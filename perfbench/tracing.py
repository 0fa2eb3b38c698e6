"""Spans and counts around the calls into each bibliorank layer, recorded
from outside the package.

``install`` replaces the names that ``bibliorank.pipeline`` and
``bibliorank.concordance`` look up at call time with wrappers. Each wrapper
records a span (name, start, end, parent) and adds counts at that boundary.
Spans stay in memory; ``layer_metrics`` turns one iteration's spans and
counts into the per-layer metrics.
"""

from __future__ import annotations

import logging
import time
from collections import Counter

# (module, attribute, span name or None for a count-only wrapper,
#  counted names, counter(args, result) -> one value per counted name)
WRAPPED = (
    ("pipeline", "load_publications", "corpus.load_publications", (), None),
    ("pipeline", "load_journals", "corpus.load_journals", (), None),
    ("pipeline", "build_corpus", "corpus.build_corpus",
     ("corpus.records_retained",), lambda a, r: (len(r),)),
    ("pipeline", "load_taxonomy", "taxonomy.load_taxonomy", (), None),
    ("pipeline", "assign_fields", "taxonomy.assign_fields", (), None),
    ("pipeline", "field_corpus", "taxonomy.field_corpus",
     ("taxonomy.field_corpus.scanned", "taxonomy.field_corpus.kept"),
     lambda a, r: (len(a[0]), len(r))),
    ("pipeline", "top10_threshold", "indicators.top10_threshold", (), None),
    ("pipeline", "compute_indicators", "indicators.compute_indicators",
     ("indicators.compute_indicators.records",), lambda a, r: (len(a[0]),)),
    ("pipeline", "score_field", "scoring.score_field", (), None),
    ("pipeline", "classify_quadrants", "scoring.classify_quadrants", (), None),
    ("pipeline", "build_ranking", "ranking.build_ranking", (), None),
    ("pipeline", "load_external_rankings", "ranking.load_external_rankings",
     ("ranking.load_external_rankings.rows",), lambda a, r: (sum(len(t) for t in r.values()),)),
    ("pipeline", "load_crosswalk", "concordance.load_crosswalk", (), None),
    ("pipeline", "run_crosswalk", "concordance.run_crosswalk",
     ("concordance.unresolved",), lambda a, r: (len(r.unresolved),)),
    ("pipeline", "compute_field_results", "pipeline.compute_field_results", (), None),
    # CSV formatting and writes stay in the entry point's self time.
    ("pipeline", "_atomic_write", None,
     ("pipeline.files_written", "pipeline.bytes_written"), lambda a, r: (1, a[0].stat().st_size)),
    ("concordance", "compare_pair", "concordance.compare_pair",
     ("concordance.rho_suppressed",), lambda a, r: (int(r.rho is None),)),
    ("concordance", "spearman_rho", "concordance.spearman_rho", (), None),
    ("concordance", "agreement_level", "concordance.agreement_level", (), None),
)

# Entry points the child calls directly; their self time is pipeline.self_s.
ENTRY_SPANS = ("pipeline.run_rank", "pipeline.run_compare")


class _QuartileMisses(logging.Handler):
    """Sums the miss counts of the per-field warning ``compute_indicators`` logs."""

    def __init__(self, counts: Counter):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        args = record.args if isinstance(record.args, tuple) else ()
        misses = args[1] if len(args) > 1 and isinstance(args[1], int) else 1
        self.counts["indicators.quartile_misses"] += misses


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str | None, fn, counted=(), counter=None):
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = len(self.spans)
                self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
                self._stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.spans[index][1:3] = start, time.perf_counter()
                    self._stack.pop()
            if counter is not None:
                self.counts.update(dict(zip(counted, counter(args, result))))
            return result
        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every name in WRAPPED; a name a module lacks is recorded in
        ``missing`` and left out, so its metrics are absent rather than zero."""
        for module_key, attr, name, counted, counter in WRAPPED:
            module = modules[module_key]
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"bibliorank.{module_key}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn, counted, counter))
        logging.getLogger("bibliorank.indicators").addHandler(_QuartileMisses(self.counts))


def layer_metrics(spans: list[list], counts: dict, missing: list[str]) -> dict[str, float]:
    """``<span>.calls`` and ``<span>.s`` (self time: duration minus the time
    covered by child spans) for every wrapped span, plus the boundary counts.

    A wrapper that ran zero times reports zero; a name listed in ``missing``
    was never wrapped, and its metrics are left out.
    """
    out: dict[str, float] = {"indicators.quartile_misses": 0}
    for module_key, attr, name, counted, _ in WRAPPED:
        if f"bibliorank.{module_key}.{attr}" in missing:
            continue
        if name is not None:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
        out.update(dict.fromkeys(counted, 0))
    for name in ENTRY_SPANS:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
    out.update(counts)

    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    for (name, start, end, _), child_time in zip(spans, covered):
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += end - start - child_time
    out["pipeline.self_s"] = sum(out[f"{n}.s"] for n in ENTRY_SPANS)
    if "taxonomy.field_corpus.scanned" in out:
        scanned = out["taxonomy.field_corpus.scanned"]
        out["taxonomy.field_corpus.kept_ratio"] = (
            out["taxonomy.field_corpus.kept"] / scanned if scanned else 0.0
        )
    return out
