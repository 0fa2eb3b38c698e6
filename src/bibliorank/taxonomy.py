"""Fields as aggregations of journal subject categories.

A record belongs to a field iff its journal's category set intersects the
field's category set. Counting is whole, not fractional: a record matched by
k fields counts fully in each of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .corpus import Corpus, PublicationRecord, normalize_category, normalize_id, read_csv
from .errors import InputError

LEVELS = ("field", "subfield")
TAXONOMY_COLUMNS = ("field_name", "level", "category")

# Each field's or subfield's name and its non-empty set of normalized
# categories, as load_taxonomy returns them.
Taxonomy = Mapping[str, frozenset[str]]


@dataclass(frozen=True)
class FieldAssignment:
    """Each field's records in corpus order, and the sorted ids of the
    records that matched no field, for the coverage report."""

    records_by_field: Mapping[str, tuple[PublicationRecord, ...]]
    unassigned: tuple[str, ...]


def load_taxonomy(path: str | Path) -> dict[str, frozenset[str]]:
    """Load a (field_name, level, category) CSV into a ``Taxonomy``.

    Categories may appear in several fields; a field's level must be
    consistent across its rows.
    """
    categories: dict[str, set[str]] = {}
    levels: dict[str, str] = {}
    for line, (raw_name, raw_level, raw_cat) in read_csv(path, TAXONOMY_COLUMNS, "taxonomy"):
        name = normalize_id(raw_name or "")
        level = normalize_id(raw_level or "")
        cat = normalize_category(raw_cat or "")
        if not name:
            raise InputError("empty field name", line)
        if level not in LEVELS:
            raise InputError(f"level must be one of {LEVELS}, got {level!r}", line)
        if not cat:
            raise InputError(f"field {name!r} has an empty category", line)
        if name in levels and levels[name] != level:
            raise InputError(
                f"field {name!r} listed with conflicting levels "
                f"{levels[name]!r} and {level!r}",
                line,
            )
        levels[name] = level
        categories.setdefault(name, set()).add(cat)
    if not categories:
        raise InputError("taxonomy file defines no fields")
    return {n: frozenset(c) for n, c in categories.items()}


def assign_fields(corpus: Corpus, taxonomy: Taxonomy) -> FieldAssignment:
    """Map every record to the fields whose categories its journal intersects.

    Each journal is matched against the taxonomy once, and each record is
    appended to its fields' buckets in the same pass, in corpus order.
    """
    buckets: dict[str, list[PublicationRecord]] = {name: [] for name in taxonomy}
    matched_by_journal: dict[str, frozenset[str]] = {}
    unassigned: list[str] = []
    for rec in corpus.publications:
        matched = matched_by_journal.get(rec.journal_id)
        if matched is None:
            journal = corpus.journals[rec.journal_id]  # its keys are its categories
            matched = matched_by_journal[rec.journal_id] = frozenset(
                name for name, cats in taxonomy.items() if not cats.isdisjoint(journal))
        if not matched:
            unassigned.append(rec.record_id)
        for name in matched:
            buckets[name].append(rec)
    return FieldAssignment(
        records_by_field={name: tuple(recs) for name, recs in buckets.items()},
        unassigned=tuple(sorted(unassigned)),
    )


def field_corpus(corpus: Corpus, assignment: FieldAssignment, field: str) -> Corpus:
    """Project the corpus onto one field; the journal mapping is shared.

    ``assignment`` must come from ``assign_fields`` over the same corpus, and
    ``field`` from the taxonomy it was built with.
    """
    return Corpus(assignment.records_by_field[field], corpus.journals)
