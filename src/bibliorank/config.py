"""The run configuration: its JSON file, its ``--window`` override, and the
one home of the policy values it accepts.

``RunConfig.validate`` checks every policy value and path once, at the
config boundary; the layers that act on a policy take it as given. The
digest that each output header carries hashes the configuration with the
interpreter's built-in sha256.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import NamedTuple

from .corpus import YEAR_MAX, YEAR_MIN, TimeWindow, normalize_id
from .errors import ConfigError

# The config digest hashes a few hundred bytes once per header. hashlib
# would load OpenSSL's _hashlib for that, 3.6 MB of resident set.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # a Python built without the built-in hashes
        from hashlib import sha256

PUBLICATION_FORMATS = ("csv", "jsonl")
Q1_POLICIES = ("any-relevant", "best-all")
MISSING_QUARTILE_POLICIES = ("strict", "warn")
MISSING_NATIONAL_POLICIES = ("strict", "warn")


class RunConfig(NamedTuple):
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
        # Every loader trims the system names it reads, so a padded name
        # would match no loaded system.
        if not self.national_system or self.national_system != normalize_id(self.national_system):
            raise ConfigError("national_system must be a non-empty name without surrounding "
                              f"whitespace, got {self.national_system!r}")
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
        return sha256(blob).hexdigest()[:16]


def parse_window(text: str) -> TimeWindow:
    m = re.fullmatch(r"([0-9]{4}):([0-9]{4})", text.strip())
    if m is None:
        raise ConfigError(f"window must look like START:END, got {text!r}")
    return TimeWindow(int(m.group(1)), int(m.group(2)))


def load_config(path: str | Path) -> RunConfig:
    """Load a JSON run configuration; relative paths resolve against the file.

    The file is UTF-8, and one leading byte-order mark is dropped."""
    path = Path(path)
    try:
        # Decoded as plain UTF-8: the utf-8-sig codec is one more module to
        # import in every command's set-up.
        raw = json.loads(path.read_text(encoding="utf-8").removeprefix("\ufeff"))
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
