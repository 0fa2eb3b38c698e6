#!/usr/bin/env python3
"""Run the full pipeline over the shipped fixture set.

Writes per-field ranking, quadrant, and indicator files for both configured
windows, then one concordance report per crosswalk system pair, into
fixtures/out/.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bibliorank.pipeline import load_config, run_compare, run_rank

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    config = load_config(ROOT / "fixtures" / "config.json")
    written = run_rank(config) + run_compare(config)
    for path in written:
        print(path.relative_to(ROOT))
    print(f"\n{len(written)} files written to {config.out_dir}")


if __name__ == "__main__":
    main()
