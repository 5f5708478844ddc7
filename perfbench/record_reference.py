"""Rewrite ``reference.json`` from the program in this checkout.

    python3 perfbench/record_reference.py

The benchmark compares each run's fixed input against these figures.
Record them again only with a change that is meant to alter what the
program outputs, and say why in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    out = {}
    WORKDIR.mkdir(exist_ok=True)
    try:
        for name, w in workloads.WORKLOADS.items():
            cy = workloads.reference_cycle(w, WORKDIR)
            if cy.problems:
                print(f"{name}: {cy.problems}", file=sys.stderr)
                return 1
            out[name] = workloads.figures(cy)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
