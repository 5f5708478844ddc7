"""DESIGN.md's table of pins lists every recorded fixture.

A fixture added to ``tests/data/`` must arrive classified (bit-exact,
platform-sensitive with near-tie, or tolerance) with its recording
script and provenance, so the table has to name it.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _table_pins() -> set[str]:
    design = (ROOT / "DESIGN.md").read_text()
    section = design.split("## 16. Table of pins", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return {re.match(r"\| `([^`]+)`", row).group(1) for row in rows}


def test_every_fixture_is_in_the_table():
    fixtures = {
        f"tests/data/{p.name}" for p in (ROOT / "tests" / "data").iterdir()
        if p.is_file()
    }
    assert fixtures, "no fixtures found"
    missing = sorted(fixtures - _table_pins())
    assert not missing, f"tests/data files missing from DESIGN.md §16: {missing}"


def test_every_pin_in_the_table_exists():
    for pin in _table_pins():
        assert (ROOT / pin).is_file(), f"DESIGN.md §16 lists missing file {pin}"
