"""The mutant catalogue of ``tools/mutants.py`` still matches the source.

The tool itself takes minutes and stops at the first stale edit; these
checks read the catalogue only, so a moved line or a renamed test shows at
once.
"""

from __future__ import annotations

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = runpy.run_path(str(ROOT / "tools" / "mutants.py"))["MUTANTS"]


def test_every_name_is_unique():
    names = [m.name for m in MUTANTS]
    assert sorted({n for n in names if names.count(n) > 1}) == []


def test_every_old_text_occurs_exactly_once():
    stale = [m.name for m in MUTANTS if (ROOT / m.path).read_text().count(m.old) != 1]
    assert stale == []


def test_every_edit_changes_the_text():
    assert [m.name for m in MUTANTS if m.new == m.old] == []


def test_every_selection_names_an_existing_test():
    missing = []
    for m in MUTANTS:
        for selection in m.tests:
            path, *names = selection.split("::")
            file = ROOT / path
            text = file.read_text() if file.is_file() else ""
            if not text or not all(f"class {n}" in text or f"def {n}(" in text for n in names):
                missing.append((m.name, selection))
    assert missing == []
