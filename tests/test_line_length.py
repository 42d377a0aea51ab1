"""No line of the package, its tests or its scripts is wider than 100 columns."""
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_COLUMNS = 100
FILES = sorted(path for folder in ("src", "tests", "scripts")
               for path in glob.glob(os.path.join(ROOT, folder, "**", "*.py"), recursive=True))


@pytest.mark.parametrize("path", FILES, ids=lambda path: os.path.relpath(path, ROOT))
def test_lines_fit_in_100_columns(path):
    with open(path, encoding="utf-8") as fh:
        wide = [f"{number}: {len(line)}" for number, line in enumerate(fh.read().splitlines(), 1)
                if len(line) > MAX_COLUMNS]
    assert not wide, f"lines wider than {MAX_COLUMNS} columns in {path}: {', '.join(wide)}"
