"""Compare two NDJSON record files run for run, ignoring wall time.

    python3 scripts/compare_records.py A.ndjson B.ndjson

Both files are read with ``records.load_records`` and sorted by
``RunRecord.run_key()``, so the order in which a sweep's workers appended
them does not matter. ``wall_time`` is zeroed on both sides. For every
field the script prints how many records differ, compared by their JSON
text (so equal means byte-identical), and the largest absolute difference
where both values are numbers. It exits 0 when every record matches and 1
when any record differs or the files hold different runs.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from lotus_qaoa.records import RunRecord, load_records  # noqa: E402


def _rows(path: str) -> list[dict]:
    """The file's records in run-key order, as their JSON rows, wall time 0."""
    records = sorted(load_records(path), key=RunRecord.run_key)
    return [json.loads(dataclasses.replace(r, wall_time=0.0).to_json()) for r in records]


def compare(a: list[dict], b: list[dict]) -> dict[str, tuple[int, float | None]]:
    """Per field: records that differ, and the largest numeric difference
    (None where no differing pair is numeric)."""
    out = {}
    for field in sorted({key for row in a + b for key in row}):
        differ, largest = 0, None
        for x, y in zip(a, b):
            u, v = x.get(field), y.get(field)
            if json.dumps(u) == json.dumps(v):
                continue
            differ += 1
            if all(isinstance(w, (int, float)) for w in (u, v)):
                largest = max(abs(u - v), largest or 0.0)
        out[field] = (differ, largest)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="first NDJSON records file")
    parser.add_argument("b", help="second NDJSON records file")
    args = parser.parse_args(argv)
    a, b = _rows(args.a), _rows(args.b)
    print(f"{len(a)} records in {args.a}, {len(b)} in {args.b}")
    same_runs = len(a) == len(b)
    if not same_runs:
        print("the files hold different numbers of records")
    fields = compare(a, b)
    print(f"  {'field':18s} {'differ':>7s} {'largest difference':>19s}")
    for field, (differ, largest) in fields.items():
        shown = "-" if largest is None else f"{largest:.3e}"
        print(f"  {field:18s} {differ:7d} {shown:>19s}")
    differing = sum(json.dumps(x) != json.dumps(y) for x, y in zip(a, b))
    print(f"{differing} of {min(len(a), len(b))} records differ (wall_time zeroed)")
    return 0 if same_runs and differing == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
