"""The record-comparison script, on small synthetic record files."""
import dataclasses
import importlib.util
import os

from lotus_qaoa.instance import CutResult
from lotus_qaoa.records import RunRecord, append_record

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "compare_records.py")
_SPEC = importlib.util.spec_from_file_location("compare_records", _PATH)
compare_records = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_records)

RECORDS = [
    RunRecord(seed=seed, optimizer=opt, n_qubits=4, depth=2, p_graph=0.5, k_modes=k,
              expectation=1.25 + seed, expectation_exact=1.5 + seed, iterations=7,
              evaluations=40, best_cut=CutResult(bitstring="0101", cut_value=3.0),
              approx_ratio=0.75, wall_time=0.01 * seed)
    for seed in (1, 2) for opt, k in (("lotus", 1), ("nelder-mead", 0))]


def write(path, records):
    for r in records:
        append_record(str(path), r)
    return str(path)


def test_other_order_and_wall_time_are_identical(tmp_path, capsys):
    a = write(tmp_path / "a.ndjson", RECORDS)
    b = write(tmp_path / "b.ndjson", [dataclasses.replace(r, wall_time=9.0)
                                      for r in reversed(RECORDS)])
    assert compare_records.main([a, b]) == 0
    assert "0 of 4 records differ" in capsys.readouterr().out


def test_counts_and_largest_difference_per_field(tmp_path, capsys):
    changed = list(RECORDS)
    changed[1] = dataclasses.replace(changed[1], expectation=changed[1].expectation + 1e-15)
    changed[2] = dataclasses.replace(changed[2], expectation=changed[2].expectation - 0.5,
                                     best_cut=CutResult(bitstring="0011", cut_value=3.0))
    a, b = write(tmp_path / "a.ndjson", RECORDS), write(tmp_path / "b.ndjson", changed)
    assert compare_records.main([a, b]) == 1
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ")}
    assert rows["expectation"] == ["2", "5.000e-01"]
    assert rows["best_bitstring"] == ["1", "-"]
    assert rows["best_cut_value"] == ["0", "-"] and rows["wall_time"] == ["0", "-"]


def test_a_missing_record_differs(tmp_path, capsys):
    a, b = write(tmp_path / "a.ndjson", RECORDS), write(tmp_path / "b.ndjson", RECORDS[:3])
    assert compare_records.main([a, b]) == 1
    assert "different numbers of records" in capsys.readouterr().out
