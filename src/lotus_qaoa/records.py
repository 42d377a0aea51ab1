"""Benchmark run records and their on-disk store.

Records are persisted as newline-delimited JSON (one record per line,
append-only, crash-safe) plus an optional derived CSV for spreadsheets.
Floats serialize through repr, so values round-trip bit-exactly. A crash
in the middle of an append leaves a torn final line; loading drops it with
a warning, while a corrupt line anywhere else is an error.
"""
from __future__ import annotations

import csv
import json
import os
import warnings
from dataclasses import asdict, dataclass

from .instance import CutResult


@dataclass(frozen=True)
class RunRecord:
    """One optimization outcome with full provenance."""

    seed: int
    optimizer: str
    n_qubits: int
    depth: int
    p_graph: float
    k_modes: int  # 0 for baselines
    expectation: float
    expectation_exact: float
    iterations: int
    evaluations: int
    best_cut: CutResult
    approx_ratio: float | None
    wall_time: float

    def cell_key(self) -> tuple:
        """Identity of the (instance, seed) cell this record belongs to."""
        return (self.n_qubits, self.depth, self.p_graph, self.seed)

    def run_key(self) -> tuple:
        """Identity of the full run (cell plus optimizer configuration)."""
        return self.cell_key() + (self.optimizer, self.k_modes)

    def to_json(self) -> str:
        d = asdict(self)
        cut = d.pop("best_cut")
        d["best_bitstring"] = cut["bitstring"]
        d["best_cut_value"] = cut["cut_value"]
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "RunRecord":
        d = json.loads(line)
        return cls(
            seed=int(d["seed"]),
            optimizer=str(d["optimizer"]),
            n_qubits=int(d["n_qubits"]),
            depth=int(d["depth"]),
            p_graph=float(d["p_graph"]),
            k_modes=int(d["k_modes"]),
            expectation=float(d["expectation"]),
            expectation_exact=float(d["expectation_exact"]),
            iterations=int(d["iterations"]),
            evaluations=int(d["evaluations"]),
            best_cut=CutResult(bitstring=str(d["best_bitstring"]),
                               cut_value=float(d["best_cut_value"])),
            approx_ratio=None if d["approx_ratio"] is None else float(d["approx_ratio"]),
            wall_time=float(d["wall_time"]),
        )


def append_record(path: str, record: RunRecord) -> None:
    """Append one record and flush, so partial sweeps survive a crash."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(record.to_json() + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def _read_records(path: str) -> tuple[list[RunRecord], int | None]:
    """Records in the file, and the byte offset of a torn final line (or None)."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    last = max((pos for pos, line in enumerate(lines) if line.strip()), default=-1)
    records = []
    offset = 0
    for pos, line in enumerate(lines):
        if line.strip():
            try:
                records.append(RunRecord.from_json(line.decode("utf-8")))
            except json.JSONDecodeError:
                if pos != last:
                    raise
                return records, offset
        offset += len(line) + 1
    return records, None


def _warn_torn(path: str, offset: int) -> None:
    warnings.warn(f"{path}: dropped a torn final line at byte {offset} "
                  "(a record whose append was cut off)", RuntimeWarning, stacklevel=3)


def load_records(path: str) -> list[RunRecord]:
    """Every complete record; a torn final line is dropped with a warning."""
    records, torn = _read_records(path)
    if torn is not None:
        _warn_torn(path, torn)
    return records


def resume_records(path: str) -> list[RunRecord]:
    """Like ``load_records``, and also make the file safe to append to.

    A torn final line is cut off the file (its run is redone), and a final
    record that lost only its newline gets one, so the next append starts
    on a fresh line.
    """
    records, torn = _read_records(path)
    with open(path, "r+b") as fh:
        if torn is not None:
            _warn_torn(path, torn)
            fh.truncate(torn)
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                fh.seek(0, os.SEEK_END)
                fh.write(b"\n")
        fh.flush()
        os.fsync(fh.fileno())
    return records


_CSV_COLUMNS = [
    "seed", "optimizer", "n_qubits", "depth", "p_graph", "k_modes",
    "expectation", "expectation_exact", "iterations", "evaluations",
    "best_bitstring", "best_cut_value", "approx_ratio", "wall_time",
]


def write_csv(path: str, records: list[RunRecord]) -> None:
    """Derived CSV view of a record list (floats via repr, lossless)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for r in records:
            writer.writerow([
                r.seed, r.optimizer, r.n_qubits, r.depth, repr(r.p_graph), r.k_modes,
                repr(r.expectation), repr(r.expectation_exact), r.iterations,
                r.evaluations, r.best_cut.bitstring, repr(r.best_cut.cut_value),
                "" if r.approx_ratio is None else repr(r.approx_ratio), repr(r.wall_time),
            ])
