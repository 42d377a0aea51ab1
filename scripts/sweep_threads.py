"""Time a two-worker sweep with the BLAS thread variable unset and set to 1.

    python3 scripts/sweep_threads.py --out BENCH_threads.json

Each timed sweep runs ``harness.run_sweep`` with ``workers=2`` in a fresh
interpreter, so OpenBLAS reads ``OPENBLAS_NUM_THREADS`` when numpy loads:
once with the variable removed from the environment ("unset") and once
with it set to 1 ("pinned"). The cell is n = 16, p = 4, density 0.5,
lotus (K = 2) and Powell on 4 seeds at 1024 shots, 150 evaluations a run
(lotus: 5 restarts of 30), 1200 evaluations in all. ``--rounds`` rounds
alternate which setting runs first, so slow drift of the host falls on
both alike. The script prints, and writes to ``--out`` when given, each
setting's wall times and median, the median ratio unset / pinned, and
whether every sweep's records equal the first's (``wall_time`` zeroed,
as ``compare_records.py`` reads them). It exits 1 when any records differ.

The package's pool gives each worker one BLAS thread itself, so the two
settings should time alike and give the same records; without that, two
workers on two cores ran four OpenBLAS threads, the unset sweep was many
times slower, and its exact expectations differed in the last bits.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETTINGS = {"unset": None, "pinned": "1"}


def _child(out: str) -> None:
    """Run the sweep into ``out`` and print its wall seconds."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from lotus_qaoa.harness import SweepConfig, run_sweep

    cfg = SweepConfig(qubits=(16,), depths=(4,), densities=(0.5,), modes=(2,), seeds=4,
                      optimizers=("lotus", "powell"), shots=1024, out=out, budget=150,
                      lotus_budget=30)
    started = time.perf_counter()
    run_sweep(cfg, workers=2)
    print(time.perf_counter() - started)


def _sweep(setting: str, out: str) -> float:
    """Wall seconds of one sweep in a fresh interpreter under ``setting``."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if SETTINGS[setting] is not None:
        env["OPENBLAS_NUM_THREADS"] = SETTINGS[setting]
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", out],
                          env=env, check=True, capture_output=True, text=True)
    return float(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=3, help="sweeps per setting")
    parser.add_argument("--out", help="JSON file for the summary")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(args.child)
        return 0
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from compare_records import _rows  # run-key order, wall time zeroed
    times: dict[str, list[float]] = {name: [] for name in SETTINGS}
    first_rows, same = None, True
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(args.rounds):
            order = list(SETTINGS) if r % 2 == 0 else list(SETTINGS)[::-1]
            for setting in order:
                out = os.path.join(tmp, f"{setting}-{r}.ndjson")
                times[setting].append(_sweep(setting, out))
                rows = _rows(out)
                first_rows = rows if first_rows is None else first_rows
                same = same and rows == first_rows
                print(f"round {r} {setting}: {times[setting][-1]:.2f} s", flush=True)
    medians = {name: statistics.median(values) for name, values in times.items()}
    summary = {
        "cell": "n=16 p=4 density=0.5, lotus K=2 and powell, 4 seeds, 1024 shots, "
                "150 evaluations a run, workers=2",
        "seconds": times,
        "median_s": medians,
        "ratio_unset_to_pinned": medians["unset"] / medians["pinned"],
        "records_identical": same,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    text = json.dumps(summary, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
