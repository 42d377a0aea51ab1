"""Command-line entry point.

Subcommands: gen (instance files), run (sweep from a config file), score,
report (improvement, cost per label and significance tables), transfer
(depth-transfer experiment), check (invariant suite). Exit codes: 0
success, 1 check or run failure, 2 usage errors.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from collections.abc import Callable
from functools import partial
from typing import TypeVar

import numpy as np

from . import engine, harness, instance, optim
from .records import load_records

T = TypeVar("T")


class _UsageError(Exception):
    """A bad command-line input, reported as one stderr line with exit code 2."""


def _read_input(what: str, load: Callable[[str], T], path: str) -> T:
    """``load(path)``; a missing or malformed file is a usage error."""
    try:
        return load(path)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise _UsageError(f"cannot read {what} {path}: {type(exc).__name__}: {exc}") from exc


def _int_at_least(low: int, text: str) -> int:
    """An argument that must be an integer >= ``low``, which is 0 or 1."""
    try:
        if int(text) >= low:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"need a {'positive' if low else 'non-negative'} integer, got {text!r}")


_positive_int = partial(_int_at_least, 1)
_non_negative_int = partial(_int_at_least, 0)


def _fraction(closed: bool) -> Callable[[str], float]:
    """An argument type: a number in [0, 1] if ``closed``, else in (0, 1)."""
    interval = "[0, 1]" if closed else "(0, 1)"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = float("nan")
        if (0.0 <= value <= 1.0) if closed else (0.0 < value < 1.0):
            return value
        raise argparse.ArgumentTypeError(f"need a number in {interval}, got {text!r}")

    return parse


def _depth_list(text: str) -> tuple[int, ...]:
    """``--depths``: comma-separated positive circuit depths."""
    try:
        return tuple(_positive_int(d) for d in text.split(","))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"need comma-separated positive depths, got {text!r}") from None


def _gen_graph(args: argparse.Namespace) -> instance.WeightedGraph:
    """The instance that ``--nodes``, ``--p-graph`` and ``--seed`` describe."""
    try:
        return instance.gen_erdos_renyi(args.nodes, args.p_graph, args.seed)
    except ValueError as exc:
        raise _UsageError(f"bad graph arguments: {exc}") from exc


def _cmd_gen(args: argparse.Namespace) -> int:
    g = _gen_graph(args)
    instance.save_graph(g, args.out)
    print(f"wrote {args.out}: n={g.n}, edges={len(g.edges)}, total weight {g.total_weight:.6f}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    overrides = {}
    if args.out:
        overrides["out"] = args.out
    if args.shots is not None:
        overrides["shots"] = args.shots
    if args.exact:
        overrides["shots"] = 0
    cfg = _read_input("config", lambda path: dataclasses.replace(
        harness.SweepConfig.from_json_file(path), **overrides), args.config)
    try:
        records = harness.run_sweep(cfg, workers=args.workers)
    except harness.ResumeRefused as exc:
        raise _UsageError(str(exc)) from exc
    print(f"{len(records)} records in {cfg.out}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    records = _read_input("results", load_records, args.results)
    try:
        scores = harness.score_records(records, alpha=args.alpha)
    except ValueError as exc:  # no records
        raise _UsageError(f"cannot score {args.results}: {exc}") from exc
    out = args.out or (args.results + ".scores.csv")
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["optimizer", "k_modes", "n_qubits", "depth", "p_graph", "seed",
                         "expectation", "evaluations", "e_norm", "i_norm", "score"])
        for r, s in zip(records, scores):
            writer.writerow([r.optimizer, r.k_modes, r.n_qubits, r.depth, repr(r.p_graph),
                             r.seed, repr(r.expectation), r.evaluations,
                             repr(s.e_norm), repr(s.i_norm), repr(s.score)])
    by_label: dict[str, list[float]] = {}
    for r, s in zip(records, scores):
        by_label.setdefault(harness.optimizer_label(r), []).append(s.score)
    print(f"wrote {out}")
    for label in sorted(by_label):
        values = by_label[label]
        print(f"  {label:24s} median score {np.median(values):.4f}  (n={len(values)})")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    records = _read_input("results", load_records, args.results)
    try:
        summary = harness.improvement_summary(records, k_modes=args.k_modes)
    except ValueError as exc:  # no HFA records, no K chosen among several, or no such K
        raise _UsageError(f"cannot report on {args.results}: {exc}") from exc
    print("improvement of the HFA multi-start runs over each baseline (medians per cell):")
    print(f"  {'baseline':16s} {'expectation':>12s} {'evaluations':>12s} {'cells':>6s}")
    for name, row in summary.items():
        print(f"  {name:16s} {row['expectation_pct']:+11.1f}% {row['iteration_pct']:+11.1f}%"
              f" {row['cells']:6d}")
    by_label: dict[str, list] = {}
    for r in records:
        by_label.setdefault(harness.optimizer_label(r), []).append(r)
    print("\ncost per label (ms/eval is total wall time over total evaluations):")
    print(f"  {'label':16s} {'runs':>5s} {'median wall s':>14s} {'ms/eval':>9s}"
          f" {'median evals':>13s}")
    for label in sorted(by_label):
        runs = by_label[label]
        evals = sum(r.evaluations for r in runs)
        ms_per_eval = 1e3 * sum(r.wall_time for r in runs) / evals if evals else float("nan")
        print(f"  {label:16s} {len(runs):5d} {np.median([r.wall_time for r in runs]):14.3f}"
              f" {ms_per_eval:9.3f} {np.median([r.evaluations for r in runs]):13.1f}")
    matrix = harness.significance_matrix(records, alpha=args.alpha)
    print(f"\npairwise Wilcoxon p-values on per-cell expectations (alpha={matrix.alpha}):")
    width = max(len(label) for label in matrix.labels) + 2
    print(" " * width + "".join(f"{label:>{width}s}" for label in matrix.labels))
    for i, label in enumerate(matrix.labels):
        cells = []
        for j in range(len(matrix.labels)):
            p = matrix.p_values[i, j]
            if np.isnan(p):
                cells.append(f"{'n/a':>{width}s}")
            else:
                mark = "*" if matrix.significant[i, j] else " "
                cells.append(f"{p:>{width - 1}.4f}{mark}")
        print(f"{label:>{width}s}" + "".join(cells))
    return 0


def _cmd_transfer(args: argparse.Namespace) -> int:
    if args.instance:
        g = _read_input("instance", instance.load_graph, args.instance)
    else:
        g = _gen_graph(args)
    if g.n > engine.DEFAULT_QUBIT_CAP:
        raise _UsageError(f"qubit cap {engine.DEFAULT_QUBIT_CAP} exceeded (n={g.n})")
    params, _, record = optim.lotus_optimize(
        g, args.source_depth, k_modes=args.k_modes, shots=0, seed=args.seed)
    print(f"optimized at depth {args.source_depth}: exact expectation "
          f"{record.expectation_exact:.6f} ({record.evaluations} evaluations)")
    rows = harness.depth_transfer_experiment(
        g, params, args.source_depth, args.depths, hot_start=args.hot_start, seed=args.seed)
    print(f"  {'depth':>6s} {'expectation':>12s} {'gap':>12s}", end="")
    if args.hot_start:
        print(f" {'cold evals':>11s} {'warm evals':>11s} {'matched':>8s}")
    else:
        print()
    for row in rows:
        gap = "" if row.gap_from_prev is None else f"{row.gap_from_prev:12.6f}"
        print(f"  {row.depth:6d} {row.expectation:12.6f} {gap:>12s}", end="")
        if args.hot_start and row.cold_evaluations is not None:
            print(f" {row.cold_evaluations:11d} {row.warm_evaluations_to_match:11d}"
                  f" {str(row.warm_matched):>8s}")
        else:
            print()
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    report = harness.invariant_suite()
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
    if not report.all_passed:
        print(f"{len(report.failures())} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lotus-qaoa",
        description="QAOA MaxCut benchmark harness with an HFA schedule generator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a weighted MaxCut instance file")
    p_gen.add_argument("--nodes", "-n", type=int, required=True)
    p_gen.add_argument("--p-graph", type=float, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=_cmd_gen)

    p_run = sub.add_parser("run", help="execute a sweep from a JSON config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="override the config output path")
    p_run.add_argument("--workers", type=_positive_int, default=None,
                       help=f"worker processes (default ${harness.WORKERS_ENV_VAR} or 1)")
    p_run.add_argument("--shots", type=_non_negative_int, default=None)
    p_run.add_argument("--exact", action="store_true", help="shortcut for --shots 0")
    p_run.set_defaults(fn=_cmd_run)

    p_score = sub.add_parser("score", help="score a result file")
    p_score.add_argument("--results", required=True)
    p_score.add_argument("--alpha", type=_fraction(closed=True), default=harness.DEFAULT_ALPHA)
    p_score.add_argument("--out", default=None)
    p_score.set_defaults(fn=_cmd_score)

    p_report = sub.add_parser("report", help="improvement, cost and significance tables")
    p_report.add_argument("--results", required=True)
    p_report.add_argument("--alpha", type=_fraction(closed=False), default=0.05)
    p_report.add_argument("--k-modes", type=_positive_int, default=None)
    p_report.set_defaults(fn=_cmd_report)

    p_transfer = sub.add_parser("transfer", help="depth-transfer experiment")
    p_transfer.add_argument("--instance", default=None, help="instance file (otherwise generate)")
    p_transfer.add_argument("--nodes", "-n", type=int, default=8)
    p_transfer.add_argument("--p-graph", type=float, default=0.75)
    p_transfer.add_argument("--seed", type=int, default=0)
    p_transfer.add_argument("--k-modes", type=_positive_int, default=2)
    p_transfer.add_argument("--source-depth", type=_positive_int, default=8)
    p_transfer.add_argument("--depths", type=_depth_list, default="8,16,32")
    p_transfer.add_argument("--hot-start", action="store_true")
    p_transfer.set_defaults(fn=_cmd_transfer)

    p_check = sub.add_parser("check", help="run the invariant suite")
    p_check.set_defaults(fn=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"lotus-qaoa: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
