"""Benchmark protocol: sweeps, the composite score, statistics, checks.

The sweep runs every configured optimizer on the same instances with
cell-derived sub-seeds, appending records to a newline-delimited JSON
store as they finish (crash-safe; reruns skip completed work). Scoring
follows the composite quality/efficiency metric: within each instance
cell, expectations and evaluation counts are min-max normalized (the
latter inverted) and combined as alpha * E_norm + (1 - alpha) * I_norm.
"""
from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import json
import math
import numbers
import os
import statistics
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import engine, instance, optim, schedule
from .records import RunRecord, append_record, resume_records, write_csv

DEFAULT_ALPHA = 0.7
WORKERS_ENV_VAR = "LOTUS_QAOA_WORKERS"


def default_workers() -> int:
    value = os.environ.get(WORKERS_ENV_VAR, "")
    try:
        return max(1, int(value))
    except ValueError:
        return 1


def _numpy_openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS (``numpy.libs/libscipy_openblas64_*``),
    the library numpy has loaded, with its thread-count symbols; None when
    numpy was built against another BLAS or the symbols are missing."""
    import glob  # here, so that importing the package loads no more modules

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so*"))):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return lib
    return None


def _pin_blas_threads() -> None:
    """Pool initializer: one BLAS thread in this worker.

    A forked worker keeps the thread count numpy's OpenBLAS read from the
    environment when it loaded, one per core by default, so two workers on
    two cores would run four threads. The pool's processes are the sweep's
    parallelism, and one thread each also keeps records independent of the
    worker count and the host: a threaded BLAS reduction, such as the
    ``np.vdot`` of ``engine.expectation_exact`` above about 10^4
    amplitudes, sums in an order that depends on its thread count. Without
    the bundled OpenBLAS the count stays as it is.
    """
    lib = _numpy_openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)


# ---------------------------------------------------------------------------
# Sweep configuration and execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    """Grid of benchmark cells plus the optimizer roster.

    ``optimizers`` entries are minimize() method ids, plus "lotus" for the
    HFA multi-start loop (expanded once per entry of ``modes``).
    """

    qubits: tuple[int, ...] = (8, 12)
    depths: tuple[int, ...] = (4, 8, 16, 24)
    densities: tuple[float, ...] = (0.5, 0.75, 1.0)
    modes: tuple[int, ...] = (2, 3, 4)
    seeds: int = 5
    optimizers: tuple[str, ...] = ("lotus", "nelder-mead", "powell", "fd-lbfgs")
    shots: int = optim.DEFAULT_SHOTS
    out: str = "results.ndjson"
    base_seed: int = 0
    budget: int = optim.DEFAULT_BUDGET  # per direct baseline run
    lotus_budget: int | None = None  # per restart; None = scaled default
    lotus_method: str = "nelder-mead"

    def __post_init__(self) -> None:
        for name in ("qubits", "depths", "modes", "seeds", "shots", "budget", "lotus_budget",
                     "base_seed"):
            values = getattr(self, name)
            for value in values if isinstance(values, (tuple, list)) else (values,):
                # JSON true and 4.0 are no counts; only lotus_budget may be None
                if type(value) is not int and not (value is None and name == "lotus_budget"):
                    raise ValueError(f"{name} needs integers, got {value!r}")
        for value in self.densities:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"densities needs real numbers, got {value!r}")
        for name, values in [("qubits", self.qubits), ("depths", self.depths),
                             ("densities", self.densities), ("modes", self.modes),
                             ("optimizers", self.optimizers)]:
            if len(values) == 0:
                raise ValueError(f"{name} must be non-empty")
        if self.seeds < 1:
            raise ValueError("need at least one seed per cell")
        seen: dict[int, str] = {}
        for optimizer in self.optimizers:
            tag = _optimizer_tag(optimizer)
            if tag in seen:
                raise ValueError(f"optimizers {seen[tag]!r} and {optimizer!r} would share "
                                 "run seeds")
            seen[tag] = optimizer
        # every run of a bad grid would raise; reject it before any run starts
        methods = optim.optimizer_ids()
        for optimizer in self.optimizers:
            if optimizer != "lotus" and optimizer not in methods:
                raise ValueError(f"unknown optimizer {optimizer!r}; "
                                 f"known: lotus, {', '.join(methods)}")
        if self.lotus_method not in methods:
            raise ValueError(f"unknown lotus_method {self.lotus_method!r}; "
                             f"known: {', '.join(methods)}")
        for name, values, lo, hi in [("qubits", self.qubits, 2, engine.DEFAULT_QUBIT_CAP),
                                     ("depths", self.depths, 1, math.inf),
                                     ("modes", self.modes, 1, math.inf)]:
            if not all(lo <= v <= hi for v in values):
                raise ValueError(f"{name} must lie in [{lo}, {hi}], got {list(values)}")
        if not all(0.0 < d <= 1.0 for d in self.densities):
            raise ValueError(f"densities must lie in (0, 1], got {list(self.densities)}")
        # a repeated value would run the same runs twice, or file one instance under two cells
        for name, keys in [("qubits", self.qubits), ("depths", self.depths),
                           ("modes", self.modes),
                           ("densities", [_density_key(d) for d in self.densities])]:
            if len(set(keys)) < len(keys):
                rounded = " (to 6 decimals)" if name == "densities" else ""
                raise ValueError(f"{name} must be distinct{rounded}, "
                                 f"got {list(getattr(self, name))}")
        if self.shots < 0:
            raise ValueError(f"shots must be >= 0 (0 is exact), got {self.shots}")
        # a budget minimize() refuses for the largest search would fail every such run
        least = optim.min_budget(schedule.standard_dimension(max(self.depths)))
        if any(o != "lotus" for o in self.optimizers) and self.budget < least:
            raise ValueError(f"budget {self.budget} below {least}, the least a "
                             f"depth-{max(self.depths)} baseline run accepts")
        least = optim.min_budget(schedule.hfa_dimension(max(self.modes)))
        if ("lotus" in self.optimizers and self.lotus_budget is not None
                and self.lotus_budget < least):
            raise ValueError(f"lotus_budget {self.lotus_budget} below {least}, the least a "
                             f"{max(self.modes)}-mode lotus run accepts")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        kwargs = dict(d)
        for key in ("qubits", "depths", "densities", "modes", "optimizers"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path: str) -> "SweepConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _density_key(density: float) -> int:
    return int(round(density * 10 ** 6))


def _cell_instance_seed(cfg: SweepConfig, n: int, p: int, density: float, seed_idx: int) -> int:
    ss = np.random.SeedSequence(
        [cfg.base_seed & 0xFFFFFFFFFFFFFFFF, 1, n, p, _density_key(density), seed_idx])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _optimizer_tag(optimizer: str) -> int:
    """Seed tag of an optimizer id: the sum of its character codes, so
    anagrams share it (SweepConfig rejects such rosters)."""
    return sum(map(ord, optimizer))


def _run_seed(cfg: SweepConfig, n: int, p: int, density: float, seed_idx: int,
              optimizer: str, k_modes: int) -> int:
    ss = np.random.SeedSequence(
        [cfg.base_seed & 0xFFFFFFFFFFFFFFFF, 2, n, p, _density_key(density),
         seed_idx, _optimizer_tag(optimizer), k_modes])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _sweep_task(args: tuple) -> RunRecord:
    """One (cell, optimizer[, K]) run; module-level so worker pools can pickle it."""
    cfg, n, p, density, seed_idx, optimizer, k_modes = args
    g = instance.gen_erdos_renyi(n, density, _cell_instance_seed(cfg, n, p, density, seed_idx))
    run_seed = _run_seed(cfg, n, p, density, seed_idx, optimizer, k_modes)
    if optimizer == "lotus":
        _, _, record = optim.lotus_optimize(
            g, p, k_modes=k_modes, shots=cfg.shots, seed=run_seed,
            method=cfg.lotus_method, budget=cfg.lotus_budget)
        record = dataclasses.replace(record, optimizer="lotus")
    else:
        _, _, record = optim.baseline_optimize(
            g, p, method=optimizer, shots=cfg.shots, seed=run_seed, budget=cfg.budget)
    return dataclasses.replace(record, seed=seed_idx)


def _sweep_tasks(cfg: SweepConfig) -> list[tuple]:
    """Every run of the grid as ``(cfg,) + run_key``; K is 0 for a baseline."""
    return [(cfg, n, p, density, seed_idx, optimizer, k)
            for n, p, density, seed_idx in product(cfg.qubits, cfg.depths, cfg.densities,
                                                   range(cfg.seeds))
            for optimizer in cfg.optimizers
            for k in (cfg.modes if optimizer == "lotus" else (0,))]


class ResumeRefused(ValueError):
    """An existing output file that this sweep may not resume."""


def _check_resumable(cfg: SweepConfig, sidecar: str) -> None:
    """Refuse ``cfg.out`` unless its sidecar names this config and engine.

    The sidecar holds the config's fields plus ``engine_version``. A sidecar
    without that field predates it: it is compared on the config alone, and
    a warning says the resumed file may mix engine versions.
    """
    advice = "remove it or choose another output path"
    if not os.path.exists(sidecar):
        raise ResumeRefused(
            f"{cfg.out} has no config sidecar {sidecar}, so its config is unknown; {advice}")
    try:
        with open(sidecar, "r", encoding="utf-8") as fh:
            marks = dict(json.load(fh))
    except (ValueError, TypeError):
        marks = {}  # not a JSON object: it matches no config
    version = marks.pop("engine_version", None)
    if version is None:
        warnings.warn(f"{cfg.out} has no engine version in {sidecar}; its records may come "
                      f"from an older engine than version {engine.ENGINE_VERSION}",
                      RuntimeWarning)
    elif version != engine.ENGINE_VERSION:
        raise ResumeRefused(
            f"{cfg.out} was produced by engine version {version}, and this is engine version "
            f"{engine.ENGINE_VERSION}, whose records can differ; {advice}")
    if marks != json.loads(cfg.to_json()):
        raise ResumeRefused(f"{cfg.out} was produced by a different config; {advice}")


def run_sweep(cfg: SweepConfig, workers: int | None = None) -> list[RunRecord]:
    """Execute every cell of the sweep, appending records to cfg.out.

    Every run goes through a pool of ``workers`` processes, and each record
    is appended as its run finishes. A run that raises costs only itself:
    the others are still appended, each failure is warned about with its
    run key, and the first error is raised once the pool is drained. A
    config sidecar (cfg.out + ".config.json"), written with a new output,
    marks the sweep; rerunning with the same config resumes, running only
    the runs not on disk (failed ones included); an output file without its
    sidecar, or with another config's or engine version's, is refused with
    ``ResumeRefused``; a torn final line left by a crash mid-append is cut
    off and its run redone. Record content is independent of the worker
    count (all randomness is derived from cell-local seeds); only completion
    order may differ. Each worker runs one BLAS thread
    (``_pin_blas_threads``); the caller's process keeps its own count. A new
    sidecar is fsynced before the pool starts, so that no record on disk
    can outlive it.
    """
    workers = default_workers() if workers is None else max(1, workers)
    sidecar = cfg.out + ".config.json"
    done: set[tuple] = set()
    records: list[RunRecord] = []
    if os.path.exists(cfg.out):  # a resumed sidecar stays as it is, with or without a version
        _check_resumable(cfg, sidecar)
        records = resume_records(cfg.out)
        done = {r.run_key() for r in records}
    else:
        with open(sidecar, "w", encoding="utf-8") as fh:
            marks = dict(json.loads(cfg.to_json()), engine_version=engine.ENGINE_VERSION)
            fh.write(json.dumps(marks, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())  # on disk before any record, which append_record fsyncs

    # optim imports scipy.optimize only when it first runs; loaded here, the
    # forked workers share it instead of each importing it again
    import scipy.optimize  # noqa: F401

    error: Exception | None = None
    # starts workers on first submit
    with ProcessPoolExecutor(max_workers=workers, initializer=_pin_blas_threads) as pool:
        futures = {pool.submit(_sweep_task, task): task[1:]
                   for task in _sweep_tasks(cfg) if task[1:] not in done}
        for future in as_completed(futures):
            try:
                record = future.result()
            except Exception as exc:  # the run is not on disk, so a rerun retries it
                warnings.warn(f"run {futures[future]} failed: {exc!r}", RuntimeWarning)
                error = error or exc
                continue
            append_record(cfg.out, record)
            records.append(record)
    write_csv(cfg.out + ".csv", records)
    if error is not None:
        raise error
    return records


# ---------------------------------------------------------------------------
# Composite score
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScoreRecord:
    """Normalized quality/efficiency components and their combination."""

    e_norm: float
    i_norm: float
    score: float
    alpha: float


def optimizer_label(record: RunRecord) -> str:
    if record.k_modes == 0:
        return record.optimizer
    return f"{record.optimizer}[K={record.k_modes}]"


def _minmax_norm(values: list[float], invert: bool) -> list[float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        return [1.0] * len(values)  # unanimous tie: everyone is best
    norms = [(v - lo) / (hi - lo) for v in values]
    return [1.0 - v for v in norms] if invert else norms


def score_records(records: list[RunRecord], alpha: float = DEFAULT_ALPHA) -> list[ScoreRecord]:
    """Score each record within its instance cell (same order as input)."""
    if not records:
        raise ValueError("no records to score")
    groups: dict[tuple, list[int]] = {}
    for pos, record in enumerate(records):
        groups.setdefault(record.cell_key(), []).append(pos)
    out: list[ScoreRecord | None] = [None] * len(records)
    for positions in groups.values():
        e_norms = _minmax_norm([records[i].expectation for i in positions], invert=False)
        i_norms = _minmax_norm([float(records[i].evaluations) for i in positions], invert=True)
        for pos, e_norm, i_norm in zip(positions, e_norms, i_norms):
            out[pos] = ScoreRecord(
                e_norm=e_norm,
                i_norm=i_norm,
                score=alpha * e_norm + (1.0 - alpha) * i_norm,
                alpha=alpha,
            )
    return [s for s in out if s is not None]


# ---------------------------------------------------------------------------
# Improvement summary and significance matrix
# ---------------------------------------------------------------------------

def _lotus_by_cell(records: list[RunRecord], k_modes: int | None) -> dict[tuple, RunRecord]:
    lotus = [r for r in records if r.k_modes != 0]
    if not lotus:
        raise ValueError("no multi-start HFA records in the dataset")
    ks = sorted({r.k_modes for r in lotus})
    if k_modes is None:
        if len(ks) > 1:
            raise ValueError(f"several mode counts present {ks}; "
                             "pick one with --k-modes (the k_modes argument)")
        k_modes = ks[0]
    if k_modes not in ks:
        raise ValueError(f"no multi-start HFA records with K={k_modes}; present: {ks}")
    return {r.cell_key(): r for r in lotus if r.k_modes == k_modes}


def improvement_summary(records: list[RunRecord],
                        k_modes: int | None = None) -> dict[str, dict[str, float]]:
    """Median per-cell improvement of the HFA runs over each baseline.

    Expectation improvement: (E_hfa - E_base) / |E_base| * 100.
    Evaluation reduction: (I_base - I_hfa) / I_base * 100.
    """
    lotus = _lotus_by_cell(records, k_modes)
    baselines: dict[str, dict[tuple, RunRecord]] = {}
    for r in records:
        if r.k_modes == 0:
            baselines.setdefault(r.optimizer, {})[r.cell_key()] = r
    summary: dict[str, dict[str, float]] = {}
    for name, cells in sorted(baselines.items()):
        shared = sorted(set(cells) & set(lotus))
        if not shared:
            raise ValueError(f"no shared cells between HFA runs and baseline {name!r}")
        e_gain = [
            (lotus[c].expectation - cells[c].expectation) / abs(cells[c].expectation) * 100.0
            for c in shared
        ]
        i_gain = [
            (cells[c].evaluations - lotus[c].evaluations) / cells[c].evaluations * 100.0
            for c in shared
        ]
        summary[name] = {
            "expectation_pct": statistics.median(e_gain),
            "iteration_pct": statistics.median(i_gain),
            "cells": len(shared),
        }
    return summary


# Fewest shared cells a pair needs for a p-value. With n nonzero paired
# differences the exact two-sided signed-rank p-value is at least 2 / 2**n:
# 0.125 at 4 pairs, so fewer than 5 could never reach even alpha = 0.1.
MIN_PAIRS = 5


@dataclass(frozen=True)
class SignificanceMatrix:
    """Pairwise Wilcoxon signed-rank p-values on per-cell expectations.

    Entries are NaN (and not significant) when fewer than ``MIN_PAIRS``
    shared cells exist for a pair.
    """

    labels: list[str]
    p_values: np.ndarray
    significant: np.ndarray
    alpha: float


def significance_matrix(records: list[RunRecord], alpha: float = 0.05) -> SignificanceMatrix:
    # imported here: scipy.stats takes about a third of a second to load,
    # which every other use of the package would pay
    from scipy.stats import wilcoxon

    by_label: dict[str, dict[tuple, float]] = {}
    for r in records:
        by_label.setdefault(optimizer_label(r), {})[r.cell_key()] = r.expectation
    labels = sorted(by_label)
    k = len(labels)
    p_values = np.full((k, k), np.nan)
    significant = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(k):
            shared = sorted(set(by_label[labels[i]]) & set(by_label[labels[j]]))
            if len(shared) < MIN_PAIRS:
                continue
            diffs = np.array([by_label[labels[i]][c] - by_label[labels[j]][c] for c in shared])
            if i == j or np.all(diffs == 0.0):
                p = 1.0
            else:
                p = float(wilcoxon(diffs).pvalue)
            p_values[i, j] = p
            significant[i, j] = p < alpha
    return SignificanceMatrix(labels=labels, p_values=p_values,
                              significant=significant, alpha=alpha)


# ---------------------------------------------------------------------------
# Depth transfer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DepthTransferRow:
    depth: int
    expectation: float
    gap_from_prev: float | None
    cold_expectation: float | None = None
    cold_evaluations: int | None = None
    warm_expectation: float | None = None
    warm_evaluations_to_match: int | None = None
    warm_matched: bool | None = None


def depth_transfer_experiment(
    g: instance.WeightedGraph,
    params: schedule.HfaParams,
    p_source: int,
    depths: tuple[int, ...],
    hot_start: bool = False,
    seed: int = 0,
    budget: int | None = None,
) -> list[DepthTransferRow]:
    """Gap table for a schedule resampled across depths (exact mode).

    With ``hot_start`` each depth but ``p_source`` also runs a from-scratch
    multi-start search (cold) and a single warm run from ``params``; both are
    exact Nelder-Mead runs of ``optim.optimize`` in the HFA search box. The
    row reports how many evaluations the warm run needed to reach the cold
    run's final quality. ``budget`` is per restart for the cold run and
    total for the warm run; None picks the scaled default.
    """
    if budget is None:
        budget = optim.LOTUS_BUDGET_PER_DIM * params.dimension
    diag = engine.build_cost_diagonal(g)
    rows: list[DepthTransferRow] = []
    prev: float | None = None
    for p in depths:
        state = engine.evolve(g, schedule.hfa_generate(params, p), diag=diag)
        expectation = engine.expectation_exact(state, diag)
        gap = None if prev is None else abs(expectation - prev)
        cold_e = cold_evals = warm_e = warm_to_match = matched = None
        if hot_start and p != p_source:
            _, cold_out, cold_rec = optim.lotus_optimize(
                g, p, k_modes=params.k_modes, shots=0, seed=seed, budget=budget)
            cold_e, cold_evals = cold_rec.expectation_exact, cold_out.evaluations
            warm, _, _ = optim.optimize(g, p, "nelder-mead", [(params.to_vector(), None)],
                                        0, seed, budget, params.k_modes)
            warm_e = -warm.f_best
            reached = np.nonzero(warm.trace <= -cold_e)[0]
            matched = reached.size > 0
            warm_to_match = int(reached[0]) + 1 if matched else warm.evaluations
        rows.append(DepthTransferRow(
            depth=p, expectation=expectation, gap_from_prev=gap,
            cold_expectation=cold_e, cold_evaluations=cold_evals,
            warm_expectation=warm_e, warm_evaluations_to_match=warm_to_match,
            warm_matched=matched,
        ))
        prev = expectation
    return rows


# ---------------------------------------------------------------------------
# Dense oracle (independent reference path for the fast engine)
# ---------------------------------------------------------------------------

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def dense_cost_matrix(g: instance.WeightedGraph) -> np.ndarray:
    """Diagonal cost operator built index-by-index from cut_value."""
    dim = 1 << g.n
    diag = [instance.cut_value(g, instance.index_to_bitstring(z, g.n)) for z in range(dim)]
    return np.diag(np.array(diag, dtype=np.complex128))


def dense_mixer_matrix(n: int) -> np.ndarray:
    """Sum of single-qubit X terms as an explicit 2^n x 2^n matrix."""
    dim = 1 << n
    total = np.zeros((dim, dim), dtype=np.complex128)
    for qubit in range(n):
        term = np.eye(1, dtype=np.complex128)
        for axis in reversed(range(n)):  # high axis first; bit i of the index is qubit i
            factor = _PAULI_X if axis == qubit else np.eye(2, dtype=np.complex128)
            term = np.kron(term, factor)
        total += term
    return total


def dense_oracle_state(g: instance.WeightedGraph, sched: schedule.Schedule) -> np.ndarray:
    """Evolve by exponentiating explicit matrices (slow reference path)."""
    from scipy.linalg import expm  # here, like scipy.stats in significance_matrix

    h_cost = dense_cost_matrix(g)
    h_mix = dense_mixer_matrix(g.n)
    dim = 1 << g.n
    psi = np.full(dim, dim ** -0.5, dtype=np.complex128)
    for gamma, beta in zip(sched.raw_gammas, sched.raw_betas):
        psi = expm(-1j * gamma * h_cost) @ psi
        psi = expm(-1j * beta * h_mix) @ psi
    return psi


# ---------------------------------------------------------------------------
# Invariant suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    checks: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _check_engine_oracle_equivalence() -> CheckResult:
    # n = 8, 9 run the multi-block mixer and (n = 9) the split phase rows
    rng = np.random.default_rng(11)
    worst_fid_err = 0.0
    worst_exp_err = 0.0
    for trial in range(54):
        n = int(rng.integers(2, 4)) if trial < 50 else 8 + trial % 2
        p = int(rng.integers(1, 3))
        g = instance.gen_erdos_renyi(n, 1.0, int(rng.integers(0, 2 ** 32)))
        sched = schedule.standard_unpack(rng.uniform(-2 * np.pi, 2 * np.pi, 2 * p), p)
        diag = engine.build_cost_diagonal(g)
        fast = engine.evolve(g, sched, diag=diag)
        dense = dense_oracle_state(g, sched)
        fidelity = abs(np.vdot(fast.amps, dense))
        worst_fid_err = max(worst_fid_err, 1.0 - fidelity)
        exact = engine.expectation_exact(fast, diag)
        dense_exp = float(np.real(np.vdot(dense, dense_cost_matrix(g) @ dense)))
        worst_exp_err = max(worst_exp_err, abs(exact - dense_exp))
    ok = worst_fid_err < 1e-10 and worst_exp_err < 1e-10
    return CheckResult("engine-oracle-equivalence", ok,
                       f"50 instances at n = 2, 3 and 4 at n = 8, 9; "
                       f"max fidelity defect {worst_fid_err:.2e}, "
                       f"max expectation error {worst_exp_err:.2e}")


def _check_norm_preservation() -> CheckResult:
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 5))
        g = instance.gen_erdos_renyi(n, 0.8, int(rng.integers(0, 2 ** 32)))
        sched = schedule.standard_unpack(rng.uniform(0, 2 * np.pi, 2 * p), p)
        state = engine.evolve(g, sched)
        worst = max(worst, abs(state.norm_sq() - 1.0))
    return CheckResult("norm-preservation", worst < 1e-10, f"max norm defect {worst:.2e}")


def _check_beta_periodicity() -> CheckResult:
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, 4))
        g = instance.gen_erdos_renyi(n, 0.9, int(rng.integers(0, 2 ** 32)))
        diag = engine.build_cost_diagonal(g)
        v = rng.uniform(0, 2 * np.pi, 2 * p)
        shifted = v.copy()
        shifted[p:] += 2 * np.pi
        e0 = engine.expectation_exact(engine.evolve(g, schedule.standard_unpack(v, p),
                                                    diag=diag), diag)
        e1 = engine.expectation_exact(engine.evolve(g, schedule.standard_unpack(shifted, p),
                                                    diag=diag), diag)
        worst = max(worst, abs(e0 - e1))
    return CheckResult("mixer-2pi-periodicity", worst < 1e-10, f"max deviation {worst:.2e}")


def _check_sampling_unbiasedness() -> CheckResult:
    g = instance.gen_erdos_renyi(6, 0.8, 7)
    diag = engine.build_cost_diagonal(g)
    sched = schedule.standard_unpack(np.linspace(0.3, 1.1, 6), 3)
    state = engine.evolve(g, sched, diag=diag)
    exact = engine.expectation_exact(state, diag)
    estimates, errors = [], []
    for rep in range(200):
        est, err = engine.expectation_sampled(state, diag, 1024, seed=1000 + rep)
        estimates.append(est)
        errors.append(err)
    pooled = math.sqrt(sum(e * e for e in errors)) / len(errors)
    deviation = abs(statistics.mean(estimates) - exact)
    ok = deviation < 4 * pooled
    return CheckResult("sampled-estimator-unbiased", ok,
                       f"deviation {deviation:.3e} vs 4*pooled {4 * pooled:.3e}")


def _check_kept_half_sampling() -> CheckResult:
    # the half's twist leaves |amps|^2 as it is, so its draws must equal
    # the ones the untwisted full state's CDF gives, index for index
    mismatches = 0
    for n in (8, 9, 12):
        g = instance.gen_erdos_renyi(n, 0.5, 20 + n)
        sched = schedule.standard_unpack(np.random.default_rng(n).uniform(-np.pi, np.pi, 4), 2)
        state = engine.evolve(g, sched)
        cdf = np.cumsum(np.abs(state.amps) ** 2)
        cdf[-1] = 1.0
        for seed in (0, 1, 2):
            from_half = engine._sample_indices(state, 4096, np.random.default_rng(seed))
            u = np.random.default_rng(seed).random(4096)
            from_full = np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)
            mismatches += int(np.sum(from_half != from_full))
    return CheckResult("kept-half-sampling", mismatches == 0,
                       f"{mismatches} of 36864 draws at n = 8, 9, 12 differ from the full CDF")


def _check_mixer_chunks() -> CheckResult:
    # apply_mixer runs each block where its bits lie: at n = 12 three
    # blocks within one chunk; above 2^16 floats the low blocks chunk by
    # chunk and the top block, 3 bits wide at n = 17 and 4 at n = 20, over
    # the whole half. Its pair step runs the half in mirrored pieces of
    # 2^13 amplitudes, first two of them at n = 15. The reference turns one
    # qubit at a time on the full vector
    rng = np.random.default_rng(19)
    worst = 0.0
    for n in (12, 15, 17, 20):
        state = engine.plus_state(n)
        state.half[:] = rng.normal(size=1 << (n - 1)) + 1j * rng.normal(size=1 << (n - 1))
        beta = float(rng.uniform(-np.pi, np.pi))
        c, s = math.cos(beta), math.sin(beta)
        full = state.amps
        for q in range(n):
            pairs = full.reshape(-1, 2, 1 << q)  # axis 1 is bit q
            low, high = pairs[:, 0].copy(), pairs[:, 1].copy()
            pairs[:, 0] = c * low - 1j * s * high
            pairs[:, 1] = c * high - 1j * s * low
        worst = max(worst, float(np.max(np.abs(engine.apply_mixer(state, beta).amps - full))))
    return CheckResult("mixer-chunks", worst <= 1e-12,
                       f"max deviation {worst:.2e} from one-qubit rotations at n = 12 "
                       f"(three blocks in one chunk), n = 15 (two pair-step pieces), "
                       f"n = 17 (3-bit top block) and n = 20 (4-bit top block)")


@contextlib.contextmanager
def _counting_builds():
    """Count the phase rows (``engine._phase_rows``) and the layers of mixer
    blocks (``engine._MixerFactors.build``) the engine builds while open."""
    counts = Counter()
    phase_rows, build = engine._phase_rows, engine._MixerFactors.build

    def counted_rows(*args, **kwargs):
        rows = phase_rows(*args, **kwargs)
        counts["rows"] += len(rows)
        return rows

    def counted_build(self, *args, **kwargs):
        layers = build(self, *args, **kwargs)
        counts["blocks"] += len(layers)
        return layers

    engine._phase_rows, engine._MixerFactors.build = counted_rows, counted_build
    try:
        yield counts
    finally:
        engine._phase_rows, engine._MixerFactors.build = phase_rows, build


def _check_workspace_reuse() -> CheckResult:
    # a run's evaluations share one workspace: every schedule it runs must
    # leave the state, and the readouts from its buffers, that a fresh
    # evolve gives, bit for bit, so no buffer may carry anything over from
    # the schedule before. Random schedules run every layer; moving one
    # angle at a time, as Powell's line searches and the finite-difference
    # probes do, resumes each circuit from the snapshot of the last layer
    # that stayed and rebuilds only the phase rows and mixer blocks whose
    # (diagonal, gamma) or beta key changed. Where a case names the rows
    # and block layers its circuit must build, the counts are checked too:
    # a key that fails to match an angle with the same bits only costs
    # time, and one that matches +0.0 to -0.0 leaves states bit for bit
    # the same, so only the counts catch either. Expectations compare as
    # bits, so that a NaN angle's NaN state compares equal. n = 8 and 12
    # run one pair-step piece, n = 15 two and n = 17 chunked blocks
    rng = np.random.default_rng(23)
    mismatches = miscounts = total = 0
    for n in (8, 12, 15, 17):
        graphs = [instance.gen_erdos_renyi(n, 0.5, seed) for seed in (30 + n, 60 + n)]
        diags = [engine.build_cost_diagonal(g) for g in graphs]
        workspace = engine.Workspace(n, 3)
        base = rng.uniform(-2 * np.pi, 2 * np.pi, 6)

        def moved(i, value):  # angles 0-2 are the layers' gammas, 3-5 their betas
            x = base.copy()
            x[i] = value
            return x

        probes = [moved(i, base[i] + step) for i in (2, 5, 1, 4, 0)  # last layer first
                  for step in (1e-6, -1e-6)]
        nan = moved(1, math.nan)
        # (diagonal, angles, (rows, block layers) its circuit builds or None)
        cases = [(0, x, None) for x in (*rng.uniform(-2 * np.pi, 2 * np.pi, (3, 6)), base, base,
                                        *probes)]
        cases += [(0, probes[-1], (0, 0)), (1, probes[-1], (3, 0)),  # second diagonal
                  (0, base, None), (0, probes[0], (1, 0)), (0, base, (1, 0)),  # revisit
                  (0, probes[0], (1, 0)), (0, moved(3, base[3] + 1e-6), (1, 1)),  # beta0, gamma2
                  (0, nan, (1, 1)), (0, nan, (1, 0)), (0, base, (1, 0)),  # NaN
                  (0, moved(3, 0.0), (0, 1)), (0, moved(3, -0.0), (0, 1))]  # signed zero
        for which, x, builds in cases:
            g, diag = graphs[which], diags[which]
            sched = schedule.standard_unpack(x, 3)
            with _counting_builds() as counts:
                reused = engine.evolve(g, sched, diag=diag, workspace=workspace)
            fresh = engine.evolve(g, sched, diag=diag)
            exact = [np.float64(engine.expectation_exact(s, diag)).view(np.int64)
                     for s in (reused, fresh)]
            same = (np.array_equal(reused.half.view(np.int64), fresh.half.view(np.int64))
                    and exact[0] == exact[1]
                    and np.array_equal(
                        engine._sample_indices(reused, 512, np.random.default_rng(n)),
                        engine._sample_indices(fresh, 512, np.random.default_rng(n))))
            mismatches += not same
            miscounts += builds is not None and builds != (counts["rows"], counts["blocks"])
            total += 1
    return CheckResult("workspace-reuse", mismatches == miscounts == 0,
                       f"{mismatches} of {total} schedules run in one reused workspace at "
                       f"n = 8, 12, 15, 17 differ from a fresh evolve and {miscounts} built "
                       f"other phase rows or mixer blocks than their changed keys call for "
                       f"(random; one angle moved at a time; a point revisited after a probe "
                       f"moved its gamma 2; a beta-only probe of layer 0 after a gamma-only "
                       f"probe of layer 2; a NaN gamma, twice; beta 0 at +0.0, then -0.0; the "
                       f"same angles on a second diagonal)")


def _check_cut_table_levels() -> CheckResult:
    # weights in quarters keep every sum exact, so the split levels the
    # phase rows are built from must rebuild the kept half bit for bit
    rng = np.random.default_rng(21)
    mismatches = total = 0
    for n in (9, 12, 16):
        edges = tuple((i, j, int(rng.integers(1, 13)) / 4) for j in range(n) for i in range(j)
                      if rng.random() < 0.5)
        diag = engine.build_cost_diagonal(instance.WeightedGraph(n=n, edges=edges))
        a, b = engine._split_bits(n)
        lo, cross, hi = np.split(diag.levels, [1 << b, (a + 1) << b])
        bits = (np.arange(1 << a)[:, None] >> np.arange(a)) & 1
        rebuilt = (hi[:, None] + lo + bits @ cross.reshape(a, 1 << b)).ravel()
        mismatches += int(np.sum(rebuilt != diag.values[:rebuilt.size]))
        total += rebuilt.size
    return CheckResult("cut-table-levels", mismatches == 0,
                       f"{mismatches} of {total} kept-half entries at n = 9, 12, 16 differ "
                       f"from the cut table")


def _check_lipschitz_certificate() -> CheckResult:
    rng = np.random.default_rng(14)
    worst = -np.inf
    for _ in range(1000):
        k = int(rng.integers(1, 5))
        params = schedule.HfaParams(
            a=rng.uniform(-1, 1, k),
            b=rng.uniform(-1, 1, k),
            lambda_gamma=float(rng.uniform(0.5, 0.95)),
            lambda_beta=float(rng.uniform(0.5, 0.95)),
            delta_gamma0=float(rng.normal(0, 0.5)),
            delta_beta0=float(rng.normal(0, 0.5)),
            weights=rng.uniform(-1, 1, k),
        )
        for p in (4, 8, 16, 32, 64):
            report = schedule.lipschitz_certificate(params, p)
            worst = max(worst, report.max_violation)
    return CheckResult("lipschitz-certificate", worst <= 1e-12,
                       f"max violation {worst:.2e}")


def _check_layer_gap_decay() -> CheckResult:
    rng = np.random.default_rng(15)
    worst_ratio = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 5))
        params = schedule.HfaParams(
            a=rng.uniform(-1, 1, k), b=rng.uniform(-1, 1, k),
            lambda_gamma=0.0, lambda_beta=0.0,
            delta_gamma0=0.0, delta_beta0=0.0,
            weights=rng.uniform(-1, 1, k),
        )
        bound16 = schedule.lipschitz_certificate(params, 16)
        sched64 = schedule.hfa_generate(params, 64)
        gaps64 = max(np.abs(np.diff(sched64.raw_gammas)).max(),
                     np.abs(np.diff(sched64.raw_betas)).max())
        bound = max(bound16.c_spec_gamma, bound16.c_spec_beta) / 16.0
        if bound > 0:
            worst_ratio = max(worst_ratio, gaps64 / bound)
    return CheckResult("layer-gap-decay", bool(worst_ratio <= 0.25 * (1 + 1e-12)),
                       f"worst gap(p=64) / bound(p=16): {worst_ratio:.6f} (limit 1/4)")


def _check_symmetry_breaking() -> CheckResult:
    rng = np.random.default_rng(16)
    hits = 0
    trials = 200
    for _ in range(trials):
        k = int(rng.integers(2, 5))
        params = optim.LotusInitConfig().draw(k, rng)
        p = int(rng.integers(4, 17))
        raw = schedule.hfa_generate(params, p).raw_gammas
        if not np.array_equal(np.sort(raw), raw):
            hits += 1
    frac = hits / trials
    return CheckResult("permutation-symmetry-breaking", frac >= 0.95,
                       f"{frac:.1%} of draws produce non-sorted schedules")


def _check_hfa_layout() -> CheckResult:
    rng = np.random.default_rng(17)
    for k in (1, 2, 3, 4):
        vec = rng.normal(0, 1, 3 * k + 4)
        params = schedule.HfaParams.from_vector(vec)
        if params.dimension != 3 * k + 4:
            return CheckResult("hfa-vector-layout", False, f"dimension mismatch at K={k}")
        if not np.array_equal(params.to_vector(), vec):
            return CheckResult("hfa-vector-layout", False, f"round trip failed at K={k}")
    ratio = schedule.dimension_ratio(4, 24)
    if ratio != 0.25:
        return CheckResult("hfa-vector-layout", False,
                           f"coefficient ratio (2K+4)/2p = {ratio} != 1/4 at K=4, p=24")
    search = schedule.hfa_dimension(4) / (2 * 24)
    if search != 1 / 3:
        return CheckResult("hfa-vector-layout", False,
                           f"search-dimension ratio (3K+4)/2p = {search} != 1/3 at K=4, p=24")
    return CheckResult("hfa-vector-layout", True,
                       "3K+4 layout round-trips at K = 1..4; at K=4, p=24 the coefficient "
                       "ratio (2K+4)/2p is 1/4 and the search-dimension ratio (3K+4)/2p is 1/3")


def _check_score_properties() -> CheckResult:
    rng = np.random.default_rng(18)
    for trial in range(10_000):
        size = int(rng.integers(1, 7))
        expectations = rng.uniform(0.5, 5.0, size)
        evals = rng.integers(10, 3000, size)
        records = [_synthetic_record(seed=0, optimizer=f"o{i}", expectation=float(e),
                                     evaluations=int(v))
                   for i, (e, v) in enumerate(zip(expectations, evals))]
        scores = score_records(records)
        if not all(0.0 <= s.score <= 1.0 for s in scores):
            return CheckResult("score-properties", False, f"score out of range on trial {trial}")
        scale, shift = float(rng.uniform(0.1, 10)), float(rng.uniform(-5, 5))
        rescaled = [dataclasses.replace(r, expectation=scale * r.expectation + shift)
                    for r in records]
        rescored = score_records(rescaled)
        if not all(abs(a.score - b.score) < 1e-9 for a, b in zip(scores, rescored)):
            return CheckResult("score-properties", False,
                               f"affine invariance failed on trial {trial}")
        if size == 1 and scores[0].score != 1.0:
            return CheckResult("score-properties", False, "singleton group must score 1.0")
    two = [_synthetic_record(0, "a", 2.0, 50), _synthetic_record(0, "b", 1.0, 100)]
    s = score_records(two)
    if not (s[0].score == 1.0 and s[1].score == 0.0):
        return CheckResult("score-properties", False, "endpoint example failed")
    return CheckResult("score-properties", True, "range, affine invariance, endpoints hold")


def _synthetic_record(seed: int, optimizer: str, expectation: float,
                      evaluations: int, k_modes: int = 0,
                      n_qubits: int = 8, depth: int = 8,
                      p_graph: float = 0.75) -> RunRecord:
    return RunRecord(
        seed=seed, optimizer=optimizer, n_qubits=n_qubits, depth=depth,
        p_graph=p_graph, k_modes=k_modes, expectation=expectation,
        expectation_exact=expectation, iterations=max(1, evaluations // 10),
        evaluations=evaluations,
        best_cut=instance.CutResult(bitstring="0" * n_qubits, cut_value=expectation),
        approx_ratio=None, wall_time=0.0,
    )


def invariant_suite() -> SuiteReport:
    """Run every module invariant at its stated scale (release gate)."""
    checks = [
        _check_engine_oracle_equivalence(),
        _check_norm_preservation(),
        _check_beta_periodicity(),
        _check_sampling_unbiasedness(),
        _check_kept_half_sampling(),
        _check_mixer_chunks(),
        _check_workspace_reuse(),
        _check_cut_table_levels(),
        _check_lipschitz_certificate(),
        _check_layer_gap_decay(),
        _check_symmetry_breaking(),
        _check_hfa_layout(),
        _check_score_properties(),
    ]
    return SuiteReport(checks=checks)
