"""Benchmark protocol: sweeps, the composite score, statistics, checks.

The sweep runs every configured optimizer on the same instances with
cell-derived sub-seeds, appending records to a newline-delimited JSON
store as they finish (crash-safe; reruns skip completed work). Scoring
follows the composite quality/efficiency metric: within each instance
cell, expectations and evaluation counts are min-max normalized (the
latter inverted) and combined as alpha * E_norm + (1 - alpha) * I_norm.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.linalg import expm
from scipy.stats import wilcoxon

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
        for name, values in [("qubits", self.qubits), ("depths", self.depths),
                             ("densities", self.densities), ("modes", self.modes),
                             ("optimizers", self.optimizers)]:
            if len(values) == 0:
                raise ValueError(f"{name} must be non-empty")
        if self.seeds < 1:
            raise ValueError("need at least one seed per cell")

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


def _run_seed(cfg: SweepConfig, n: int, p: int, density: float, seed_idx: int,
              optimizer: str, k_modes: int) -> int:
    opt_tag = sum(map(ord, optimizer))
    ss = np.random.SeedSequence(
        [cfg.base_seed & 0xFFFFFFFFFFFFFFFF, 2, n, p, _density_key(density),
         seed_idx, opt_tag, k_modes])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _sweep_task(args: tuple) -> RunRecord:
    """One (cell, optimizer[, K]) run; module-level so worker pools can pickle it."""
    cfg_dict, n, p, density, seed_idx, optimizer, k_modes = args
    cfg = SweepConfig.from_dict(cfg_dict)
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
    cfg_dict = dataclasses.asdict(cfg)
    tasks = []
    for n, p, density, seed_idx in product(cfg.qubits, cfg.depths, cfg.densities,
                                           range(cfg.seeds)):
        for optimizer in cfg.optimizers:
            if optimizer == "lotus":
                for k in cfg.modes:
                    tasks.append((cfg_dict, n, p, density, seed_idx, optimizer, k))
            else:
                tasks.append((cfg_dict, n, p, density, seed_idx, optimizer, 0))
    return tasks


def run_sweep(cfg: SweepConfig, workers: int | None = None) -> list[RunRecord]:
    """Execute every cell of the sweep, appending records to cfg.out.

    A config sidecar (cfg.out + ".config.json") marks the sweep; rerunning
    with the same config resumes, skipping runs already on disk; a torn
    final line left by a crash mid-append is cut off and its run redone.
    Record content is independent of the worker count (all randomness is
    derived from cell-local seeds); only completion order may differ.
    """
    workers = default_workers() if workers is None else max(1, workers)
    sidecar = cfg.out + ".config.json"
    done: set[tuple] = set()
    existing: list[RunRecord] = []
    if os.path.exists(cfg.out):
        if os.path.exists(sidecar):
            with open(sidecar, "r", encoding="utf-8") as fh:
                if fh.read().strip() != cfg.to_json():
                    raise ValueError(
                        f"{cfg.out} was produced by a different config; "
                        "remove it or choose another output path")
        existing = resume_records(cfg.out)
        done = {r.run_key() for r in existing}
    with open(sidecar, "w", encoding="utf-8") as fh:
        fh.write(cfg.to_json() + "\n")

    pending = []
    for task in _sweep_tasks(cfg):
        _, n, p, density, seed_idx, optimizer, k_modes = task
        if (n, p, density, seed_idx, optimizer, k_modes) not in done:
            pending.append(task)

    fresh: list[RunRecord] = []
    if workers == 1:
        for task in pending:
            record = _sweep_task(task)
            append_record(cfg.out, record)
            fresh.append(record)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for record in pool.map(_sweep_task, pending):
                append_record(cfg.out, record)
                fresh.append(record)
    records = existing + fresh
    write_csv(cfg.out + ".csv", records)
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
            raise ValueError(f"several mode counts present {ks}; pick one via k_modes")
        k_modes = ks[0]
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


@dataclass(frozen=True)
class SignificanceMatrix:
    """Pairwise Wilcoxon signed-rank p-values on per-cell expectations.

    Entries are NaN (and not significant) when fewer than ``min_pairs``
    shared cells exist for a pair.
    """

    labels: list[str]
    p_values: np.ndarray
    significant: np.ndarray
    alpha: float
    min_pairs: int = 5


def significance_matrix(records: list[RunRecord], alpha: float = 0.05,
                        min_pairs: int = 5) -> SignificanceMatrix:
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
            if len(shared) < min_pairs:
                continue
            diffs = np.array([by_label[labels[i]][c] - by_label[labels[j]][c] for c in shared])
            if i == j or np.all(diffs == 0.0):
                p = 1.0
            else:
                p = float(wilcoxon(diffs).pvalue)
            p_values[i, j] = p
            significant[i, j] = p < alpha
    return SignificanceMatrix(labels=labels, p_values=p_values,
                              significant=significant, alpha=alpha, min_pairs=min_pairs)


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


def transfer_expectation(g: instance.WeightedGraph, params: schedule.HfaParams,
                         p: int) -> float:
    """Exact expectation of the resampled schedule at depth p."""
    diag = engine.build_cost_diagonal(g)
    state = engine.evolve(g, schedule.resample(params, p), diag=diag)
    return engine.expectation_exact(state, diag)


def depth_transfer_experiment(
    g: instance.WeightedGraph,
    params: schedule.HfaParams,
    p_source: int,
    depths: tuple[int, ...],
    hot_start: bool = False,
    seed: int = 0,
    method: str = "nelder-mead",
    budget: int | None = None,
) -> list[DepthTransferRow]:
    """Gap table for a schedule resampled across depths (exact mode).

    With ``hot_start`` each depth also runs a from-scratch multi-start
    search (cold) and a single warm run initialized at the resampled
    hyperparameters, reporting how many evaluations the warm run needed to
    reach the cold run's final quality. ``budget`` is per restart for the
    cold run and total for the warm run; None picks the scaled default.
    """
    if budget is None:
        budget = optim.LOTUS_BUDGET_PER_DIM * params.dimension
    diag = engine.build_cost_diagonal(g)
    rows: list[DepthTransferRow] = []
    prev: float | None = None
    for p in depths:
        state = engine.evolve(g, schedule.resample(params, p), diag=diag)
        expectation = engine.expectation_exact(state, diag)
        gap = None if prev is None else abs(expectation - prev)
        cold_e = cold_evals = warm_e = warm_to_match = matched = None
        if hot_start and p != p_source:
            _, cold_out, cold_rec = optim.lotus_optimize(
                g, p, k_modes=params.k_modes, shots=0, seed=seed,
                method=method, budget=budget)
            cold_e, cold_evals = cold_rec.expectation_exact, cold_out.evaluations
            obj = optim.ObjectiveSpec(
                dimension=params.dimension,
                evaluator=lambda x, _p=p: -engine.expectation_exact(
                    engine.evolve(g, schedule.hfa_generate(
                        schedule.HfaParams.from_vector(x), _p), diag=diag), diag),
            )
            warm = optim.minimize(method, obj, params.to_vector(), budget=budget,
                                  tol=optim.DEFAULT_TOL_EXACT)
            warm_e = -warm.f_best
            target = -cold_e
            reached = np.nonzero(warm.trace <= target)[0]
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
    rng = np.random.default_rng(11)
    worst_fid_err = 0.0
    worst_exp_err = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 4))
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
    for _ in range(100):
        k = int(rng.integers(1, 5))
        params = schedule.HfaParams(
            a=rng.uniform(-1, 1, k), b=rng.uniform(-1, 1, k),
            lambda_gamma=0.0, lambda_beta=0.0,
            delta_gamma0=0.0, delta_beta0=0.0,
            weights=rng.uniform(-1, 1, k),
        )
        bound16 = schedule.lipschitz_certificate(params, 16)
        gaps64 = max(
            np.abs(np.diff(schedule.hfa_generate(params, 64).raw_gammas)).max(),
            np.abs(np.diff(schedule.hfa_generate(params, 64).raw_betas)).max(),
        )
        bound = max(bound16.c_spec_gamma, bound16.c_spec_beta) / 16.0
        if bound > 0:
            worst_ratio = max(worst_ratio, gaps64 / bound)
    return CheckResult("layer-gap-decay", worst_ratio <= 0.25 + 1e-12,
                       f"worst gap(p=64) over quarter bound(p=16): {worst_ratio:.4f}")


def _check_symmetry_breaking() -> CheckResult:
    rng = np.random.default_rng(16)
    hits = 0
    trials = 200
    for _ in range(trials):
        k = int(rng.integers(2, 5))
        params = schedule.HfaParams(
            a=rng.normal(0, 0.5, k), b=rng.normal(0, 0.5, k),
            lambda_gamma=float(rng.uniform(0.5, 0.95)),
            lambda_beta=float(rng.uniform(0.5, 0.95)),
            delta_gamma0=float(rng.normal(0, 0.1)),
            delta_beta0=float(rng.normal(0, 0.1)),
            weights=1.0 + rng.normal(0, 0.1, k),
        )
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
        return CheckResult("hfa-vector-layout", False, f"dimension ratio {ratio} != 0.25")
    return CheckResult("hfa-vector-layout", True, "3K+4 layout round-trips; ratio checks pass")


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
        _check_lipschitz_certificate(),
        _check_layer_gap_decay(),
        _check_symmetry_breaking(),
        _check_hfa_layout(),
        _check_score_properties(),
    ]
    return SuiteReport(checks=checks)
