"""Classical optimization layer.

A minimizer front-end with three reference optimizers
("nelder-mead", "powell", "fd-lbfgs", all backed by scipy.optimize behind
this module's budget and bounds contract), plus the two benchmark loops:
the multi-start HFA hyperparameter search and the direct layer-wise
baseline. Evaluation budgets are enforced exactly: the objective refuses
to run past the budget, so reported evaluation counts never exceed it.
"""
from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from . import engine
# perfbench/tracer.py patches optim.brute_force_maxcut by name, so it stays importable here.
from .instance import WeightedGraph, brute_force_maxcut  # noqa: F401
from .records import RunRecord
from .schedule import (HfaParams, Schedule, hfa_dimension, hfa_generate, standard_dimension,
                       standard_unpack)

DEFAULT_BUDGET = 2000  # evaluations for one direct (baseline) run
# The compact hyperparameter search gets a per-restart budget proportional
# to its dimension; a flat 2000 per restart would quintuple the total cost
# of the multi-start loop for no measurable quality gain (about 0.01 in
# approximation ratio at n=8, p=8) and forfeit its efficiency edge.
LOTUS_BUDGET_PER_DIM = 15
DEFAULT_TOL_EXACT = 1e-6
DEFAULT_TOL_SAMPLED = 1e-3  # noise-aware
DEFAULT_SHOTS = 1024
VERIFY_SHOTS = 8192
FD_STEP = 1e-6
LAMBDA_CLAMP = 0.999
# Distribution of the HFA restart draws (LotusInitConfig.draw)
INIT_SIGMA_SPECTRAL = 0.5
INIT_LAMBDA_RANGE = (0.5, 0.95)
INIT_SIGMA_RESIDUAL = 0.1
INIT_WEIGHT_NOISE = 0.1


class BudgetExhausted(Exception):
    """Raised by the evaluation guard when the budget is spent."""


@dataclass
class ObjectiveSpec:
    """Black-box objective with exact call accounting.

    All evaluations go through ``__call__``, which increments
    ``eval_counter`` by exactly one per call and rejects non-finite
    results. The counter is never reset within a run.
    """

    dimension: int
    evaluator: Callable[[np.ndarray], float]
    bounds: list[tuple[float | None, float | None]] | None = None
    eval_counter: int = 0

    def __post_init__(self) -> None:
        # clip limits as arrays, built once: None means unbounded on that side
        self._lo = self._hi = None
        if self.bounds is not None:
            self._lo = np.array([-np.inf if lo is None else lo for lo, _ in self.bounds],
                                dtype=np.float64)
            self._hi = np.array([np.inf if hi is None else hi for _, hi in self.bounds],
                                dtype=np.float64)

    def clamp(self, x: np.ndarray) -> np.ndarray:
        """Copy of ``x`` with every coordinate clipped into its bounds."""
        if self._lo is None:
            return np.array(x, dtype=np.float64)
        return np.minimum(np.maximum(x, self._lo), self._hi)  # np.clip costs twice as much

    def __call__(self, x: np.ndarray) -> float:
        value = float(self.evaluator(x))
        self.eval_counter += 1
        if not np.isfinite(value):
            raise RuntimeError(f"objective returned non-finite value {value} at x={x!r}")
        return value


@dataclass(frozen=True)
class OptimizerOutcome:
    """Best point found, accounting, and the best-so-far trace."""

    x_best: np.ndarray
    f_best: float
    iterations: int
    evaluations: int
    converged: bool
    trace: np.ndarray | None = None


def finite_difference_gradient(fun: Callable[[np.ndarray], float], x: np.ndarray,
                               h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient; costs exactly 2*dimension evaluations."""
    if h <= 0:
        raise ValueError(f"need h > 0, got {h}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty(x.size)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fun(x + step) - fun(x - step)) / (2.0 * h)
    if not np.all(np.isfinite(grad)):
        raise RuntimeError(f"non-finite finite-difference gradient at x={x!r}")
    return grad


def _simplex_edges(bounds, dim: int) -> np.ndarray:
    edges = np.full(dim, 0.25)
    if bounds is not None:
        for i, (lo, hi) in enumerate(bounds):
            if lo is not None and hi is not None:
                edges[i] = 0.1 * (hi - lo)
    return edges


_BIG = 2 ** 31 - 1


def _nelder_mead(fun, x0, bounds, tol, report_iteration):
    dim = x0.size
    simplex = np.tile(x0, (dim + 1, 1))
    simplex[1:] += np.diag(_simplex_edges(bounds, dim))
    res = _scipy_minimize(
        fun, x0, method="Nelder-Mead", bounds=bounds,
        callback=lambda xk: report_iteration(),
        options=dict(initial_simplex=simplex, fatol=tol, xatol=np.inf,
                     maxiter=_BIG, maxfev=_BIG),
    )
    return res.nit, bool(res.success)


def _powell(fun, x0, bounds, tol, report_iteration):
    res = _scipy_minimize(
        fun, x0, method="Powell", bounds=bounds,
        callback=lambda xk: report_iteration(),
        options=dict(ftol=tol, maxiter=_BIG, maxfev=_BIG),
    )
    return res.nit, bool(res.success)


def _fd_lbfgs(fun, x0, bounds, tol, report_iteration):
    res = _scipy_minimize(
        fun, x0, method="L-BFGS-B", jac=lambda x: finite_difference_gradient(fun, x),
        bounds=bounds,
        callback=lambda xk: report_iteration(),
        options=dict(ftol=tol, gtol=1e-8, maxiter=_BIG, maxfun=_BIG),
    )
    return res.nit, bool(res.success)


# Each takes (fun, x0, bounds, tol, report_iteration) and returns
# (iterations or None, converged). fun raises BudgetExhausted when spent.
_OPTIMIZERS: dict[str, Callable] = {
    "nelder-mead": _nelder_mead,
    "powell": _powell,
    "fd-lbfgs": _fd_lbfgs,
}


def optimizer_ids() -> list[str]:
    return sorted(_OPTIMIZERS)


def min_budget(dimension: int) -> int:
    """Fewest evaluations ``minimize`` accepts for a search of this dimension."""
    return dimension + 2


def minimize(
    method: str,
    obj: ObjectiveSpec,
    x0: np.ndarray,
    budget: int = DEFAULT_BUDGET,
    tol: float = DEFAULT_TOL_EXACT,
) -> OptimizerOutcome:
    """Run one optimizer under a strict evaluation budget.

    Bounds are respected by clamping every candidate before evaluation
    (bounded methods additionally keep their iterates feasible natively).
    Deterministic: the same method, x0 and objective reproduce the outcome
    bit-identically.
    """
    if method not in _OPTIMIZERS:
        raise ValueError(f"unknown optimizer {method!r}; known: {optimizer_ids()}")
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.size != obj.dimension:
        raise ValueError(f"x0 has length {x0.size}, objective expects {obj.dimension}")
    if budget < min_budget(obj.dimension):
        raise ValueError(f"budget {budget} below dimension + 2 = {min_budget(obj.dimension)}")
    start = obj.eval_counter
    best_x, best_f, trace, reported = None, np.inf, [], 0

    def guarded(x: np.ndarray) -> float:
        """Budget guard: clamps, evaluates, tracks the best-so-far trace."""
        nonlocal best_x, best_f
        if obj.eval_counter - start >= budget:
            raise BudgetExhausted()
        x = obj.clamp(x)
        f = obj(x)
        if f < best_f:
            best_f, best_x = f, x
        trace.append(best_f)
        return f

    def report_iteration() -> None:
        nonlocal reported
        reported += 1

    try:
        nit, converged = _OPTIMIZERS[method](guarded, x0, obj.bounds, tol, report_iteration)
    except BudgetExhausted:
        nit, converged = None, False
    if best_x is None:  # pragma: no cover - budget >= dim + 2 guarantees evals
        raise RuntimeError("optimizer made no evaluations")
    return OptimizerOutcome(
        x_best=best_x,
        f_best=best_f,
        iterations=max(reported if nit is None else int(nit), 1),
        evaluations=obj.eval_counter - start,
        converged=bool(converged),
        trace=np.asarray(trace),
    )


@dataclass(frozen=True)
class LotusInitConfig:
    """Multi-start initialization for the HFA hyperparameter search; the
    draw distribution is set by the module's INIT_* constants."""

    n_restarts: int = 5

    def __post_init__(self) -> None:
        if self.n_restarts < 1:
            raise ValueError("need n_restarts >= 1")

    def draw(self, k_modes: int, rng: np.random.Generator) -> HfaParams:
        return HfaParams(
            a=rng.normal(0.0, INIT_SIGMA_SPECTRAL, k_modes),
            b=rng.normal(0.0, INIT_SIGMA_SPECTRAL, k_modes),
            lambda_gamma=float(rng.uniform(*INIT_LAMBDA_RANGE)),
            lambda_beta=float(rng.uniform(*INIT_LAMBDA_RANGE)),
            delta_gamma0=float(rng.normal(0.0, INIT_SIGMA_RESIDUAL)),
            delta_beta0=float(rng.normal(0.0, INIT_SIGMA_RESIDUAL)),
            weights=1.0 + rng.normal(0.0, INIT_WEIGHT_NOISE, k_modes),
        )


def _seed_rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, *tags]))


def hfa_bounds(k_modes: int) -> list[tuple[float | None, float | None]]:
    """Search box of an HFA vector: both AR decay rates within +-LAMBDA_CLAMP."""
    bounds: list[tuple[float | None, float | None]] = [(None, None)] * hfa_dimension(k_modes)
    bounds[2 * k_modes] = bounds[2 * k_modes + 1] = (-LAMBDA_CLAMP, LAMBDA_CLAMP)
    return bounds


def optimize(g: WeightedGraph, p: int, method: str,
             starts: Iterable[tuple[np.ndarray, np.random.Generator | None]],
             shots: int, seed: int, budget: int,
             k_modes: int) -> tuple[OptimizerOutcome, Schedule, RunRecord]:
    """The run driver of every optimization: one cut table, one ``minimize``
    per ``(x0, noise_rng)`` start, one verified record.

    ``k_modes > 0`` searches the K-mode HFA vector in ``hfa_bounds``; 0 the
    unbounded 2p layer angles. An evaluation is minus one circuit's
    expectation: exact for ``shots=0`` (``noise_rng`` may then be None),
    else a ``shots``-sample estimate. Every evaluation runs its circuit in
    the run's one ``engine.Workspace``, so none allocates a state-sized
    array. The record's readout (exact and 8192-shot expectation, best
    bitstring) reads the state of the evaluation that set the best
    objective, which the workspace keeps out of reuse; it is not simulated
    again, and its two 8192-shot draws read one CDF of it.
    """
    started = time.perf_counter()
    tol = DEFAULT_TOL_EXACT if shots == 0 else DEFAULT_TOL_SAMPLED
    bounds = hfa_bounds(k_modes) if k_modes else None

    def to_schedule(x: np.ndarray) -> Schedule:
        return hfa_generate(HfaParams.from_vector(x), p) if k_modes else standard_unpack(x, p)

    diag = engine.build_cost_diagonal(g)
    workspace = engine.Workspace(g.n, p)  # every evaluation's buffers
    best: OptimizerOutcome | None = None
    best_f, state = np.inf, None  # the state of the evaluation that set the best objective
    total_evals = total_iters = 0
    for x0, noise_rng in starts:
        def evaluate(x: np.ndarray, noise_rng=noise_rng) -> float:
            nonlocal best_f, state
            evolved = engine.evolve(g, to_schedule(x), diag=diag, workspace=workspace)
            if shots == 0:
                f = -engine.expectation_exact(evolved, diag)
            else:
                f = -engine._sampled_mean(evolved, diag, shots, noise_rng)[0]
            if f < best_f:  # the next evaluation would overwrite it in the workspace
                best_f, state = f, workspace.keep(evolved)
            return f

        obj = ObjectiveSpec(dimension=x0.size, evaluator=evaluate, bounds=bounds)
        outcome = minimize(method, obj, x0, budget=budget, tol=tol)
        total_evals += outcome.evaluations
        total_iters += outcome.iterations
        if best is None or outcome.f_best < best.f_best:
            best = outcome
    assert best is not None

    # minimize and the restart loop keep the first strict minimum too, so
    # state is the evolved best.x_best
    sched = to_schedule(best.x_best)
    exact = engine.expectation_exact(state, diag)
    readout = engine._Readout(half=state.half, workspace=state.workspace)  # one CDF for both
    if shots == 0:
        expectation = exact
    else:
        expectation, _ = engine.expectation_sampled(readout, diag, VERIFY_SHOTS,
                                                    _seed_rng(seed, 90))
    best_cut = engine.sample_best_bitstring(readout, diag, VERIFY_SHOTS, _seed_rng(seed, 91))
    record = RunRecord(
        seed=seed,
        optimizer=method,
        n_qubits=g.n,
        depth=p,
        p_graph=g.p_graph if g.p_graph is not None else float("nan"),
        k_modes=k_modes,
        expectation=expectation,
        expectation_exact=exact,
        iterations=total_iters,
        evaluations=total_evals,
        best_cut=best_cut,
        approx_ratio=exact / float(diag.values.max()),
        wall_time=time.perf_counter() - started,
    )
    return replace(best, iterations=total_iters, evaluations=total_evals), sched, record


def lotus_optimize(
    g: WeightedGraph,
    p: int,
    k_modes: int = 2,
    init: LotusInitConfig | None = None,
    shots: int = DEFAULT_SHOTS,
    seed: int = 0,
    method: str = "nelder-mead",
    budget: int | None = None,
) -> tuple[HfaParams, OptimizerOutcome, RunRecord]:
    """Multi-start HFA hyperparameter search (dimension 3K + 4).

    Each restart draws fresh hyperparameters from ``init`` with a
    sub-seeded stream and minimizes the negative (shot-estimated)
    expectation; the restart with the lowest final objective wins.
    Evaluations and iterations are summed across all restarts, and the
    winning point is re-verified at 8192 shots (exact when shots=0) on the
    state its evaluation already computed.
    The default per-restart budget is LOTUS_BUDGET_PER_DIM * (3K + 4).
    """
    init = init or LotusInitConfig()
    starts = ((init.draw(k_modes, _seed_rng(seed, 10, r)).to_vector(), _seed_rng(seed, 11, r))
              for r in range(init.n_restarts))
    if budget is None:
        budget = LOTUS_BUDGET_PER_DIM * hfa_dimension(k_modes)
    outcome, _, record = optimize(g, p, method, starts, shots, seed, budget, k_modes)
    return HfaParams.from_vector(outcome.x_best), outcome, record


def baseline_optimize(
    g: WeightedGraph,
    p: int,
    method: str,
    shots: int = DEFAULT_SHOTS,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> tuple[Schedule, OptimizerOutcome, RunRecord]:
    """Direct optimization of the 2p layer angles (single start).

    The start point is uniform in [0, 2*pi]^(2p); the shot protocol and
    final verification match the HFA loop.
    """
    starts = [(_seed_rng(seed, 20).uniform(0.0, 2.0 * np.pi, standard_dimension(p)),
               _seed_rng(seed, 21))]
    outcome, sched, record = optimize(g, p, method, starts, shots, seed, budget, 0)
    return sched, outcome, record
