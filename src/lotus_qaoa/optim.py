"""Classical optimization layer.

A pluggable minimizer front-end with three reference optimizers
("nelder-mead", "powell", "fd-lbfgs", all backed by scipy.optimize behind
this module's budget and bounds contract), plus the two benchmark loops:
the multi-start HFA hyperparameter search and the direct layer-wise
baseline. Evaluation budgets are enforced exactly: the objective refuses
to run past the budget, so reported evaluation counts never exceed it.
"""
from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from . import engine
# perfbench/tracer.py patches optim.brute_force_maxcut by name, so it stays importable here.
from .instance import WeightedGraph, brute_force_maxcut  # noqa: F401
from .records import RunRecord
from .schedule import HfaParams, Schedule, hfa_generate, standard_unpack

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
        return np.clip(np.asarray(x, dtype=np.float64), self._lo, self._hi)

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


class _Run:
    """Budget guard: clamps, evaluates, tracks the best-so-far trace."""

    def __init__(self, obj: ObjectiveSpec, budget: int):
        self.obj = obj
        self.budget = budget
        self.used = 0
        self.best_x: np.ndarray | None = None
        self.best_f = np.inf
        self.trace: list[float] = []

    def __call__(self, x: np.ndarray) -> float:
        if self.used >= self.budget:
            raise BudgetExhausted()
        x = self.obj.clamp(x)
        f = self.obj(x)
        self.used += 1
        if f < self.best_f:
            self.best_f = f
            self.best_x = x
        self.trace.append(self.best_f)
        return f


def _central_diff(fun: Callable[[np.ndarray], float], x: np.ndarray, h: float) -> np.ndarray:
    grad = np.empty(x.size)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fun(x + step) - fun(x - step)) / (2.0 * h)
    if not np.all(np.isfinite(grad)):
        raise RuntimeError(f"non-finite finite-difference gradient at x={x!r}")
    return grad


def finite_difference_gradient(obj: ObjectiveSpec, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient; costs exactly 2*dimension evaluations."""
    if h <= 0:
        raise ValueError(f"need h > 0, got {h}")
    return _central_diff(obj, np.asarray(x, dtype=np.float64), h)


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
        fun, x0, method="L-BFGS-B", jac=lambda x: _central_diff(fun, x, FD_STEP),
        bounds=bounds,
        callback=lambda xk: report_iteration(),
        options=dict(ftol=tol, gtol=1e-8, maxiter=_BIG, maxfun=_BIG),
    )
    return res.nit, bool(res.success)


# Plugins take (fun, x0, bounds, tol, report_iteration) and return
# (iterations or None, converged). fun raises BudgetExhausted when spent.
_OPTIMIZERS: dict[str, Callable] = {
    "nelder-mead": _nelder_mead,
    "powell": _powell,
    "fd-lbfgs": _fd_lbfgs,
}


def register_optimizer(name: str, fn: Callable) -> None:
    """Add an external optimizer under a stable method id."""
    _OPTIMIZERS[name] = fn


def optimizer_ids() -> list[str]:
    return sorted(_OPTIMIZERS)


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
    if budget < obj.dimension + 2:
        raise ValueError(f"budget {budget} below dimension + 2 = {obj.dimension + 2}")
    run = _Run(obj, budget)
    iter_count = [0]

    def report_iteration() -> None:
        iter_count[0] += 1

    try:
        nit, converged = _OPTIMIZERS[method](run, x0, obj.bounds, tol, report_iteration)
        iterations = iter_count[0] if nit is None else int(nit)
    except BudgetExhausted:
        iterations = iter_count[0]
        converged = False
    if run.best_x is None:  # pragma: no cover - budget >= dim + 2 guarantees evals
        raise RuntimeError("optimizer made no evaluations")
    return OptimizerOutcome(
        x_best=run.best_x,
        f_best=run.best_f,
        iterations=max(iterations, 1),
        evaluations=run.used,
        converged=bool(converged),
        trace=np.asarray(run.trace),
    )


@dataclass(frozen=True)
class LotusInitConfig:
    """Multi-start initialization for the HFA hyperparameter search."""

    n_restarts: int = 5
    sigma_spectral: float = 0.5
    lambda_range: tuple[float, float] = (0.5, 0.95)
    sigma_residual: float = 0.1
    weight_noise: float = 0.1

    def __post_init__(self) -> None:
        if self.n_restarts < 1:
            raise ValueError("need n_restarts >= 1")
        lo, hi = self.lambda_range
        if not (-1.0 < lo <= hi < 1.0):
            raise ValueError("lambda_range must sit inside (-1, 1)")

    def draw(self, k_modes: int, rng: np.random.Generator) -> HfaParams:
        return HfaParams(
            a=rng.normal(0.0, self.sigma_spectral, k_modes),
            b=rng.normal(0.0, self.sigma_spectral, k_modes),
            lambda_gamma=float(rng.uniform(*self.lambda_range)),
            lambda_beta=float(rng.uniform(*self.lambda_range)),
            delta_gamma0=float(rng.normal(0.0, self.sigma_residual)),
            delta_beta0=float(rng.normal(0.0, self.sigma_residual)),
            weights=1.0 + rng.normal(0.0, self.weight_noise, k_modes),
        )


def _seed_rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, *tags]))


def _negative_expectation_objective(
    g: WeightedGraph,
    diag: engine.CostDiagonal,
    to_schedule: Callable[[np.ndarray], Schedule],
    shots: int,
    noise_rng: np.random.Generator,
) -> Callable[[np.ndarray], float]:
    def evaluate(x: np.ndarray) -> float:
        state = engine.evolve(g, to_schedule(x), diag=diag)
        if shots == 0:
            return -engine.expectation_exact(state, diag)
        est, _ = engine.expectation_sampled(state, diag, shots, noise_rng)
        return -est

    return evaluate


def _verify_and_record(
    g: WeightedGraph,
    diag: engine.CostDiagonal,
    sched: Schedule,
    *,
    seed: int,
    optimizer: str,
    k_modes: int,
    shots: int,
    iterations: int,
    evaluations: int,
    maxcut_value: float | None,
    started: float,
) -> RunRecord:
    """Final high-shot verification at the best point found."""
    state = engine.evolve(g, sched, diag=diag)
    exact = engine.expectation_exact(state, diag)
    if shots == 0:
        expectation = exact
    else:
        expectation, _ = engine.expectation_sampled(state, diag, VERIFY_SHOTS, _seed_rng(seed, 90))
    best_cut = engine.sample_best_bitstring(state, diag, VERIFY_SHOTS, _seed_rng(seed, 91))
    if maxcut_value is None:
        maxcut_value = float(diag.values.max())
    ratio = exact / maxcut_value
    return RunRecord(
        seed=seed,
        optimizer=optimizer,
        n_qubits=g.n,
        depth=sched.depth,
        p_graph=g.p_graph if g.p_graph is not None else float("nan"),
        k_modes=k_modes,
        expectation=expectation,
        expectation_exact=exact,
        iterations=iterations,
        evaluations=evaluations,
        best_cut=best_cut,
        approx_ratio=ratio,
        wall_time=time.perf_counter() - started,
    )


def lotus_optimize(
    g: WeightedGraph,
    p: int,
    k_modes: int = 2,
    init: LotusInitConfig | None = None,
    shots: int = DEFAULT_SHOTS,
    seed: int = 0,
    method: str = "nelder-mead",
    budget: int | None = None,
    tol: float | None = None,
    maxcut_value: float | None = None,
) -> tuple[HfaParams, OptimizerOutcome, RunRecord]:
    """Multi-start HFA hyperparameter search (dimension 3K + 4).

    Each restart draws fresh hyperparameters from ``init`` with a
    sub-seeded stream and minimizes the negative (shot-estimated)
    expectation; the restart with the lowest final objective wins.
    Evaluations and iterations are summed across all restarts, and the
    winning point is re-verified at 8192 shots (exact when shots=0).
    The default per-restart budget is LOTUS_BUDGET_PER_DIM * (3K + 4).
    """
    started = time.perf_counter()
    init = init or LotusInitConfig()
    tol = (DEFAULT_TOL_EXACT if shots == 0 else DEFAULT_TOL_SAMPLED) if tol is None else tol
    diag = engine.build_cost_diagonal(g)
    dim = 3 * k_modes + 4
    budget = LOTUS_BUDGET_PER_DIM * dim if budget is None else budget
    bounds: list[tuple[float | None, float | None]] = [(None, None)] * dim
    bounds[2 * k_modes] = (-LAMBDA_CLAMP, LAMBDA_CLAMP)
    bounds[2 * k_modes + 1] = (-LAMBDA_CLAMP, LAMBDA_CLAMP)

    best: OptimizerOutcome | None = None
    total_evals = 0
    total_iters = 0
    for restart in range(init.n_restarts):
        x0 = init.draw(k_modes, _seed_rng(seed, 10, restart)).to_vector()
        obj = ObjectiveSpec(
            dimension=dim,
            evaluator=_negative_expectation_objective(
                g, diag, lambda x: hfa_generate(HfaParams.from_vector(x), p),
                shots, _seed_rng(seed, 11, restart),
            ),
            bounds=bounds,
        )
        outcome = minimize(method, obj, x0, budget=budget, tol=tol)
        total_evals += outcome.evaluations
        total_iters += outcome.iterations
        if best is None or outcome.f_best < best.f_best:
            best = outcome
    assert best is not None
    params = HfaParams.from_vector(best.x_best)
    record = _verify_and_record(
        g, diag, hfa_generate(params, p),
        seed=seed, optimizer=method, k_modes=k_modes, shots=shots,
        iterations=total_iters, evaluations=total_evals,
        maxcut_value=maxcut_value, started=started,
    )
    summary = OptimizerOutcome(
        x_best=best.x_best, f_best=best.f_best, iterations=total_iters,
        evaluations=total_evals, converged=best.converged, trace=best.trace,
    )
    return params, summary, record


def baseline_optimize(
    g: WeightedGraph,
    p: int,
    method: str,
    shots: int = DEFAULT_SHOTS,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    tol: float | None = None,
    maxcut_value: float | None = None,
) -> tuple[Schedule, OptimizerOutcome, RunRecord]:
    """Direct optimization of the 2p layer angles (single start).

    The start point is uniform in [0, 2*pi]^(2p); the shot protocol and
    final verification match the HFA loop.
    """
    started = time.perf_counter()
    tol = (DEFAULT_TOL_EXACT if shots == 0 else DEFAULT_TOL_SAMPLED) if tol is None else tol
    diag = engine.build_cost_diagonal(g)
    x0 = _seed_rng(seed, 20).uniform(0.0, 2.0 * np.pi, 2 * p)
    obj = ObjectiveSpec(
        dimension=2 * p,
        evaluator=_negative_expectation_objective(
            g, diag, lambda x: standard_unpack(x, p), shots, _seed_rng(seed, 21),
        ),
    )
    outcome = minimize(method, obj, x0, budget=budget, tol=tol)
    sched = standard_unpack(outcome.x_best, p)
    record = _verify_and_record(
        g, diag, sched,
        seed=seed, optimizer=method, k_modes=0, shots=shots,
        iterations=outcome.iterations, evaluations=outcome.evaluations,
        maxcut_value=maxcut_value, started=started,
    )
    return sched, outcome, record
