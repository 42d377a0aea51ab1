import dataclasses
import tracemalloc

import numpy as np
import pytest

from lotus_qaoa import engine, instance, optim
from lotus_qaoa.instance import WeightedGraph, brute_force_maxcut, gen_erdos_renyi
from lotus_qaoa.optim import (
    DEFAULT_BUDGET,
    LOTUS_BUDGET_PER_DIM,
    LotusInitConfig,
    baseline_optimize,
    finite_difference_gradient,
    lotus_optimize,
    minimize,
)
from lotus_qaoa.schedule import hfa_generate, standard_unpack

METHODS = ("nelder-mead", "powell", "fd-lbfgs")
SINGLE_EDGE = WeightedGraph(n=2, edges=((0, 1, 1.0),))


def sphere(x):
    return float(np.sum(np.square(x)))


class Counted:
    """Fake objective: records every point it is handed, then calls ``fun``."""

    def __init__(self, fun=sphere):
        self.fun, self.points = fun, []

    def __call__(self, x):
        self.points.append(np.array(x))
        return self.fun(x)


def probe(*points):
    """A method for ``optim._OPTIMIZERS`` that evaluates ``points`` and stops."""
    def method(fun, x0, bounds, tol, report_iteration):
        for x in points:
            fun(x)
        return 1, True
    return method


class TestGuard:
    def test_counts_every_call(self, monkeypatch):
        monkeypatch.setitem(optim._OPTIMIZERS, "probe", probe(*np.eye(2)))
        fun = Counted()
        out = minimize("probe", fun, np.zeros(2))
        assert len(fun.points) == out.evaluations == out.trace.size == 2

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("stop", ["budget", "converged"])
    def test_calls_equal_evaluations_and_trace_size(self, method, stop):
        fun = Counted()
        budget = 5 if stop == "budget" else 2000
        out = minimize(method, fun, np.array([1.0, -2.0, 0.5]), budget=budget)
        assert out.converged == (stop == "converged")
        assert len(fun.points) == out.evaluations == out.trace.size
        assert out.evaluations == budget if stop == "budget" else out.evaluations < budget

    @pytest.mark.parametrize("budget", [5, 10, 16])  # it converges after 21
    def test_fd_lbfgs_stopped_inside_a_gradient(self, monkeypatch, budget):
        gradients = []
        gradient = optim.finite_difference_gradient

        def entered(fun, x, **kwargs):
            gradients.append("entered")
            grad = gradient(fun, x, **kwargs)
            gradients.append("left")
            return grad

        monkeypatch.setattr(optim, "finite_difference_gradient", entered)
        fun = Counted()
        out = minimize("fd-lbfgs", fun, np.array([1.0, -2.0, 0.5]), budget=budget)
        assert gradients[-1] == "entered"  # the budget ran out between its calls
        assert len(fun.points) == out.evaluations == out.trace.size == budget

    def test_fd_lbfgs_takes_the_whole_derivative_on_a_bound(self, monkeypatch):
        # x + h on the upper bound would be clipped back onto x, halving the
        # central difference to [-2, -6]
        gradients = []
        gradient = optim.finite_difference_gradient

        def logged(fun, x, **kwargs):
            gradients.append(gradient(fun, x, **kwargs))
            return gradients[-1]

        monkeypatch.setattr(optim, "finite_difference_gradient", logged)
        fun = Counted(lambda x: float(np.sum((x - 3.0) ** 2)))
        minimize("fd-lbfgs", fun, np.array([1.0, 0.0]), budget=50,
                 bounds=[(-1.0, 1.0), (-1.0, 1.0)])
        assert np.allclose(gradients[0], [-4.0, -6.0], atol=1e-5)
        assert np.all(np.abs(np.array(fun.points)) <= 1.0)

    @pytest.mark.parametrize("method", METHODS)
    def test_every_point_lies_inside_the_bounds(self, method):
        bounds = [(-1.0, 1.0), (0.0, 2.0), (None, 0.5)]
        fun = Counted(lambda x: float(np.sum((x - 3.0) ** 2)))
        minimize(method, fun, np.array([1.0, 0.0, 0.5]), budget=300, bounds=bounds)
        points = np.array(fun.points)
        assert np.all(points[:, :2] >= [-1.0, 0.0]) and np.all(points <= [1.0, 2.0, 0.5])

    def test_clips_into_bounds(self, monkeypatch):
        monkeypatch.setitem(optim._OPTIMIZERS, "probe", probe(np.full(3, 5.0)))
        fun = Counted(lambda x: 0.0)
        out = minimize("probe", fun, np.zeros(3),
                       bounds=[(-1.0, 1.0), (None, 0.5), (None, None)])
        assert fun.points[0].tolist() == out.x_best.tolist() == [1.0, 0.5, 5.0]

    def test_keeps_a_copy_when_unbounded(self, monkeypatch):
        x = np.full(2, 0.5)
        monkeypatch.setitem(optim._OPTIMIZERS, "probe", probe(x))
        out = minimize("probe", sphere, np.zeros(2))
        x[:] = 9.0  # a method may reuse its arrays
        assert out.x_best.tolist() == [0.5, 0.5]

    def test_non_finite_aborts_with_diagnostic(self):
        with pytest.raises(RuntimeError, match=r"non-finite value nan at x=array"):
            minimize("powell", lambda x: float("nan"), np.zeros(1))


class TestMinimize:
    @pytest.mark.parametrize("method", METHODS)
    def test_sphere_smoke(self, method):
        dim = 4
        out = minimize(method, sphere, np.full(dim, 0.8), budget=500 * dim)
        assert out.f_best < 1e-6
        assert out.evaluations <= 500 * dim
        assert np.allclose(out.x_best, 0.0, atol=0.05)

    @pytest.mark.parametrize("method", METHODS)
    def test_budget_never_exceeded(self, method):
        dim = 5
        fun = Counted()
        out = minimize(method, fun, np.full(dim, 2.0), budget=dim + 2)
        assert out.evaluations == dim + 2  # the guard stopped the method at the budget
        assert not out.converged
        assert len(fun.points) == out.evaluations

    @pytest.mark.parametrize("method", METHODS)
    def test_deterministic(self, method):
        out1 = minimize(method, sphere, np.array([1.0, -2.0, 0.5]), budget=200)
        out2 = minimize(method, sphere, np.array([1.0, -2.0, 0.5]), budget=200)
        assert out1.f_best == out2.f_best
        assert np.array_equal(out1.x_best, out2.x_best)
        assert (out1.iterations, out1.evaluations, out1.converged) == \
            (out2.iterations, out2.evaluations, out2.converged)
        assert np.array_equal(out1.trace, out2.trace)

    @pytest.mark.parametrize("method", METHODS)
    def test_trace_monotone_non_increasing(self, method):
        rng = np.random.default_rng(0)
        out = minimize(method, lambda x: sphere(x) + 0.3 * np.sin(5 * x).sum(),
                       rng.uniform(-2, 2, 3), budget=300)
        assert np.all(np.diff(out.trace) <= 0.0)
        assert out.trace.size == out.evaluations
        assert out.trace[-1] == out.f_best

    @pytest.mark.parametrize("method", METHODS)
    def test_accounting_invariants(self, method):
        out = minimize(method, sphere, np.full(4, 1.5), budget=600)
        assert out.evaluations >= out.iterations >= 1

    @pytest.mark.parametrize("method", METHODS)
    def test_f_best_consistent_with_x_best(self, method):
        out = minimize(method, sphere, np.array([1.0, -0.5, 2.0]), budget=300)
        assert sphere(out.x_best) == out.f_best  # exact mode, no noise

    @pytest.mark.parametrize("method", METHODS)
    def test_bounds_respected(self, method):
        # optimum of the unconstrained problem sits outside the box
        out = minimize(method, lambda x: float(np.sum((x - 3.0) ** 2)), np.zeros(2),
                       budget=400, bounds=[(-1.0, 1.0), (-1.0, 1.0)])
        assert np.all(out.x_best >= -1.0) and np.all(out.x_best <= 1.0)
        assert out.f_best == pytest.approx(8.0, rel=1e-3)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            minimize("cobyla", sphere, np.zeros(2))

    def test_bounds_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="bounds has length 2, x0 has 3"):
            minimize("powell", sphere, np.zeros(3), bounds=[(0.0, 1.0)] * 2)

    def test_budget_precondition(self):
        with pytest.raises(ValueError, match="budget"):
            minimize("powell", sphere, np.zeros(4), budget=5)

    def test_non_finite_objective_aborts(self):
        with pytest.raises(RuntimeError, match="non-finite"):
            minimize("nelder-mead", lambda x: float("inf"), np.zeros(2), budget=100)


class TestFiniteDifferenceGradient:
    def test_quadratic(self):
        grad = finite_difference_gradient(sphere, np.array([1.0, 2.0]), h=1e-5)
        assert np.allclose(grad, [2.0, 4.0], atol=1e-8)

    def test_constant_function(self):
        assert np.array_equal(finite_difference_gradient(lambda x: 7.5, np.zeros(3)),
                              np.zeros(3))

    def test_costs_two_evals_per_coordinate(self):
        fun = Counted()
        finite_difference_gradient(fun, np.zeros(4))
        assert len(fun.points) == 8

    def test_one_sided_on_either_bound(self):
        fun = Counted(lambda x: float(np.sum((x - 3.0) ** 2)))
        grad = finite_difference_gradient(fun, np.array([1.0, -1.0, 0.0]), h=1e-6,
                                          bounds=[(-1.0, 1.0), (-1.0, 1.0), (None, None)])
        assert np.allclose(grad, [-4.0, -8.0, -6.0], atol=1e-5)
        assert len(fun.points) == 6
        assert np.all(np.abs(np.array(fun.points)[:, :2]) <= 1.0)

    def test_unbounded_coordinates_match_the_unbounded_call(self):
        x = np.array([0.3, -1.7, 2.9])
        open_box = [(None, None), (-5.0, None), (None, 5.0)]
        assert np.array_equal(finite_difference_gradient(sphere, x, bounds=open_box),
                              finite_difference_gradient(sphere, x))

    def test_no_room_on_either_side(self):
        with pytest.raises(ValueError, match="leave no step"):
            finite_difference_gradient(sphere, np.zeros(1), h=1e-3, bounds=[(-1e-4, 1e-4)])

    def test_requires_positive_step(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(sphere, np.zeros(2), h=0.0)

    def test_matches_five_point_stencil_on_circuit_objective(self):
        g = gen_erdos_renyi(5, 0.8, seed=3)
        diag = engine.build_cost_diagonal(g)
        p = 2

        def f(x):
            state = engine.evolve(g, standard_unpack(x, p), diag=diag)
            return -engine.expectation_exact(state, diag)

        rng = np.random.default_rng(4)
        x = rng.uniform(0, 2 * np.pi, 2 * p)
        grad = finite_difference_gradient(f, x, h=1e-4)
        h = 1e-2
        rich = np.empty_like(grad)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = 1.0
            rich[i] = (-f(x + 2 * h * e) + 8 * f(x + h * e)
                       - 8 * f(x - h * e) + f(x - 2 * h * e)) / (12 * h)
        assert np.allclose(grad, rich, rtol=1e-4, atol=1e-7)


@pytest.mark.parametrize("run", [
    lambda g: lotus_optimize(g, 2, k_modes=1, shots=256, seed=1, budget=20),
    lambda g: baseline_optimize(g, 2, method="powell", shots=256, seed=1, budget=20),
], ids=["lotus", "baseline"])
def test_one_cut_table_per_run(monkeypatch, run):
    g = gen_erdos_renyi(5, 0.8, seed=2)
    original = instance._cut_values_all
    calls = []

    def counted(graph):
        calls.append(graph)
        return original(graph)

    # engine imports _cut_values_all by name, so count it under both names
    monkeypatch.setattr(instance, "_cut_values_all", counted)
    monkeypatch.setattr(engine, "_cut_values_all", counted)
    _, _, record = run(g)
    assert len(calls) == 1
    assert record.approx_ratio == record.expectation_exact / original(g).max()


def _lotus_run(g, shots):
    params, _, record = lotus_optimize(g, 3, k_modes=1, init=LotusInitConfig(n_restarts=2),
                                       shots=shots, seed=3, budget=25)
    return hfa_generate(params, 3), record


def _baseline_run(g, shots):
    sched, _, record = baseline_optimize(g, 3, method="powell", shots=shots, seed=3,
                                         budget=25)
    return sched, record


@pytest.mark.parametrize("shots", [0, 256])
@pytest.mark.parametrize("run, n", [(_lotus_run, 6), (_baseline_run, 6),
                                    (_lotus_run, 15), (_baseline_run, 15)],
                         ids=["lotus", "baseline", "lotus-n15", "baseline-n15"])
def test_readout_equals_a_fresh_evolve(run, n, shots):
    """The record reads the winning evaluation's state: its exact and
    8192-shot expectation and best cut equal a fresh ``evolve`` of the
    returned schedule's, bit for bit. Later evaluations run in the same
    workspace, so the state must have been kept out of reuse; n = 15 runs
    the pair step in pieces."""
    g = gen_erdos_renyi(n, 0.7, seed=4)
    sched, record = run(g, shots)
    diag = engine.build_cost_diagonal(g)
    state = engine.evolve(g, sched, diag=diag)
    exact = engine.expectation_exact(state, diag)
    assert record.expectation_exact == exact
    if shots == 0:
        assert record.expectation == exact
    else:
        assert record.expectation == engine.expectation_sampled(
            state, diag, optim.VERIFY_SHOTS, optim._seed_rng(3, 90))[0]
    assert record.best_cut == engine.sample_best_bitstring(
        state, diag, optim.VERIFY_SHOTS, optim._seed_rng(3, 91))


@pytest.mark.parametrize("shots", [0, 256])
def test_readout_builds_one_cdf(monkeypatch, shots):
    """The record's 8192-shot expectation and its best cut draw from one
    CDF of the winning state, built once (the evaluations' sampled
    objectives build their own)."""
    built = []
    cdf = engine.MirroredHalf._cdf

    def counted(self):
        built.append(type(self))
        return cdf(self)

    monkeypatch.setattr(engine.MirroredHalf, "_cdf", counted)
    _baseline_run(gen_erdos_renyi(6, 0.7, seed=4), shots)
    assert built.count(engine._Readout) == 1
    assert len(built) == 1 + (25 if shots else 0)


@pytest.mark.parametrize("shots", [0, 1024])
def test_later_evaluations_allocate_no_state_sized_array(monkeypatch, shots):
    """After the first evaluation a run reuses its workspace: no evaluation
    allocates an array as large as the kept half (2^16 amplitudes, 1 MiB,
    at n = 17; numpy's ufunc iteration buffers stay near 450 KiB whatever
    n is). numpy reports its arrays to tracemalloc; the peak traced between
    two ``evolve`` calls, and from the last one to the end of the run with
    its readout, bounds what one evaluation allocates at once."""
    g = gen_erdos_renyi(17, 0.5, seed=5)
    half_bytes = np.dtype(np.complex128).itemsize << 16
    marks = []
    evolve = engine.evolve

    def marked(*args, **kwargs):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return evolve(*args, **kwargs)

    monkeypatch.setattr(engine, "evolve", marked)
    tracemalloc.start()
    try:
        _, out, _ = lotus_optimize(g, 2, k_modes=1, init=LotusInitConfig(n_restarts=1),
                                   shots=shots, seed=6, budget=12)
        marks.append(tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(marks) == out.evaluations + 1 >= 5
    # evaluation i runs from mark i to mark i + 1; the first one sets up
    grown = [peak - start for (start, _), (_, peak) in zip(marks[1:], marks[2:])]
    assert max(grown) < half_bytes, grown


class TestLotusOptimize:
    def test_single_edge_reaches_optimum(self):
        params, out, record = lotus_optimize(SINGLE_EDGE, 1, k_modes=1, shots=0, seed=0)
        assert record.expectation_exact >= 0.95
        assert record.approx_ratio >= 0.95

    def test_search_dimension_is_3k_plus_4(self):
        for k in (1, 2, 4):
            params, out, _ = lotus_optimize(SINGLE_EDGE, 3, k_modes=k, shots=0, seed=1,
                                            budget=3 * k + 6)
            assert out.x_best.size == 3 * k + 4
            assert params.dimension == 3 * k + 4

    def test_evaluations_sum_over_restarts(self):
        g = gen_erdos_renyi(4, 0.9, seed=5)
        budget = 40
        singles = []
        for r in range(3):
            # one-restart runs consume at most the per-restart budget
            _, out1, _ = lotus_optimize(g, 2, k_modes=1, shots=0, seed=6, budget=budget,
                                        init=LotusInitConfig(n_restarts=1))
            singles.append(out1.evaluations)
        _, out, _ = lotus_optimize(g, 2, k_modes=1, shots=0, seed=6, budget=budget,
                                   init=LotusInitConfig(n_restarts=3))
        assert out.evaluations <= 3 * budget
        assert out.evaluations > singles[0]

    def test_engine_call_accounting(self, monkeypatch):
        g = gen_erdos_renyi(5, 0.8, seed=7)
        calls = []
        evolve = engine.evolve

        def counting_evolve(*args, **kwargs):
            calls.append(args)
            return evolve(*args, **kwargs)

        monkeypatch.setattr(engine, "evolve", counting_evolve)
        _, out, _ = lotus_optimize(g, 3, k_modes=2, shots=0, seed=8, budget=60)
        # every objective evaluation runs exactly one circuit; the final
        # verification reads the winning evaluation's state
        assert len(calls) == out.evaluations

    def test_default_budget_scales_with_dimension(self):
        g = gen_erdos_renyi(4, 0.9, seed=9)
        _, out, _ = lotus_optimize(g, 2, k_modes=2, shots=0, seed=10)
        assert out.evaluations <= 5 * LOTUS_BUDGET_PER_DIM * 10

    def test_deterministic_records(self):
        g = gen_erdos_renyi(5, 0.8, seed=11)
        results = [lotus_optimize(g, 2, k_modes=2, shots=1024, seed=12, budget=60)
                   for _ in range(2)]
        r1, r2 = results[0][2], results[1][2]
        assert dataclasses.replace(r1, wall_time=0.0) == dataclasses.replace(r2, wall_time=0.0)
        assert np.array_equal(results[0][1].x_best, results[1][1].x_best)

    def test_lambda_coordinates_stay_clamped(self):
        g = gen_erdos_renyi(4, 0.9, seed=13)
        params, _, _ = lotus_optimize(g, 6, k_modes=2, shots=0, seed=14, budget=200)
        assert abs(params.lambda_gamma) <= 0.999
        assert abs(params.lambda_beta) <= 0.999

    def test_monotone_trace_exact_mode(self):
        g = gen_erdos_renyi(4, 0.9, seed=15)
        _, out, _ = lotus_optimize(g, 2, k_modes=1, shots=0, seed=16, budget=50)
        assert np.all(np.diff(out.trace) <= 0.0)

    def test_record_fields(self):
        g = gen_erdos_renyi(5, 0.7, seed=17)
        mc = brute_force_maxcut(g).cut_value
        _, out, record = lotus_optimize(g, 4, k_modes=3, shots=256, seed=18, budget=80)
        assert record.k_modes == 3 and record.depth == 4 and record.n_qubits == 5
        assert record.seed == 18 and record.p_graph == 0.7
        assert 0.0 <= record.approx_ratio <= 1.0 + 1e-9
        assert 0.0 <= record.expectation <= g.total_weight
        assert record.evaluations == out.evaluations >= record.iterations >= 1
        assert record.best_cut.cut_value <= mc + 1e-12

    def test_init_config_validation(self):
        with pytest.raises(ValueError):
            LotusInitConfig(n_restarts=0)


class TestBaselineOptimize:
    def test_single_edge_gradient_free(self):
        for method in ("nelder-mead", "powell"):
            _, out, record = baseline_optimize(SINGLE_EDGE, 1, method=method,
                                               shots=0, seed=0, budget=500)
            assert record.expectation_exact >= 0.95, method

    def test_dimension_is_2p(self):
        _, out, record = baseline_optimize(SINGLE_EDGE, 24, method="nelder-mead",
                                           shots=0, seed=1, budget=60)
        assert out.x_best.size == 48
        assert record.k_modes == 0

    def test_deterministic_records(self):
        g = gen_erdos_renyi(5, 0.8, seed=19)
        _, o1, r1 = baseline_optimize(g, 3, method="powell", shots=512, seed=20, budget=150)
        _, o2, r2 = baseline_optimize(g, 3, method="powell", shots=512, seed=20, budget=150)
        assert dataclasses.replace(r1, wall_time=0.0) == dataclasses.replace(r2, wall_time=0.0)
        assert o1.f_best == o2.f_best

    def test_default_budget(self):
        assert DEFAULT_BUDGET == 2000

    def test_exact_rerun_reproduces_best(self):
        g = gen_erdos_renyi(4, 0.9, seed=21)
        _, o1, _ = baseline_optimize(g, 2, method="nelder-mead", shots=0, seed=22, budget=100)
        _, o2, _ = baseline_optimize(g, 2, method="nelder-mead", shots=0, seed=22, budget=100)
        assert o1.f_best == o2.f_best


@pytest.mark.parametrize("p", [0, -1])
@pytest.mark.parametrize("run", [
    lambda g, p: lotus_optimize(g, p, shots=0, budget=50),
    lambda g, p: baseline_optimize(g, p, "powell", shots=0, budget=50),
    lambda g, p: engine.Workspace(g.n, p),
], ids=["lotus", "baseline", "workspace"])
def test_drivers_and_workspace_need_positive_depth(run, p):
    with pytest.raises(ValueError, match=r"need depth p >= 1"):
        run(SINGLE_EDGE, p)
