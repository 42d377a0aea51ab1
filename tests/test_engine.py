from collections import Counter
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotus_qaoa import engine, instance
from lotus_qaoa.engine import (
    MirroredHalf,
    StateVector,
    apply_cost_phase,
    apply_mixer,
    build_cost_diagonal,
    evolve,
    expectation_exact,
    expectation_sampled,
    plus_state,
    sample_best_bitstring,
)
from lotus_qaoa.harness import dense_mixer_matrix, dense_oracle_state
from lotus_qaoa.instance import WeightedGraph, gen_erdos_renyi
from lotus_qaoa.schedule import standard_unpack

SINGLE_EDGE = WeightedGraph(n=2, edges=((0, 1, 1.0),))
TRIANGLE = WeightedGraph(n=3, edges=((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))


def schedule_of(gammas, betas):
    v = np.concatenate([np.atleast_1d(gammas), np.atleast_1d(betas)])
    return standard_unpack(v, v.size // 2)


class TestCostDiagonal:
    def test_single_edge(self):
        assert build_cost_diagonal(SINGLE_EDGE).values.tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_triangle(self):
        assert build_cost_diagonal(TRIANGLE).values.tolist() == [0, 2, 2, 2, 2, 2, 2, 0]

    def test_empty_edges(self):
        g = WeightedGraph(n=3, edges=())
        assert np.all(build_cost_diagonal(g).values == 0.0)

    def test_complement_symmetry(self):
        g = gen_erdos_renyi(6, 0.7, seed=2)
        values = build_cost_diagonal(g).values
        flipped = values[63 - np.arange(64)]  # global bit flip of every index
        assert np.array_equal(values, flipped)

    def test_matches_per_index_cut_value(self):
        # both sum each node's cut edges to lower nodes in index order, so
        # they agree exactly (the CostDiagonal invariant), not just to 1e-12
        rng = np.random.default_rng(14)
        for trial in range(20):
            n = int(rng.integers(2, 11))
            g = gen_erdos_renyi(n, float(rng.uniform(0.3, 1.0)), seed=trial)
            shuffled = WeightedGraph(n=n, edges=tuple(
                g.edges[k] for k in rng.permutation(len(g.edges))))
            for graph in (g, shuffled):
                values = instance._cut_values_all(graph)
                reference = [instance.cut_value(graph, instance.index_to_bitstring(z, n))
                             for z in range(1 << n)]
                assert np.array_equal(values, reference)

    def test_qubit_cap(self):
        g = WeightedGraph(n=21, edges=tuple((i, i + 1, 0.5) for i in range(20)))
        with pytest.raises(ValueError, match="cap"):
            build_cost_diagonal(g)


class TestPlusState:
    def test_small_cases(self):
        assert np.allclose(plus_state(1).amps, [2 ** -0.5] * 2)
        assert np.allclose(plus_state(2).amps, [0.5] * 4)

    def test_normalized(self):
        for n in (1, 3, 6, 10):
            assert plus_state(n).norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            plus_state(0)
        with pytest.raises(ValueError):
            plus_state(21)


class TestCostPhase:
    def test_zero_angle_is_identity(self):
        state = plus_state(3)
        before = state.amps.copy()
        apply_cost_phase(state, build_cost_diagonal(TRIANGLE), 0.0)
        assert np.array_equal(state.amps, before)

    def test_single_edge_quarter_turn(self):
        state = plus_state(2)
        apply_cost_phase(state, build_cost_diagonal(SINGLE_EDGE), np.pi / 2)
        expected = 0.5 * np.array([1.0, -1.0j, -1.0j, 1.0])
        assert np.allclose(state.amps, expected, atol=1e-15)

    def test_probabilities_invariant(self):
        rng = np.random.default_rng(0)
        g = gen_erdos_renyi(5, 0.8, seed=1)
        diag = build_cost_diagonal(g)
        state = plus_state(5)
        probs = state.probabilities().copy()
        for gamma in rng.uniform(-7, 7, 5):
            apply_cost_phase(state, diag, gamma)
            assert np.allclose(state.probabilities(), probs, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            apply_cost_phase(plus_state(3), build_cost_diagonal(SINGLE_EDGE), 1.0)


class TestMixer:
    def test_closed_form_block_matches_kron(self):
        rng = np.random.default_rng(3)
        for k in range(1, 6):
            for beta in rng.uniform(-7, 7, 4):
                c, s = np.cos(beta), np.sin(beta)
                r1 = np.array([[c, -1j * s], [-1j * s, c]])
                block = engine._mixer_block(k, c, s)
                assert np.max(np.abs(block - reduce(np.kron, [r1] * k))) <= 1e-14

    def test_zero_angle_is_identity(self):
        state = plus_state(4)
        before = state.amps.copy()
        apply_mixer(state, 0.0)
        assert np.allclose(state.amps, before, atol=1e-15)

    def test_half_pi_flips_single_qubit(self):
        state = StateVector(amps=np.array([1.0, 0.0], dtype=np.complex128))
        apply_mixer(state, np.pi / 2)
        assert np.allclose(state.amps, [0.0, -1.0j], atol=1e-15)

    def test_pi_is_global_phase(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 5):
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amps /= np.linalg.norm(amps)
            state = StateVector(amps=amps.copy())
            apply_mixer(state, np.pi)
            # exp(-i*pi*X) = -I per qubit, so only a global sign remains
            assert np.allclose(state.amps, (-1.0) ** n * amps, atol=1e-12)
            assert np.allclose(state.probabilities(), np.abs(amps) ** 2, atol=1e-12)

    def test_matches_dense_exponential(self):
        rng = np.random.default_rng(5)
        # n=9 runs blocks of 3, 3, 3; the last (top) block takes 1..4 qubits
        for n in range(1, 11):
            from scipy.linalg import expm

            beta = float(rng.uniform(-3, 3))
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amps /= np.linalg.norm(amps)
            state = StateVector(amps=amps.copy())
            apply_mixer(state, beta)
            expected = expm(-1j * beta * dense_mixer_matrix(n)) @ amps
            assert np.allclose(state.amps, expected, atol=1e-10)
            # the kept half of a flip-symmetric state folds the top block
            half = amps[:amps.size // 2]
            mirrored = np.concatenate((half, half[::-1])) / np.linalg.norm(half) / np.sqrt(2)
            full = apply_mixer(StateVector(amps=mirrored.copy()), beta).amps
            folded = apply_mixer(MirroredHalf(half=mirrored[:half.size].copy()), beta)
            assert np.max(np.abs(folded.amps - full)) <= 1e-14

    def test_norm_preserved(self):
        rng = np.random.default_rng(6)
        state = plus_state(6)
        for beta in rng.uniform(-5, 5, 10):
            apply_mixer(state, beta)
        assert abs(state.norm_sq() - 1.0) < 1e-10


class TestEvolve:
    def test_zero_angles_keep_plus_state(self):
        state = evolve(TRIANGLE, schedule_of([0.0], [0.0]))
        assert np.allclose(state.amps, plus_state(3).amps, atol=1e-15)

    def test_single_edge_optimum_anchor(self):
        diag = build_cost_diagonal(SINGLE_EDGE)
        state = evolve(SINGLE_EDGE, schedule_of([np.pi / 2], [np.pi / 8]))
        assert expectation_exact(state, diag) == pytest.approx(1.0, abs=1e-9)

    def test_single_edge_zero_mixer(self):
        diag = build_cost_diagonal(SINGLE_EDGE)
        state = evolve(SINGLE_EDGE, schedule_of([np.pi / 2], [0.0]))
        assert expectation_exact(state, diag) == pytest.approx(0.5, abs=1e-12)

    def test_single_edge_analytic_curve(self):
        # exact expectation (1 + sin(4*beta))/2 at gamma = pi/2
        diag = build_cost_diagonal(SINGLE_EDGE)
        for beta in np.linspace(0, np.pi, 9):
            state = evolve(SINGLE_EDGE, schedule_of([np.pi / 2], [beta]))
            expected = 0.5 * (1.0 + np.sin(4 * beta))
            assert expectation_exact(state, diag) == pytest.approx(expected, abs=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        # a single qubit (its top block is the whole mixer) and n=7, whose
        # folded top block has 3 qubits
        graphs = [gen_erdos_renyi(int(rng.integers(2, 4)), 1.0, seed=trial) for trial in range(12)]
        graphs += [WeightedGraph(n=1, edges=()), gen_erdos_renyi(7, 0.6, seed=12)]
        for g in graphs:
            p = int(rng.integers(1, 3))
            sched = standard_unpack(rng.uniform(-2 * np.pi, 2 * np.pi, 2 * p), p)
            fast = evolve(g, sched)
            dense = dense_oracle_state(g, sched)
            assert abs(np.vdot(fast.amps, dense)) > 1.0 - 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(2, 6), density=st.floats(0.3, 1.0), seed=st.integers(0, 2 ** 32 - 1),
           angles=st.lists(st.floats(-2 * np.pi, 2 * np.pi), min_size=2, max_size=8))
    def test_matches_dense_oracle_property(self, n, density, seed, angles):
        p = len(angles) // 2  # depth 1..4
        g = gen_erdos_renyi(n, density, seed=seed)
        sched = standard_unpack(np.array(angles[:2 * p]), p)
        fast = evolve(g, sched).amps
        assert np.max(np.abs(fast - dense_oracle_state(g, sched))) <= 1e-10

    def test_norm_preserved_deep_circuit(self):
        g = gen_erdos_renyi(8, 0.7, seed=8)
        rng = np.random.default_rng(8)
        sched = standard_unpack(rng.uniform(0, 2 * np.pi, 48), 24)
        assert abs(evolve(g, sched).norm_sq() - 1.0) < 1e-10

    def test_beta_periodicity_2pi(self):
        g = gen_erdos_renyi(5, 0.9, seed=9)
        diag = build_cost_diagonal(g)
        rng = np.random.default_rng(9)
        v = rng.uniform(0, 2 * np.pi, 6)
        shifted = v.copy()
        shifted[3:] += 2 * np.pi
        e0 = expectation_exact(evolve(g, standard_unpack(v, 3), diag=diag), diag)
        e1 = expectation_exact(evolve(g, standard_unpack(shifted, 3), diag=diag), diag)
        assert e0 == pytest.approx(e1, abs=1e-10)

    def test_call_counter_increments(self, monkeypatch):
        # evolve runs one phase and one mixer per layer, looked up as module
        # globals so that a wrapper (the benchmark's tracer) sees every call
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("evolve", "apply_cost_phase", "apply_mixer"):
            monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
        engine.evolve(SINGLE_EDGE, schedule_of([0.1, 0.3], [0.2, 0.4]))
        assert calls == {"evolve": 1, "apply_cost_phase": 2, "apply_mixer": 2}


class TestExpectation:
    def test_uniform_state_half_total_weight(self):
        for seed in range(10):
            g = gen_erdos_renyi(7, 0.6, seed=seed)
            diag = build_cost_diagonal(g)
            val = expectation_exact(plus_state(7), diag)
            assert val == pytest.approx(g.total_weight / 2, abs=1e-12)

    def test_triangle_uniform(self):
        assert expectation_exact(plus_state(3), build_cost_diagonal(TRIANGLE)) == pytest.approx(1.5)

    def test_basis_state_exact(self):
        diag = build_cost_diagonal(TRIANGLE)
        amps = np.zeros(8, dtype=np.complex128)
        amps[3] = 1.0
        assert expectation_exact(StateVector(amps=amps), diag) == diag.values[3]


class TestSampledExpectation:
    def test_deterministic_for_seed(self):
        g = gen_erdos_renyi(6, 0.8, seed=10)
        diag = build_cost_diagonal(g)
        state = evolve(g, schedule_of([0.4, 0.7], [0.3, 0.1]), diag=diag)
        assert expectation_sampled(state, diag, 1024, seed=5) == \
            expectation_sampled(state, diag, 1024, seed=5)

    def test_basis_state_zero_stderr(self):
        diag = build_cost_diagonal(TRIANGLE)
        amps = np.zeros(8, dtype=np.complex128)
        amps[1] = 1.0
        est, err = expectation_sampled(StateVector(amps=amps), diag, 64, seed=0)
        assert (est, err) == (2.0, 0.0)

    def test_exact_mode_sentinel(self):
        diag = build_cost_diagonal(TRIANGLE)
        state = plus_state(3)
        assert expectation_sampled(state, diag, 0, seed=0) == (expectation_exact(state, diag), 0.0)

    def test_converges_to_exact(self):
        g = gen_erdos_renyi(6, 0.8, seed=11)
        diag = build_cost_diagonal(g)
        state = evolve(g, schedule_of([0.5, 0.2], [0.4, 0.9]), diag=diag)
        exact = expectation_exact(state, diag)
        est, err = expectation_sampled(state, diag, 100_000, seed=3)
        assert abs(est - exact) < 5 * err

    def test_stderr_scales_with_shots(self):
        g = gen_erdos_renyi(6, 0.8, seed=12)
        diag = build_cost_diagonal(g)
        state = plus_state(6)
        err_small = np.mean([expectation_sampled(state, diag, 1024, seed=s)[1] for s in range(30)])
        err_big = np.mean([expectation_sampled(state, diag, 8192, seed=s)[1] for s in range(30)])
        assert 2.0 <= err_small / err_big <= 4.0  # ideal ratio sqrt(8) ~ 2.83

    def test_shot_count_validation(self):
        with pytest.raises(ValueError):
            expectation_sampled(plus_state(2), build_cost_diagonal(SINGLE_EDGE), -1, seed=0)


class TestBestBitstring:
    def test_concentrated_state(self):
        amps = np.zeros(8, dtype=np.complex128)
        amps[1] = 1.0  # assignment 100, an optimal triangle cut
        res = sample_best_bitstring(StateVector(amps=amps), build_cost_diagonal(TRIANGLE),
                                    16, seed=0)
        assert res.cut_value == 2.0
        assert res.bitstring == "011"  # canonical representative (bit 0 = 0)

    def test_uniform_triangle_finds_optimum(self):
        res = sample_best_bitstring(plus_state(3), build_cost_diagonal(TRIANGLE), 8192, seed=1)
        assert res.cut_value == 2.0

    def test_single_shot(self):
        g = gen_erdos_renyi(5, 0.7, seed=13)
        res = sample_best_bitstring(plus_state(5), build_cost_diagonal(g), 1, seed=2)
        assert 0.0 <= res.cut_value <= g.total_weight

    def test_graph_builds_its_table(self):
        g = gen_erdos_renyi(6, 0.7, seed=14)
        state = evolve(g, schedule_of([0.4, 0.7], [0.3, 0.1]))
        assert sample_best_bitstring(state, g, 64, seed=3) == \
            sample_best_bitstring(state, build_cost_diagonal(g), 64, seed=3)

    def test_requires_positive_shots(self):
        with pytest.raises(ValueError):
            sample_best_bitstring(plus_state(2), build_cost_diagonal(SINGLE_EDGE), 0, seed=0)


# the smallest n whose kept half builds its phases by doubling
FIRST_DOUBLED_N = engine._EXP_PHASE_MAX_SIZE.bit_length() + 1


def kept_half_of(n, seed):
    """An evolved kept half at n qubits (p = 2) and its cut table."""
    g = gen_erdos_renyi(n, 0.5, seed=seed)
    diag = build_cost_diagonal(g)
    angles = np.random.default_rng(seed).uniform(-np.pi, np.pi, 4)
    return g, diag, evolve(g, standard_unpack(angles, 2), diag=diag)


class TestKeptHalf:
    def test_amps_form_the_full_state(self):
        half = np.arange(4) + 1j
        state = MirroredHalf(half=half)
        assert state.n == 3
        assert np.array_equal(state.amps, np.concatenate((half, half[::-1])))
        assert state.norm_sq() == pytest.approx(np.sum(np.abs(state.amps) ** 2), rel=1e-15)

    @pytest.mark.parametrize("gamma", [0.37, -2.1, 25.0])
    def test_doubled_phase_table_matches_exp(self, gamma):
        # np.exp's own argument gamma*c is good only to about eps*|gamma|*sum(w),
        # which is what the two tables differ by (measured 0.8-1.3 times it)
        eps = np.finfo(float).eps
        for n in [*range(FIRST_DOUBLED_N, 17), 20]:
            g = gen_erdos_renyi(n, 0.5, seed=100 * n)
            diag = build_cost_diagonal(g)
            size = 1 << (n - 1)
            table = engine._phase_table(diag.lower, gamma, size)
            reference = np.exp(-1j * gamma * diag.values[:size])
            tol = 4 * eps * abs(gamma) * g.total_weight
            assert np.max(np.abs(table - reference)) <= tol, (n, gamma)

    def test_phase_path_switches_at_the_crossover(self):
        for n in (FIRST_DOUBLED_N - 1, FIRST_DOUBLED_N):
            g = gen_erdos_renyi(n, 0.5, seed=n)
            diag = build_cost_diagonal(g)
            size = 1 << (n - 1)
            state = apply_cost_phase(MirroredHalf(half=np.ones(size, dtype=complex)), diag, 0.7)
            if n < FIRST_DOUBLED_N:  # the exp over the kept half, bit for bit
                expected = np.exp((-1j * 0.7) * diag.values[:size])
            else:
                expected = engine._phase_table(diag.lower, 0.7, size)
            assert np.array_equal(state.half, expected)

    def test_evolve_above_crossover_matches_full_state(self):
        for n in (FIRST_DOUBLED_N, 16):
            g = gen_erdos_renyi(n, 0.5, seed=n)
            diag = build_cost_diagonal(g)
            angles = np.random.default_rng(n).uniform(-np.pi, np.pi, 6)
            state = evolve(g, standard_unpack(angles, 3), diag=diag)
            reference = plus_state(n)
            for gamma, beta in zip(angles[:3], angles[3:]):
                reference.amps *= np.exp(-1j * gamma * diag.values)
                apply_mixer(reference, beta)
            assert np.max(np.abs(state.amps - reference.amps)) <= 1e-10

    def test_sample_indices_match_the_full_state(self):
        for n in range(4, 21):
            _, diag, state = kept_half_of(n, seed=n)
            full = StateVector(amps=state.amps)
            for seed in (0, 1):
                from_half = engine._sample_indices(state, 4096, np.random.default_rng(seed))
                from_full = engine._sample_indices(full, 4096, np.random.default_rng(seed))
                assert np.array_equal(from_half, from_full), (n, seed)
            assert sample_best_bitstring(state, diag, 512, seed=2) == \
                sample_best_bitstring(full, diag, 512, seed=2)

    def test_exact_expectation_matches_the_full_state(self):
        for n in (4, 9, FIRST_DOUBLED_N, 20):
            _, diag, state = kept_half_of(n, seed=n)
            full = expectation_exact(StateVector(amps=state.amps), diag)
            assert expectation_exact(state, diag) == pytest.approx(full, rel=1e-12)

    def test_half_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            expectation_exact(MirroredHalf(half=np.ones(4, dtype=complex)),
                              build_cost_diagonal(SINGLE_EDGE))
