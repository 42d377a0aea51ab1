import contextlib
import math
import tracemalloc
from collections import Counter
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from lotus_qaoa import engine, instance
from lotus_qaoa.engine import DEFAULT_QUBIT_CAP
from lotus_qaoa.engine import (
    Workspace,
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
from lotus_qaoa.instance import CutResult, WeightedGraph, gen_erdos_renyi, index_to_bitstring
from lotus_qaoa.optim import optimize
from lotus_qaoa.schedule import standard_unpack

SINGLE_EDGE = WeightedGraph(n=2, edges=((0, 1, 1.0),))
TRIANGLE = WeightedGraph(n=3, edges=((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))


def schedule_of(gammas, betas):
    v = np.concatenate([np.atleast_1d(gammas), np.atleast_1d(betas)])
    return standard_unpack(v, v.size // 2)


def state_of(half):
    """The state whose kept half is ``half``, a copy in the state buffer of
    a one-layer workspace (``plus_state``'s)."""
    state = plus_state(half.size.bit_length())
    state.half[:] = half
    return state


def paired_basis_state(n, z):
    """(|z> + |~z>)/sqrt(2), the flip-symmetric form of basis state z."""
    half = np.zeros(1 << (n - 1), dtype=np.complex128)
    half[min(z, z ^ ((1 << n) - 1))] = 2 ** -0.5
    return state_of(half)


def random_kept_half(n, rng):
    """A normalized random flip-symmetric state."""
    half = rng.normal(size=1 << (n - 1)) + 1j * rng.normal(size=1 << (n - 1))
    return state_of(half / np.linalg.norm(half) / np.sqrt(2))


# A full-vector reference that shares no kernel with the engine: one
# single-qubit rotation per qubit, a complex exp per phase entry, and
# sampling through the CDF of all 2^n probabilities.

def reference_mixer(amps, beta):
    c, s = np.cos(beta), np.sin(beta)
    n = amps.size.bit_length() - 1
    for q in range(n):
        pairs = amps.reshape(-1, 2, 1 << q)  # axis 1 is bit q
        low, high = pairs[:, 0].copy(), pairs[:, 1].copy()
        pairs[:, 0] = c * low - 1j * s * high
        pairs[:, 1] = c * high - 1j * s * low


def reference_evolve(diag, sched):
    dim = diag.values.size
    amps = np.full(dim, dim ** -0.5, dtype=np.complex128)
    for gamma, beta in zip(sched.raw_gammas, sched.raw_betas):
        amps *= np.exp(-1j * gamma * diag.values)
        reference_mixer(amps, beta)
    return amps


def reference_sample_indices(amps, shots, rng):
    cdf = np.cumsum(np.abs(amps) ** 2)
    cdf[-1] = 1.0
    return np.minimum(np.searchsorted(cdf, rng.random(shots), side="right"), amps.size - 1)


def reference_best_bitstring(amps, diag, shots, rng):
    """Best sampled cut; ties go to the lowest index with bit 0 clear."""
    idx = reference_sample_indices(amps, shots, rng)
    canonical = np.where(idx & 1, idx ^ (amps.size - 1), idx)
    best = diag.values[canonical].max()
    winner = int(canonical[diag.values[canonical] == best].min())
    return CutResult(bitstring=index_to_bitstring(winner, diag.n), cut_value=float(best))


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

    def test_untwisted_amplitudes_are_uniform(self):
        for n in range(1, 21):
            assert np.max(np.abs(plus_state(n).amps - 2 ** (-n / 2))) <= 1e-15, n

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
        state = random_kept_half(5, rng)
        probs = np.abs(state.amps) ** 2
        for gamma in rng.uniform(-7, 7, 5):
            apply_cost_phase(state, diag, gamma)
            assert np.allclose(np.abs(state.amps) ** 2, probs, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            apply_cost_phase(plus_state(3), build_cost_diagonal(SINGLE_EDGE), 1.0)


# angles that stress the pair step (see test_pair_step_at_extreme_angles)
EXTREME_BETAS = [
    0.0, 1e-300, np.pi / 2, np.nextafter(np.pi / 2, 0), -np.pi / 2, 3 * np.pi / 2, np.pi,
    710.0, np.pi / 2 + 2 * np.pi * 1e6, np.pi / 2 + 2 * np.pi * 1e12, 1e300]


class TestMixer:
    def test_closed_form_block_matches_kron(self):
        # in the twisted frame each qubit turns by the real Q; the lowest
        # block also spans the real/imaginary bit, carries cos(beta) and is
        # held transposed, since apply_mixer right-multiplies by it
        rng = np.random.default_rng(3)
        for n in range(1, 21):
            betas = rng.uniform(-7, 7, 3)
            sizes = engine._mixer_block_sizes(n)
            for beta, blocks in zip(betas, engine._MixerFactors(n, betas.size).build(betas)):
                c, s = np.cos(beta), np.sin(beta)
                q = np.array([[c, -s], [s, c]])
                assert [block.shape[0] for block in blocks] == [1 << k for k in sizes]
                for j, (k, block) in enumerate(zip(sizes, blocks)):
                    kron = reduce(np.kron, [q] * (k - 1) + [c * np.eye(2) if j == 0 else q])
                    if j == 0:
                        kron = kron.T
                    assert block.dtype == np.float64
                    assert np.max(np.abs(block - kron)) <= 1e-14, (n, j)

    def test_zero_angle_is_identity(self):
        state = plus_state(4)
        before = state.amps.copy()
        apply_mixer(state, 0.0)
        assert np.allclose(state.amps, before, atol=1e-15)

    def test_half_pi_flips_single_qubit(self):
        # exp(-i*pi/2*X) = -iX flips each qubit, so (|z> + |~z>)/sqrt(2)
        # goes to (-i)^n (|~z> + |z>)/sqrt(2): the pair swaps into itself
        for n, z in ((1, 0), (2, 1), (3, 1), (5, 6)):
            state = paired_basis_state(n, z)
            before = state.amps
            apply_mixer(state, np.pi / 2)
            assert np.allclose(state.amps, (-1j) ** n * before[::-1], atol=1e-15)

    def test_pi_is_global_phase(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 5):
            state = random_kept_half(n, rng)
            amps = state.amps
            apply_mixer(state, np.pi)
            # exp(-i*pi*X) = -I per qubit, so only a global sign remains
            assert np.allclose(state.amps, (-1.0) ** n * amps, atol=1e-12)
            assert np.allclose(np.abs(state.amps) ** 2, np.abs(amps) ** 2, atol=1e-12)

    def test_matches_dense_exponential(self):
        rng = np.random.default_rng(5)
        # n=9 runs blocks of 3, 3, 3; the last (top) block takes 1..4 qubits
        for n in range(1, 11):
            from scipy.linalg import expm

            beta = float(rng.uniform(-3, 3))
            state = random_kept_half(n, rng)
            expected = expm(-1j * beta * dense_mixer_matrix(n)) @ state.amps
            apply_mixer(state, beta)  # the top qubit runs as the pair step
            assert np.max(np.abs(state.amps - expected)) <= 1e-10

    @pytest.mark.parametrize("beta", EXTREME_BETAS)
    def test_pair_step_at_extreme_angles(self, beta):
        # cos(beta) near 0 makes the pair step's tan(beta) huge, but finite
        # for every double; the reference rotates one qubit at a time with
        # cos and sin alone (expm itself is off by ~1e-9 at beta ~ 6e6)
        rng = np.random.default_rng(10)
        for n in range(1, 15):
            state = random_kept_half(n, rng)
            expected = state.amps
            reference_mixer(expected, beta)
            apply_mixer(state, beta)
            assert np.max(np.abs(state.amps - expected)) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 21))
    def test_in_place_blocks_match_the_reference(self, n):
        # every layout of the block loop: one block (n <= 4), blocks within
        # one 2^16-float chunk (5..16), and from n = 17 blocks chunk by
        # chunk, then the top block, reaching 1..4 bits above the chunk,
        # over the whole half
        rng = np.random.default_rng(n)
        for beta in rng.uniform(-7, 7, 2):
            state = random_kept_half(n, rng)
            expected = state.amps
            reference_mixer(expected, beta)
            apply_mixer(state, beta)
            assert np.max(np.abs(state.amps - expected)) <= 1e-12

    @pytest.mark.parametrize("n", [15, 16, 17, 20])
    def test_stacked_lowest_block_equals_one_matmul(self, n):
        # the lowest block runs as a stack of matmuls of at most _LOW_ROWS
        # rows, 8 of them at n = 15 and 16 per chunk from n = 16; each row
        # must come out with the bits that one matmul over all rows gives
        rng = np.random.default_rng(n)
        block = engine._MixerFactors(n, 1).build([rng.uniform(-7, 7)])[0][0]
        view = engine._mixer_views(n)[0][0]
        for part in rng.normal(size=1 << n).reshape(-1, min(1 << n, engine._MIXER_CHUNK)):
            single = np.matmul(part.reshape(-1, block.shape[0]), block)
            stacked = np.matmul(part.reshape(view), block)
            assert stacked.shape[0] > 1
            assert same_bits(stacked.reshape(single.shape), single), n

    def test_lowest_block_views_have_at_most_low_rows(self):
        # every BLAS call of the lowest block gets at most _LOW_ROWS rows;
        # up to n = 12 the view holds no more, so it stays one call
        for n in range(1, 21):
            buf = engine._Buffer(np.empty(1 << (n - 1), dtype=np.complex128))
            k = engine._mixer_block_sizes(n)[0]
            for chunk in buf.chunks:
                pieces, rows, width = chunk[0].shape
                assert rows <= engine._LOW_ROWS and width == 1 << k, n
                assert pieces * rows * width == min(1 << n, engine._MIXER_CHUNK), n
                assert pieces == 1 or n > 12, n

    @pytest.mark.parametrize("beta", EXTREME_BETAS)
    def test_chunked_pair_step_at_extreme_angles(self, beta):
        state = random_kept_half(17, np.random.default_rng(11))
        expected = state.amps
        reference_mixer(expected, beta)
        apply_mixer(state, beta)
        assert np.max(np.abs(state.amps - expected)) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 21))
    def test_pair_step_equals_the_whole_half_formula(self, n):
        # with identity blocks apply_mixer is the pair step alone, which on
        # one piece (n <= 14), two (n = 15) and many (n >= 16) must give
        # u + (u[::-1] * sigma) * kappa bit for bit, sigma over the whole half
        rng = np.random.default_rng(n)
        sigma = reduce(np.kron, [np.array([1.0, -1.0])] * (n - 1), np.ones(1)).astype(complex)
        identity = tuple(np.eye(1 << k) for k in engine._mixer_block_sizes(n))
        for beta in EXTREME_BETAS:
            u = rng.normal(size=1 << (n - 1)) + 1j * rng.normal(size=1 << (n - 1))
            expected = u + (u[::-1] * sigma) * (np.tan(beta) * (-1j) ** n)
            got = apply_mixer(state_of(u), beta, identity).half
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

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
        # a single qubit (one block on the real/imaginary bit, then the pair
        # step) and n=7, whose lowest block holds that bit and 3 qubits
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

    @pytest.mark.parametrize("n", range(1, 17))
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           angles=st.lists(st.floats(-2 * np.pi, 2 * np.pi), min_size=2, max_size=8))
    def test_equals_the_single_angle_kernels_property(self, n, seed, angles):
        # n = 1..16 spans every mixer block partition: one block (n <= 4)
        # and two to four blocks (the rotating loop)
        g = WeightedGraph(n=1, edges=()) if n == 1 else gen_erdos_renyi(n, 0.6, seed=seed)
        diag = build_cost_diagonal(g)
        p = len(angles) // 2  # depth 1..4
        sched = standard_unpack(np.array(angles[:2 * p]), p)
        state = plus_state(n)
        for gamma, beta in zip(sched.raw_gammas, sched.raw_betas):
            apply_mixer(apply_cost_phase(state, diag, float(gamma)), float(beta))
        assert np.array_equal(evolve(g, sched, diag=diag).half, state.half)

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
        # |3> and its flip |4> cut the same edges
        state = paired_basis_state(3, 3)
        assert expectation_exact(state, diag) == pytest.approx(diag.values[3], abs=1e-15)


class TestSampledExpectation:
    def test_deterministic_for_seed(self):
        g = gen_erdos_renyi(6, 0.8, seed=10)
        diag = build_cost_diagonal(g)
        state = evolve(g, schedule_of([0.4, 0.7], [0.3, 0.1]), diag=diag)
        assert expectation_sampled(state, diag, 1024, seed=5) == \
            expectation_sampled(state, diag, 1024, seed=5)

    def test_basis_state_zero_stderr(self):
        diag = build_cost_diagonal(TRIANGLE)
        est, err = expectation_sampled(paired_basis_state(3, 1), diag, 64, seed=0)
        assert (est, err) == (2.0, 0.0)

    def test_exact_mode_sentinel(self):
        # shots=0 is the run driver's exact mode: no noise stream, no sampling,
        # every readout is expectation_exact (expectation_sampled takes >= 1 shot).
        outcome, sched, record = optimize(TRIANGLE, 1, "nelder-mead",
                                          [(np.array([0.4, 0.3]), None)], 0, 0, 40, 0)
        diag = build_cost_diagonal(TRIANGLE)
        exact = expectation_exact(evolve(TRIANGLE, sched, diag=diag), diag)
        assert record.expectation == record.expectation_exact == exact
        assert outcome.f_best == -exact

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

    def test_mean_is_numpys_mean(self):
        # the sampled mean is np.add.reduce over the draws divided by the
        # shot count, the arithmetic of ndarray.mean without its wrapper
        g = gen_erdos_renyi(9, 0.6, seed=15)
        diag = build_cost_diagonal(g)
        state = evolve(g, schedule_of([0.4, 0.7], [0.3, 0.1]), diag=diag)
        for shots in (1, 2, 7, 1000, 1024, 8191, 8192):
            mean, vals = engine._sampled_mean(state, diag, shots, seed=shots)
            assert mean == float(vals.mean()), shots
            assert mean == expectation_sampled(state, diag, shots, seed=shots)[0]

    def test_shot_count_validation(self):
        for shots in (0, -1):  # exact mode is expectation_exact, not a shot count
            with pytest.raises(ValueError, match=f"need shots >= 1, got {shots}"):
                expectation_sampled(plus_state(2), build_cost_diagonal(SINGLE_EDGE), shots,
                                    seed=0)


class TestBestBitstring:
    def test_concentrated_state(self):
        # assignments 100 and 011, the same optimal triangle cut
        res = sample_best_bitstring(paired_basis_state(3, 1), build_cost_diagonal(TRIANGLE),
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


def kept_half_of(n, seed):
    """An evolved kept half at n qubits (p = 2) and its cut table."""
    g = gen_erdos_renyi(n, 0.5, seed=seed)
    diag = build_cost_diagonal(g)
    angles = np.random.default_rng(seed).uniform(-np.pi, np.pi, 4)
    return g, diag, evolve(g, standard_unpack(angles, 2), diag=diag)


class TestKeptHalf:
    def test_amps_form_the_full_state(self):
        # half holds i^popcount(z) amps[z]; amps untwists it and mirrors it
        half = np.arange(4) + 1j
        state = state_of(half)
        kept = half * (-1j) ** np.array([0, 1, 1, 2])
        assert state.n == 3
        assert np.array_equal(state.amps, np.concatenate((kept, kept[::-1])))
        assert state.norm_sq() == pytest.approx(np.sum(np.abs(state.amps) ** 2), rel=1e-15)

    @pytest.mark.parametrize("gamma", [0.37, -2.1, 25.0])
    def test_doubled_phase_table_matches_exp(self, gamma):
        # The rows double over the high bits, so an entry multiplies a + 2
        # factors exp(-i*gamma*level): the high column, the low row and at most
        # a C_i. A level is at most three table entries, each summed with
        # round-off, so its argument is good to about eps*|gamma|*W; each exp
        # and each product adds at most about 2 eps.
        eps = np.finfo(float).eps
        for n in range(1, 21):
            g = WeightedGraph(n=1, edges=()) if n == 1 else gen_erdos_renyi(n, 0.5, seed=100 * n)
            diag = build_cost_diagonal(g)
            size = 1 << (n - 1)
            row = engine._phase_rows(diag, [gamma])[0]
            reference = np.exp(-1j * gamma * diag.values[:size])
            a, _ = engine._split_bits(n)
            tol = (a + 2) * eps * (abs(gamma) * g.total_weight + 2)
            assert np.max(np.abs(row - reference)) <= tol, (n, gamma)

    def test_standalone_phase_equals_its_batched_row(self):
        # apply_cost_phase alone builds its one row as evolve builds p of them
        gammas = np.array([0.3, -1.7, 25.0])
        for n in (1, 2, 3, 8, 13, 14, 20):
            g = WeightedGraph(n=1, edges=()) if n == 1 else gen_erdos_renyi(n, 0.5, seed=n)
            diag = build_cost_diagonal(g)
            rows = engine._phase_rows(diag, gammas)
            for gamma, row in zip(gammas.tolist(), rows):
                state = state_of(np.ones(1 << (n - 1), dtype=complex))
                assert np.array_equal(apply_cost_phase(state, diag, gamma).half, row), (n, gamma)

    def test_layer_0_from_plus_equals_plus_state_times_its_row(self):
        # layer 0 folds |+> into its phase product: the row's high column
        # carries the high bits' twist and one broadcast product the rest,
        # which must give the bits of plus_state times the plain row in
        # every nonzero part; a part that is an exact zero, which z = 0,
        # gamma = +-0.0 or an edgeless graph leaves, may differ in its sign
        for n in range(1, 21):
            g = WeightedGraph(n=1, edges=()) if n == 1 else gen_erdos_renyi(n, 0.5, seed=n)
            diag = build_cost_diagonal(g)
            for gamma in (0.0, -0.0, 0.37, -2.1, 25.0):
                expected = apply_cost_phase(plus_state(n), diag, gamma).half.view(np.float64)
                state = state_of(np.full(1 << (n - 1), np.nan, dtype=np.complex128))
                folded = apply_cost_phase(state, diag, gamma, from_plus=True).half.view(np.float64)
                nonzero = expected != 0.0
                assert np.array_equal(folded, expected), (n, gamma)
                assert same_bits(folded[nonzero], expected[nonzero]), (n, gamma)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 12), quarters=st.lists(st.integers(0, 12), min_size=66, max_size=66))
    @example(n=1, quarters=[0] * 66)
    @example(n=2, quarters=[3] + [0] * 65)  # the one edge ends at the top node
    @example(n=12, quarters=list(range(66)))  # the split, with every pair but (0, 1)
    def test_levels_rebuild_values_property(self, n, quarters):
        # weights in quarters keep every sum exact, so the split must rebuild
        # the kept half bit for bit; pairs (i, n - 1) are edges to the top node
        pairs = [(i, j) for j in range(n) for i in range(j)]
        g = WeightedGraph(n=n, edges=tuple((i, j, q / 4)
                                           for (i, j), q in zip(pairs, quarters) if q))
        diag = build_cost_diagonal(g)
        a, b = engine._split_bits(n)
        lo, cross, hi = np.split(diag.levels, [1 << b, (a + 1) << b])
        bits = (np.arange(1 << a)[:, None] >> np.arange(a)) & 1
        rebuilt = hi[:, None] + lo + bits @ cross.reshape(a, 1 << b)
        assert diag.levels.size == (1 << a) + (1 << b) + (a << b)
        assert not diag.levels.flags.writeable
        assert np.array_equal(rebuilt.ravel(), diag.values[:1 << (n - 1)])

    def test_evolve_above_crossover_matches_full_state(self):
        for n in (14, 16):
            g = gen_erdos_renyi(n, 0.5, seed=n)
            diag = build_cost_diagonal(g)
            sched = standard_unpack(np.random.default_rng(n).uniform(-np.pi, np.pi, 6), 3)
            state = evolve(g, sched, diag=diag)
            assert np.max(np.abs(state.amps - reference_evolve(diag, sched))) <= 1e-10

    def test_sample_indices_match_the_full_state(self):
        for n in range(4, 21):
            _, diag, state = kept_half_of(n, seed=n)
            amps = state.amps
            for seed in (0, 1):
                from_half = engine._sample_indices(state, 4096, np.random.default_rng(seed))
                from_full = reference_sample_indices(amps, 4096, np.random.default_rng(seed))
                assert np.array_equal(from_half, from_full), (n, seed)
            assert sample_best_bitstring(state, diag, 512, seed=2) == \
                reference_best_bitstring(amps, diag, 512, np.random.default_rng(2))

    def test_exact_expectation_matches_the_full_state(self):
        for n in (4, 9, 14, 20):
            _, diag, state = kept_half_of(n, seed=n)
            amps = state.amps
            full = float(np.real(np.vdot(amps, diag.values * amps)))
            assert expectation_exact(state, diag) == pytest.approx(full, rel=1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1),
           angles=st.lists(st.floats(-2 * np.pi, 2 * np.pi), min_size=2, max_size=6))
    def test_matches_the_full_vector_reference_property(self, n, seed, angles):
        g = WeightedGraph(n=1, edges=()) if n == 1 else gen_erdos_renyi(n, 0.6, seed=seed)
        diag = build_cost_diagonal(g)
        p = len(angles) // 2
        sched = standard_unpack(np.array(angles[:2 * p]), p)
        state = evolve(g, sched, diag=diag)
        amps = reference_evolve(diag, sched)
        assert np.max(np.abs(state.amps - amps)) <= 1e-10
        exact = float(np.real(np.vdot(amps, diag.values * amps)))
        assert expectation_exact(state, diag) == pytest.approx(exact, rel=1e-10, abs=1e-10)
        from_half = engine._sample_indices(state, 1024, np.random.default_rng(seed))
        from_full = reference_sample_indices(amps, 1024, np.random.default_rng(seed))
        assert np.array_equal(from_half, from_full)
        assert sample_best_bitstring(state, diag, 256, seed=seed) == \
            reference_best_bitstring(amps, diag, 256, np.random.default_rng(seed))

    def test_half_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            expectation_exact(state_of(np.ones(4, dtype=complex)),
                              build_cost_diagonal(SINGLE_EDGE))


def same_bits(a, b):
    """Equal as int64 views: every bit, signed zeros included."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def ping_pong_mixer(u, beta, blocks):
    """The mixer with a whole spare: each in-chunk block writes into the
    other of two state-sized arrays, chunk by chunk, and the pair step
    writes piece c's mirrored row into piece c of the spare. The same
    matmuls and products as ``apply_mixer``, into other memory."""
    buf, spare = engine._Buffer(u.copy()), engine._Buffer(np.empty_like(u))
    for a, s in zip(buf.chunks, spare.chunks):
        np.matmul(a[0], blocks[0], out=s[0])
        for j in range(1, len(a)):
            a, s = s, a
            np.matmul(blocks[j], a[j], out=s[j])
    inner = len(buf.chunks[0])
    if inner % 2:
        buf, spare = spare, buf
    for j in range(len(buf.top)):
        np.matmul(blocks[inner + j], buf.top[j], out=spare.top[j])
        buf, spare = spare, buf
    kappa = math.tan(beta) * (-1j) ** u.size.bit_length()
    factor = engine._parity_signs(engine._PAIR_PIECE.bit_length() - 1) * kappa
    pieces, rows = buf.pieces, spare.pieces
    for c in range(len(pieces) // 2):
        d = len(pieces) - 1 - c
        np.multiply(pieces[d, ::-1], factor, out=rows[c])
        np.multiply(pieces[c, ::-1], factor, out=rows[d])
        for e in (c, d):
            (np.subtract if bin(e).count("1") % 2 else np.add)(pieces[e], rows[e], out=pieces[e])
    return buf.half


def resume_sequence(rng, p):
    """(diagonal index, gammas, betas) of circuits for one workspace. The
    first schedule runs twice, so that its second run, which shares every
    layer with the first, keeps snapshots; the next two share layers with
    the one before: only the last layer changed, then only layer 1. The
    point before that probe is revisited, which rebuilds the row of layer 1
    alone. Then layer 0 at +0.0 and at -0.0 and a second diagonal of the
    same n run twice each, and the first diagonal once more."""
    gammas, betas = rng.uniform(-7, 7, (2, p))
    runs = [(0, gammas, betas)] * 2
    for layer in (p - 1, 1):
        gammas = gammas.copy()
        gammas[layer] += 0.25
        runs.append((0, gammas, betas))
    runs.append(runs[-2])
    gammas = runs[-1][1]
    for zero in (0.0, -0.0):
        gammas, betas = gammas.copy(), betas.copy()
        gammas[0] = betas[0] = zero
        runs += [(0, gammas, betas)] * 2
    return runs + [(1, gammas, betas)] * 2 + [(0, gammas, betas)]


_PHASE_ROWS, _BUILD = engine._phase_rows, engine._MixerFactors.build


def failing_rows(diag, gammas, out=None, from_plus=False):
    """A phase-row build that writes the first row of its range, fills the
    others with NaN and raises."""
    _PHASE_ROWS(diag, gammas[:1], out[:1], from_plus)
    out[1:] = np.nan
    raise MemoryError("phase rows")


def failing_build(self, betas, start=0, stop=None):
    """A mixer-block build that writes its layers for beta 0.0 and raises."""
    _BUILD(self, [0.0] * len(betas), start, stop)
    raise MemoryError("mixer blocks")


def failing_mixer(state, beta, blocks=None):
    raise MemoryError("mixer")


def float_bits(x):
    """A float's bits, so that NaNs and signed zeros compare as they are."""
    return int(np.float64(x).view(np.int64))


def stale(angle, key):
    """Whether a layer's factor, built for ``key``, must be rebuilt for
    ``angle``: their bits differ, or the angle is NaN, which matches nothing."""
    return math.isnan(angle) or float_bits(angle) != float_bits(key)


@contextlib.contextmanager
def counting_layers():
    """Count the phase rows and the layers of mixer blocks built, and the
    mixer layers run, while open."""
    counts = Counter()
    mixer = engine.apply_mixer

    def rows(diag, gammas, out=None, from_plus=False):
        counts["rows"] += len(gammas)
        return _PHASE_ROWS(diag, gammas, out, from_plus)

    def blocks(self, betas, start=0, stop=None):
        built = _BUILD(self, betas, start, stop)
        counts["blocks"] += len(built)
        return built

    def layer(state, beta, blocks=None):
        counts["layers"] += 1
        return mixer(state, beta, blocks)

    with (mock.patch.object(engine, "_phase_rows", rows),
          mock.patch.object(engine._MixerFactors, "build", blocks),
          mock.patch.object(engine, "apply_mixer", layer)):
        yield counts


class TestWorkspace:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_reused_workspace_equals_the_standalone_kernels(self, n):
        # one workspace runs several schedules, as a run's evaluations do:
        # each must equal the per-layer kernels run standalone, bit for bit,
        # over one piece (n <= 14), pair-step pieces (n >= 15) and chunked
        # blocks (n >= 17); at p = 3 the later schedules resume at a layer
        # that stayed the same
        graphs = [WeightedGraph(n=1, edges=()) if n == 1 else gen_erdos_renyi(n, 0.5, seed=n),
                  WeightedGraph(n=1, edges=()) if n == 1 else gen_erdos_renyi(n, 0.5, seed=n + 50)]
        diags = [build_cost_diagonal(g) for g in graphs]
        rng = np.random.default_rng(n)
        random_runs = [(0, *rng.uniform(-7, 7, (2, 2))) for _ in range(3)]
        for p, runs in ((2, random_runs), (3, resume_sequence(rng, 3))):
            workspace = Workspace(n, p)
            for which, gammas, betas in runs:
                g, diag, sched = graphs[which], diags[which], schedule_of(gammas, betas)
                state = plus_state(n)
                for gamma, beta in zip(gammas.tolist(), betas.tolist()):
                    apply_mixer(apply_cost_phase(state, diag, gamma), beta)
                reused = evolve(g, sched, diag=diag, workspace=workspace)
                assert reused.workspace is workspace
                assert same_bits(reused.half, state.half), (n, p)
                assert expectation_exact(reused, diag) == expectation_exact(state, diag)
                assert np.array_equal(engine._sample_indices(reused, 256, np.random.default_rng(1)),
                                      engine._sample_indices(state, 256, np.random.default_rng(1)))

    def test_stale_runs_compare_key_bits(self):
        # the keys a circuit leaves are its angles: a later circuit resumes
        # at its first layer whose angles lack the bits of these keys
        workspace = Workspace(3, 3)
        diag = build_cost_diagonal(TRIANGLE)
        gammas, betas = [0.0, 0.5, 1.5], [0.25, 0.75, 1.25]
        evolve(TRIANGLE, schedule_of(gammas, betas), diag=diag, workspace=workspace)

        def stale_runs(gammas, betas):
            return engine._stale_runs(gammas, workspace._row_gammas, betas,
                                      workspace.factors.betas)

        assert stale_runs(gammas, betas) == (2, [], [])  # the last layer always runs
        assert stale_runs(gammas, [0.25, 0.5, 1.25]) == (1, [], [[1, 2]])
        assert stale_runs([-0.0, 0.5, 1.5], betas) == (0, [[0, 1]], [])
        assert stale_runs([float("nan"), 0.5, 1.5], betas) == (0, [[0, 1]], [])
        # the same angles on another diagonal object rebuild every row
        with counting_layers() as counts:
            evolve(TRIANGLE, schedule_of(gammas, betas), diag=build_cost_diagonal(TRIANGLE),
                   workspace=workspace)
        assert counts == {"rows": 3, "layers": 3}

    def test_each_probe_builds_only_the_rows_and_blocks_it_changed(self, monkeypatch):
        # a probe of one angle rebuilds one phase row or one layer of mixer
        # blocks, the layers after it reuse theirs; a step that moves every
        # angle builds all p of each in one call each
        calls, layers = Counter(), Counter()
        phase_rows, build = engine._phase_rows, engine._MixerFactors.build

        def counted_rows(diag, gammas, out=None, from_plus=False):
            calls["rows"] += 1
            layers["rows"] += len(gammas)
            return phase_rows(diag, gammas, out, from_plus)

        def counted_build(self, betas, start=0, stop=None):
            built = build(self, betas, start, stop)
            calls["blocks"] += 1
            layers["blocks"] += len(built)
            return built

        monkeypatch.setattr(engine, "_phase_rows", counted_rows)
        monkeypatch.setattr(engine._MixerFactors, "build", counted_build)
        p, n = 4, 10
        g = gen_erdos_renyi(n, 0.5, seed=4)
        diag = build_cost_diagonal(g)
        workspace = Workspace(n, p)
        rng = np.random.default_rng(4)
        x = rng.uniform(-3, 3, 2 * p)

        def run(x):
            calls.clear()
            layers.clear()
            return evolve(g, standard_unpack(x, p), diag=diag, workspace=workspace)

        run(x)
        assert calls == {"rows": 1, "blocks": 1} and layers == {"rows": p, "blocks": p}
        for i, built in ((p + 1, {"blocks": 1}), (2, {"rows": 1}),  # beta 1, then gamma 2
                         (p, {"blocks": 1}), (p - 1, {"rows": 1})):  # beta 0, last gamma
            x = x.copy()
            x[i] += 1e-3
            reused = run(x)
            assert layers == built, i
            assert same_bits(reused.half, evolve(g, standard_unpack(x, p), diag=diag).half)
        x = x + rng.uniform(-1e-3, 1e-3, 2 * p)  # an HFA or Nelder-Mead step
        run(x)
        assert calls == {"rows": 1, "blocks": 1} and layers == {"rows": p, "blocks": p}

    @pytest.mark.parametrize("n", [8, 9, 12, 20])
    def test_folded_row_0_is_built_once_for_every_probe(self, monkeypatch, n):
        # row 0 carries |+>'s high twist and serves layer 0 alone, since a
        # circuit resumes at layer 1 or later: built once, it stays valid
        # through probes of beta 0, which rerun layer 0 from |+>, and of
        # later angles, which resume after it
        p = 3
        built = Counter()
        phase_rows = engine._phase_rows

        def counted_rows(diag, gammas, out=None, from_plus=False):
            built["row 0"] += from_plus
            built["rows"] += len(gammas)
            return phase_rows(diag, gammas, out, from_plus)

        g = gen_erdos_renyi(n, 0.5, seed=n)
        diag = build_cost_diagonal(g)
        workspace = Workspace(n, p)
        x = np.random.default_rng(n).uniform(-3, 3, 2 * p)
        points = [x, x]  # the second run shares every layer and keeps snapshots
        # beta 0, gamma 2, beta 1, beta 0 again, the last beta, gamma 1
        for i in (p, 2, p + 1, p, 2 * p - 1, 1):
            x = x.copy()
            x[i] += 1e-3
            points.append(x)
        for x in points:
            sched = standard_unpack(x, p)
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_phase_rows", counted_rows)
                reused = evolve(g, sched, diag=diag, workspace=workspace)
            assert same_bits(reused.half, evolve(g, sched, diag=diag).half), (n, x)
        assert built == {"row 0": 1, "rows": p + 2}

    def test_a_direct_block_build_leaves_no_stale_block(self):
        # the blocks' beta keys live with them, so a build outside evolve
        # makes the next evolve rebuild the layers it overwrote
        g = gen_erdos_renyi(9, 0.5, seed=9)
        diag = build_cost_diagonal(g)
        sched = schedule_of([0.3, -1.2, 0.8], [0.7, 0.2, -0.4])
        workspace = Workspace(9, 3)
        evolve(g, sched, diag=diag, workspace=workspace)
        workspace.factors.build([1.5, -2.5], 1)
        reused = evolve(g, sched, diag=diag, workspace=workspace)
        assert same_bits(reused.half, evolve(g, sched, diag=diag).half)

    @pytest.mark.parametrize("n", [6, 12])
    def test_a_failed_build_leaves_nothing_marked_built(self, monkeypatch, n):
        # a phase row or block build that raises after writing part of its
        # layers leaves their keys cleared, so the next evolve rebuilds them
        g = gen_erdos_renyi(n, 0.5, seed=n)
        diag = build_cost_diagonal(g)
        first = schedule_of([0.3, -1.2, 0.8], [0.7, 0.2, -0.4])
        second = schedule_of([0.3, -1.0, 0.9], [0.7, 0.1, -0.5])
        for target, name, failing in ((engine, "_phase_rows", failing_rows),
                                      (engine._MixerFactors, "build", failing_build)):
            workspace = Workspace(n, 3)
            evolve(g, first, diag=diag, workspace=workspace)
            with monkeypatch.context() as patch:
                patch.setattr(target, name, failing)
                with pytest.raises(MemoryError):
                    evolve(g, second, diag=diag, workspace=workspace)
            for sched in (first, second):  # first: the keys the failed build found
                reused = evolve(g, sched, diag=diag, workspace=workspace)
                assert same_bits(reused.half, evolve(g, sched, diag=diag).half), (name, n)

    @pytest.mark.parametrize("n", [8, 17])
    def test_a_build_that_fails_before_its_keys_leaves_them_cleared(self, n):
        # a block build that writes its blocks and then fails to record
        # their beta leaves the layer's key cleared, not holding the beta of
        # the blocks it overwrote
        class FailingKeys(list):
            def __setitem__(self, key, value):
                if not all(map(math.isnan, value if isinstance(key, slice) else [value])):
                    raise MemoryError("block keys")
                super().__setitem__(key, value)

        g = gen_erdos_renyi(n, 0.5, seed=n)
        diag = build_cost_diagonal(g)
        x = np.array([0.3, -0.8, 0.7, 0.2])
        workspace = Workspace(n, 2)
        evolve(g, standard_unpack(x, 2), diag=diag, workspace=workspace)
        workspace.factors.betas = FailingKeys(workspace.factors.betas)
        with pytest.raises(MemoryError):
            evolve(g, standard_unpack(x + [0, 0, 0, 0.5], 2), diag=diag, workspace=workspace)
        workspace.factors.betas = list(workspace.factors.betas)
        reused = evolve(g, standard_unpack(x, 2), diag=diag, workspace=workspace)
        assert same_bits(reused.half, evolve(g, standard_unpack(x, 2), diag=diag).half)

    def test_a_direct_build_leaves_no_snapshot_to_resume_from(self):
        # after a circuit that kept snapshots, a build of layer 0's blocks for
        # the next circuit's beta 0 gives that circuit every key it needs,
        # but the snapshots hold the layers of the old beta 0: the next
        # circuit must run from |+>
        g = gen_erdos_renyi(9, 0.5, seed=9)
        diag = build_cost_diagonal(g)
        gammas, betas = [0.3, -1.2, 0.8], [0.7, 0.2, -0.4]
        workspace = Workspace(9, 3)
        for _ in range(2):  # the second run shares every layer and keeps snapshots
            evolve(g, schedule_of(gammas, betas), diag=diag, workspace=workspace)
        following = schedule_of(gammas, [1.5] + betas[1:])
        workspace.factors.build([1.5], 0)
        reused = evolve(g, following, diag=diag, workspace=workspace)
        assert same_bits(reused.half, evolve(g, following, diag=diag).half)

    def test_a_failed_evolve_leaves_no_snapshot_to_resume_from(self, monkeypatch):
        # a circuit that moves gamma 1 rebuilds row 1 and raises in its first
        # mixer layer: the keys then match it, but snapshot 1 still holds
        # the layer of the old gamma 1, so its rerun must not resume there
        g = gen_erdos_renyi(9, 0.5, seed=9)
        diag = build_cost_diagonal(g)
        betas = [0.7, 0.2, -0.4]
        workspace = Workspace(9, 3)
        for _ in range(2):
            evolve(g, schedule_of([0.3, -1.2, 0.8], betas), diag=diag, workspace=workspace)
        moved = schedule_of([0.3, -1.0, 0.8], betas)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "apply_mixer", failing_mixer)
            with pytest.raises(MemoryError):
                evolve(g, moved, diag=diag, workspace=workspace)
        reused = evolve(g, moved, diag=diag, workspace=workspace)
        assert same_bits(reused.half, evolve(g, moved, diag=diag).half)

    def test_standalone_evolves_share_no_memory(self):
        sched = schedule_of([0.3, -1.2], [0.7, 0.2])
        g = gen_erdos_renyi(9, 0.5, seed=9)
        first, second = evolve(g, sched), evolve(g, sched)
        assert first.workspace is not second.workspace
        assert not np.shares_memory(first.half, second.half)
        assert same_bits(first.half, second.half)

    def test_kept_state_survives_later_evolves(self):
        # p = 1, and p = 2 with every later schedule sharing the kept one's
        # first layer, so that the later ones resume from the snapshot of
        # layer 0
        g = gen_erdos_renyi(15, 0.5, seed=15)
        diag = build_cost_diagonal(g)
        for first in ([], [(0.4, 0.9)]):
            def sched(gamma, beta, first=first):
                return schedule_of([gm for gm, _ in first] + [gamma],
                                   [bt for _, bt in first] + [beta])

            workspace = Workspace(15, 1 + len(first))
            kept = workspace.keep(evolve(g, sched(0.4, 0.9), diag=diag, workspace=workspace))
            expected = kept.half.copy()
            for beta in (0.1, -0.5, 2.0):
                later = evolve(g, sched(1.1, beta), diag=diag, workspace=workspace)
                assert not np.shares_memory(later.half, kept.half)
                assert same_bits(later.half, evolve(g, sched(1.1, beta), diag=diag).half)
            assert same_bits(kept.half, expected)
            with pytest.raises(ValueError, match="current state"):
                workspace.keep(kept)

    @pytest.mark.parametrize("n", range(15, 21))
    def test_workspace_mixer_equals_a_whole_spare(self, n):
        # the in-chunk intermediates (n >= 17) and the pair step's rows
        # (n >= 15) run in one chunk and two pieces of the spare; every
        # amplitude must keep the bits a whole spare gives
        rng = np.random.default_rng(n)
        g = gen_erdos_renyi(n, 0.5, seed=n)
        workspace = Workspace(n, 1)
        state = evolve(g, schedule_of(0.3, 0.7), workspace=workspace)
        for beta in EXTREME_BETAS + list(rng.uniform(-7, 7, 2)):
            blocks = workspace.factors.build([beta])[0]
            u = rng.normal(size=1 << (n - 1)) + 1j * rng.normal(size=1 << (n - 1))
            expected = ping_pong_mixer(u, beta, blocks)
            state.half[:] = u
            assert same_bits(apply_mixer(state, beta, blocks).half, expected), (n, beta)

    @pytest.mark.parametrize("n", [15, 17, 18])
    def test_workspace_layer_leaves_kept_state_and_snapshots(self, n):
        # the mixer's scratch lies in the spare alone: a layer run on the
        # current state leaves the kept state and every snapshot as they were
        g = gen_erdos_renyi(n, 0.5, seed=n)
        diag = build_cost_diagonal(g)
        sched = schedule_of([0.3, -0.8, 1.1], [0.7, 0.2, -0.4])
        workspace = Workspace(n, 3)
        kept = workspace.keep(evolve(g, sched, diag=diag, workspace=workspace))
        state = evolve(g, sched, diag=diag, workspace=workspace)  # shares every layer
        assert workspace.factors.snapshotted
        before = [kept.half.copy()] + [s.half.copy() for s in workspace.snapshots]
        expected = apply_mixer(apply_cost_phase(state_of(state.half), diag, 0.5), 0.9)
        apply_mixer(apply_cost_phase(state, diag, 0.5), 0.9)
        assert same_bits(state.half, expected.half)
        after = [kept.half] + [s.half for s in workspace.snapshots]
        assert all(same_bits(x, y) for x, y in zip(after, before))

    def test_workspace_mixer_allocates_less_than_a_piece(self):
        # from n = 15 the pair step runs in pieces; a workspace mixer layer
        # writes their factor into the workspace's one-piece buffer, and
        # from n = 17 its in-chunk blocks run in the spare's first chunk;
        # a mixer on plus_state, which builds its own blocks, runs in the
        # buffers of that state's workspace
        cases = []
        for n in (16, 18):
            g = gen_erdos_renyi(n, 0.5, seed=n)
            workspace = Workspace(n, 1)
            state = evolve(g, schedule_of(0.3, 0.7), workspace=workspace)
            cases.append((f"evolve at n = {n}", state, workspace.factors.build([0.2])[0]))
        cases.append(("plus_state(18)", plus_state(18), None))
        for case, state, blocks in cases:
            tracemalloc.start()
            try:
                apply_mixer(state, 0.2, blocks)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < np.dtype(np.complex128).itemsize * engine._PAIR_PIECE, (case, peak)

    def test_a_mixer_on_a_kept_state_is_refused(self):
        # the mixer runs in the workspace's state and spare buffers, which
        # a kept state is not in
        g = gen_erdos_renyi(9, 0.5, seed=9)
        workspace = Workspace(9, 2)
        kept = workspace.keep(evolve(g, schedule_of([0.3, -0.8], [0.7, 0.2]),
                                     workspace=workspace))
        with pytest.raises(ValueError, match="current state"):
            apply_mixer(kept, 0.4)

    def test_a_phase_on_a_kept_state_leaves_the_kept_buffer(self):
        # the product goes into the workspace's state buffer and the state
        # moves there; the kept buffer keeps its bits
        g = gen_erdos_renyi(9, 0.5, seed=9)
        diag = build_cost_diagonal(g)
        workspace = Workspace(9, 2)
        kept = workspace.keep(evolve(g, schedule_of([0.3, -0.8], [0.7, 0.2]), diag=diag,
                                     workspace=workspace))
        buffer, before = kept.half, kept.half.copy()
        expected = apply_cost_phase(state_of(before), diag, 0.5).half
        apply_cost_phase(kept, diag, 0.5)
        assert same_bits(buffer, before)
        assert kept.half is workspace.state.half
        assert same_bits(kept.half, expected)

    def test_workspace_of_another_size_is_refused(self):
        workspace = Workspace(3, 2)
        with pytest.raises(ValueError, match="workspace is for"):
            evolve(TRIANGLE, schedule_of([0.1], [0.2]), workspace=workspace)
        with pytest.raises(ValueError, match="workspace is for"):
            evolve(SINGLE_EDGE, schedule_of([0.1, 0.2], [0.3, 0.4]), workspace=workspace)
        with pytest.raises(ValueError):
            Workspace(DEFAULT_QUBIT_CAP + 1, 1)


ANGLE_STEPS = (1e-6, -1e-6)


class WorkspaceMachine(RuleBasedStateMachine):
    """One workspace through the circuits a run's evaluations give it, in
    any order: fresh points, one angle moved by 1e-6, angles at +-0.0 and
    NaN, revisited points, a second diagonal, kept states, block builds
    outside ``evolve`` and circuits that raise partway. Every circuit must
    give the state, exact expectation and sampled indices of a fresh
    ``evolve`` bit for bit and build exactly the phase rows and block
    layers whose keys are stale among the layers it runs; a kept state
    must stay as it was."""

    def __init__(self):
        super().__init__()
        self.kept = None  # a kept state and a copy of its amplitudes

    @initialize(n=st.sampled_from((2, 3, 8, 9, 9, 9, 17)), p=st.sampled_from((1, 2, 3, 3, 4)),
                seed=st.integers(0, 1 << 16))
    def setup(self, n, p, seed):
        self.graphs = [gen_erdos_renyi(n, 0.5, seed=seed + k) for k in (0, 1)]
        self.diags = [build_cost_diagonal(g) for g in self.graphs]
        self.which, self.p = 0, p
        self.workspace = Workspace(n, p)
        self.visited = []
        x = np.random.default_rng(seed).uniform(-7, 7, 2 * p)
        self.run(x)
        self.run(x)  # shares every layer with the first, so keeps snapshots

    def schedule(self, x):
        return self.graphs[self.which], self.diags[self.which], standard_unpack(x, self.p)

    def run(self, x):
        self.x = x
        self.visited.append(x)
        g, diag, sched = self.schedule(x)
        ws = self.workspace
        stale_rows = [diag is not ws._rows_diag or stale(gamma, key)
                      for gamma, key in zip(sched.raw_gammas.tolist(), ws._row_gammas)]
        stale_blocks = [stale(beta, key)
                        for beta, key in zip(sched.raw_betas.tolist(), ws.factors.betas)]
        with counting_layers() as counts:
            self.state = evolve(g, sched, diag=diag, workspace=ws)
        fresh = evolve(g, sched, diag=diag)
        assert same_bits(self.state.half, fresh.half)
        assert (float_bits(expectation_exact(self.state, diag))
                == float_bits(expectation_exact(fresh, diag)))
        assert np.array_equal(engine._sample_indices(self.state, 64, np.random.default_rng(0)),
                              engine._sample_indices(fresh, 64, np.random.default_rng(0)))
        first = self.p - counts["layers"]  # the first layer run
        assert (counts["rows"], counts["blocks"]) == (sum(stale_rows[first:]),
                                                      sum(stale_blocks[first:]))

    def moved(self, i, value):
        x = self.x.copy()
        x[i % x.size] = value
        return x

    @rule(seed=st.integers(0, 1 << 16))
    def fresh_point(self, seed):
        self.run(np.random.default_rng(seed).uniform(-7, 7, 2 * self.p))

    @rule(i=st.integers(0, 7), step=st.sampled_from(ANGLE_STEPS))
    def probe(self, i, step):
        self.run(self.moved(i, self.x[i % self.x.size] + step))

    @rule(i=st.integers(0, 7), value=st.sampled_from((0.0, -0.0, math.nan)))
    def special_angle(self, i, value):
        self.run(self.moved(i, value))

    @rule(back=st.integers(0, 3))
    def revisit(self, back):
        self.run(self.visited[-1 - back % len(self.visited)])

    @rule()
    def other_diagonal(self):
        self.which ^= 1
        self.run(self.x)

    @rule()
    def keep(self):
        if self.state is not None:
            self.workspace.keep(self.state)
            self.kept, self.state = (self.state, self.state.half.copy()), None

    @rule(layer=st.integers(0, 3), step=st.sampled_from(ANGLE_STEPS), then_run=st.booleans())
    def direct_build(self, layer, step, then_run):
        # builds the blocks of a probe of one beta, which then finds its key
        layer %= self.p
        x = self.moved(self.p + layer, self.x[self.p + layer] + step)
        self.workspace.factors.build(x[self.p:], layer, layer + 1)
        if then_run:
            self.run(x)

    @rule(i=st.integers(0, 7), failure=st.sampled_from(("rows", "blocks", "mixer")),
          then=st.sampled_from((None, "rerun", "return")))
    def failed_circuit(self, i, failure, then):
        # moves a beta for a failing block build, else a gamma; then maybe
        # reruns the point that failed, or returns to the one before
        i = i % self.p + (failure == "blocks") * self.p
        before, x = self.x, self.moved(i, self.x[i] + 0.5)
        target, name, fake = {"rows": (engine, "_phase_rows", failing_rows),
                              "blocks": (engine._MixerFactors, "build", failing_build),
                              "mixer": (engine, "apply_mixer", failing_mixer)}[failure]
        g, diag, sched = self.schedule(x)
        with mock.patch.object(target, name, fake), pytest.raises(MemoryError):
            evolve(g, sched, diag=diag, workspace=self.workspace)
        self.state, self.x = None, x
        self.visited.append(x)
        if then:
            self.run(x if then == "rerun" else before)

    @invariant()
    def kept_state_is_unchanged(self):
        if self.kept is not None:
            assert same_bits(self.kept[0].half, self.kept[1])


# A fixed seed, not derandomize, whose seed hypothesis derives from the
# class's source: an edit to the machine that changes no rule keeps the
# sequences it tries, and with them the faults it catches
TestWorkspaceMachine = seed(0)(WorkspaceMachine).TestCase
TestWorkspaceMachine.settings = settings(max_examples=150, stateful_step_count=20,
                                         derandomize=False, database=None, deadline=None)
