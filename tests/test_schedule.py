import numpy as np
import pytest

from lotus_qaoa import schedule
from lotus_qaoa.schedule import (
    HfaParams,
    Schedule,
    dimension_ratio,
    hfa_generate,
    layer_grid,
    lipschitz_certificate,
    standard_unpack,
)


def random_params(rng, k=None, pure_fourier=False):
    k = int(rng.integers(1, 5)) if k is None else k
    return HfaParams(
        a=rng.uniform(-1, 1, k),
        b=rng.uniform(-1, 1, k),
        lambda_gamma=0.0 if pure_fourier else float(rng.uniform(0.5, 0.95)),
        lambda_beta=0.0 if pure_fourier else float(rng.uniform(0.5, 0.95)),
        delta_gamma0=0.0 if pure_fourier else float(rng.normal(0, 0.5)),
        delta_beta0=0.0 if pure_fourier else float(rng.normal(0, 0.5)),
        weights=rng.uniform(-1, 1, k),
    )


class TestLayerGrid:
    def test_values(self):
        assert np.allclose(layer_grid(2), [0.25, 0.75])
        assert np.allclose(layer_grid(4), [0.125, 0.375, 0.625, 0.875])

    def test_strictly_increasing_inside_unit_interval(self):
        for p in (1, 3, 17, 64):
            x = layer_grid(p)
            assert np.all(np.diff(x) > 0) and x[0] > 0 and x[-1] < 1

    def test_requires_positive_depth(self):
        with pytest.raises(ValueError):
            layer_grid(0)


class TestHfaParams:
    def test_flat_layout_is_3k_plus_4(self):
        for k in (1, 2, 3, 4):
            params = random_params(np.random.default_rng(k), k=k)
            assert params.dimension == 3 * k + 4
            assert params.to_vector().size == 3 * k + 4
        assert random_params(np.random.default_rng(0), k=4).dimension == 16

    def test_vector_round_trip(self):
        rng = np.random.default_rng(1)
        for k in (1, 2, 4):
            vec = rng.normal(size=3 * k + 4)
            assert np.array_equal(HfaParams.from_vector(vec).to_vector(), vec)

    def test_vector_field_order(self):
        vec = np.arange(10, dtype=float)  # K = 2
        params = HfaParams.from_vector(vec)
        assert params.a.tolist() == [0.0, 1.0]
        assert params.b.tolist() == [2.0, 3.0]
        assert (params.lambda_gamma, params.lambda_beta) == (4.0, 5.0)
        assert (params.delta_gamma0, params.delta_beta0) == (6.0, 7.0)
        assert params.weights.tolist() == [8.0, 9.0]

    def test_bad_vector_lengths(self):
        for size in (0, 6, 8, 9):
            with pytest.raises(ValueError):
                HfaParams.from_vector(np.zeros(size))

    def test_mode_count_must_match(self):
        with pytest.raises(ValueError):
            HfaParams(a=[1.0], b=[1.0, 2.0], lambda_gamma=0, lambda_beta=0,
                      delta_gamma0=0, delta_beta0=0, weights=[1.0])


class TestGenerate:
    def test_zero_params_give_zero_schedule(self):
        params = HfaParams(a=[0.0], b=[0.0], lambda_gamma=0.0, lambda_beta=0.0,
                           delta_gamma0=0.0, delta_beta0=0.0, weights=[1.0])
        sched = hfa_generate(params, 6)
        assert np.all(sched.raw_gammas == 0) and np.all(sched.raw_betas == 0)
        assert np.all(sched.gammas == 0) and np.all(sched.betas == 0)

    def test_hand_computed_example(self):
        params = HfaParams(a=[1.0], b=[0.0], lambda_gamma=0.5, lambda_beta=0.0,
                           delta_gamma0=0.2, delta_beta0=0.0, weights=[1.0])
        sched = hfa_generate(params, 2)
        expected = [np.sin(np.pi / 4) + 0.2, np.sin(3 * np.pi / 4) + 0.1]
        assert np.allclose(sched.raw_gammas, expected, atol=1e-12)
        assert np.allclose(sched.raw_gammas, [0.90710678, 0.80710678], atol=1e-8)
        assert np.all(sched.raw_betas == 0.0)

    def test_ar_residuals_follow_closed_form(self):
        params = HfaParams(a=[0.0], b=[0.0], lambda_gamma=-0.7, lambda_beta=0.3,
                           delta_gamma0=1.3, delta_beta0=-0.4, weights=[1.0])
        sched = hfa_generate(params, 9)
        ls = np.arange(9)
        assert np.allclose(sched.raw_gammas, 1.3 * (-0.7) ** ls, atol=1e-14)
        assert np.allclose(sched.raw_betas, -0.4 * 0.3 ** ls, atol=1e-14)

    def test_wrapped_angles_are_mod_2pi(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            sched = hfa_generate(random_params(rng), int(rng.integers(1, 30)))
            assert np.all((sched.gammas >= 0) & (sched.gammas < 2 * np.pi))
            assert np.all((sched.betas >= 0) & (sched.betas < 2 * np.pi))
            assert np.allclose(np.mod(sched.raw_gammas, 2 * np.pi), sched.gammas)

    def test_wrapped_equals_raw_when_in_range(self):
        # sine backbone is non-negative on (0, 1); positive residuals keep
        # both families inside [0, 2*pi)
        params = HfaParams(a=[0.3], b=[0.0], lambda_gamma=0.5, lambda_beta=0.5,
                           delta_gamma0=0.1, delta_beta0=0.3, weights=[1.0])
        sched = hfa_generate(params, 5)
        assert np.array_equal(sched.gammas, sched.raw_gammas)
        assert np.array_equal(sched.betas, sched.raw_betas)

    def test_deterministic(self):
        params = random_params(np.random.default_rng(4))
        a, b = hfa_generate(params, 12), hfa_generate(params, 12)
        assert np.array_equal(a.raw_gammas, b.raw_gammas)
        assert np.array_equal(a.raw_betas, b.raw_betas)

    def test_cached_basis_is_read_only(self):
        sin_basis, cos_basis = schedule._hfa_basis(3, 7)
        assert schedule._hfa_basis(3, 7)[0] is sin_basis
        for table in (sin_basis, cos_basis):
            assert table.shape == (3, 7)
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0

    def test_matches_the_uncached_formula(self):
        # the cached basis and the list-built AR(1) give the schedules, bit for bit, of
        # a basis built per call and an AR(1) filled into an array in place
        def ar1(d0, lam, p):
            out = np.empty(p)
            out[0] = d0
            for l in range(1, p):
                out[l] = lam * out[l - 1]
            return out

        rng = np.random.default_rng(12)
        for _ in range(300):
            params = random_params(rng)
            p = int(rng.integers(1, 40))
            k_pi_x = np.pi * np.outer(np.arange(1, params.k_modes + 1), layer_grid(p))
            aw, bw = params.a * params.weights, params.b * params.weights
            sched = hfa_generate(params, p)
            assert np.array_equal(sched.raw_gammas, aw @ np.sin(k_pi_x)
                                  + ar1(params.delta_gamma0, params.lambda_gamma, p))
            assert np.array_equal(sched.raw_betas, bw @ np.cos(k_pi_x)
                                  + ar1(params.delta_beta0, params.lambda_beta, p))

    def test_rejects_non_finite(self):
        params = HfaParams(a=[np.nan], b=[0.0], lambda_gamma=0, lambda_beta=0,
                           delta_gamma0=0, delta_beta0=0, weights=[1.0])
        with pytest.raises(ValueError, match="finite"):
            hfa_generate(params, 3)

    def test_symmetry_breaking_generic_draws(self):
        # sorting the generated schedule almost always changes it
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(200):
            k = int(rng.integers(2, 5))
            params = random_params(rng, k=k)
            p = int(rng.integers(4, 17))
            raw = hfa_generate(params, p).raw_gammas
            hits += not np.array_equal(np.sort(raw), raw)
        assert hits / 200 >= 0.95


class TestSchedule:
    @pytest.mark.parametrize("gammas, betas", [
        ([0.3, 0.5], [0.2, 0.4, 0.9]),
        ([0.3, 0.5, 0.7], [0.2, 0.4]),
        ([[0.3, 0.5]], [[0.2, 0.4]]),
    ], ids=["lengths-2-3", "lengths-3-2", "2-d"])
    def test_rejects_mismatched_angle_arrays(self, gammas, betas):
        with pytest.raises(ValueError, match="1-D gammas and betas of one length"):
            Schedule(raw_gammas=np.array(gammas), raw_betas=np.array(betas))

    def test_rejects_empty_angle_arrays(self):
        with pytest.raises(ValueError, match=r"need depth p >= 1, got 0"):
            Schedule(raw_gammas=np.array([]), raw_betas=np.array([]))


class TestPackUnpack:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for p in (1, 2, 7):
            v = rng.uniform(-10, 10, 2 * p)
            sched = standard_unpack(v, p)
            assert np.array_equal(np.concatenate([sched.raw_gammas, sched.raw_betas]), v)

    def test_single_layer(self):
        sched = standard_unpack(np.array([1.5, 0.25]), 1)
        assert sched.depth == 1
        assert sched.raw_gammas.tolist() == [1.5]
        assert sched.raw_betas.tolist() == [0.25]

    def test_blocks_are_gamma_then_beta(self):
        sched = standard_unpack(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        assert sched.raw_gammas.tolist() == [1.0, 2.0]
        assert sched.raw_betas.tolist() == [3.0, 4.0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            standard_unpack(np.zeros(5), 2)

    def test_dimension_ratio(self):
        assert dimension_ratio(4, 24) == 0.25
        assert dimension_ratio(4, 1200) == pytest.approx(0.005)


class TestResample:
    def test_fourier_part_converges_to_continuum(self):
        # distance between the p-schedule and the 2p-schedule interpolated
        # onto the same grid shrinks like 1/p
        rng = np.random.default_rng(8)
        for _ in range(5):
            params = random_params(rng, pure_fourier=True)
            gaps = []
            for p in (8, 16, 32):
                coarse = hfa_generate(params, p)
                fine = hfa_generate(params, 2 * p)
                interp = np.interp(layer_grid(p), layer_grid(2 * p), fine.raw_gammas)
                gaps.append(np.max(np.abs(coarse.raw_gammas - interp)))
            assert gaps[0] / gaps[1] >= 1.5 and gaps[1] / gaps[2] >= 1.5


class TestLipschitzCertificate:
    def test_zero_params(self):
        params = HfaParams(a=[0.0], b=[0.0], lambda_gamma=0.0, lambda_beta=0.0,
                           delta_gamma0=0.0, delta_beta0=0.0, weights=[1.0])
        report = lipschitz_certificate(params, 8)
        assert report.c_spec_gamma == 0.0 and report.c_ar_gamma == 0.0
        assert report.c_spec_beta == 0.0 and report.c_ar_beta == 0.0
        assert report.max_violation == 0.0

    def test_constants_formula(self):
        params = HfaParams(a=[0.5, -0.25], b=[1.0, 0.0], lambda_gamma=0.5,
                           lambda_beta=0.9, delta_gamma0=0.4, delta_beta0=-2.0,
                           weights=[2.0, 1.0])
        report = lipschitz_certificate(params, 4)
        assert report.c_spec_gamma == pytest.approx(np.pi * (1 * 0.5 * 2 + 2 * 0.25 * 1))
        assert report.c_spec_beta == pytest.approx(np.pi * (1 * 1.0 * 2))
        assert report.c_ar_gamma == pytest.approx(0.4 * 0.5)
        assert report.c_ar_beta == pytest.approx(2.0 * 0.1)

    def test_bound_holds_for_random_draws(self):
        rng = np.random.default_rng(9)
        worst = -np.inf
        for _ in range(300):
            params = random_params(rng)
            for p in (4, 8, 16, 32, 64):
                worst = max(worst, lipschitz_certificate(params, p).max_violation)
        assert worst <= 1e-12

    def test_requires_stable_ar(self):
        params = HfaParams(a=[0.1], b=[0.1], lambda_gamma=1.0, lambda_beta=0.5,
                           delta_gamma0=0.0, delta_beta0=0.0, weights=[1.0])
        with pytest.raises(ValueError, match="lambda"):
            lipschitz_certificate(params, 4)

    def test_gaps_vanish_with_depth(self):
        # realized max gap at p=64 sits within the certificate bound scaled
        # from p=16 by the exact 1/p factor (1/4)
        rng = np.random.default_rng(10)
        for _ in range(50):
            params = random_params(rng, pure_fourier=True)
            report16 = lipschitz_certificate(params, 16)
            sched64 = hfa_generate(params, 64)
            gap64 = max(np.abs(np.diff(sched64.raw_gammas)).max(),
                        np.abs(np.diff(sched64.raw_betas)).max())
            bound16 = max(report16.c_spec_gamma, report16.c_spec_beta) / 16.0
            assert gap64 <= 0.25 * bound16 + 1e-12
