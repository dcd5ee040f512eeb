import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esnkit import (Activation, Dictionary, ReservoirParams, edmd_fit,
                    lifted_rollout_error, simulate, spectral_radius)

from conftest import make_readout, make_reservoir, traced_peak_mib
from oracles import edmd_reference, leaky_step


def exact_residual_bounds(lm, ref):
    """Max row residual norm of ``lm``'s coefficients at the oracle's exact
    images phi(f(x_t, u_t)), and twice the standard bound on the rounding
    of one evaluation of it, gamma_K (||reg_t|| ||coeffs||_F + ||target_t||)
    with K = N + m + 1: the fit and the oracle each evaluate the residuals
    once, in different summation orders."""
    coeffs = np.vstack([lm.A_phi.T, lm.B_phi.T])
    reg, targets = ref["regressors"], ref["targets"]
    exact = np.linalg.norm(targets - reg @ coeffs, axis=1).max()
    k = reg.shape[1] + 1
    gamma = k * np.finfo(float).eps / (1.0 - k * np.finfo(float).eps)
    rounding = gamma * (np.linalg.norm(reg, axis=1) * np.linalg.norm(coeffs)
                        + np.linalg.norm(targets, axis=1)).max()
    return exact, 2.0 * rounding


class TestDictionary:
    def test_identity_plus_constant(self):
        d = Dictionary()
        np.testing.assert_array_equal(d.eval_batch([[2.0, 3.0]])[0],
                                      [1.0, 2.0, 3.0])
        assert d.output_dim(2) == 3

    def test_zero_fourier_features_is_affine(self):
        d = Dictionary.random_fourier(0, 2.0, 5)
        x = np.array([[2.0, 3.0], [-1.0, 0.5]])
        np.testing.assert_array_equal(
            d.eval_batch(x), Dictionary().eval_batch(x))
        assert d.output_dim(2) == 3
        assert d._lipschitz(2) == 1.0
        with pytest.raises(ValueError, match="count"):
            Dictionary.random_fourier(-1, 2.0, 5)
        with pytest.raises(ValueError, match="bandwidth"):
            Dictionary.random_fourier(4, 0.0, 5)

    @pytest.mark.parametrize("count", [2.0, True, "2", np.float64(3.0)])
    def test_rejects_non_integer_count(self, count):
        # output_dim and eval_batch size arrays by the count
        with pytest.raises(TypeError, match="count must be an integer"):
            Dictionary(count=count)

    def test_states_checked(self):
        d = Dictionary.random_fourier(4, 1.0, 0)
        with pytest.raises(ValueError,
                           match="states has non-finite entry at flat index 1"):
            d.eval_batch([[0.0, np.nan]])
        with pytest.raises(ValueError,
                           match=r"states must be \(S, n\), got \(2, 3, 4\)"):
            d.eval_batch(np.zeros((2, 3, 4)))

    def test_numpy_integer_count(self):
        d = Dictionary(count=np.int64(2))
        assert d.output_dim(2) == 5
        assert d.eval_batch(np.zeros((1, 2))).shape == (1, 5)

    def test_random_fourier_formula_and_reproducibility(self):
        count, bw, seed = 8, 1.5, 42
        d = Dictionary.random_fourier(count, bw, seed)
        x = np.array([0.3, -0.7])
        feats = d.eval_batch(x[None])[0]
        assert feats[0] == 1.0
        np.testing.assert_array_equal(feats[1:3], x)
        # reconstruct from the same counter-based stream
        rng = np.random.Generator(np.random.Philox(seed))
        omega = rng.standard_normal((count, 2)) / bw
        phase = rng.uniform(0.0, 2 * np.pi, count)
        expect = np.sqrt(2.0 / count) * np.cos(omega @ x + phase)
        np.testing.assert_allclose(feats[3:], expect, atol=1e-15)
        np.testing.assert_array_equal(feats, d.eval_batch(x[None])[0])

    def test_fourier_weights_are_equal_on_every_draw(self):
        d = Dictionary.random_fourier(8, 1.5, 42)
        (omega, phase), (omega_again, phase_again) = (
            d._fourier_weights(3), d._fourier_weights(3))
        np.testing.assert_array_equal(omega_again, omega)
        np.testing.assert_array_equal(phase_again, phase)

    def test_rff_frequency_spread_scales_with_bandwidth(self):
        wide = Dictionary.random_fourier(2000, 0.5, 0)._fourier_weights(1)[0]
        narrow = Dictionary.random_fourier(2000, 2.0, 0)._fourier_weights(1)[0]
        assert np.std(wide) == pytest.approx(2.0, rel=0.1)
        assert np.std(narrow) == pytest.approx(0.5, rel=0.1)

    @pytest.mark.parametrize("dictionary", [
        Dictionary(),
        Dictionary.random_fourier(4, 2.0, 1),
        Dictionary.random_fourier(128, 2.0, 2),
        Dictionary.random_fourier(16, 0.5, 3),
        Dictionary.random_fourier(64, 1.0, 4),
        Dictionary.random_fourier(1, 0.25, 5)])
    def test_lipschitz_bound_holds_on_sampled_pairs(self, dictionary):
        n, radius = 3, 1.5
        rng = np.random.default_rng(0)
        a = rng.uniform(-radius, radius, (2000, n))
        b = np.clip(a + rng.normal(0.0, 0.3, a.shape), -radius, radius)
        gain = (np.linalg.norm(dictionary.eval_batch(a)
                               - dictionary.eval_batch(b), axis=1)
                / np.linalg.norm(a - b, axis=1))
        bound = dictionary._lipschitz(n)
        assert gain.max() <= bound
        assert gain.max() >= bound / 10.0


class TestEdmdFit:
    def test_exact_closure_for_linear_dynamics(self):
        p = make_reservoir(n=3, m=2, leak=1.0, seed=2,
                           activation=Activation.identity())
        rng = np.random.default_rng(0)
        traj = simulate(p, rng.standard_normal(p.n),
                        rng.standard_normal((60, p.m)))
        lm = edmd_fit(p, [traj], Dictionary(), ridge=0.0)
        assert lm.epsilon <= 1e-10
        expect_a = np.zeros((4, 4))
        expect_a[0, 0] = 1.0
        expect_a[1:, 1:] = p.W
        np.testing.assert_allclose(lm.A_phi, expect_a, atol=1e-9)
        np.testing.assert_allclose(lm.B_phi[1:], p.U, atol=1e-9)
        np.testing.assert_allclose(lm.B_phi[0], 0.0, atol=1e-9)

    def test_zero_dynamics_reservoir(self):
        n = 2
        p = ReservoirParams(W=np.zeros((n, n)), U=np.zeros((n, 1)),
                            b=np.zeros(n), leak=0.4)
        rng = np.random.default_rng(1)
        states = rng.standard_normal((30, n))
        # stitch independent one-step trajectories through random states
        trajs = [simulate(p, s, rng.standard_normal((2, 1))) for s in states]
        lm = edmd_fit(p, trajs, Dictionary(), ridge=0.0)
        assert lm.epsilon <= 1e-10
        np.testing.assert_allclose(lm.A_phi[1:, 1:], (1 - 0.4) * np.eye(n),
                                   atol=1e-9)

    def test_shared_target_residual_weakly_decreasing_in_features(self):
        # richer nested dictionaries cannot increase the least-squares
        # residual on the targets they share (the state block); verified with
        # direct solves on affine, affine + 8 Fourier features, and those
        # plus 16 more from another seed
        p = ReservoirParams(W=[[0.8]], U=[[0.5]], b=[0.0], leak=0.9)
        rng = np.random.default_rng(0)
        traj = simulate(p, np.zeros(1), rng.uniform(-1, 1, (400, 1)))
        fx = np.array([leaky_step(p, traj.states[t], traj.inputs[t])
                       for t in range(traj.horizon)])
        x = traj.states[:-1]
        richer = Dictionary.random_fourier(8, 1.0, 1).eval_batch(x)
        extra = Dictionary.random_fourier(16, 1.0, 2).eval_batch(x)[:, 2:]
        residuals = []
        for phi in (richer[:, :2], richer, np.hstack([richer, extra])):
            reg = np.hstack([phi, traj.inputs])
            coef, *_ = np.linalg.lstsq(reg, fx, rcond=None)
            residuals.append(np.linalg.norm(fx - reg @ coef, axis=1).max())
        assert residuals[0] >= residuals[1] - 1e-12
        assert residuals[1] >= residuals[2] - 1e-12

    def test_stored_epsilon_reproducible_from_training_data(self):
        p = make_reservoir(n=3, m=1, seed=5, w_scale=0.7)
        rng = np.random.default_rng(3)
        traj = simulate(p, np.zeros(p.n), rng.uniform(-1, 1, (80, 1)))
        d = Dictionary.random_fourier(6, 1.0, 5)
        lm = edmd_fit(p, [traj], d, ridge=1e-10)
        phi = d.eval_batch(traj.states[:-1])
        fx = np.array([leaky_step(p, traj.states[t], traj.inputs[t])
                       for t in range(traj.horizon)])
        targets = d.eval_batch(fx)
        pred = phi @ lm.A_phi.T + traj.inputs @ lm.B_phi.T
        eps = np.linalg.norm(targets - pred, axis=1).max()
        assert eps == pytest.approx(lm.epsilon, rel=1e-12, abs=1e-15)

    def test_mixed_ensemble_matches_row_by_row_reference(self):
        # a noiseless run, a process-noise run, unequal lengths, a 0-step
        # and a 1-step run: no (x_t, x_t+1) pair may cross a trajectory
        # boundary, and the noisy rows must still target phi(f(x_t, u_t)),
        # not phi(x_t+1)
        p = make_reservoir(n=3, m=1, seed=5, w_scale=0.7, bias_scale=0.3)
        rng = np.random.default_rng(11)
        trajs = [
            simulate(p, 0.1 * rng.standard_normal(3), rng.uniform(-1, 1, (70, 1))),
            simulate(p, np.zeros(3), rng.uniform(-1, 1, (45, 1)),
                     process_noise=(1e-3 * np.eye(3), 4)),
            simulate(p, np.ones(3), np.zeros((0, 1))),
            simulate(p, rng.standard_normal(3), rng.uniform(-1, 1, (1, 1))),
            simulate(p, 0.1 * rng.standard_normal(3), rng.uniform(-1, 1, (30, 1))),
        ]
        d = Dictionary.random_fourier(6, 1.0, 5)
        lm = edmd_fit(p, trajs, d, ridge=1e-8)
        ref = edmd_reference(p, trajs, d, 1e-8)
        scale = np.abs(ref["A_phi"]).max()
        assert np.abs(lm.A_phi - ref["A_phi"]).max() <= 1e-10 * scale
        assert np.abs(lm.B_phi - ref["B_phi"]).max() <= 1e-10 * scale
        exact, rounding = exact_residual_bounds(lm, ref)
        assert exact - rounding <= lm.epsilon <= exact * (1 + 1e-12) + 1e-14
        # the check has teeth: targeting phi(x_t+1) on the noisy run moves
        # the fit far outside the tolerance above
        reg = ref["regressors"]
        naive = ref["targets"].copy()
        naive[70:115] = d.eval_batch(trajs[1].states[1:])
        coeffs = np.linalg.solve(reg.T @ reg + 1e-8 * np.eye(reg.shape[1]),
                                 reg.T @ naive)
        assert np.abs(coeffs[:10].T - ref["A_phi"]).max() > 1e-6 * scale

    def test_zero_step_trajectory_adds_nothing(self):
        # it has no (x_t, x_t+1) pair, so the fit is the fit without it
        p = make_reservoir(n=3, m=1, seed=5, w_scale=0.7, bias_scale=0.3)
        rng = np.random.default_rng(11)
        traj = simulate(p, 0.1 * rng.standard_normal(3),
                        rng.uniform(-1, 1, (70, 1)))
        empty = simulate(p, rng.standard_normal(3), np.zeros((0, 1)))
        d = Dictionary.random_fourier(6, 1.0, 5)
        want = edmd_fit(p, [traj], d, ridge=1e-8)
        for trajs in ([traj, empty], [empty, traj]):
            got = edmd_fit(p, trajs, d, ridge=1e-8)
            for name in ("A_phi", "B_phi", "C_phi", "epsilon"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        with pytest.raises(ValueError, match="snapshots, got 0$"):
            edmd_fit(p, [empty, empty], d, ridge=1e-8)

    @pytest.mark.parametrize("n, m", [(2, 1), (3, 2)])
    def test_every_trajectory_dimension_checked(self, n, m):
        p = make_reservoir(n=3, m=1, seed=5)
        rng = np.random.default_rng(12)
        valid = simulate(p, np.zeros(3), rng.uniform(-1, 1, (40, 1)))
        other = simulate(make_reservoir(n=n, m=m, seed=6), np.zeros(n),
                         rng.uniform(-1, 1, (40, m)))
        with pytest.raises(ValueError,
                           match="trajectory dimensions do not match"):
            edmd_fit(p, [valid, other], Dictionary(), ridge=1e-8)

    def test_features_are_evaluated_per_trajectory(self):
        # the fit holds every state's features in one block (the regressors
        # and targets are views of it) and, one trajectory at a time,
        # temporaries and the residual buffer, here under 1.7 trajectories'
        # features in all. Stacking the ensemble's states, inputs and images
        # while the features are alive adds over 5 trajectories' features
        p = make_reservoir(n=8, m=2, seed=3, bias_scale=0.3)
        rng = np.random.default_rng(0)
        trajs = [simulate(p, 0.1 * rng.standard_normal(8),
                          rng.uniform(-1, 1, (400, 2))) for _ in range(8)]
        d = Dictionary.random_fourier(32, 1.0, 0)
        _, peak = traced_peak_mib(edmd_fit, p, trajs, d, ridge=1e-8)
        one = 401 * d.output_dim(8) * 8
        assert peak * 2 ** 20 <= (8 + 2) * one

    def test_identical_fits_have_one_peak(self):
        # every call draws the Fourier weights afresh and none keeps them, so
        # a second identical fit traces the first one's peak; weights kept
        # by the first call would be missing from the second one's peak.
        # They are count (n + 1) floats, here 3.5 % of it; no fit makes that
        # share much larger, as at least N + m + 1 snapshots make the
        # normal equations' arrays grow as N^2 and count n <= N^2 / 4
        n = count = 32
        p = make_reservoir(n=n, m=1, seed=3)
        inputs = np.random.default_rng(4).uniform(-1, 1, (70, 1))
        trajs = [simulate(p, np.zeros(n), inputs)]
        d = Dictionary.random_fourier(count, 0.75, 37)
        # a first traced call in a process traces a few bytes more
        traced_peak_mib(edmd_fit, p, trajs,
                        Dictionary.random_fourier(count, 0.75, 38), ridge=1e-8)
        first = traced_peak_mib(edmd_fit, p, trajs, d, ridge=1e-8)[1]
        second = traced_peak_mib(edmd_fit, p, trajs, d, ridge=1e-8)[1]
        assert count * (n + 1) * 8 >= 0.03 * first * 2 ** 20
        assert second == first

    @settings(max_examples=30)
    @given(n=st.integers(1, 4), m=st.integers(1, 2),
           seed=st.integers(0, 2 ** 31 - 1), leak=st.floats(0.2, 1.0),
           w_scale=st.floats(0.1, 0.95),
           count=st.sampled_from([0, 4, 12, 32]),
           bandwidth=st.sampled_from([0.5, 1.0, 2.0]))
    def test_epsilon_bounds_residuals_at_exact_images(self, n, m, seed, leak,
                                                      w_scale, count,
                                                      bandwidth):
        p = make_reservoir(n=n, m=m, seed=seed, leak=leak, w_scale=w_scale,
                           bias_scale=0.3)
        rng = np.random.default_rng(seed)
        d = Dictionary.random_fourier(count, bandwidth, seed)
        trajs = [simulate(p, 0.5 * rng.standard_normal(n),
                          rng.uniform(-1, 1, (h, m))) for h in (40, 25)]
        lm = edmd_fit(p, trajs, d, ridge=1e-8)
        ref = edmd_reference(p, trajs, d, 1e-8)
        exact, rounding = exact_residual_bounds(lm, ref)
        # epsilon adds the rounding bound of one residual evaluation, which
        # is at most half of the two that ``rounding`` allows for
        assert (exact - rounding <= lm.epsilon
                <= exact * (1 + 1e-12) + 1e-14 + rounding / 2)
        # so it is a floating-point bound: the residuals evaluated in long
        # double (another summation order, 11 more bits) stay below it
        coeffs = np.vstack([lm.A_phi.T, lm.B_phi.T]).astype(np.longdouble)
        resid = (ref["targets"].astype(np.longdouble)
                 - ref["regressors"].astype(np.longdouble) @ coeffs)
        assert np.sqrt((resid * resid).sum(axis=1)).max() <= lm.epsilon

    def test_readout_composition(self):
        p = make_reservoir(n=3, m=1, seed=6)
        ro = make_readout(n=3, p=2)
        rng = np.random.default_rng(4)
        traj = simulate(p, np.zeros(3), rng.uniform(-1, 1, (40, 1)))
        lm = edmd_fit(p, [traj], Dictionary(),
                      ridge=1e-12, readout=ro)
        z = lm.dictionary.eval_batch(traj.states[5][None])[0]
        np.testing.assert_allclose(lm.C_phi @ z, ro(traj.states[5]), atol=1e-12)

    def test_too_few_snapshots(self):
        p = make_reservoir(n=3, m=1)
        traj = simulate(p, np.zeros(3), np.zeros((3, 1)))
        with pytest.raises(ValueError, match="snapshots"):
            edmd_fit(p, [traj], Dictionary())

    def test_rank_deficient_needs_ridge(self):
        p = make_reservoir(n=2, m=1, seed=7)
        # constant zero data makes the state block degenerate
        traj = simulate(p, np.zeros(2), np.zeros((20, 1)))
        with pytest.raises(ValueError, match="ridge > 0"):
            edmd_fit(p, [traj], Dictionary(), ridge=0.0)
        edmd_fit(p, [traj], Dictionary(), ridge=1e-8)

    @pytest.mark.parametrize("ridge", [-1.0, math.nan, math.inf])
    def test_rejects_a_ridge_outside_zero_to_inf(self, ridge):
        # a NaN ridge gave an A_phi of NaN with an epsilon of 1.6e-16
        p = make_reservoir(n=3, m=1)
        traj = simulate(p, np.zeros(3), np.ones((20, 1)))
        with pytest.raises(ValueError, match="ridge must be finite and >= 0"):
            edmd_fit(p, [traj], Dictionary(), ridge=ridge)


class TestRolloutError:
    def test_exact_closure_rollout(self):
        p = make_reservoir(n=3, m=2, leak=1.0, seed=8,
                           activation=Activation.identity())
        rng = np.random.default_rng(5)
        train = simulate(p, rng.standard_normal(3),
                         rng.standard_normal((60, 2)))
        lm = edmd_fit(p, [train], Dictionary(),
                      ridge=0.0)
        test = simulate(p, rng.standard_normal(3),
                        rng.standard_normal((40, 2)))
        disc, _ = lifted_rollout_error(lm, p, test, horizon=40)
        assert disc.max() <= 1e-9

    def test_matches_step_loop(self):
        p = make_reservoir(n=3, m=1, seed=10, w_scale=0.5, leak=0.8)
        rng = np.random.default_rng(7)
        train = [simulate(p, 0.1 * rng.standard_normal(3),
                          rng.uniform(-1, 1, (200, 1))) for _ in range(3)]
        lm = edmd_fit(p, train, Dictionary.random_fourier(6, 1.0, 5),
                      ridge=1e-10)
        held_out = simulate(p, 0.1 * rng.standard_normal(3),
                            rng.uniform(-1, 1, (200, 1)))
        disc, _ = lifted_rollout_error(lm, p, held_out, horizon=150)
        phi = lm.dictionary.eval_batch(held_out.states)
        z, want = phi[0], []
        for t in range(150):
            z = lm.A_phi @ z + lm.B_phi @ held_out.inputs[t]
            want.append(np.linalg.norm(z - phi[t + 1]))
        assert np.abs(disc - want).max() <= 1e-12 * max(want)

    def test_one_step_discrepancy_bounded_by_epsilon(self):
        p = make_reservoir(n=3, m=1, seed=9, w_scale=0.6)
        rng = np.random.default_rng(6)
        train = simulate(p, np.zeros(3), rng.uniform(-1, 1, (120, 1)))
        lm = edmd_fit(p, [train], Dictionary.random_fourier(6, 1.0, 5),
                      ridge=1e-10)
        disc, bound = lifted_rollout_error(lm, p, train, horizon=1)
        assert disc[0] <= lm.epsilon * (1 + 1e-9)
        assert bound[0] == pytest.approx(lm.epsilon, rel=1e-12)

    def test_training_distribution_rollout_within_bound(self):
        # geometric-accumulation envelope holds on >= 95% of held-out steps
        # drawn from the training distribution
        p = make_reservoir(n=3, m=1, seed=10, w_scale=0.5, leak=0.8)
        rng = np.random.default_rng(7)
        train = [simulate(p, 0.1 * rng.standard_normal(3),
                          rng.uniform(-1, 1, (200, 1))) for _ in range(3)]
        lm = edmd_fit(p, train, Dictionary.random_fourier(6, 1.0, 5),
                      ridge=1e-10)
        assert spectral_radius(lm.A_phi) < 1.0
        held_out = simulate(p, 0.1 * rng.standard_normal(3),
                            rng.uniform(-1, 1, (200, 1)))
        disc, bound = lifted_rollout_error(lm, p, held_out, horizon=200)
        violation_rate = np.mean(disc > bound)
        assert violation_rate <= 0.05


    @pytest.mark.parametrize("horizon, error, message", [
        (2.5, TypeError, "horizon must be an integer, got 2.5"),
        (True, TypeError, "horizon must be an integer, got True"),
        (0, ValueError, "horizon must be >= 1, got 0"),
        (41, ValueError, "horizon must be in 1..len(inputs)"),
    ], ids=["float", "bool", "zero", "beyond-the-run"])
    def test_horizon_is_a_count_within_the_run(self, horizon, error, message):
        # a float horizon raised numpy's "slice indices must be integers",
        # and True ran one step
        p = make_reservoir(n=3, m=1, seed=9, w_scale=0.6)
        traj = simulate(p, np.zeros(3),
                        np.random.default_rng(6).uniform(-1, 1, (40, 1)))
        lm = edmd_fit(p, [traj], Dictionary(), ridge=1e-10)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            lifted_rollout_error(lm, p, traj, horizon=horizon)
