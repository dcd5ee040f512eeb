import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from esnkit import (Activation, LtvModel, ReservoirParams, Trajectory,
                    ct_jacobians, jacobians_at, linearize_trajectory,
                    remainder_bound, simulate)
from esnkit.core import leaky_jacobians, leaky_map

from conftest import make_readout, make_reservoir
from oracles import leaky_step

TANH_CURVATURE_SUP = 4.0 / (3.0 * np.sqrt(3.0))


def fd_jacobians(params, x_bar, u_bar, step=1e-6):
    """Central finite differences of the reservoir step (the independent
    oracle for the analytic Jacobians)."""
    n, m = params.n, params.m
    a = np.empty((n, n))
    b = np.empty((n, m))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        a[:, j] = (leaky_step(params, x_bar + e, u_bar)
                   - leaky_step(params, x_bar - e, u_bar)) / (2 * step)
    for j in range(m):
        e = np.zeros(m)
        e[j] = step
        b[:, j] = (leaky_step(params, x_bar, u_bar + e)
                   - leaky_step(params, x_bar, u_bar - e)) / (2 * step)
    return a, b


class TestJacobians:
    def test_origin_tanh_slope_one(self):
        p = make_reservoir(bias_scale=0.0)
        lti = jacobians_at(p, np.zeros(p.n), np.zeros(p.m))
        lam = p.leak
        np.testing.assert_allclose(lti.A, (1 - lam) * np.eye(p.n) + lam * p.W,
                                   atol=1e-15)
        np.testing.assert_allclose(lti.B, lam * p.U, atol=1e-15)
        assert np.all(lti.D == 0.0)

    def test_identity_activation_point_independent(self):
        p = make_reservoir(activation=Activation.identity(), bias_scale=0.5)
        rng = np.random.default_rng(0)
        l1 = jacobians_at(p, rng.standard_normal(p.n), rng.standard_normal(p.m))
        l2 = jacobians_at(p, rng.standard_normal(p.n), rng.standard_normal(p.m))
        np.testing.assert_array_equal(l1.A, l2.A)
        np.testing.assert_array_equal(l1.B, l2.B)

    def test_saturation_kills_gains(self):
        # preactivation ~ 10 per coordinate: tanh slope below 1e-8
        n, m = 3, 2
        p = ReservoirParams(W=np.zeros((n, n)), U=np.zeros((n, m)),
                            b=10.0 * np.ones(n), leak=0.6)
        lti = jacobians_at(p, np.zeros(n), np.zeros(m))
        np.testing.assert_allclose(lti.A, (1 - 0.6) * np.eye(n), atol=1e-8)
        assert np.abs(lti.B).max() <= 1e-8

    def test_matches_finite_differences_at_random_points(self):
        # validation contract: <= 1e-6 relative against central differences
        p = make_reservoir(n=5, m=3, leak=0.8, w_scale=1.1, seed=21,
                           bias_scale=0.3)
        rng = np.random.default_rng(5)
        for _ in range(100):
            x_bar = rng.standard_normal(p.n)
            u_bar = rng.standard_normal(p.m)
            lti = jacobians_at(p, x_bar, u_bar)
            a_fd, b_fd = fd_jacobians(p, x_bar, u_bar)
            scale = max(np.abs(a_fd).max(), np.abs(b_fd).max(), 1.0)
            assert np.abs(lti.A - a_fd).max() <= 1e-6 * scale
            assert np.abs(lti.B - b_fd).max() <= 1e-6 * scale

    def test_readout_becomes_c(self):
        p = make_reservoir()
        ro = make_readout(n=p.n, p=2)
        lti = jacobians_at(p, np.zeros(p.n), np.zeros(p.m), ro)
        np.testing.assert_array_equal(lti.C, ro.C)
        assert lti.D.shape == (2, p.m)

    def test_norm_bounded_by_lipschitz_constant(self):
        p = make_reservoir(n=6, m=2, leak=0.55, w_scale=1.3, seed=8,
                           bias_scale=0.4)
        bound = (1 - p.leak) + p.leak * np.linalg.norm(p.W, 2)
        rng = np.random.default_rng(9)
        for _ in range(50):
            lti = jacobians_at(p, rng.standard_normal(p.n),
                               rng.standard_normal(p.m))
            assert np.linalg.norm(lti.A, 2) <= bound * (1 + 1e-12)


class TestRemainderBound:
    def test_identity_activation_is_exact(self):
        p = make_reservoir(activation=Activation.identity())
        assert remainder_bound(p, 0.5) == 0.0

    def test_zero_radius(self):
        assert remainder_bound(make_reservoir(), 0.0) == 0.0

    def test_tanh_curvature_constant(self):
        # oracle: numerical maximization of |tanh''| on a fine grid
        x = np.linspace(-4.0, 4.0, 400_001)
        t = np.tanh(x)
        grid_max = np.abs(-2.0 * t * (1.0 - t * t)).max()
        assert grid_max == pytest.approx(TANH_CURVATURE_SUP, abs=1e-9)
        p = make_reservoir(leak=1.0)
        assert remainder_bound(p, 0.1) == pytest.approx(
            0.5 * TANH_CURVATURE_SUP * 0.01, rel=1e-12)

    @pytest.mark.parametrize("radius", [-1.0, math.nan, math.inf])
    def test_rejects_a_radius_outside_zero_to_inf(self, radius):
        with pytest.raises(ValueError, match="tube radius"):
            remainder_bound(make_reservoir(), radius)

    def test_leaky_has_no_bound(self):
        p = make_reservoir(activation=Activation.leaky_slope(0.5))
        with pytest.raises(ValueError, match="second-derivative"):
            remainder_bound(p, 0.1)

    @pytest.mark.parametrize("radius", [0.01, 0.1, 0.5])
    def test_bound_holds_on_tube_samples(self, radius):
        # measured one-step error of the surrogate never exceeds the bound
        p = make_reservoir(n=5, m=2, leak=0.7, w_scale=0.9, seed=3,
                           bias_scale=0.2)
        rng = np.random.default_rng(17)
        x_bar = rng.standard_normal(p.n) * 0.3
        u_bar = rng.standard_normal(p.m) * 0.3
        lti = jacobians_at(p, x_bar, u_bar)
        f_bar = leaky_step(p, x_bar, u_bar)
        bound = remainder_bound(p, radius)
        for _ in range(1000):
            dx = rng.standard_normal(p.n)
            du = rng.standard_normal(p.m)
            xi_dev = p.W @ dx + p.U @ du
            scale = radius * rng.uniform(0, 1) / np.linalg.norm(xi_dev)
            dx, du = dx * scale, du * scale
            truth = leaky_step(p, x_bar + dx, u_bar + du)
            approx = f_bar + lti.A @ dx + lti.B @ du
            assert np.linalg.norm(truth - approx) <= bound * (1 + 1e-9)


class TestLtvLinearization:
    def test_constant_trajectory_gives_constant_lti(self):
        p = make_reservoir(bias_scale=0.0)
        traj = Trajectory(states=np.zeros((6, p.n)), inputs=np.zeros((5, p.m)))
        ltv = linearize_trajectory(p, traj)
        ref = jacobians_at(p, np.zeros(p.n), np.zeros(p.m))
        for a_t, b_t in zip(ltv.A_seq, ltv.B_seq):
            np.testing.assert_array_equal(a_t, ref.A)
            np.testing.assert_array_equal(b_t, ref.B)

    def test_identity_collapses_to_lti(self):
        p = make_reservoir(activation=Activation.identity(), seed=6)
        rng = np.random.default_rng(2)
        traj = simulate(p, rng.standard_normal(p.n),
                        rng.standard_normal((10, p.m)))
        ltv = linearize_trajectory(p, traj)
        for a_t in ltv.A_seq[1:]:
            np.testing.assert_array_equal(a_t, ltv.A_seq[0])

    def test_saturating_trajectory_matches_finite_differences(self):
        # A_t drifts toward (1 - leak) I as |xi| grows; every step must agree
        # with the finite-difference oracle
        p = make_reservoir(n=4, m=2, leak=0.8, w_scale=0.9, seed=12,
                           bias_scale=0.0)
        rng = np.random.default_rng(4)
        inputs = 3.0 * np.ones((8, p.m)) + 0.1 * rng.standard_normal((8, p.m))
        traj = simulate(p, np.zeros(p.n), inputs)
        ltv = linearize_trajectory(p, traj)
        drift = []
        for t, (a_t, b_t) in enumerate(zip(ltv.A_seq, ltv.B_seq)):
            a_fd, b_fd = fd_jacobians(p, traj.states[t], traj.inputs[t])
            assert np.abs(a_t - a_fd).max() <= 1e-6
            assert np.abs(b_t - b_fd).max() <= 1e-6
            drift.append(np.linalg.norm(a_t - (1 - p.leak) * np.eye(p.n)))
        # once the state saturates the Jacobian shrinks toward pure leak
        assert drift[-1] < drift[0]

    @pytest.mark.parametrize("states, inputs", [((6, 3), (5, 2)), ((6, 4), (5, 1))],
                             ids=["state-size", "input-size"])
    def test_trajectory_of_another_size_rejected(self, states, inputs):
        p = make_reservoir(n=4, m=2)
        traj = Trajectory(states=np.zeros(states), inputs=np.zeros(inputs))
        with pytest.raises(ValueError, match="^trajectory dimensions do not "
                                             "match the reservoir$"):
            linearize_trajectory(p, traj)

    def test_mismatched_sequences_rejected(self):
        eye = np.eye(3)
        with pytest.raises(ValueError, match="B_seq"):
            LtvModel(A_seq=np.zeros((5, 3, 3)), B_seq=np.zeros((4, 3, 1)),
                     C=eye, D=np.zeros((3, 1)))
        with pytest.raises(ValueError, match="B_seq"):
            LtvModel(A_seq=np.zeros((5, 3, 3)), B_seq=np.zeros((5, 2, 1)),
                     C=eye, D=np.zeros((3, 1)))
        with pytest.raises(ValueError, match="A_seq"):
            LtvModel(A_seq=np.zeros((5, 3, 2)), B_seq=np.zeros((5, 3, 1)),
                     C=eye, D=np.zeros((3, 1)))
        with pytest.raises(ValueError, match=r"^C must be \(p, 3\), got \(3,\)$"):
            LtvModel(A_seq=np.zeros((5, 3, 3)), B_seq=np.zeros((5, 3, 1)),
                     C=np.ones(3), D=np.zeros((1, 1)))


def _close(got, want, rtol):
    return np.abs(got - want).max() <= rtol * max(1.0, np.abs(want).max())


class TestLeakyKernel:
    @settings(max_examples=60)
    @given(n=st.integers(1, 8), m=st.integers(1, 3), steps=st.integers(1, 12),
           seed=st.integers(0, 2 ** 31 - 1), leak=st.floats(0.1, 1.0),
           kind=st.sampled_from(["tanh", "identity", "leaky_slope"]),
           negative_slope=st.floats(0.0, 2.0))
    def test_batched_kernel_matches_pointwise_layers(self, n, m, steps, seed,
                                                     leak, kind, negative_slope):
        # one batched kernel call per layer must agree with the single-point
        # oracle step, jacobians_at and the CT lag; and the simulate loop
        # over a precomputed drive with the stepwise map
        act = Activation(kind, negative_slope=negative_slope)
        p = make_reservoir(n=n, m=m, seed=seed, leak=leak, w_scale=1.2,
                           activation=act, bias_scale=0.5)
        rng = np.random.default_rng(seed)
        states = 2.0 * rng.standard_normal((steps + 1, n))
        inputs = rng.standard_normal((steps, m))
        x_next, _ = leaky_map(p, states[:-1], inputs)
        rows = np.array([leaky_step(p, x, u)
                         for x, u in zip(states[:-1], inputs)])
        assert _close(x_next, rows, 1e-14)
        walk = [states[0]]
        for u in inputs:
            walk.append(leaky_step(p, walk[-1], u))
        assert _close(simulate(p, states[0], inputs).states, np.array(walk),
                      1e-12)
        # A alone is built in place, so check a stack that is not C-ordered
        slopes = np.asfortranarray(
            rng.uniform(0.0, act.lipschitz, (steps, n)))
        a, _ = leaky_jacobians(p, slopes)
        assert np.array_equal(
            a, (1.0 - leak) * np.eye(n) + leak * (slopes[:, :, None] * p.W))

        ltv = linearize_trajectory(p, Trajectory(states=states, inputs=inputs))
        assert len(ltv) == steps
        tau = 1.0 + seed % 5
        for t in range(steps):
            lti = jacobians_at(p, states[t], inputs[t])
            assert _close(ltv.A_seq[t], lti.A, 1e-14)
            assert _close(ltv.B_seq[t], lti.B, 1e-14)
            ct = ct_jacobians(p, tau, states[t], inputs[t])
            slope_w = (lti.A - (1.0 - leak) * np.eye(n)) / leak
            assert _close(ct.A_c * tau, slope_w - np.eye(n), 1e-12)


class TestOperatingPointValidation:
    @pytest.mark.parametrize("kind", ["tanh", "identity"])
    @pytest.mark.parametrize("bad", ["x_bar", "u_bar"])
    def test_nonfinite_operating_pair_rejected(self, kind, bad):
        # identity slopes do not depend on the operating point, so only an
        # explicit check can reject a NaN there
        p = make_reservoir(n=3, m=1, activation=Activation(kind))
        pair = {"x_bar": np.zeros(3), "u_bar": np.zeros(1)}
        pair[bad][0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            jacobians_at(p, **pair)
        with pytest.raises(ValueError, match="non-finite"):
            ct_jacobians(p, 1.0, **pair)
