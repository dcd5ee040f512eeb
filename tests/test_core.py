import logging

import numpy as np
import pytest

from esnkit import (Activation, Readout, ReservoirParams, Trajectory,
                    activation_eval, reservoir_step, simulate)

from conftest import make_reservoir

# frozen from a 40-digit series evaluation of tanh and 1 - tanh^2
TANH_1 = 0.7615941559557649
SECH2_1 = 0.4199743416140261


class TestActivation:
    def test_tanh_at_zero(self):
        value, deriv = activation_eval(Activation.tanh(), np.zeros(3))
        assert np.all(value == 0.0)
        assert np.all(deriv == 1.0)

    def test_identity(self):
        value, deriv = activation_eval(Activation.identity(), np.array([2.0, -3.0]))
        np.testing.assert_array_equal(value, [2.0, -3.0])
        np.testing.assert_array_equal(deriv, [1.0, 1.0])

    def test_tanh_at_one_matches_series_oracle(self):
        value, deriv = activation_eval(Activation.tanh(), np.array([1.0]))
        assert value[0] == pytest.approx(TANH_1, abs=1e-12)
        assert deriv[0] == pytest.approx(SECH2_1, abs=1e-12)

    def test_nonfinite_input_rejected_with_index(self):
        x = np.array([0.0, np.inf, 1.0])
        with pytest.raises(ValueError, match="index 1"):
            activation_eval(Activation.tanh(), x)

    def test_zero_fixed_point_and_unit_slope_at_origin(self):
        for act in (Activation.tanh(), Activation.identity(),
                    Activation.leaky_slope(0.3)):
            assert act(np.zeros(1))[0] == 0.0

    def test_derivative_bounded_by_lipschitz(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(1000) * 5
        for act in (Activation.tanh(), Activation.identity(),
                    Activation.leaky_slope(0.4), Activation.leaky_slope(1.5)):
            _, deriv = activation_eval(act, x)
            assert np.all(np.abs(deriv) <= act.lipschitz + 1e-15)

    def test_leaky_lacks_curvature_bound(self):
        assert Activation.leaky_slope(0.5).second_deriv_bound is None
        assert Activation.identity().second_deriv_bound == 0.0


class TestReservoirStep:
    def test_zero_map(self):
        n = 3
        p = ReservoirParams(W=np.zeros((n, n)), U=np.eye(n), b=np.zeros(n),
                            leak=1.0)
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(reservoir_step(p, x, np.zeros(n)),
                                      np.zeros(n))

    def test_pure_leak(self):
        p = ReservoirParams(W=np.zeros((1, 1)), U=np.zeros((1, 1)),
                            b=np.zeros(1), leak=0.5)
        assert reservoir_step(p, np.array([2.0]), np.zeros(1))[0] == 1.0

    def test_identity_activation_is_linear_recursion(self):
        rng = np.random.default_rng(3)
        a0 = rng.standard_normal((3, 3)) * 0.3
        b0 = rng.standard_normal((3, 2))
        p = ReservoirParams(W=a0, U=b0, b=np.zeros(3), leak=1.0,
                            activation=Activation.identity())
        x = rng.standard_normal(3)
        u = rng.standard_normal(2)
        np.testing.assert_allclose(reservoir_step(p, x, u), a0 @ x + b0 @ u,
                                   atol=1e-15)

    def test_dimension_mismatch(self):
        p = make_reservoir(n=4, m=2)
        with pytest.raises(ValueError):
            reservoir_step(p, np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            reservoir_step(p, np.zeros(4), np.zeros(3))


class TestSimulate:
    def test_zero_input_zero_state(self):
        p = make_reservoir(bias_scale=0.0)
        traj = simulate(p, np.zeros(p.n), np.zeros((10, p.m)))
        np.testing.assert_array_equal(traj.states, 0.0)

    def test_identity_activation_matches_direct_lti(self):
        p = make_reservoir(leak=1.0, activation=Activation.identity(), seed=5)
        rng = np.random.default_rng(11)
        x0 = rng.standard_normal(p.n)
        inputs = rng.standard_normal((50, p.m))
        traj = simulate(p, x0, inputs)
        x = x0.copy()
        for t in range(50):
            x = p.W @ x + p.U @ inputs[t]
            assert np.abs(traj.states[t + 1] - x).max() <= 1e-12

    def test_seeded_noise_is_bit_reproducible(self):
        p = make_reservoir()
        rng = np.random.default_rng(1)
        inputs = rng.standard_normal((30, p.m))
        q = 0.01 * np.eye(p.n)
        readout = Readout(C=np.eye(p.n))
        kw = dict(readout=readout, process_noise=(q, 123),
                  measurement_noise=(0.1 * np.eye(p.n), 7))
        t1 = simulate(p, np.zeros(p.n), inputs, **kw)
        t2 = simulate(p, np.zeros(p.n), inputs, **kw)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.outputs, t2.outputs)
        t3 = simulate(p, np.zeros(p.n), inputs, readout=readout,
                      process_noise=(q, 124))
        assert not np.array_equal(t1.states, t3.states)

    def test_non_psd_q_rejected(self):
        p = make_reservoir()
        q = np.eye(p.n)
        q[0, 0] = -1.0
        with pytest.raises(ValueError, match="positive semidefinite"):
            simulate(p, np.zeros(p.n), np.zeros((3, p.m)),
                     process_noise=(q, 0))
        with pytest.raises(ValueError, match="symmetric"):
            asym = np.eye(p.n)
            asym[0, 1] = 0.5
            simulate(p, np.zeros(p.n), np.zeros((3, p.m)),
                     process_noise=(asym, 0))

    def test_outputs_align_with_states(self):
        p = make_reservoir()
        readout = Readout(C=np.eye(p.n))
        rng = np.random.default_rng(2)
        traj = simulate(p, rng.standard_normal(p.n),
                        rng.standard_normal((8, p.m)), readout=readout)
        np.testing.assert_allclose(traj.outputs, traj.states[1:], atol=0)

    def test_measurement_noise_requires_readout(self):
        p = make_reservoir()
        with pytest.raises(ValueError, match="readout"):
            simulate(p, np.zeros(p.n), np.zeros((3, p.m)),
                     measurement_noise=(np.eye(1), 0))


class TestNoiseJitterEvent:
    def _run(self, q_scale, caplog, level=logging.DEBUG):
        p = make_reservoir()
        with caplog.at_level(level, logger="esnkit.core"):
            return simulate(p, np.zeros(p.n), np.zeros((5, p.m)),
                            readout=Readout(C=np.eye(p.n)),
                            process_noise=(q_scale * np.eye(p.n), 3),
                            measurement_noise=(0.1 * np.eye(p.n), 4))

    def _events(self, caplog):
        return [rec.getMessage() for rec in caplog.records
                if rec.name == "esnkit.core" and rec.levelno == logging.DEBUG
                and rec.getMessage().split()[0] == "simulate.noise_jitter"]

    def test_singular_q_reported_once(self, caplog):
        # Q = 0 is valid, but its Cholesky factorization needs the jitter,
        # which adds noise of standard deviation 1e-6 to the states
        traj = self._run(0.0, caplog)
        assert self._events(caplog) == [
            "simulate.noise_jitter covariance=Q jitter=1e-12"]
        assert 0.0 < np.abs(traj.states).max() <= 1e-4

    def test_definite_q_reports_nothing(self, caplog):
        self._run(0.01, caplog)
        assert self._events(caplog) == []

    def test_logging_does_not_change_results(self, caplog):
        quiet = self._run(0.0, caplog, logging.WARNING)
        loud = self._run(0.0, caplog, logging.DEBUG)
        assert len(self._events(caplog)) == 1
        assert np.array_equal(quiet.states, loud.states)
        assert np.array_equal(quiet.outputs, loud.outputs)


class TestLipschitzProperties:
    def test_state_lipschitz_bound(self):
        # one-step bound kappa = (1 - leak) + leak ||W|| L_sigma on >= 1000 triples
        p = make_reservoir(n=6, m=3, leak=0.6, w_scale=1.4, seed=9)
        kappa = (1 - p.leak) + p.leak * np.linalg.norm(p.W, 2)
        rng = np.random.default_rng(13)
        for _ in range(1000):
            x1, x2 = rng.standard_normal((2, p.n)) * 3
            u = rng.standard_normal(p.m)
            lhs = np.linalg.norm(reservoir_step(p, x1, u) - reservoir_step(p, x2, u))
            assert lhs <= kappa * np.linalg.norm(x1 - x2) * (1 + 1e-12)

    def test_input_lipschitz_bound(self):
        p = make_reservoir(n=6, m=3, leak=0.6, w_scale=1.4, seed=10)
        gain = p.leak * np.linalg.norm(p.U, 2)
        rng = np.random.default_rng(14)
        for _ in range(1000):
            x = rng.standard_normal(p.n) * 3
            u1, u2 = rng.standard_normal((2, p.m)) * 2
            lhs = np.linalg.norm(reservoir_step(p, x, u1) - reservoir_step(p, x, u2))
            assert lhs <= gain * np.linalg.norm(u1 - u2) * (1 + 1e-12)


class TestTrajectoryType:
    def test_length_invariant(self):
        with pytest.raises(ValueError, match="len"):
            Trajectory(states=np.zeros((3, 2)), inputs=np.zeros((3, 1)))

    def test_leak_range(self):
        with pytest.raises(ValueError, match="leak"):
            ReservoirParams(W=np.zeros((1, 1)), U=np.zeros((1, 1)),
                            b=np.zeros(1), leak=0.0)
        with pytest.raises(ValueError, match="leak"):
            ReservoirParams(W=np.zeros((1, 1)), U=np.zeros((1, 1)),
                            b=np.zeros(1), leak=1.2)
