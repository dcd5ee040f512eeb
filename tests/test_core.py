import logging
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esnkit import (Activation, Dictionary, NoiseModel, Readout,
                    ReservoirParams, Trajectory, edmd_fit, ekf_filter,
                    jacobians_at, linearize_trajectory, simulate)
from esnkit.core import _noise_draws

from conftest import count_step_helpers, counts_by_horizon, make_reservoir
from oracles import leaky_step

# frozen from a 40-digit series evaluation of tanh and 1 - tanh^2
TANH_1 = 0.7615941559557649
SECH2_1 = 0.4199743416140261


def one_step(params, x, u):
    """The state after one noise-free step of the library's map."""
    return simulate(params, x, u[None]).states[1]


class TestActivation:
    def test_tanh_at_zero(self):
        value, deriv = Activation.tanh().evaluate(np.zeros(3))
        assert np.all(value == 0.0)
        assert np.all(deriv == 1.0)

    def test_identity(self):
        value, deriv = Activation.identity().evaluate(np.array([2.0, -3.0]))
        np.testing.assert_array_equal(value, [2.0, -3.0])
        np.testing.assert_array_equal(deriv, [1.0, 1.0])

    def test_tanh_at_one_matches_series_oracle(self):
        value, deriv = Activation.tanh().evaluate(np.array([1.0]))
        assert value[0] == pytest.approx(TANH_1, abs=1e-12)
        assert deriv[0] == pytest.approx(SECH2_1, abs=1e-12)

    def test_zero_fixed_point_and_unit_slope_at_origin(self):
        for act in (Activation.tanh(), Activation.identity(),
                    Activation.leaky_slope(0.3)):
            assert act.evaluate(np.zeros(1))[0][0] == 0.0

    def test_derivative_bounded_by_lipschitz(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(1000) * 5
        for act in (Activation.tanh(), Activation.identity(),
                    Activation.leaky_slope(0.4), Activation.leaky_slope(1.5)):
            _, deriv = act.evaluate(x)
            assert np.all(np.abs(deriv) <= act.lipschitz + 1e-15)

    @pytest.mark.parametrize("kind, slope, message", [
        ("relu", 1.0, "unknown activation kind 'relu'"),
        ("leaky_slope", -0.5, "negative_slope must be finite and >= 0"),
        ("leaky_slope", np.nan, "negative_slope must be finite and >= 0"),
    ], ids=["unknown-kind", "negative-slope", "nan-slope"])
    def test_rejects_unknown_kind_and_bad_slope(self, kind, slope, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Activation(kind, negative_slope=slope)

    def test_equal_functions_are_stored_alike(self):
        # a slope given to the identity is unread, and a leaky slope of 1 is
        # the identity: each is one function, so they compare equal, hash
        # alike and simulate by the identity's affine scan
        forms = [Activation("identity", negative_slope=0.3),
                 Activation.identity(), Activation.leaky_slope(1.0)]
        assert forms[0] == forms[1] == forms[2]
        assert len({hash(form) for form in forms}) == 1
        assert Activation("tanh", negative_slope=0.3) == Activation.tanh()
        assert Activation.leaky_slope(0.3) != Activation.identity()

    def test_leaky_lacks_curvature_bound(self):
        assert Activation.leaky_slope(0.5).second_deriv_bound is None
        assert Activation.identity().second_deriv_bound == 0.0


class TestReservoirStep:
    def test_zero_map(self):
        n = 3
        p = ReservoirParams(W=np.zeros((n, n)), U=np.eye(n), b=np.zeros(n),
                            leak=1.0)
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(one_step(p, x, np.zeros(n)),
                                      np.zeros(n))

    def test_pure_leak(self):
        p = ReservoirParams(W=np.zeros((1, 1)), U=np.zeros((1, 1)),
                            b=np.zeros(1), leak=0.5)
        assert one_step(p, np.array([2.0]), np.zeros(1))[0] == 1.0

    def test_identity_activation_is_linear_recursion(self):
        rng = np.random.default_rng(3)
        a0 = rng.standard_normal((3, 3)) * 0.3
        b0 = rng.standard_normal((3, 2))
        p = ReservoirParams(W=a0, U=b0, b=np.zeros(3), leak=1.0,
                            activation=Activation.identity())
        x = rng.standard_normal(3)
        u = rng.standard_normal(2)
        np.testing.assert_allclose(one_step(p, x, u), a0 @ x + b0 @ u,
                                   atol=1e-15)


class TestSimulate:
    def test_zero_input_zero_state(self):
        p = make_reservoir(bias_scale=0.0)
        traj = simulate(p, np.zeros(p.n), np.zeros((10, p.m)))
        np.testing.assert_array_equal(traj.states, 0.0)

    @pytest.mark.parametrize("activation", [
        Activation.tanh(), Activation.identity(), Activation.leaky_slope(0.2)],
        ids=["tanh", "identity", "leaky_slope"])
    def test_stateless_reservoir(self, activation):
        p = ReservoirParams(W=np.zeros((0, 0)), U=np.zeros((0, 1)),
                            b=np.zeros(0), leak=0.5, activation=activation)
        traj = simulate(p, np.zeros(0), np.zeros((3, 1)))
        assert traj.states.shape == (4, 0)

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

    @pytest.mark.parametrize("q_scale", [0.0, 0.01], ids=["q0", "noisy"])
    def test_identity_activation_matches_step_loop(self, q_scale):
        # the identity map runs as one affine scan: the step loop up to
        # rounding, and with Q = 0 exactly the noise-free run
        p = make_reservoir(n=6, m=2, seed=8, leak=0.7, w_scale=0.95,
                           activation=Activation.identity(), bias_scale=0.5)
        rng = np.random.default_rng(12)
        x0 = rng.standard_normal(p.n)
        inputs = rng.standard_normal((700, p.m))
        q = q_scale * np.eye(p.n)
        traj = simulate(p, x0, inputs, process_noise=(q, 5))
        draws = _noise_draws((q, 5), "Q", (700, p.n))
        want = [x0]
        for u, w in zip(inputs, draws):
            want.append(leaky_step(p, want[-1], u) + w)
        want = np.array(want)
        assert np.abs(traj.states - want).max() <= 1e-12 * np.abs(want).max()
        if q_scale == 0.0:
            assert np.array_equal(traj.states, simulate(p, x0, inputs).states)

    @settings(max_examples=60)
    @given(n=st.integers(1, 12), horizon=st.integers(0, 60),
           seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["tanh", "leaky_slope"]),
           negative_slope=st.floats(0.0, 2.0), leak=st.floats(0.05, 1.0),
           noisy=st.booleans())
    @example(n=3, horizon=0, seed=1, kind="tanh", negative_slope=1.0,
             leak=0.5, noisy=True)
    @example(n=3, horizon=1, seed=2, kind="tanh", negative_slope=1.0,
             leak=0.5, noisy=True)
    @example(n=1, horizon=1, seed=3, kind="leaky_slope", negative_slope=0.2,
             leak=1.0, noisy=False)
    def test_nonlinear_matches_step_loop(self, n, horizon, seed, kind,
                                         negative_slope, leak, noisy):
        # the preactivation recursion and the scan that recovers the states
        # regroup the sums of the map; ||W|| L_sigma = 0.9 keeps the
        # rounding from growing
        act = Activation(kind, negative_slope=negative_slope)
        p = make_reservoir(n=n, m=2, seed=seed % 2 ** 31, leak=leak,
                           w_scale=0.9 / act.lipschitz, activation=act,
                           bias_scale=0.5)
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal(n)
        inputs = rng.standard_normal((horizon, 2))
        noise = (0.01 * np.eye(n), seed) if noisy else None
        traj = simulate(p, x0, inputs, process_noise=noise)
        draws = (_noise_draws(noise, "Q", (horizon, n)) if noisy
                 else np.zeros((horizon, n)))
        want = [x0]
        for u, w in zip(inputs, draws):
            want.append(leaky_step(p, want[-1], u) + w)
        want = np.array(want)
        assert traj.states.shape == (horizon + 1, n)
        assert np.abs(traj.states - want).max() <= 1e-12 * np.abs(want).max()

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

    @pytest.mark.parametrize("horizon", [3, 5])
    def test_readout_maps_each_state_row(self, horizon):
        # a (T, n) batch is T states: with T = n, C @ x + d read the batch
        # as one matrix (first row [15, 18, 21], not [5, 14, 23]), and any
        # other T raised
        readout = Readout(C=np.arange(9.0).reshape(3, 3), d=[1.0, 0.0, -1.0])
        states = np.arange(3.0 * horizon).reshape(horizon, 3)
        want = np.array([readout.C @ x + readout.d for x in states])
        assert np.array_equal(readout(states), want)
        assert np.array_equal(readout(states[0]), want[0])
        assert np.array_equal(readout(states[None]), want[None])
        p = make_reservoir(n=3)
        traj = simulate(p, states[0], np.zeros((horizon, p.m)),
                        readout=readout)
        assert np.array_equal(traj.outputs, readout(traj.states[1:]))

    def test_inputs_must_be_two_dimensional(self):
        # a length-T vector for m = 1 is not read as one step of T inputs
        p = make_reservoir(m=1)
        with pytest.raises(ValueError,
                           match=r"inputs must be \(T, 1\), got \(7,\)$"):
            simulate(p, np.zeros(p.n), np.zeros(7))
        assert simulate(p, np.zeros(p.n), np.zeros((7, 1))).horizon == 7

    @pytest.mark.parametrize("kind", ["tanh", "leaky_slope"])
    def test_step_loop_calls_no_python_helper(self, kind, monkeypatch):
        # each step calls only ufuncs and BLAS, so the calls of the
        # activation's methods and of _transition do not grow with T
        p = make_reservoir(n=5, seed=6, bias_scale=0.5,
                           activation=Activation(kind, negative_slope=0.3))
        rng = np.random.default_rng(6)
        counts = count_step_helpers(monkeypatch)
        small, large = counts_by_horizon(counts, lambda horizon: simulate(
            p, np.zeros(p.n), rng.standard_normal((horizon, p.m)),
            process_noise=(0.01 * np.eye(p.n), 3)))
        assert small == large

    def test_noise_covariance_must_match_the_state(self):
        p = make_reservoir(n=4)
        with pytest.raises(ValueError, match=r"^Q must be \(4, 4\), got \(2, 2\)$"):
            simulate(p, np.zeros(p.n), np.zeros((3, p.m)),
                     process_noise=(np.eye(2), 0))

    def test_measurement_noise_requires_readout(self):
        p = make_reservoir()
        with pytest.raises(ValueError, match="readout"):
            simulate(p, np.zeros(p.n), np.zeros((3, p.m)),
                     measurement_noise=(np.eye(1), 0))


class TestNoiseJitterEvent:
    # singular, with an eigenvalue below 0 by less than check_psd's floor
    _CLIPPED_Q = np.diag([1e3, -5e-10, 0.0, 0.0])

    def _run(self, q, caplog, level=logging.DEBUG):
        p = make_reservoir()
        with caplog.at_level(level, logger="esnkit.core"):
            return simulate(p, np.zeros(p.n), np.zeros((5, p.m)),
                            readout=Readout(C=np.eye(p.n)),
                            process_noise=(q, 3),
                            measurement_noise=(0.1 * np.eye(p.n), 4))

    def _events(self, caplog):
        return [rec.getMessage() for rec in caplog.records
                if rec.name == "esnkit.core" and rec.levelno == logging.DEBUG
                and rec.getMessage().split()[0] == "simulate.noise_clip"]

    def test_singular_q_reported_once(self, caplog):
        # Q = 0 is drawn exactly: no noise at all and nothing to report; a
        # clipped eigenvalue is reported once and the draw stays finite
        p = make_reservoir()
        clean = simulate(p, np.zeros(p.n), np.zeros((5, p.m)))
        traj = self._run(np.zeros((p.n, p.n)), caplog)
        assert self._events(caplog) == []
        assert np.array_equal(traj.states, clean.states)
        traj = self._run(self._CLIPPED_Q, caplog)
        assert self._events(caplog) == [
            "simulate.noise_clip covariance=Q eigenvalue=-5.000e-10"]
        assert np.all(np.isfinite(traj.states))

    def test_definite_q_reports_nothing(self, caplog):
        self._run(0.01 * np.eye(4), caplog)
        assert self._events(caplog) == []

    def test_logging_does_not_change_results(self, caplog):
        quiet = self._run(self._CLIPPED_Q, caplog, logging.WARNING)
        loud = self._run(self._CLIPPED_Q, caplog, logging.DEBUG)
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
            lhs = np.linalg.norm(one_step(p, x1, u) - one_step(p, x2, u))
            assert lhs <= kappa * np.linalg.norm(x1 - x2) * (1 + 1e-12)

    def test_input_lipschitz_bound(self):
        p = make_reservoir(n=6, m=3, leak=0.6, w_scale=1.4, seed=10)
        gain = p.leak * np.linalg.norm(p.U, 2)
        rng = np.random.default_rng(14)
        for _ in range(1000):
            x = rng.standard_normal(p.n) * 3
            u1, u2 = rng.standard_normal((2, p.m)) * 2
            lhs = np.linalg.norm(one_step(p, x, u1) - one_step(p, x, u2))
            assert lhs <= gain * np.linalg.norm(u1 - u2) * (1 + 1e-12)


class TestTrajectoryType:
    def test_shape_spec_messages(self):
        # a repeated spec name means equal sizes; an int size must match
        with pytest.raises(ValueError, match=r"^W must be \(n, n\), got \(3, 4\)$"):
            ReservoirParams(W=np.zeros((3, 4)), U=np.zeros((3, 1)),
                            b=np.zeros(3), leak=0.5)
        with pytest.raises(ValueError, match=r"^U must be \(3, m\), got \(2, 1\)$"):
            ReservoirParams(W=np.zeros((3, 3)), U=np.zeros((2, 1)),
                            b=np.zeros(3), leak=0.5)
        with pytest.raises(ValueError, match=r"^b must be \(3,\), got \(3, 1\)$"):
            ReservoirParams(W=np.zeros((3, 3)), U=np.zeros((3, 1)),
                            b=np.zeros((3, 1)), leak=0.5)

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


def _ekf_with(p, traj, readout):
    ekf_filter(p, readout, NoiseModel(Q=np.eye(4), R=np.eye(readout.p)),
               traj.inputs, np.zeros((traj.horizon, readout.p)),
               (np.zeros(4), np.eye(4)))


# each public function that takes a readout, called on an n = 4 reservoir,
# a run of it and the readout
READOUT_CALLS = {
    "simulate": lambda p, traj, readout: simulate(
        p, np.zeros(4), traj.inputs, readout),
    "ekf_filter": _ekf_with,
    "edmd_fit": lambda p, traj, readout: edmd_fit(
        p, [traj], Dictionary(), readout=readout),
    "jacobians_at": lambda p, traj, readout: jacobians_at(
        p, np.zeros(4), np.zeros(2), readout),
    "linearize_trajectory": lambda p, traj, readout: linearize_trajectory(
        p, traj, readout),
}


@pytest.mark.parametrize("columns", [3, 5])
@pytest.mark.parametrize("name", list(READOUT_CALLS))
def test_readout_of_another_state_size_is_rejected(name, columns):
    # simulate, ekf_filter and edmd_fit check the readout against the
    # reservoir at the call; without that, scipy's fblas error, numpy's
    # matmul message or a broadcast error came from inside the computation,
    # and the two surrogates reject the C of their model
    p = make_reservoir(n=4, m=2)
    traj = simulate(p, np.zeros(4), np.random.default_rng(0).standard_normal((20, 2)))
    readout = Readout(C=np.ones((2, columns)))
    prefix = "readout C must be (2, 4)" if name in (
        "simulate", "ekf_filter", "edmd_fit") else "C must be (p, 4)"
    with pytest.raises(ValueError,
                       match=f"^{re.escape(prefix)}, got \\(2, {columns}\\)$"):
        READOUT_CALLS[name](p, traj, readout)
