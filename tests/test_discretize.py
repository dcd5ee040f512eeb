import math

import numpy as np
import pytest

from esnkit import (Activation, CtLinearModel, Dictionary, ReservoirParams,
                    StructuredBasis, certify_weighted, ct_jacobians,
                    euler_leak, spectral_radius, tustin_leak, zoh_discretize)

from conftest import make_reservoir


def expm_taylor(a, order=60):
    """Independent oracle: straight Taylor summation of the exponential,
    accurate to machine precision for the moderate norms used in tests."""
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, order + 1):
        term = term @ a / k
        out = out + term
    return out


def random_hurwitz(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = a - (np.abs(np.linalg.eigvals(a).real).max() + 0.5) * np.eye(n)
    return a * scale


class TestLeakMaps:
    def test_euler_basic(self):
        assert euler_leak(0.1, 1.0) == pytest.approx(0.1)

    def test_euler_boundary(self):
        assert euler_leak(1.0, 1.0) == 1.0

    def test_euler_rejects_large_step(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            euler_leak(2.0, 1.0)

    def test_tustin_cases(self):
        assert tustin_leak(1.0, 1.0) == 2.0 / 3.0
        assert tustin_leak(0.2, 1.0) == pytest.approx(0.2 / 1.1, rel=1e-15)

    def test_tustin_small_step_matches_euler(self):
        dt, tau = 1e-4, 1.0
        assert abs(tustin_leak(dt, tau) - euler_leak(dt, tau)) <= 1e-8

    def test_tustin_warns_above_one(self):
        with pytest.warns(UserWarning, match="not usable"):
            tustin_leak(10.0, 1.0)

    @pytest.mark.parametrize("leak_map", [euler_leak, tustin_leak])
    @pytest.mark.parametrize("dt, tau", [(math.nan, 1.0), (0.1, math.nan),
                                         (math.inf, 1.0), (0.1, math.inf)])
    def test_rejects_nonfinite_times(self, leak_map, dt, tau):
        # a NaN gave a NaN leak, and tau = inf a leak of 0
        with pytest.raises(ValueError, match="positive and finite"):
            leak_map(dt, tau)

    def test_leak_agreement_rate(self):
        # gap to euler vanishes like dt / (2 tau)
        for dt in (0.1, 0.01, 0.001):
            ratio = tustin_leak(dt, 1.0) / euler_leak(dt, 1.0)
            assert abs(1.0 - ratio) <= dt / 2.0 + 1e-12


class TestCtJacobians:
    def test_zero_reservoir(self):
        p = ReservoirParams(W=np.zeros((3, 3)), U=np.ones((3, 1)),
                            b=np.zeros(3), leak=0.5)
        ct = ct_jacobians(p, tau=2.0, x_bar=np.zeros(3), u_bar=np.zeros(1))
        np.testing.assert_allclose(ct.A_c, -np.eye(3) / 2.0, atol=1e-15)

    def test_identity_activation(self):
        p = make_reservoir(activation=Activation.identity(), bias_scale=0.3)
        rng = np.random.default_rng(0)
        ct = ct_jacobians(p, 1.5, rng.standard_normal(p.n),
                          rng.standard_normal(p.m))
        np.testing.assert_allclose(ct.A_c, (p.W - np.eye(p.n)) / 1.5,
                                   atol=1e-15)

    def test_saturation_limit_and_fd_oracle(self):
        n, m = 3, 2
        rng = np.random.default_rng(1)
        p = ReservoirParams(W=rng.standard_normal((n, n)) * 0.4,
                            U=rng.standard_normal((n, m)),
                            b=12.0 * np.ones(n), leak=1.0)
        tau = 0.7
        x_bar = np.zeros(n)  # bias alone pushes every preactivation to ~12
        u_bar = np.zeros(m)
        ct = ct_jacobians(p, tau, x_bar, u_bar)
        np.testing.assert_allclose(ct.A_c, -np.eye(n) / tau, atol=1e-6)
        assert np.abs(ct.B_c).max() <= 1e-6

        def field(x, u):
            value, _ = p.activation.evaluate(x @ p.W.T + u @ p.U.T + p.b)
            return (value - x) / tau

        step = 1e-6
        x_bar = rng.standard_normal(n) * 0.5
        ct = ct_jacobians(p, tau, x_bar, u_bar)
        for j in range(n):
            e = np.zeros(n)
            e[j] = step
            col = (field(x_bar + e, u_bar) - field(x_bar - e, u_bar)) / (2 * step)
            assert np.abs(ct.A_c[:, j] - col).max() <= 1e-6


class TestZohDiscretize:
    def test_scalar_closed_form(self):
        tau, dt = 2.0, 0.3
        ct = CtLinearModel(A_c=np.array([[-1.0 / tau]]),
                           B_c=np.array([[1.5]]))
        a_d, b_d, q_d = zoh_discretize(ct, dt)
        assert a_d[0, 0] == pytest.approx(np.exp(-dt / tau), rel=1e-14)
        assert b_d[0, 0] == pytest.approx(tau * (1 - np.exp(-dt / tau)) * 1.5,
                                          rel=1e-12)
        assert q_d[0, 0] == 0.0

    def test_zero_dynamics(self):
        n, m = 3, 2
        rng = np.random.default_rng(2)
        b_c = rng.standard_normal((n, m))
        q_c = np.eye(n) * 0.4
        ct = CtLinearModel(A_c=np.zeros((n, n)), B_c=b_c, Q_c=q_c)
        a_d, b_d, q_d = zoh_discretize(ct, 0.25)
        np.testing.assert_allclose(a_d, np.eye(n), atol=1e-14)
        np.testing.assert_allclose(b_d, 0.25 * b_c, atol=1e-14)
        np.testing.assert_allclose(q_d, 0.25 * q_c, atol=1e-14)

    def test_matches_taylor_oracle(self):
        a_c = random_hurwitz(4, seed=3)
        ct = CtLinearModel(A_c=a_c, B_c=np.zeros((4, 1)))
        a_d, _, _ = zoh_discretize(ct, 0.2)
        np.testing.assert_allclose(a_d, expm_taylor(a_c * 0.2), rtol=1e-12,
                                   atol=1e-14)

    def test_first_order_gap_quarters_on_halving(self):
        # ||A_d - (I + dt A_c)|| is O(dt^2): halving dt divides it by ~4
        a_c = random_hurwitz(4, seed=7)
        dt = 0.05 / np.linalg.norm(a_c, 2)
        gaps = []
        ct = CtLinearModel(A_c=a_c, B_c=np.zeros((4, 1)))
        for d in (dt, dt / 2):
            a_d, _, _ = zoh_discretize(ct, d)
            gaps.append(np.linalg.norm(a_d - np.eye(4) - d * a_c))
        assert 3.5 <= gaps[0] / gaps[1] <= 4.5

    def test_semigroup_property(self):
        a_c = random_hurwitz(5, seed=11)
        ct = CtLinearModel(A_c=a_c, B_c=np.zeros((5, 1)))
        a_half, _, _ = zoh_discretize(ct, 0.1)
        a_full, _, _ = zoh_discretize(ct, 0.2)
        assert np.linalg.norm(a_half @ a_half - a_full) <= 1e-10

    def test_eigenvalue_mapping_and_stability_transfer(self):
        for seed in range(5):
            a_c = random_hurwitz(4, seed=20 + seed)
            assert np.linalg.eigvals(a_c).real.max() < 0
            dt = 0.3
            ct = CtLinearModel(A_c=a_c, B_c=np.zeros((4, 1)))
            a_d, _, _ = zoh_discretize(ct, dt)
            ev_c = np.sort_complex(np.linalg.eigvals(a_c))
            ev_d = np.sort_complex(np.linalg.eigvals(a_d))
            mapped = np.sort_complex(np.exp(ev_c * dt))
            assert np.abs(ev_d - mapped).max() <= 1e-8
            assert spectral_radius(a_d) < 1.0

    def test_q_noise_mapping_vs_quadrature(self):
        # independent oracle: fine trapezoid quadrature of the noise integral
        n = 3
        a_c = random_hurwitz(n, seed=31)
        rng = np.random.default_rng(32)
        root = rng.standard_normal((n, n))
        q_c = root @ root.T
        dt = 0.4
        ct = CtLinearModel(A_c=a_c, B_c=np.zeros((n, 1)), Q_c=q_c)
        _, _, q_d = zoh_discretize(ct, dt)
        ts = np.linspace(0.0, dt, 4001)
        acc = np.zeros((n, n))
        for i, t in enumerate(ts):
            e = expm_taylor(a_c * t)
            weight = 0.5 if i in (0, len(ts) - 1) else 1.0
            acc += weight * (e @ q_c @ e.T)
        acc *= ts[1] - ts[0]
        np.testing.assert_allclose(q_d, acc, rtol=1e-6, atol=1e-8)

    def test_contraction_preserved_under_euler(self):
        # L_sigma ||W|| < 1: the Euler factor is 1 - (dt/tau)(1 - ||W||)
        p = make_reservoir(n=4, m=2, w_scale=0.8, seed=40, leak=1.0)
        dt, tau = 0.2, 1.0
        leak = euler_leak(dt, tau)
        kappa = (1 - leak) + leak * np.linalg.norm(p.W, 2)
        expect = 1 - (dt / tau) * (1 - np.linalg.norm(p.W, 2))
        assert kappa == pytest.approx(expect, rel=1e-12)
        assert kappa < 1.0

    def test_rejects_ill_conditioned_request(self):
        ct = CtLinearModel(A_c=-2000.0 * np.eye(2), B_c=np.zeros((2, 1)))
        with pytest.raises(ValueError, match="ill-conditioned"):
            zoh_discretize(ct, 1.0)

    def test_requires_dt(self):
        ct = CtLinearModel(A_c=-np.eye(2), B_c=np.zeros((2, 1)))
        for dt in (0.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="dt must be positive"):
                zoh_discretize(ct, dt)


_CT = CtLinearModel(A_c=np.zeros((2, 2)), B_c=np.ones((2, 1)))


@pytest.mark.parametrize("call, match", [
    (lambda: zoh_discretize(_CT, math.inf), "dt"),
    (lambda: ct_jacobians(make_reservoir(), math.inf, np.zeros(4),
                          np.zeros(2)), "tau"),
    (lambda: ct_jacobians(make_reservoir(), math.nan, np.zeros(4),
                          np.zeros(2)), "tau"),
    (lambda: Dictionary(count=3, bandwidth=math.inf), "bandwidth"),
    (lambda: StructuredBasis(np.eye(2), l_sigma=math.inf), "l_sigma"),
    (lambda: certify_weighted(make_reservoir(), vertex_budget=math.nan),
     "vertex_budget"),
], ids=["zoh-dt-inf", "ct-tau-inf", "ct-tau-nan", "bandwidth-inf",
        "basis-l_sigma-inf", "vertex_budget-nan"])
def test_rejects_nonfinite_scalars(call, match):
    # each was accepted or blamed on another argument: an SVD that did not
    # converge, a zero Jacobian, a non-finite A_c, constant Fourier
    # features, an infeasible projection, or an unbounded vertex sweep
    with pytest.raises(ValueError, match=match):
        call()
