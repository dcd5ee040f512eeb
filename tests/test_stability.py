import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import esnkit
from esnkit import (Activation, CertificateMethod, ReservoirParams, Verdict,
                    certify_lipschitz, certify_weighted, gamma_for_radius,
                    make_normal_reservoir, memory_horizon, reservoir_step,
                    simulate, spectral_radius, target_radius)
from esnkit._linalg import SchurForm

from conftest import count_step_helpers, make_reservoir
from oracles import psd_exact, vertex_margin_min


def reservoir_with_norm(norm, leak, n=3, seed=0, activation=None):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, n))
    w *= norm / np.linalg.norm(w, 2)
    return ReservoirParams(W=w, U=rng.standard_normal((n, 1)), b=np.zeros(n),
                           leak=leak, activation=activation or Activation.tanh())


def designed_normal_reservoir(n, seed, memory_range):
    """A normal W designed for a memory horizon H drawn from ``memory_range``:
    the dominant real pole at the design radius gamma, a second real pole,
    then conjugate pairs with radii log-uniform in [0.25, 0.9] * gamma."""
    rng = np.random.default_rng(seed)
    leak = rng.uniform(0.3, 0.7)
    memory = rng.uniform(*memory_range)
    pairs = (n - 2) // 2
    radii = np.concatenate([[1.0], np.exp(rng.uniform(
        math.log(0.25), math.log(0.9), pairs + 1))])
    angles = np.concatenate([[0.0, math.pi],
                             rng.uniform(0.1, math.pi - 0.1, pairs)])
    gamma, _ = gamma_for_radius(target_radius(horizon=memory), leak, 1.0)
    w = make_normal_reservoir(n, gamma * radii, angles,
                              seed=int(rng.integers(2 ** 31)))
    return ReservoirParams(W=w, U=np.zeros((n, 1)), b=np.zeros(n), leak=leak)


def rational(m):
    """The entries of a matrix of doubles as exact rationals."""
    return [[Fraction(v) for v in row] for row in np.asarray(m)]


def rational_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def random_reservoir(rng, n, norms=(0.3, 1.6)):
    """Gaussian or upper-triangular W with ||W||_2 log-uniform in ``norms``,
    leak uniform in [0.05, 1], tanh or a leaky slope of 1.5."""
    w = rng.standard_normal((n, n))
    if rng.random() < 0.5:
        w = np.triu(w)
    w *= math.exp(rng.uniform(*np.log(norms))) / np.linalg.norm(w, 2)
    activation = (Activation.leaky_slope(1.5) if rng.random() < 0.3
                  else Activation.tanh())
    return ReservoirParams(W=w, U=np.zeros((n, 1)), b=np.zeros(n),
                           leak=rng.uniform(0.05, 1.0), activation=activation)


def exhaustive_reservoir(seed=8):
    """An n = 10 reservoir (1024 slope vertices) whose weighted certificate
    Passes.  At seed 8 the first rate the bisection tests fails, so the
    search ends there; at seed 300 it passes, and 13 of the 18 rates tested
    after it fail."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((10, 10))
    w *= rng.uniform(0.6, 0.9) / np.linalg.norm(w, 2)
    return ReservoirParams(W=w, U=np.zeros((10, 1)), b=np.zeros(10),
                           leak=rng.uniform(0.3, 0.7))


def full_slope_radius(p):
    """rho(A+) with A+ = (1 - leak) I + leak W (unit slope)."""
    return spectral_radius((1.0 - p.leak) * np.eye(p.n) + p.leak * p.W)


class TestLipschitzCertificate:
    def test_pass_case(self):
        cert = certify_lipschitz(reservoir_with_norm(0.9, leak=1.0))
        assert cert.kappa == pytest.approx(0.9, abs=1e-9)
        assert cert.verdict is Verdict.PASS
        assert cert.margin == pytest.approx(0.1, abs=1e-9)
        assert cert.method is CertificateMethod.LIPSCHITZ_C1

    def test_fail_case(self):
        cert = certify_lipschitz(reservoir_with_norm(1.5, leak=0.5))
        assert cert.kappa == pytest.approx(1.25, abs=1e-9)
        assert cert.verdict is Verdict.FAIL

    def test_boundary_is_nonstrict_fail(self):
        # exactly representable ||W|| = 1 so the estimate lands on 1.0 and
        # kappa, the bound with the SVD's error, just above it
        p = ReservoirParams(W=np.diag([1.0, 0.5]), U=np.zeros((2, 1)),
                            b=np.zeros(2), leak=0.5)
        cert = certify_lipschitz(p)
        assert 1.0 <= cert.kappa <= 1.0 + 1e-14
        assert cert.verdict is Verdict.FAIL

    def test_near_degenerate_top_singular_values_fail(self):
        # sigma_1 = 1 + 4e-9 and sigma_2 = sigma_1 - 1e-7: a power iteration
        # stalls below 1 here and would certify a map with ||W||_2 > 1
        rng = np.random.default_rng(0)
        n = 50
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = np.concatenate([[1 + 4e-9, 1 + 4e-9 - 1e-7],
                            rng.uniform(0.0, 0.9, n - 2)])
        p = ReservoirParams(W=(u * s) @ v.T, U=np.zeros((n, 1)), b=np.zeros(n),
                            leak=1.0, activation=Activation.identity())
        cert = certify_lipschitz(p)
        assert cert.verdict is Verdict.FAIL
        assert cert.kappa >= 1.0

    def test_kappa_bounds_the_norm_exactly(self):
        # with s = (kappa - (1 - leak)) / (leak L_sigma), s^2 I - W'W is
        # PSD in rationals, so kappa is at or above the exact small-gain
        # rate; small norms and leaks make the rounding of the sum count
        rng = np.random.default_rng(11)
        for k in range(120):
            p = random_reservoir(rng, int(rng.integers(2, 7)),
                                 (1e-3, 2.0) if k % 2 else (0.3, 1.6))
            lam = Fraction(p.leak)
            s = ((Fraction(certify_lipschitz(p).kappa) - (1 - lam))
                 / (lam * Fraction(p.activation.lipschitz)))
            w = rational(p.W)
            gram = rational_product(list(zip(*w)), w)
            assert psd_exact([[s * s * (i == j) - g for j, g in enumerate(row)]
                              for i, row in enumerate(gram)])

    def test_kappa_monotone_in_norm_and_slope(self):
        leak = 0.6
        kappas = [certify_lipschitz(reservoir_with_norm(s, leak)).kappa
                  for s in (0.2, 0.5, 0.9, 1.3)]
        assert all(a < b for a, b in zip(kappas, kappas[1:]))
        # leaky slope 1.5 raises L_sigma, hence kappa
        base = reservoir_with_norm(0.8, leak)
        steep = ReservoirParams(W=base.W, U=base.U, b=base.b, leak=leak,
                                activation=Activation.leaky_slope(1.5))
        assert certify_lipschitz(steep).kappa > certify_lipschitz(base).kappa


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, 0.3])) == pytest.approx(0.5, abs=1e-12)

    def test_scaled_rotation(self):
        th = np.pi / 6
        rot = 0.9 * np.array([[np.cos(th), -np.sin(th)],
                              [np.sin(th), np.cos(th)]])
        assert spectral_radius(rot) == pytest.approx(0.9, abs=1e-12)

    def test_companion_matches_characteristic_roots(self):
        # roots of z^2 - 0.25 are +-0.5
        a = np.array([[0.0, 1.0], [0.25, 0.0]])
        assert spectral_radius(a) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            spectral_radius(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            spectral_radius(np.array([[np.nan]]))


class TestWeightedCertificate:
    def test_normal_contraction_matches_euclidean(self):
        p = ReservoirParams(W=0.8 * np.eye(2), U=np.zeros((2, 1)),
                            b=np.zeros(2), leak=1.0,
                            activation=Activation.identity())
        cert = certify_weighted(p, vertex_budget=16)
        assert cert.verdict is Verdict.PASS
        assert cert.kappa <= 0.8 + 1e-5
        assert cert.weight_P is not None
        assert cert.method is CertificateMethod.WEIGHTED_C2

    def test_pure_leak(self):
        for leak in (0.3, 0.7):
            p = ReservoirParams(W=np.zeros((2, 2)), U=np.zeros((2, 1)),
                                b=np.zeros(2), leak=leak)
            cert = certify_weighted(p, vertex_budget=16)
            assert cert.verdict is Verdict.PASS
            assert cert.kappa == pytest.approx(1.0 - leak, abs=1e-5)

    def test_nonnormal_passes_where_lipschitz_fails(self):
        # upper-triangular W scaled to ||W|| = 1.9: the C1 bound is 1.45 but a
        # weighted norm certifies contraction; verify the returned (kappa, P)
        # against an exhaustive check of all 2^2 slope vertices.
        w = np.array([[0.5, 1.0], [0.0, 0.5]])
        w *= 1.9 / np.linalg.norm(w, 2)
        p = ReservoirParams(W=w, U=np.zeros((2, 1)), b=np.zeros(2), leak=0.5)
        assert certify_lipschitz(p).kappa == pytest.approx(1.45, abs=1e-9)
        assert certify_lipschitz(p).verdict is Verdict.FAIL

        cert = certify_weighted(p, vertex_budget=16)
        assert cert.verdict is Verdict.PASS
        assert cert.kappa < 1.0
        p_mat = cert.weight_P
        assert np.linalg.eigvalsh(p_mat).min() > 0.0
        k2p = cert.kappa ** 2 * p_mat
        for d in itertools.product((0.0, 1.0), repeat=2):
            m = 0.5 * np.eye(2) + 0.5 * (np.array(d)[:, None] * w)
            gap = m.T @ p_mat @ m - k2p
            assert np.linalg.eigvalsh(0.5 * (gap + gap.T)).max() <= \
                1e-9 * np.abs(k2p).max()

    def test_unstable_reservoir_fails_with_bound_at_least_one(self):
        p = ReservoirParams(W=1.2 * np.eye(2), U=np.zeros((2, 1)),
                            b=np.zeros(2), leak=1.0)
        cert = certify_weighted(p, vertex_budget=16)
        assert cert.verdict is Verdict.FAIL
        assert cert.kappa >= 1.0

    def test_fail_bound_is_measured_in_the_solved_weight(self):
        # rho(W) = 0.9 < 1, so a P exists at kappa = 1 - 1e-9, but a vertex
        # breaks it: the Fail reports the vertex gains in that P's norm
        rng = np.random.default_rng(6)
        w = np.triu(rng.standard_normal((3, 3)))
        w *= 0.9 / spectral_radius(w)
        p = ReservoirParams(W=w, U=np.zeros((3, 1)), b=np.zeros(3), leak=1.0)
        cert = certify_weighted(p, vertex_budget=8)
        kappa = 1.0 - 1e-9
        chol = np.linalg.cholesky(scipy.linalg.solve_discrete_lyapunov(
            w.T / kappa, np.eye(3) / kappa ** 2))
        vertices = [np.diag(d) @ w for d in itertools.product((0.0, 1.0),
                                                              repeat=3)]
        weighted = max(np.linalg.norm(chol.T @ m @ np.linalg.inv(chol.T), 2)
                       for m in vertices)
        assert cert.verdict is Verdict.FAIL
        assert cert.kappa == pytest.approx(weighted, rel=1e-9)
        assert cert.kappa < max(np.linalg.norm(m, 2) for m in vertices)

    @pytest.mark.parametrize("w0", [
        np.random.default_rng(2).standard_normal((6, 6)),
        np.triu(np.random.default_rng(0).standard_normal((6, 6)))],
        ids=["gaussian", "triangular"])
    def test_ill_conditioned_lyapunov_solve_gives_fail(self, w0):
        # rho(W) = 1 - 1e-9 - 1e-15: the solve at kappa = 1 - 1e-9 is
        # ill-conditioned, which is a Fail (an event), not a warning
        w = (1.0 - 1e-9 - 1e-15) * w0 / spectral_radius(w0)
        p = ReservoirParams(W=w, U=np.ones((6, 1)), b=np.zeros(6), leak=1.0,
                            activation=Activation.identity())
        cert = certify_weighted(p)
        assert cert.verdict is Verdict.FAIL
        assert cert.kappa >= 1.0

    def test_failed_lyapunov_solve_gives_euclidean_fail(self, monkeypatch):
        # with no candidate P at kappa = 1 - 1e-9 the Fail reports the
        # largest vertex gain in the Euclidean norm: ||W|| for leak = 1
        def no_solution(a, s):
            raise np.linalg.LinAlgError("no solution")

        monkeypatch.setattr(esnkit.stability, "solve_discrete_lyapunov",
                            no_solution)
        p = ReservoirParams(W=[[0.0, 1.5], [0.0, 0.0]], U=np.zeros((2, 1)),
                            b=np.zeros(2), leak=1.0)
        cert = certify_weighted(p, vertex_budget=16)
        assert cert.verdict is Verdict.FAIL
        assert cert.kappa == pytest.approx(1.5, rel=1e-9)

    def test_kappa_carries_the_cholesky_slack(self):
        # cond P = 2.5e5: a Cholesky pass at the gain g of the returned P
        # over the four vertices proves M' P M <= g^2 P + tau I, not
        # M' P M <= g^2 P, so the rate it proves is
        # sqrt(g^2 + tau / lambda_min(P)); the reported kappa, a rate that
        # P was tested at, is at least that
        leak = 0.5871
        w = np.array([[0.0558, -0.9834], [0.0, 0.9924]])
        p = ReservoirParams(W=w, U=np.zeros((2, 1)), b=np.zeros(2), leak=leak)
        assert certify_lipschitz(p).verdict is Verdict.FAIL
        cert = certify_weighted(p)
        assert cert.verdict is Verdict.PASS
        p_mat = cert.weight_P
        chol_t = np.linalg.cholesky(p_mat).T
        gain = max(np.linalg.norm(
            chol_t @ ((1 - leak) * np.eye(2) + leak * np.diag(d) @ w)
            @ np.linalg.inv(chol_t), 2)
            for d in itertools.product((0.0, 1.0), repeat=2))
        tau = esnkit.stability._VERTEX_SLACK * max(
            1.0, gain ** 2 * np.abs(p_mat).max())
        widened = math.sqrt(gain ** 2 + tau / np.linalg.eigvalsh(p_mat)[0])
        assert widened - gain > 1e-6
        assert widened <= cert.kappa < 1.0
        assert cert.kappa < 0.995544

    def test_stateless_reservoir_takes_the_lipschitz_rate(self):
        p = ReservoirParams(W=np.zeros((0, 0)), U=np.zeros((0, 1)),
                            b=np.zeros(0), leak=0.5)
        cert = certify_weighted(p)
        assert cert.method is CertificateMethod.WEIGHTED_C2
        assert (cert.verdict, cert.kappa) == (Verdict.PASS, 0.5)
        assert cert.weight_P is None
        assert memory_horizon(cert, 1.0, 1.0, 1e-3).horizon == 10

    def test_pass_above_the_budget_reports_unknown(self):
        p = make_reservoir(n=8, m=1, leak=0.8, w_scale=0.7, seed=3)
        cert = certify_weighted(p, vertex_budget=64)  # 2^8 = 256 > budget
        assert cert.verdict is Verdict.UNKNOWN
        assert cert.kappa < 1.0

    def test_check_above_the_budget_is_deterministic(self):
        # no vertex is tested above the budget: repeated calls agree bit for
        # bit
        p = make_reservoir(n=14, m=1, leak=0.6, w_scale=0.9, seed=5)
        first, second = (certify_weighted(p, vertex_budget=128) for _ in range(2))
        assert first.verdict is second.verdict is Verdict.UNKNOWN
        assert first.kappa == second.kappa
        assert np.array_equal(first.weight_P, second.weight_P)

    @pytest.mark.parametrize("w_scale", [0.6, 1.4])
    def test_above_the_budget_is_the_lipschitz_bound(self, monkeypatch, w_scale):
        # 2^20 > budget: no vertex stack and no Lyapunov solve; the kappa is
        # certify_lipschitz's, and its Pass is reported as Unknown
        def untouched(*args):
            raise AssertionError("called above the vertex budget")

        for name in ("_transition", "solve_discrete_lyapunov"):
            monkeypatch.setattr(esnkit.stability, name, untouched)
        p = reservoir_with_norm(w_scale, leak=0.5, n=20, seed=2)
        cert = certify_weighted(p, vertex_budget=1024)
        lipschitz = certify_lipschitz(p)
        assert cert.method is CertificateMethod.WEIGHTED_C2
        assert cert.kappa == lipschitz.kappa
        assert cert.weight_P is None
        assert cert.verdict is (Verdict.UNKNOWN if lipschitz.passed
                                else Verdict.FAIL)
        assert lipschitz.passed is (w_scale < 1.0)

    @settings(max_examples=25)
    @given(n=st.sampled_from([8, 9]), seed=st.integers(0, 2 ** 32 - 1),
           norm=st.floats(0.3, 2.0), leak=st.floats(0.2, 1.0),
           nonnormal=st.booleans())
    def test_exhaustive_verdict_is_sound(self, n, seed, norm, leak, nonnormal):
        # 2^n vertices span several stacks; every Pass is re-checked vertex by
        # vertex, and every Fail must report a bound of at least one; the
        # hierarchy rho(A+) <= kappa_weighted <= kappa_Lipschitz holds
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((n, n))
        if nonnormal:
            w = np.triu(w)
        w *= norm / np.linalg.norm(w, 2)
        p = ReservoirParams(W=w, U=np.zeros((n, 1)), b=np.zeros(n), leak=leak)
        cert = certify_weighted(p, vertex_budget=2 ** n)
        lipschitz = certify_lipschitz(p)
        if lipschitz.passed:
            assert cert.verdict is Verdict.PASS
            assert cert.kappa <= lipschitz.kappa * (1 + 1e-9)
        if cert.verdict is Verdict.PASS:
            assert full_slope_radius(p) * (1 - 1e-12) <= cert.kappa < 1.0
            p_mat = cert.weight_P
            scale = cert.kappa ** 2 * np.abs(p_mat).max()
            assert np.linalg.eigvalsh(p_mat).min() > 0.0
            assert vertex_margin_min(w, leak, 1.0, p_mat, cert.kappa) >= -1e-10 * scale
        else:
            assert cert.verdict is Verdict.FAIL
            assert cert.kappa >= 1.0

    @pytest.mark.parametrize("n", [2, 5, 8, 14])
    @settings(max_examples=3)
    @given(seed=st.integers(0, 2 ** 32 - 1), norm=st.floats(0.3, 1.5),
           leak=st.floats(0.2, 1.0), nonnormal=st.booleans())
    def test_certificate_does_not_depend_on_stack_size(self, n, seed, norm,
                                                       leak, nonnormal):
        # stacks of 1, 5, 64 and 4096 vertices give the same verdict, kappa
        # and weight: 2^n vertices are exhaustive for n <= 8, and n = 14 is
        # above the budget and tests none; stacks of 5 leave a partial last
        # stack
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((n, n))
        if nonnormal:
            w = np.triu(w)
        w *= norm / np.linalg.norm(w, 2)
        p = ReservoirParams(W=w, U=np.zeros((n, 1)), b=np.zeros(n), leak=leak)
        certs = []
        with pytest.MonkeyPatch.context() as patch:
            for chunk in (1, 5, 64, 4096):
                patch.setattr(esnkit.stability, "_VERTEX_CHUNK", chunk)
                certs.append(certify_weighted(p, vertex_budget=256))
        for cert in certs[1:]:
            assert cert.verdict is certs[0].verdict
            assert cert.kappa == certs[0].kappa
            if certs[0].weight_P is None:
                assert cert.weight_P is None
            else:
                assert np.array_equal(cert.weight_P, certs[0].weight_P)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            certify_weighted(make_reservoir(), vertex_budget=0)

    def test_designed_normal_reservoirs_pass_where_lipschitz_passes(self):
        # the Lyapunov weight alone failed 15 of these 30 designs (H in
        # [20, 60]) that certify_lipschitz passes; the P = I candidate makes
        # the weighted kappa no worse than the Lipschitz one
        for k in range(30):
            p = designed_normal_reservoir(10, 900 + k, (20.0, 60.0))
            lipschitz = certify_lipschitz(p)
            assert lipschitz.passed
            cert = certify_weighted(p, vertex_budget=1024)
            assert cert.verdict is Verdict.PASS
            assert cert.kappa <= lipschitz.kappa * (1 + 1e-9)

    def test_exhaustive_pass_holds_exactly_at_every_vertex(self):
        # kappa^2 P - M' P M is PSD in rationals at each slope vertex
        # M = (1 - leak) I + leak D W, D in {0, L_sigma}^n
        rng = np.random.default_rng(12)
        passed = 0
        for _ in range(40):
            n = int(rng.integers(2, 5))
            p = random_reservoir(rng, n)
            cert = certify_weighted(p, vertex_budget=2 ** n)
            if not cert.passed:
                continue
            passed += 1
            lam, w = Fraction(p.leak), rational(p.W)
            weight, k2 = rational(cert.weight_P), Fraction(cert.kappa) ** 2
            for d in itertools.product(
                    (0, Fraction(p.activation.lipschitz)), repeat=n):
                m = [[(1 - lam) * (i == j) + lam * d[i] * w[i][j]
                      for j in range(n)] for i in range(n)]
                gap = rational_product(rational_product(list(zip(*m)), weight), m)
                assert psd_exact([[k2 * pij - gij for pij, gij in zip(prow, grow)]
                                  for prow, grow in zip(weight, gap)])
        assert passed >= 20

    def test_bisection_tests_the_last_failing_stack_first(self, monkeypatch):
        # an exhaustive n = 10 reservoir (16 stacks of 64 vertices) whose
        # failing rate tests fail at stack 9 in the natural order on average
        # (114 stacks over 13 failing steps): a step
        # tests first the vertices that failed the last failed step, as one
        # small stack, so failing steps factor far fewer vertex matrices;
        # each step still gives the verdict of all 16 stacks, and kappa and P
        # equal those of one stack of all 1024 vertices
        p = exhaustive_reservoir(seed=300)
        stability = esnkit.stability
        failing = stability._failing
        solve = stability.solve_discrete_lyapunov
        steps = []

        def solving(*args):
            steps.append([])
            return solve(*args)

        def recording(p_mat, k2p, m):
            bad = failing(p_mat, k2p, m)
            steps[-1].append((p_mat, k2p, len(m), len(bad)))
            return bad

        monkeypatch.setattr(stability, "solve_discrete_lyapunov", solving)
        monkeypatch.setattr(stability, "_failing", recording)
        cert = certify_weighted(p, vertex_budget=1024)
        monkeypatch.undo()
        chunk = stability._VERTEX_CHUNK
        verts = stability._transition(p, stability._slope_vertices(10, 1.0))
        stacks = [verts[i:i + chunk] for i in range(0, len(verts), chunk)]

        def passes(p_mat, k2p, m):
            try:
                np.linalg.cholesky(k2p - np.swapaxes(m, 1, 2) @ p_mat @ m)
            except np.linalg.LinAlgError:
                return False
            return True

        natural = factored = fails = 0
        # steps[0] holds the gain sweeps; a step without a PD P tests nothing
        for step in filter(None, steps[1:]):
            p_mat, k2p, *_ = step[0]
            passed = [passes(p_mat, k2p, m) for m in stacks]
            assert not any(bad for *_, bad in step[:-1])
            assert (step[-1][3] == 0) == all(passed)
            if not all(passed):
                fails += 1
                natural += chunk * (passed.index(False) + 1)
                factored += sum(size for _, _, size, _ in step)
        assert len(stacks) == 16 and fails > 10 and natural > 100 * chunk
        assert factored < natural / 4
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stability, "_VERTEX_CHUNK", len(verts))
            one = certify_weighted(p, vertex_budget=1024)
        assert cert.verdict is one.verdict is Verdict.PASS
        assert cert.kappa == one.kappa
        assert np.array_equal(cert.weight_P, one.weight_P)

    def test_vertex_stack_is_built_once_per_call(self, monkeypatch):
        # A+ and the 1024 vertex matrices are two _transition calls, however
        # many steps the bisection takes
        counts = count_step_helpers(monkeypatch)
        solves = []
        solve = esnkit.stability.solve_discrete_lyapunov
        monkeypatch.setattr(esnkit.stability, "solve_discrete_lyapunov",
                            lambda *args: solves.append(1) or solve(*args))
        cert = certify_weighted(exhaustive_reservoir(seed=300), vertex_budget=1024)
        assert cert.passed and len(solves) > 10
        assert counts["_transition"] == 2

    def test_kappa_is_the_last_rate_that_passed(self, monkeypatch):
        # each bisection step solves for P at its rate r (one form.scaled(r))
        # and, if P is provably PD, tests r itself: the reported kappa is the
        # last r at which _failing found no vertex, else the sweep's proven
        # rate, and the rate below it that failed last is within the
        # tolerance
        stability = esnkit.stability
        failing, scaled = stability._failing, SchurForm.scaled
        rng = np.random.default_rng(31)
        cases = [exhaustive_reservoir(), exhaustive_reservoir(seed=300)]
        cases += [random_reservoir(rng, int(rng.integers(2, 7))) for _ in range(40)]
        first_passed = 0
        for p in cases:
            steps = []      # [rate, tested, passed], the gain sweep's first

            def recording(p_mat, k2p, m):
                bad = failing(p_mat, k2p, m)
                steps[-1][1:] = True, steps[-1][2] and not len(bad)
                return bad

            monkeypatch.setattr(SchurForm, "scaled", lambda form, rate: (
                steps.append([rate, False, True]) or scaled(form, rate)))
            monkeypatch.setattr(stability, "_failing", recording)
            cert = certify_weighted(p, vertex_budget=2 ** p.n)
            monkeypatch.undo()
            if len(steps) < 2:  # no rate tested: a Fail at the sweep's gain
                continue
            passed = [rate for rate, tested, ok in steps[1:] if tested and ok]
            failed = [rate for rate, tested, ok in steps[1:] if not (tested and ok)]
            first_passed += steps[1][2] and steps[1][1]
            if passed:
                assert cert.kappa == passed[-1]
            assert 0.0 < cert.kappa - max(failed) <= stability._BISECT_TOL
        assert first_passed >= 10

    def test_search_ends_at_a_first_rate_that_fails(self, monkeypatch):
        # the first rate tested is hi (1 - tol), hi the rate the gain sweep
        # proves: when it fails, the call makes the sweep's solve and that
        # one, and reports hi with the sweep's weight
        stability = esnkit.stability
        solves = []
        solve = stability.solve_discrete_lyapunov
        monkeypatch.setattr(stability, "solve_discrete_lyapunov",
                            lambda *args: solves.append(1) or solve(*args))
        p = exhaustive_reservoir()
        cert = certify_weighted(p, vertex_budget=1024)
        monkeypatch.undo()
        assert cert.passed and len(solves) == 2
        verts = stability._transition(p, stability._slope_vertices(10, 1.0))
        gain = stability._weighted_gain(cert.weight_P, [verts])
        lo = stability._eig_bounds(cert.weight_P)[0]
        tau = stability._slack(cert.weight_P, gain)
        assert cert.kappa == math.sqrt(gain ** 2 + tau / lo)

    def test_whole_failing_stack_when_lapack_finds_no_failing_vertex(
            self, monkeypatch):
        # the batched Cholesky and LAPACK dpotrf can disagree at the margin:
        # if dpotrf passes every vertex of a failing stack, the whole stack
        # fails, and the certificate is unchanged
        p = exhaustive_reservoir()
        cert = certify_weighted(p, vertex_budget=1024)
        calls = []

        def passing(a, *args):
            calls.append(1)
            return a, 0

        monkeypatch.setattr(esnkit.stability, "dpotrf", passing)
        patched = certify_weighted(p, vertex_budget=1024)
        assert len(calls) > 64
        assert patched.verdict is cert.verdict is Verdict.PASS
        assert patched.kappa == cert.kappa
        assert np.array_equal(patched.weight_P, cert.weight_P)


class TestMemoryHorizon:
    def test_ratio_100(self):
        est = memory_horizon(0.9, 1.0, 100.0, 1.0)
        assert est.horizon == 44

    def test_clamped_to_zero(self):
        assert memory_horizon(0.9, 1.0, 1.0, 2.0).horizon == 0

    def test_ratio_two_at_half(self):
        assert memory_horizon(0.5, 1.0, 2.0, 1.0).horizon == 1

    def test_horizon_is_the_least_lag_exactly(self):
        # tolerances within 8 eps of g a kappa^H0: in rationals,
        # g a kappa^H <= tol and g a kappa^(H - 1) > tol
        rng = np.random.default_rng(13)
        eps = np.finfo(np.float64).eps
        for _ in range(300):
            kappa, h0 = rng.uniform(0.5, 0.995), int(rng.integers(1, 200))
            gain, amplitude = rng.uniform(0.1, 3.0, 2)
            tol = gain * amplitude * kappa ** h0 * (1 + rng.uniform(-8, 8) * eps)
            horizon = memory_horizon(kappa, gain, amplitude, tol).horizon

            def exact(lag):
                return Fraction(gain) * Fraction(amplitude) * Fraction(kappa) ** lag

            assert exact(horizon) <= Fraction(tol)
            assert horizon == 0 or exact(horizon - 1) > Fraction(tol)

    @pytest.mark.parametrize("args, horizon", [
        ((0.5, 1e300, 1e300, 1e-300), 2990), ((0.5, 1e200, 1e200, 1.0), 1329)])
    def test_overflowing_ratio_gives_the_least_lag(self, args, horizon):
        # g a / tol overflows a double; H is still the least lag, in rationals
        kappa, gain, amplitude, tol = map(Fraction, args)
        ratio = gain * amplitude / tol
        assert ratio * kappa ** horizon <= 1 < ratio * kappa ** (horizon - 1)
        assert memory_horizon(*args).horizon == horizon

    def test_zero_rate_forgets_after_one_step(self):
        # leak 1 and W = 0 certify kappa = 0: H = 1 unless c g a <= tol
        # already, decided exactly; 0.1 * 0.01 exceeds 1e-3 in rationals
        cert = certify_lipschitz(ReservoirParams(
            W=np.zeros((2, 2)), U=np.zeros((2, 1)), b=np.zeros(2), leak=1.0))
        assert (cert.verdict, cert.kappa) == (Verdict.PASS, 0.0)
        assert memory_horizon(cert, 1.0, 1.0, 1e-3).horizon == 1
        assert memory_horizon(0.0, 1.0, 1.0, 1e-3).horizon == 1
        assert memory_horizon(cert, 1e-3, 1.0, 1e-3).horizon == 0
        assert memory_horizon(0.0, 1e-3, 1.0, 1e-3).horizon == 0
        assert Fraction(0.1) * Fraction(0.01) > Fraction(1e-3)
        assert memory_horizon(0.0, 0.1, 0.01, 1e-3).horizon == 1

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0])
    def test_rejects_nonfinite_or_nonpositive_scales(self, bad):
        for args in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
            with pytest.raises(ValueError, match="positive and finite"):
                memory_horizon(0.5, *args)

    def test_requires_certificate(self):
        with pytest.raises(ValueError, match="fading-memory"):
            memory_horizon(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="fading-memory"):
            memory_horizon(1.3, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="fading-memory"):
            memory_horizon(-0.5, 1.0, 1.0, 1.0)
        failed = certify_lipschitz(make_reservoir(leak=1.0, w_scale=1.2))
        with pytest.raises(ValueError, match="fading-memory"):
            memory_horizon(failed, 1.0, 1.0, 1.0)

    def test_lipschitz_certificate_is_its_euclidean_rate(self):
        cert = certify_lipschitz(make_reservoir(leak=0.7, w_scale=0.8))
        est = memory_horizon(cert, 0.7, 3.0, 1e-3)
        assert est.constant == 1.0
        assert est == memory_horizon(cert.kappa, 0.7, 3.0, 1e-3)

    def test_weighted_certificate_horizon_is_sound(self):
        # kappa is a P-norm rate here, so the Euclidean horizon carries
        # c = sqrt(cond P), about 8.6 for this reservoir; an input perturbed
        # at lag H, then kept H + 40 steps away, moves the state by <= eps
        w = np.array([[0.5, 1.0], [0.0, 0.5]])
        w *= 1.9 / np.linalg.norm(w, 2)
        p = ReservoirParams(W=w, U=np.ones((2, 1)), b=np.zeros(2), leak=0.5)
        cert = certify_weighted(p, vertex_budget=16)
        gain = p.leak * np.linalg.norm(p.U, 2)
        amplitude, eps = 0.5, 0.02
        est = memory_horizon(cert, gain, amplitude, eps)
        assert est.constant == pytest.approx(
            np.sqrt(np.linalg.cond(cert.weight_P)), rel=1e-9)
        assert est.horizon > memory_horizon(cert.kappa, gain, amplitude,
                                            eps).horizon
        rng = np.random.default_rng(5)
        for lag in (est.horizon, est.horizon + 40):
            for trial in range(10):
                inputs = rng.uniform(-1, 1, (lag + 1, p.m))
                pert = inputs.copy()
                pert[0] += amplitude * rng.choice([-1.0, 1.0])
                xa = simulate(p, np.zeros(p.n), inputs).states[-1]
                xb = simulate(p, np.zeros(p.n), pert).states[-1]
                assert np.linalg.norm(xa - xb) <= eps * (1 + 1e-9)


class TestContractionProperties:
    def test_certified_rate_bounds_trajectory_gap(self):
        # Pass certificate => ||x_t - x'_t|| <= kappa^t ||x0 - x0'|| under
        # identical bounded inputs (Euclidean norm for the C1 certificate).
        for seed in range(5):
            p = make_reservoir(n=6, m=2, leak=0.65, w_scale=0.9, seed=seed)
            cert = certify_lipschitz(p)
            assert cert.passed
            rng = np.random.default_rng(100 + seed)
            x0, x0p = rng.standard_normal((2, p.n))
            inputs = rng.uniform(-1, 1, (200, p.m))
            t1 = simulate(p, x0, inputs)
            t2 = simulate(p, x0p, inputs)
            gaps = np.linalg.norm(t1.states - t2.states, axis=1)
            bound = np.linalg.norm(x0 - x0p) * cert.kappa ** np.arange(201)
            assert np.all(gaps <= bound * (1 + 1e-9))

    def test_weighted_rate_bounds_gap_in_p_norm(self):
        w = np.array([[0.5, 1.0], [0.0, 0.5]])
        w *= 1.9 / np.linalg.norm(w, 2)
        p = ReservoirParams(W=w, U=np.ones((2, 1)), b=np.zeros(2), leak=0.5)
        cert = certify_weighted(p, vertex_budget=16)
        assert cert.passed
        chol_t = np.linalg.cholesky(cert.weight_P).T
        rng = np.random.default_rng(42)
        x0, x0p = rng.standard_normal((2, 2))
        inputs = rng.uniform(-1, 1, (200, 1))
        t1 = simulate(p, x0, inputs)
        t2 = simulate(p, x0p, inputs)
        gaps = np.linalg.norm((t1.states - t2.states) @ chol_t.T, axis=1)
        bound = gaps[0] * cert.kappa ** np.arange(201)
        assert np.all(gaps <= bound * (1 + 1e-9))

    def test_iiss_disturbance_bound(self):
        # bounded per-step disturbance keeps the deviation within
        # D / (1 - kappa) + kappa^t * initial gap
        p = make_reservoir(n=5, m=2, leak=0.7, w_scale=0.8, seed=2)
        cert = certify_lipschitz(p)
        rng = np.random.default_rng(8)
        inputs = rng.uniform(-1, 1, (150, p.m))
        x = rng.standard_normal(p.n)
        x_dist = x.copy()
        dist_sup = 0.05
        gap0 = 0.0
        for t in range(150):
            x = reservoir_step(p, x, inputs[t])
            d = rng.uniform(-1, 1, p.n)
            d *= dist_sup / np.linalg.norm(d)
            x_dist = reservoir_step(p, x_dist, inputs[t]) + d
            bound = dist_sup / (1 - cert.kappa) + cert.kappa ** (t + 1) * gap0
            assert np.linalg.norm(x - x_dist) <= bound * (1 + 1e-9)

    def test_memory_horizon_soundness(self):
        # Perturbing an input that propagates >= H_eps steps before the
        # measurement moves the state by <= eps: the perturbed input at index
        # s enters x_{s+1}, so it undergoes (T - 1 - s) contraction steps
        # before x_T is read.
        p = make_reservoir(n=6, m=2, leak=1.0, w_scale=0.9, seed=4)
        cert = certify_lipschitz(p)
        gain = p.leak * np.linalg.norm(p.U, 2)
        amplitude = 0.5
        eps = gain * amplitude / 50.0
        est = memory_horizon(cert.kappa, gain, amplitude, eps)
        horizon = est.horizon + 10
        rng = np.random.default_rng(77)
        for trial in range(20):
            inputs = rng.uniform(-1, 1, (horizon, p.m))
            pert = inputs.copy()
            delta = rng.standard_normal(p.m)
            delta *= amplitude / np.linalg.norm(delta)
            pert[horizon - est.horizon - 1] += delta
            xa = simulate(p, np.zeros(p.n), inputs).states[-1]
            xb = simulate(p, np.zeros(p.n), pert).states[-1]
            assert np.linalg.norm(xa - xb) <= eps * (1 + 1e-9)
