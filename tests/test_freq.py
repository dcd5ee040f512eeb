import copy
import dataclasses
import pickle
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import esnkit._linalg
import esnkit.freq
import esnkit.stability
from esnkit import (LtiModel, ctrb_obsv_rank, gramians, h2_norm,
                    hinf_norm_grid, impulse_kernel, modal, output_psd,
                    spectral_radius, transfer_eval)
from esnkit._linalg import real_schur, solve_discrete_lyapunov

from oracles import psd_exact, transfer_dense


def to_fractions(m):
    """The doubles of ``m`` as an object array of exact ``Fraction``s."""
    return np.vectorize(Fraction, otypes=[object])(m)


def scalar_lti(a, b, c, d=0.0):
    return LtiModel(A=[[a]], B=[[b]], C=[[c]], D=[[d]])


def stable_random_lti(n=5, m=2, p=2, seed=0, rho=0.8):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a *= rho / spectral_radius(a)
    return LtiModel(A=a, B=rng.standard_normal((n, m)),
                    C=rng.standard_normal((p, n)), D=np.zeros((p, m)))


def kind_of_state_matrix(kind, n, rng):
    """An n x n A of one ``kind``: Gaussian, upper-triangular non-normal,
    real with conjugate eigenvalue pairs (rotated blocks), or a Jordan block."""
    if kind == "gaussian":
        return rng.standard_normal((n, n)) / np.sqrt(max(n, 1))
    if kind == "triangular":
        return (np.triu(rng.standard_normal((n, n)), 1) / np.sqrt(max(n, 1))
                + np.diag(rng.uniform(-1.5, 1.5, n)))
    if kind == "jordan":
        return rng.uniform(-1.5, 1.5) * np.eye(n) + np.eye(n, k=1)
    a = np.diag(rng.uniform(-1.5, 1.5, n))
    for k in range(0, n - 1, 2):
        r, th = rng.uniform(0.1, 1.5), rng.uniform(0.0, np.pi)
        a[k:k + 2, k:k + 2] = r * np.array([[np.cos(th), -np.sin(th)],
                                            [np.sin(th), np.cos(th)]])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ a @ q.T


class TestTransferEval:
    def test_scalar_dc_gain(self):
        assert transfer_eval(scalar_lti(0.5, 2.0, 3.0), 1.0)[0, 0] == \
            pytest.approx(12.0, rel=1e-12)

    def test_no_input_coupling_gives_feedthrough(self):
        lti = LtiModel(A=0.5 * np.eye(2), B=np.zeros((2, 2)),
                       C=np.eye(2), D=np.diag([1.0, 2.0]))
        for z in (1.0, np.exp(1j * 0.7), 2.0):
            np.testing.assert_allclose(transfer_eval(lti, z), np.diag([1, 2]),
                                       atol=1e-14)

    def test_matches_truncated_series_oracle(self):
        # C (I - z^{-1} A)^{-1} B expands as sum_k z^{-k} c a^k b; on the unit
        # circle its magnitude equals the delay-convention series as well
        a, b, c = 0.9, 1.0, 1.0
        lti = scalar_lti(a, b, c)
        for omega, expect_mag in ((0.0, 10.0), (np.pi, 1.0 / 1.9)):
            z = np.exp(1j * omega)
            total = 0.0 + 0.0j
            k = 0
            while abs(a) ** k / (1 - a) >= 1e-13:
                total += z ** (-k) * c * a ** k * b
                k += 1
            val = transfer_eval(lti, z)[0, 0]
            assert abs(val - total) <= 1e-10
            assert abs(val) == pytest.approx(expect_mag, rel=1e-9)

    def test_warns_inside_roc(self):
        lti = scalar_lti(0.9, 1.0, 1.0)
        with pytest.warns(UserWarning, match="region of convergence"):
            transfer_eval(lti, 0.5)

    def test_pole_hit_reports_nearest_eigenvalue(self):
        lti = scalar_lti(0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="0.5"), \
                pytest.warns(UserWarning, match="region of convergence"):
            transfer_eval(lti, 0.5)

    def test_hit_on_a_complex_pole_reports_it(self):
        # A is its own standardized 2 x 2 Schur block, poles 0.5 +- 0.5j;
        # at z = 0.5 + 0.5j the block's determinant is exactly zero
        lti = LtiModel(A=[[0.5, -0.5], [0.5, 0.5]], B=np.eye(2), C=np.eye(2),
                       D=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="hits a pole") as caught, \
                pytest.warns(UserWarning, match="region of convergence"):
            transfer_eval(lti, 0.5 + 0.5j)
        named = complex(str(caught.value).split("nearest eigenvalue ")[1])
        assert abs(named - (0.5 + 0.5j)) <= 1e-15

    def test_rejects_origin(self):
        with pytest.raises(ValueError, match="z = 0"):
            transfer_eval(scalar_lti(0.5, 1, 1), 0.0)

    @settings(max_examples=80)
    @given(n=st.integers(0, 24), p=st.integers(1, 3), m=st.integers(1, 3),
           kind=st.sampled_from(["gaussian", "triangular", "pairs", "jordan"]),
           seed=st.integers(0, 2 ** 32 - 1))
    @pytest.mark.filterwarnings("ignore:.*region of convergence:UserWarning")
    def test_matches_dense_oracle(self, n, p, m, kind, seed):
        # transfer_eval at |z| in {0.5, 1, 2} and output_psd on the unit
        # circle against one dense solve per point, for every z relative
        # to the norm of the oracle's value; |z| = 0.5 is inside the region
        # of convergence of many of these A, whose warning is tested above
        rng = np.random.default_rng(seed)
        lti = LtiModel(A=kind_of_state_matrix(kind, n, rng),
                       B=rng.standard_normal((n, m)),
                       C=rng.standard_normal((p, n)),
                       D=rng.standard_normal((p, m)))
        zs = np.array([0.5, 1.0, 2.0]) * np.exp(1j * rng.uniform(-np.pi, np.pi, 3))
        want = transfer_dense(lti.A, lti.B, lti.C, lti.D, zs)
        got = np.array([transfer_eval(lti, z) for z in zs])
        root = rng.standard_normal((m, m))
        s_u = root @ root.T
        h = want[1:2]
        want_psd = h @ s_u @ h.conj().transpose(0, 2, 1)
        got_psd = output_psd(lti, s_u, np.angle(zs[1:2]))
        for value, reference in ((got, want), (got_psd, want_psd)):
            error = np.linalg.norm(value - reference, axis=(1, 2))
            assert np.all(error <= 1e-10 * np.linalg.norm(reference, axis=(1, 2)))


class TestImpulseKernel:
    def test_first_block_is_cb(self):
        lti = stable_random_lti(seed=1)
        kern = impulse_kernel(lti, truncation=5)
        np.testing.assert_allclose(kern.blocks[0], lti.C @ lti.B, atol=1e-14)

    def test_scalar_geometric(self):
        kern = impulse_kernel(scalar_lti(0.9, 1.0, 2.0), truncation=10)
        np.testing.assert_allclose(kern.blocks[:, 0, 0],
                                   2.0 * 0.9 ** np.arange(11), rtol=1e-13)

    def test_nilpotent_finite_response(self):
        a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        lti = LtiModel(A=a, B=np.ones((3, 1)), C=np.ones((1, 3)),
                       D=np.zeros((1, 1)))
        kern = impulse_kernel(lti, truncation=6)
        assert np.all(kern.blocks[3:] == 0.0)

    def test_stateless_model_has_zero_tail(self):
        lti = LtiModel(A=np.zeros((0, 0)), B=np.zeros((0, 1)),
                       C=np.zeros((1, 0)), D=np.zeros((1, 1)))
        kern = impulse_kernel(lti)
        assert len(kern) == 1 and kern.tail_bound == 0.0
        assert np.all(kern.blocks == 0.0)

    def test_decay_envelope(self):
        lti = stable_random_lti(seed=2, rho=0.85)
        kern = impulse_kernel(lti, truncation=60)
        c, kappa = kern.envelope
        assert 0.85 * (1 - 1e-12) <= kappa < 1.0
        envelope = (c * np.linalg.norm(lti.C, 2) * np.linalg.norm(lti.B, 2)
                    * kappa ** np.arange(61))
        norms = np.array([np.linalg.norm(b, 2) for b in kern.blocks])
        assert np.all(norms <= envelope * (1 + 1e-9))
        assert kern.tail_bound == pytest.approx(
            envelope[-1] * kappa / (1 - kappa), rel=1e-12)

    @pytest.mark.parametrize("truncation", [2.5, True, np.float64(3.0)])
    def test_rejects_non_integer_truncation(self, truncation):
        # the count sizes the blocks, so a float or a bool is refused by name
        with pytest.raises(TypeError, match="truncation must be an integer"):
            impulse_kernel(stable_random_lti(seed=1), truncation=truncation)

    @settings(max_examples=60)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
           rho=st.floats(0.0, 0.97), shear=st.floats(0.0, 2.0),
           rotate=st.booleans())
    def test_envelope_bounds_every_power(self, n, seed, rho, shear, rotate):
        # with B = C = I the blocks are the powers A^j of a non-normal A
        # (triangular, optionally rotated); the proven envelope must hold at
        # every one of them, far past any finite window
        rng = np.random.default_rng(seed)
        a = (np.triu(rng.standard_normal((n, n)), 1) * shear
             + np.diag(rng.uniform(-rho, rho, n)))
        if rotate:
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            a = q @ a @ q.T
        lti = LtiModel(A=a, B=np.eye(n), C=np.eye(n), D=np.zeros((n, n)))
        kern = impulse_kernel(lti, truncation=500)
        c, kappa = kern.envelope
        norms = np.linalg.norm(kern.blocks, 2, axis=(1, 2))
        assert np.all(norms <= c * kappa ** np.arange(501) * (1 + 1e-9))

    @settings(max_examples=40)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
           rho=st.floats(0.0, 0.97), shear=st.floats(0.0, 2.0),
           rotate=st.booleans())
    def test_envelope_is_exact(self, n, seed, rho, shear, rotate):
        # ||A^j||_2 <= c kappa^j holds exactly if, in rationals, the solved P
        # has kappa^2 P - A' P A >= 0 and lo I <= P <= c^2 lo I for some
        # lo > 0; lo from the bounds of the envelope itself is the witness
        solved = []

        def capture(a, s):
            solved.append(solve_discrete_lyapunov(a, s))
            return solved[-1]

        rng = np.random.default_rng(seed)
        a = (np.triu(rng.standard_normal((n, n)), 1) * shear
             + np.diag(rng.uniform(-rho, rho, n)))
        if rotate:
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            a = q @ a @ q.T
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(esnkit.stability, "solve_discrete_lyapunov", capture)
            envelope = esnkit.stability._decay_envelope(real_schur(a))
        if envelope is None:
            return
        c, kappa = envelope
        [p] = solved
        lo = Fraction(esnkit.stability._eig_bounds(p)[0])
        p, a = to_fractions(p), to_fractions(a)
        eye = np.eye(n, dtype=object)
        assert lo > 0
        assert psd_exact(Fraction(kappa) ** 2 * p - a.T @ p @ a)
        assert psd_exact(p - lo * eye)
        assert psd_exact(Fraction(c) ** 2 * lo * eye - p)

    def test_tail_bound_dominates_nonnormal_tail(self):
        # A = 0.9 I + 0.5 N (n = 40) grows for hundreds of steps before it
        # decays: the tail past K = 60 sums to about 1.8e28, far above any
        # growth measured over a short window
        n = 40
        a = 0.9 * np.eye(n) + 0.5 * np.eye(n, k=1)
        b = np.zeros((n, 1))
        b[-1] = 1.0
        lti = LtiModel(A=a, B=b, C=b[::-1].T, D=np.zeros((1, 1)))
        kern = impulse_kernel(lti, truncation=60)
        x, tail = b, 0.0
        for k in range(5000):
            if k > 60:
                tail += abs(x[0, 0])
            x = a @ x
        assert tail > 1e28
        assert kern.tail_bound >= tail
        with pytest.raises(ValueError, match="envelope"):
            impulse_kernel(lti)

    def test_automatic_truncation_meets_tolerance(self):
        lti = stable_random_lti(seed=3, rho=0.7)
        kern = impulse_kernel(lti, tail_tol=1e-9)
        assert kern.tail_bound <= 1e-9

    @settings(max_examples=60)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
           rho=st.floats(0.05, 0.95), log_tol=st.floats(-13.0, -2.0))
    def test_automatic_truncation_is_the_least(self, n, seed, rho, log_tol):
        # the automatic K meets tail_tol, and K - 1 does not
        tail_tol = 10.0 ** log_tol
        lti = stable_random_lti(n=n, m=2, p=2, seed=seed, rho=rho)
        kern = impulse_kernel(lti, tail_tol=tail_tol)
        assert kern.tail_bound <= tail_tol
        if len(kern) > 1:
            shorter = impulse_kernel(lti, truncation=len(kern) - 2)
            assert shorter.tail_bound > tail_tol

    @pytest.mark.parametrize("tail_tol", [0.0, -1.0, np.nan, np.inf])
    def test_tail_tol_must_be_positive_and_finite(self, tail_tol):
        with pytest.raises(ValueError, match="tail_tol must be positive"):
            impulse_kernel(scalar_lti(0.5, 1.0, 1.0), tail_tol=tail_tol)

    @pytest.mark.parametrize("b, c", [(0.0, 1.0), (1.0, 0.0)])
    def test_zero_input_or_output_needs_no_block_past_the_first(self, b, c):
        # a zero scale ||B|| ||C|| bounds the tail by 0 at K = 0, whatever
        # the tolerance
        for tail_tol in (1e-300, 1.0, 1e10):
            kern = impulse_kernel(scalar_lti(0.5, b, c), tail_tol=tail_tol)
            assert len(kern) == 1 and kern.tail_bound == 0.0

    def test_automatic_truncation_names_its_cap(self):
        # kappa >= 0.99999 needs about 3.2e6 blocks for the 1e-9 tail
        with pytest.raises(ValueError, match="cap of 200000"):
            impulse_kernel(scalar_lti(0.99999, 1.0, 1.0))

    def test_no_envelope_without_stability(self):
        lti = scalar_lti(1.0, 1.0, 1.0)
        kern = impulse_kernel(lti, truncation=5)
        assert kern.envelope is None and kern.tail_bound == np.inf
        with pytest.raises(ValueError, match="envelope"):
            impulse_kernel(lti)

    def test_fft_of_kernel_matches_transfer(self):
        # transfer_eval expands as sum_k z^{-k} h_k, so the zero-padded DFT of
        # the kernel reproduces it on the unit-circle grid
        lti = stable_random_lti(n=4, m=2, p=2, seed=4, rho=0.75)
        kern = impulse_kernel(lti, tail_tol=1e-9)
        size = 1 << int(np.ceil(np.log2(len(kern) + 1)))
        padded = np.zeros((size, lti.p, lti.m))
        padded[:len(kern)] = kern.blocks
        spectrum = np.fft.fft(padded, axis=0)
        for ell in range(size):
            omega = 2 * np.pi * ell / size
            expect = transfer_eval(lti, np.exp(1j * omega))
            assert np.abs(spectrum[ell] - expect).max() <= 1e-7


ANALYSES = {
    "impulse_kernel": (),
    "gramians": (),
    "h2_norm": (),
    "hinf_norm_grid": (),
    "ctrb_obsv_rank": (),
    "transfer_eval": (np.exp(0.3j),),
    "output_psd": (np.eye(2), np.linspace(0.0, np.pi, 7)),
}


class TestOneFormPerModel:
    @pytest.fixture
    def counts(self, monkeypatch):
        """Schur decompositions and Lyapunov solves made, by whichever module."""
        counts = {"schur": 0, "solve": 0}

        def counting(owner, name, key):
            inner = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counting(scipy.linalg, "schur", "schur")
        counting(esnkit._linalg, "_schur_solve", "solve")
        return counts

    def test_every_analysis_of_a_model_shares_one_form(self, counts):
        # one Schur form and at most three solves (the Gramian pair and the
        # decay envelope) for all of them; a second round costs nothing
        lti = stable_random_lti(n=6, m=2, p=2, seed=5, rho=0.9)
        first = {name: getattr(esnkit.freq, name)(lti, *args)
                 for name, args in ANALYSES.items()}
        assert counts == {"schur": 1, "solve": 3}
        for name, args in ANALYSES.items():
            again = getattr(esnkit.freq, name)(lti, *args)
            assert repr(again) == repr(first[name])
        assert counts == {"schur": 1, "solve": 3}

    def test_replaced_model_decomposes_afresh(self, counts):
        lti = stable_random_lti(n=6, m=2, p=2, seed=5, rho=0.9)
        pair = gramians(lti)
        assert gramians(lti) is pair
        other = dataclasses.replace(lti, B=2.0 * lti.B)
        assert counts == {"schur": 1, "solve": 2}
        np.testing.assert_allclose(gramians(other).W_c, 4.0 * pair.W_c,
                                   rtol=1e-12)
        assert counts == {"schur": 2, "solve": 4}

    def test_caller_arrays_are_copied(self):
        rng = np.random.default_rng(6)
        a = 0.4 * np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        b, c = rng.standard_normal((4, 2)), rng.standard_normal((2, 4))
        want = LtiModel(A=a.copy(), B=b.copy(), C=c.copy(), D=np.zeros((2, 2)))
        lti = LtiModel(A=a, B=b, C=c, D=np.zeros((2, 2)))
        for array in (a, b, c):
            array *= 3.0
        for name, args in ANALYSES.items():
            got, expect = (getattr(esnkit.freq, name)(model, *args)
                           for model in (lti, want))
            assert repr(got) == repr(expect)

    def test_model_and_what_it_keeps_are_read_only(self):
        lti = stable_random_lti(n=4, seed=7)
        pair = gramians(lti)
        for array in (lti.A, lti.B, lti.C, lti.D, pair.W_c, pair.W_o,
                      lti._schur.t, lti._schur.z):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                           lambda lti: pickle.loads(pickle.dumps(lti))])
    def test_copies_are_rebuilt(self, counts, duplicate):
        # a copy carries neither writable arrays nor a kept form
        lti = stable_random_lti(n=4, seed=7)
        pair = gramians(lti)
        other = duplicate(lti)
        with pytest.raises(ValueError, match="read-only"):
            other.A[0, 0] = 1.0
        np.testing.assert_array_equal(gramians(other).W_o, pair.W_o)
        assert counts == {"schur": 2, "solve": 4}

    def test_failed_gramian_solve_is_not_kept(self, counts):
        lti = scalar_lti(1.1, 1.0, 1.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="rho"):
                gramians(lti)
        assert counts["schur"] == 1


class TestModal:
    def test_diagonal_residues(self):
        a = np.diag([0.5, -0.3])
        rng = np.random.default_rng(5)
        b = rng.standard_normal((2, 2))
        c = rng.standard_normal((2, 2))
        dec = modal(LtiModel(A=a, B=b, C=c, D=np.zeros((2, 2))))
        order = np.argsort(dec.eigenvalues.real)
        eigs = dec.eigenvalues[order]
        res = dec.residues[order]
        np.testing.assert_allclose(eigs, [-0.3, 0.5], atol=1e-12)
        np.testing.assert_allclose(res[1].real, np.outer(c[:, 0], b[0, :]),
                                   atol=1e-12)
        np.testing.assert_allclose(res[0].real, np.outer(c[:, 1], b[1, :]),
                                   atol=1e-12)

    def test_rotation_gives_conjugate_pair(self):
        th = np.pi / 4
        a = 0.9 * np.array([[np.cos(th), -np.sin(th)],
                            [np.sin(th), np.cos(th)]])
        dec = modal(LtiModel(A=a, B=np.ones((2, 1)), C=np.ones((1, 2)),
                             D=np.zeros((1, 1))))
        lam = dec.eigenvalues
        assert abs(lam[0] - np.conj(lam[1])) <= 1e-12
        np.testing.assert_allclose(np.abs(lam), [0.9, 0.9], atol=1e-12)
        np.testing.assert_allclose(dec.residues[0], np.conj(dec.residues[1]),
                                   atol=1e-12)

    def test_reconstructs_impulse_kernel(self):
        # independent path: eigen-reconstruction vs iterated multiplication
        lti = stable_random_lti(n=5, m=2, p=2, seed=6, rho=0.8)
        dec = modal(lti)
        kern = impulse_kernel(lti, truncation=30)
        for k in range(31):
            np.testing.assert_allclose(dec.reconstruct(k), kern.blocks[k],
                                       atol=1e-8)

    def test_defective_rejected(self):
        a = np.array([[0.5, 1.0], [0.0, 0.5]])  # Jordan block
        lti = LtiModel(A=a, B=np.ones((2, 1)), C=np.ones((1, 2)),
                       D=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="kernel-domain"):
            modal(lti)


class TestGramians:
    def test_scalar_closed_form(self):
        pair = gramians(scalar_lti(0.8, 2.0, 1.0))
        assert pair.W_c[0, 0] == pytest.approx(4.0 / (1 - 0.64), rel=1e-10)

    def test_zero_input_matrix(self):
        lti = LtiModel(A=0.5 * np.eye(3), B=np.zeros((3, 1)),
                       C=np.ones((1, 3)), D=np.zeros((1, 1)))
        assert np.all(gramians(lti).W_c == 0.0)

    def test_lyapunov_residuals(self):
        for seed in range(4):
            lti = stable_random_lti(n=6, seed=seed, rho=0.9)
            pair = gramians(lti)
            r_c = lti.A @ pair.W_c @ lti.A.T + lti.B @ lti.B.T - pair.W_c
            r_o = lti.A.T @ pair.W_o @ lti.A + lti.C.T @ lti.C - pair.W_o
            scale = max(np.abs(pair.W_c).max(), 1.0)
            assert np.abs(r_c).max() <= 1e-10 * scale
            assert np.abs(r_o).max() <= 1e-10 * max(np.abs(pair.W_o).max(), 1.0)

    def test_doubling_path_matches_direct(self):
        # n = 70, beyond the sizes the Kronecker oracle covers
        rng = np.random.default_rng(9)
        n = 70
        a = rng.standard_normal((n, n))
        a *= 0.85 / spectral_radius(a)
        b = rng.standard_normal((n, 2))
        lti = LtiModel(A=a, B=b, C=np.zeros((1, n)), D=np.zeros((1, 2)))
        pair = gramians(lti)
        resid = a @ pair.W_c @ a.T + b @ b.T - pair.W_c
        assert np.abs(resid).max() <= 1e-10 * np.abs(pair.W_c).max()

    def test_kernel_energy_identity(self):
        lti = stable_random_lti(n=4, m=2, p=3, seed=10, rho=0.75)
        pair = gramians(lti)
        kern = impulse_kernel(lti, tail_tol=1e-12)
        energy = sum(float(np.trace(b @ b.T)) for b in kern.blocks)
        expect = float(np.trace(lti.C @ pair.W_c @ lti.C.T))
        assert energy == pytest.approx(expect, rel=1e-6)

    def test_unstable_rejected(self):
        with pytest.raises(ValueError, match="rho"):
            gramians(scalar_lti(1.1, 1.0, 1.0))


class TestRankTests:
    def test_repeated_mode_single_column(self):
        # oracle: [B, AB] = [[1, 0.5], [0, 0]] has rank 1
        lti = LtiModel(A=np.diag([0.5, 0.5]), B=[[1.0], [0.0]],
                       C=np.eye(2), D=np.zeros((2, 1)))
        report = ctrb_obsv_rank(lti)
        assert report.rank_c == 1
        assert report.rank_o == 2
        assert report.min_eig_wc == pytest.approx(0.0, abs=1e-12)

    def test_full_rank_input(self):
        lti = LtiModel(A=np.diag([0.5, 0.2]), B=np.eye(2), C=np.eye(2),
                       D=np.zeros((2, 2)))
        report = ctrb_obsv_rank(lti)
        assert report.rank_c == 2
        assert report.min_eig_wc > 0.0

    def test_unstable_gives_nan_gramian_eigenvalues(self):
        report = ctrb_obsv_rank(scalar_lti(1.1, 1.0, 1.0))
        assert (report.rank_c, report.rank_o) == (1, 1)
        assert np.isnan(report.min_eig_wc) and np.isnan(report.min_eig_wo)

    def test_failed_gramian_solve_raises(self, monkeypatch):
        # LinAlgError subclasses ValueError; a failed solve of a stable A
        # must still raise, not read as rho(A) >= 1
        def no_solution(a, s):
            raise np.linalg.LinAlgError("no solution")

        monkeypatch.setattr(esnkit.freq, "solve_discrete_lyapunov", no_solution)
        with pytest.raises(np.linalg.LinAlgError):
            ctrb_obsv_rank(scalar_lti(0.5, 1.0, 1.0))

    def test_rank_tests_are_limited_to_512_states(self):
        n = 513
        lti = LtiModel(A=np.zeros((n, n)), B=np.zeros((n, 1)),
                       C=np.zeros((1, n)), D=np.zeros((1, 1)))
        with pytest.raises(ValueError, match=r"^rank tests are limited to n <= 512$"):
            ctrb_obsv_rank(lti)


class TestNorms:
    def test_h2_scalar(self):
        a, b, c = 0.8, 2.0, 1.5
        expect = abs(c * b) / np.sqrt(1 - a * a)
        assert h2_norm(scalar_lti(a, b, c)) == pytest.approx(expect, rel=1e-10)

    def test_h2_zero_readout(self):
        lti = LtiModel(A=0.5 * np.eye(2), B=np.ones((2, 1)),
                       C=np.zeros((1, 2)), D=np.zeros((1, 1)))
        assert h2_norm(lti) == 0.0

    def test_h2_rejects_feedthrough(self):
        with pytest.raises(ValueError, match="D = 0"):
            h2_norm(scalar_lti(0.5, 1.0, 1.0, d=1.0))

    def test_h2_matches_frequency_quadrature(self):
        lti = stable_random_lti(n=4, m=2, p=2, seed=11, rho=0.8)
        omegas = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
        acc = 0.0
        for w in omegas:
            h = transfer_eval(lti, np.exp(1j * w))
            acc += float(np.real(np.trace(h @ h.conj().T)))
        quad = np.sqrt(acc / len(omegas))
        assert h2_norm(lti) == pytest.approx(quad, rel=1e-4)

    def test_hinf_scalar_peak_at_dc(self):
        est = hinf_norm_grid(scalar_lti(0.9, 1.0, 1.0), grid_points=128)
        assert type(est.value) is float
        assert est.value == pytest.approx(10.0, rel=1e-9)
        assert est.omega_peak == 0.0
        # 33 refinement points split the bracket [0, pi/127] around the grid
        # peak at omega = 0 into 34 steps; the width is two of them
        assert est.interval_width == pytest.approx(2 * np.pi / 127 / 34,
                                                   rel=1e-12)

    def test_hinf_pure_gain(self):
        lti = LtiModel(A=np.zeros((1, 1)), B=np.zeros((1, 2)),
                       C=np.zeros((1, 1)), D=[[3.0, 4.0]])
        est = hinf_norm_grid(lti, grid_points=64)
        assert type(est.value) is float
        assert est.value == pytest.approx(5.0, rel=1e-12)

    def test_hinf_resonance_location(self):
        # conjugate pole pair at 0.97 e^{+-j pi/4}; oracle is a dense
        # 10^6-point evaluation through the explicit 2x2 inverse
        th = np.pi / 4
        r = 0.97
        a = r * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        b = np.array([[1.0], [0.5]])
        c = np.array([[1.0, -0.3]])
        lti = LtiModel(A=a, B=b, C=c, D=np.zeros((1, 1)))

        z = np.exp(1j * np.linspace(0.0, np.pi, 1_000_001))
        m11 = 1 - a[0, 0] / z
        m12 = -a[0, 1] / z
        m21 = -a[1, 0] / z
        m22 = 1 - a[1, 1] / z
        det = m11 * m22 - m12 * m21
        x1 = (m22 * b[0, 0] - m12 * b[1, 0]) / det
        x2 = (-m21 * b[0, 0] + m11 * b[1, 0]) / det
        mags = np.abs(c[0, 0] * x1 + c[0, 1] * x2)
        oracle_peak = np.linspace(0.0, np.pi, 1_000_001)[np.argmax(mags)]

        grid_points = 512
        est = hinf_norm_grid(lti, grid_points=grid_points)
        assert type(est.value) is float
        assert abs(est.omega_peak - oracle_peak) <= 2 * np.pi / grid_points
        assert est.value <= mags.max() * (1 + 1e-9)   # certified lower bound
        assert est.value >= mags.max() * 0.999

    @pytest.mark.parametrize("kind", ["triangular", "pairs"])
    def test_hinf_grid_gains_match_per_frequency(self, monkeypatch, kind):
        # MIMO, non-normal A, real poles (1 x 1 Schur blocks) or three
        # complex pole pairs (2 x 2 blocks); 513 points leave a partial last
        # batch
        rng = np.random.default_rng(21)
        a = np.triu(rng.standard_normal((6, 6)), 1)
        a[np.diag_indices(6)] = [0.9, -0.8, 0.7, 0.5, -0.3, 0.1]
        if kind == "pairs":
            for k, (r, th) in enumerate([(0.9, 0.4), (0.7, 1.9), (0.5, 2.8)]):
                a[2 * k:2 * k + 2, 2 * k:2 * k + 2] = r * np.array(
                    [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            a = q @ a @ q.T
            assert np.iscomplex(np.linalg.eigvals(a)).all()
        lti = LtiModel(A=a, B=rng.standard_normal((6, 2)),
                       C=rng.standard_normal((3, 6)), D=np.zeros((3, 2)))
        batches = []
        batch_eval = esnkit.freq._transfer_batch

        def recording(*args):
            batches.append(batch_eval(*args))
            return batches[-1]

        monkeypatch.setattr(esnkit.freq, "_transfer_batch", recording)
        est = hinf_norm_grid(lti, grid_points=513)
        grid = np.linalg.svd(batches[0], compute_uv=False)[:, 0]

        def sigma_max(omega):
            h = transfer_dense(lti.A, lti.B, lti.C, lti.D, [np.exp(1j * omega)])
            return np.linalg.svd(h[0], compute_uv=False)[0]

        expect = [sigma_max(w) for w in np.linspace(0.0, np.pi, 513)]
        np.testing.assert_allclose(grid, expect, rtol=1e-12, atol=0)
        assert type(est.value) is float
        assert est.value == pytest.approx(sigma_max(est.omega_peak), rel=1e-12)
        assert est.value >= max(expect) * (1 - 1e-12)

    def test_hinf_misses_a_resonance_between_grid_points(self):
        # a sharp pole pair half a grid step past omega_325 of the 512-point
        # grid peaks far above the grid maximum, which sits at the broad
        # pair near omega = 1: the estimate is only a lower bound, and its
        # bracket need not hold the true peak
        def block(r, th):
            return r * np.array([[np.cos(th), -np.sin(th)],
                                 [np.sin(th), np.cos(th)]])

        grid = np.linspace(0.0, np.pi, 512)
        sharp = grid[325] + 0.5 * (grid[1] - grid[0])
        a = np.zeros((4, 4))
        a[:2, :2], a[2:, 2:] = block(0.9, 1.0), block(0.99995, sharp)
        b = np.array([[1.0], [0.0], [0.001], [0.0]])
        c = np.array([[1.0, 0.0, 1.0, 0.0]])
        est = hinf_norm_grid(LtiModel(A=a, B=b, C=c, D=np.zeros((1, 1))))

        # the 4097-point grid plus 4001 points across the sharp peak
        omegas = np.concatenate([np.linspace(0.0, np.pi, 4097),
                                 np.linspace(grid[324], grid[327], 4001)])
        gains = np.abs(transfer_dense(a, b, c, np.zeros((1, 1)),
                                      np.exp(1j * omegas))[:, 0, 0])
        peak = omegas[np.argmax(gains)]
        assert est.value < 0.6 * gains.max()
        assert abs(peak - est.omega_peak) > est.interval_width
        assert abs(peak - sharp) < grid[1] - grid[0]

    def test_grid_floor(self):
        with pytest.raises(ValueError, match="64"):
            hinf_norm_grid(scalar_lti(0.5, 1, 1), grid_points=32)

    @pytest.mark.parametrize("grid_points", [100.5, True, np.float64(128.0)])
    def test_rejects_non_integer_grid_points(self, grid_points):
        with pytest.raises(TypeError, match="grid_points must be an integer"):
            hinf_norm_grid(scalar_lti(0.5, 1, 1), grid_points=grid_points)


def test_hinf_grid_needs_a_stable_model():
    with pytest.raises(ValueError, match=r"^Hinf evaluation on the unit "
                                         r"circle needs rho\(A\) < 1$"):
        hinf_norm_grid(scalar_lti(1.0, 1.0, 1.0))


class TestOutputPsd:
    def test_scalar_white_input(self):
        lti = scalar_lti(0.9, 1.0, 1.0)
        for omega in (0.0, 0.4, np.pi):
            h = transfer_eval(lti, np.exp(1j * omega))[0, 0]
            got = output_psd(lti, np.eye(1), omega)[0, 0]
            assert got == pytest.approx(abs(h) ** 2, rel=1e-12)

    def test_input_density_and_frequency_checked(self):
        lti = scalar_lti(0.9, 1.0, 1.0)
        with pytest.raises(ValueError, match="input_psd has non-finite entry"):
            output_psd(lti, [[np.nan]], 0.1)
        with pytest.raises(ValueError, match="input_psd has non-finite entry"):
            output_psd(lti, [[complex(1.0, np.inf)]], 0.1)
        with pytest.raises(ValueError, match="omega has non-finite entry"):
            output_psd(lti, np.eye(1), np.nan)
        with pytest.raises(ValueError,
                           match=r"input_psd must be \(1, 1\), got \(2, 2\)"):
            output_psd(lti, np.eye(2), 0.1)

    def test_no_inputs(self):
        lti = LtiModel(A=[[0.5]], B=np.zeros((1, 0)), C=[[1.0]],
                       D=np.zeros((1, 0)))
        assert np.array_equal(output_psd(lti, np.zeros((0, 0)), 0.1),
                              np.zeros((1, 1)))
        assert np.array_equal(output_psd(lti, np.zeros((0, 0)), [0.0, 2.0]),
                              np.zeros((2, 1, 1)))

    def test_zero_input_density(self):
        lti = stable_random_lti(seed=12)
        np.testing.assert_array_equal(
            output_psd(lti, np.zeros((lti.m, lti.m)), 0.3), 0.0)

    def test_integrated_psd_matches_gramian_energy(self):
        lti = stable_random_lti(n=3, m=2, p=2, seed=13, rho=0.7)
        omegas = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
        psd = output_psd(lti, np.eye(lti.m), omegas)
        integral = float(np.real(np.trace(psd, axis1=1, axis2=2)).mean())
        expect = float(np.trace(lti.C @ gramians(lti).W_c @ lti.C.T))
        assert integral == pytest.approx(expect, rel=1e-4)

    def test_frequency_array_matches_scalar_calls(self):
        lti = stable_random_lti(n=4, m=2, p=3, seed=15, rho=0.9)
        rng = np.random.default_rng(16)
        root = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        s_u = root @ root.conj().T
        omegas = rng.uniform(-np.pi, np.pi, (3, 5))
        got = output_psd(lti, s_u, omegas)
        assert got.shape == (3, 5, 3, 3)
        for idx in np.ndindex(omegas.shape):
            want = output_psd(lti, s_u, omegas[idx])
            assert want.shape == (3, 3)
            np.testing.assert_allclose(got[idx], want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())

    def test_unstable_model_warns_once_per_call(self):
        lti = scalar_lti(1.2, 1.0, 1.0)
        with pytest.warns(UserWarning, match="region of convergence") as caught:
            output_psd(lti, np.eye(1), np.linspace(0.1, 3.0, 50))
        assert len(caught) == 1

    def test_validates_hermitian_psd(self):
        lti = stable_random_lti(seed=14)
        with pytest.raises(ValueError, match="Hermitian"):
            output_psd(lti, np.array([[1.0, 1.0], [0.0, 1.0]]), 0.1)
        with pytest.raises(ValueError, match="positive"):
            output_psd(lti, np.array([[-1.0, 0.0], [0.0, 1.0]]), 0.1)


STATELESS = LtiModel(A=np.zeros((0, 0)), B=np.zeros((0, 1)),
                     C=np.zeros((1, 0)), D=np.zeros((1, 1)))
STATELESS_RESULTS = {
    "gramians": lambda pair: pair.W_c.shape == pair.W_o.shape == (0, 0),
    "h2_norm": lambda norm: norm == 0.0,
    "ctrb_obsv_rank": lambda report: tuple(report) == (0, 0, 0.0, 0.0),
    "modal": lambda decomp: (decomp.eigenvalues.size == 0
                             and np.all(decomp.reconstruct(3) == 0.0)),
    "impulse_kernel": lambda kern: len(kern) == 1 and kern.tail_bound == 0.0,
    "hinf_norm_grid": lambda est: est.value == 0.0,
}


@pytest.mark.parametrize("name", sorted(STATELESS_RESULTS))
def test_stateless_model(name):
    # n = 0: no state, so every response is the zero feedthrough
    result = getattr(esnkit.freq, name)(STATELESS)
    assert STATELESS_RESULTS[name](result)
