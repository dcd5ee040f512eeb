import logging

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

import esnkit
from esnkit._linalg import (_congruence, _rcond_bound, as_float_array,
                            linear_scan, real_schur, solve_discrete_lyapunov)

from conftest import traced_peak_mib
from oracles import kronecker_lyapunov


def stable_matrix(n, seed, rho, nonnormal):
    """Gaussian A scaled to spectral radius ``rho``, or (``nonnormal``) an
    upper-triangular A with diagonal in [-rho, rho] and a strictly upper part
    of norm about one."""
    rng = np.random.default_rng(seed)
    if nonnormal:
        a = np.triu(rng.standard_normal((n, n)), 1) / np.sqrt(n)
        a[np.diag_indices(n)] = rng.uniform(-rho, rho, n)
        return a
    a = rng.standard_normal((n, n))
    return a * (rho / np.abs(np.linalg.eigvals(a)).max())


def test_finite_check_survives_an_overflowing_sum():
    # finite entries whose sum overflows pass, with no overflow warning;
    # inf - inf and NaN are still found at their index
    big = np.full(4, 1e308)
    assert as_float_array(big, "x") is big
    for bad, index in ([1.0, np.inf, -np.inf], 1), ([1e308, 1e308, np.nan], 2):
        with pytest.raises(ValueError, match=f"^x has non-finite entry at "
                                             f"flat index {index}$"):
            as_float_array(bad, "x")


@pytest.mark.parametrize("order", ["C", "F"])
def test_congruence_is_symmetric_and_writes_in_place(order):
    # A (3, 5), X and Q not symmetric, as the M-step passes them, in either
    # memory order: sym(A X A' + Q), exactly symmetric, to 1e-14 relative
    rng = np.random.default_rng(5)
    a, x, q = (np.asarray(rng.standard_normal(shape), order=order)
               for shape in ((3, 5), (5, 5), (3, 3)))
    got = _congruence(a, x, q)
    assert np.array_equal(got, got.T)
    want = a @ x @ a.T + q
    want = 0.5 * (want + want.T)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    out = np.zeros((2, 3, 3))
    row = out[1]
    assert _congruence(a, x, q, out=row) is row
    assert np.array_equal(out[1], got) and not out[0].any()


class TestDiscreteLyapunov:
    @pytest.mark.parametrize("n", [3, 20, 70])
    def test_identity_is_rejected(self, n):
        with pytest.raises(np.linalg.LinAlgError):
            solve_discrete_lyapunov(np.eye(n), np.eye(n))

    @settings(max_examples=40)
    @given(n=st.integers(1, 70), seed=st.integers(0, 2 ** 32 - 1),
           rho=st.floats(0.0, 0.95), nonnormal=st.booleans())
    def test_residual_and_kronecker_oracle(self, n, seed, rho, nonnormal):
        a = stable_matrix(n, seed, rho, nonnormal)
        b = np.random.default_rng(seed + 1).standard_normal((n, 2))
        s = b @ b.T
        x = solve_discrete_lyapunov(a, s)
        scale = np.linalg.norm(x)
        assert np.linalg.norm(a @ x @ a.T + s - x) <= 1e-10 * scale
        if n <= 20:
            np.testing.assert_allclose(x, kronecker_lyapunov(a, s),
                                       rtol=0, atol=1e-10 * scale)

    def test_ill_conditioned_solve_is_an_event(self, caplog):
        # rho(A) = 1 - 1e-14: scipy warns of rcond near 1e-17, the residual
        # test still accepts the solve, and no warning escapes
        w0 = np.random.default_rng(2).standard_normal((6, 6))
        a = (1.0 - 1e-14) * w0 / np.abs(np.linalg.eigvals(w0)).max()
        with caplog.at_level(logging.DEBUG, logger="esnkit._linalg"):
            x = solve_discrete_lyapunov(a, np.eye(6))
        events = [rec.getMessage().split() for rec in caplog.records
                  if rec.name == "esnkit._linalg"]
        assert [event[0] for event in events] == ["lyapunov.ill_conditioned"]
        rcond = float(events[0][1].removeprefix("rcond="))
        assert 0.0 < rcond < np.finfo(np.float64).eps
        assert np.abs(a @ x @ a.T + np.eye(6) - x).max() <= 1e-10 * np.abs(x).max()

    @pytest.mark.parametrize("gap", [1e-14, 1e-13])
    def test_rcond_bound_is_near_the_kronecker_rcond(self, gap):
        # rho(A) = 1 - gap: the Hager step through the transposed equation
        # brings the estimate within 1.5x of rcond(I - A kron A), which the
        # estimate ||vec S||_1 / (||K||_1 ||vec X||_1) alone misses by 1.7-2.4x
        w0 = np.random.default_rng(2).standard_normal((6, 6))
        a = (1.0 - gap) * w0 / np.abs(np.linalg.eigvals(w0)).max()
        x = solve_discrete_lyapunov(a, np.eye(6))
        bound = _rcond_bound(real_schur(a), np.eye(6), x)
        assert 0.0 < bound <= 1.5 / np.linalg.cond(np.eye(36) - np.kron(a, a), 1)


def matrix_with_spectrum(n, seed, rho, pairs):
    """V D V^{-1} with spectral radius ``rho``: D diagonal with real entries,
    or (``pairs``) with 2 x 2 blocks r R(theta), each a conjugate pair, and
    one real entry when n is odd; the largest modulus is set to ``rho``."""
    rng = np.random.default_rng(seed)
    d = np.diag(rng.uniform(-rho, rho, n))
    if pairs:
        for k in range(0, n - 1, 2):
            r, th = rng.uniform(0.2, 1.0) * rho, rng.uniform(0.1, np.pi - 0.1)
            d[k:k + 2, k:k + 2] = r * np.array([[np.cos(th), -np.sin(th)],
                                                [np.sin(th), np.cos(th)]])
    d *= rho / np.abs(np.linalg.eigvals(d)).max()
    v = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    return v @ d @ np.linalg.inv(v)


class TestSchurFormSolve:
    @settings(max_examples=60)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
           rho=st.floats(0.1, 0.9), pairs=st.booleans(),
           kappa=st.floats(0.95, 2.0), transposed=st.booleans())
    def test_form_solve_matches_kronecker_oracle(self, n, seed, rho, pairs,
                                                 kappa, transposed):
        # the form of A / kappa (scaled) and of (A / kappa)' (transposed) is
        # a real Schur form of that matrix, and the solve in it matches the
        # Kronecker oracle; complex pairs give 2 x 2 blocks
        a = matrix_with_spectrum(n, seed, rho, pairs)
        form = real_schur(a)
        assert np.diag(form.t, -1).any() == (pairs and n >= 2)
        assert form.rho == pytest.approx(rho, rel=1e-10)
        form, a = form.scaled(kappa), a / kappa
        if transposed:
            form, a = form.transposed(), a.T
        assert form.rho == pytest.approx(rho / kappa, rel=1e-10)
        assert not np.tril(form.t, -2).any()
        np.testing.assert_allclose(form.z.T @ form.z, np.eye(n), atol=1e-14)
        np.testing.assert_allclose(form.z @ form.t @ form.z.T, a, atol=1e-13)
        b = np.random.default_rng(seed + 1).standard_normal((n, 2))
        x = solve_discrete_lyapunov(form, b @ b.T)
        want = kronecker_lyapunov(a, b @ b.T)
        np.testing.assert_allclose(x, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())

    def test_empty_matrix(self):
        assert solve_discrete_lyapunov(np.zeros((0, 0)), np.zeros((0, 0))).shape == (0, 0)
        assert real_schur(np.zeros((0, 0))).rho == 0.0


@pytest.mark.parametrize("call", ["certify_weighted", "gramians", "h2_norm",
                                  "ctrb_obsv_rank", "impulse_kernel",
                                  "hinf_norm_grid", "transfer_eval",
                                  "output_psd"])
def test_one_schur_form_per_call(monkeypatch, call):
    # every Lyapunov solve and H(z) of one call (a bisection, W_c and W_o, the
    # decay envelope, or a frequency grid) reads the same real Schur form,
    # and neither runs an eigensolver
    rng = np.random.default_rng(4)
    if call == "certify_weighted":
        w = rng.standard_normal((8, 8))
        args = (esnkit.ReservoirParams(W=0.8 * w / np.linalg.norm(w, 2),
                                       U=np.zeros((8, 1)), b=np.zeros(8),
                                       leak=0.6), 256)
    else:
        a = matrix_with_spectrum(6, 4, 0.9, True)
        args = (esnkit.LtiModel(A=a, B=rng.standard_normal((6, 2)),
                                C=rng.standard_normal((2, 6)),
                                D=np.zeros((2, 2))),)
        args += {"transfer_eval": (np.exp(0.3j),),
                 "output_psd": (np.eye(2), np.linspace(0.0, np.pi, 7))
                 }.get(call, ())
    counts = {"schur": 0, "eigvals": 0, "solve_discrete_lyapunov": 0}
    schur_outputs = []

    def count(owner, name):
        inner = getattr(owner, name)

        def wrapper(*wrapped_args, **kwargs):
            counts[name] += 1
            if name == "schur":
                positional = wrapped_args[1] if len(wrapped_args) > 1 else "real"
                schur_outputs.append(kwargs.get("output", positional))
            return inner(*wrapped_args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    count(scipy.linalg, "schur")
    count(np.linalg, "eigvals")
    count(esnkit.stability if call in ("certify_weighted", "impulse_kernel")
          else esnkit.freq, "solve_discrete_lyapunov")
    getattr(esnkit, call)(*args)
    solves = {"impulse_kernel": 1, "hinf_norm_grid": 0, "transfer_eval": 0,
              "output_psd": 0}.get(call, 2)
    assert counts["solve_discrete_lyapunov"] >= solves
    assert (counts["schur"], counts["eigvals"]) == (1, 0)
    assert schur_outputs == ["real"]


def scan_loop(m, rows):
    for t in range(1, len(rows)):
        rows[t] += np.dot(m, rows[t - 1])
    return rows


class TestLinearScan:
    @settings(max_examples=60)
    @given(n=st.integers(1, 16), steps=st.integers(0, 600),
           seed=st.integers(0, 2 ** 32 - 1), rho=st.floats(0.0, 0.99),
           nonnormal=st.booleans(), scalar=st.booleans())
    @example(n=3, steps=0, seed=0, rho=0.9, nonnormal=True, scalar=False)
    @example(n=3, steps=1, seed=1, rho=0.9, nonnormal=True, scalar=False)
    @example(n=3, steps=2, seed=2, rho=0.9, nonnormal=True, scalar=False)
    @example(n=3, steps=3, seed=3, rho=0.9, nonnormal=True, scalar=False)
    @example(n=3, steps=2, seed=4, rho=0.5, nonnormal=False, scalar=True)
    @example(n=3, steps=600, seed=5, rho=0.9, nonnormal=False, scalar=True)
    @example(n=3, steps=50, seed=6, rho=0.0, nonnormal=False, scalar=True)
    def test_matches_step_loop_on_views(self, n, steps, seed, rho, nonnormal,
                                        scalar):
        m = rho if scalar else stable_matrix(n, seed, rho, nonnormal)
        rows = np.random.default_rng(seed + 1).standard_normal((steps + 1, n))
        check_scan_on_views(m, rows)

    # linear_scan's chunk length is k = 6 at these sizes; a level with 12 = 2k
    # steps or more recurses, so depth changes at 2k, 2k^2 and 2k^3 steps
    @pytest.mark.parametrize("scalar", [True, False])
    @pytest.mark.parametrize("steps", [5, 6, 7, 11, 12, 13, 36, 37, 71, 72,
                                       217, 431, 432])
    def test_chunk_and_depth_boundaries(self, steps, scalar):
        m = 0.95 if scalar else stable_matrix(3, steps, 0.95, True)
        check_scan_on_views(
            m, np.random.default_rng(steps).standard_normal((steps + 1, 3)))

    @pytest.mark.parametrize("scalar", [True, False])
    def test_empty_rows(self, scalar):
        check_scan_on_views(0.5 if scalar else np.eye(3), np.empty((0, 3)))

    def test_long_nonnormal_run_keeps_powers_accurate(self):
        # 10^4 steps reach m^(k^4) = m^1296 in the carry of the chunk ends
        m = stable_matrix(16, 3, 0.99, True)
        check_scan_on_views(
            m, np.random.default_rng(4).standard_normal((10 ** 4 + 1, 16)))

    @pytest.mark.parametrize("scalar", [True, False])
    def test_temporaries_stay_below_half_the_rows(self, scalar):
        m = 0.9 if scalar else stable_matrix(16, 5, 0.9, False)
        rows = np.random.default_rng(6).standard_normal((10 ** 4, 16))
        _, peak = traced_peak_mib(linear_scan, m, rows)
        assert peak * 2 ** 20 <= rows.nbytes / 2


def check_scan_on_views(m, rows):
    """linear_scan on ``rows`` itself, on a reversed view and on a column-
    strided view agrees with the step loop to 1e-12 times the largest entry,
    and writes nothing outside the view."""
    want = scan_loop(m, rows.copy())
    scale = np.abs(want).max(initial=0.0)

    got = rows.copy()
    linear_scan(m, got)
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale

    backward = rows[::-1].copy()
    linear_scan(m, backward[::-1])
    assert np.abs(backward[::-1] - want).max(initial=0.0) <= 1e-12 * scale

    wide = np.zeros((len(rows), 2 * rows.shape[1]))
    wide[:, 1::2] = rows
    linear_scan(m, wide[:, 1::2])
    assert np.abs(wide[:, 1::2] - want).max(initial=0.0) <= 1e-12 * scale
    assert not wide[:, ::2].any()
