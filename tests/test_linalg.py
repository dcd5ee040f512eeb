import logging

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from esnkit._linalg import linear_scan, solve_discrete_lyapunov

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
        assert 0.0 < float(events[0][1].removeprefix("rcond=")) < 1e-15
        assert np.abs(a @ x @ a.T + np.eye(6) - x).max() <= 1e-10 * np.abs(x).max()


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
        want = scan_loop(m, rows.copy())
        scale = np.abs(want).max()

        got = rows.copy()
        linear_scan(m, got)
        assert np.abs(got - want).max() <= 1e-12 * scale

        backward = rows[::-1].copy()
        linear_scan(m, backward[::-1])
        assert np.abs(backward[::-1] - want).max() <= 1e-12 * scale

        wide = np.zeros((steps + 1, 2 * n))
        wide[:, 1::2] = rows
        linear_scan(m, wide[:, 1::2])
        assert np.abs(wide[:, 1::2] - want).max() <= 1e-12 * scale
        assert not wide[:, ::2].any()
