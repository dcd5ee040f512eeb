import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from esnkit._linalg import solve_discrete_lyapunov

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

    @settings(max_examples=40, deadline=None, derandomize=True)
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
