"""Shared dense linear-algebra helpers used across the toolkit.

Everything here works on float64 arrays; callers are expected to have
validated shapes already.  Keeping these in one place guarantees that
norms, Lyapunov solves, and seeded sampling behave identically no matter
which module asks for them.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) so draws are reproducible across platforms."""
    return np.random.Generator(np.random.Philox(int(seed)))


def check_finite(arr: np.ndarray, name: str) -> None:
    """Reject non-finite entries, reporting the flat index of the first offender."""
    arr = np.asarray(arr)
    if not np.all(np.isfinite(arr)):
        idx = int(np.flatnonzero(~np.isfinite(arr.ravel()))[0])
        raise ValueError(f"{name} has non-finite entry at flat index {idx}")


def as_float_array(a, name: str) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    check_finite(out, name)
    return out


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def spectral_norm(w: np.ndarray) -> float:
    """Largest singular value of ``w`` from the LAPACK SVD."""
    w = np.asarray(w, dtype=np.float64)
    return float(np.linalg.norm(w, 2)) if w.size else 0.0


def check_psd(m: np.ndarray, name: str) -> np.ndarray:
    """Convert to float64, validate symmetry to 1e-12 and the eigenvalue floor
    -1e-12 (both relative to max(1, max|m|)); return the symmetrized matrix."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    check_finite(m, name)
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > 1e-12 * scale:
        raise ValueError(f"{name} is not symmetric within tolerance 1e-12")
    ms = symmetrize(m)
    if ms.size and float(np.linalg.eigvalsh(ms).min()) < -1e-12 * scale:
        raise ValueError(f"{name} is not positive semidefinite")
    return ms


def solve_discrete_lyapunov(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Solve ``X = A X A^T + S`` by Bartels--Stewart (O(n^3), through
    ``scipy.linalg.solve_discrete_lyapunov``).

    Requires rho(A) < 1 and raises ``LinAlgError`` otherwise: there the
    solver can return a huge "solution" that still meets a relative residual
    test.  Also raises if the residual exceeds 1e-10 relative to the
    solution scale.
    """
    a = np.asarray(a, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if float(np.abs(np.linalg.eigvals(a)).max()) >= 1.0:
        raise np.linalg.LinAlgError(
            "discrete Lyapunov solve needs rho(A) < 1")
    x = symmetrize(scipy.linalg.solve_discrete_lyapunov(a, s))
    scale = max(1.0, float(np.abs(x).max()))
    residual = np.abs(a @ x @ a.T + s - x).max()
    if not np.isfinite(residual) or residual > 1e-10 * scale:
        raise np.linalg.LinAlgError(
            f"discrete Lyapunov residual {residual:.3e} exceeds tolerance")
    return x
