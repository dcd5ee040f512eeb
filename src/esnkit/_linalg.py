"""Shared dense linear-algebra helpers used across the toolkit.

Everything here works on float64 arrays; callers are expected to have
validated shapes already.  Keeping these in one place guarantees that
norms, Lyapunov solves, and seeded sampling behave identically no matter
which module asks for them.
"""

from __future__ import annotations

import logging
import math
import re
import warnings

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemv

logger = logging.getLogger(__name__)


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


def _gemv_into(alpha: float, a: np.ndarray, x: np.ndarray, beta: float,
              y: np.ndarray) -> np.ndarray:
    """``y = alpha a @ x + beta y`` in place by one BLAS ``dgemv``; returns y.

    ``a`` must be C-ordered and ``y`` a contiguous float64 vector, or f2py
    copies them: ``a`` goes in as its F-ordered transpose with trans=1
    (faster than an F-ordered copy of ``a`` at n = 256).  The arguments
    after ``y`` (offx, incx, offy, incy, trans, overwrite_y) are positional
    because f2py's keyword parsing costs more than the product at n = 16.
    """
    return dgemv(alpha, a.T, x, beta, y, 0, 1, 0, 1, 1, 1)


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
    solution scale.  SciPy's ``LinAlgWarning`` for an ill-conditioned
    system (rho(A) within about 1e-15 of 1) does not escape: it becomes the
    DEBUG event ``lyapunov.ill_conditioned rcond=...`` and the residual
    test decides.
    """
    a = np.asarray(a, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if np.abs(np.linalg.eigvals(a)).max(initial=0.0) >= 1.0:
        raise np.linalg.LinAlgError(
            "discrete Lyapunov solve needs rho(A) < 1")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", scipy.linalg.LinAlgWarning)
        x = symmetrize(scipy.linalg.solve_discrete_lyapunov(a, s))
    for warning in caught:
        if issubclass(warning.category, scipy.linalg.LinAlgWarning):
            found = re.search(r"rcond\s*=\s*([-+0-9.eE]*\d)",
                              str(warning.message))
            logger.debug("lyapunov.ill_conditioned rcond=%s",
                         found.group(1) if found else "unknown")
        else:
            warnings.warn_explicit(warning.message, warning.category,
                                   warning.filename, warning.lineno)
    scale = max(1.0, float(np.abs(x).max(initial=0.0)))
    residual = np.abs(a @ x @ a.T + s - x).max(initial=0.0)
    if not np.isfinite(residual) or residual > 1e-10 * scale:
        raise np.linalg.LinAlgError(
            f"discrete Lyapunov residual {residual:.3e} exceeds tolerance")
    return x


def linear_scan(m, rows: np.ndarray) -> None:
    """Run the affine recursion ``rows[t] += m @ rows[t - 1]`` for t = 1..T-1
    in place on ``rows`` (T, n), which may be any view, reversed or strided
    ones included.  ``m`` is an (n, n) matrix or a scalar; a scalar step is
    ``rows[t] += m * rows[t - 1]``, O(n) instead of O(n^2).

    The T - 1 steps are split into chunks of k = isqrt(T - 1) steps.  All
    chunks are stepped together from a zero start, k - 1 ``(chunks, n) @
    (n, n)`` products; the chunk ends are then carried with ``m^k``, one
    matvec per chunk; and ``m^(r+1)`` times its true start is added to row r
    of every chunk, k more products.  That is O(T n^2) work in about 3
    sqrt(T) small products instead of T matvecs, with no temporary larger
    than (chunks, n).  The sums are regrouped, so the result matches the
    step loop up to rounding, not bit for bit.  Fewer than 9 steps run that
    loop.
    """
    scalar = np.ndim(m) == 0
    apply = np.multiply if scalar else np.matmul
    m_t = m if scalar else m.T
    steps = len(rows) - 1
    k = math.isqrt(max(steps, 0))
    if k < 3:
        for t in range(1, steps + 1):
            rows[t] += apply(m, rows[t - 1])
        return
    # row r of chunk i is rows[1 + i k + r], so rows[1 + r::k] is that row of
    # every chunk; only the last chunk may be short
    for r in range(1, k):
        block = rows[1 + r::k]
        block += apply(rows[r::k][:len(block)], m_t)
    chunks = len(rows[1::k])
    power_t = m ** k if scalar else np.linalg.matrix_power(m, k).T
    starts = np.empty((chunks, rows.shape[1]))
    starts[0] = rows[0]
    for i in range(1, chunks):
        starts[i] = rows[i * k] + apply(starts[i - 1], power_t)
    for r in range(k):
        block = rows[1 + r::k]
        starts = apply(starts[:len(block)], m_t)
        block += starts
