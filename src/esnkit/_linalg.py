"""Shared dense linear-algebra helpers used across the toolkit.

Everything here works on float64 arrays.  Every array argument of the
package is validated once, at the public call, by :func:`as_float_array`
with a shape spec, so rank and size errors all read
``"<name> must be (<spec>), got <shape>"``; the other helpers expect
validated input.  Keeping these in one place guarantees that norms,
Lyapunov solves, and seeded sampling behave identically no matter which
module asks for them.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dtrsyl

logger = logging.getLogger(__name__)


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) so draws are reproducible across platforms."""
    return np.random.Generator(np.random.Philox(int(seed)))


def as_float_array(a, name: str, shape: Optional[tuple] = None) -> np.ndarray:
    """``a`` as a float64 array with finite entries and, given ``shape``, of
    that rank and sizes: an int entry must match exactly, a str entry
    matches any size, and a str that repeats must match the same size each
    time, so ``("n", "n")`` is square.  A mismatch raises
    ``ValueError("<name> must be (<spec>), got <shape>")``, a non-finite
    entry ``ValueError("<name> has non-finite entry at flat index <i>")``."""
    out = np.asarray(a, dtype=np.float64)
    if shape is not None:
        sizes = {}
        if out.ndim != len(shape) or any(
                sizes.setdefault(want, got) != got if isinstance(want, str)
                else want != got for want, got in zip(shape, out.shape)):
            spec = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
            raise ValueError(f"{name} must be ({spec}), got {out.shape}")
    # NaN and inf carry through a sum, so a finite sum clears the array with
    # no temporary its size; only a sum that is not finite, which finite
    # entries can also reach by overflow, is checked entry by entry
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isfinite(out.sum()):
            return out
    bad = np.flatnonzero(~np.isfinite(out.ravel()))
    if bad.size:
        raise ValueError(f"{name} has non-finite entry at flat index {bad[0]}")
    return out


def check_count(value, name: str, least: int) -> None:
    """``TypeError`` unless ``value`` is an integer and no bool, else
    ``ValueError`` if it is below ``least``; both messages name it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _congruence(a, x, q, out=None):
    """sym(A X A' + Q) for A (k, n), X (n, n), Q (k, k), exactly symmetric,
    into ``out`` if given: half = (A X) A' / 2 + Q / 2 is one ``dgemm`` with
    beta = 1/2 (halving is exact), then half + half'.  C-ordered operands go
    to BLAS as F-ordered transposes, which f2py does not copy, and arguments
    after alpha, a and b are positional: f2py's keyword parsing costs more
    than the product at n = 16.  Private, so the benchmark does not trace it."""
    half = dgemm(0.5, dgemm(1.0, a.T, x.T, 0.0, None, 1, 1), a.T, 0.5, q)
    return np.add(half, half.T, out=out)


def spectral_norm(w: np.ndarray) -> float:
    """Largest singular value of ``w`` from the LAPACK SVD."""
    w = np.asarray(w, dtype=np.float64)
    return float(np.linalg.norm(w, 2)) if w.size else 0.0


def check_psd(m: np.ndarray, name: str, shape: tuple = ("n", "n")) -> np.ndarray:
    """Convert to float64, validate the square ``shape``, symmetry to 1e-12
    and the eigenvalue floor -1e-12 (both relative to max(1, max|m|));
    return the symmetrized matrix."""
    m = as_float_array(m, name, shape)
    scale = float(np.abs(m).max(initial=1.0))
    if np.abs(m - m.T).max(initial=0.0) > 1e-12 * scale:
        raise ValueError(f"{name} is not symmetric within tolerance 1e-12")
    ms = symmetrize(m)
    if ms.size and float(np.linalg.eigvalsh(ms).min()) < -1e-12 * scale:
        raise ValueError(f"{name} is not positive semidefinite")
    return ms


@dataclass(frozen=True)
class SchurForm:
    """Real Schur form ``a = z @ t @ z.T`` of a square matrix ``a``: ``t``
    upper quasi-triangular (1 x 1 blocks for real eigenvalues, 2 x 2 blocks
    for complex pairs), ``z`` orthogonal, and ``rho`` = rho(a), read off the
    diagonal blocks of ``t``.  :func:`solve_discrete_lyapunov` solves in it,
    so a caller that solves several equations in ``a``, ``a / c`` or ``a'``
    pays for one Schur decomposition."""

    a: np.ndarray
    t: np.ndarray
    z: np.ndarray
    rho: float

    def scaled(self, c: float) -> "SchurForm":
        """The form of ``a / c``: the same ``z``, ``t / c``."""
        return SchurForm(self.a / c, self.t / c, self.z, self.rho / c)

    def transposed(self) -> "SchurForm":
        """The form of ``a'`` = (Z J)(J T' J)(Z J)', J the reversal
        permutation: J T' J is upper quasi-triangular again."""
        return SchurForm(self.a.T, self.t.T[::-1, ::-1], self.z[:, ::-1], self.rho)


def real_schur(a: np.ndarray) -> SchurForm:
    """The :class:`SchurForm` of ``a`` from one LAPACK real Schur
    decomposition; rho(a) is max |t_ii| over 1 x 1 blocks and sqrt(det)
    over 2 x 2 blocks, whose eigenvalues are a conjugate pair."""
    a = np.asarray(a, dtype=np.float64)
    t, z = scipy.linalg.schur(a)
    modulus2 = np.diag(t) ** 2
    k = np.flatnonzero(np.diag(t, -1))          # a 2 x 2 block in rows k, k + 1
    modulus2[k] = modulus2[k + 1] = (t[k, k] * t[k + 1, k + 1]
                                     - t[k, k + 1] * t[k + 1, k])
    return SchurForm(a, t, z, math.sqrt(modulus2.max(initial=0.0)))


def solve_discrete_lyapunov(a: np.ndarray | SchurForm, s: np.ndarray) -> np.ndarray:
    """Solve ``X = A X A' + S`` in the real Schur form A = Z T Z' (Bartels &
    Stewart, CACM 15(9), 1972; Barraud, IEEE TAC 22(5), 1977), O(n^3).

    ``a`` is a matrix or its :func:`real_schur` form, which may be
    ``scaled`` or ``transposed``; a form is not recomputed.  In the form the
    equation is Y = T Y T' + Z' S Z with X = Z Y Z'.  The Cayley transform
    B = (T - I) M, M = (T + I)^{-1} (one inverse; M and B keep the block
    pattern of T, and an eigenvalue of T near 1 keeps its relative accuracy
    in T - I), turns it into B Y + Y B' = -2 M Z' S Z M', which LAPACK
    ``dtrsyl`` solves by back substitution, so no second Schur form is
    needed.

    Requires rho(A) < 1 and raises ``LinAlgError`` otherwise: there a solver
    can return a huge "solution" that still meets a relative residual test.
    Also raises if the residual in the original coordinates exceeds 1e-10
    relative to the solution scale.  With DEBUG logging on, an rcond estimate
    from :func:`_rcond_bound` below eps (rho(A) within about 1e-15 of 1) is the
    DEBUG event ``lyapunov.ill_conditioned rcond=...``; the residual test
    decides.
    """
    form = a if isinstance(a, SchurForm) else real_schur(a)
    if form.rho >= 1.0:
        raise np.linalg.LinAlgError(
            "discrete Lyapunov solve needs rho(A) < 1")
    s = np.asarray(s, dtype=np.float64)
    if not len(form.t):
        return np.zeros((0, 0))
    x = _schur_solve(form, s)
    a = form.a
    if logger.isEnabledFor(logging.DEBUG) and x.any():
        rcond = _rcond_bound(form, s, x)
        if rcond < np.finfo(np.float64).eps:
            logger.debug("lyapunov.ill_conditioned rcond=%.3e", rcond)
    scale = max(1.0, float(np.abs(x).max(initial=0.0)))
    residual = np.abs(a @ x @ a.T + s - x).max(initial=0.0)
    if not np.isfinite(residual) or residual > 1e-10 * scale:
        raise np.linalg.LinAlgError(
            f"discrete Lyapunov residual {residual:.3e} exceeds tolerance")
    return x


def _schur_solve(form: SchurForm, s: np.ndarray) -> np.ndarray:
    """The symmetrized X of ``X = A X A' + S`` by the Cayley transform and
    ``dtrsyl`` in ``form`` (n >= 1), with no rho or residual check."""
    z = form.z
    eye = np.eye(len(z))
    m = np.linalg.inv(form.t + eye)
    b = (form.t - eye) @ m
    y, factor, _ = dtrsyl(b, b, -2.0 * (m @ (z.T @ s @ z) @ m.T), tranb="T")
    return symmetrize(z @ (y / factor) @ z.T)


def _rcond_bound(form: SchurForm, s: np.ndarray, x: np.ndarray) -> float:
    """Estimate 1 / (||K||_1 nu) of the 1-norm rcond of K = I - A kron A
    (A = ``form.a``) from the solution x of ``X = A X A' + S``, by one Hager
    step (Higham, ACM TOMS 14(4), 1988): Z of Z = A' Z A + sign(X), solved in
    the transposed ``form`` without the residual check it fails at this
    conditioning, is K^{-T} sign(vec X), so nu = max(||vec X||_1 / ||vec S||_1,
    max |Z|) <= ||K^{-1}||_1 and the estimate bounds rcond from above, but
    only up to the rounding of the two solves.  Column (j, l) of K sums to
    c_j c_l - |a_jj a_ll| + |1 - a_jj a_ll|, c_j the 1-norm of column j of A,
    so ||K||_1 is exact in O(n^2)."""
    a = form.a
    col = np.abs(a).sum(axis=0)
    diag = np.outer(np.diag(a), np.diag(a))
    norm_k = (np.outer(col, col) - np.abs(diag) + np.abs(1.0 - diag)).max()
    z = _schur_solve(form.transposed(), np.sign(x))
    return 1.0 / (norm_k * max(np.abs(x).sum() / np.abs(s).sum(), np.abs(z).max()))


def linear_scan(m, rows: np.ndarray) -> None:
    """Run the affine recursion ``rows[t] += m @ rows[t - 1]`` for t = 1..T-1
    in place on ``rows`` (T, n), which may be any view, reversed or strided
    ones included.  ``m`` is an (n, n) matrix or a scalar; a scalar step is
    ``rows[t] += m * rows[t - 1]``, O(n) instead of O(n^2).

    Chunks of k = max(6, ceil(T n / 2^15)) steps keep a (T/k, n) temporary
    near 256 KB, an L2 cache.  k - 1 ``(T/k, n) @ (n, n)`` products step all
    chunks from zero; the chunk ends ``rows[::k]`` then follow the same
    recursion in ``m^k``, run by this function on that view; k - 1 more add
    ``m^(r+1)`` times its true start to row r of every chunk.  A call is thus
    about 2k products per level over log_k T levels and log2 T squarings for
    the powers, with at most two (T/k, n) temporaries (a third of ``rows``)
    alive.  A level under 2k steps, or under n for a matrix (whose power
    costs more), runs the step loop.  The regrouped sums match that loop
    within 1e-12 of its largest entry on 10^4 steps of a non-normal m of
    spectral radius 0.99 (tested).
    """
    scalar = np.ndim(m) == 0
    apply = np.multiply if scalar else np.matmul
    m_t = m if scalar else m.T
    steps = len(rows) - 1
    k = max(6, -(-steps * rows.shape[1] // 2 ** 15))
    if steps < max(2 * k, 0 if scalar else len(m)):
        for t in range(1, steps + 1):
            rows[t] += apply(m, rows[t - 1])
        return
    # row r of chunk i is rows[1 + i k + r], so rows[1 + r::k] is that row of
    # every chunk; only the last chunk may be short
    for r in range(1, k):
        block = rows[1 + r::k]
        block += apply(rows[r::k][:len(block)], m_t)
    linear_scan(m ** k if scalar else np.linalg.matrix_power(m, k), rows[::k])
    starts = rows[:-1:k]
    for r in range(k - 1):
        block = rows[1 + r::k]
        starts = apply(starts[:len(block)], m_t)
        block += starts
