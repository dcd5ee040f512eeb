"""Frequency-domain analysis of LTI surrogates.

Transfer function H(z) = C (I - z^{-1} A)^{-1} B + D, impulse kernel blocks
h_k = C A^k B, modal (pole/residue) decomposition, Gramians from discrete
Lyapunov equations, H2/Hinf norms, and output spectra.  All of it assumes the
dense desk-scale regime (n <= 512); Gramian-based quantities additionally
require rho(A) < 1.

Every analysis reads the model's one real Schur form A = Z T Z'
(:func:`_schur`): the Lyapunov solves run in it, H(z) is a back
substitution over the diagonal blocks of T for all z at once, O(n^2) per z
instead of O(n^3) (Laub, IEEE TAC 26(2), 1981), and rho(A) is read off those
blocks.  This module alone decides what a model keeps: :func:`_kept` stores
the form, the Gramian pair and the decay envelope on the model, read-only
(a solve that raises keeps nothing), so the analyses of one model make one
Schur decomposition and at most three Lyapunov solves in all.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np
import scipy.linalg

from ._linalg import (SchurForm, as_float_array, check_count, real_schur,
                      solve_discrete_lyapunov)
from .linearize import LtiModel
from .stability import _decay_envelope

__all__ = ["ImpulseKernel", "ModalDecomposition", "GramianPair", "RankReport",
           "HinfEstimate", "transfer_eval", "impulse_kernel", "modal",
           "gramians", "ctrb_obsv_rank", "h2_norm", "hinf_norm_grid",
           "output_psd"]

_MAX_TRUNCATION = 200_000


@dataclass(frozen=True)
class ImpulseKernel:
    """Finite kernel h_0..h_K with a geometric bound on the discarded tail.

    ``envelope`` is a proven ``(c, kappa)`` with ||A^k||_2 <= c kappa^k for
    all k; without one (None) ``tail_bound`` is inf.  K is ``len(kernel) - 1``.
    """

    blocks: np.ndarray            # (K+1, p, m)
    tail_bound: float
    envelope: Optional[Tuple[float, float]]

    def __len__(self) -> int:
        return self.blocks.shape[0]


@dataclass(frozen=True)
class ModalDecomposition:
    """Poles and residues: h_k = sum_i eigenvalues_i^k * residues_i.

    ``eigvec_cond`` reports the eigenvector conditioning so that non-normal
    caveats surface as data.
    """

    eigenvalues: np.ndarray       # (n,) complex
    residues: np.ndarray          # (n, p, m) complex
    eigvec_cond: float

    def reconstruct(self, k: int) -> np.ndarray:
        """Real part of sum_i lambda_i^k R_i (imaginary parts cancel for real systems)."""
        powers = self.eigenvalues ** k
        return np.real(np.tensordot(powers, self.residues, axes=(0, 0)))


@dataclass(frozen=True)
class GramianPair:
    """Gramians W_c = sum_k A^k B B' A'^k and W_o = sum_k A'^k C' C A^k."""

    W_c: np.ndarray
    W_o: np.ndarray


class RankReport(NamedTuple):
    rank_c: int
    rank_o: int
    min_eig_wc: float
    min_eig_wo: float


class HinfEstimate(NamedTuple):
    """Grid + refinement lower bound ``value`` on the Hinf norm, the gain at
    ``omega_peak``; ``interval_width`` is the bracket of the refinement
    points around ``omega_peak``, and a resonance between grid points can
    peak outside."""
    value: float
    omega_peak: float
    interval_width: float


def _kept(lti: LtiModel, name: str, compute: Callable[[], object]):
    """``compute()`` on the first call for ``name``, kept on the model ``lti``
    for every later one (a model never changes); an exception keeps nothing."""
    memo = vars(lti)
    if name not in memo:
        memo[name] = compute()
    return memo[name]


def _schur(lti: LtiModel) -> SchurForm:
    """The real Schur form of the model's A, decomposed on first use and
    kept, read-only."""
    form = _kept(lti, "_schur", lambda: real_schur(lti.A))
    form.t.flags.writeable = form.z.flags.writeable = False
    return form


def _transfer_batch(lti: LtiModel, zs: np.ndarray) -> np.ndarray:
    """H(z) for every z of ``zs``, shape (len(zs), p, m), from the model's real
    Schur form by back substitution of (z I - T) X = z Z' B over the 1 x 1 and
    2 x 2 diagonal blocks of T for all z at once (a 2 x 2 block by its
    adjugate); a zero pivot or determinant (a pole) raises ``LinAlgError``."""
    form = _schur(lti)
    t, count = form.t, np.size(zs)
    zs = np.repeat(np.asarray(zs, dtype=complex), lti.m)
    # row i of x holds X_i for every z, laid out (len(zs), m)
    x = np.tile(form.z.T @ lti.B, (1, count)) * zs
    parts = x.view(np.float64)      # T is real: it acts on re and im alike
    i = len(t)
    while i:
        k = i - 2 if i > 1 and t[i - 1, i - 2] else i - 1
        parts[k:i] += t[k:i, i:] @ parts[i:]
        det = zs - t[k, k]
        if k < i - 1:
            d22 = zs - t[i - 1, i - 1]
            x[k], x[i - 1] = (d22 * x[k] + t[k, i - 1] * x[i - 1],
                              det * x[i - 1] + t[i - 1, k] * x[k])
            det = det * d22 - t[k, i - 1] * t[i - 1, k]
        if not det.all():
            raise np.linalg.LinAlgError("Singular matrix")
        x[k:i] /= det
        i = k
    h = (lti.C @ form.z @ x).reshape(lti.p, count, lti.m).transpose(1, 0, 2)
    return h + lti.D


def transfer_eval(lti: LtiModel, z: complex) -> np.ndarray:
    """H(z) from the real Schur form of A (no series summation).

    Warns when |z| <= rho(A), which is outside the region of convergence
    |z| > rho(A) of this causal system; raises when z hits a pole, reporting
    the nearest eigenvalue.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("transfer function is undefined at z = 0")
    return _transfer_checked(lti, np.array([z]))[0]


def _transfer_checked(lti: LtiModel, zs: np.ndarray) -> np.ndarray:
    """:func:`_transfer_batch` from one real Schur form, which gives rho(A):
    warns once when some |z| <= rho(A), and turns a pole hit into a
    ValueError that names the offending z and the eigenvalue nearest to it."""
    rho = _schur(lti).rho
    radius = float(np.abs(zs).min()) if zs.size else math.inf
    if radius <= rho:
        warnings.warn(
            f"|z| = {radius:.6g} is outside the region of convergence "
            f"|z| > rho(A) = {rho:.6g}", stacklevel=3)
    try:
        return _transfer_batch(lti, zs)
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvals(_schur(lti).t)
        gaps = np.abs(zs[:, None] - eigs[None, :])
        i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
        raise ValueError(
            f"z = {complex(zs[i])} hits a pole; nearest eigenvalue {eigs[j]}")


def impulse_kernel(lti: LtiModel, truncation: Optional[int] = None,
                   tail_tol: float = 1e-9) -> ImpulseKernel:
    """Kernel blocks h_k = C A^k B for k = 0..K by repeated multiplication.

    The tail bound c ||C|| ||B|| kappa^{K+1} / (1 - kappa) sums the envelope
    ||A^k|| <= c kappa^k past K.  If ``truncation`` is omitted, K is the
    least one whose bound is at most ``tail_tol`` (positive and finite); there
    must be an envelope, and K at most ``_MAX_TRUNCATION``.  B = 0 or C = 0
    gives K = 0 and a tail bound of 0.  The envelope is the model's, found
    once per model.
    """
    if not (tail_tol > 0.0 and math.isfinite(tail_tol)):
        raise ValueError(f"tail_tol must be positive and finite, got {tail_tol!r}")
    if truncation is not None:
        check_count(truncation, "truncation", 0)
    a, b, c_mat = lti.A, lti.B, lti.C
    envelope = _kept(lti, "_envelope", lambda: _decay_envelope(_schur(lti)))
    if envelope is not None:                 # the tail bound is scale kappa^(K+1)
        growth, kappa = envelope
        scale = growth * np.linalg.norm(c_mat, 2) * np.linalg.norm(b, 2) / (1.0 - kappa)

    if truncation is None:
        if envelope is None:
            raise ValueError("automatic truncation needs a proven envelope ||A^k||"
                             " <= c kappa^k: none at rho(A) >= 1 or ill-conditioned P")
        truncation = 0
        if scale > 0.0:
            # the least K, and one more block if rounding left its bound too high
            logs = (math.log(tail_tol) - math.log(scale)) / math.log(kappa)
            truncation = max(math.ceil(logs) - 1, 0)
            if scale * kappa ** (truncation + 1) > tail_tol:
                truncation += 1
        if truncation > _MAX_TRUNCATION:
            raise ValueError(f"tail_tol {tail_tol:g} needs K = {truncation}, "
                             f"above the cap of {_MAX_TRUNCATION}")

    blocks = np.empty((truncation + 1, lti.p, lti.m))
    x = b.copy()
    for k in range(truncation + 1):
        blocks[k] = c_mat @ x
        if k < truncation:
            x = a @ x
    tail = math.inf if envelope is None else scale * kappa ** (truncation + 1)
    return ImpulseKernel(blocks=blocks, tail_bound=float(tail),
                         envelope=envelope)


def modal(lti: LtiModel) -> ModalDecomposition:
    """Eigen-decomposition A = V diag(lambda) V^{-1} with residues (C v_i)(w_i' B).

    Raises for near-defective A (eigenvector condition above 1e8);
    kernel-domain analysis is the robust alternative there.
    """
    eigvals, v = scipy.linalg.eig(lti.A)
    cond_v = float(np.linalg.cond(v)) if lti.n else 1.0
    if not np.isfinite(cond_v) or cond_v > 1e8:
        raise ValueError(
            f"A is near-defective (eigenvector condition {cond_v:.3e}); "
            "use kernel-domain analysis instead of modal form")
    w = np.linalg.inv(v)                     # rows are left eigenvectors
    cv = lti.C.astype(complex) @ v           # (p, n)
    wb = w @ lti.B.astype(complex)           # (n, m)
    residues = cv.T[:, :, None] * wb[:, None, :]
    return ModalDecomposition(eigenvalues=eigvals, residues=residues,
                              eigvec_cond=cond_v)


def gramians(lti: LtiModel) -> GramianPair:
    """Reachability / observability Gramians from the two discrete Lyapunov
    equations, both solved in the model's real Schur form A = Z T Z' (W_o in
    that of A' = (Z J)(J T' J)(Z J)', J the reversal permutation), once per
    model: the pair is kept on it, read-only.  rho(A) >= 1 raises the
    solver's ``LinAlgError`` (a ``ValueError``) on every call."""

    def solve() -> GramianPair:
        form = _schur(lti)
        pair = GramianPair(W_c=solve_discrete_lyapunov(form, lti.B @ lti.B.T),
                           W_o=solve_discrete_lyapunov(form.transposed(), lti.C.T @ lti.C))
        pair.W_c.flags.writeable = pair.W_o.flags.writeable = False
        return pair

    return _kept(lti, "_gramians", solve)


def ctrb_obsv_rank(lti: LtiModel) -> RankReport:
    """Numerical ranks of the controllability/observability matrices (singular
    values at least 1e-10 times the largest) plus the Gramian minimum
    eigenvalues (NaN when rho(A) >= 1, 0 for a model with no state).  The
    model's real Schur form gives rho(A), and :func:`gramians` the pair; a
    failed solve at rho(A) < 1 raises."""
    n = lti.n
    if n > 512:
        raise ValueError("rank tests are limited to n <= 512")
    ctrb_cols = [lti.B]
    obsv_rows = [lti.C]
    for _ in range(n - 1):
        ctrb_cols.append(lti.A @ ctrb_cols[-1])
        obsv_rows.append(obsv_rows[-1] @ lti.A)
    ctrb = np.hstack(ctrb_cols)
    obsv = np.vstack(obsv_rows)

    def _rank(mat):
        s = np.linalg.svd(mat, compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            return 0
        return int(np.sum(s >= 1e-10 * s[0]))

    if _schur(lti).rho < 1.0:
        pair = gramians(lti)
        min_wc, min_wo = (float(np.linalg.eigvalsh(w).min()) if n else 0.0
                          for w in (pair.W_c, pair.W_o))
    else:
        min_wc = min_wo = float("nan")
    return RankReport(rank_c=_rank(ctrb), rank_o=_rank(obsv),
                      min_eig_wc=min_wc, min_eig_wo=min_wo)


def h2_norm(lti: LtiModel) -> float:
    """sqrt(tr(C W_c C')); defined for strictly proper stable systems only."""
    if np.any(lti.D != 0.0):
        raise ValueError("H2 norm requires D = 0")
    pair = gramians(lti)
    val = float(np.trace(lti.C @ pair.W_c @ lti.C.T))
    return math.sqrt(max(val, 0.0))


def hinf_norm_grid(lti: LtiModel, grid_points: int = 512) -> HinfEstimate:
    """Lower bound on sup_omega sigma_max(H(e^{j omega})) over [0, pi].

    The model's real Schur form serves every frequency: it checks rho(A) < 1,
    a uniform grid (one back substitution) locates the peak, and a second
    batch of 33 equally spaced points strictly inside the grid bracket
    [omega_best-1, omega_best+1] refines it, so ``interval_width`` is twice
    their spacing.  The estimate is the best of the grid and the batch; ties
    break toward the lowest frequency.
    """
    check_count(grid_points, "grid_points", 64)
    if _schur(lti).rho >= 1.0:
        raise ValueError("Hinf evaluation on the unit circle needs rho(A) < 1")
    omegas = np.linspace(0.0, np.pi, grid_points)

    def gains(omega) -> np.ndarray:
        h = _transfer_batch(lti, np.exp(1j * omega))
        return np.linalg.svd(h, compute_uv=False)[:, 0] if h.size else np.zeros(len(h))

    values = gains(omegas)
    best = int(np.argmax(values))            # argmax returns the first (lowest omega)
    a = omegas[max(best - 1, 0)]
    b = omegas[min(best + 1, grid_points - 1)]
    inner = np.linspace(a, b, 35)[1:-1]
    candidates = zip(np.append(values[best], gains(inner)),
                     np.append(omegas[best], inner))
    value, peak = max(candidates, key=lambda t: (t[0], -t[1]))
    return HinfEstimate(value=float(value), omega_peak=float(peak),
                        interval_width=float(2.0 * (b - a) / 34))


def output_psd(lti: LtiModel, input_psd: np.ndarray, omega) -> np.ndarray:
    """Output spectral density H(e^{j omega}) S_u H(e^{j omega})^* for a
    constant Hermitian PSD input density S_u.

    ``omega`` is a scalar, giving a (p, p) result, or an array of
    frequencies, giving ``omega.shape + (p, p)``; every frequency is
    evaluated from the model's real Schur form, as in :func:`hinf_norm_grid`,
    and the region-of-convergence warning (rho(A) >= 1) fires once per call.
    """
    s_u = np.asarray(input_psd, dtype=complex)
    for part in s_u.real, s_u.imag:
        as_float_array(part, "input_psd", (lti.m, lti.m))
    scale = np.abs(s_u).max(initial=1.0)
    if np.abs(s_u - s_u.conj().T).max(initial=0.0) > 1e-12 * scale:
        raise ValueError("input PSD must be Hermitian")
    if s_u.size and float(np.linalg.eigvalsh(s_u).min()) < -1e-12:
        raise ValueError("input PSD must be positive semidefinite")
    omega = as_float_array(omega, "omega")
    h = _transfer_checked(lti, np.exp(1j * omega.ravel()))
    psd = h @ s_u @ h.conj().transpose(0, 2, 1)
    return psd.reshape(omega.shape + psd.shape[1:])
