"""Frequency-domain analysis of LTI surrogates.

Transfer function H(z) = C (I - z^{-1} A)^{-1} B + D, impulse kernel blocks
h_k = C A^k B, modal (pole/residue) decomposition, Gramians from discrete
Lyapunov equations, H2/Hinf norms, and output spectra.  All of it assumes the
dense desk-scale regime (n <= 512); Gramian-based quantities additionally
require rho(A) < 1.

Every H(z) comes from one path: the complex Schur form A = Q T Q*, computed
once per public call, turns (I - A/z) X = B into a back substitution over
the n rows for all z at once, O(n^2) per z instead of O(n^3) (Laub, IEEE TAC
26(2), 1981); diag(T) gives rho(A) and the poles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np
import scipy.linalg

from ._linalg import solve_discrete_lyapunov
from .linearize import LtiModel
from .stability import _decay_envelope, spectral_radius

__all__ = ["ImpulseKernel", "ModalDecomposition", "GramianPair", "RankReport",
           "HinfEstimate", "transfer_eval", "impulse_kernel", "modal",
           "gramians", "ctrb_obsv_rank", "h2_norm", "hinf_norm_grid",
           "output_psd"]

_MAX_TRUNCATION = 200_000


@dataclass(frozen=True)
class ImpulseKernel:
    """Finite kernel h_0..h_K with a geometric bound on the discarded tail.

    ``envelope`` is a proven ``(c, kappa)`` with ||A^k||_2 <= c kappa^k for
    all k; without one (None) ``tail_bound`` is inf.
    """

    blocks: np.ndarray            # (K+1, p, m)
    truncation: int
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
    feedthrough: np.ndarray
    eigvec_cond: float

    def reconstruct(self, k: int) -> np.ndarray:
        """Real part of sum_i lambda_i^k R_i (imaginary parts cancel for real systems)."""
        powers = self.eigenvalues ** k
        return np.real(np.tensordot(powers, self.residues, axes=(0, 0)))


@dataclass(frozen=True)
class GramianPair:
    W_c: np.ndarray
    W_o: np.ndarray
    min_eigs: tuple


class RankReport(NamedTuple):
    rank_c: int
    rank_o: int
    min_eig_wc: float
    min_eig_wo: float


class HinfEstimate(NamedTuple):
    """Grid + golden-section lower bound on the Hinf norm; the true peak lies
    within ``interval_width`` of ``omega_peak``."""
    value: float
    omega_peak: float
    interval_width: float


def _schur_form(lti: LtiModel):
    """``(T, C Q, Q* B, D)`` from the complex Schur form A = Q T Q*."""
    t, q = scipy.linalg.schur(lti.A, output="complex")
    return t, lti.C @ q, q.conj().T @ lti.B, lti.D


def _transfer_batch(form, zs: np.ndarray) -> np.ndarray:
    """H(z) for every z of ``zs``, shape (len(zs), p, m), from a
    :func:`_schur_form` by back substitution of (I - T/z) X = Q* B for all z
    at once; a zero pivot 1 - t_ii/z (a pole) raises ``LinAlgError``."""
    t, cq, qb, d = form
    n, m = qb.shape
    zs = np.asarray(zs, dtype=complex)
    # row i of x holds X_i for every z, laid out (len(zs), m)
    zinv = np.repeat(1.0 / zs, m)
    pivots = 1.0 - np.repeat(np.diag(t)[:, None] / zs, m, axis=1)
    if not pivots.all():
        raise np.linalg.LinAlgError("Singular matrix")
    x = np.tile(qb, (1, zs.size))
    for i in range(n - 1, -1, -1):
        x[i] += zinv * (t[i, i + 1:] @ x[i + 1:])
        x[i] /= pivots[i]
    h = (cq @ x).reshape(len(cq), zs.size, m).transpose(1, 0, 2)
    return h + d


def transfer_eval(lti: LtiModel, z: complex) -> np.ndarray:
    """H(z) from the complex Schur form of A (no series summation).

    Warns when |z| <= rho(A), which is outside the region of convergence
    |z| > rho(A) of this causal system; raises when z hits a pole, reporting
    the nearest eigenvalue.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("transfer function is undefined at z = 0")
    return _transfer_checked(lti, np.array([z]))[0]


def _transfer_checked(lti: LtiModel, zs: np.ndarray) -> np.ndarray:
    """:func:`_transfer_batch` from one Schur form, whose diagonal gives
    rho(A): warns once when some |z| <= rho(A), and turns a pole hit into a
    ValueError that names the offending z and the eigenvalue nearest to it."""
    form = _schur_form(lti)
    eigs = np.diag(form[0])
    rho = float(np.abs(eigs).max(initial=0.0))
    radius = float(np.abs(zs).min()) if zs.size else math.inf
    if radius <= rho:
        warnings.warn(
            f"|z| = {radius:.6g} is outside the region of convergence "
            f"|z| > rho(A) = {rho:.6g}", stacklevel=3)
    try:
        return _transfer_batch(form, zs)
    except np.linalg.LinAlgError:
        gaps = np.abs(zs[:, None] - eigs[None, :])
        i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
        raise ValueError(
            f"z = {complex(zs[i])} hits a pole; nearest eigenvalue {eigs[j]}")


def impulse_kernel(lti: LtiModel, truncation: Optional[int] = None,
                   tail_tol: float = 1e-9) -> ImpulseKernel:
    """Kernel blocks h_k = C A^k B for k = 0..K by repeated multiplication.

    The tail bound c ||C|| ||B|| kappa^{K+1} / (1 - kappa) sums the envelope
    ||A^k|| <= c kappa^k past K.  If ``truncation`` is omitted, K is chosen
    so that it drops below ``tail_tol``; there must be an envelope, and K at
    most ``_MAX_TRUNCATION``.
    """
    a, b, c_mat = lti.A, lti.B, lti.C
    envelope = _decay_envelope(a)
    norm_cb = np.linalg.norm(c_mat, 2) * np.linalg.norm(b, 2)

    if truncation is None:
        if envelope is None:
            raise ValueError("automatic truncation needs a proven envelope ||A^k||"
                             " <= c kappa^k: none at rho(A) >= 1 or ill-conditioned P")
        growth, kappa = envelope
        target = tail_tol * (1.0 - kappa) / max(growth * norm_cb, 1e-300)
        truncation = max(math.ceil(math.log(target) / math.log(kappa)), 0)
        if truncation > _MAX_TRUNCATION:
            raise ValueError(f"tail_tol {tail_tol:g} needs K = {truncation}, "
                             f"above the cap of {_MAX_TRUNCATION}")
    if truncation < 0:
        raise ValueError("truncation must be >= 0")

    blocks = np.empty((truncation + 1, lti.p, lti.m))
    x = b.copy()
    for k in range(truncation + 1):
        blocks[k] = c_mat @ x
        if k < truncation:
            x = a @ x
    if envelope is None:
        tail = math.inf
    else:
        growth, kappa = envelope
        tail = growth * norm_cb * kappa ** (truncation + 1) / (1.0 - kappa)
    return ImpulseKernel(blocks=blocks, truncation=truncation,
                         tail_bound=float(tail), envelope=envelope)


def modal(lti: LtiModel) -> ModalDecomposition:
    """Eigen-decomposition A = V diag(lambda) V^{-1} with residues (C v_i)(w_i' B).

    Raises for near-defective A (eigenvector condition above 1e8);
    kernel-domain analysis is the robust alternative there.
    """
    eigvals, v = scipy.linalg.eig(lti.A)
    cond_v = float(np.linalg.cond(v))
    if not np.isfinite(cond_v) or cond_v > 1e8:
        raise ValueError(
            f"A is near-defective (eigenvector condition {cond_v:.3e}); "
            "use kernel-domain analysis instead of modal form")
    w = np.linalg.inv(v)                     # rows are left eigenvectors
    cv = lti.C.astype(complex) @ v           # (p, n)
    wb = w @ lti.B.astype(complex)           # (n, m)
    residues = cv.T[:, :, None] * wb[:, None, :]
    return ModalDecomposition(eigenvalues=eigvals, residues=residues,
                              feedthrough=lti.D.copy(), eigvec_cond=cond_v)


def gramians(lti: LtiModel) -> GramianPair:
    """Reachability / observability Gramians from the two discrete Lyapunov
    equations; requires rho(A) < 1."""
    rho = spectral_radius(lti.A)
    if rho >= 1.0:
        raise ValueError(f"Gramians need rho(A) < 1, got {rho:.6g}")
    w_c = solve_discrete_lyapunov(lti.A, lti.B @ lti.B.T)
    w_o = solve_discrete_lyapunov(lti.A.T, lti.C.T @ lti.C)
    min_c = float(np.linalg.eigvalsh(w_c).min()) if lti.n else 0.0
    min_o = float(np.linalg.eigvalsh(w_o).min()) if lti.n else 0.0
    return GramianPair(W_c=w_c, W_o=w_o, min_eigs=(min_c, min_o))


def ctrb_obsv_rank(lti: LtiModel) -> RankReport:
    """Numerical ranks of the controllability/observability matrices (singular
    values at least 1e-10 times the largest) plus the Gramian minimum
    eigenvalues (NaN when rho(A) >= 1)."""
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

    if spectral_radius(lti.A) < 1.0:
        min_wc, min_wo = gramians(lti).min_eigs
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

    One complex Schur form of A serves every frequency: its diagonal checks
    rho(A) < 1, a uniform grid (one back substitution) locates the peak, and
    three golden-section contractions refine the bracket around the grid
    argmax.  Ties break toward the lowest frequency.
    """
    if grid_points < 64:
        raise ValueError("grid_points must be >= 64")
    form = _schur_form(lti)
    if np.abs(np.diag(form[0])).max(initial=0.0) >= 1.0:
        raise ValueError("Hinf evaluation on the unit circle needs rho(A) < 1")
    omegas = np.linspace(0.0, np.pi, grid_points)

    def gains(omega) -> np.ndarray:
        h = _transfer_batch(form, np.exp(1j * np.atleast_1d(omega)))
        return np.linalg.svd(h, compute_uv=False)[:, 0] if h.size else np.zeros(len(h))

    values = gains(omegas)
    best = int(np.argmax(values))            # argmax returns the first (lowest omega)
    lo = omegas[max(best - 1, 0)]
    hi = omegas[min(best + 1, grid_points - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = gains([c, d])
    for _ in range(3):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = gains(c)[0]
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = gains(d)[0]
    candidates = [(values[best], omegas[best]), (fc, c), (fd, d)]
    value, peak = max(candidates, key=lambda t: (t[0], -t[1]))
    return HinfEstimate(value=float(value), omega_peak=float(peak),
                        interval_width=float(b - a))


def output_psd(lti: LtiModel, input_psd: np.ndarray, omega) -> np.ndarray:
    """Output spectral density H(e^{j omega}) S_u H(e^{j omega})^* for a
    constant Hermitian PSD input density S_u.

    ``omega`` is a scalar, giving a (p, p) result, or an array of
    frequencies, giving ``omega.shape + (p, p)``; every frequency is
    evaluated from one Schur form of A, as in :func:`hinf_norm_grid`, and the
    region-of-convergence warning (rho(A) >= 1) fires once per call.
    """
    s_u = np.asarray(input_psd, dtype=complex)
    if s_u.shape != (lti.m, lti.m):
        raise ValueError(f"input PSD must be {lti.m} x {lti.m}")
    if np.abs(s_u - s_u.conj().T).max() > 1e-12 * max(1.0, np.abs(s_u).max()):
        raise ValueError("input PSD must be Hermitian")
    if s_u.size and float(np.linalg.eigvalsh(s_u).min()) < -1e-12:
        raise ValueError("input PSD must be positive semidefinite")
    omega = np.asarray(omega, dtype=np.float64)
    h = _transfer_checked(lti, np.exp(1j * omega.ravel()))
    psd = h @ s_u @ h.conj().transpose(0, 2, 1)
    return psd.reshape(omega.shape + psd.shape[1:])
