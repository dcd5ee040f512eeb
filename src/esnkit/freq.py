"""Frequency-domain analysis of LTI surrogates.

Transfer function H(z) = C (I - z^{-1} A)^{-1} B + D, impulse kernel blocks
h_k = C A^k B, modal (pole/residue) decomposition, Gramians from discrete
Lyapunov equations, H2/Hinf norms, and output spectra.  All of it assumes the
dense desk-scale regime (n <= 512); Gramian-based quantities additionally
require rho(A) < 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg

from ._linalg import solve_discrete_lyapunov
from .linearize import LtiModel
from .stability import spectral_radius

__all__ = ["ImpulseKernel", "ModalDecomposition", "GramianPair", "RankReport",
           "HinfEstimate", "transfer_eval", "impulse_kernel", "modal",
           "gramians", "ctrb_obsv_rank", "h2_norm", "hinf_norm_grid",
           "output_psd"]

# Window for the empirical transient-growth constant c in ||A^k|| <= c rho^k.
_GROWTH_WINDOW = 30
# Frequencies per batched solve; bounds the (k, n, n) complex stack in memory.
_FREQ_CHUNK = 64


@dataclass(frozen=True)
class ImpulseKernel:
    """Finite kernel h_0..h_K with a geometric bound on the discarded tail.

    ``growth_constant`` is the measured sup of ||A^k|| / rho^k over a finite
    window; for non-normal A it is empirical, not a proof.
    """

    blocks: np.ndarray            # (K+1, p, m)
    truncation: int
    tail_bound: float
    growth_constant: float

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


def _transfer_batch(lti: LtiModel, zs: np.ndarray) -> np.ndarray:
    """H(z) for every z of ``zs``, shape (len(zs), p, m), by one batched solve
    of ``(I - A/z) X = B`` per ``_FREQ_CHUNK`` frequencies; a pole raises
    ``LinAlgError``."""
    zs = np.asarray(zs, dtype=complex)
    b = lti.B.astype(complex)
    out = np.empty((zs.size, lti.p, lti.m), dtype=complex)
    for start in range(0, zs.size, _FREQ_CHUNK):
        z = zs[start:start + _FREQ_CHUNK, None, None]
        sol = np.linalg.solve(np.eye(lti.n) - lti.A / z,
                              np.broadcast_to(b, (z.shape[0],) + b.shape))
        out[start:start + z.shape[0]] = lti.C @ sol + lti.D
    return out


def transfer_eval(lti: LtiModel, z: complex) -> np.ndarray:
    """H(z) by direct linear solve (no series summation).

    Warns when |z| <= rho(A), which is outside the region of convergence
    |z| > rho(A) of this causal system; raises when z hits a pole, reporting
    the nearest eigenvalue.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("transfer function is undefined at z = 0")
    return _transfer_checked(lti, np.array([z]))[0]


def _transfer_checked(lti: LtiModel, zs: np.ndarray) -> np.ndarray:
    """:func:`_transfer_batch` behind one rho(A) check: warns once when some
    |z| <= rho(A), and turns a pole hit into a ValueError that names the
    offending z and the eigenvalue nearest to it."""
    rho = spectral_radius(lti.A)
    radius = float(np.abs(zs).min()) if zs.size else math.inf
    if radius <= rho:
        warnings.warn(
            f"|z| = {radius:.6g} is outside the region of convergence "
            f"|z| > rho(A) = {rho:.6g}", stacklevel=3)
    try:
        return _transfer_batch(lti, zs)
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvals(lti.A)
        gaps = np.abs(zs[:, None] - eigs[None, :])
        i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
        raise ValueError(
            f"z = {complex(zs[i])} hits a pole; nearest eigenvalue {eigs[j]}")


def impulse_kernel(lti: LtiModel, truncation: Optional[int] = None,
                   tail_tol: float = 1e-9) -> ImpulseKernel:
    """Kernel blocks h_k = C A^k B for k = 0..K by repeated multiplication.

    If ``truncation`` is omitted, K is chosen so the geometric tail bound
    c ||C|| ||B|| rho^{K+1} / (1 - rho) drops below ``tail_tol`` (requires
    rho(A) < 1).
    """
    a, b, c_mat = lti.A, lti.B, lti.C
    rho = spectral_radius(a)
    growth = _transient_growth(a, rho)
    norm_cb = np.linalg.norm(c_mat, 2) * np.linalg.norm(b, 2)

    if truncation is None:
        if rho >= 1.0:
            raise ValueError("automatic truncation needs rho(A) < 1")
        target = tail_tol * (1.0 - rho) / max(growth * norm_cb, 1e-300)
        if target >= 1.0:
            truncation = 0
        else:
            truncation = min(int(math.ceil(math.log(target) / math.log(rho))), 200_000)
    if truncation < 0:
        raise ValueError("truncation must be >= 0")

    blocks = np.empty((truncation + 1, lti.p, lti.m))
    x = b.copy()
    for k in range(truncation + 1):
        blocks[k] = c_mat @ x
        if k < truncation:
            x = a @ x
    if rho < 1.0:
        tail = growth * norm_cb * rho ** (truncation + 1) / (1.0 - rho)
    else:
        tail = np.inf
    return ImpulseKernel(blocks=blocks, truncation=truncation,
                         tail_bound=float(tail), growth_constant=growth)


def _transient_growth(a: np.ndarray, rho: float) -> float:
    """Empirical c = max_{k <= window} ||A^k||_2 / rho^k (c = 1 at k = 0)."""
    if rho == 0.0:
        return 1.0
    growth = 1.0
    power = np.eye(a.shape[0])
    for k in range(1, _GROWTH_WINDOW + 1):
        power = a @ power
        growth = max(growth, np.linalg.norm(power, 2) / rho ** k)
    return float(growth)


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

    try:
        min_wc, min_wo = gramians(lti).min_eigs
    except np.linalg.LinAlgError:
        raise
    except ValueError:                       # rho(A) >= 1
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

    rho(A) < 1 is checked once; then a uniform grid, evaluated by batched
    solves in chunks of ``_FREQ_CHUNK`` frequencies, locates the peak, and
    three golden-section contractions refine the bracket around the grid
    argmax.  Ties break toward the lowest frequency.
    """
    if grid_points < 64:
        raise ValueError("grid_points must be >= 64")
    if spectral_radius(lti.A) >= 1.0:
        raise ValueError("Hinf evaluation on the unit circle needs rho(A) < 1")
    omegas = np.linspace(0.0, np.pi, grid_points)

    def gains(omega) -> np.ndarray:
        h = _transfer_batch(lti, np.exp(1j * np.atleast_1d(omega)))
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
    return HinfEstimate(value=value, omega_peak=float(peak),
                        interval_width=float(b - a))


def output_psd(lti: LtiModel, input_psd: np.ndarray, omega) -> np.ndarray:
    """Output spectral density H(e^{j omega}) S_u H(e^{j omega})^* for a
    constant Hermitian PSD input density S_u.

    ``omega`` is a scalar, giving a (p, p) result, or an array of
    frequencies, giving ``omega.shape + (p, p)``; every frequency is
    evaluated by one batched solve behind one rho(A) check, and the
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
