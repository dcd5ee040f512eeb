"""The three benchmark workloads: input generation, one pipeline instance, and
the reference checks on its outputs.

A workload instance is one run of a north-star pipeline through esnkit's
public API.  The benchmark generates every array from an instance seed with
numpy and hands esnkit only those arrays.  Each step of an instance is one
*operation*; an operation fails when it raises, when a step it depends on
raised, or when its reference check (see :mod:`reference`) rejects the result.

Calls go through the ``esnkit`` package attributes at call time, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

import esnkit as esn

import reference as ref


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Tuple[str, ...]
    make_inputs: Callable[[int], dict]
    run: Callable[[dict, dict], None]
    check: Callable[[dict, dict], Dict[str, Optional[str]]]


def instance_seed(seed: int, index: int) -> int:
    """Seed of instance ``index`` in a run started with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _scale_to_norm(w: np.ndarray, norm: float) -> np.ndarray:
    return w * (norm / np.linalg.norm(w, 2))


def _close(got, want, rtol: float) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all(np.isfinite(got))
                and np.abs(got - want).max() <= rtol * max(1.0, np.abs(want).max()))


# ---------------------------------------------------------------------------
# analyze: design -> certify -> LTI surrogate analysis


def _relative_poles(rng, n):
    """Pole radii relative to the design radius gamma, and pole angles: the
    dominant real pole at gamma, a second real pole, then conjugate pairs.
    The non-dominant radii lie log-uniformly in [0.25, 0.9] * gamma."""
    pairs = (n - 2) // 2
    radii = np.concatenate([[1.0], np.exp(rng.uniform(math.log(0.25),
                                                      math.log(0.9), pairs + 1))])
    angles = np.concatenate([[0.0, math.pi],
                             rng.uniform(0.1, math.pi - 0.1, pairs)])
    return radii, angles


def analyze_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n, m, p, n_small, horizon = 32, 2, 2, 10, 200
    leak = rng.uniform(0.3, 0.7)
    memory = rng.uniform(10.0, 40.0)
    cov = np.diag(rng.uniform(0.5, 2.0, m))
    radii, angles = _relative_poles(rng, n)
    return dict(
        n=n, leak=leak, memory=memory, input_cov=cov,
        rel_radii=radii, angles=angles,
        design_seed=int(rng.integers(2 ** 31)), b=0.1 * rng.standard_normal(n),
        W_small=_scale_to_norm(rng.standard_normal((n_small, n_small)),
                               rng.uniform(0.6, 0.9)),
        U_small=rng.standard_normal((n_small, m)),
        C=rng.standard_normal((p, n)) / math.sqrt(n),
        inputs=rng.standard_normal((horizon, m)) @ np.sqrt(cov),
        amplitude=3.0, tolerance=1e-3)


def analyze_run(x: dict, out: dict) -> None:
    r_star = esn.target_radius(horizon=x["memory"])
    gamma, _ = esn.gamma_for_radius(r_star, x["leak"], 1.0)
    w = esn.make_normal_reservoir(x["n"], gamma * x["rel_radii"], x["angles"],
                                  seed=x["design_seed"])
    u = esn.input_scaling(0.5, x["input_cov"], x["n"], seed=x["design_seed"] + 1)
    params = out["design"] = esn.ReservoirParams(
        W=w, U=u, b=x["b"], leak=x["leak"], activation=esn.Activation.tanh())
    small = esn.ReservoirParams(W=x["W_small"], U=x["U_small"],
                                b=np.zeros(x["W_small"].shape[0]), leak=x["leak"])
    out["certify_lipschitz"] = esn.certify_lipschitz(params)
    out["certify_weighted"] = esn.certify_weighted(params, vertex_budget=1024)
    input_gain = params.leak * float(np.linalg.norm(params.U, 2))
    out["memory_horizon"] = esn.memory_horizon(
        out["certify_lipschitz"].kappa, input_gain, x["amplitude"],
        x["tolerance"])
    out["certify_weighted_exhaustive"] = esn.certify_weighted(
        small, vertex_budget=1024)
    readout = esn.Readout(C=x["C"])
    traj = out["simulate"] = esn.simulate(params, np.zeros(params.n),
                                          x["inputs"], readout)
    lti = out["jacobians_at"] = esn.jacobians_at(
        params, traj.states[-1], traj.inputs[-1], readout)
    out["impulse_kernel"] = esn.impulse_kernel(lti)
    out["gramians"] = esn.gramians(lti)
    out["h2_norm"] = esn.h2_norm(lti)
    out["hinf_norm_grid"] = esn.hinf_norm_grid(lti)
    out["ctrb_obsv_rank"] = esn.ctrb_obsv_rank(lti)
    out["modal"] = esn.modal(lti)


def analyze_check(x: dict, out: dict) -> Dict[str, Optional[str]]:
    errors: Dict[str, Optional[str]] = {}
    params = out.get("design")
    if params is not None:
        radius = float(np.abs(np.linalg.eigvals(
            (1.0 - params.leak) * np.eye(x["n"]) + params.leak * params.W)).max())
        r_star = math.exp(-1.0 / x["memory"])
        if abs(radius - r_star) > 1e-10:
            errors["design"] = f"rho at origin {radius!r} != r* {r_star!r}"
    if "certify_lipschitz" in out:
        cert = out["certify_lipschitz"]
        kappa, err = ref.lipschitz_kappa(params.W, params.leak, 1.0)
        if cert.kappa < kappa - err:
            errors["certify_lipschitz"] = (
                f"kappa {cert.kappa!r} below the SVD bound {kappa!r}")
        elif cert.passed != (kappa < 1.0):
            errors["certify_lipschitz"] = f"verdict {cert.verdict} for kappa {kappa!r}"
    if "certify_weighted" in out:
        cert = out["certify_weighted"]
        # sampled vertices cannot prove a Pass; a Fail must report kappa >= 1
        if (cert.verdict is esn.Verdict.PASS
                or (cert.verdict is esn.Verdict.UNKNOWN) != (0.0 < cert.kappa < 1.0)):
            errors["certify_weighted"] = (
                f"sampled check gave {cert.verdict} at kappa {cert.kappa!r}")
    if "memory_horizon" in out:
        h = out["memory_horizon"]
        decay = h.input_gain * h.amplitude / h.tolerance
        late = decay * h.kappa ** h.horizon
        early = decay * h.kappa ** (h.horizon - 1)
        if late > 1.0 + 1e-12 or (h.horizon > 0 and early <= 1.0 - 1e-12):
            errors["memory_horizon"] = f"horizon {h.horizon} is not the least lag"
    if "certify_weighted_exhaustive" in out:
        cert = out["certify_weighted_exhaustive"]
        if cert.verdict is not esn.Verdict.PASS:
            errors["certify_weighted_exhaustive"] = f"verdict {cert.verdict}"
        else:
            p = cert.weight_P
            scale = cert.kappa ** 2 * float(np.abs(p).max())
            gap = ref.vertex_gap_max(x["W_small"], x["leak"], 1.0, p, cert.kappa)
            if float(np.linalg.eigvalsh(p).min()) <= 0.0 or gap > 1e-10 * scale:
                errors["certify_weighted_exhaustive"] = (
                    f"vertex inequality violated by {gap!r}")
    if "simulate" in out:
        states = ref.leaky_rollout(params.W, params.U, params.b, params.leak,
                                   np.tanh, np.zeros((1, params.n)),
                                   x["inputs"][None])[0]
        if not _close(out["simulate"].states, states, 1e-10):
            errors["simulate"] = "states differ from the reference loop"
    lti = out.get("jacobians_at")
    if lti is not None:
        traj = out["simulate"]
        xi = params.W @ traj.states[-1] + params.U @ traj.inputs[-1] + params.b
        slope = 1.0 - np.tanh(xi) ** 2
        a = (1.0 - params.leak) * np.eye(params.n) + params.leak * slope[:, None] * params.W
        if not (_close(lti.A, a, 1e-13)
                and _close(lti.B, params.leak * slope[:, None] * params.U, 1e-13)):
            errors["jacobians_at"] = "Jacobians differ from the closed form"
    if "impulse_kernel" in out:
        kern = out["impulse_kernel"]
        blocks = ref.impulse_blocks(lti.A, lti.B, lti.C, len(kern))
        if not (_close(kern.blocks, blocks, 1e-12) and np.isfinite(kern.tail_bound)):
            errors["impulse_kernel"] = "kernel blocks differ from C A^k B"
    if "gramians" in out:
        g = out["gramians"]
        res_c = ref.lyapunov_residual(lti.A, lti.B @ lti.B.T, g.W_c)
        res_o = ref.lyapunov_residual(lti.A.T, lti.C.T @ lti.C, g.W_o)
        if not max(res_c, res_o) <= 1e-10:
            errors["gramians"] = f"Lyapunov residuals {res_c!r}, {res_o!r}"
    if "h2_norm" in out:
        energy = float(np.sum(blocks * blocks))
        if abs(out["h2_norm"] ** 2 - energy) > 1e-6 * energy:
            errors["h2_norm"] = f"H2^2 {out['h2_norm'] ** 2!r} != kernel energy {energy!r}"
    if "hinf_norm_grid" in out:
        best = ref.grid_gain_max(lti.A, lti.B, lti.C, 512)
        if not out["hinf_norm_grid"].value >= best * (1.0 - 1e-10):
            errors["hinf_norm_grid"] = (
                f"Hinf {out['hinf_norm_grid'].value!r} below grid max {best!r}")
    if "ctrb_obsv_rank" in out:
        rank = out["ctrb_obsv_rank"]
        ctrb, obsv = [lti.B], [lti.C]
        for _ in range(lti.n - 1):
            ctrb.append(lti.A @ ctrb[-1])
            obsv.append(obsv[-1] @ lti.A)
        ctrb, obsv = np.hstack(ctrb), np.vstack(obsv)

        def num_rank(mat):
            s = np.linalg.svd(mat, compute_uv=False)
            return int(np.sum(s >= 1e-10 * s[0]))
        if (rank.rank_c, rank.rank_o) != (num_rank(ctrb), num_rank(obsv)):
            errors["ctrb_obsv_rank"] = (
                f"ranks {rank.rank_c, rank.rank_o} != "
                f"{num_rank(ctrb), num_rank(obsv)}")
    if "modal" in out:
        mod = out["modal"]
        h = ref.impulse_blocks(lti.A, lti.B, lti.C, 6)
        recon = np.array([mod.reconstruct(k) for k in range(6)])
        if not _close(recon, h, 1e-9 * mod.eigvec_cond):
            errors["modal"] = "modal reconstruction differs from C A^k B"
    return errors


ANALYZE = Workload(
    name="analyze",
    ops=("design", "certify_lipschitz", "certify_weighted",
         "memory_horizon", "certify_weighted_exhaustive", "simulate",
         "jacobians_at", "impulse_kernel", "gramians", "h2_norm",
         "hinf_norm_grid", "ctrb_obsv_rank", "modal"),
    make_inputs=analyze_inputs, run=analyze_run, check=analyze_check)


# ---------------------------------------------------------------------------
# identify: noisy LTI data -> Kalman / RTS -> structured EM -> subspace -> readout

_PREFIX = 30        # length of the prefix checked against dense conditioning


def identify_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n, m, p, horizon = 16, 1, 2, 2000
    leak = rng.uniform(0.3, 0.7)
    leak0 = float(np.clip(leak * rng.uniform(0.7, 1.3), 0.05, 1.0))
    w = _scale_to_norm(rng.standard_normal((n, n)), rng.uniform(0.7, 0.95))
    u_mat = rng.standard_normal((n, m))
    q, r = 1e-3, 1e-2
    return dict(
        n=n, leak=leak, W=w, U=u_mat, C=rng.standard_normal((p, n)) / math.sqrt(n),
        Q=q * np.eye(n), R=r * np.eye(p),
        inputs=rng.standard_normal((horizon, m)),
        noise_seeds=tuple(int(s) for s in rng.integers(2 ** 31, size=2)),
        A0=(1.0 - leak0) * np.eye(n) + leak0 * rng.uniform(0.7, 1.1) * w,
        B0=leak * u_mat + 0.1 * rng.standard_normal((n, m)),
        Q0=3.0 * q * np.eye(n), R0=3.0 * r * np.eye(p),
        prior=(np.zeros(n), 1e-2 * np.eye(n)))


def identify_run(x: dict, out: dict) -> None:
    params = esn.ReservoirParams(W=x["W"], U=x["U"], b=np.zeros(x["n"]),
                                 leak=x["leak"],
                                 activation=esn.Activation.identity())
    readout = esn.Readout(C=x["C"])
    traj = out["simulate"] = esn.simulate(
        params, np.zeros(x["n"]), x["inputs"], readout,
        process_noise=(x["Q"], x["noise_seeds"][0]),
        measurement_noise=(x["R"], x["noise_seeds"][1]))
    lti = esn.jacobians_at(params, np.zeros(x["n"]), np.zeros(1), readout)
    noise = esn.NoiseModel(Q=x["Q"], R=x["R"])
    filt = out["kalman_filter"] = esn.kalman_filter(
        lti, noise, traj.inputs, traj.outputs, x["prior"])
    smooth = out["rts_smoother"] = esn.rts_smoother(filt, lti, noise)
    start = esn.LtiModel(A=x["A0"], B=x["B0"], C=x["C"], D=np.zeros((2, 1)))
    out["em_run"] = esn.em_run(
        start, esn.NoiseModel(Q=x["Q0"], R=x["R0"]), traj.inputs, traj.outputs,
        x["prior"], structure=esn.StructuredBasis(x["W"]), max_iters=5,
        rel_tol=0.0)
    out["subspace_shape"] = esn.subspace_shape(
        x["n"], esn.StructuredBasis(x["W"]), inputs=traj.inputs,
        outputs=traj.outputs)
    out["readout_ml"] = esn.readout_ml(smooth, traj.outputs)


def _true_lti(x):
    a = (1.0 - x["leak"]) * np.eye(x["n"]) + x["leak"] * x["W"]
    return a, x["leak"] * x["U"]


def identify_check(x: dict, out: dict) -> Dict[str, Optional[str]]:
    errors: Dict[str, Optional[str]] = {}
    a, b = _true_lti(x)
    traj = out.get("simulate")
    if traj is not None:
        w = traj.states[1:] - traj.states[:-1] @ a.T - traj.inputs @ b.T
        v = traj.outputs - traj.states[1:] @ x["C"].T
        ratio_w = np.trace(np.cov(w.T)) / np.trace(x["Q"])
        ratio_v = np.trace(np.cov(v.T)) / np.trace(x["R"])
        if not (abs(ratio_w - 1.0) < 0.2 and abs(ratio_v - 1.0) < 0.2):
            errors["simulate"] = f"noise power ratios {ratio_w!r}, {ratio_v!r}"
    if traj is not None and ("kalman_filter" in out or "rts_smoother" in out):
        u, y = traj.inputs[:_PREFIX], traj.outputs[:_PREFIX]
        means, loglik = ref.gaussian_conditioning(
            a, b, x["C"], x["Q"], x["R"], *x["prior"], u, y)
        if "kalman_filter" in out and not _close(
                out["kalman_filter"].filtered_means[_PREFIX], means[-1], 1e-8):
            errors["kalman_filter"] = "filtered mean differs from conditioning"
        if "rts_smoother" in out:
            lti = esn.LtiModel(A=a, B=b, C=x["C"], D=np.zeros((2, 1)))
            noise = esn.NoiseModel(Q=x["Q"], R=x["R"])
            post = esn.rts_smoother(
                esn.kalman_filter(lti, noise, u, y, x["prior"]), lti, noise)
            if not (_close(post.smoothed_means, means, 1e-8)
                    and abs(post.loglik - loglik) <= 1e-9 * abs(loglik)):
                errors["rts_smoother"] = "smoothed prefix differs from conditioning"
    if "em_run" in out:
        em = out["em_run"]
        theta = em.theta
        kappa = ((1.0 - theta.lam) + theta.lam * theta.alpha
                 * float(np.linalg.norm(x["W"], 2)))
        if not (em.iterations == 5 and np.all(np.isfinite(em.loglik_trace))
                and theta.feasible and kappa < 1.0
                and _close(em.lti.A, theta.A, 1e-14)):
            errors["em_run"] = f"EM ended infeasible or non-finite (kappa {kappa!r})"
    if "subspace_shape" in out:
        sub = out["subspace_shape"]
        kappa = ((1.0 - sub.theta.lam) + sub.theta.lam * sub.theta.alpha
                 * float(np.linalg.norm(x["W"], 2)))
        if sub.certificate.passed != (sub.theta.feasible and kappa < 1.0):
            errors["subspace_shape"] = (
                f"verdict {sub.certificate.verdict} for kappa {kappa!r}")
    if "readout_ml" in out:
        post = out["rts_smoother"]
        xs, covs = post.smoothed_means[1:], post.smoothed_covs[1:]
        xc = xs - xs.mean(axis=0)
        yc = traj.outputs - traj.outputs.mean(axis=0)
        c = np.linalg.solve(xc.T @ xc + covs.sum(axis=0), xc.T @ yc).T
        ro = out["readout_ml"]
        d = traj.outputs.mean(axis=0) - c @ xs.mean(axis=0)
        if not (_close(ro.C, c, 1e-8) and _close(ro.d, d, 1e-8)):
            errors["readout_ml"] = "readout differs from the normal equations"
    return errors


IDENTIFY = Workload(
    name="identify",
    ops=("simulate", "kalman_filter", "rts_smoother", "em_run",
         "subspace_shape", "readout_ml"),
    make_inputs=identify_inputs, run=identify_run, check=identify_check)


# ---------------------------------------------------------------------------
# nonlinear: ensemble simulation -> LTV linearization -> EKF -> EDMD lift

_ROLLOUT = 200


def nonlinear_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n, m, p, batch, horizon, noisy = 16, 2, 2, 16, 1000, 2000
    w = rng.standard_normal((n, n))
    w *= rng.uniform(0.8, 0.95) / np.abs(np.linalg.eigvals(w)).max()
    return dict(
        n=n, leak=rng.uniform(0.4, 0.9), W=w,
        U=0.5 * rng.standard_normal((n, m)), b=0.1 * rng.standard_normal(n),
        C=rng.standard_normal((p, n)) / math.sqrt(n), d=rng.standard_normal(p),
        x0s=0.1 * rng.standard_normal((batch, n)),
        inputs=rng.standard_normal((batch, horizon, m)),
        noisy_inputs=rng.standard_normal((noisy, m)),
        Q=1e-4 * np.eye(n), R=1e-2 * np.eye(p),
        noise_seeds=tuple(int(s) for s in rng.integers(2 ** 31, size=2)),
        prior=(np.zeros(n), 1e-2 * np.eye(n)),
        dict_seed=int(rng.integers(2 ** 31)), ridge=1e-6)


def nonlinear_run(x: dict, out: dict) -> None:
    params = esn.ReservoirParams(W=x["W"], U=x["U"], b=x["b"], leak=x["leak"],
                                 activation=esn.Activation.tanh())
    readout = esn.Readout(C=x["C"], d=x["d"])
    ensemble = out["simulate"] = [esn.simulate(params, x0, u)
                                  for x0, u in zip(x["x0s"], x["inputs"])]
    out["linearize_trajectory"] = esn.linearize_trajectory(
        params, ensemble[0], readout)
    noisy = out["simulate_noisy"] = esn.simulate(
        params, np.zeros(x["n"]), x["noisy_inputs"], readout,
        process_noise=(x["Q"], x["noise_seeds"][0]),
        measurement_noise=(x["R"], x["noise_seeds"][1]))
    out["ekf_filter"] = esn.ekf_filter(
        params, readout, esn.NoiseModel(Q=x["Q"], R=x["R"]), noisy.inputs,
        noisy.outputs, x["prior"])
    model = out["edmd_fit"] = esn.edmd_fit(
        params, ensemble, esn.Dictionary.random_fourier(128, 2.0, x["dict_seed"]),
        ridge=x["ridge"])
    out["lifted_rollout_error"] = esn.lifted_rollout_error(
        model, params, ensemble[0], _ROLLOUT)


def _step(x, states, inputs):
    return (1.0 - x["leak"]) * states + x["leak"] * np.tanh(
        states @ x["W"].T + inputs @ x["U"].T + x["b"])


def nonlinear_check(x: dict, out: dict) -> Dict[str, Optional[str]]:
    errors: Dict[str, Optional[str]] = {}
    lam, w = x["leak"], x["W"]
    if "simulate" in out:
        want = ref.leaky_rollout(w, x["U"], x["b"], lam, np.tanh, x["x0s"],
                                 x["inputs"])
        got = np.stack([traj.states for traj in out["simulate"]])
        if not _close(got, want, 1e-10):
            errors["simulate"] = "ensemble states differ from the reference loop"
    if "linearize_trajectory" in out:
        ltv = out["linearize_trajectory"]
        traj = out["simulate"][0]
        ok = len(ltv) == traj.horizon
        for t in (0, traj.horizon // 2, traj.horizon - 1):
            xi = w @ traj.states[t] + x["U"] @ traj.inputs[t] + x["b"]
            slope = 1.0 - np.tanh(xi) ** 2
            a = (1.0 - lam) * np.eye(x["n"]) + lam * slope[:, None] * w
            ok = ok and _close(ltv.A_seq[t], a, 1e-13) and _close(
                ltv.B_seq[t], lam * slope[:, None] * x["U"], 1e-13)
        if not ok:
            errors["linearize_trajectory"] = "Jacobians differ from the closed form"
    noisy = out.get("simulate_noisy")
    if noisy is not None:
        resid = noisy.states[1:] - _step(x, noisy.states[:-1], noisy.inputs)
        ratio = np.trace(np.cov(resid.T)) / np.trace(x["Q"])
        if not abs(ratio - 1.0) < 0.2:
            errors["simulate_noisy"] = f"process noise power ratio {ratio!r}"
    if "ekf_filter" in out:
        post = out["ekf_filter"]
        mu0, p0 = x["prior"]
        xi = w @ mu0 + x["U"] @ noisy.inputs[0] + x["b"]
        slope = 1.0 - np.tanh(xi) ** 2
        a = (1.0 - lam) * np.eye(x["n"]) + lam * slope[:, None] * w
        mean = (1.0 - lam) * mu0 + lam * np.tanh(xi)
        cov = a @ p0 @ a.T + x["Q"]
        s = x["C"] @ cov @ x["C"].T + x["R"]
        gain = cov @ x["C"].T @ np.linalg.inv(s)
        mean = mean + gain @ (noisy.outputs[0] - x["C"] @ mean - x["d"])
        cov = cov - gain @ s @ gain.T
        if not (_close(post.filtered_means[1], mean, 1e-10)
                and _close(post.filtered_covs[1], cov, 1e-10)
                and np.isfinite(post.loglik)
                and np.all(np.isfinite(post.filtered_means))):
            errors["ekf_filter"] = "first EKF step differs from the hand formula"
    if "edmd_fit" in out:
        model = out["edmd_fit"]
        # the ensemble states were checked above, so phi(x_{t+1}) is phi(f(x_t, u_t))
        phi = [model.dictionary.eval_batch(traj.states) for traj in out["simulate"]]
        inputs = x["inputs"].reshape(-1, x["inputs"].shape[2])
        regress = np.hstack([np.concatenate([f[:-1] for f in phi]), inputs])
        targets = np.concatenate([f[1:] for f in phi])
        coeffs = np.hstack([model.A_phi, model.B_phi]).T
        resid = targets - regress @ coeffs
        grad = regress.T @ resid - x["ridge"] * coeffs
        scale = np.abs(regress.T @ targets).max()
        eps = float(np.linalg.norm(resid, axis=1).max())
        if not (np.abs(grad).max() <= 1e-7 * scale
                and abs(eps - model.epsilon) <= 1e-8 * eps):
            errors["edmd_fit"] = "coefficients miss the normal equations"
    if "lifted_rollout_error" in out:
        disc, bound = out["lifted_rollout_error"]
        if not (len(disc) == _ROLLOUT and np.all(np.isfinite(disc))
                and disc[0] <= out["edmd_fit"].epsilon * (1.0 + 1e-9)
                and np.all(np.diff(bound) >= 0.0)):
            errors["lifted_rollout_error"] = "first-step error exceeds epsilon"
    return errors


NONLINEAR = Workload(
    name="nonlinear",
    ops=("simulate", "linearize_trajectory", "simulate_noisy", "ekf_filter",
         "edmd_fit", "lifted_rollout_error"),
    make_inputs=nonlinear_inputs, run=nonlinear_run, check=nonlinear_check)


WORKLOADS = {w.name: w for w in (ANALYZE, IDENTIFY, NONLINEAR)}


def run_instance(workload: Workload, inputs: dict) -> dict:
    """Run one instance; operations after one that raised are left out."""
    out: dict = {}
    try:
        workload.run(inputs, out)
    except Exception as exc:        # a raising operation is a counted failure
        out["_error"] = f"{type(exc).__name__}: {exc}"
    return out


def failures(workload: Workload, inputs: dict, out: dict) -> Dict[str, str]:
    """Failed operations of one instance, each with the reason."""
    failed = {op: "not reached: " + out.get("_error", "")
              for op in workload.ops if op not in out}
    try:
        checked = workload.check(inputs, out)
    except Exception as exc:        # a check that raises fails every operation
        return {op: f"check raised {type(exc).__name__}: {exc}"
                for op in workload.ops}
    failed.update({op: msg for op, msg in checked.items() if msg is not None})
    return failed
