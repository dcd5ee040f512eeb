import logging
import math
import re

import numpy as np
import pytest

from esnkit import (Activation, ReservoirParams, Verdict, certify_lipschitz,
                    gamma_for_radius, input_scaling, jacobians_at,
                    make_normal_reservoir, make_sparse_reservoir,
                    spectral_radius, target_radius)


def test_design_chain_hits_target_radius_at_origin():
    # target_radius -> gamma_for_radius -> make_normal_reservoir must give a
    # small-signal state matrix at the origin with spectral radius exactly r*
    for seed in range(50):
        rng = np.random.default_rng(seed)
        pairs = int(rng.integers(0, 6))
        n = 2 + 2 * pairs
        r_star = target_radius(horizon=rng.uniform(2.0, 100.0))
        leak = rng.uniform(1.05 * (1.0 - r_star), 1.0)
        gamma, clipped = gamma_for_radius(r_star, leak, 1.0)
        assert not clipped
        # dominant real pole at gamma, the rest strictly inside it
        radii = gamma * np.concatenate(
            [[1.0], rng.uniform(0.1, 0.95, pairs + 1)])
        angles = np.concatenate(
            [[0.0, math.pi], rng.uniform(0.1, math.pi - 0.1, pairs)])
        w = make_normal_reservoir(n, radii, angles, seed=seed)
        params = ReservoirParams(W=w, U=rng.standard_normal((n, 1)),
                                 b=np.zeros(n), leak=leak,
                                 activation=Activation.tanh())
        lti = jacobians_at(params, np.zeros(n), np.zeros(1))
        assert abs(spectral_radius(lti.A) - r_star) <= 1e-12


# leak 0.5, slope 1: gamma = 2 (r* - 0.5), clipped above to 1/L_sigma - 1e-9
# and below to 1e-9
@pytest.mark.parametrize("r_star, l_sigma, bound", [
    pytest.param(0.99, 2.0, 0.5 - 1e-9, id="above"),
    pytest.param(0.5 + 1e-12, 1.0, 1e-9, id="below")])
def test_gamma_clip_reported_as_debug_event(caplog, r_star, l_sigma, bound):
    runs = []
    for level in (logging.WARNING, logging.DEBUG):
        with caplog.at_level(level, logger="esnkit.design"):
            runs.append(gamma_for_radius(r_star, 0.5, 1.0, l_sigma))
            gamma_for_radius(0.6, 0.5, 1.0, l_sigma)      # not clipped
    assert runs[0] == runs[1] == (bound, True)
    gamma = (r_star - (1.0 - 0.5)) / (0.5 * 1.0)
    assert [rec.getMessage() for rec in caplog.records
            if rec.name == "esnkit.design" and rec.levelno == logging.DEBUG] \
        == [f"design.gamma_clip gamma={gamma:.17g} bound={bound:.17g}"]


@pytest.mark.parametrize("l_sigma", [1.0, 2.5])
def test_sparse_reservoir_pattern_norm_and_seed(l_sigma):
    w = make_sparse_reservoir(40, 3, 0.9, l_sigma=l_sigma, seed=4)
    assert np.all(np.count_nonzero(w, axis=1) == 3)
    assert abs(np.linalg.norm(w, 2) - 0.9 / l_sigma) <= 1e-12
    assert np.array_equal(w, make_sparse_reservoir(40, 3, 0.9,
                                                   l_sigma=l_sigma, seed=4))
    assert not np.array_equal(w, make_sparse_reservoir(40, 3, 0.9,
                                                       l_sigma=l_sigma, seed=5))


@pytest.mark.parametrize("leak", [0.1, 0.5, 1.0])
def test_sparse_reservoir_passes_lipschitz_certificate(leak):
    # the docstring's claim: target_norm < 1 certifies for any leak
    n = 30
    w = make_sparse_reservoir(n, 5, 0.999, seed=8)
    params = ReservoirParams(W=w, U=np.ones((n, 1)), b=np.zeros(n), leak=leak,
                             activation=Activation.tanh())
    assert certify_lipschitz(params).verdict is Verdict.PASS


def test_input_scaling_hits_target_preactivation_variance():
    # a singular input covariance is allowed
    cov = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
    u = input_scaling(2.5, cov, 20, seed=3)
    assert u.shape == (20, 3)
    variances = np.einsum("im,mk,ik->i", u, cov, u)
    assert np.abs(variances - 2.5).max() <= 1e-12
    assert np.array_equal(input_scaling(0.0, cov, 20, seed=3),
                          np.zeros((20, 3)))
    with pytest.raises(ValueError, match="zero along a sampled row"):
        input_scaling(1.0, np.zeros((2, 2)), 5)


@pytest.mark.parametrize("call, match", [
    (lambda: target_radius(math.nan), "horizon"),
    (lambda: target_radius(math.inf), "horizon"),
    (lambda: gamma_for_radius(0.9, 0.5, math.nan), "slope"),
    (lambda: gamma_for_radius(0.9, 0.5, math.inf), "slope"),
    (lambda: gamma_for_radius(0.9, 0.5, 1.0, l_sigma=math.nan), "l_sigma"),
    (lambda: input_scaling(math.nan, np.eye(2), 3), "target_preact_var"),
    (lambda: input_scaling(math.inf, np.eye(2), 3), "target_preact_var"),
    (lambda: make_normal_reservoir(1, [0.5], [math.nan]), "angle"),
    (lambda: make_normal_reservoir(2, [0.5], [math.inf]), "angle"),
    (lambda: make_sparse_reservoir(4, 2, 0.9, l_sigma=math.nan), "l_sigma"),
    (lambda: make_sparse_reservoir(4, 2, 0.9, l_sigma=math.inf), "l_sigma"),
], ids=["radius-nan", "radius-inf", "slope-nan", "slope-inf", "l_sigma-nan",
        "scaling-nan", "scaling-inf", "angle-nan", "angle-inf",
        "sparse-l_sigma-nan", "sparse-l_sigma-inf"])
def test_rejects_nonfinite_scalars(call, match):
    # each returned instead: nan, a radius of 1.0, (nan, False), an
    # unclipped gamma, or a matrix of NaN (a zero matrix for the sparse
    # reservoir at l_sigma = inf)
    with pytest.raises(ValueError, match=match):
        call()


def test_input_scaling_with_no_inputs():
    assert np.array_equal(input_scaling(0.0, np.zeros((0, 0)), 3),
                          np.zeros((3, 0)))
    with pytest.raises(ValueError, match="zero along a sampled row"):
        input_scaling(1.0, np.zeros((0, 0)), 3)


@pytest.mark.parametrize("bad", [4.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("name, call", [
    ("n", lambda v: make_normal_reservoir(v, [0.5] * 4, [0.0] * 4)),
    ("n", lambda v: make_sparse_reservoir(v, 2, 0.9)),
    ("nnz_per_row", lambda v: make_sparse_reservoir(4, v, 0.9)),
    ("n", lambda v: input_scaling(1.0, np.eye(2), v)),
], ids=["normal-n", "sparse-n", "sparse-nnz_per_row", "scaling-n"])
def test_counts_must_be_integers(name, call, bad):
    # a float count leaked "'float' object cannot be interpreted as an
    # integer" from numpy, and True ran as 1
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got {bad}$"):
        call(bad)


@pytest.mark.parametrize("call, message", [
    (lambda: gamma_for_radius(1.0, 0.5, 1.0), "r_star must be in (0, 1)"),
    (lambda: gamma_for_radius(0.9, 0.0, 1.0), "leak must be in (0, 1]"),
    (lambda: gamma_for_radius(0.9, 0.5, 0.0),
     "slope and l_sigma must be positive and finite"),
    (lambda: gamma_for_radius(0.4, 0.5, 1.0),
     "target radius 0.4 unreachable at leak 0.5: the pure leak already "
     "decays slower (gamma would be <= 0)"),
    (lambda: make_normal_reservoir(2, [0.5, 0.5], [0.0]),
     "radii and angles must have equal length"),
    (lambda: make_normal_reservoir(1, [1.0], [0.0]),
     "pole radius must be in (0, 1), got 1.0"),
    (lambda: make_normal_reservoir(3, [0.5], [1.0]),
     "pole list consumes 2 dimensions but n = 3; real poles take one "
     "dimension, conjugate pairs two"),
    (lambda: make_sparse_reservoir(4, 5, 0.9), "nnz_per_row must be in 1..n"),
    (lambda: make_sparse_reservoir(4, 0, 0.9), "nnz_per_row must be >= 1, got 0"),
    (lambda: make_sparse_reservoir(4, 2, 1.0), "target_norm must be in (0, 1)"),
], ids=["r_star", "leak", "slope", "unreachable", "pole-lengths",
        "pole-radius", "pole-dimensions", "nnz-above-n", "nnz-zero",
        "target_norm"])
def test_design_argument_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
