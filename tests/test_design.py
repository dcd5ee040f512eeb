import math

import numpy as np

from esnkit import (Activation, ReservoirParams, gamma_for_radius,
                    jacobians_at, make_normal_reservoir, spectral_radius,
                    target_radius)


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
