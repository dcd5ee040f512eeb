import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from esnkit import Activation, Readout, ReservoirParams

# Every property test runs the same examples on every run and has no
# per-example deadline; each test sets only its own ``max_examples``.
settings.register_profile("esnkit", deadline=None, derandomize=True)
settings.load_profile("esnkit")


def make_reservoir(n=4, m=2, seed=0, leak=0.7, w_scale=0.8,
                   activation=None, bias_scale=0.0):
    """Seeded reservoir with ||W|| = w_scale (so the Lipschitz certificate is
    exactly (1 - leak) + leak * w_scale for unit-slope activations)."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, n))
    w *= w_scale / np.linalg.norm(w, 2)
    u = rng.standard_normal((n, m)) / np.sqrt(m)
    b = bias_scale * rng.standard_normal(n)
    return ReservoirParams(W=w, U=u, b=b, leak=leak,
                           activation=activation or Activation.tanh())


def make_readout(n=4, p=2, seed=1):
    rng = np.random.default_rng(seed)
    return Readout(C=rng.standard_normal((p, n)), d=rng.standard_normal(p))


def traced_peak_mib(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the tracemalloc peak of the call in MiB."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.fixture
def small_reservoir():
    return make_reservoir()
