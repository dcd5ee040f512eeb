import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from esnkit import Activation, Readout, ReservoirParams, core, stability

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


def count_step_helpers(monkeypatch):
    """Count every later call of ``Activation.evaluate`` and ``_transition``
    (``core``'s, and the name ``stability`` binds to it) in the returned
    dict, keyed by name; a per-step loop that calls one shows a count
    growing with T."""
    counts = dict.fromkeys(("evaluate", "_transition"), 0)
    for owner, name in ((Activation, "evaluate"), (core, "_transition"),
                        (stability, "_transition")):
        def counted(*args, _inner=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return counts


def counts_by_horizon(counts, run, horizons=(50, 100)):
    """The growth of ``counts`` during ``run(T)`` for each T in ``horizons``."""
    growth = []
    for horizon in horizons:
        before = dict(counts)
        run(horizon)
        growth.append({k: counts[k] - before[k] for k in counts})
    return growth


@pytest.fixture
def small_reservoir():
    return make_reservoir()
