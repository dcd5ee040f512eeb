"""Per-layer tracing of esnkit from outside the package.

:class:`Tracer` replaces every public function of the esnkit modules (and a
few named methods) with a timing wrapper, under every module attribute that
refers to it -- the defining module, the ``esnkit`` package, and each module
that imported the name (``from ._linalg import spectral_norm`` makes
``stability.spectral_norm`` a separate lookup).  Leaving the ``with`` block
puts every original object back, so code run outside it is untraced.

A span's *self time* is its duration minus the durations of the wrapped
calls it made.  Nothing inside esnkit changes; time spent in esnkit's private
helpers is charged to the public function that called them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

PACKAGE = "esnkit"

# Methods traced in addition to module-level functions: (module, class, method).
METHODS = (("lift", "Dictionary", "eval_batch"),)


def _horizon(arguments):
    return int(np.atleast_2d(np.asarray(arguments["inputs"])).shape[0])


# Time steps processed by one call, for the per-step metrics.
STEP_COUNTERS: Dict[str, Callable[[dict], int]] = {
    "core.simulate": _horizon,
    "identify.kalman_filter": _horizon,
    "identify.ekf_filter": _horizon,
    "identify.rts_smoother": lambda arguments: arguments["filtered"].horizon,
}

# Functions whose bound arguments are kept, for replaying their work.
RECORDED = ("core.simulate",)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    steps: int = 0


@dataclass
class Tracer:
    """Context manager that traces esnkit calls made inside its block."""

    stats: Dict[str, SpanStats] = field(default_factory=dict)
    records: Dict[str, List[dict]] = field(default_factory=dict)
    _patches: List[Tuple[object, str, object]] = field(
        default_factory=list, init=False, repr=False)
    _stack: List[float] = field(default_factory=list, init=False, repr=False)

    def __enter__(self) -> "Tracer":
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, fn in traced_functions().items()}
        for module in _esnkit_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patch(module, attr, wrappers[id(value)])
        for mod_name, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
            self._patch(cls, method, self._wrap(
                f"{mod_name}.{cls_name}.{method}", vars(cls)[method]))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        counter = STEP_COUNTERS.get(name)
        records = self.records.setdefault(name, []) if name in RECORDED else None
        signature = inspect.signature(fn) if (counter or records is not None) else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                if signature is not None:
                    arguments = signature.bind(*args, **kwargs).arguments
                    if counter is not None:
                        stats.steps += counter(arguments)
                    if records is not None:
                        records.append(arguments)

        return wrapper


def _esnkit_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def layer_name(module_name: str) -> str:
    """``esnkit._linalg`` -> ``linalg``: metric names start with a letter."""
    return module_name.split(".", 1)[1].lstrip("_")


def traced_functions() -> Dict[str, object]:
    """Public functions defined in each esnkit module, keyed ``layer.name``."""
    found = {}
    for module in _esnkit_modules():
        if module.__name__ == PACKAGE:
            continue
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                found[f"{layer_name(module.__name__)}.{attr}"] = value
    return found
