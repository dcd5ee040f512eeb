"""Fast tests of the benchmark itself (about three seconds in all)."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import esnkit
import run
import workloads as wl
from tracer import Tracer, traced_functions

HERE = Path(__file__).resolve().parent


def _flatten(obj):
    """Bytes of every array and number reachable from ``obj``, in order."""
    if dataclasses.is_dataclass(obj):
        return b"".join(_flatten(getattr(obj, f.name))
                        for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return b"".join(k.encode() + _flatten(v) for k, v in sorted(obj.items()))
    if isinstance(obj, (list, tuple)):
        return b"".join(_flatten(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return obj.tobytes()
    return repr(obj).encode()


@pytest.fixture(scope="module")
def nonlinear_run():
    inputs = wl.NONLINEAR.make_inputs(wl.instance_seed(7, 1))
    return inputs, wl.run_instance(wl.NONLINEAR, inputs)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs(workload):
    make = wl.WORKLOADS[workload].make_inputs
    assert _flatten(make(wl.instance_seed(3, 2))) == _flatten(make(wl.instance_seed(3, 2)))
    assert _flatten(make(wl.instance_seed(3, 2))) != _flatten(make(wl.instance_seed(4, 2)))


def test_same_seed_same_outputs(nonlinear_run):
    inputs, out = nonlinear_run
    again = wl.run_instance(wl.NONLINEAR, wl.NONLINEAR.make_inputs(wl.instance_seed(7, 1)))
    assert "_error" not in out
    assert _flatten(out) == _flatten(again)
    assert wl.failures(wl.NONLINEAR, inputs, out) == {}


def _attributes():
    mods = [m for name, m in sys.modules.items()
            if m is not None and name.split(".")[0] == "esnkit"]
    snapshot = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snapshot[("lift", "eval_batch")] = vars(esnkit.Dictionary)["eval_batch"]
    return snapshot


def test_tracer_restores_every_attribute():
    before = _attributes()
    lti = esnkit.LtiModel(A=0.5 * np.eye(3), B=np.ones((3, 1)),
                          C=np.ones((1, 3)), D=np.zeros((1, 1)))
    with Tracer() as tracer:
        assert esnkit.stability.solve_discrete_lyapunov is not \
            before[("esnkit.stability", "solve_discrete_lyapunov")]
        esnkit.h2_norm(lti)
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    stats = tracer.stats
    assert stats["freq.h2_norm"].calls == 1
    assert stats["freq.gramians"].calls == 1
    assert stats["linalg.solve_discrete_lyapunov"].calls == 2
    top = stats["freq.h2_norm"].total_s
    assert sum(st.self_s for st in stats.values()) == pytest.approx(top, rel=1e-9)
    esnkit.h2_norm(lti)                 # untraced now: counts stay put
    assert stats["freq.h2_norm"].calls == 1


def test_tracer_covers_imported_linalg_names():
    names = traced_functions()
    assert names["linalg.spectral_norm"] is esnkit._linalg.spectral_norm
    with Tracer() as tracer:
        for module in (esnkit.stability, esnkit.identify, esnkit.design):
            module.spectral_norm(np.eye(2))
        esnkit.freq.solve_discrete_lyapunov(0.5 * np.eye(2), np.eye(2))
    assert tracer.stats["linalg.spectral_norm"].calls == 3
    assert tracer.stats["linalg.solve_discrete_lyapunov"].calls == 1


def test_corrupted_results_count_as_failures(nonlinear_run):
    inputs, out = nonlinear_run
    bad = dict(out)
    traj = out["simulate"][3]
    states = traj.states.copy()
    states[500, 2] += 1e-6
    bad["simulate"] = list(out["simulate"])
    bad["simulate"][3] = dataclasses.replace(traj, states=states)
    post = out["ekf_filter"]
    bad["ekf_filter"] = dataclasses.replace(
        post, filtered_means=post.filtered_means * (1.0 + 1e-8))
    assert set(wl.failures(wl.NONLINEAR, inputs, bad)) == {"simulate", "ekf_filter"}


def test_undershooting_lipschitz_kappa_fails_and_missing_ops_count():
    inputs = wl.ANALYZE.make_inputs(wl.instance_seed(1, 0))
    r_star = esnkit.target_radius(horizon=inputs["memory"])
    gamma, _ = esnkit.gamma_for_radius(r_star, inputs["leak"], 1.0)
    w = esnkit.make_normal_reservoir(inputs["n"], gamma * inputs["rel_radii"],
                                     inputs["angles"], seed=inputs["design_seed"])
    params = esnkit.ReservoirParams(W=w, U=np.ones((inputs["n"], 2)),
                                    b=inputs["b"], leak=inputs["leak"])
    cert = esnkit.certify_lipschitz(params)
    out = {"design": params, "certify_lipschitz": cert}
    assert "certify_lipschitz" not in wl.failures(wl.ANALYZE, inputs, out)
    out["certify_lipschitz"] = dataclasses.replace(cert, kappa=cert.kappa - 1e-12)
    failed = wl.failures(wl.ANALYZE, inputs, out)
    assert "certify_lipschitz" in failed
    assert set(failed) == set(wl.ANALYZE.ops) - {"design"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "nonlinear", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = {f"{span}.{stat}": unit for span, stat, unit in run.LAYER_METRICS}
    layer.update(run.RUN_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
