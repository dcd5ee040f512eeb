"""esnkit benchmark: closed-loop batch workloads through the public API.

    python3 bench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

One caller in one process runs pipeline instances of the chosen workload back
to back, each on inputs generated from ``--seed``, for ``--seconds`` seconds,
and checks every output against a reference.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced instances
and reports the per-layer metrics.  ``--workload all`` runs every workload in
turn.  The last line of standard output is the JSON result; the lines before
it give the run record and every metric by name, with its unit and sample
count.  See README.md in this directory.
"""

from __future__ import annotations

import time

_START = time.perf_counter()            # set-up is timed from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = 1
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3        # this process plus two fresh processes
SETUP_TIMEOUT_S = 60
WORKLOAD_NAMES = ("analyze", "identify", "nonlinear")

# Per-layer metrics, as (trace name, statistic, unit); see README.md for the
# end-to-end metric and workload each one should move.
LAYER_METRICS = (
    ("linalg.solve_discrete_lyapunov", "self_s", "s"),
    ("linalg.solve_discrete_lyapunov", "calls", "count"),
    ("linalg.spectral_norm", "self_s", "s"),
    ("linalg.spectral_norm", "calls", "count"),
    ("linalg.symmetrize", "self_s", "s"),
    ("stability.certify_weighted", "self_s", "s"),
    ("stability.spectral_radius", "calls", "count"),
    ("stability.spectral_radius", "self_s", "s"),
    ("freq.transfer_eval", "calls", "count"),
    ("freq.transfer_eval", "us_per_call", "us"),
    ("freq.hinf_norm_grid", "self_s", "s"),
    ("freq.gramians", "self_s", "s"),
    ("freq.h2_norm", "self_s", "s"),
    ("freq.ctrb_obsv_rank", "self_s", "s"),
    ("freq.impulse_kernel", "self_s", "s"),
    ("core.simulate", "self_s", "s"),
    ("core.simulate", "steps", "count"),
    ("core.simulate", "us_per_step", "us"),
    ("core.reservoir_step", "self_s", "s"),
    ("core.activation_eval", "self_s", "s"),
    ("linearize.linearize_trajectory", "self_s", "s"),
    ("linearize.jacobians_at", "calls", "count"),
    ("linearize.jacobians_at", "self_s", "s"),
    ("identify.kalman_filter", "self_s", "s"),
    ("identify.kalman_filter", "steps", "count"),
    ("identify.kalman_filter", "us_per_step", "us"),
    ("identify.rts_smoother", "self_s", "s"),
    ("identify.rts_smoother", "us_per_step", "us"),
    ("identify.em_step", "calls", "count"),
    ("identify.em_step", "self_s", "s"),
    ("identify.ekf_filter", "self_s", "s"),
    ("identify.ekf_filter", "us_per_step", "us"),
    ("identify.subspace_shape", "self_s", "s"),
    ("lift.edmd_fit", "self_s", "s"),
    ("lift.Dictionary.eval_batch", "self_s", "s"),
    ("lift.lifted_rollout_error", "self_s", "s"),
)
# End-to-end metrics in BENCHMARK.json.  The timings there are corrected for
# the machine's speed with SpeedProbe: instance timings are in probe units and
# setup_s is in seconds at the reference probe speed.  The plain wall-clock
# forms are printed too, as EXTRA_END_TO_END.
END_TO_END = (
    ("setup_s", "s"),
    ("instance_rel_p50", "probe"),
    ("throughput_rel", "1/probe"),
    ("peak_mem_mb", "MiB"),
)
EXTRA_END_TO_END = (
    ("setup_wall_s", "s"),
    ("instance_s_p50", "s"),
    ("instances_per_s", "1/s"),
    ("probe_s_p50", "s"),
)
# Per-layer metrics computed from the whole traced run, as (name, unit).
RUN_METRICS = (
    ("core.bare_loop.us_per_step", "us"),
    ("trace.instance_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.coverage", "fraction"),
)


def _pin_blas() -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _load():
    """Import esnkit from this checkout's ``src`` (never an installed copy)."""
    if not (SRC / "esnkit" / "__init__.py").is_file():
        sys.exit(f"error: esnkit sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import esnkit
    if Path(esnkit.__file__).resolve().parent != SRC / "esnkit":
        sys.exit(f"error: imported esnkit from {esnkit.__file__}, not {SRC}")
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# run record


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def run_record(seed: int, trace: bool) -> dict:
    import numpy as np
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "esnkit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size")
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2_cache": caches.get("L2", "unknown"),
        "l3_cache": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "traced": trace,
    }


# ---------------------------------------------------------------------------
# measurement


class Ledger:
    """Counts checked operations and keeps the first few failure messages."""

    def __init__(self, workloads, workload):
        self.workloads, self.workload = workloads, workload
        self.attempted = self.failed = 0
        self.messages = []

    def check(self, inputs: dict, out: dict) -> None:
        failed = self.workloads.failures(self.workload, inputs, out)
        self.attempted += len(self.workload.ops)
        self.failed += len(failed)
        self.messages.extend(f"{op}: {msg}" for op, msg in failed.items())


def setup(workloads, name: str, seed: int):
    """Input generation and one checked warm-up instance (index 0)."""
    workload = workloads.WORKLOADS[name]
    ledger = Ledger(workloads, workload)
    inputs = workload.make_inputs(workloads.instance_seed(seed, 0))
    ledger.check(inputs, workloads.run_instance(workload, inputs))
    return workload, ledger, time.perf_counter() - _START


def timed_instance(workloads, workload, seed, index, ledger, tracer=None):
    inputs = workload.make_inputs(workloads.instance_seed(seed, index))
    start = time.perf_counter()
    if tracer is None:
        out = workloads.run_instance(workload, inputs)
    else:
        with tracer:
            out = workloads.run_instance(workload, inputs)
    elapsed = time.perf_counter() - start
    ledger.check(inputs, out)
    return elapsed


def peak_memory_mb(workloads, workload, seed) -> float:
    """tracemalloc peak of one instance, on its own untimed pass."""
    import tracemalloc

    inputs = workload.make_inputs(workloads.instance_seed(seed, 0))
    tracemalloc.start()
    try:
        workloads.run_instance(workload, inputs)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def fresh_setup(name: str, seed: int):
    """Set-up time of a fresh process and the probe time right after it, as
    reported by that process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"fresh set-up failed: {done.stderr.strip()}")
    result = json.loads(done.stdout.splitlines()[-1])
    return result["setup_s"], result["probe_s"]


class SpeedProbe:
    """Fixed plain-numpy work whose time tracks the machine's current speed.

    On a shared host the CPU speed available to one process drifts by tens of
    percent over minutes, and every instance time drifts with it.  Timing a
    probe around each instance lets the benchmark report instance times in
    probe units, which cancels most of that drift.  A probe tracks a workload
    best when it does the same kind of work, so there are two kinds:

    * ``mixed``: an interpreter-bound loop of small matrix-vector steps, small
      LAPACK calls, a mid-size LU solve and a memory-bound pass over a 16 MB
      array (for ``analyze`` and ``nonlinear``);
    * ``filter``: a Kalman covariance recursion at n=16, p=2 written with
      numpy and scipy.linalg, like the filter steps ``identify`` spends its
      time in.

    Neither uses esnkit or the seed, so only the machine changes their time.
    """

    def __init__(self, kind: str):
        import numpy as np
        import scipy.linalg

        rng = np.random.default_rng(0)
        self.np, self.linalg = np, scipy.linalg
        self.kind = kind
        self.work = {"mixed": self._mixed, "filter": self._filter}[kind]
        self.w = 0.2 * rng.standard_normal((16, 16))
        self.sym = rng.standard_normal((32, 32))
        self.sym = self.sym + self.sym.T
        self.dense = rng.standard_normal((384, 384)) + 384.0 * np.eye(384)
        self.big = rng.standard_normal(2_000_000)
        self.c = rng.standard_normal((2, 16))

    def __call__(self) -> float:
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start

    def _mixed(self) -> None:
        np = self.np
        v = np.zeros(16)
        for _ in range(1500):
            v = 0.5 * v + 0.5 * np.tanh(self.w @ v + 1.0)
        for _ in range(100):
            np.linalg.eigvalsh(self.sym)
        np.linalg.solve(self.dense, self.dense)
        for _ in range(3):
            float((self.big * 1.0001).sum())

    def _filter(self) -> None:
        np, linalg = self.np, self.linalg
        a, c = self.w, self.c
        cov = np.eye(16)
        for _ in range(400):
            cov = a @ cov @ a.T + 1e-3 * np.eye(16)
            s = c @ cov @ c.T + 1e-2 * np.eye(2)
            chol = linalg.cho_factor(s, lower=True, check_finite=False)
            gain = linalg.cho_solve(chol, c @ cov).T
            ikc = np.eye(16) - gain @ c
            cov = ikc @ cov @ ikc.T + 1e-2 * gain @ gain.T
            cov = 0.5 * (cov + cov.T)
            linalg.solve_triangular(chol[0], s[0], lower=True)


PROBE_KIND = {"analyze": "mixed", "identify": "filter", "nonlinear": "mixed"}
# Median probe times on the host the bounds were set on (2-vCPU Xeon, numpy
# 2.4, one BLAS thread).  They turn set-up times in probe units back into
# seconds at that host's usual speed.
REFERENCE_PROBE_S = {"mixed": 0.040, "filter": 0.030}


def measure_untraced(workloads, name, seed, seconds):
    workload, ledger, setup_s = setup(workloads, name, seed)
    probe = SpeedProbe(PROBE_KIND[name])
    times, probes = [], [probe()]
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        times.append(timed_instance(workloads, workload, seed, len(times) + 1,
                                    ledger))
        probes.append(probe())
    # each instance in units of the mean of the probes just before and after it
    rel = [t / (0.5 * (before + after))
           for t, before, after in zip(times, probes, probes[1:])]
    # each set-up in probe units, from the probe run right after it
    setups = [(setup_s, probes[0])] + [fresh_setup(name, seed)
                                       for _ in range(SETUP_REPEATS - 1)]
    setup_rel = [wall / unit for wall, unit in setups]
    count = len(times)
    values = {
        "setup_s": (statistics.median(setup_rel) * REFERENCE_PROBE_S[probe.kind],
                    len(setups)),
        "setup_wall_s": (statistics.median(wall for wall, _ in setups), len(setups)),
        "instance_rel_p50": (statistics.median(rel), count),
        "throughput_rel": (count / sum(rel), count),
        "peak_mem_mb": (peak_memory_mb(workloads, workload, seed), 1),
        "instance_s_p50": (statistics.median(times), count),
        "instances_per_s": (count / sum(times), count),
        "probe_s_p50": (statistics.median(probes), len(probes)),
    }
    return ledger, {name: (values[name][0], unit_name, values[name][1])
                    for name, unit_name in END_TO_END + EXTRA_END_TO_END}


def bare_loop_us_per_step(calls) -> float:
    """Plain numpy loop of the leaky map over the recorded ``simulate`` calls
    (same parameters, initial states and inputs; noise is not added)."""
    import numpy as np

    import reference

    steps, elapsed = 0, 0.0
    for arguments in calls:
        params = arguments["params"]
        w, u_mat, b, lam = params.W, params.U, params.b, params.leak
        sigma = reference.leaky_map(params.activation.kind,
                                    params.activation.negative_slope)
        x = np.asarray(arguments["x0"], dtype=np.float64)
        inputs = np.atleast_2d(np.asarray(arguments["inputs"], dtype=np.float64))
        start = time.perf_counter()
        for u in inputs:
            x = (1.0 - lam) * x + lam * sigma(w @ x + u_mat @ u + b)
        elapsed += time.perf_counter() - start
        steps += len(inputs)
    return 1e6 * elapsed / steps if steps else 0.0


def measure_traced(workloads, name, seed, seconds):
    from tracer import SpanStats, Tracer

    workload, ledger, _ = setup(workloads, name, seed)
    plain, traced, tracers, bare = [], [], [], []
    deadline = time.perf_counter() + seconds
    index = 1
    while not traced or time.perf_counter() < deadline:
        plain.append(timed_instance(workloads, workload, seed, index, ledger))
        tracer = Tracer()
        traced.append(timed_instance(workloads, workload, seed, index + 1,
                                     ledger, tracer))
        tracers.append(tracer)
        bare.append(bare_loop_us_per_step(tracer.records.get("core.simulate", [])))
        index += 2

    count = len(tracers)
    spans = {}
    for tracer in tracers:
        for span, st in tracer.stats.items():
            acc = spans.setdefault(span, SpanStats())
            acc.calls += st.calls
            acc.total_s += st.total_s
            acc.self_s += st.self_s
            acc.steps += st.steps

    def value(span, stat):
        st = spans.get(span, SpanStats())
        if stat == "us_per_step":
            return 1e6 * st.total_s / st.steps if st.steps else 0.0
        if stat == "us_per_call":
            return 1e6 * st.total_s / st.calls if st.calls else 0.0
        return getattr(st, stat) / count

    metrics = {f"{span}.{stat}": (value(span, stat), unit, count)
               for span, stat, unit in LAYER_METRICS}
    self_total = sum(st.self_s for st in spans.values()) / count
    run_values = {
        "core.bare_loop.us_per_step": statistics.mean(bare),
        "trace.instance_s": statistics.median(traced),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
        "trace.coverage": self_total / statistics.mean(traced),
    }
    metrics.update({name: (run_values[name], unit, count)
                    for name, unit in RUN_METRICS})
    return ledger, metrics, spans, count


# ---------------------------------------------------------------------------
# output


def result_line(ledger, metrics, names) -> str:
    return json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in names},
    })


def print_metrics(name, ledger, metrics, spans=None, count=1) -> None:
    print(f"workload {name}")
    for key, (val, unit, samples) in metrics.items():
        print(f"  {key:44s} {val:14.6g} {unit:8s} n={samples}")
    rate = ledger.failed / ledger.attempted
    print(f"  {'error_rate':44s} {rate:14.6g} {'fraction':8s} "
          f"n={ledger.attempted} ({ledger.failed} of {ledger.attempted} "
          "operations failed)")
    for message in ledger.messages[:10]:
        print(f"  FAILED {message}")
    if spans:
        print("  per instance: calls, self s, total s for every traced function")
        for span, st in sorted(spans.items(), key=lambda kv: -kv[1].self_s):
            if st.calls:
                print(f"    {span:42s} {st.calls / count:10.1f} "
                      f"{st.self_s / count:10.5f} {st.total_s / count:10.5f}")


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Run each workload in its own process; print them and a merged result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return done.returncode
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        merged["metrics"].update({f"{name}.{key}": val
                                  for key, val in part["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    _pin_blas()
    workloads = _load()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.setup_only:
        _, _, setup_s = setup(workloads, args.workload, args.seed)
        probe_s = SpeedProbe(PROBE_KIND[args.workload])()
        print(json.dumps({"setup_s": setup_s, "probe_s": probe_s}))
        return 0

    record = run_record(args.seed, bool(args.trace))
    if args.trace:
        ledger, metrics, spans, count = measure_traced(
            workloads, args.workload, args.seed, args.seconds)
        names = [f"{span}.{stat}" for span, stat, _ in LAYER_METRICS]
        names += [name for name, _ in RUN_METRICS]
    else:
        ledger, metrics = measure_untraced(workloads, args.workload, args.seed,
                                           args.seconds)
        spans, count = None, 1
        names = [name for name, _ in END_TO_END]
    print("record " + json.dumps(record))
    print_metrics(args.workload, ledger, metrics, spans, count)
    print(result_line(ledger, metrics, names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
