"""swarmtrack benchmark: one closed-loop workload per run, outputs checked.

    python3 perfbench/run.py --workload semantic-m8 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs every
operation twice, untraced then traced, and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full report (raw seconds, kernel times, environment, every operation)
is written under ``perfbench/out/``.

Timings are reference-normalised: raw seconds x REF_NOMINAL_S / ref_measured,
where ref_measured is the median time of a fixed kernel run between
operations. The host's speed drifts between identical processes; the
kernel drifts with it, so the ratio removes most of that drift.
"""

import os

# Single-threaded BLAS, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"
MODULES = ("linalg", "swarm", "channel", "policy", "stability", "baselines",
           "sim", "cli")
SETUP_REPEATS = 9
# Typical kernel time on the reference host (see README.md).
REF_NOMINAL_S = 2.0e-3

END_TO_END = [
    ("slots_per_s", "slots/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Printed and reported by the timed run, but zero on some workload, so they
# cannot be bounded end-to-end metrics; the traced run reports them too.
REPORTED_ONLY = [
    ("stability_ms_p50", "ms"),
    ("calibrate_ms_p50", "ms"),
    ("run_ms_p50", "ms"),
    ("failed_frac", "frac"),
]

# (name, unit, better) of every metric the traced run prints.
PER_LAYER = [
    ("linalg.svd.calls_per_slot", "calls/slot", "lower"),
    ("linalg.svd.self_us_per_slot", "us/slot", "lower"),
    ("linalg.pseudo_inverse.calls_per_slot", "calls/slot", "lower"),
    ("linalg.pseudo_inverse.self_us_per_slot", "us/slot", "lower"),
    ("linalg.mnk_per_slot", "mnk/slot", "lower"),
    ("policy.solve_agent.calls_per_slot", "calls/slot", "lower"),
    ("policy.solve_agent.self_us_per_slot", "us/slot", "lower"),
    ("policy.factorize_agent.self_us_per_slot", "us/slot", "lower"),
    ("policy.control_signal.self_us_per_slot", "us/slot", "lower"),
    ("policy.tx_frac", "frac", "lower"),
    ("policy.tx_zero_effect_frac", "frac", "lower"),
    ("policy.compute_drift_constants.calls", "calls/op", "lower"),
    ("policy.compute_drift_constants.self_ms_per_call", "ms/call", "lower"),
    ("sim.calibrate_gamma.probes_per_call", "probes/call", "lower"),
    ("sim.calibrate_gamma.clamped_frac", "frac", "lower"),
    ("sim._slot_rng.calls_per_slot", "calls/slot", "lower"),
    ("sim._slot_rng.self_us_per_slot", "us/slot", "lower"),
    ("sim.run_episode.self_us_per_slot", "us/slot", "lower"),
    ("channel.draw_channels.self_us_per_slot", "us/slot", "lower"),
    ("channel.estimate_channel.self_us_per_slot", "us/slot", "lower"),
    ("channel.receive_control.self_us_per_slot", "us/slot", "lower"),
    ("swarm.tracking_error.self_us_per_slot", "us/slot", "lower"),
    ("swarm.step_swarm.self_us_per_slot", "us/slot", "lower"),
    ("swarm.step_target.self_us_per_slot", "us/slot", "lower"),
    ("swarm.draw_plant_noise.self_us_per_slot", "us/slot", "lower"),
    ("swarm.states_per_slot", "states/slot", "lower"),
    ("baselines.pid_control.self_us_per_slot", "us/slot", "lower"),
    ("baselines.state_trigger.self_us_per_slot", "us/slot", "lower"),
    ("baselines.fire_frac", "frac", "lower"),
    ("baselines.solve_dare.calls", "calls/op", "lower"),
    ("baselines.solve_dare.self_ms_per_call", "ms/call", "lower"),
    ("baselines.solve_dare.iterations_per_call", "iter/call", "lower"),
    ("baselines.solve_dare.failures", "failures/op", "lower"),
    ("sim.tuned_gains.hit_frac", "frac", "higher"),
    ("stability.stability_report.self_ms_per_call", "ms/call", "lower"),
    ("stability.compute_masks.self_us_per_call", "us/call", "lower"),
    ("cli.main.self_ms_per_call", "ms/call", "lower"),
    ("cli.bytes_written_per_cell", "B/cell", "lower"),
    ("stability_ms_p50", "ms", "lower"),
    ("calibrate_ms_p50", "ms", "lower"),
    ("run_ms_p50", "ms", "lower"),
    ("failed_frac", "frac", "lower"),
    ("trace.self_coverage", "frac", "higher"),
    ("trace.untraced_slots_per_s", "slots/s", "higher"),
    ("trace.traced_slots_per_s", "slots/s", "higher"),
    ("trace.overhead_slots_per_s", "slots/s", "lower"),
]


class RefKernel:
    """Fixed machine-speed probe: a pure-Python loop plus small numpy ops.

    The mix follows the program's own: interpreter work (the slot pipeline)
    and small LAPACK calls (the decision layer's SVDs).
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._square = rng.normal(size=(72, 72))
        self._tall = rng.normal(size=(72, 4))
        self._small = 0.3 * rng.normal(size=(9, 9))
        self._vec = rng.normal(size=9)
        self.samples = []
        self.sink = 0.0

    def sample(self) -> float:
        t0 = perf_counter()
        acc = 0.0
        for i in range(1, 4001):
            acc += (i * 0.5) % 7.0
        x = self._vec
        for _ in range(200):
            x = np.tanh(self._small @ x)
        s1 = np.linalg.svd(self._square)[1][0]
        s2 = np.linalg.svd(self._tall)[1][0]
        dt = perf_counter() - t0
        self.sink += acc + float(x.sum()) + s1 + s2
        self.samples.append(dt)
        return dt

    def median(self) -> float:
        return statistics.median(self.samples)


def import_fresh():
    """Import the package from ``src/`` anew, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "swarmtrack" or n.startswith("swarmtrack.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("swarmtrack")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"swarmtrack imported from {package.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"swarmtrack.{name}") for name in MODULES}
    return types.SimpleNamespace(all=[package] + list(mods.values()), **mods)


class SlotCounter:
    """Counts closed-loop slots (calibration probes included) in untraced runs."""

    def __init__(self, sim):
        self._sim = sim
        self._original = sim.run_episode
        self.slots = 0

        def counted(*args, **kwargs):
            metrics = self._original(*args, **kwargs)
            self.slots += metrics.n_slots
            return metrics

        self._counted = counted

    def install(self):
        self._sim.run_episode = self._counted

    def uninstall(self):
        self._sim.run_episode = self._original


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return None


def environment(seed: int) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "seed": seed,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    return float(np.percentile(values, 90)) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


class Run:
    """State of one benchmark run: operations, failures, timings.

    Every timed interval records ``k``, the index of the kernel sample taken
    just before it; the sample at ``k + 1`` was taken just after it.
    """

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.kernel = RefKernel()
        self.setups = []
        self.ops = []
        self.traced_ops = []
        self.failures = []
        self.attempted = 0

    def execute(self, ctx, key, hook):
        """Run one operation under a slot counter or tracer, timed and checked."""
        self.attempted += 1
        self.workload.prepare(ctx, key)
        k = len(self.kernel.samples) - 1
        before = hook.slots
        hook.install()
        t0 = perf_counter()
        try:
            fields, commands, written = self.workload.run(ctx, key)
        except Exception:
            self.failures.append({"key": key, "error": traceback.format_exc()})
            return
        finally:
            seconds = perf_counter() - t0
            hook.uninstall()
        want = self.reference.get(key)
        problems = ["no reference result"] if want is None else workloads.compare(fields, want)
        if problems:
            self.failures.append({"key": key, "error": "; ".join(problems)})
        op = {"key": key, "raw_s": seconds, "k": k, "slots": hook.slots - before,
              "commands_raw_s": commands, "bytes_written": written}
        (self.traced_ops if isinstance(hook, tracer.Tracer) else self.ops).append(op)


def measure(args, workload, reference):
    """Set up SETUP_REPEATS times, then run operations for args.seconds."""
    run = Run(workload, reference)
    work_dir = OUT_DIR / "work"
    run.kernel.sample()
    for _ in range(SETUP_REPEATS):
        k = len(run.kernel.samples) - 1
        t0 = perf_counter()
        mods = import_fresh()
        ctx = workload.setup(mods, work_dir)
        run.setups.append({"raw_s": perf_counter() - t0, "k": k})
        run.kernel.sample()
    trace = tracer.Tracer(mods.all) if args.trace else None
    counter = SlotCounter(mods.sim)
    keys = workload.keys(args.seed)
    deadline = perf_counter() + args.seconds
    while True:
        key = next(keys)
        run.execute(ctx, key, counter)
        run.kernel.sample()
        if trace:
            run.execute(ctx, key, trace)
            run.kernel.sample()
        if perf_counter() >= deadline:
            break
    return run, trace


def local_scale(run, k) -> float:
    """REF_NOMINAL_S over the mean of the kernel samples bracketing an interval."""
    ks = run.kernel.samples
    return REF_NOMINAL_S / (0.5 * (ks[k] + ks[k + 1]))


def end_to_end(run):
    """Normalised end-to-end metrics, their raw values and the median scale.

    Each timed interval is normalised by the kernel samples taken just
    before and just after it, so host-speed changes within a run are
    followed as well as those between runs.
    """
    scales = [local_scale(run, op["k"]) for op in run.ops]
    op_s = [op["raw_s"] for op in run.ops]
    norm_s = [s * c for s, c in zip(op_s, scales)]
    slots = sum(op["slots"] for op in run.ops)
    raw = {"slots_per_s": _ratio(slots, sum(op_s)),
           "op_ms_p50": 1e3 * _median(op_s),
           "op_ms_p90": 1e3 * _p90(op_s),
           "setup_s": _median([s["raw_s"] for s in run.setups])}
    norm = {"slots_per_s": _ratio(slots, sum(norm_s)),
            "op_ms_p50": 1e3 * _median(norm_s),
            "op_ms_p90": 1e3 * _p90(norm_s),
            "setup_s": _median([s["raw_s"] * local_scale(run, s["k"]) for s in run.setups])}
    for label in ("stability", "calibrate", "run"):
        timed = [(op["commands_raw_s"][label], c) for op, c in zip(run.ops, scales)
                 if label in op["commands_raw_s"]]
        raw[f"{label}_ms_p50"] = 1e3 * _median([s for s, _ in timed])
        norm[f"{label}_ms_p50"] = 1e3 * _median([s * c for s, c in timed])
    norm["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    norm["failed_frac"] = _ratio(len(run.failures), run.attempted)
    return norm, raw, _median(scales)


def per_layer(run, trace):
    """Per-layer metrics of the traced operations, normalised like end_to_end."""
    scales = [local_scale(run, op["k"]) for op in run.traced_ops]
    scale = _median(scales)
    slots = trace.slots
    n_ops = len(run.traced_ops)
    ev = trace.events.get

    def calls(name):
        return trace.stat(name)[0]

    def self_s(name):
        return trace.stat(name)[1] * scale

    def per_slot(name):
        return _ratio(calls(name), slots)

    def us_per_slot(name):
        return 1e6 * _ratio(self_s(name), slots)

    def per_call(name, unit):
        return unit * _ratio(self_s(name), calls(name))

    traced_s = sum(op["raw_s"] for op in run.traced_ops)
    traced_rate = _ratio(slots, sum(op["raw_s"] * c for op, c in zip(run.traced_ops, scales)))
    e2e, _, _ = end_to_end(run)
    untraced_rate = e2e["slots_per_s"]
    triggers = ev("baselines.trigger_evals", 0)
    return {
        "linalg.svd.calls_per_slot": per_slot("linalg.svd"),
        "linalg.svd.self_us_per_slot": us_per_slot("linalg.svd"),
        "linalg.pseudo_inverse.calls_per_slot": per_slot("linalg.pseudo_inverse"),
        "linalg.pseudo_inverse.self_us_per_slot": us_per_slot("linalg.pseudo_inverse"),
        "linalg.mnk_per_slot": _ratio(ev("linalg.mnk", 0), slots),
        "policy.solve_agent.calls_per_slot": per_slot("policy.solve_agent"),
        "policy.solve_agent.self_us_per_slot": us_per_slot("policy.solve_agent"),
        "policy.factorize_agent.self_us_per_slot": us_per_slot("policy.factorize_agent"),
        "policy.control_signal.self_us_per_slot": us_per_slot("policy.control_signal"),
        "policy.tx_frac": _ratio(ev("policy.tx", 0), calls("policy.solve_agent")),
        "policy.tx_zero_effect_frac": _ratio(ev("policy.tx_zero_effect", 0),
                                             ev("policy.tx", 0)),
        "policy.compute_drift_constants.calls": _ratio(
            calls("policy.compute_drift_constants"), n_ops),
        "policy.compute_drift_constants.self_ms_per_call": per_call(
            "policy.compute_drift_constants", 1e3),
        "sim.calibrate_gamma.probes_per_call": _ratio(
            ev("sim.calibrate_gamma.probes", 0), calls("sim.calibrate_gamma")),
        "sim.calibrate_gamma.clamped_frac": _ratio(
            ev("sim.calibrate_gamma.clamped", 0), calls("sim.calibrate_gamma")),
        "sim._slot_rng.calls_per_slot": per_slot("sim._slot_rng"),
        "sim._slot_rng.self_us_per_slot": us_per_slot("sim._slot_rng"),
        "sim.run_episode.self_us_per_slot": us_per_slot("sim.run_episode"),
        "channel.draw_channels.self_us_per_slot": us_per_slot("channel.draw_channels"),
        "channel.estimate_channel.self_us_per_slot": us_per_slot("channel.estimate_channel"),
        "channel.receive_control.self_us_per_slot": us_per_slot("channel.receive_control"),
        "swarm.tracking_error.self_us_per_slot": us_per_slot("swarm.tracking_error"),
        "swarm.step_swarm.self_us_per_slot": us_per_slot("swarm.step_swarm"),
        "swarm.step_target.self_us_per_slot": us_per_slot("swarm.step_target"),
        "swarm.draw_plant_noise.self_us_per_slot": us_per_slot("swarm.draw_plant_noise"),
        "swarm.states_per_slot": _ratio(ev("swarm.states", 0), slots),
        "baselines.pid_control.self_us_per_slot": us_per_slot("baselines.pid_control"),
        "baselines.state_trigger.self_us_per_slot": us_per_slot("baselines.state_trigger"),
        "baselines.fire_frac": _ratio(ev("baselines.fires", 0), triggers),
        "baselines.solve_dare.calls": _ratio(calls("baselines.solve_dare"), n_ops),
        "baselines.solve_dare.self_ms_per_call": per_call("baselines.solve_dare", 1e3),
        "baselines.solve_dare.iterations_per_call": _ratio(
            ev("baselines.solve_dare.iterations", 0), calls("baselines.solve_dare")),
        "baselines.solve_dare.failures": _ratio(
            ev("baselines.solve_dare.failures", 0), n_ops),
        "sim.tuned_gains.hit_frac": _ratio(ev("sim.tuned_gains.hits", 0),
                                           calls("sim.tuned_gains")),
        "stability.stability_report.self_ms_per_call": per_call(
            "stability.stability_report", 1e3),
        "stability.compute_masks.self_us_per_call": per_call("stability.compute_masks", 1e6),
        "cli.main.self_ms_per_call": per_call("cli.main", 1e3),
        "cli.bytes_written_per_cell": _median([op["bytes_written"] for op in run.ops]),
        "stability_ms_p50": e2e["stability_ms_p50"],
        "calibrate_ms_p50": e2e["calibrate_ms_p50"],
        "run_ms_p50": e2e["run_ms_p50"],
        "failed_frac": e2e["failed_frac"],
        "trace.self_coverage": _ratio(trace.total_self_s(), traced_s),
        "trace.untraced_slots_per_s": untraced_rate,
        "trace.traced_slots_per_s": traced_rate,
        "trace.overhead_slots_per_s": untraced_rate - traced_rate,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_reference(name):
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[name]


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    reference = load_reference(workload.name)
    run, trace = measure(args, workload, reference)
    norm, raw, scale = end_to_end(run)
    units = dict(END_TO_END + REPORTED_ONLY)
    env = environment(args.seed)
    ref_ms = 1e3 * run.kernel.median()
    print(f"# swarmtrack benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# environment: {json.dumps(env)}")
    print(f"# ref kernel: measured {ref_ms:.4f} ms (median of {len(run.kernel.samples)}), "
          f"nominal {1e3 * REF_NOMINAL_S:.4f} ms, scale {scale:.4f}")
    print(f"# operations: {run.attempted} attempted, {len(run.failures)} failed")
    for failure in run.failures[:5]:
        print(f"# FAILED {failure['key']}: {failure['error'].strip().splitlines()[-1]}")
    for name, value in norm.items():
        raw_note = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"{name:<24} {value:14.6f} {units[name]}{raw_note}")

    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "ref_kernel_ms": ref_ms,
              "ref_nominal_ms": 1e3 * REF_NOMINAL_S, "scale": scale,
              "normalised": norm, "raw": raw, "kernel_samples_s": run.kernel.samples,
              "attempted": run.attempted, "failures": run.failures,
              "setups": run.setups, "ops": run.ops}
    if trace:
        metrics = per_layer(run, trace)
        for name, unit, _ in PER_LAYER:
            print(f"{name:<48} {metrics[name]:16.6f} {unit}")
        result = {name: {"value": metrics[name], "unit": unit} for name, unit, _ in PER_LAYER}
        report["per_layer"] = metrics
        report["traced_ops"] = run.traced_ops
    else:
        result = {name: {"value": norm[name], "unit": unit} for name, unit in END_TO_END}

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    report_path = OUT_DIR / f"{workload.name}.trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    if trace:
        trace.save(OUT_DIR / f"{workload.name}.spans.npz")
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
