"""Smoke test of the benchmark harness at tiny sizes.

    python -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import record  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "semantic-m8": workloads.EpisodeWorkload("semantic-m8", ("semantic",), "",
                                             horizon=3, pool_size=2),
    "baselines-m8": workloads.EpisodeWorkload("baselines-m8", workloads.BASELINES, "",
                                              horizon=3, pool_size=2),
    "experiment-cell": workloads.CellWorkload("experiment-cell", "", horizon=3,
                                              pool_size=2),
}


def _args(name, trace):
    return types.SimpleNamespace(workload=name, seed=5, seconds=0.05, trace=trace)


@pytest.fixture(scope="module")
def references():
    return {name: record.record(w) for name, w in TINY.items()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_timed_run_reports_every_end_to_end_metric(name, references):
    result, trace = run.measure(_args(name, 0), TINY[name], references[name])
    assert trace is None
    assert result.attempted >= 1 and not result.failures
    norm, raw, scale = run.end_to_end(result)
    for metric, _ in run.END_TO_END:
        assert norm[metric] > 0, metric
    assert scale > 0 and raw["setup_s"] > 0
    if name == "experiment-cell":
        assert min(norm["calibrate_ms_p50"], norm["stability_ms_p50"],
                   norm["run_ms_p50"]) > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric(name, references):
    result, trace = run.measure(_args(name, 1), TINY[name], references[name])
    assert not result.failures
    assert len(result.traced_ops) == len(result.ops) >= 1
    metrics = run.per_layer(result, trace)
    assert [m for m, _, _ in run.PER_LAYER] == list(metrics)
    assert 0.5 < metrics["trace.self_coverage"] <= 1.0
    assert metrics["sim._slot_rng.calls_per_slot"] >= 4
    solve_calls = metrics["policy.solve_agent.calls_per_slot"]
    if name == "semantic-m8":
        assert solve_calls == 8
    elif name == "baselines-m8":
        assert solve_calls == 0 and metrics["linalg.svd.calls_per_slot"] < 1
    else:
        assert solve_calls > 0
    if name == "experiment-cell":
        assert metrics["sim.calibrate_gamma.probes_per_call"] >= 6
        assert metrics["baselines.solve_dare.calls"] >= 1
        assert metrics["cli.bytes_written_per_cell"] > 0


def test_wrong_output_counts_as_failure(references):
    name = "baselines-m8"
    wrong = json.loads(json.dumps(references[name]))
    changed, missing = sorted(wrong)[:2]
    wrong[changed]["avg_cost"] *= 1.0 + 10 * workloads.RTOL
    del wrong[missing]
    result, _ = run.measure(_args(name, 0), TINY[name], wrong)
    assert {f["key"] for f in result.failures} == {changed, missing}


def test_compare_flags_divergence_and_integer_drift():
    want = {"diverged": False, "n_slots": 50, "avg_cost": 1.0}
    assert workloads.compare(dict(want), want) == []
    assert workloads.compare(dict(want, n_slots=49), want)
    assert workloads.compare(dict(want, diverged=True), want)
    assert workloads.compare(dict(want, avg_cost=1.0 + 0.1 * workloads.RTOL), want) == []


def test_benchmark_json_matches_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "semantic-m8",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
