"""Self-tests of the repository benchmark.

Run from the repository root::

    python3 -m pytest perfbench -q

They use shortened BO runs (fewer steps) where the property under test
does not depend on run length.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import benchlib

benchlib.pin_threads()
benchlib.import_program()

import pytest  # noqa: E402

import bo_workload  # noqa: E402
import fleet_workload  # noqa: E402
import run as bench_run  # noqa: E402
from tracing import Tracer  # noqa: E402

# 12 steps of radix-acq include refits (steps 0, 5 and 10) and commits.
SHORT = {
    "gemm-refit": dataclasses.replace(bo_workload.GEMM_REFIT, n_iter=6),
    "radix-acq": dataclasses.replace(bo_workload.RADIX_ACQ, n_iter=12),
}

#: Outputs and work counters that must repeat exactly under one seed.
EXACT = (
    "adrs",
    "sim_tool_h",
    "attempted",
    "failed",
    "decide_ms.samples",
    "hlsim.flow_calls",
    "surrogate.refit_factorizations",
    "surrogate.refit_flops",
    "surrogate.commit_extensions",
    "surrogate.commit_flops",
    "surrogate.cache_hit_ratio",
    "resilience.retries",
    "resilience.degraded",
    "histories",
    "learned",
)


def _run(name, seed, tracer=None):
    return bo_workload.run_workload(
        SHORT[name], seed, n_runs=1, tracer=tracer, setup_reps=1
    )


@pytest.mark.parametrize("name", sorted(SHORT))
def test_same_seed_repeats_exactly(name):
    a, b = _run(name, 5), _run(name, 5)
    for key in EXACT:
        assert a[key] == b[key], key


@pytest.mark.parametrize("name", sorted(SHORT))
def test_traced_run_matches_untraced(name):
    plain = _run(name, 6)
    tracer = Tracer()
    traced = _run(name, 6, tracer)
    assert traced["histories"] == plain["histories"]
    assert traced["learned"] == plain["learned"]
    decisions = tracer.named("optimizer.decide")
    assert len(decisions) == traced["decide_ms.samples"] == SHORT[name].n_iter
    for layer in ("surrogate.refit", "surrogate.predict", "acq.eipv",
                  "pareto.boxes", "hlsim.flow"):
        assert tracer.named(layer), layer
    # Everything the optimizer does between flow calls sits in decisions.
    inside = tracer.within("optimizer.decide")
    for layer in ("surrogate.refit", "acq.eipv", "pareto.boxes"):
        assert all(s.id in inside for s in tracer.named(layer)), layer
    if name == "radix-acq":
        assert traced["surrogate.commit_extensions"] > 0
        assert tracer.named("surrogate.commit")


def test_other_seed_changes_initial_design():
    def initial(report):
        return [h[:3] for h in report["histories"][0] if h[0] == -1]

    assert initial(_run("gemm-refit", 7)) != initial(_run("gemm-refit", 8))


def test_decision_intervals_skip_initial_design_and_verification():
    def rec(step, attempts=1):
        return SimpleNamespace(step=step, attempts=attempts)

    history = [rec(-1), rec(-1), rec(0, attempts=2), rec(1), rec(2)]
    calls = [(0, 1), (2, 3), (5, 6), (7, 8), (10, 11), (12, 13)]
    intervals = bo_workload.decision_intervals(calls, history, n_iter=2)
    # step 0 waits from the last initial call; the retry of step 0 and
    # the verification call (step == n_iter) open no decision.
    assert intervals == [(3, 5), (8, 10)]
    with pytest.raises(benchlib.CheckFailed):
        bo_workload.decision_intervals(calls[:-1], history, n_iter=2)


def test_fleet_cells_match_in_process_harness():
    report = fleet_workload.run_workload(seed=3, repeats=1, setup_reps=1)
    assert report["cells"] == 4
    assert report["fleet.lease_expiries"] == 0
    assert report["fleet.duplicate_completions"] == 0
    assert report["decide_ms.samples"] == 3 * fleet_workload.FLEET_SCALE.n_iter


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((benchlib.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        bench_run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        bench_run.PER_LAYER
    )


def test_result_line_lists_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gemm-refit",
         "--seed", "4", "--seconds", "1", "--trace", "0"],
        cwd=benchlib.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert list(result["metrics"]) == [n for n, _ in bench_run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(benchlib.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        benchlib.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gemm-refit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_probe_scales_intervals_to_reference_speed():
    probe = benchlib.SpeedProbe()
    ref = benchlib.PROBE_REF_MS / 1e3
    # A machine at half the reference speed: every probe takes 2x.
    for start in (1.0, 2.0, 3.0):
        probe.record(start, 2 * ref)
    assert probe.mean_speed() == pytest.approx(0.5)
    # Probes inside the interval are left out of it.
    assert probe.scaled(0.0, 4.0) == pytest.approx(0.5 * (4.0 - 6 * ref))
    assert probe.scaled(1.5, 1.9) == pytest.approx(0.2)
    # The speed comes from the probes on both sides of a moment.
    probe.record(4.0, ref)
    assert probe.speed(3.5) == pytest.approx(4 / 7)
