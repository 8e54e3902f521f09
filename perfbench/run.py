"""Repository benchmark: BO decision latency, tool cost and fleet overhead.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload gemm-refit --seed 1 --seconds 40 --trace 0

or every workload, untraced then traced, with a summary table::

    python3 perfbench/run.py --all [--seed 1] [--seconds 40]

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (and writes a Chrome/Perfetto trace).  Output checks run
on every invocation; a failed check exits 1.  Without the program's
sources (``src/repro``) next to this directory it exits 2.  Workloads,
metrics and the layer map are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import benchlib

#: The workloads pinned in BENCHMARK.json.
WORKLOADS = ("gemm-refit", "fleet-cells")
#: Runnable but not pinned: the commit- and PEIPV-heavy BO workload,
#: whose spread across seeds is too wide for the benchmark's bounds
#: within the time limit of all runs.
EXTRA_WORKLOADS = ("radix-acq",)

#: (name, unit) of the end-to-end metrics, reported with --trace 0.
END_TO_END = (
    ("run_s", "s"),
    ("decide_ms.p50", "ms"),
    ("decide_ms.p90", "ms"),
    ("setup_s", "s"),
    ("sim_tool_h", "h"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of the per-layer metrics, reported with --trace 1.
PER_LAYER = (
    ("adrs", "ratio"),
    ("failed_frac", "ratio"),
    ("dse.space_s", "s"),
    ("dse.configs", "count"),
    ("hlsim.gt_load_s", "s"),
    ("hlsim.flow_calls", "count"),
    ("hlsim.flow_s", "s"),
    ("hlsim.gt_sweep_s", "s"),
    ("hlsim.sweep_configs_per_s", "1/s"),
    ("surrogate.refit_s", "s"),
    ("surrogate.refits", "count"),
    ("surrogate.refit_factorizations", "count"),
    ("surrogate.refit_flops", "flop"),
    ("surrogate.commit_s", "s"),
    ("surrogate.commit_extensions", "count"),
    ("surrogate.commit_flops", "flop"),
    ("surrogate.predict_s", "s"),
    ("surrogate.predict_rows", "count"),
    ("surrogate.cache_hit_ratio", "ratio"),
    ("acq.eipv_s", "s"),
    ("acq.eipv_calls", "count"),
    ("acq.box_sample_products", "count"),
    ("pareto.boxes_s", "s"),
    ("pareto.boxes_per_step", "count"),
    ("optimizer.self_s", "s"),
    ("resilience.retries", "count"),
    ("resilience.degraded", "count"),
    ("fleet.worker_ready_s", "s"),
    ("fleet.submit_ms.p50", "ms"),
    ("fleet.result_polls", "count"),
    ("fleet.poll_hit_ratio", "ratio"),
    ("fleet.exec_s", "s"),
    ("fleet.capacity_used", "ratio"),
    ("fleet.requests", "count"),
    ("fleet.request_ms.mean", "ms"),
    ("fleet.wal_records", "count"),
    ("fleet.wal_fsync_ms.mean", "ms"),
    ("fleet.lease_expiries", "count"),
    ("fleet.duplicate_completions", "count"),
    ("trace_overhead_frac", "ratio"),
)

#: Sample count printed next to each end-to-end metric.
SAMPLES = {
    "setup_s": "setup_samples",
    "decide_ms.p50": "decide_ms.samples",
    "decide_ms.p90": "decide_ms.samples",
}


def run_workload(name: str, seed: int, seconds: float, tracer=None) -> dict:
    if name == "fleet-cells":
        import fleet_workload

        return fleet_workload.run_workload(
            seed, fleet_workload.n_repeats(seconds), tracer=tracer
        )
    import bo_workload

    spec = {"gemm-refit": bo_workload.GEMM_REFIT,
            "radix-acq": bo_workload.RADIX_ACQ}[name]
    return bo_workload.run_workload(spec, seed, spec.n_runs(seconds), tracer=tracer)


def untraced_run_s(args) -> float:
    """Median untraced ``run_s`` of this workload and size in this checkout.

    Runs of the same seed are preferred (identical work); without any
    history an untraced run is made here first.
    """
    history = [
        h for h in benchlib.read_history()
        if h.get("workload") == args.workload and h.get("seconds") == args.seconds
    ]
    same_seed = [h["run_s"] for h in history if h.get("seed") == args.seed]
    if same_seed or history:
        return statistics.median(same_seed or [h["run_s"] for h in history])
    return run_workload(args.workload, args.seed, args.seconds)["run_s"]


def print_layers(report: dict, trace_path: Path) -> None:
    print(f"trace: {trace_path}")
    print("layer self time, share of decision time:")
    for name, share in sorted(report["shares"].items(), key=lambda kv: -kv[1]):
        print(f"  {name:24s} {100 * share:6.2f}%")


def run_one(args) -> int:
    benchlib.import_program()
    from tracing import Tracer

    env = benchlib.environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} env={json.dumps(env, sort_keys=True)}")
    tracer = Tracer() if args.trace else None
    try:
        baseline = untraced_run_s(args) if args.trace else None
        report = run_workload(args.workload, args.seed, args.seconds, tracer)
    except benchlib.CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        print(json.dumps(
            {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        ))
        return 1
    if args.trace:
        report["trace_overhead_frac"] = report["run_s"] / baseline - 1.0
        path = benchlib.WORK_DIR / "traces" / f"{args.workload}.seed{args.seed}.trace.json"
        tracer.write_chrome(path)
        print_layers(report, path)
        wanted = PER_LAYER
    else:
        benchlib.append_history({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "run_s": report["run_s"], "env": env,
        })
        wanted = END_TO_END
    print(f"  machine speed {report['speed']:.4g} x reference; "
          f"run_s as measured {report['run_s.raw']:.6g} s")
    for name, unit in END_TO_END + (("adrs", "ratio"), ("failed_frac", "ratio")):
        samples = report.get(SAMPLES.get(name, ""), 1)
        print(f"  {name:16s} {report[name]:14.6g} {unit:5s} n={samples}")
    # A layer the workload does not exercise (the fleet on a BO
    # workload) reports zero work.
    metrics = {
        name: {"value": float(report.get(name, 0.0)), "unit": unit}
        for name, unit in wanted
    }
    print(json.dumps({
        "correct": True,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    script = Path(__file__).resolve()
    rows = {}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(script), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = 1
                continue
            rows[(workload, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("\nend-to-end metrics (untraced):")
    print(f"  {'metric':16s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for name, unit in END_TO_END:
        cells = []
        for w in WORKLOADS:
            m = rows.get((w, 0), {}).get("metrics", {}).get(name)
            cells.append(f"{m['value']:14.5g}" if m else f"{'FAILED':>14s}")
        print(f"  {name + ' [' + unit + ']':16s}" + "".join(cells))
    benchlib.WORK_DIR.mkdir(parents=True, exist_ok=True)
    (benchlib.WORK_DIR / "summary.json").write_text(json.dumps(
        {f"{w}/trace{t}": r for (w, t), r in rows.items()}, indent=2
    ))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + EXTRA_WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    benchlib.pin_threads()
    sys.exit(main())
