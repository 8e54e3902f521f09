"""The ``fleet-cells`` workload: SMOKE Table-I cells over a loopback fleet.

A broker with ``--state-dir`` (write-ahead journal on, the crash-safe
mode) and ``nproc - 1`` workers (at least one, at most three) run on
this machine; the benchmark process is the only client and calls
``run_schedule`` on two sessions of SMOKE-scale cells — spmv_ellpack
ours+fpl18 and gemm ours+dac19.  Broker start and worker registration
are repeated (``setup_s`` is their median); the timed region runs from
the first submit to the last result.  Set-up and run times are scaled
to the reference speed by the speed probe
(:class:`benchlib.SpeedProbe`), which a thread of the benchmark process
runs every ``SAMPLE_EVERY_S`` beside them, timed by its own CPU time:
the host's slowdowns show in that, the time the guest gives the broker
and the workers instead of the probe does not.

Afterwards, outside the timed region, the same cells run in-process
through the harness (``run_method``) and must equal the fleet outcomes
bitwise.  That in-process run is also where the cells' BO decisions
are timed (with the ``TimingFlow`` of :mod:`bo_workload`),
since the fleet executes them in another process.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import replace
from statistics import median

import numpy as np

from repro.core.optimizer import CorrelatedMFBO
from repro.experiments.harness import (
    SMOKE_SCALE,
    BenchmarkContext,
    method_seed,
    run_method,
)
from repro.fleet.client import BrokerClient
from repro.fleet.schedule import SessionSpec, run_schedule
from repro.obs.prom import metric_value, parse_metrics

from benchlib import (
    WORK_DIR,
    CheckFailed,
    SpeedProbe,
    child_env,
    cpu_count,
    peak_rss_mb,
)
from bo_workload import (
    GT_CACHE,
    TimingFlow,
    cold_sweep,
    counters,
    decision_intervals,
    decision_shares,
    history_key,
    layer_metrics,
)
from tracing import Tracer, instrument

#: SMOKE-scale cells with a refit every step.  At SMOKE's
#: ``refit_every=2`` half of all decisions are ~6 ms commits and half
#: 30-600 ms refits, so the median decision sits on the edge between
#: the two modes and jumps from run to run.
FLEET_SCALE = replace(SMOKE_SCALE, refit_every=1)
#: Sizing: a run of ``--seconds S`` submits 4 * round(S / 8) cells.
SECONDS_PER_REPEAT = 8.0
START_TIMEOUT_S = 60.0
#: Period of the speed probe beside the fleet.
SAMPLE_EVERY_S = 0.05
SCHEDULE_TIMEOUT_S = 120.0


def n_repeats(seconds: float) -> int:
    return max(1, round(seconds / SECONDS_PER_REPEAT))


def sessions(seed: int, repeats: int) -> list[SessionSpec]:
    return [
        SessionSpec(
            name="spmv", benchmark="spmv_ellpack",
            methods=("ours", "fpl18"), repeats=repeats,
            base_seed=method_seed(seed, "fleet.spmv", 0),
        ),
        SessionSpec(
            name="gemm", benchmark="gemm",
            methods=("ours", "dac19"), repeats=repeats,
            base_seed=method_seed(seed, "fleet.gemm", 0),
        ),
    ]


def n_workers() -> int:
    """``nproc - 1`` so the broker keeps a core; capped to bound memory."""
    return min(3, max(1, cpu_count() - 1))


def _stop(procs) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=15.0)


def _wait(predicate, what: str, procs) -> None:
    deadline = time.monotonic() + START_TIMEOUT_S
    while not predicate():
        dead = [p for p in procs if p.poll() is not None]
        if dead or time.monotonic() > deadline:
            raise CheckFailed(f"{what} did not come up")
        time.sleep(0.01)


@contextlib.contextmanager
def sampling(probe: SpeedProbe):
    """Run ``probe`` on a thread every ``SAMPLE_EVERY_S`` seconds."""
    stop = threading.Event()

    def loop():
        probe()
        while not stop.wait(SAMPLE_EVERY_S):
            probe()

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def start_fleet(state_dir, workers: int, tag: str):
    """Start a broker and ``workers`` workers.

    Returns the set-up's ``(start, workers started, workers registered)``
    timestamps, the broker URL and the process handles.
    """
    env = child_env()
    port_file = state_dir / "broker.port"
    procs = []
    t0 = time.perf_counter()
    try:
        procs.append(
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro.fleet.broker",
                    "--host", "127.0.0.1", "--port", "0",
                    "--state-dir", str(state_dir),
                    "--port-file", str(port_file),
                ],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
        )
        _wait(
            lambda: port_file.is_file() and port_file.read_text().strip(),
            "broker", procs,
        )
        url = f"http://127.0.0.1:{port_file.read_text().strip()}"
        client = BrokerClient(url)
        ids = [f"{tag}-w{i}" for i in range(workers)]
        t1 = time.perf_counter()
        for worker_id in ids:
            procs.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro.fleet.worker",
                        "--broker", url, "--worker-id", worker_id,
                        "--cache-dir", str(GT_CACHE),
                    ],
                    env=env,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                )
            )
        _wait(
            lambda: set(ids) <= set(client.stats()["workers"]),
            "workers", procs,
        )
        t2 = time.perf_counter()
    except BaseException:
        _stop(procs)
        raise
    return (t0, t1, t2), url, procs


@contextlib.contextmanager
def capture_metrics(sink: list):
    """Collect the work counters of every ``CorrelatedMFBO`` the harness runs."""
    original = CorrelatedMFBO.run

    def run(self):
        try:
            return original(self)
        finally:
            sink.append(self.metrics.snapshot())

    CorrelatedMFBO.run = run
    try:
        yield
    finally:
        CorrelatedMFBO.run = original


def reference_cells(specs, repeats: int, tracer: Tracer | None, probe: SpeedProbe):
    """The same cells in-process through the harness, BO steps timed."""
    scale = replace(FLEET_SCALE, n_repeats=repeats)
    cells = []
    for spec in specs:
        ctx = BenchmarkContext.get(spec.benchmark, cache_dir=GT_CACHE)
        flow = ctx.flow = TimingFlow.for_space(ctx.space)
        flow.probe = probe
        for method in spec.methods:
            for repeat in range(repeats):
                snapshots: list = []
                first = len(flow.calls)
                with capture_metrics(snapshots), contextlib.ExitStack() as stack:
                    rec = None
                    if tracer is not None:
                        rec = stack.enter_context(
                            tracer.span("bo.run", cell=f"{spec.name}.{method}.{repeat}")
                        )
                    run = run_method(
                        ctx, method, scale,
                        method_seed(spec.base_seed, method, repeat),
                    )
                cells.append(
                    (spec, method, repeat, run, snapshots, flow.calls[first:], rec)
                )
    return cells


def _same(a, b) -> bool:
    return (
        a.seed == b.seed
        and a.adrs == b.adrs
        and a.runtime_s == b.runtime_s
        and history_key(a.result) == history_key(b.result)
        and a.result.cs_indices == b.result.cs_indices
        and np.array_equal(a.result.cs_values, b.result.cs_values)
    )


def _broker_metrics(text: str) -> dict:
    samples = parse_metrics(text)

    def value(name: str) -> float:
        return metric_value(samples, name) or 0.0

    def mean_ms(family: str) -> float:
        count = value(f"{family}_count")
        return 1e3 * value(f"{family}_sum") / count if count else 0.0

    return {
        "fleet.requests": int(value("fleet_requests_total")),
        "fleet.request_ms.mean": mean_ms("fleet_request_latency_seconds"),
        "fleet.wal_records": int(value("fleet_wal_records_total")),
        "fleet.wal_fsync_ms.mean": mean_ms("fleet_wal_fsync_seconds"),
    }


def run_workload(
    seed: int,
    repeats: int,
    tracer: Tracer | None = None,
    setup_reps: int = 3,
) -> dict:
    specs = sessions(seed, repeats)
    # Untimed: the workers load ground truth from this cache.
    for spec in specs:
        BenchmarkContext.get(spec.benchmark, cache_dir=GT_CACHE)
    workers = n_workers()
    base = WORK_DIR / "fleet" / f"run-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    setups = []
    procs: list = []
    probe = SpeedProbe(cpu_time=True)
    try:
        with sampling(probe):
            for rep in range(setup_reps):
                state_dir = base / f"broker{rep}"
                state_dir.mkdir(parents=True)
                stamps, url, procs = start_fleet(state_dir, workers, f"s{rep}")
                setups.append(stamps)
                if rep < setup_reps - 1:
                    _stop(procs)
            client = BrokerClient(url)
            with instrument(tracer):
                start = time.perf_counter()
                try:
                    fleet = run_schedule(
                        url, specs, scale=FLEET_SCALE, cache_dir=GT_CACHE,
                        timeout_s=SCHEDULE_TIMEOUT_S,
                    )
                except RuntimeError as exc:  # a cell errored on a worker
                    raise CheckFailed(f"fleet cell failed: {exc}") from exc
                end = time.perf_counter()
        stats = client.stats()
        broker = _broker_metrics(client.metrics_text())
        rss = max(peak_rss_mb(p.pid) for p in procs[1:])
    finally:
        _stop(procs)
        shutil.rmtree(base, ignore_errors=True)

    exec_s = sum(w["busy_s"] for w in stats["workers"].values())
    report = {
        "setup_s": median(
            (t2 - t0) * probe.mean_speed(t0, t2) for t0, _t1, t2 in setups
        ),
        "fleet.worker_ready_s": median(
            (t2 - t1) * probe.mean_speed(t1, t2) for _t0, t1, t2 in setups
        ),
        "setup_samples": setup_reps,
        "run_s": (end - start) * probe.mean_speed(start, end),
        "run_s.raw": end - start,
        "speed": probe.mean_speed(start, end),
        "peak_rss_mb": rss,
        "fleet.exec_s": exec_s,
        "fleet.capacity_used": exec_s / (workers * (end - start)),
        "fleet.lease_expiries": stats["expiries"],
        "fleet.duplicate_completions": stats["duplicates"],
        **broker,
    }

    ref_probe = SpeedProbe()
    with instrument(tracer):
        cells = reference_cells(specs, repeats, tracer, ref_probe)
    decisions, bo_runs = [], []
    for spec, method, repeat, local, snapshots, calls, rec in cells:
        remote = fleet[spec.name][method][repeat]
        if not _same(local, remote):
            raise CheckFailed(
                f"{spec.name}/{method}/{repeat}: fleet outcome differs "
                "from the in-process harness"
            )
        if not local.result.history:
            continue  # offline-regression cell: no BO steps
        intervals = decision_intervals(calls, local.result.history, FLEET_SCALE.n_iter)
        decisions += [ref_probe.scaled(a, b) * 1e3 for a, b in intervals]
        if rec is not None:
            for a, b in intervals:
                tracer.insert("optimizer.decide", a, b, rec.id)
        bo_runs += [(snap, calls, local.result) for snap in snapshots]
    runs = [local for _s, _m, _r, local, *_ in cells]
    if not all(np.isfinite(r.adrs) for r in runs):
        raise CheckFailed("non-finite ADRS")
    report.update(
        {
            "decide_ms.p50": float(np.percentile(decisions, 50)),
            "decide_ms.p90": float(np.percentile(decisions, 90)),
            "decide_ms.samples": len(decisions),
            "adrs": sum(r.adrs for r in runs) / len(runs),
            "sim_tool_h": sum(r.runtime_s for r in runs) / len(runs) / 3600.0,
            "hlsim.flow_s": sum(b - a for *_x, calls, _ in cells for a, b in calls),
            "cells": len(runs),
        }
    )
    report.update(counters(bo_runs))
    report["attempted"] = len(runs)
    report["failed"] = (
        stats["expiries"] + stats["duplicates"]
        + report["resilience.degraded"]
    )
    report["failed_frac"] = report["failed"] / report["attempted"]
    report["histories"] = [history_key(r.result) for r in runs]
    report["learned"] = [r.result.pareto_indices() for r in runs]
    if tracer is not None:
        report.update(layer_metrics(tracer))
        report.update(_fleet_layers(tracer))
        contexts = [BenchmarkContext.get(s.benchmark) for s in specs]
        sweep_s = sum(
            cold_sweep(ctx.space, ctx.Y_true, ctx.valid) for ctx in contexts
        )
        report["hlsim.gt_sweep_s"] = sweep_s
        report["hlsim.sweep_configs_per_s"] = (
            sum(len(ctx.space) for ctx in contexts) / sweep_s
        )
        report["shares"] = decision_shares(tracer)
    return report


def _fleet_layers(tracer: Tracer) -> dict:
    submits = [s.dur * 1e3 for s in tracer.named("fleet.submit")]
    polls = tracer.named("fleet.result")
    return {
        "fleet.submit_ms.p50": float(np.median(submits)) if submits else 0.0,
        "fleet.result_polls": len(polls),
        "fleet.poll_hit_ratio": (
            sum(1 for s in polls if s.args.get("hit")) / len(polls)
            if polls else 0.0
        ),
    }
