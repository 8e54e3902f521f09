"""Shared plumbing of the repository benchmark.

Paths, thread pinning, the environment record, the run history and the
output-check exception.  Nothing here imports numpy at module load,
so :func:`pin_threads` can run before the first BLAS library is loaded.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of this dir).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Everything the benchmark writes: gtcache, traces, run history.
WORK_DIR = ROOT / ".bench_build" / "perfbench"

#: Environment variables that cap BLAS/OpenMP thread pools.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


#: Time the speed probe takes at the reference speed.  Every reported
#: time is a measured time scaled by ``PROBE_REF_MS`` over the probe's
#: local mean time, i.e. expressed at the reference speed.
PROBE_REF_MS = 2.5
#: Probes on each side of a moment whose mean time sets the local speed.
PROBE_WINDOW = 8


class CheckFailed(Exception):
    """An output check of the benchmark failed."""


class SpeedProbe:
    """A fixed CPU kernel timed between units of work.

    The machine is a few cores of a shared host whose speed drifts by
    up to 2x over minutes and by tens of percent between seconds, and
    the guest sees none of it as steal time.  The probe does a fixed
    mix of the work the BO does -- small Cholesky solves, a vectorised
    box-overlap scan, interpreter bookkeeping -- with inputs that never
    change, so its duration follows only the machine's speed.
    :meth:`scaled` turns a measured interval into seconds at the
    reference speed, using the mean time of the probes around it.
    The mean, not the median: when the core is time-sliced, a probe
    that lands in a pause takes longer by the pause, and only the mean
    charges such pauses at their true rate.

    With ``cpu_time`` the probe times itself by its thread's CPU time.
    That is for a probe on a thread beside work in other processes: the
    host's slowdowns still show in it, but not the time the guest's
    scheduler gives those processes instead of the probe.
    """

    def __init__(self, cpu_time: bool = False):
        import numpy as np

        rng = np.random.default_rng(2021)
        a = rng.standard_normal((48, 48))
        self._np = np
        self._spd = a @ a.T + 48 * np.eye(48)
        self._rhs = rng.standard_normal((48, 8))
        self._points = rng.standard_normal((96, 32, 1, 2))
        self._boxes = rng.standard_normal((16, 2))
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._cumsum = [0.0]
        self._clock = time.thread_time if cpu_time else time.perf_counter

    def __call__(self) -> None:
        np = self._np
        t0 = time.perf_counter()
        c0 = self._clock()
        for _ in range(6):
            low = np.linalg.cholesky(self._spd)
            np.linalg.solve(low, self._rhs)
        gain = np.maximum(self._boxes - self._points, 0.0).prod(axis=-1)
        gain.sum(axis=(1, 2)).argmax()
        tally: dict[int, float] = {}
        for i in range(1200):
            tally[i % 17] = tally.get(i % 17, 0.0) + i * 0.5
        self.record(t0, self._clock() - c0)

    def record(self, start: float, duration: float) -> None:
        self.starts.append(start)
        self.durations.append(duration)
        self._cumsum.append(self._cumsum[-1] + duration)

    def burst(self, n: int) -> None:
        """``n`` probes back to back, for intervals without probes inside."""
        for _ in range(n):
            self()

    def speed(self, t: float) -> float:
        """Machine speed around ``t`` relative to the reference speed:
        from the ``PROBE_WINDOW`` probes before ``t`` and as many after."""
        if not self.starts:
            raise CheckFailed("no speed probe was taken")
        k = bisect.bisect(self.starts, t)
        lo = max(0, k - PROBE_WINDOW)
        hi = min(len(self.starts), k + PROBE_WINDOW)
        mean = (self._cumsum[hi] - self._cumsum[lo]) / (hi - lo)
        return PROBE_REF_MS / (1e3 * mean)

    def mean_speed(self, a: float = -math.inf, b: float = math.inf) -> float:
        """Machine speed over the probes started in ``[a, b]`` (all by
        default), relative to the reference speed."""
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b)
        if hi <= lo:
            raise CheckFailed("no speed probe was taken")
        mean = (self._cumsum[hi] - self._cumsum[lo]) / (hi - lo)
        return PROBE_REF_MS / (1e3 * mean)

    def scaled(self, a: float, b: float) -> float:
        """Seconds of the interval ``[a, b]`` at the reference speed.

        The interval is cut at the probes inside it, whose own time is
        left out, and each piece is scaled by the local speed.
        """
        total = 0.0
        edge = a
        first = bisect.bisect_left(self.starts, a)
        for k in range(first, bisect.bisect_left(self.starts, b)):
            start = self.starts[k]
            total += (start - edge) * self.speed(0.5 * (edge + start))
            edge = min(b, start + self.durations[k])
        total += (b - edge) * self.speed(0.5 * (edge + b))
        return total


def pin_threads() -> None:
    """Pin BLAS/OpenMP to one thread here and in every child process.

    Must run before numpy is imported: the thread pools size themselves
    when the libraries load.  Children inherit the environment.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import ``repro`` from this checkout's ``src``; exit 2 if absent.

    An installed copy elsewhere must never stand in for the checkout's
    own program, so the import location is verified.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure: {SRC / 'repro'} is missing",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(
            f"perfbench: imported repro from {repro.__file__}, "
            f"not from {SRC}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return repro


def child_env() -> dict:
    """Environment for benchmark-spawned processes (broker, workers)."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS builds, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted(
                {
                    line.split()[-1]
                    for line in fh
                    if "openblas" in line.lower() and line.rstrip().endswith(".so")
                }
            )
    except OSError:
        return None
    counts = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(int(fn()))
                break
    return max(counts) if counts else None


def environment() -> dict:
    """nproc, BLAS threads and interpreter/library versions."""
    import numpy
    import scipy

    return {
        "nproc": cpu_count(),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count (VmHWM) from its current RSS."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for pid {pid}")


def append_history(record: dict) -> None:
    """Append one run summary to the checkout's run history."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with open(WORK_DIR / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_history() -> list[dict]:
    path = WORK_DIR / "runs.jsonl"
    if not path.is_file():
        return []
    out = []
    for line in path.read_text().splitlines():
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # a torn line from a killed run
    return out
