"""Deterministic multi-start dispatch for L-BFGS-B hyperparameter fits.

``GaussianProcess`` and ``MultiTaskGP`` maximize the log marginal
likelihood from several start points (the incumbent plus jittered
restarts).  The descents are independent, so when ``n_restarts > 1``
they can run in a process pool — this module fans them out while
keeping the selected optimum **identical** to the sequential loop:

- the start list is built by the caller (same RNG draws either way);
- every descent runs the same ``scipy.optimize.minimize`` call;
- the winner is picked by replaying the sequential reduction — a
  strict ``fun < best`` scan *in start order* — over the gathered
  results, so ties resolve exactly as they would sequentially.

Parallelism is opt-in: pass ``workers`` explicitly or set the
``REPRO_RESTART_WORKERS`` environment variable (default 1 keeps the
single-process behavior; the BO refit pattern mostly runs warm-started
single descents where a pool would only add overhead).  If the pool
cannot be used (unpicklable objective, broken worker), the dispatch
silently falls back to the sequential loop — results are identical
either way.

Pool reuse: a fit-heavy run calls :func:`minimize_multistart` hundreds
of times, and building a fresh ``ProcessPoolExecutor`` per call costs
more than the descents it runs.  Pools are therefore created lazily,
one per requested worker count, and reused across calls; they are torn
down at interpreter exit (``atexit``) or explicitly via
:func:`shutdown_restart_pools`.  A pool that raises is discarded (its
replacement is rebuilt on the next call) and the affected dispatch
falls back to the sequential loop.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from repro.core.linalg import FLOPS

#: Environment variable holding the default pool size (unset/1 = off).
RESTART_WORKERS_ENV = "REPRO_RESTART_WORKERS"


def resolve_workers(workers: int | None) -> int:
    """Explicit argument, else ``$REPRO_RESTART_WORKERS``, else 1."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(RESTART_WORKERS_ENV, "").strip()
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def _descend(
    fun: Callable[..., tuple[float, np.ndarray]],
    start: np.ndarray,
    args: tuple,
    bounds: Sequence[tuple[float, float]],
    maxiter: int,
) -> tuple[float, np.ndarray, int, int]:
    """One L-BFGS-B descent (module-level: picklable worker body).

    Returns ``(fun, x, nfev, nit)``: the optimum plus the objective
    evaluations and iterations it took.
    """
    result = minimize(
        fun,
        start,
        args=args,
        jac=True,
        method="L-BFGS-B",
        bounds=list(bounds),
        options={"maxiter": maxiter},
    )
    return (
        float(result.fun), np.asarray(result.x, dtype=float),
        int(result.nfev), int(result.nit),
    )


def minimize_multistart(
    fun: Callable[..., tuple[float, np.ndarray]],
    starts: Sequence[np.ndarray],
    args: tuple,
    bounds: Sequence[tuple[float, float]],
    maxiter: int,
    workers: int | None = None,
    fallback: np.ndarray | None = None,
) -> np.ndarray:
    """Best-of-``starts`` minimizer, optionally fanning descents out.

    Returns the ``x`` of the in-order first descent achieving the
    strictly smallest objective; ``fallback`` (default ``starts[0]``)
    if every descent reports a non-finite/huge objective — matching the
    sequential loops this replaces bit for bit.

    The descents' objective evaluations and L-BFGS iterations are
    credited to :data:`repro.core.linalg.FLOPS` (``lml_evals``,
    ``lbfgs_iters``), so :func:`repro.core.linalg.metered` reports them
    per refit; the counts are the same at any worker count.
    """
    starts = [np.asarray(s, dtype=float) for s in starts]
    if not starts:
        raise ValueError("need at least one start point")
    if fallback is None:
        fallback = starts[0]
    workers = resolve_workers(workers)

    results: list[tuple[float, np.ndarray, int, int]] | None = None
    if workers > 1 and len(starts) > 1:
        results = _descend_parallel(
            fun, starts, args, bounds, maxiter, workers
        )
    if results is None:  # sequential mode, or pool fallback
        results = [
            _descend(fun, start, args, bounds, maxiter) for start in starts
        ]

    FLOPS.add("lml_evals", sum(r[2] for r in results))
    FLOPS.add("lbfgs_iters", sum(r[3] for r in results))
    best_x = np.asarray(fallback, dtype=float)
    best_val = math.inf
    for val, x, _nfev, _nit in results:  # the sequential selection scan
        if val < best_val:
            best_val, best_x = val, x
    return best_x


#: Lazily-created shared pools, one per requested worker count.
_SHARED_POOLS: dict[int, ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()
_ATEXIT_REGISTERED = False


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    """The reusable pool for ``workers``, created on first use."""
    global _ATEXIT_REGISTERED
    with _POOLS_LOCK:
        pool = _SHARED_POOLS.get(workers)
        if pool is None:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
            _SHARED_POOLS[workers] = pool
            if not _ATEXIT_REGISTERED:
                atexit.register(shutdown_restart_pools)
                _ATEXIT_REGISTERED = True
        return pool


def _discard_pool(workers: int) -> None:
    """Drop (and shut down) a pool that raised; rebuilt on next use."""
    with _POOLS_LOCK:
        pool = _SHARED_POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_restart_pools() -> None:
    """Shut down every shared restart pool (idempotent; atexit hook)."""
    with _POOLS_LOCK:
        pools = list(_SHARED_POOLS.values())
        _SHARED_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


def _descend_parallel(
    fun: Callable[..., tuple[float, np.ndarray]],
    starts: list[np.ndarray],
    args: tuple,
    bounds: Sequence[tuple[float, float]],
    maxiter: int,
    workers: int,
) -> list[tuple[float, np.ndarray, int, int]] | None:
    """All descents through the shared pool, results in start order.

    Returns ``None`` when the pool cannot run the objective (e.g. an
    unpicklable closure) so the caller falls back to sequential; the
    pool itself is discarded on failure, so a transient breakage never
    wedges later calls.
    """
    try:
        pool = _shared_pool(workers)
        futures = [
            pool.submit(_descend, fun, start, args, bounds, maxiter)
            for start in starts
        ]
        return [future.result() for future in futures]
    except Exception:
        _discard_pool(workers)
        return None


__all__ = [
    "RESTART_WORKERS_ENV",
    "minimize_multistart",
    "resolve_workers",
    "shutdown_restart_pools",
]
