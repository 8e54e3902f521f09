"""Counted dense Cholesky primitives for the GP stack.

Two jobs in one module:

- **Block Cholesky extension** (:func:`chol_extend`).  For a grown
  covariance matrix

      K_new = [[K_old, B],
               [B^T,   D]]

  with ``K_old = L_old L_old^T`` already factorized, the factor of
  ``K_new`` is

      L_new = [[L_old, 0  ],
               [C^T,   L_k]],   C = L_old^{-1} B,
                                L_k L_k^T = D - C^T C  (Schur complement)

  costing ``n^2 k + n k^2 + k^3/3`` flops instead of the full
  ``(n+k)^3 / 3`` refactorization — the identity behind incremental
  ``fit(optimize=False)`` conditioning in :mod:`repro.core.gp` and
  :mod:`repro.core.multitask`.  When the Schur complement is not
  numerically positive definite (accumulated roundoff after many
  extensions), :class:`numpy.linalg.LinAlgError` propagates and callers
  fall back to a full refactorization.

- **A deterministic work proxy** (:data:`FLOPS`).  Every factorization
  and extension routed through this module increments a global flop
  counter.  Counted flops depend only on matrix sizes — never on core
  count, machine load or clock resolution — so the perf gates in
  ``benchmarks/*.py`` can arm on them even on a 1-CPU CI runner where
  wall-clock speedup assertions are meaningless.  The same counter
  also tallies the hyperparameter optimizer's work
  (:func:`repro.core.restarts.minimize_multistart`): LML evaluations
  (``lml_evals``) and L-BFGS iterations (``lbfgs_iters``).

The wrapped factorization is plain :func:`scipy.linalg.cholesky`, so
routing through :func:`chol_factor` is bitwise neutral.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

__all__ = [
    "FLOPS",
    "FlopCounter",
    "chol_factor",
    "chol_extend",
    "counted_cho_solve",
    "counted_solve_triangular",
    "factor_flops",
    "extend_flops",
    "metered",
]


def factor_flops(n: int) -> int:
    """Flops of a full ``n x n`` Cholesky factorization (``n^3 / 3``)."""
    return n * n * n // 3


def extend_flops(n_old: int, k: int) -> int:
    """Flops of extending an ``n_old``-row factor by ``k`` rows."""
    return n_old * n_old * k + n_old * k * k + k * k * k // 3


class FlopCounter:
    """Thread-safe counters for factorization/solve and MLE work.

    One process-global instance (:data:`FLOPS`) is shared by every GP;
    callers snapshot before/after a region and difference the dicts,
    mirroring :meth:`repro.obs.timing.Metrics.snapshot`.
    """

    _KEYS = (
        "factor_flops",
        "extend_flops",
        "solve_flops",
        "factorizations",
        "extensions",
        "lml_evals",
        "lbfgs_iters",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = {k: 0 for k in self._KEYS}

    def add(self, key: str, flops: int) -> None:
        with self._lock:
            self._counts[key] += int(flops)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    @staticmethod
    def delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
        return {k: after.get(k, 0) - before.get(k, 0) for k in after}

    def reset(self) -> None:
        with self._lock:
            for k in self._counts:
                self._counts[k] = 0


#: Process-global work counter (the benchmarks' deterministic proxy).
FLOPS = FlopCounter()


def chol_factor(K: np.ndarray) -> np.ndarray:
    """Counted lower-Cholesky factorization (bitwise = scipy's)."""
    n = K.shape[0]
    FLOPS.add("factor_flops", factor_flops(n))
    FLOPS.add("factorizations", 1)
    return cholesky(K, lower=True)


def chol_extend(L_old: np.ndarray, B: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Extend a lower-Cholesky factor by the new rows' blocks.

    ``B`` is the ``(n_old, k)`` cross-covariance between old and new
    rows, ``D`` the ``(k, k)`` covariance of the new rows (noise and
    jitter already on its diagonal).  Raises
    :class:`numpy.linalg.LinAlgError` when the Schur complement is not
    positive definite — the caller's cue to refactorize from scratch.
    """
    n_old = L_old.shape[0]
    k = D.shape[0]
    if B.shape != (n_old, k):
        raise ValueError(
            f"cross block has shape {B.shape}, expected {(n_old, k)}"
        )
    C = solve_triangular(L_old, B, lower=True)  # (n_old, k)
    S = D - C.T @ C
    # numpy's cholesky raises LinAlgError on indefinite input; scipy's
    # raises its own subclass of it.  Either propagates to the caller.
    L_k = cholesky(S, lower=True)
    FLOPS.add("extend_flops", extend_flops(n_old, k))
    FLOPS.add("extensions", 1)
    n = n_old + k
    L = np.zeros((n, n))
    L[:n_old, :n_old] = L_old
    L[n_old:, :n_old] = C.T
    L[n_old:, n_old:] = L_k
    return L


@contextmanager
def metered(metrics, prefix: str):
    """Credit the block's flop deltas to ``metrics`` as ``{prefix}_*``.

    ``metrics`` is any object with ``incr(name, by)`` (in practice
    :class:`repro.obs.timing.Metrics`).  Zero deltas are skipped, so
    unused buckets never appear in snapshots.
    """
    before = FLOPS.snapshot()
    try:
        yield
    finally:
        for key, value in FlopCounter.delta(before, FLOPS.snapshot()).items():
            if value:
                metrics.incr(f"{prefix}_{key}", value)


def counted_cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Counted ``(L L^T)^{-1} b`` (bitwise = scipy's ``cho_solve``)."""
    n = L.shape[0]
    nrhs = 1 if b.ndim == 1 else b.shape[1]
    FLOPS.add("solve_flops", 2 * n * n * nrhs)
    return cho_solve((L, True), b)


def counted_solve_triangular(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Counted ``L^{-1} B`` forward solve (bitwise = scipy's).

    One triangular solve is ``n^2`` flops per right-hand side.  Routes
    the GP *predict* path's solves through the global counter so the
    acquisition sweep's linear-algebra work shows up in the same
    ``fit_``/``commit_``/``fantasy_`` buckets :func:`metered` credits.
    """
    n = L.shape[0]
    nrhs = 1 if B.ndim == 1 else B.shape[1]
    FLOPS.add("solve_flops", n * n * nrhs)
    return solve_triangular(L, B, lower=True)
