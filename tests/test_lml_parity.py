"""Exact parity of the tensor LML gradients with the per-block loops.

``GaussianProcess._neg_lml_and_grad`` and ``MultiTaskGP._neg_lml_and_grad``
evaluate every kernel gradient as one ``(1+d, n, n)`` tensor and reduce
all trace terms with row sums over contiguous products.  The functions
below are frozen copies of the loop implementations they replaced (one
``(n, n)`` gradient matrix per parameter, one ``np.sum`` per trace, an
``m x m`` Python loop over the blocks of ``W``).  The rewrite must match
them with ``==`` — not a tolerance — because any rounding change would
shift every warm-started BO trajectory downstream.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchsuite.registry import get_kernel
from repro.core import linalg
from repro.core.gp import JITTER, LOG_NOISE_BOUNDS, GaussianProcess
from repro.core.kernels import RBF, Matern52
from repro.core.multitask import MultiTaskGP, _kron2, _tril_indices
from repro.core.optimizer import CorrelatedMFBO, MFBOSettings
from repro.dse.space import DesignSpace
from repro.hlsim.flow import HlsFlow

# ----------------------------------------------------------------------
# frozen reference implementations
# ----------------------------------------------------------------------


def reference_with_gradients(kernel, X, theta, diffs=None):
    """Per-parameter list of ``dK/dtheta_k`` matrices (the old kernel API)."""
    dim = X.shape[1]
    sf2, ls = float(np.exp(theta[0])), np.exp(theta[1:])
    if diffs is None:
        diffs = X[:, None, :] - X[None, :, :]
    scaled = diffs / ls
    sq_per_dim = scaled * scaled
    sq = np.sum(sq_per_dim, axis=2)
    corr, dcorr_dsq = kernel._corr_and_grad(sq)
    K = sf2 * corr
    grads = [K.copy()]
    for k in range(dim):
        grads.append(sf2 * dcorr_dsq * (-2.0 * sq_per_dim[:, :, k]))
    return K, grads


def reference_gp_neg_lml_and_grad(self, theta, X, z, diffs=None):
    n, dim = X.shape
    K, kernel_grads = reference_with_gradients(
        self.kernel, X, theta[:-1], diffs=diffs
    )
    noise = math.exp(theta[-1])
    Kn = K.copy()
    Kn[np.diag_indices_from(Kn)] += noise + JITTER
    try:
        L = linalg.chol_factor(Kn)
    except np.linalg.LinAlgError:
        return 1e10, np.zeros_like(theta)
    alpha = linalg.counted_cho_solve(L, z)
    lml = (
        -0.5 * float(z @ alpha)
        - float(np.sum(np.log(np.diag(L))))
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    Kinv = linalg.counted_cho_solve(L, np.eye(n))
    W = np.outer(alpha, alpha) - Kinv
    grad = np.empty_like(theta)
    for k, dK in enumerate(kernel_grads):
        grad[k] = 0.5 * float(np.sum(W * dK))
    grad[-1] = 0.5 * noise * float(np.trace(W))
    return -lml, -grad


def reference_mt_neg_lml_and_grad(self, params, X, Z, diffs=None):
    n, dim = X.shape
    m = self.n_tasks
    theta_s, L, theta_p, log_noise = self._unpack(params, dim)
    Kx, shared_grads = reference_with_gradients(
        self.kernel, X, theta_s, diffs=diffs
    )
    B = L @ L.T
    K = _kron2(B, Kx)
    private_grads = []
    if self.private_processes:
        for t in range(m):
            Kp, grads_p = reference_with_gradients(
                self.kernel, X, theta_p[t], diffs=diffs
            )
            K[t * n : (t + 1) * n, t * n : (t + 1) * n] += Kp
            private_grads.append(grads_p)
    noise = np.exp(log_noise)
    K[np.diag_indices_from(K)] += np.repeat(noise, n) + JITTER
    try:
        Lc = linalg.chol_factor(K)
    except np.linalg.LinAlgError:
        return 1e10, np.zeros_like(params)
    z = Z.T.ravel()
    alpha = linalg.counted_cho_solve(Lc, z)
    lml = (
        -0.5 * float(z @ alpha)
        - float(np.sum(np.log(np.diag(Lc))))
        - 0.5 * n * m * math.log(2.0 * math.pi)
    )
    Kinv = linalg.counted_cho_solve(Lc, np.eye(n * m))
    W = np.outer(alpha, alpha) - Kinv

    T = np.empty((m, m))
    Wb = np.zeros((n, n))
    W_diag_blocks = []
    for i in range(m):
        W_diag_blocks.append(W[i * n : (i + 1) * n, i * n : (i + 1) * n])
        for j in range(m):
            Wij = W[i * n : (i + 1) * n, j * n : (j + 1) * n]
            T[i, j] = float(np.sum(Wij * Kx))
            Wb += B[i, j] * Wij

    grad = np.empty_like(params)
    nk = self._nk(dim)
    for k, dKx in enumerate(shared_grads):
        grad[k] = 0.5 * float(np.sum(Wb * dKx))
    grad_L = T @ L
    rows, cols = _tril_indices(m)
    nl = len(rows)
    grad[nk : nk + nl] = grad_L[rows, cols]
    offset = nk + nl
    if self.private_processes:
        for t in range(m):
            Wtt = W_diag_blocks[t]
            for k, dKp in enumerate(private_grads[t]):
                grad[offset + t * nk + k] = 0.5 * float(np.sum(Wtt * dKp))
        offset += m * nk
    for t in range(m):
        grad[offset + t] = 0.5 * noise[t] * float(np.trace(W_diag_blocks[t]))
    return -lml, -grad


# ----------------------------------------------------------------------
# oracle: random shapes and in-bounds parameters
# ----------------------------------------------------------------------

KERNELS = {"rbf": RBF, "matern52": Matern52}


def _draw_inputs(seed, n, d, m):
    rng = np.random.default_rng(seed)
    # Binary/ordinal-looking features like the encoded design spaces,
    # with repeated rows (zero distances) mixed in.
    X = rng.integers(0, 4, size=(n, d)) / 3.0
    X[: n // 2] = rng.uniform(size=(n // 2, d))
    Z = rng.normal(size=(n, m))
    return rng, X, Z


def _in_bounds(rng, bounds):
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return lo + (hi - lo) * rng.uniform(size=lo.shape)


def _assert_identical(got, want):
    assert got[0] == want[0]
    assert got[1].shape == want[1].shape
    assert np.array_equal(got[1], want[1]), np.max(np.abs(got[1] - want[1]))


shapes = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(2, 130),
    st.integers(1, 20),
    st.sampled_from(sorted(KERNELS)),
)


class TestOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=shapes,
        m=st.integers(1, 3),
        private=st.booleans(),
        diffs=st.booleans(),
    )
    def test_multitask_matches_loop_reference(self, shape, m, private, diffs):
        seed, n, d, kname = shape
        rng, X, Z = _draw_inputs(seed, n, d, m)
        mt = MultiTaskGP(m, kernel=KERNELS[kname](), private_processes=private)
        params = _in_bounds(rng, mt._bounds(d))
        pd = mt.kernel.pairwise_diffs(X) if diffs else None
        _assert_identical(
            mt._neg_lml_and_grad(params, X, Z, pd),
            reference_mt_neg_lml_and_grad(mt, params, X, Z, pd),
        )

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes, diffs=st.booleans())
    def test_gp_matches_loop_reference(self, shape, diffs):
        seed, n, d, kname = shape
        rng, X, Z = _draw_inputs(seed, n, d, 1)
        gp = GaussianProcess(kernel=KERNELS[kname]())
        theta = _in_bounds(rng, gp.kernel.bounds(d) + [LOG_NOISE_BOUNDS])
        pd = gp.kernel.pairwise_diffs(X) if diffs else None
        _assert_identical(
            gp._neg_lml_and_grad(theta, X, Z[:, 0], pd),
            reference_gp_neg_lml_and_grad(gp, theta, X, Z[:, 0], pd),
        )

    @pytest.mark.parametrize("n, d", [(6, 14), (27, 17), (91, 3), (130, 19)])
    def test_gemm_shapes_and_reduction_buffer(self, n, d):
        # GEMM's per-level shapes, and n > 90, where n*n crosses numpy's
        # 8192-element reduction buffer.  Parameters near the default
        # init factorize, so the traces are compared, not the 1e10
        # failure sentinel.
        rng, X, Z = _draw_inputs(n * 100 + d, n, d, 3)
        mt = MultiTaskGP(3)
        bounds = np.array(mt._bounds(d))
        params = np.clip(
            mt._default_init(Z, d) + rng.normal(0.0, 0.4, size=len(bounds)),
            bounds[:, 0], bounds[:, 1],
        )
        got = mt._neg_lml_and_grad(params, X, Z)
        assert got[0] < 1e10
        _assert_identical(got, reference_mt_neg_lml_and_grad(mt, params, X, Z))


class TestKernelTensor:
    @pytest.mark.parametrize("kernel_cls", [RBF, Matern52])
    def test_batched_rows_equal_single_rows(self, kernel_cls):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(9, 5))
        thetas = rng.uniform(-2.0, 2.0, size=(4, 6))
        kernel = kernel_cls()
        K, G = kernel.with_gradients(X, thetas)
        assert K.shape == (4, 9, 9) and G.shape == (4, 6, 9, 9)
        for p, theta in enumerate(thetas):
            K1, G1 = kernel.with_gradients(X, theta)
            Kr, grads = reference_with_gradients(kernel, X, theta)
            assert np.array_equal(K[p], K1) and np.array_equal(K1, Kr)
            assert np.array_equal(G[p], G1)
            assert np.array_equal(G1, np.stack(grads))

    def test_k_is_not_a_view_of_the_gradient(self):
        X = np.random.default_rng(4).uniform(size=(4, 2))
        K, G = RBF().with_gradients(X, np.zeros(3))
        K += 1.0
        assert not np.array_equal(K, G[0])

    def test_rejects_wrong_row_length(self):
        with pytest.raises(ValueError, match="parameters"):
            RBF().with_gradients(np.zeros((3, 2)), np.zeros(4))


# ----------------------------------------------------------------------
# trajectory parity: a BO run is unchanged by the rewrite
# ----------------------------------------------------------------------


def _history(result):
    return [
        (
            r.step, r.config_index, int(r.fidelity),
            np.float64(r.acquisition).tobytes(), r.runtime_s,
            r.objectives.tobytes(), r.valid,
        )
        for r in result.history
    ]


def test_gemm_trajectory_matches_loop_reference(monkeypatch):
    space = DesignSpace.from_kernel(get_kernel("gemm"))
    mfbo = MFBOSettings(n_init=(6, 4, 2), n_iter=4, seed=3)

    def run():
        opt = CorrelatedMFBO(space, HlsFlow.for_space(space), mfbo)
        return opt.run(), opt.metrics

    tensor, tensor_metrics = run()
    monkeypatch.setattr(
        MultiTaskGP, "_neg_lml_and_grad", reference_mt_neg_lml_and_grad
    )
    loop, loop_metrics = run()
    assert _history(tensor) == _history(loop)
    # Every BO step carries a finite acquisition value, compared above.
    scored = [r for r in tensor.history if np.isfinite(r.acquisition)]
    assert len(scored) == mfbo.n_iter
    # The work counters are part of the contract: same evaluations,
    # same iterations.
    for key in ("fit_lml_evals", "fit_lbfgs_iters"):
        assert tensor_metrics.count(key) == loop_metrics.count(key) > 0
