"""Microbenchmarks of the core numerical primitives.

These time the inner-loop costs that dominate every BO experiment:
GP / multi-task-GP fitting, one LML+gradient evaluation at the GEMM
run's shapes, posterior prediction, hypervolume and the Monte-Carlo
EIPV estimator.  Useful for catching performance regressions in the
math kernels.  ``--benchmark-disable`` runs each body once as a smoke
test.
"""

import numpy as np
import pytest

from repro.core.acquisition import eipv_mc
from repro.core.gp import GaussianProcess
from repro.core.multitask import MultiTaskGP
from repro.core.pareto import dominated_boxes, hvi_batch, hypervolume, pareto_front


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(50, 12))
    Y = np.column_stack([
        np.sin(3 * X[:, 0]) + X[:, 1],
        X[:, 2] * X[:, 3] + 0.3 * X[:, 0],
        np.cos(2 * X[:, 4]),
    ])
    return X, Y


def test_gp_fit(benchmark, data):
    X, Y = data
    benchmark(
        lambda: GaussianProcess(rng=np.random.default_rng(0)).fit(X, Y[:, 0])
    )


def test_multitask_fit(benchmark, data):
    X, Y = data
    benchmark.pedantic(
        lambda: MultiTaskGP(3, rng=np.random.default_rng(0)).fit(X, Y),
        rounds=3, iterations=1,
    )


@pytest.mark.parametrize("n, d", [(6, 14), (6, 17), (27, 14), (27, 17)])
def test_multitask_lml_grad(benchmark, n, d):
    """One ``_neg_lml_and_grad`` call at a GEMM refit's shape (m = 3).

    GEMM's encoded space has 14-17 features; upper fidelity levels
    hold ~6 points during a run and the lowest up to ~27.
    """
    rng = np.random.default_rng(n * 100 + d)
    X = rng.uniform(size=(n, d))
    Z = rng.normal(size=(n, 3))
    model = MultiTaskGP(3)
    params = model._default_init(Z, d)
    diffs = model.kernel.pairwise_diffs(X)
    value, grad = benchmark(
        lambda: model._neg_lml_and_grad(params, X, Z, diffs)
    )
    assert np.isfinite(value) and np.isfinite(grad).all()


@pytest.mark.parametrize("n", [6, 27])
def test_gp_lml_grad(benchmark, n):
    """Single-output counterpart (FPL18 / independent-objective fits)."""
    rng = np.random.default_rng(n)
    X = rng.uniform(size=(n, 14))
    z = rng.normal(size=n)
    model = GaussianProcess()
    theta = np.zeros(16)
    diffs = model.kernel.pairwise_diffs(X)
    value, grad = benchmark(
        lambda: model._neg_lml_and_grad(theta, X, z, diffs)
    )
    assert np.isfinite(value) and np.isfinite(grad).all()


def test_multitask_predict(benchmark, data):
    X, Y = data
    model = MultiTaskGP(3, rng=np.random.default_rng(0)).fit(X, Y)
    Xs = np.random.default_rng(1).uniform(size=(256, 12))
    benchmark(lambda: model.predict(Xs))


def test_hypervolume_3d(benchmark):
    rng = np.random.default_rng(2)
    front = pareto_front(rng.uniform(size=(60, 3)))
    ref = np.full(3, 1.3)
    benchmark(lambda: hypervolume(front, ref))


def test_hvi_batch(benchmark):
    rng = np.random.default_rng(3)
    front = pareto_front(rng.uniform(size=(60, 3)))
    ref = np.full(3, 1.3)
    boxes = dominated_boxes(front, ref)
    samples = rng.uniform(0, 1.3, size=(4096, 3))
    benchmark(lambda: hvi_batch(samples, front, ref, boxes=boxes))


def test_eipv_mc(benchmark):
    rng = np.random.default_rng(4)
    front = pareto_front(rng.uniform(size=(40, 3)))
    ref = np.full(3, 1.3)
    means = rng.uniform(size=(192, 3))
    covs = np.empty((192, 3, 3))
    for i in range(192):
        A = 0.1 * rng.normal(size=(3, 3))
        covs[i] = A @ A.T + 1e-4 * np.eye(3)
    boxes = dominated_boxes(front, ref)
    benchmark(
        lambda: eipv_mc(
            means, covs, front, ref,
            rng=np.random.default_rng(0), n_samples=64, boxes=boxes,
        )
    )
