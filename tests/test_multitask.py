"""Tests for the correlated multi-objective GP (repro.core.multitask)."""

import numpy as np
import pytest
from scipy.optimize import approx_fprime

from repro.core.multitask import IndependentMultiObjectiveGP, MultiTaskGP


@pytest.fixture
def correlated_data():
    """Three objectives: #1 and #2 perfectly anti-correlated, #3 private."""
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(30, 3))
    base = np.sin(4 * X[:, 0]) + X[:, 1]
    Y = np.column_stack([
        base + 0.02 * rng.normal(size=30),
        -base + 0.02 * rng.normal(size=30),
        np.cos(5 * X[:, 2]) + 0.02 * rng.normal(size=30),
    ])
    return X, Y


class TestMultiTaskGP:
    def test_gradients_match_numeric(self, correlated_data):
        X, Y = correlated_data
        mt = MultiTaskGP(3, rng=np.random.default_rng(1))
        Z = (Y - Y.mean(0)) / Y.std(0)
        p0 = mt._default_init(Z, X.shape[1])
        f = lambda p: mt._neg_lml_and_grad(p, X, Z)[0]
        numeric = approx_fprime(p0, f, 1e-6)
        _, analytic = mt._neg_lml_and_grad(p0, X, Z)
        rel = np.abs(numeric - analytic) / (1.0 + np.abs(numeric))
        assert rel.max() < 1e-3

    def test_gradients_without_private(self, correlated_data):
        X, Y = correlated_data
        mt = MultiTaskGP(3, rng=np.random.default_rng(1), private_processes=False)
        Z = (Y - Y.mean(0)) / Y.std(0)
        p0 = mt._default_init(Z, X.shape[1])
        f = lambda p: mt._neg_lml_and_grad(p, X, Z)[0]
        numeric = approx_fprime(p0, f, 1e-6)
        _, analytic = mt._neg_lml_and_grad(p0, X, Z)
        rel = np.abs(numeric - analytic) / (1.0 + np.abs(numeric))
        assert rel.max() < 1e-3

    def test_learns_anticorrelation(self, correlated_data):
        X, Y = correlated_data
        mt = MultiTaskGP(3, rng=np.random.default_rng(0)).fit(X, Y)
        corr = mt.task_correlation()
        assert corr[0, 1] < -0.5
        assert abs(corr[0, 2]) < 0.6

    def test_prediction_quality(self, correlated_data):
        X, Y = correlated_data
        rng = np.random.default_rng(2)
        mt = MultiTaskGP(3, rng=rng).fit(X, Y)
        Xs = rng.uniform(size=(60, 3))
        truth = np.column_stack([
            np.sin(4 * Xs[:, 0]) + Xs[:, 1],
            -(np.sin(4 * Xs[:, 0]) + Xs[:, 1]),
            np.cos(5 * Xs[:, 2]),
        ])
        mu, _ = mt.predict(Xs)
        for t in range(3):
            assert np.corrcoef(mu[:, t], truth[:, t])[0, 1] > 0.85

    def test_posterior_cov_psd_and_correlated(self, correlated_data):
        X, Y = correlated_data
        mt = MultiTaskGP(3, rng=np.random.default_rng(0)).fit(X, Y)
        Xs = np.random.default_rng(3).uniform(size=(10, 3))
        mean, cov = mt.predict(Xs)
        assert mean.shape == (10, 3)
        assert cov.shape == (10, 3, 3)
        for c in cov:
            assert np.allclose(c, c.T)
            assert np.linalg.eigvalsh(c).min() > -1e-8

    def test_marginals_match_cov_diagonal(self, correlated_data):
        X, Y = correlated_data
        mt = MultiTaskGP(3, rng=np.random.default_rng(0)).fit(X, Y)
        Xs = X[:5]
        _, cov = mt.predict(Xs)
        _, var = mt.predict_marginals(Xs)
        assert np.allclose(var, cov[:, np.arange(3), np.arange(3)])

    def test_matches_independent_gp_quality(self, correlated_data):
        """Private residuals must prevent the classic ICM underfit."""
        X, Y = correlated_data
        rng = np.random.default_rng(4)
        Xs = rng.uniform(size=(60, 3))
        mt = MultiTaskGP(3, rng=np.random.default_rng(0)).fit(X, Y)
        indep = IndependentMultiObjectiveGP(3, rng=np.random.default_rng(0)).fit(X, Y)
        mu_mt, _ = mt.predict(Xs)
        mu_in, _ = indep.predict(Xs)
        truth3 = np.cos(5 * Xs[:, 2])
        corr_mt = np.corrcoef(mu_mt[:, 2], truth3)[0, 1]
        corr_in = np.corrcoef(mu_in[:, 2], truth3)[0, 1]
        assert corr_mt > corr_in - 0.1

    def test_refit_without_optimize(self, correlated_data):
        X, Y = correlated_data
        mt = MultiTaskGP(3, rng=np.random.default_rng(0)).fit(X, Y)
        params = mt.params()
        mt.fit(X[:20], Y[:20], optimize=False)
        assert np.allclose(mt.params(), params)

    def test_rejects_bad_shapes(self):
        mt = MultiTaskGP(3)
        with pytest.raises(ValueError, match="objectives"):
            mt.fit(np.zeros((5, 2)), np.zeros((5, 2)))
        with pytest.raises(ValueError, match="sample count"):
            mt.fit(np.zeros((5, 2)), np.zeros((4, 3)))

    def test_single_task_fit_and_predict(self, correlated_data):
        # np.corrcoef of one task is 0-d; the default init must cope.
        X, Y = correlated_data
        mt = MultiTaskGP(1, rng=np.random.default_rng(0)).fit(X, Y[:, :1])
        mean, cov = mt.predict(X[:5])
        assert mean.shape == (5, 1) and cov.shape == (5, 1, 1)
        assert np.all(cov > 0)
        assert np.abs(mean[:, 0] - Y[:5, 0]).max() < 0.2
        assert np.isfinite(mt.log_marginal_likelihood())

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            MultiTaskGP(2).predict(np.zeros((1, 2)))

    def test_lml_finite(self, correlated_data):
        X, Y = correlated_data
        mt = MultiTaskGP(3, rng=np.random.default_rng(0)).fit(X, Y)
        assert np.isfinite(mt.log_marginal_likelihood())


class TestIndependentMultiObjectiveGP:
    def test_diagonal_covariance(self, correlated_data):
        X, Y = correlated_data
        model = IndependentMultiObjectiveGP(3, rng=np.random.default_rng(0))
        model.fit(X, Y)
        _, cov = model.predict(X[:4])
        off = cov.copy()
        off[:, np.arange(3), np.arange(3)] = 0.0
        assert np.allclose(off, 0.0)

    def test_identity_task_correlation(self):
        model = IndependentMultiObjectiveGP(3)
        assert np.allclose(model.task_correlation(), np.eye(3))

    def test_is_fitted(self, correlated_data):
        X, Y = correlated_data
        model = IndependentMultiObjectiveGP(3, rng=np.random.default_rng(0))
        assert not model.is_fitted
        model.fit(X, Y)
        assert model.is_fitted

    def test_init_params_propagate_to_tasks(self, correlated_data):
        X, Y = correlated_data
        ref = IndependentMultiObjectiveGP(3, rng=np.random.default_rng(0))
        ref.fit(X, Y)
        fitted = np.stack([m.theta for m in ref.models])

        # optimize=False must *recondition at* the supplied params, not
        # silently fall back to each task's defaults.
        model = IndependentMultiObjectiveGP(3, rng=np.random.default_rng(1))
        model.fit(X, Y, optimize=False, init_params=fitted)
        for t, task_model in enumerate(model.models):
            assert np.array_equal(task_model.theta, fitted[t])

        # The flat concatenation of the per-task rows is accepted too.
        flat = IndependentMultiObjectiveGP(3, rng=np.random.default_rng(2))
        flat.fit(X, Y, optimize=False, init_params=fitted.ravel())
        for t, task_model in enumerate(flat.models):
            assert np.array_equal(task_model.theta, fitted[t])

    def test_init_params_bad_shape_raises(self, correlated_data):
        X, Y = correlated_data
        model = IndependentMultiObjectiveGP(3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="init_params"):
            model.fit(X, Y, init_params=np.zeros((2, 5)))
        with pytest.raises(ValueError, match="per-task"):
            model.fit(X, Y, init_params=np.zeros(7))
