import itertools
import math

import numpy as np
import pytest

from mudal import bounds
from mudal.bounds import (BoundReport, complexity_ratio, empirical_bound, hoeffding_term,
                          verify_optimal_beta)
from mudal.data import MultiDomainDataset, init_pool
from mudal.models import ModelBundle
from mudal.nn import DenseNet, Layer
from mudal.simplex import BudgetLedger, project_simplex
from test_objective import classifier_pass_of


def onehot_dataset(n_domains=2, per=12, n_classes=2):
    """Features are scaled one-hot labels, identical across domains."""
    feats, labels = [], []
    for _ in range(n_domains):
        y = np.arange(per) % n_classes
        x = np.zeros((per, n_classes))
        x[np.arange(per), y] = 10.0
        feats.append(x)
        labels.append(y.astype(np.int64))
    return MultiDomainDataset([f.copy() for f in feats], [l.copy() for l in labels],
                              [f.copy() for f in feats], [l.copy() for l in labels],
                              n_classes)


def passthrough_bundle(c=2, n_domains=2, disc_zero=True):
    eye = lambda: Layer(np.eye(c), np.zeros(c), "identity")
    encoder = DenseNet([eye()])
    classifier = DenseNet([eye(), eye()])
    heads = [Layer(np.eye(c), np.zeros(c), "identity") for _ in range(n_domains)]
    rng = np.random.default_rng(0)
    disc = DenseNet.create([c, 4, n_domains], ["leaky_relu", "identity"], rng)
    if disc_zero:
        for layer in disc.layers:
            layer.W[...] = 0.0
            layer.b[...] = 0.0
    return ModelBundle(encoder, classifier, heads, disc, n_domains)


def bound_of(bundle, ds, pool, alpha):
    """The bound from one encode of each labeled domain and, with a
    discriminator, of each domain's train rows, as the harness reads it, at
    round 0 of a ledger that starts from the pool's counts."""
    counts = pool.counts()
    ledger = BudgetLedger(int(counts.sum()), 1, counts)
    lab_z = [bundle.encode(pool.labeled_features(j)) for j in range(ds.n_domains)]
    lab_labels = [pool.labels(j) for j in range(ds.n_domains)]
    orig_z = None
    if bundle.discriminator is not None:
        orig_z = [bundle.encode(x) for x in ds.train_features]
    return empirical_bound(bundle, ledger, 0, alpha, lab_z, lab_labels, orig_z)


def simplex_grid(n, steps):
    """Every point of the n-simplex whose coordinates are multiples of 1/steps."""
    cuts = itertools.combinations(range(steps + n - 1), n - 1)
    bars = np.array([(-1, *c, steps + n - 1) for c in cuts])
    return (np.diff(bars, axis=1) - 1) / steps


def grid_minimum(alpha, steps):
    """The least complexity ratio over the 1/steps grid, by brute force; cells
    with beta_j = 0 where alpha_j > 0 are excluded."""
    grid = simplex_grid(alpha.size, steps)
    grid = grid[~np.any((grid == 0) & (alpha > 0), axis=1)]
    with np.errstate(divide="ignore"):
        inv = np.where(grid > 0, 1.0 / grid, 0.0)
    return float(np.min(inv @ alpha ** 2))


class TestHoeffdingTerm:
    def test_beta_equals_alpha_closed_form(self):
        alpha = np.array([0.3, 0.45, 0.25])
        term = hoeffding_term(alpha, alpha, 100)
        expected = 2.0 * math.sqrt((2.0 * math.log(202.0) + math.log(80.0)) / 100.0)
        np.testing.assert_allclose(term, expected, atol=1e-12)

    def test_uniform_alpha_uniform_beta_same_value(self):
        uni = np.full(4, 0.25)
        a = hoeffding_term(uni, uni, 100)
        alpha = np.array([0.1, 0.2, 0.3, 0.4])
        b = hoeffding_term(alpha, alpha, 100)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_spot_value_hand_evaluation(self):
        # ratio = 0.64/0.5 + 0.04/0.5 = 1.36
        alpha = np.array([0.8, 0.2])
        beta = np.array([0.5, 0.5])
        np.testing.assert_allclose(complexity_ratio(alpha, beta), 1.36, atol=1e-12)
        expected = 2.0 * math.sqrt(1.36 * (2.0 * math.log(202.0) + math.log(80.0)) / 100.0)
        np.testing.assert_allclose(hoeffding_term(alpha, beta, 100), expected, atol=1e-12)

    def test_zero_beta_with_mass_rejected(self):
        with pytest.raises(ValueError, match="diverges"):
            hoeffding_term(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 10)

    def test_zero_alpha_zero_beta_allowed(self):
        value = hoeffding_term(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 10)
        assert np.isfinite(value)

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(1)
        alpha = project_simplex(rng.random(5))
        beta = project_simplex(rng.random(5))
        perm = rng.permutation(5)
        np.testing.assert_allclose(hoeffding_term(alpha, beta, 50),
                                   hoeffding_term(alpha[perm], beta[perm], 50),
                                   atol=1e-12)

    @pytest.mark.parametrize("m", [0, -3])
    def test_label_count_below_one_rejected(self, m):
        with pytest.raises(ValueError, match="labeled count"):
            hoeffding_term(np.array([0.5, 0.5]), np.array([0.5, 0.5]), m)


class TestVerifyOptimalBeta:
    def test_reference_alpha(self):
        alpha = np.array([0.5, 0.3, 0.2])
        beta_star, gap, value = verify_optimal_beta(alpha, 0.01)
        assert gap <= 0.01 + 1e-12
        np.testing.assert_allclose(value, 1.0, atol=1e-3)
        np.testing.assert_allclose(complexity_ratio(alpha, alpha), 1.0, atol=1e-12)

    def test_uniform_exact_when_grid_contains_it(self):
        beta_star, gap, value = verify_optimal_beta(np.full(4, 0.25), 0.25)
        np.testing.assert_array_equal(beta_star, np.full(4, 0.25))
        assert gap == 0.0
        np.testing.assert_allclose(value, 1.0, atol=1e-12)

    def test_degenerate_direction_handled(self):
        beta_star, gap, value = verify_optimal_beta(np.array([1.0, 0.0]), 0.01)
        np.testing.assert_allclose(beta_star, [1.0, 0.0], atol=1e-12)
        assert gap <= 1e-12
        np.testing.assert_allclose(value, 1.0, atol=1e-12)

    def test_value_never_below_one(self):
        rng = np.random.default_rng(2)
        for n in (2, 3):
            alpha = project_simplex(rng.random(n) + 0.1)
            _, _, value = verify_optimal_beta(alpha, 0.02)
            assert value >= 1.0 - 1e-12

    @pytest.mark.parametrize("n, step", [(2, 0.01), (3, 0.02), (4, 0.05), (5, 0.1), (5, 0.05)])
    def test_matches_the_grid_oracle(self, n, step):
        rng = np.random.default_rng(n)
        for _ in range(5):
            alpha = rng.dirichlet(np.ones(n))
            alpha[rng.random(n) < 0.2] = 0.0
            if not alpha.any():
                alpha[0] = 1.0
            alpha /= alpha.sum()
            beta_star, _, value = verify_optimal_beta(alpha, step)
            assert math.isclose(value, grid_minimum(alpha, round(1 / step)), rel_tol=1e-12)
            assert value == complexity_ratio(alpha, beta_star)

    def test_exact_at_six_domains(self):
        # the default config's domain count, against the whole 0.1 grid
        rng = np.random.default_rng(3)
        alpha = project_simplex(rng.random(6) + 0.5)
        _, gap, value = verify_optimal_beta(alpha, 0.1)
        assert math.isclose(value, grid_minimum(alpha, 10), rel_tol=1e-12)
        assert gap <= 0.1 and value >= 1.0 - 1e-12

    def test_grid_too_coarse_refused(self):
        with pytest.raises(ValueError, match="grid too coarse"):
            verify_optimal_beta(np.array([0.4, 0.3, 0.3]), 0.5)

    def test_bad_grid_step_rejected(self):
        with pytest.raises(ValueError, match="grid_step"):
            verify_optimal_beta(np.array([0.5, 0.5]), 0.7)

    @pytest.mark.parametrize("step", [0.005, 0.001, 0.0, -0.25, math.nan, math.inf, 0.3])
    def test_step_refused_before_any_grid(self, step, monkeypatch):
        def no_grid(*args):
            raise AssertionError("the grid was searched")

        monkeypatch.setattr(bounds, "greedy_increments", no_grid)
        with pytest.raises(ValueError, match="grid_step"):
            verify_optimal_beta(np.full(4, 0.25), step)


class TestEmpiricalBound:
    def test_perfect_classifier_identical_domains_chance_discriminator(self):
        ds = onehot_dataset()
        bundle = passthrough_bundle()
        pool = init_pool(ds, 8, seed=0)
        alpha = np.full((2, 2), 0.5)
        report = bound_of(bundle, ds, pool, alpha)
        assert report.weighted_err == 0.0
        assert report.vlambda_proxy == 0.0
        assert report.mean_hdist == 0.0  # zero-logit discriminator is at chance
        np.testing.assert_allclose(report.total,
                                   hoeffding_term(np.array([0.5, 0.5]),
                                                  pool.counts() / 8, 8),
                                   atol=1e-12)

    def test_constant_classifier_balanced_labels(self):
        ds = onehot_dataset(n_domains=3, per=16, n_classes=4)
        bundle = passthrough_bundle(c=4, n_domains=3)
        final = bundle.classifier.layers[-1]
        final.W[...] = 0.0
        final.b[...] = 0.0
        final.b[0] = 5.0  # constant prediction: class 0
        pool = init_pool(ds, 48, seed=0)  # everything labeled, balanced
        rng = np.random.default_rng(4)
        alpha = np.stack([project_simplex(rng.random(3)) for _ in range(3)])
        report = bound_of(bundle, ds, pool, alpha)
        np.testing.assert_allclose(report.weighted_err, 0.75, atol=1e-12)

    def test_components_recountable_and_total_exact(self):
        ds = onehot_dataset(n_domains=2, per=10, n_classes=2)
        bundle = passthrough_bundle(disc_zero=False)
        pool = init_pool(ds, 8, seed=1)
        alpha = np.array([[0.7, 0.3], [0.4, 0.6]])
        report = bound_of(bundle, ds, pool, alpha)
        # independent recount of the weighted empirical error
        cols = alpha.mean(axis=0)
        recount = 0.0
        for j in range(2):
            feats = pool.labeled_features(j)
            pred = np.argmax(bundle.class_logits(feats), axis=1)
            recount += cols[j] * np.mean(pred != pool.labels(j))
        np.testing.assert_allclose(report.weighted_err, recount, atol=1e-12)
        assert report.total == (report.weighted_err + report.hoeffding
                                + report.mean_hdist + report.vlambda_proxy)
        for part in (report.weighted_err, report.hoeffding, report.mean_hdist,
                     report.vlambda_proxy):
            assert part >= 0.0

    @pytest.mark.parametrize("m0, alpha", [(8, [[0.7, 0.3], [0.4, 0.6]]), (1, [[1.0, 0.0]] * 2)],
                             ids=["full", "empty_domain"])
    def test_errors_match_the_stacked_readouts(self, m0, alpha):
        # per-domain passes must read what one pass over the pool reads; an
        # empty L_j (allowed only with a zero alpha column) drops out
        ds = onehot_dataset(n_domains=2, per=10, n_classes=2)
        bundle = passthrough_bundle(disc_zero=False)
        rng = np.random.default_rng(5)
        for layer in [*bundle.classifier.layers, *bundle.head_finals]:
            layer.W[...] = rng.normal(size=layer.W.shape)
        pool = init_pool(ds, m0, seed=1)
        alpha = np.array(alpha)
        report = bound_of(bundle, ds, pool, alpha)
        lab_z = [bundle.encode(pool.labeled_features(j)) for j in range(2)]
        err = classifier_pass_of(bundle, lab_z, [pool.labels(j) for j in range(2)]).errors()
        err_h, head_err = err[0], err[1:]
        has_rows = pool.counts() > 0
        np.testing.assert_allclose(report.weighted_err, alpha.mean(axis=0) @ err_h, atol=1e-12)
        np.testing.assert_allclose(report.vlambda_proxy,
                                   (alpha * head_err)[:, has_rows].sum() / 2, atol=1e-12)


class TestBoundReport:
    def test_negative_component_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            BoundReport(-0.1, 0.2, 0.3, 0.05)
