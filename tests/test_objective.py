import math

import numpy as np
import pytest

from mudal.data import RotatingSpec, gen_rotating, init_pool
from mudal.models import make_bundle
from mudal.nn import accumulate_layer_grads, sigmoid_bce, softmax_ce
from mudal.objective import (alpha_objective_coefficients, alpha_step,
                             compute_vd, compute_vh, compute_vlambda, encoder_grads,
                             estimate_h_distance, evaluate, labeled_readouts)
from mudal.simplex import project_simplex
from mudal.training import TrainConfig, train_round


def tiny_bundle(n_domains=3, n_classes=3, seed=0, with_disc=True):
    rng = np.random.default_rng(seed)
    return make_bundle(2, n_classes, n_domains, rng, latent_dim=4,
                       encoder_hidden=(5,), classifier_hidden=(5,),
                       disc_hidden=(6,), with_discriminator=with_disc)


def tiny_batches(n_domains=3, n_classes=3, per=7, seed=1):
    rng = np.random.default_rng(seed)
    feats = [rng.standard_normal((per, 2)) for _ in range(n_domains)]
    labels = [rng.integers(0, n_classes, per) for _ in range(n_domains)]
    return feats, labels


def encode(bundle, blocks):
    """The latent rows of each feature block."""
    return [bundle.encode(b) for b in blocks]


def random_alpha(n, seed=2):
    rng = np.random.default_rng(seed)
    return np.stack([project_simplex(rng.random(n)) for _ in range(n)])


def fd_check_term(bundle, layers, value_fn, grads, eps=1e-6, tol=2e-5):
    """Central finite differences of a term value against its returned grads."""
    worst = 0.0
    for layer in layers:
        dw, db = grads.get(layer, (np.zeros_like(layer.W), np.zeros_like(layer.b)))
        for arr, g in ((layer.W, dw), (layer.b, db)):
            flat, gflat = arr.reshape(-1), np.asarray(g).reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = value_fn()
                flat[i] = orig - eps
                down = value_fn()
                flat[i] = orig
                fd = (up - down) / (2 * eps)
                worst = max(worst, abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8))
    assert worst < tol, f"finite-difference mismatch: {worst}"


class TestVh:
    def test_uniform_alpha_equals_pooled_mean(self):
        bundle = tiny_bundle()
        feats, labels = tiny_batches()
        alpha = np.full((3, 3), 1.0 / 3.0)
        res = compute_vh(bundle, feats, labels, alpha)
        # pooled mean over equal-size batches == mean of per-domain means
        pooled_logits = bundle.class_logits(np.vstack(feats))
        pooled_loss, _, _ = softmax_ce(pooled_logits, np.concatenate(labels))
        np.testing.assert_allclose(res.value, pooled_loss, atol=1e-9)

    def test_point_mass_selects_single_domain(self):
        bundle = tiny_bundle()
        feats, labels = tiny_batches()
        alpha = np.zeros((3, 3))
        alpha[:, 1] = 1.0
        res = compute_vh(bundle, feats, labels, alpha)
        one_loss, _, _ = softmax_ce(bundle.class_logits(feats[1]), labels[1])
        np.testing.assert_allclose(res.value, one_loss, atol=1e-12)

    def test_matches_two_pass_oracle(self):
        bundle = tiny_bundle()
        feats, labels = tiny_batches()
        alpha = random_alpha(3)
        cols = alpha.mean(axis=0)
        expected = 0.0
        for j in range(3):
            loss_j, _, _ = softmax_ce(bundle.class_logits(feats[j]), labels[j])
            expected += cols[j] * loss_j
        res = compute_vh(bundle, feats, labels, alpha)
        np.testing.assert_allclose(res.value, expected, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        bundle = tiny_bundle()
        feats, labels = tiny_batches(per=4)
        alpha = random_alpha(3)
        res = compute_vh(bundle, feats, labels, alpha)
        layers = [*bundle.encoder.layers, *bundle.classifier.layers]
        fd_check_term(bundle, layers,
                      lambda: compute_vh(bundle, feats, labels, alpha).value,
                      res.grads)

    def test_empty_domain_contributes_zero(self, caplog):
        bundle = tiny_bundle()
        feats, labels = tiny_batches()
        feats[2] = np.empty((0, 2))
        labels[2] = np.empty(0, dtype=np.int64)
        alpha = np.full((3, 3), 1.0 / 3.0)
        with caplog.at_level("WARNING"):
            res = compute_vh(bundle, feats, labels, alpha)
        cols = alpha.mean(axis=0)
        expected = sum(
            cols[j] * softmax_ce(bundle.class_logits(feats[j]), labels[j])[0]
            for j in range(2)
        )
        np.testing.assert_allclose(res.value, expected, atol=1e-12)
        assert "empty" in caplog.text


class TestDiscInput:
    def test_one_hot_rows_for_one_or_per_row_domains(self):
        bundle = tiny_bundle()
        z = np.random.default_rng(30).standard_normal((4, 4))
        np.testing.assert_array_equal(bundle.disc_input(z, 2),
                                      np.hstack([z, np.tile([0.0, 0.0, 1.0], (4, 1))]))
        rows = bundle.disc_input(z, np.array([1, 0, 2, 1]))
        np.testing.assert_array_equal(rows[:, :4], z)
        np.testing.assert_array_equal(rows[:, 4:], np.eye(3)[[1, 0, 2, 1]])

    def test_bad_domains_rejected(self):
        bundle = tiny_bundle()
        z = np.zeros((3, 4))
        for bad in (3, -1, np.array([0, 1, 3]), 1.0, np.array([0, 1])):
            with pytest.raises(ValueError):
                bundle.disc_input(z, bad)


class TestVd:
    def test_zero_logit_discriminator_gives_ln2(self):
        bundle = tiny_bundle()
        final = bundle.discriminator.layers[-1]
        final.W[...] = 0.0
        final.b[...] = 0.0
        z = encode(bundle, tiny_batches()[0])
        res = compute_vd(bundle, z, z, random_alpha(3))
        np.testing.assert_allclose(res.value, math.log(2.0), atol=1e-9)

    def test_identity_alpha_selects_own_domain(self):
        bundle = tiny_bundle()
        orig, _ = tiny_batches(seed=3)
        lab, _ = tiny_batches(seed=4)
        res_eye = compute_vd(bundle, encode(bundle, orig), encode(bundle, lab), np.eye(3))
        # oracle: (1/2N) sum_i [mean BCE(f(zO_i, i), 1) + mean BCE(f(zL_i, i), 0)]
        expected = 0.0
        for i in range(3):
            z_o = bundle.encode(orig[i])
            z_l = bundle.encode(lab[i])
            lo, _ = sigmoid_bce(bundle.disc_logits(z_o, i), np.ones(z_o.shape[0]))
            ll, _ = sigmoid_bce(bundle.disc_logits(z_l, i), np.zeros(z_l.shape[0]))
            expected += lo + ll
        expected /= 6.0
        np.testing.assert_allclose(res_eye.value, expected, atol=1e-12)

    @staticmethod
    def _check_nested_sum_oracle(empty_labeled):
        bundle = tiny_bundle()
        orig, _ = tiny_batches(seed=5)
        lab, _ = tiny_batches(seed=6)
        for j in empty_labeled:
            lab[j] = np.empty((0, 2))
        alpha = random_alpha(3, seed=7)
        expected = 0.0
        for i in range(3):
            z_o = bundle.encode(orig[i])
            lo, _ = sigmoid_bce(bundle.disc_logits(z_o, i), np.ones(z_o.shape[0]))
            expected += lo
            for j in range(3):
                if j in empty_labeled:
                    continue  # an empty L_j adds nothing
                z_l = bundle.encode(lab[j])
                ll, _ = sigmoid_bce(bundle.disc_logits(z_l, i), np.zeros(z_l.shape[0]))
                expected += alpha[i, j] * ll
        expected /= 6.0
        res = compute_vd(bundle, encode(bundle, orig), encode(bundle, lab), alpha)
        np.testing.assert_allclose(res.value, expected, atol=1e-12)

    def test_matches_nested_sum_oracle(self):
        self._check_nested_sum_oracle(empty_labeled=())

    def test_matches_nested_sum_oracle_with_empty_labeled_domain(self):
        self._check_nested_sum_oracle(empty_labeled=(1,))

    def test_discriminator_gradients_match_fd(self):
        bundle = tiny_bundle()
        orig, _ = tiny_batches(per=4, seed=8)
        lab, _ = tiny_batches(per=4, seed=9)
        alpha = random_alpha(3, seed=10)
        z_o, z_l = encode(bundle, orig), encode(bundle, lab)
        res = compute_vd(bundle, z_o, z_l, alpha)
        assert set(res.grads) == set(bundle.discriminator.layers)
        fd_check_term(bundle, bundle.discriminator.layers,
                      lambda: compute_vd(bundle, z_o, z_l, alpha).value,
                      res.grads)

    @staticmethod
    def _check_encoder_gradients(empty_labeled):
        bundle = tiny_bundle()
        orig, _ = tiny_batches(per=4, seed=11)
        lab, _ = tiny_batches(per=4, seed=12)
        for j in empty_labeled:
            lab[j] = np.empty((0, 2))
        alpha = random_alpha(3, seed=13)
        traces = [bundle.encoder.forward(f) for f in orig + lab]
        z = [t.output for t in traces]
        res = compute_vd(bundle, z[:3], z[3:], alpha)
        # one latent gradient per block read: originals, then labeled
        assert [d.shape for d in res.dz] == [b.shape for b in z]
        fd_check_term(bundle, bundle.encoder.layers,
                      lambda: compute_vd(bundle, encode(bundle, orig),
                                         encode(bundle, lab), alpha).value,
                      encoder_grads(bundle, traces, res.dz))

    def test_encoder_gradients_match_fd(self):
        self._check_encoder_gradients(empty_labeled=())

    def test_encoder_gradients_match_fd_with_empty_labeled_domain(self):
        self._check_encoder_gradients(empty_labeled=(0,))


class TestVlambda:
    def test_single_domain_identity_alpha_equals_vh_with_shared_head(self):
        bundle = tiny_bundle(n_domains=1)
        # make the lone head equal to the classifier final layer
        bundle.head_finals[0].W[...] = bundle.classifier.layers[-1].W
        bundle.head_finals[0].b[...] = bundle.classifier.layers[-1].b
        feats, labels = tiny_batches(n_domains=1)
        alpha = np.array([[1.0]])
        vh = compute_vh(bundle, feats, labels, alpha)
        vl = compute_vlambda(bundle, encode(bundle, feats), labels, alpha)
        np.testing.assert_allclose(vl.value, vh.value, atol=1e-12)

    def test_equal_heads_collapse_to_vh(self):
        bundle = tiny_bundle()
        for head in bundle.head_finals:
            head.W[...] = bundle.classifier.layers[-1].W
            head.b[...] = bundle.classifier.layers[-1].b
        feats, labels = tiny_batches()
        alpha = random_alpha(3, seed=14)
        vh = compute_vh(bundle, feats, labels, alpha)
        vl = compute_vlambda(bundle, encode(bundle, feats), labels, alpha)
        np.testing.assert_allclose(vl.value, vh.value, atol=1e-9)

    def test_matches_nested_sum_oracle(self):
        bundle = tiny_bundle()
        feats, labels = tiny_batches(seed=15)
        alpha = random_alpha(3, seed=16)
        expected = 0.0
        for i in range(3):
            head = bundle.head_net(i)
            for j in range(3):
                z = bundle.encode(feats[j])
                loss, _, _ = softmax_ce(head.predict(z), labels[j])
                expected += alpha[i, j] * loss
        expected /= 3.0
        res = compute_vlambda(bundle, encode(bundle, feats), labels, alpha)
        np.testing.assert_allclose(res.value, expected, atol=1e-12)

    def test_gradients_match_fd(self):
        bundle = tiny_bundle()
        feats, labels = tiny_batches(per=4, seed=17)
        alpha = random_alpha(3, seed=18)
        traces = [bundle.encoder.forward(f) for f in feats]
        res = compute_vlambda(bundle, [t.output for t in traces], labels, alpha)
        assert not set(res.grads) & set(bundle.encoder.layers)
        grads = dict(res.grads)
        accumulate_layer_grads(grads, encoder_grads(bundle, traces, res.dz))
        layers = [*bundle.encoder.layers, *bundle.classifier.layers[:-1],
                  *bundle.head_finals]
        fd_check_term(bundle, layers,
                      lambda: compute_vlambda(bundle, encode(bundle, feats), labels,
                                              alpha).value,
                      grads)


class TestAlphaStep:
    def test_equal_coefficients_leave_alpha(self):
        alpha = random_alpha(4, seed=19)
        coeffs = np.full((4, 4), 0.37)
        out = alpha_step(alpha, coeffs, lr=0.5)
        np.testing.assert_allclose(out, alpha, atol=1e-12)

    def test_dominating_domain_gains_weight(self):
        alpha = np.full((3, 3), 1.0 / 3.0)
        coeffs = np.array([[0.1, 0.5, 0.5],
                           [0.4, 0.4, 0.4],
                           [0.4, 0.4, 0.4]])
        out = alpha_step(alpha, coeffs, lr=0.1)
        assert out[0, 0] > alpha[0, 0]

    def test_never_increases_and_converges_to_vertex_minimum(self):
        # projected steps on a linear objective are monotone for any step size,
        # so escalate the step to reach the vertex minimum quickly
        rng = np.random.default_rng(20)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            coeffs = rng.random((n, n))
            alpha = np.stack([project_simplex(rng.random(n)) for _ in range(n)])
            value = float((alpha * coeffs).sum())
            for lr, iters in ((0.3, 50), (3.0, 20), (1e3, 5), (1e6, 3)):
                for _ in range(iters):
                    alpha = alpha_step(alpha, coeffs, lr=lr)
                    new_value = float((alpha * coeffs).sum())
                    assert new_value <= value + 1e-12
                    value = new_value
            vertex_min = coeffs.min(axis=1).sum()
            assert value <= vertex_min + 1e-6

    def test_rows_stay_on_simplex(self):
        rng = np.random.default_rng(21)
        alpha = random_alpha(5, seed=22)
        for _ in range(50):
            alpha = alpha_step(alpha, rng.standard_normal((5, 5)), lr=0.2)
            assert np.all(alpha >= 0)
            np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-9)

    def test_coefficients_from_bundle(self):
        bundle = tiny_bundle()
        lab, lab_labels = tiny_batches(seed=24)
        coeffs, diag = alpha_objective_coefficients(bundle, encode(bundle, lab), lab_labels,
                                                    1.0)
        assert coeffs.shape == (3, 3)
        assert np.all(np.isfinite(coeffs))
        assert np.all(diag["err_h"] >= 0) and np.all(diag["err_h"] <= 1)
        # classification part is identical across rows; rows differ only
        # through the discriminator rates
        np.testing.assert_allclose(
            (coeffs + diag["disc_orig_rate"] / 6.0) - diag["head_err"] / 3.0,
            np.tile(diag["err_h"] / 3.0, (3, 1)), atol=1e-12)


class TestLabeledReadouts:
    def test_matches_per_network_recount(self):
        bundle = tiny_bundle(seed=5)
        lab, lab_labels = tiny_batches(seed=28)
        lab[1] = np.empty((0, 2))
        lab_labels[1] = np.empty(0, dtype=np.int64)
        err_h, head_err, rate = labeled_readouts(bundle, encode(bundle, lab), lab_labels)
        for j in (0, 2):
            z = bundle.encode(lab[j])
            pred = np.argmax(bundle.class_logits(lab[j]), axis=1)
            assert err_h[j] == np.mean(pred != lab_labels[j])
            for i in range(3):
                pred = np.argmax(bundle.head_net(i).predict(z), axis=1)
                assert head_err[i, j] == np.mean(pred != lab_labels[j])
                assert rate[i, j] == np.mean(bundle.disc_logits(z, i) >= 0.0)
        # an empty labeled domain reads as error 1 and rate 0
        assert err_h[1] == 1.0
        np.testing.assert_array_equal(head_err[:, 1], 1.0)
        np.testing.assert_array_equal(rate[:, 1], 0.0)

    def test_no_discriminator_gives_zero_rates(self):
        bundle = tiny_bundle(with_disc=False)
        lab, lab_labels = tiny_batches(seed=29)
        err_h, head_err, rate = labeled_readouts(bundle, encode(bundle, lab), lab_labels)
        np.testing.assert_array_equal(rate, 0.0)
        assert np.all((head_err >= 0) & (head_err <= 1))


class TestHDistance:
    def test_chance_discriminator_gives_zero(self):
        bundle = tiny_bundle()
        final = bundle.discriminator.layers[-1]
        final.W[...] = 0.0
        final.b[...] = 0.0
        z = encode(bundle, tiny_batches()[0])
        d = estimate_h_distance(bundle, z[0], z, np.array([1 / 3] * 3), 0)
        assert d == 0.0

    def test_result_always_in_range(self):
        bundle = tiny_bundle(seed=25)
        rng = np.random.default_rng(26)
        for _ in range(10):
            orig = bundle.encode(rng.standard_normal((20, 2)))
            lab = encode(bundle, [rng.standard_normal((10, 2)) for _ in range(3)])
            row = project_simplex(rng.random(3))
            d = estimate_h_distance(bundle, orig, lab, row, 1)
            assert 0.0 <= d <= 2.0

    def test_empty_sets_rejected(self):
        bundle = tiny_bundle()
        z = encode(bundle, tiny_batches()[0])
        with pytest.raises(ValueError, match="empty"):
            estimate_h_distance(bundle, np.empty((0, 4)), z, np.array([1, 0, 0.0]), 0)
        empty_lab = [np.empty((0, 4))] * 3
        with pytest.raises(ValueError, match="empty"):
            estimate_h_distance(bundle, z[0], empty_lab, np.array([1, 0, 0.0]), 0)


class TestEvaluate:
    def test_constant_classifier_on_balanced_labels(self):
        spec = RotatingSpec(n_domains=2, train_per_domain=20, test_per_domain=40,
                            n_classes=4, total_range_deg=60.0, seed=0)
        ds = gen_rotating(spec)
        bundle = tiny_bundle(n_domains=2, n_classes=4)
        final = bundle.classifier.layers[-1]
        final.W[...] = 0.0
        final.b[...] = 0.0
        final.b[0] = 10.0  # always predict class 0
        per, avg = evaluate(bundle, ds)
        np.testing.assert_allclose(per, 0.25)
        np.testing.assert_allclose(avg, 0.25)

    def test_matches_confusion_matrix_recount(self):
        spec = RotatingSpec(n_domains=3, train_per_domain=20, test_per_domain=30,
                            n_classes=3, total_range_deg=90.0, seed=1)
        ds = gen_rotating(spec)
        bundle = tiny_bundle(n_domains=3, n_classes=3, seed=4)
        per, avg = evaluate(bundle, ds)
        for i in range(3):
            pred = np.argmax(bundle.class_logits(ds.test_features[i]), axis=1)
            conf = np.zeros((3, 3), dtype=int)
            for p, t in zip(pred, ds.test_labels[i]):
                conf[t, p] += 1
            np.testing.assert_allclose(per[i], np.trace(conf) / conf.sum())
        np.testing.assert_allclose(avg, per.mean(), atol=1e-12)
