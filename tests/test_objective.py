import itertools
import math

import numpy as np
import pytest

from mudal.data import RotatingSpec, gen_rotating, init_pool
from mudal.models import make_bundle
from mudal.nn import DenseNet, sigmoid_bce, softmax_ce
from mudal.objective import (BlockLayout, TermResult, alpha_objective_coefficients, alpha_step,
                             classifier_pass, compute_vd, compute_vh, compute_vlambda,
                             disc_pass, estimate_h_distance, evaluate)
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


def encode_stacked(bundle, blocks):
    """One encoder pass over the stacked blocks: the trace and each block's
    latent rows, as the trainer reads them."""
    trace = bundle.encoder.forward(np.vstack(blocks))
    return trace, np.split(trace.output, np.cumsum([b.shape[0] for b in blocks])[:-1])


def classifier_pass_of(bundle, lab_z, lab_labels, heads=True, layout=None):
    """`classifier_pass` over a list of labeled latent blocks and their
    labels, stacked; a `layout` lends its labeled sizes and membership
    matrix, as in a training step."""
    sizes = [z.shape[0] for z in lab_z] if layout is None else layout.n_lab
    return classifier_pass(bundle, np.concatenate(lab_z), np.concatenate(lab_labels), sizes,
                           heads=heads, member=None if layout is None else layout.lab_member)


def disc_pass_of(bundle, orig_z, lab_z, layout=None):
    """`disc_pass` over lists of original and labeled latent blocks, stacked,
    in `layout` or else the layout of their sizes."""
    if layout is None:
        layout = BlockLayout.of([z.shape[0] for z in orig_z], [z.shape[0] for z in lab_z])
    return disc_pass(bundle, np.concatenate([*orig_z, *lab_z]), layout)


def vh_of(bundle, z, labels, alpha):
    return compute_vh(classifier_pass_of(bundle, z, labels, heads=False), alpha)


def vlambda_of(bundle, z, labels, alpha):
    return compute_vlambda(classifier_pass_of(bundle, z, labels), alpha)


def vd_of(bundle, orig_z, lab_z, alpha):
    return compute_vd(disc_pass_of(bundle, orig_z, lab_z), alpha)


def head_net(bundle, i):
    """Oracle: domain head i as a net sharing every classifier layer but the
    last."""
    return DenseNet([*bundle.classifier.layers[:-1], bundle.head_finals[i]])


def disc_logit(bundle, z, i):
    """Oracle: the logit D_i(z) of each latent row, read on its own."""
    return bundle.discriminator.predict(z)[:, i]


def disc_orig_rates(bundle, z_blocks):
    """Oracle: (N, B), how often the discriminator takes latent block b for
    original domain i, one `disc_logit` read per (code, block). An empty
    block reads 0."""
    return np.array([[np.mean(disc_logit(bundle, z, i) >= 0.0) if z.shape[0] else 0.0
                      for z in z_blocks] for i in range(bundle.n_domains)])


def with_trunk_grads(cls, res):
    """A classifier term's grads plus the trunk's, and the latent gradient of
    the labeled rows, backpropagated from `res.dz`."""
    assert res.dz.shape == cls.hidden.shape
    trunk_g, dz = cls.backward(res.dz)
    assert not set(res.grads) & set(trunk_g)
    return TermResult(res.value, res.grads | trunk_g, dz)


def with_encoder_grads(bundle, trace, res):
    """The term's grads plus the encoder's, backpropagated from `res.dz`."""
    assert res.dz.shape == trace.output.shape
    assert not set(res.grads) & set(bundle.encoder.layers)
    enc_g, _ = bundle.encoder.backward(trace, res.dz)
    return res.grads | enc_g


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
        res = vh_of(bundle, encode(bundle, feats), labels, alpha)
        # pooled mean over equal-size batches == mean of per-domain means
        pooled_logits = bundle.class_logits(np.vstack(feats))
        pooled_loss, _ = softmax_ce(pooled_logits, np.concatenate(labels))
        np.testing.assert_allclose(res.value, pooled_loss, atol=1e-9)

    def test_point_mass_selects_single_domain(self):
        bundle = tiny_bundle()
        feats, labels = tiny_batches()
        alpha = np.zeros((3, 3))
        alpha[:, 1] = 1.0
        res = vh_of(bundle, encode(bundle, feats), labels, alpha)
        one_loss, _ = softmax_ce(bundle.class_logits(feats[1]), labels[1])
        np.testing.assert_allclose(res.value, one_loss, atol=1e-12)

    def test_matches_two_pass_oracle(self):
        bundle = tiny_bundle()
        feats, labels = tiny_batches()
        alpha = random_alpha(3)
        cols = alpha.mean(axis=0)
        expected = 0.0
        for j in range(3):
            loss_j, _ = softmax_ce(bundle.class_logits(feats[j]), labels[j])
            expected += cols[j] * loss_j
        res = vh_of(bundle, encode(bundle, feats), labels, alpha)
        np.testing.assert_allclose(res.value, expected, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        bundle = tiny_bundle()
        feats, labels = tiny_batches(per=4)
        alpha = random_alpha(3)
        trace, z = encode_stacked(bundle, feats)
        cls = classifier_pass_of(bundle, z, labels, heads=False)
        res = compute_vh(cls, alpha)
        assert set(res.grads) == {bundle.classifier.layers[-1]}
        res = with_trunk_grads(cls, res)
        assert set(res.grads) == set(bundle.classifier.layers)
        layers = [*bundle.encoder.layers, *bundle.classifier.layers]
        fd_check_term(bundle, layers,
                      lambda: vh_of(bundle, encode(bundle, feats), labels, alpha).value,
                      with_encoder_grads(bundle, trace, res))

    def test_empty_domain_contributes_zero(self, caplog):
        bundle = tiny_bundle()
        feats, labels = tiny_batches()
        feats[2] = np.empty((0, 2))
        labels[2] = np.empty(0, dtype=np.int64)
        alpha = np.full((3, 3), 1.0 / 3.0)
        with caplog.at_level("WARNING"):
            res = vh_of(bundle, encode(bundle, feats), labels, alpha)
        cols = alpha.mean(axis=0)
        expected = sum(
            cols[j] * softmax_ce(bundle.class_logits(feats[j]), labels[j])[0]
            for j in range(2)
        )
        np.testing.assert_allclose(res.value, expected, atol=1e-12)
        assert "empty" in caplog.text


class TestVd:
    def test_disc_pass_reads_each_row_once(self):
        bundle = tiny_bundle()
        orig_z, lab_z, _ = labeled_batches(bundle, empty=(1,))
        disc = disc_pass_of(bundle, orig_z, lab_z)
        rows = sum(z.shape[0] for z in orig_z + lab_z)
        assert disc.trace.acts[0].shape == (rows, bundle.latent_dim)
        np.testing.assert_array_equal(disc.trace.output,
                                      bundle.discriminator.predict(np.vstack(orig_z + lab_z)))
        assert disc.trace.output.shape == (rows, 3)

    @pytest.mark.parametrize("empty", [(), (1,)])
    def test_rerun_carries_the_alpha_free_bce_parts(self, empty):
        bundle = tiny_bundle(seed=7)
        orig_z, lab_z, _ = labeled_batches(bundle, empty=empty, seed=34)
        disc = disc_pass_of(bundle, orig_z, lab_z)
        again = disc.rerun()
        assert again.layout is disc.layout
        # oracle: the parts built from the pass's block sizes
        lay = disc.layout
        orig_owner = np.repeat(np.arange(3), lay.n_orig)
        lab_owner = np.repeat(np.arange(3), lay.n_lab)
        np.testing.assert_array_equal(lay.orig_w,
                                      np.eye(3)[orig_owner] / lay.n_orig[orig_owner, None])
        np.testing.assert_array_equal(lay.lab_owner, lab_owner)
        target = np.repeat([1.0, 0.0], [orig_owner.size, lab_owner.size])[:, None]
        np.testing.assert_array_equal(lay.target,
                                      np.broadcast_to(target, disc.trace.output.shape))
        np.testing.assert_array_equal(lay.orig_member, np.eye(3)[orig_owner])
        np.testing.assert_array_equal(lay.lab_member, np.eye(3)[lab_owner])

    @pytest.mark.parametrize("empty", [(), (1,)])
    def test_a_shared_layout_gives_the_same_passes(self, empty):
        bundle = tiny_bundle(seed=7)
        orig_z, lab_z, lab_labels = labeled_batches(bundle, empty=empty, seed=34)
        alpha = random_alpha(3, seed=35)
        own = disc_pass_of(bundle, orig_z, lab_z)
        layout = BlockLayout.of(own.layout.n_orig, own.layout.n_lab)
        shared = disc_pass_of(bundle, orig_z, lab_z, layout)
        assert shared.layout is layout
        a, b = compute_vd(own, alpha), compute_vd(shared, alpha)
        assert a.value == b.value and a.dz.tobytes() == b.dz.tobytes()
        for x, y in zip(own.rates(), shared.rates()):
            assert x.tobytes() == y.tobytes()
        np.testing.assert_array_equal(
            classifier_pass_of(bundle, lab_z, lab_labels, layout=layout).errors(),
            classifier_pass_of(bundle, lab_z, lab_labels).errors())
        other = BlockLayout.of(layout.n_orig, layout.n_lab + 1)
        with pytest.raises(ValueError, match="do not fit"):
            disc_pass_of(bundle, orig_z, lab_z, other)
        with pytest.raises(ValueError, match="do not fit"):
            classifier_pass_of(bundle, lab_z, lab_labels, layout=other)

    def test_passes_refuse_rows_that_do_not_fit(self):
        bundle = tiny_bundle(seed=7)
        orig_z, lab_z, lab_labels = labeled_batches(bundle, seed=34)
        layout = disc_pass_of(bundle, orig_z, lab_z).layout
        z = np.concatenate([*orig_z, *lab_z])
        lab, labels = np.concatenate(lab_z), np.concatenate(lab_labels)
        assert disc_pass(bundle, z, layout).trace.output.shape == (z.shape[0], 3)
        assert classifier_pass(bundle, lab, labels, layout.n_lab).logits.shape[1] == lab.shape[0]
        with pytest.raises(ValueError, match="do not fit"):
            disc_pass(bundle, z[1:], layout)
        with pytest.raises(ValueError, match="do not fit"):
            disc_pass(bundle, lab, layout)
        with pytest.raises(ValueError, match="do not fit"):
            classifier_pass(bundle, lab, labels, layout.n_lab + 1)
        with pytest.raises(ValueError, match="do not fit"):
            classifier_pass(bundle, lab, labels[1:], layout.n_lab)

    def test_compute_vd_skips_what_is_not_read(self):
        bundle = tiny_bundle(seed=7)
        orig_z, lab_z, _ = labeled_batches(bundle, seed=34)
        alpha = random_alpha(3, seed=35)
        disc = disc_pass_of(bundle, orig_z, lab_z)
        full = compute_vd(disc, alpha)
        params = compute_vd(disc, alpha, inputs=False)
        inputs = compute_vd(disc, alpha, params=False)
        value = compute_vd(disc, alpha, params=False, inputs=False)
        assert full.value == params.value == inputs.value == value.value
        assert params.dz is None and inputs.grads is None
        assert value.grads is None and value.dz is None
        assert inputs.dz.tobytes() == full.dz.tobytes()
        for layer, (dw, db) in full.grads.items():
            assert params.grads[layer][0].tobytes() == dw.tobytes()
            assert params.grads[layer][1].tobytes() == db.tobytes()
        bundle.discriminator.layers[0].bump()
        with pytest.raises(ValueError, match="stale"):
            compute_vd(disc, alpha, params=False, inputs=False)

    def test_zero_logit_discriminator_gives_ln2(self):
        bundle = tiny_bundle()
        final = bundle.discriminator.layers[-1]
        final.W[...] = 0.0
        final.b[...] = 0.0
        z = encode(bundle, tiny_batches()[0])
        res = vd_of(bundle, z, z, random_alpha(3))
        np.testing.assert_allclose(res.value, math.log(2.0), atol=1e-9)

    def test_identity_alpha_selects_own_domain(self):
        bundle = tiny_bundle()
        orig, _ = tiny_batches(seed=3)
        lab, _ = tiny_batches(seed=4)
        res_eye = vd_of(bundle, encode(bundle, orig), encode(bundle, lab), np.eye(3))
        # oracle: (1/2N) sum_i [mean BCE(f(zO_i, i), 1) + mean BCE(f(zL_i, i), 0)]
        expected = 0.0
        for i in range(3):
            z_o = bundle.encode(orig[i])
            z_l = bundle.encode(lab[i])
            lo, _ = sigmoid_bce(disc_logit(bundle, z_o, i), np.ones(z_o.shape[0]))
            ll, _ = sigmoid_bce(disc_logit(bundle, z_l, i), np.zeros(z_l.shape[0]))
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
            lo, _ = sigmoid_bce(disc_logit(bundle, z_o, i), np.ones(z_o.shape[0]))
            expected += lo
            for j in range(3):
                if j in empty_labeled:
                    continue  # an empty L_j adds nothing
                z_l = bundle.encode(lab[j])
                ll, _ = sigmoid_bce(disc_logit(bundle, z_l, i), np.zeros(z_l.shape[0]))
                expected += alpha[i, j] * ll
        expected /= 6.0
        res = vd_of(bundle, encode(bundle, orig), encode(bundle, lab), alpha)
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
        res = vd_of(bundle, z_o, z_l, alpha)
        assert set(res.grads) == set(bundle.discriminator.layers)
        fd_check_term(bundle, bundle.discriminator.layers,
                      lambda: vd_of(bundle, z_o, z_l, alpha).value,
                      res.grads)

    @staticmethod
    def _check_encoder_gradients(empty_labeled):
        bundle = tiny_bundle()
        orig, _ = tiny_batches(per=4, seed=11)
        lab, _ = tiny_batches(per=4, seed=12)
        for j in empty_labeled:
            lab[j] = np.empty((0, 2))
        alpha = random_alpha(3, seed=13)
        # the latent gradient of every row read: originals, then labeled
        trace, z = encode_stacked(bundle, orig + lab)
        res = vd_of(bundle, z[:3], z[3:], alpha)
        fd_check_term(bundle, bundle.encoder.layers,
                      lambda: vd_of(bundle, encode(bundle, orig),
                                    encode(bundle, lab), alpha).value,
                      with_encoder_grads(bundle, trace, res))

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
        vh = vh_of(bundle, encode(bundle, feats), labels, alpha)
        vl = vlambda_of(bundle, encode(bundle, feats), labels, alpha)
        np.testing.assert_allclose(vl.value, vh.value, atol=1e-12)

    def test_equal_heads_collapse_to_vh(self):
        bundle = tiny_bundle()
        for head in bundle.head_finals:
            head.W[...] = bundle.classifier.layers[-1].W
            head.b[...] = bundle.classifier.layers[-1].b
        feats, labels = tiny_batches()
        alpha = random_alpha(3, seed=14)
        vh = vh_of(bundle, encode(bundle, feats), labels, alpha)
        vl = vlambda_of(bundle, encode(bundle, feats), labels, alpha)
        np.testing.assert_allclose(vl.value, vh.value, atol=1e-9)

    def test_matches_nested_sum_oracle(self):
        bundle = tiny_bundle()
        feats, labels = tiny_batches(seed=15)
        alpha = random_alpha(3, seed=16)
        expected = 0.0
        for i in range(3):
            head = head_net(bundle, i)
            for j in range(3):
                z = bundle.encode(feats[j])
                loss, _ = softmax_ce(head.predict(z), labels[j])
                expected += alpha[i, j] * loss
        expected /= 3.0
        res = vlambda_of(bundle, encode(bundle, feats), labels, alpha)
        np.testing.assert_allclose(res.value, expected, atol=1e-12)

    def test_gradients_match_fd(self):
        bundle = tiny_bundle()
        feats, labels = tiny_batches(per=4, seed=17)
        alpha = random_alpha(3, seed=18)
        trace, z = encode_stacked(bundle, feats)
        cls = classifier_pass_of(bundle, z, labels)
        res = compute_vlambda(cls, alpha)
        assert set(res.grads) == set(bundle.head_finals)
        layers = [*bundle.encoder.layers, *bundle.classifier.layers[:-1],
                  *bundle.head_finals]
        fd_check_term(bundle, layers,
                      lambda: vlambda_of(bundle, encode(bundle, feats), labels, alpha).value,
                      with_encoder_grads(bundle, trace, with_trunk_grads(cls, res)))


class TestTermGradients:
    @pytest.mark.parametrize("classifier_hidden", [(5,), ()], ids=["trunk", "no_trunk"])
    def test_terms_reach_disjoint_layers(self, classifier_hidden):
        # the training step merges the term gradients by dict union: V_h's
        # (shared final), V_lambda's (head finals), the trunk's and the
        # encoder's reach no layer twice and together every network layer
        bundle = make_bundle(2, 3, 3, np.random.default_rng(4), latent_dim=4,
                             encoder_hidden=(5,), classifier_hidden=classifier_hidden,
                             disc_hidden=(6,))
        orig, _ = tiny_batches(seed=40)
        lab, lab_labels = tiny_batches(seed=41)
        alpha = random_alpha(3, seed=42)
        trace, z = encode_stacked(bundle, orig + lab)
        cls = classifier_pass_of(bundle, z[3:], lab_labels)
        vh, vl = compute_vh(cls, alpha), compute_vlambda(cls, alpha)
        vd = compute_vd(disc_pass_of(bundle, z[:3], z[3:]), alpha)
        trunk_g, _ = cls.backward(vh.dz + vl.dz)
        enc_g, _ = bundle.encoder.backward(trace, vd.dz)
        parts = [set(vh.grads), set(vl.grads), set(trunk_g), set(enc_g)]
        for a, b in itertools.combinations(parts, 2):
            assert not a & b
        assert set().union(*parts) == set(bundle.net_param_set().layers)
        assert set(vd.grads) == set(bundle.discriminator.layers)


def alpha_step_per_row(alpha, coeffs, lr, max_backtracks=30, backtracked=None):
    """The per-row loop the batched `alpha_step` replaced, as the bitwise
    oracle; `backtracked` collects the number of halvings of each row."""
    a = np.asarray(alpha, dtype=np.float64).copy()
    for i in range(a.shape[0]):
        row, c = a[i], coeffs[i]
        base = float(row @ c)
        step = lr
        candidate = row
        for k in range(max_backtracks + 1):
            trial = project_simplex(row - step * c)
            if float(trial @ c) <= base + 1e-12:
                candidate = trial
                break
            step *= 0.5
        if backtracked is not None:
            backtracked.append(k)
        a[i] = candidate
    return a


class TestAlphaStep:
    def test_matches_the_per_row_loop_bit_for_bit(self):
        # rows off the simplex can rise under any step, so they backtrack
        # through every halving while the other rows of the call step at once
        rng = np.random.default_rng(18)
        halvings = []
        for trial in range(300):
            n = int(rng.integers(1, 8))
            if trial % 2:
                alpha = rng.random((n, n)) * 2.0
            else:
                alpha = np.stack([project_simplex(rng.random(n)) for _ in range(n)])
            coeffs = rng.standard_normal((n, n)) * rng.choice([0.01, 1.0, 100.0])
            for lr in (0.01, 1.0, 1e3):
                want = alpha_step_per_row(alpha, coeffs, lr, backtracked=halvings)
                got = alpha_step(alpha, coeffs, lr)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (trial, lr)
        halvings = np.array(halvings)
        assert np.any(halvings == 30) and np.any(halvings == 0)

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
        orig_z = encode(bundle, tiny_batches(seed=23)[0])
        lab, lab_labels = tiny_batches(seed=24)
        lab_z = encode(bundle, lab)
        cls = classifier_pass_of(bundle, lab_z, lab_labels)
        disc = disc_pass_of(bundle, orig_z, lab_z)
        coeffs = alpha_objective_coefficients(cls, disc, 1.0)
        assert coeffs.shape == (3, 3)
        assert np.all(np.isfinite(coeffs))
        err = cls.errors()
        assert np.all(err[0] >= 0) and np.all(err[0] <= 1)
        # classification part is identical across rows; rows differ only
        # through the discriminator rates
        np.testing.assert_allclose(
            (coeffs + disc.rates()[1] / 6.0) - err[1:] / 3.0,
            np.tile(err[0] / 3.0, (3, 1)), atol=1e-12)
        with pytest.raises(ValueError, match="every head"):
            alpha_objective_coefficients(classifier_pass_of(bundle, lab_z, lab_labels, heads=False),
                                         disc, 1.0)


def labeled_batches(bundle, empty=(), seed=28):
    """Latent originals, latent labeled blocks and their labels; the labeled
    domains in `empty` have no rows."""
    orig_z = encode(bundle, tiny_batches(seed=seed - 1)[0])
    lab, lab_labels = tiny_batches(seed=seed)
    for j in empty:
        lab[j] = np.empty((0, 2))
        lab_labels[j] = np.empty(0, dtype=np.int64)
    return orig_z, encode(bundle, lab), lab_labels


def assert_errors_match_recount(bundle, lab_z, lab_labels, err_h, head_err):
    """The stacked 0/1 readouts against one network run per (net, domain);
    an empty labeled domain reads as error 1."""
    for j, z in enumerate(lab_z):
        if z.shape[0] == 0:
            assert err_h[j] == 1.0
            np.testing.assert_array_equal(head_err[:, j], 1.0)
            continue
        pred = np.argmax(bundle.classifier.predict(z), axis=1)
        assert err_h[j] == np.mean(pred != lab_labels[j])
        for i in range(bundle.n_domains):
            pred = np.argmax(head_net(bundle, i).predict(z), axis=1)
            assert head_err[i, j] == np.mean(pred != lab_labels[j])


class TestLabeledReadouts:
    """The frozen networks' 0/1 readouts on the labeled batches: the errors of
    one classifier pass and the rates of one discriminator pass."""

    def test_matches_per_network_recount(self):
        bundle = tiny_bundle(seed=5)
        orig_z, lab_z, lab_labels = labeled_batches(bundle, empty=(1,))
        err = classifier_pass_of(bundle, lab_z, lab_labels).errors()
        rate = disc_pass_of(bundle, orig_z, lab_z).rates()[1]
        assert_errors_match_recount(bundle, lab_z, lab_labels, err[0], err[1:])
        np.testing.assert_array_equal(rate, disc_orig_rates(bundle, lab_z))
        np.testing.assert_array_equal(rate[:, 1], 0.0)  # an empty labeled domain reads 0

    def test_disc_orig_rates_match_per_block_recount(self):
        bundle = tiny_bundle(seed=6)
        orig_z, lab_z, _ = labeled_batches(bundle, empty=(2,), seed=31)
        orig_rate, lab_rate = disc_pass_of(bundle, orig_z, lab_z).rates()
        np.testing.assert_array_equal(orig_rate, np.diag(disc_orig_rates(bundle, orig_z)))
        np.testing.assert_array_equal(lab_rate, disc_orig_rates(bundle, lab_z))
        np.testing.assert_array_equal(lab_rate[:, 2], 0.0)  # an empty block reads 0

    @pytest.mark.parametrize("empty", [(), (1,)], ids=["full", "empty_domain"])
    def test_post_update_pass_feeds_the_alpha_readouts(self, empty):
        # a training step reads the alpha coefficients' discriminator rates
        # from the pass V_d reads after the discriminator update
        bundle = tiny_bundle(seed=7)
        orig_z, lab_z, lab_labels = labeled_batches(bundle, empty=empty, seed=34)
        alpha = random_alpha(3, seed=35)
        before = disc_pass_of(bundle, orig_z, lab_z)
        bundle.disc_param_set().step(compute_vd(before, alpha).grads, 0.05)
        after = before.rerun()
        assert not np.allclose(after.trace.output, before.trace.output)
        np.testing.assert_array_equal(after.trace.output,
                                      disc_pass_of(bundle, orig_z, lab_z).trace.output)
        cls = classifier_pass_of(bundle, lab_z, lab_labels)
        coeffs = alpha_objective_coefficients(cls, after, 1.0)
        err = cls.errors()
        assert_errors_match_recount(bundle, lab_z, lab_labels, err[0], err[1:])
        np.testing.assert_array_equal(after.rates()[1], disc_orig_rates(bundle, lab_z))
        np.testing.assert_array_equal(
            coeffs, (err[0][None, :] + err[1:]) / 3 - disc_orig_rates(bundle, lab_z) / 6.0)
        with pytest.raises(ValueError, match="stale"):
            compute_vd(before, alpha)
        np.testing.assert_allclose(compute_vd(after, alpha).value,
                                   vd_of(bundle, orig_z, lab_z, alpha).value, atol=0)

    def test_stale_classifier_pass_refused(self):
        bundle = tiny_bundle(seed=8)
        _, lab_z, lab_labels = labeled_batches(bundle)
        for layer in (bundle.head_finals[0], bundle.classifier.layers[0]):
            cls = classifier_pass_of(bundle, lab_z, lab_labels)
            layer.bump()
            with pytest.raises(ValueError, match="stale"):
                cls.backward(np.zeros_like(cls.hidden))


def h_distance_oracle(bundle, orig_z, lab_z, alpha):
    """Oracle: each domain's estimate on its own, one `disc_logit` read per
    (domain, block), skipping the zero-weight labeled blocks."""
    out = np.zeros(len(orig_z))
    for i, z_o in enumerate(orig_z):
        err_o = float(np.mean(disc_logit(bundle, z_o, i) < 0.0))
        err_l = 0.0
        for j, z in enumerate(lab_z):
            if alpha[i, j] != 0.0:
                err_l += alpha[i, j] * float(np.mean(disc_logit(bundle, z, i) >= 0.0))
        out[i] = np.clip(2.0 * (1.0 - (err_o + err_l)), 0.0, 2.0)
    return out


def random_blocks(bundle, rng, sizes):
    return [bundle.encode(rng.standard_normal((k, 2))) for k in sizes]


class TestHDistance:
    def test_chance_discriminator_gives_zero(self):
        bundle = tiny_bundle()
        final = bundle.discriminator.layers[-1]
        final.W[...] = 0.0
        final.b[...] = 0.0
        z = encode(bundle, tiny_batches()[0])
        d = estimate_h_distance(bundle, z, z, np.full((3, 3), 1 / 3))
        np.testing.assert_array_equal(d, np.zeros(3))

    def test_result_always_in_range(self):
        bundle = tiny_bundle(seed=25)
        rng = np.random.default_rng(26)
        for _ in range(10):
            orig = random_blocks(bundle, rng, (20, 20, 20))
            lab = random_blocks(bundle, rng, (10, 10, 10))
            alpha = np.array([project_simplex(rng.random(3)) for _ in range(3)])
            d = estimate_h_distance(bundle, orig, lab, alpha)
            assert d.shape == (3,)
            assert np.all((0.0 <= d) & (d <= 2.0))

    def test_matches_the_per_domain_oracle(self):
        # random block sizes, so most rates are not short binary fractions;
        # labeled domain 1 is empty under a zero alpha column; 9 domains, so
        # a sum out of domain order (np.sum pairs terms from 8 up) shows
        rng = np.random.default_rng(27)
        for seed in range(12):
            bundle = tiny_bundle(n_domains=9, seed=seed)
            orig = random_blocks(bundle, rng, rng.integers(1, 40, 9))
            sizes = rng.integers(1, 15, 9)
            sizes[1] = 0
            lab = random_blocks(bundle, rng, sizes)
            alpha = np.array([project_simplex(rng.random(9)) for _ in range(9)])
            alpha[:, 1] = 0.0
            alpha /= alpha.sum(axis=1, keepdims=True)
            np.testing.assert_array_equal(estimate_h_distance(bundle, orig, lab, alpha),
                                          h_distance_oracle(bundle, orig, lab, alpha))

    def test_one_forward_per_nonempty_block(self, monkeypatch):
        bundle = tiny_bundle(seed=9)
        rng = np.random.default_rng(10)
        orig = random_blocks(bundle, rng, (5, 6, 7))
        lab = random_blocks(bundle, rng, (4, 0, 3))
        alpha = np.array([[0.5, 0.0, 0.5]] * 3)
        expected = h_distance_oracle(bundle, orig, lab, alpha)
        rows = []
        predict = bundle.discriminator.predict
        monkeypatch.setattr(bundle.discriminator, "predict",
                            lambda z: rows.append(z.shape[0]) or predict(z))
        np.testing.assert_array_equal(estimate_h_distance(bundle, orig, lab, alpha), expected)
        assert rows == [5, 6, 7, 4, 3]

    def test_empty_sets_rejected(self):
        bundle = tiny_bundle()
        z = encode(bundle, tiny_batches()[0])
        alpha = np.array([[1, 0, 0.0]] * 3)
        with pytest.raises(ValueError, match="original domain 1 .*empty"):
            estimate_h_distance(bundle, [z[0], np.empty((0, 4)), z[2]], z, alpha)
        with pytest.raises(ValueError, match="empty labeled .* domain 0 "):
            estimate_h_distance(bundle, z, [np.empty((0, 4))] * 3, alpha)
        # an empty labeled domain under a zero alpha column is fine
        estimate_h_distance(bundle, z, [z[0], np.empty((0, 4)), np.empty((0, 4))], alpha)


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
