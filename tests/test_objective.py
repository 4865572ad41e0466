import dataclasses
import itertools
import math

import numpy as np
import pytest

from mudal import objective
from mudal.data import RotatingSpec, gen_rotating, init_pool
from mudal.models import ModelBundle, make_bundle
from mudal.nn import DenseNet, Layer
from mudal.objective import (BlockLayout, Segments, TermResult, alpha_objective_coefficients,
                             alpha_step, classifier_pass, compute_vd, compute_vh, compute_vlambda,
                             decision_rates, disc_pass, estimate_h_distance, evaluate)
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


def classifier_pass_of(bundle, lab_z, lab_labels, heads=True):
    """`classifier_pass` over a list of labeled latent blocks and their
    labels, stacked."""
    return classifier_pass(bundle, np.concatenate(lab_z), np.concatenate(lab_labels),
                           Segments.of([z.shape[0] for z in lab_z], "labeled"), heads=heads)


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


def class_logits(bundle, x):
    """Oracle: the classifier's logits on the latent rows of features x."""
    return bundle.classifier.predict(bundle.encode(x))


def head_net(bundle, i):
    """Oracle: domain head i as a net sharing every classifier layer but the
    last."""
    return DenseNet([*bundle.classifier.layers[:-1], bundle.head_finals[i]])


def disc_logit(bundle, z, i):
    """Oracle: the logit D_i(z) of each latent row, read on its own."""
    return bundle.discriminator.predict(z)[:, i]


def mean_bce(logits, target):
    """Oracle: the mean binary cross-entropy of logits against one 0/1
    target, log(1 + e^z) - t * z per row."""
    return float(np.mean(np.logaddexp(0.0, logits) - target * logits))


def disc_orig_rates(bundle, z_blocks):
    """Oracle: (N, B), how often the discriminator takes latent block b for
    original domain i, one `disc_logit` read per (code, block)."""
    return np.array([[np.mean(disc_logit(bundle, z, i) >= 0.0) for z in z_blocks]
                     for i in range(bundle.n_domains)])


def with_trunk_grads(cls, res):
    """A classifier term's grads plus the trunk's, and the latent gradient of
    the labeled rows, backpropagated from `res.dz`. The term's final-layer
    grads are copied: they live in the network set's buffer, which the next
    pass over the bundle's stack writes over."""
    assert res.dz.shape == cls.trunk.output.shape
    trunk_g, dz = cls.backward(res.dz)
    assert not set(res.grads) & set(trunk_g)
    kept = {layer: (dW.copy(), db.copy()) for layer, (dW, db) in res.grads.items()}
    return TermResult(res.value, kept | trunk_g, dz)


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
        pooled_logits = class_logits(bundle, np.vstack(feats))
        pooled_loss, _ = softmax_ce_by_rows(pooled_logits, np.concatenate(labels))
        np.testing.assert_allclose(res.value, pooled_loss, atol=1e-9)

    def test_point_mass_selects_single_domain(self):
        bundle = tiny_bundle()
        feats, labels = tiny_batches()
        alpha = np.zeros((3, 3))
        alpha[:, 1] = 1.0
        res = vh_of(bundle, encode(bundle, feats), labels, alpha)
        one_loss, _ = softmax_ce_by_rows(class_logits(bundle, feats[1]), labels[1])
        np.testing.assert_allclose(res.value, one_loss, atol=1e-12)

    def test_matches_two_pass_oracle(self):
        bundle = tiny_bundle()
        feats, labels = tiny_batches()
        alpha = random_alpha(3)
        cols = alpha.mean(axis=0)
        expected = 0.0
        for j in range(3):
            loss_j, _ = softmax_ce_by_rows(class_logits(bundle, feats[j]), labels[j])
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


class TestEmptyBlocksRefused:
    """Every original and labeled domain has rows: an empty block is refused
    where it enters, naming its domain."""

    def test_block_layout_names_the_empty_domain(self):
        with pytest.raises(ValueError, match="original domain 1 has no rows"):
            BlockLayout.of([3, 0, 2], [1, 1, 1])
        with pytest.raises(ValueError, match="labeled domain 2 has no rows"):
            BlockLayout.of([3, 3, 3], [1, 1, 0])
        with pytest.raises(ValueError, match="labeled domain 0 has no rows"):
            BlockLayout.of([3, 3, 3], [0, 0, 0])

    def test_classifier_pass_names_the_empty_domain(self):
        bundle = tiny_bundle()
        feats, labels = tiny_batches()
        feats[1] = np.empty((0, 2))
        labels[1] = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError, match="labeled domain 1 has no rows"):
            classifier_pass_of(bundle, encode(bundle, feats), labels)

    def test_a_classifier_without_a_trunk_is_refused(self):
        # a classifier of one layer, latent rows straight to classes, and its heads
        bundle, rng = tiny_bundle(), np.random.default_rng(0)
        layers = [Layer.random(4, 3, "identity", rng) for _ in range(4)]
        with pytest.raises(ValueError, match="needs a trunk"):
            ModelBundle(bundle.encoder, DenseNet(layers[:1]), layers[1:], bundle.discriminator, 3)
        with pytest.raises(ValueError, match="classifier_hidden"):
            TrainConfig(classifier_hidden=())

    def test_refused_before_any_reduction_or_forward(self, monkeypatch):
        # a mean over an empty block would read the next block's first value
        # (`np.add.reduceat`), so the refusal comes before any reduction
        bundle = tiny_bundle()
        calls = []
        monkeypatch.setattr(objective.Segments, "means", lambda *a: calls.append("mean"))
        for net in (bundle.trunk, bundle.discriminator):
            monkeypatch.setattr(net, "forward", lambda *a, **k: calls.append("forward"))
            monkeypatch.setattr(net, "predict", lambda *a: calls.append("predict"))
        z = encode(bundle, tiny_batches()[0])
        empty = [z[0], np.empty((0, 4)), z[2]]
        with pytest.raises(ValueError, match="labeled domain 1 has no rows"):
            classifier_pass(bundle, np.concatenate(empty), np.zeros(14, dtype=np.int64),
                            Segments.of([7, 0, 7], "labeled"))
        with pytest.raises(ValueError, match="original domain 1 has no rows"):
            estimate_h_distance(bundle, empty, z, np.full((3, 3), 1 / 3))
        with pytest.raises(ValueError, match="labeled domain 1 has no rows"):
            estimate_h_distance(bundle, z, empty, np.full((3, 3), 1 / 3))
        assert calls == []


def membership_means(x, sizes):
    """The membership-matrix product `Segments.means` replaced, as its
    bitwise oracle: the 0/1 values as float64 times the (rows, segments)
    matrix of which segment each row is in, over the sizes."""
    member = np.repeat(np.arange(sizes.size), sizes)[:, None] == np.arange(sizes.size)
    return x.astype(np.float64) @ member.astype(np.float64) / sizes


class TestSegmentMeans:
    @pytest.mark.parametrize("lead, sizes", [
        ((7,), [10] * 6), ((4,), [128] * 3), ((3,), [2000] * 3), ((3,), [150] * 3),
        ((2, 5), [1, 300, 2, 255, 256]), ((), [1]), ((9,), [1] * 9)],
        ids=["cal_default", "cal_bigbatch", "h_distance_originals", "h_distance_labeled",
             "past_255", "one_row", "single_rows"])
    def test_match_the_membership_product_bit_for_bit(self, lead, sizes):
        sizes = np.array(sizes)
        rng = np.random.default_rng(sizes.sum())
        for density in (0.0, 0.3, 0.5, 0.97, 1.0):
            x = rng.random((*lead, sizes.sum())) < density
            assert same_bits(Segments.of(sizes, "labeled").means(x), membership_means(x, sizes))

    def test_match_on_random_layouts(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            sizes = rng.integers(1, 40, rng.integers(1, 10))
            x = rng.random((int(rng.integers(1, 8)), sizes.sum())) < rng.random()
            assert same_bits(Segments.of(sizes, "labeled").means(x), membership_means(x, sizes))

    def test_the_h_distance_rates_match_the_membership_product(self):
        # the layout over a whole pool: 3 x 2,000 originals, 3 x 150 labeled
        layout = BlockLayout.of([2000] * 3, [150] * 3)
        logits = np.random.default_rng(62).standard_normal((6450, 3))
        orig_rate, lab_rate = decision_rates(logits, layout)
        want = membership_means((logits[:6000] >= 0.0).T, layout.n_orig)
        assert same_bits(orig_rate, np.diag(want))
        assert same_bits(lab_rate, membership_means((logits[6000:] >= 0.0).T, layout.n_lab))


class TestVd:
    def test_disc_pass_reads_each_row_once(self):
        bundle = tiny_bundle()
        orig_z, lab_z, _ = labeled_batches(bundle, short=(1,))
        disc = disc_pass_of(bundle, orig_z, lab_z)
        rows = sum(z.shape[0] for z in orig_z + lab_z)
        assert disc.trace.acts[0].shape == (rows, bundle.latent_dim)
        np.testing.assert_array_equal(disc.trace.output,
                                      bundle.discriminator.predict(np.vstack(orig_z + lab_z)))
        assert disc.trace.output.shape == (rows, 3)

    @pytest.mark.parametrize("short", [(), (1,)], ids=["full", "one_row"])
    def test_rerun_carries_the_alpha_free_bce_parts(self, short):
        bundle = tiny_bundle(seed=7)
        orig_z, lab_z, _ = labeled_batches(bundle, short=short, seed=34)
        disc = disc_pass_of(bundle, orig_z, lab_z)
        again = disc.rerun()
        assert again.layout is disc.layout
        # the layout is its sizes; oracle: the parts built from them, each
        # built once
        lay = disc.layout
        assert [f.name for f in dataclasses.fields(lay)] == ["n_orig", "n_lab"]
        for sizes, blocks in ((lay.n_orig, lay.orig_blocks), (lay.n_lab, lay.lab_blocks)):
            assert blocks.sizes is sizes and blocks.float_sizes.tolist() == sizes.tolist()
            assert blocks.starts.tolist() == np.cumsum([0, *sizes[:-1]]).tolist()
        orig_owner = np.repeat(np.arange(3), lay.n_orig)
        lab_rows = int(lay.n_lab.sum())
        assert lay.orig_rows == orig_owner.size
        assert same_bits(lay.orig_w, np.eye(3)[orig_owner] / lay.n_orig[orig_owner, None])
        target = np.repeat([1.0, 0.0], [orig_owner.size, lab_rows])[:, None]
        assert same_bits(lay.target, np.broadcast_to(target, disc.trace.output.shape))
        assert lay.orig_w is lay.orig_w and lay.target is lay.target
        assert lay.orig_blocks is lay.orig_blocks and lay.lab_blocks is lay.lab_blocks

    @pytest.mark.parametrize("short", [(), (1,)], ids=["full", "one_row"])
    def test_a_shared_layout_gives_the_same_passes(self, short):
        bundle = tiny_bundle(seed=7)
        orig_z, lab_z, _ = labeled_batches(bundle, short=short, seed=34)
        alpha = random_alpha(3, seed=35)
        own = disc_pass_of(bundle, orig_z, lab_z)
        layout = BlockLayout.of(own.layout.n_orig, own.layout.n_lab)
        shared = disc_pass_of(bundle, orig_z, lab_z, layout)
        assert shared.layout is layout
        a, b = compute_vd(own, alpha), compute_vd(shared, alpha)
        assert a.value == b.value and a.dz.tobytes() == b.dz.tobytes()
        for x, y in zip(own.rates(), shared.rates()):
            assert x.tobytes() == y.tobytes()
        other = BlockLayout.of(layout.n_orig, layout.n_lab + 1)
        with pytest.raises(ValueError, match="do not fit"):
            disc_pass_of(bundle, orig_z, lab_z, other)

    def test_passes_refuse_rows_that_do_not_fit(self):
        bundle = tiny_bundle(seed=7)
        orig_z, lab_z, lab_labels = labeled_batches(bundle, seed=34)
        layout = disc_pass_of(bundle, orig_z, lab_z).layout
        z = np.concatenate([*orig_z, *lab_z])
        lab, labels = np.concatenate(lab_z), np.concatenate(lab_labels)
        assert disc_pass(bundle, z, layout).trace.output.shape == (z.shape[0], 3)
        cls = classifier_pass(bundle, lab, labels, layout.lab_blocks)
        assert cls.logits.shape[1] == lab.shape[0]
        with pytest.raises(ValueError, match="do not fit"):
            disc_pass(bundle, z[1:], layout)
        with pytest.raises(ValueError, match="do not fit"):
            disc_pass(bundle, lab, layout)
        with pytest.raises(ValueError, match="do not fit"):
            classifier_pass(bundle, lab, labels, Segments.of(layout.n_lab + 1, "labeled"))
        with pytest.raises(ValueError, match="do not fit"):
            classifier_pass(bundle, lab, labels[1:], layout.lab_blocks)

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
        bundle.disc_params.step(full.grads, 0.05)
        with pytest.raises(ValueError, match="stale"):
            compute_vd(disc, alpha, params=False, inputs=False)

    @pytest.mark.parametrize("short", [(), (1,)], ids=["full", "one_row"])
    def test_matches_the_concatenated_weights_bit_for_bit(self, short):
        # oracle: the weights concatenated per call, the sigmoid by np.where,
        # and one allocating backward of the logit gradient
        bundle = tiny_bundle(seed=8)
        orig_z, lab_z, _ = labeled_batches(bundle, short=short, seed=36)
        alpha = random_alpha(3, seed=37)
        disc = disc_pass_of(bundle, orig_z, lab_z)
        lay, logits = disc.layout, disc.trace.output
        owner = np.repeat(np.arange(3), lay.n_lab)
        w = np.concatenate([lay.orig_w, alpha[:, owner].T / lay.n_lab[owner, None]]).reshape(-1)
        z, t, wsum = logits.reshape(-1), lay.target.reshape(-1), w.sum()
        per = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
        e = np.exp(-np.abs(z))
        dlogits = w * (np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e)) - t) / wsum
        scale = wsum / (2.0 * 3)
        grads, dz = bundle.discriminator.backward(disc.trace,
                                                  dlogits.reshape(logits.shape) * scale)
        full = compute_vd(disc, alpha)
        assert full.value == float(float((w * per).sum() / wsum) * scale)
        assert same_bits(full.dz, dz)
        for layer, pair in grads.items():
            assert all(same_bits(a, b) for a, b in zip(full.grads[layer], pair))
        # without its value: the same gradients, and a value of None
        bare = compute_vd(disc, alpha, value=False)
        assert bare.value is None and same_bits(bare.dz, dz)
        for layer, pair in grads.items():
            assert all(same_bits(a, b) for a, b in zip(bare.grads[layer], pair))
        with pytest.raises(ValueError, match="needs its value, params or inputs"):
            compute_vd(disc, alpha, params=False, inputs=False, value=False)

    def test_weights_match_the_owner_gather_bit_for_bit(self):
        # oracle: each row's weight gathered through its block's owner, as
        # the layout once stored it: alpha[:, owner].T / n_lab[owner] for the
        # labeled rows, 1/|O_i| in its own column for an original of i
        rng = np.random.default_rng(60)
        for k in range(24):
            n = int(rng.integers(1, 8))
            n_orig, n_lab = rng.integers(1, 20, n), rng.integers(1, 20, n)
            if k % 3 == 0:
                n_lab[rng.integers(n)] = 300
            layout = BlockLayout.of(n_orig, n_lab)
            alpha = np.stack([project_simplex(rng.random(n) - 0.3 * (k % 2))
                              for _ in range(n)])
            w = layout.vd_weights(alpha)
            orig_owner, owner = np.repeat(np.arange(n), n_orig), np.repeat(np.arange(n), n_lab)
            assert same_bits(w[:layout.orig_rows],
                             np.eye(n)[orig_owner] / n_orig[orig_owner, None])
            assert same_bits(w[layout.orig_rows:], alpha[:, owner].T / n_lab[owner, None])

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
            lo = mean_bce(disc_logit(bundle, z_o, i), 1.0)
            ll = mean_bce(disc_logit(bundle, z_l, i), 0.0)
            expected += lo + ll
        expected /= 6.0
        np.testing.assert_allclose(res_eye.value, expected, atol=1e-12)

    @staticmethod
    def _check_nested_sum_oracle(short_labeled):
        bundle = tiny_bundle()
        orig, _ = tiny_batches(seed=5)
        lab, _ = tiny_batches(seed=6)
        for j in short_labeled:
            lab[j] = lab[j][:1]
        alpha = random_alpha(3, seed=7)
        expected = 0.0
        for i in range(3):
            z_o = bundle.encode(orig[i])
            lo = mean_bce(disc_logit(bundle, z_o, i), 1.0)
            expected += lo
            for j in range(3):
                z_l = bundle.encode(lab[j])
                ll = mean_bce(disc_logit(bundle, z_l, i), 0.0)
                expected += alpha[i, j] * ll
        expected /= 6.0
        res = vd_of(bundle, encode(bundle, orig), encode(bundle, lab), alpha)
        np.testing.assert_allclose(res.value, expected, atol=1e-12)

    def test_matches_nested_sum_oracle(self):
        self._check_nested_sum_oracle(short_labeled=())

    def test_matches_nested_sum_oracle_with_a_one_row_labeled_domain(self):
        self._check_nested_sum_oracle(short_labeled=(1,))

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
    def _check_encoder_gradients(short_labeled):
        bundle = tiny_bundle()
        orig, _ = tiny_batches(per=4, seed=11)
        lab, _ = tiny_batches(per=4, seed=12)
        for j in short_labeled:
            lab[j] = lab[j][:1]
        alpha = random_alpha(3, seed=13)
        # the latent gradient of every row read: originals, then labeled
        trace, z = encode_stacked(bundle, orig + lab)
        res = vd_of(bundle, z[:3], z[3:], alpha)
        fd_check_term(bundle, bundle.encoder.layers,
                      lambda: vd_of(bundle, encode(bundle, orig),
                                    encode(bundle, lab), alpha).value,
                      with_encoder_grads(bundle, trace, res))

    def test_encoder_gradients_match_fd(self):
        self._check_encoder_gradients(short_labeled=())

    def test_encoder_gradients_match_fd_with_a_one_row_labeled_domain(self):
        self._check_encoder_gradients(short_labeled=(0,))


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
                loss, _ = softmax_ce_by_rows(head.predict(z), labels[j])
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


def softmax_ce_by_rows(logits, labels, weights=None):
    """The weighted softmax CE (loss, dloss/dlogits), unweighted without
    `weights`, as per-row reductions and a one-hot matrix compute it: the
    bitwise oracle of the column-at-a-time kernels."""
    b = logits.shape[0]
    weights = np.ones(b) if weights is None else weights
    wsum = weights.sum()
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    denom = expz.sum(axis=1)
    probs = expz / denom[:, None]
    loss = float((weights * (np.log(denom) - shifted[np.arange(b), labels])).sum() / wsum)
    onehot = np.zeros_like(probs)
    onehot[np.arange(b), labels] = 1.0
    return loss, (weights / wsum)[:, None] * (probs - onehot)


def vh_oracle(cls, alpha):
    """V_h's value, shared-final (dW, db) and trunk-output gradient, one
    array at a time: the bitwise oracle of `compute_vh`."""
    w = np.repeat(alpha.mean(axis=0) / cls.blocks.sizes, cls.blocks.sizes)
    wsum = w.sum()
    norm_loss, dlogits = softmax_ce_by_rows(cls.logits[0], cls.labels, w)
    value, dlogits = norm_loss * wsum, dlogits * wsum
    return (float(value), (dlogits.T @ cls.trunk.output, dlogits.sum(axis=0)),
            dlogits @ cls.stack.layers[0].W)


def vlambda_oracle(cls, alpha):
    """V_lambda's value, each head's (dW, db) and the trunk-output gradient
    as a loop over the heads, summed in head order: the bitwise oracle of
    `compute_vlambda`'s batched kernels."""
    n = alpha.shape[0]
    heads = cls.stack.layers[1:]
    w = np.repeat(alpha / cls.blocks.sizes, cls.blocks.sizes, axis=1)
    wsum = w.sum()
    logits = cls.logits[1:]
    norm_loss, dlogits = softmax_ce_by_rows(logits.reshape(-1, logits.shape[2]),
                                            np.tile(cls.labels, n), w.reshape(-1))
    dlogits = dlogits.reshape(logits.shape) * (wsum / n)
    grads = [(dlogits[i].T @ cls.trunk.output, dlogits[i].sum(axis=0)) for i in range(n)]
    dhidden = dlogits[0] @ heads[0].W
    for i in range(1, n):
        dhidden += dlogits[i] @ heads[i].W
    return float(norm_loss * wsum / n), grads, dhidden


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestBatchedHeads:
    def draws(self, count=40, seed=50):
        """(classifier pass, alpha) over random N, block sizes (one of a
        single row in half the draws), C and H."""
        rng = np.random.default_rng(seed)
        for k in range(count):
            n, c, h = rng.integers(1, 7), rng.integers(2, 10), rng.integers(1, 41)
            sizes = rng.integers(1, 21, size=n)
            if k % 2 and n > 1:
                sizes[rng.integers(n)] = 1
            bundle = make_bundle(2, c, n, rng, latent_dim=5, encoder_hidden=(4,),
                                 classifier_hidden=(h,), disc_hidden=(3,))
            z = rng.standard_normal((sizes.sum(), 5))
            labels = rng.integers(0, c, size=sizes.sum())
            alpha = np.stack([project_simplex(rng.random(n)) for _ in range(n)])
            blocks = Segments.of(sizes, "labeled")
            yield classifier_pass(bundle, z, labels, blocks), alpha

    def test_match_the_per_head_loop_bit_for_bit(self):
        for cls, alpha in self.draws():
            # the pass reads the bundle's stack, views of its network set
            assert np.shares_memory(cls.stack.W, cls.stack.layers[0].W)
            value, (dW, db), dz = vh_oracle(cls, alpha)
            vh = compute_vh(cls, alpha)
            (got_dW, got_db), = vh.grads.values()
            assert vh.value == value and same_bits(vh.dz, dz)
            assert same_bits(got_dW, dW) and same_bits(got_db, db)
            value, grads, dhidden = vlambda_oracle(cls, alpha)
            vl = compute_vlambda(cls, alpha)
            assert vl.value == value and same_bits(vl.dz, dhidden)
            assert tuple(vl.grads) == cls.stack.layers[1:]
            for (got_dW, got_db), (dW, db) in zip(vl.grads.values(), grads, strict=True):
                assert same_bits(got_dW, dW) and same_bits(got_db, db)

    def test_stacked_gradients_land_in_the_param_set(self):
        # the final layers' gradients are the set's gradient views
        cls, alpha = next(self.draws(1, seed=51))
        vh, vl = compute_vh(cls, alpha), compute_vlambda(cls, alpha)
        for layer, pair in (vh.grads | vl.grads).items():
            assert all(a is b for a, b in zip(pair, cls.stack.grads[layer], strict=True))

    def test_a_value_not_asked_for_is_none(self):
        for cls, alpha in self.draws(6, seed=52):
            for term in (compute_vh, compute_vlambda):
                full = term(cls, alpha)
                full = (full.value, {k: tuple(a.copy() for a in v)
                                     for k, v in full.grads.items()}, full.dz.copy())
                bare = term(cls, alpha, value=False)
                assert full[0] is not None and bare.value is None
                assert same_bits(bare.dz, full[2])
                for layer, pair in bare.grads.items():
                    assert all(same_bits(a, b) for a, b in zip(pair, full[1][layer]))


class TestTermGradients:
    @pytest.mark.parametrize("classifier_hidden", [(5,), (5, 4)],
                             ids=["trunk", "two_layer_trunk"])
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
        assert set().union(*parts) == set(bundle.net_params.layers)
        assert set(vd.grads) == set(bundle.discriminator.layers)


def alpha_step_per_row(alpha, coeffs, lr, max_backtracks=30, backtracked=None):
    """The per-row backtracking loop `alpha_step` once ran, as the bitwise
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
        # on rows on the simplex the loop's first, full step is accepted, so
        # one projection of every row gives its bits
        rng = np.random.default_rng(18)
        halvings = []
        for trial in range(300):
            n = int(rng.integers(1, 8))
            alpha = np.stack([project_simplex(rng.random(n)) for _ in range(n)])
            coeffs = rng.standard_normal((n, n)) * rng.choice([0.01, 1.0, 100.0])
            for lr in (0.01, 1.0, 1e3):
                want = alpha_step_per_row(alpha, coeffs, lr, backtracked=halvings)
                got = alpha_step(alpha, coeffs, lr)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (trial, lr)
        assert len(halvings) > 1000 and not any(halvings)

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


def labeled_batches(bundle, short=(), seed=28):
    """Latent originals, latent labeled blocks and their labels; the labeled
    domains in `short` have one row."""
    orig_z = encode(bundle, tiny_batches(seed=seed - 1)[0])
    lab, lab_labels = tiny_batches(seed=seed)
    for j in short:
        lab[j], lab_labels[j] = lab[j][:1], lab_labels[j][:1]
    return orig_z, encode(bundle, lab), lab_labels


def assert_errors_match_recount(bundle, lab_z, lab_labels, err_h, head_err):
    """The stacked 0/1 readouts against one network run per (net, domain)."""
    for j, z in enumerate(lab_z):
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
        orig_z, lab_z, lab_labels = labeled_batches(bundle, short=(1,))
        err = classifier_pass_of(bundle, lab_z, lab_labels).errors()
        rate = disc_pass_of(bundle, orig_z, lab_z).rates()[1]
        assert_errors_match_recount(bundle, lab_z, lab_labels, err[0], err[1:])
        np.testing.assert_array_equal(rate, disc_orig_rates(bundle, lab_z))

    def test_disc_orig_rates_match_per_block_recount(self):
        bundle = tiny_bundle(seed=6)
        orig_z, lab_z, _ = labeled_batches(bundle, short=(2,), seed=31)
        orig_rate, lab_rate = disc_pass_of(bundle, orig_z, lab_z).rates()
        np.testing.assert_array_equal(orig_rate, np.diag(disc_orig_rates(bundle, orig_z)))
        np.testing.assert_array_equal(lab_rate, disc_orig_rates(bundle, lab_z))

    @pytest.mark.parametrize("short", [(), (1,)], ids=["full", "one_row"])
    def test_post_update_pass_feeds_the_alpha_readouts(self, short):
        # a training step reads the alpha coefficients' discriminator rates
        # from the pass V_d reads after the discriminator update
        bundle = tiny_bundle(seed=7)
        orig_z, lab_z, lab_labels = labeled_batches(bundle, short=short, seed=34)
        alpha = random_alpha(3, seed=35)
        before = disc_pass_of(bundle, orig_z, lab_z)
        bundle.disc_params.step(compute_vd(before, alpha).grads, 0.05)
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
            # a step on this layer's gradient alone
            bundle.net_params.step({layer: (np.ones_like(layer.W), np.ones_like(layer.b))}, 0.05)
            with pytest.raises(ValueError, match="stale"):
                cls.backward(np.zeros_like(cls.trunk.output))


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
        # labeled domain 1 has a zero alpha column; 9 domains, so a sum out
        # of domain order (np.sum pairs terms from 8 up) shows
        rng = np.random.default_rng(27)
        for seed in range(12):
            bundle = tiny_bundle(n_domains=9, seed=seed)
            orig = random_blocks(bundle, rng, rng.integers(1, 40, 9))
            lab = random_blocks(bundle, rng, rng.integers(1, 15, 9))
            alpha = np.array([project_simplex(rng.random(9)) for _ in range(9)])
            alpha[:, 1] = 0.0
            alpha /= alpha.sum(axis=1, keepdims=True)
            np.testing.assert_array_equal(estimate_h_distance(bundle, orig, lab, alpha),
                                          h_distance_oracle(bundle, orig, lab, alpha))

    def test_one_forward_per_block(self, monkeypatch):
        bundle = tiny_bundle(seed=9)
        rng = np.random.default_rng(10)
        orig = random_blocks(bundle, rng, (5, 6, 7))
        lab = random_blocks(bundle, rng, (4, 1, 3))
        alpha = np.array([[0.5, 0.0, 0.5]] * 3)
        expected = h_distance_oracle(bundle, orig, lab, alpha)
        rows = []
        predict = bundle.discriminator.predict
        monkeypatch.setattr(bundle.discriminator, "predict",
                            lambda z: rows.append(z.shape[0]) or predict(z))
        np.testing.assert_array_equal(estimate_h_distance(bundle, orig, lab, alpha), expected)
        assert rows == [5, 6, 7, 4, 1, 3]

    def test_empty_sets_rejected(self):
        bundle = tiny_bundle()
        z = encode(bundle, tiny_batches()[0])
        alpha = np.array([[1, 0, 0.0]] * 3)
        with pytest.raises(ValueError, match="original domain 1 has no rows"):
            estimate_h_distance(bundle, [z[0], np.empty((0, 4)), z[2]], z, alpha)
        with pytest.raises(ValueError, match="labeled domain 0 has no rows"):
            estimate_h_distance(bundle, z, [np.empty((0, 4))] * 3, alpha)
        # under a zero alpha column as well
        with pytest.raises(ValueError, match="labeled domain 1 has no rows"):
            estimate_h_distance(bundle, z, [z[0], np.empty((0, 4)), z[2]], alpha)


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
        np.testing.assert_allclose(evaluate(bundle, ds), [0.25, 0.25])

    def test_matches_confusion_matrix_recount(self):
        spec = RotatingSpec(n_domains=3, train_per_domain=20, test_per_domain=30,
                            n_classes=3, total_range_deg=90.0, seed=1)
        ds = gen_rotating(spec)
        bundle = tiny_bundle(n_domains=3, n_classes=3, seed=4)
        per = evaluate(bundle, ds)
        assert per.shape == (3,)
        for i in range(3):
            pred = np.argmax(class_logits(bundle, ds.test_features[i]), axis=1)
            conf = np.zeros((3, 3), dtype=int)
            for p, t in zip(pred, ds.test_labels[i]):
                conf[t, p] += 1
            np.testing.assert_allclose(per[i], np.trace(conf) / conf.sum())
