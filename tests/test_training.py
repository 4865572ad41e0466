import sys

import numpy as np
import pytest

from mudal import training
from mudal.data import RotatingSpec, gen_rotating, init_pool
from mudal.models import make_bundle
from mudal.nn import DenseNet
from mudal.objective import alpha_step, compute_vd, compute_vh
from mudal.training import (VARIANTS, NumericalAbort, TrainConfig, train_round,
                            write_snapshots_csv)

try:
    import resource
except ImportError:  # not on every platform
    resource = None


def toy_setup(n_domains=3, n_classes=3, seed=0, m0=18):
    spec = RotatingSpec(n_domains=n_domains, train_per_domain=60, test_per_domain=30,
                        n_classes=n_classes, total_range_deg=90.0, seed=seed)
    ds = gen_rotating(spec)
    pool = init_pool(ds, m0, seed=seed + 1)
    return ds, pool


def shared_trunk_ok(bundle):
    """Oracle of the heads' trunk sharing: every head's net is the
    classifier's non-final layers (the same objects) and its own final, and
    the parameter set updates each of those layers once."""
    trunk = bundle.classifier.layers[:-1]
    heads = [DenseNet([*trunk, final]) for final in bundle.head_finals]
    layers = bundle.net_param_set().layers
    return (all(a is b for head in heads for a, b in zip(head.layers[:-1], trunk))
            and all(sum(x is layer for x in layers) == 1
                    for layer in [*trunk, *bundle.head_finals]))


def fast_cfg(**over):
    base = dict(variant="cal", epochs=4, batch_size=8, latent_dim=8,
                encoder_hidden=(12,), classifier_hidden=(12,), disc_hidden=(12,))
    base.update(over)
    return TrainConfig(**base)


class TestTrainRound:
    def test_identical_seed_bitwise_identical(self):
        ds, pool = toy_setup()
        a = train_round(ds, pool, fast_cfg(), seed=7)
        b = train_round(ds, pool, fast_cfg(), seed=7)
        for la, lb in zip(a.bundle.encoder.layers, b.bundle.encoder.layers):
            assert np.array_equal(la.W, lb.W) and np.array_equal(la.b, lb.b)
        for la, lb in zip(a.bundle.classifier.layers, b.bundle.classifier.layers):
            assert np.array_equal(la.W, lb.W)
        assert np.array_equal(a.alpha.alpha, b.alpha.alpha)

    def test_different_seeds_differ(self):
        ds, pool = toy_setup()
        a = train_round(ds, pool, fast_cfg(), seed=1)
        b = train_round(ds, pool, fast_cfg(), seed=2)
        assert not np.array_equal(a.bundle.encoder.layers[0].W,
                                  b.bundle.encoder.layers[0].W)

    def test_alpha_rows_stay_on_simplex(self):
        ds, pool = toy_setup()
        rr = train_round(ds, pool, fast_cfg(epochs=6), seed=3)
        assert np.all(rr.alpha.alpha >= 0)
        np.testing.assert_allclose(rr.alpha.alpha.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("variant", ["cal", "cal_alpha"])
    def test_every_alpha_step_stays_on_simplex(self, monkeypatch, variant):
        steps = []

        def recorded(*args):
            steps.append(alpha_step(*args))
            return steps[-1]

        monkeypatch.setattr(training, "alpha_step", recorded)
        ds, pool = toy_setup()
        train_round(ds, pool, fast_cfg(variant=variant, epochs=6), seed=3)
        assert steps
        for alpha in steps:
            assert np.all(alpha >= 0.0)
            np.testing.assert_allclose(alpha.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)

    def test_shared_trunk_invariant_after_training(self):
        ds, pool = toy_setup()
        rr = train_round(ds, pool, fast_cfg(), seed=4)
        assert shared_trunk_ok(rr.bundle)

    def test_vanilla_fits_separable_data(self):
        # single well-separated blob per class: train accuracy beyond 95%
        spec = RotatingSpec(n_domains=2, train_per_domain=80, test_per_domain=40,
                            n_classes=3, total_range_deg=10.0, noise=0.05, seed=5)
        ds = gen_rotating(spec)
        pool = init_pool(ds, 80, seed=6)
        cfg = fast_cfg(variant="vanilla", epochs=40, lr=5e-3)
        rr = train_round(ds, pool, cfg, seed=7)
        correct = total = 0
        for j in range(ds.n_domains):
            feats = pool.labeled_features(j)
            pred = np.argmax(rr.bundle.class_logits(feats), axis=1)
            correct += int((pred == pool.labels(j)).sum())
            total += feats.shape[0]
        assert correct / total > 0.95

    def test_single_domain_degenerates(self):
        ds, pool = toy_setup(n_domains=1, m0=10)
        rr = train_round(ds, pool, fast_cfg(epochs=3), seed=8)
        np.testing.assert_array_equal(rr.alpha.alpha, [[1.0]])

    def test_vanilla_has_no_discriminator(self):
        ds, pool = toy_setup()
        rr = train_round(ds, pool, fast_cfg(variant="vanilla"), seed=9)
        assert rr.bundle.discriminator is None
        assert all(np.all(s.disc_acc == 0) for s in rr.history)
        assert all(s.v_d == 0 for s in rr.history)

    def test_cal_fa_keeps_alpha_uniform(self):
        ds, pool = toy_setup()
        rr = train_round(ds, pool, fast_cfg(variant="cal_fa"), seed=10)
        np.testing.assert_allclose(rr.alpha.alpha, 1.0 / 3.0, atol=1e-12)
        assert rr.bundle.discriminator is not None

    def test_cal_alpha_moves_alpha(self):
        ds, pool = toy_setup()
        rr = train_round(ds, pool, fast_cfg(variant="cal_alpha", epochs=6), seed=11)
        assert not np.allclose(rr.alpha.alpha, 1.0 / 3.0, atol=1e-3)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_each_step_runs_the_encoder_once(self, variant, monkeypatch):
        calls = []
        for name in ("forward", "backward"):
            def counted(net, *args, _name=name, _orig=getattr(DenseNet, name), **kwargs):
                calls.append((_name, net))
                return _orig(net, *args, **kwargs)
            monkeypatch.setattr(DenseNet, name, counted)
        ds, pool = toy_setup()
        cfg = fast_cfg(variant=variant, epochs=2)
        rr = train_round(ds, pool, cfg, seed=8)
        steps = 8  # ceil(60 train points / batch 8) steps per epoch

        def net_calls(kind, is_net):
            return sum(1 for k, net in calls if k == kind and is_net(net))

        def encoder_calls(kind):
            return net_calls(kind, lambda net: net is rr.bundle.encoder)

        def trunk_calls(kind):
            return net_calls(kind, lambda net: net.layers[0] is rr.bundle.classifier.layers[0])

        def disc_calls(kind):
            return net_calls(kind, lambda net: net is rr.bundle.discriminator)

        # each step encodes its stacked blocks once; the epoch snapshot
        # encodes them once more to read the discriminator
        snapshot = 1 if cfg.trains_discriminator else 0
        assert encoder_calls("forward") == cfg.epochs * (steps + snapshot)
        # the summed latent gradient goes back through the encoder once a step
        assert encoder_calls("backward") == cfg.epochs * steps
        # one classifier-trunk pass feeds V_h, V_lambda and the alpha readouts
        assert trunk_calls("forward") == trunk_calls("backward") == cfg.epochs * steps
        # the discriminator runs once before its update and once after it;
        # the snapshot reads one more pass. It runs backward for its update,
        # and after it only where the encoder reads V_d's latent gradient
        disc_steps = 2 * steps if cfg.trains_discriminator else 0
        assert disc_calls("forward") == cfg.epochs * (disc_steps + snapshot)
        disc_backwards = steps * (cfg.trains_discriminator + cfg.aligns_encoder)
        assert disc_calls("backward") == cfg.epochs * disc_backwards

    @pytest.mark.parametrize("variant, disc_flags", [
        # the update reads the layer gradients; V_d at the new alpha, its
        # latent gradient where the encoder aligns, else only its value
        ("cal", [(True, False), (False, True)]),
        ("cal_fa", [(True, False), (False, True)]),
        ("cal_alpha", [(True, False)]),
        ("vanilla", []),
    ])
    def test_each_backward_computes_only_what_is_read(self, variant, disc_flags, monkeypatch):
        calls = []
        full = DenseNet.backward

        def recorded(net, trace, grad, *, params=True, inputs=True):
            calls.append((net, params, inputs))
            return full(net, trace, grad, params=params, inputs=inputs)
        monkeypatch.setattr(DenseNet, "backward", recorded)
        step = training._train_step

        def one_step(bundle, *args):
            calls.clear()
            out = step(bundle, *args)
            steps.append([(p, i) for net, p, i in calls if net is bundle.discriminator])
            # the encoder's input gradient is never read
            assert [(p, i) for net, p, i in calls if net is bundle.encoder] == [(True, False)]
            return out
        steps = []
        monkeypatch.setattr(training, "_train_step", one_step)
        ds, pool = toy_setup()
        train_round(ds, pool, fast_cfg(variant=variant, epochs=1), seed=8)
        assert steps == [disc_flags] * 8  # ceil(60 train points / batch 8) steps

    @pytest.mark.parametrize("variant, per_epoch", [("cal", 8), ("cal_fa", 8), ("cal_alpha", 1),
                                                    ("vanilla", 0)])
    def test_post_update_vd_runs_only_where_read(self, variant, per_epoch, monkeypatch):
        # V_d at the new alpha runs on every step where the encoder reads its
        # latent gradient, else once an epoch for the snapshot's value
        calls = []
        full = training.compute_vd
        monkeypatch.setattr(training, "compute_vd",
                            lambda disc, alpha, **kw: calls.append(kw) or full(disc, alpha, **kw))
        ds, pool = toy_setup()
        rr = train_round(ds, pool, fast_cfg(variant=variant, epochs=2), seed=8)
        assert sum(kw.get("params", True) is False for kw in calls) == 2 * per_epoch
        assert all(snap.v_d != 0.0 for snap in rr.history) == (variant != "vanilla")

    def test_originals_drawn_but_gathered_only_for_the_discriminator(self):
        ds, pool = toy_setup()
        labeled = [(pool.labeled_features(j), pool.labels(j)) for j in range(ds.n_domains)]
        rng, bare_rng = np.random.default_rng(4), np.random.default_rng(4)
        x, labels = training._sample_batches(rng, ds, labeled, 8, True)
        bare_x, bare_labels = training._sample_batches(bare_rng, ds, labeled, 8, False)
        n_lab = labels.size
        assert x.shape == (8 * ds.n_domains + n_lab, ds.feature_dim)
        # without the originals the batch holds only the labeled blocks
        assert np.array_equal(bare_x, x[-n_lab:]) and bare_x.shape[0] == n_lab
        assert np.array_equal(bare_labels, labels)
        assert rng.random() == bare_rng.random()  # the stream is the same after

    @pytest.mark.parametrize("empty", [(), (1,)], ids=["full", "empty_domain"])
    def test_batch_stacks_the_per_block_gathers_in_layout_order(self, empty):
        # oracle: one gather per block from a twin stream, stacked as
        # [O_0, ..., O_{N-1}, L_0, ..., L_{N-1}]; an empty labeled domain
        # draws nothing and adds no rows
        ds, pool = toy_setup()
        labeled = [(pool.labeled_features(j), pool.labels(j)) for j in range(ds.n_domains)]
        for j in empty:
            labeled[j] = (np.empty((0, ds.feature_dim)), np.empty(0, dtype=np.int64))
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        x, labels = training._sample_batches(rng, ds, labeled, 8, True)
        blocks, want_labels = [], []
        for i in range(ds.n_domains):
            take = twin.choice(ds.train_size(i), size=8, replace=False)
            blocks.append(ds.train_features[i][take])
        for feats, y in labeled:
            if y.size:
                take = twin.choice(y.size, size=min(8, y.size), replace=False)
                blocks.append(feats[take])
                want_labels.append(y[take])
        assert x.tobytes() == np.vstack(blocks).tobytes()
        assert np.array_equal(labels, np.concatenate(want_labels))
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("variant, heads_move", [("vanilla", False), ("cal_fa", False),
                                                     ("cal", True)])
    def test_head_finals_move_only_under_vlambda(self, variant, heads_move, monkeypatch):
        # a head final no term reaches steps on a zero gradient with zero
        # moments, which leaves every bit of it as initialized
        initial = []

        def recording(*args, **kwargs):
            bundle = make_bundle(*args, **kwargs)
            initial.extend((h.W.copy(), h.b.copy()) for h in bundle.head_finals)
            return bundle
        monkeypatch.setattr(training, "make_bundle", recording)
        ds, pool = toy_setup()
        rr = train_round(ds, pool, fast_cfg(variant=variant, epochs=2), seed=12)
        assert len(initial) == ds.n_domains
        for head, (W, b) in zip(rr.bundle.head_finals, initial):
            same = (np.array_equal(head.W.view(np.int64), W.view(np.int64))
                    and np.array_equal(head.b.view(np.int64), b.view(np.int64)))
            assert same != heads_move

    def test_numerical_abort_on_divergence(self):
        # a pathological step size overflows the second matmul immediately
        ds, pool = toy_setup()
        with pytest.raises(NumericalAbort):
            train_round(ds, pool, fast_cfg(lr=1e160, epochs=2), seed=13)

    def test_history_schema(self, tmp_path):
        ds, pool = toy_setup()
        rr = train_round(ds, pool, fast_cfg(epochs=3), seed=14)
        assert [s.epoch for s in rr.history] == [1, 2, 3]
        for s in rr.history:
            assert s.finite()
            np.testing.assert_allclose(
                s.t_value, s.v_h - 1.0 * s.v_d + s.v_lambda, atol=1e-12)
        path = tmp_path / "snapshots.csv"
        write_snapshots_csv(rr.history, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("epoch,V_h,V_d,V_lambda,T,disc_acc_0")
        assert len(lines) == 4


class TestStepBuffers:
    def test_steps_of_a_round_write_over_one_set_of_arrays(self, monkeypatch):
        # the discriminator's passes before and after its update keep apart,
        # and the epoch snapshot allocates its own
        passes = []
        forward = DenseNet.forward

        def recorded(net, x, out=None):
            trace = forward(net, x, out)
            passes.append((net, trace.acts[1:]))
            return trace
        monkeypatch.setattr(DenseNet, "forward", recorded)
        ds, pool = toy_setup()
        rr = train_round(ds, pool, fast_cfg(epochs=1), seed=8)
        enc = [acts for net, acts in passes if net is rr.bundle.encoder]
        disc = [acts for net, acts in passes if net is rr.bundle.discriminator]
        assert len(enc) == 8 + 1 and len(disc) == 2 * 8 + 1  # 8 steps, then the snapshot

        def same(a, b):
            return all(x is y for x, y in zip(a, b, strict=True))

        def apart(a, b):
            return not any(np.shares_memory(x, y) for x in a for y in b)
        assert same(enc[0], enc[1]) and same(disc[0], disc[2]) and same(disc[1], disc[3])
        assert apart(disc[0], disc[1])
        assert apart(enc[0], enc[-1]) and apart(disc[0], disc[-1]) and apart(disc[1], disc[-1])

    def test_a_pass_kept_past_its_step_is_refused(self, monkeypatch):
        kept = {}  # the first step's passes, by name, and traces, by net

        def keeping(key, run):
            def kept_first(*args, **kwargs):
                result = run(*args, **kwargs)
                kept.setdefault(key(*args), result)
                return result
            return kept_first
        for name in ("classifier_pass", "disc_pass"):
            monkeypatch.setattr(training, name,
                                keeping(lambda *_, name=name: name, getattr(training, name)))
        monkeypatch.setattr(DenseNet, "forward",
                            keeping(lambda net, *_: net, DenseNet.forward))
        ds, pool = toy_setup()
        rr = train_round(ds, pool, fast_cfg(epochs=1), seed=8)
        # later steps wrote over the first step's buffers
        cls, disc, enc = kept["classifier_pass"], kept["disc_pass"], kept[rr.bundle.encoder]
        assert not np.array_equal(disc.trace.output, rr.bundle.discriminator.predict(
            disc.trace.acts[0]))
        alpha = rr.alpha.alpha
        for read in (cls.errors, lambda: compute_vh(cls, alpha), disc.rates,
                     lambda: compute_vd(disc, alpha),
                     lambda: rr.bundle.encoder.backward(enc, np.zeros_like(enc.output))):
            with pytest.raises(ValueError, match="stale trace"):
                read()

    @pytest.mark.skipif(resource is None or not sys.platform.startswith("linux"),
                        reason="counts the page faults of glibc's heap")
    def test_a_round_does_not_refault_the_heap_each_step(self):
        # 12 steps of 768 rows at the default widths. On Linux with glibc
        # 2.36, a warmed-up round faulted in 1,128 pages (the round's buffers
        # and the four epoch snapshots); allocating each step's arrays afresh
        # re-faulted the heap top every step, 5,602 pages
        ds = gen_rotating(RotatingSpec(n_domains=3, train_per_domain=300, test_per_domain=40,
                                       seed=0))
        pool = init_pool(ds, 390, seed=1)
        cfg = TrainConfig("cal", epochs=4, batch_size=128)
        train_round(ds, pool, cfg, seed=2)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train_round(ds, pool, cfg, seed=2)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 3500
