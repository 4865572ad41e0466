import gc
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import mudal
from mudal import training
from mudal.data import LabeledPool, RotatingSpec, gen_rotating, init_pool
from mudal.models import make_bundle
from mudal.nn import DenseNet
from mudal.objective import BlockLayout, alpha_step, compute_vd, compute_vh, decision_rates
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


def batch_layout(ds, labeled, batch):
    """The round's `BlockLayout` as `train_round` builds it: up to `batch`
    rows of each domain's train rows and of each labeled domain."""
    return BlockLayout.of([min(batch, ds.train_size(i)) for i in range(ds.n_domains)],
                          [min(batch, y.size) for _, y in labeled])


def shared_trunk_ok(bundle):
    """Oracle of the heads' trunk sharing: every head's net is the
    classifier's non-final layers (the same objects) and its own final, and
    the parameter set updates each of those layers once."""
    trunk = bundle.classifier.layers[:-1]
    heads = [DenseNet([*trunk, final]) for final in bundle.head_finals]
    layers = bundle.net_params.layers
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
            pred = np.argmax(rr.bundle.classifier.predict(rr.bundle.encode(feats)), axis=1)
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

        # each step encodes its stacked blocks once, and nothing else runs
        # the encoder: the epoch snapshot reads the last step's passes
        assert encoder_calls("forward") == cfg.epochs * steps
        # the summed latent gradient goes back through the encoder once a step
        assert encoder_calls("backward") == cfg.epochs * steps
        # one classifier-trunk pass feeds V_h, V_lambda and the alpha readouts
        assert trunk_calls("forward") == trunk_calls("backward") == cfg.epochs * steps
        # the discriminator runs once before its update and once after it.
        # It runs backward for its update, and after it only where the
        # encoder reads V_d's latent gradient
        disc_steps = 2 * steps if cfg.trains_discriminator else 0
        assert disc_calls("forward") == cfg.epochs * disc_steps
        disc_backwards = steps * (cfg.trains_discriminator + cfg.aligns_encoder)
        assert disc_calls("backward") == cfg.epochs * disc_backwards

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_snapshot_reads_the_last_steps_discriminator_pass(self, variant, monkeypatch):
        # the oracle: after each epoch's last step, the updated discriminator
        # run afresh on the latent rows that step fed it, read at the alpha
        # the step returned. Re-encoding the batch after the step would
        # differ from it on this setup in every variant
        step, expected = training._train_step, []

        def recorded(bundle, config, batch, layout, alpha, coeff_ema, last_step):
            out = step(bundle, config, batch, layout, alpha, coeff_ema, last_step)
            alpha, disc = out[0], out[3]
            assert (disc is None) == (variant == "vanilla")
            if last_step and disc is not None:
                logits = bundle.discriminator.predict(disc.trace.acts[0])
                orig_rate, lab_rate = decision_rates(logits, layout)
                expected.append(0.5 * (orig_rate + (alpha * (1.0 - lab_rate)).sum(axis=1)))
            return out
        monkeypatch.setattr(training, "_train_step", recorded)
        ds, pool = toy_setup()
        rr = train_round(ds, pool, fast_cfg(variant=variant, epochs=3), seed=8)
        if variant == "vanilla":
            expected = [np.zeros(ds.n_domains)] * 3
        assert len(expected) == len(rr.history) == 3
        for snap, acc in zip(rr.history, expected):
            assert np.array_equal(snap.disc_acc, acc)

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

    def test_originals_are_drawn_only_for_the_discriminator(self):
        # without the originals the batch holds only the labeled blocks, and
        # the generator shuffles only the labeled domains' rows
        ds, pool = toy_setup()
        labeled = [(pool.labeled_features(j), pool.labels(j)) for j in range(ds.n_domains)]
        layout = batch_layout(ds, labeled, 8)
        shuffled = {}
        for originals in (True, False):
            rng = Counting(np.random.PCG64(4))
            batches = list(training._batch_sampler(ds, labeled, layout, originals)(rng, 5))
            shuffled[originals] = rng.shuffled
            assert len(batches) == 5
            for x, labels in batches:
                assert x.shape == (8 * ds.n_domains * originals + labels.size, ds.feature_dim)
                assert labels.size == layout.n_lab.sum()
        lab_sizes = [y.size for _, y in labeled]
        assert shuffled[True] == [ds.train_size(i) for i in range(ds.n_domains)] + lab_sizes
        assert shuffled[False] == lab_sizes
        # the labeled blocks are a bare sampler's first draws
        takes = layout.n_lab.tolist()
        want = reshuffled(np.random.default_rng(4), list(zip(lab_sizes, takes)), 5)
        bare = training._batch_sampler(ds, labeled, layout, False)(np.random.default_rng(4), 5)
        for (x, labels), take in zip(bare, want, strict=True):
            picks = np.split(take, np.cumsum(takes)[:-1])
            assert x.tobytes() == np.vstack([f[t] for (f, _), t in zip(labeled, picks)]).tobytes()

    @pytest.mark.parametrize("short", [(), (1,)], ids=["full", "one_row"])
    def test_batch_stacks_the_per_block_gathers_in_layout_order(self, short):
        # oracle: one gather per block of the reference draws from a twin
        # stream, stacked as [O_0, ..., O_{N-1}, L_0, ..., L_{N-1}], step
        # after step; a labeled domain of one row gives one row
        ds, pool = toy_setup()
        labeled = [(pool.labeled_features(j), pool.labels(j)) for j in range(ds.n_domains)]
        for j in short:
            labeled[j] = (labeled[j][0][:1], labeled[j][1][:1])
        layout = batch_layout(ds, labeled, 8)
        sources = [*ds.train_features, *(f for f, _ in labeled)]
        takes = [*layout.n_orig.tolist(), *layout.n_lab.tolist()]
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        epoch = training._batch_sampler(ds, labeled, layout, True)
        for _ in range(2):  # each epoch draws afresh
            want = reshuffled(twin, [(f.shape[0], k) for f, k in zip(sources, takes)], 9)
            for (x, labels), take in zip(epoch(rng, 9), want, strict=True):
                picks = np.split(take, np.cumsum(takes)[:-1])
                assert x.tobytes() == np.vstack([f[t] for f, t in zip(sources, picks)]).tobytes()
                assert np.array_equal(labels, np.concatenate(
                    [y[t] for (_, y), t in zip(labeled, picks[ds.n_domains:])]))
        assert rng.random() == twin.random()

    def test_a_block_draws_as_many_rows_as_the_layout_says(self):
        # the layout is the one home of the draw sizes: any sizes it gives
        # are drawn, from the same stream as the reference draws
        ds, pool = toy_setup()
        labeled = [(pool.labeled_features(j), pool.labels(j)) for j in range(ds.n_domains)]
        layout = BlockLayout.of([2, 5, 3], [1, 4, 2])
        sizes = [ds.train_size(i) for i in range(3)] + [y.size for _, y in labeled]
        rng, twin = np.random.default_rng(6), np.random.default_rng(6)
        want = reshuffled(twin, list(zip(sizes, [2, 5, 3, 1, 4, 2])), 3)
        for (x, labels), take in zip(training._batch_sampler(ds, labeled, layout, True)(rng, 3),
                                     want, strict=True):
            picks = np.split(take, np.cumsum([2, 5, 3, 1, 4]))
            want_x = [ds.train_features[i][t] for i, t in enumerate(picks[:3])]
            want_x += [f[t] for (f, _), t in zip(labeled, picks[3:])]
            assert x.tobytes() == np.vstack(want_x).tobytes()
            assert np.array_equal(labels, np.concatenate([y[t] for (_, y), t in
                                                          zip(labeled, picks[3:])]))
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

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_values_on_every_step_change_nothing(self, variant, monkeypatch):
        # the terms compute their values only on each epoch's last step; a
        # round that asks for them on every step trains to the same bits
        ds, pool = toy_setup()
        cfg = fast_cfg(variant=variant, epochs=2)
        lean = train_round(ds, pool, cfg, seed=15)
        asked = []
        for name in ("compute_vh", "compute_vlambda", "compute_vd"):
            def always(*args, _term=getattr(training, name), **kwargs):
                asked.append(kwargs.get("value", True))
                return _term(*args, **{**kwargs, "value": True})
            monkeypatch.setattr(training, name, always)
        full = train_round(ds, pool, cfg, seed=15)
        assert asked and not all(asked)  # the lean round skips some values

        def state(rr):
            nets = [rr.bundle.encoder, rr.bundle.classifier] + (
                [rr.bundle.discriminator] if rr.bundle.discriminator else [])
            params = [p for net in nets for layer in net.layers for p in (layer.W, layer.b)]
            params += [p for head in rr.bundle.head_finals for p in (head.W, head.b)]
            return [p.tobytes() for p in [*params, rr.alpha.alpha]]
        assert state(lean) == state(full)
        assert [(s.epoch, s.v_h, s.v_d, s.v_lambda, s.t_value, s.disc_acc.tobytes())
                for s in lean.history] == [(s.epoch, s.v_h, s.v_d, s.v_lambda, s.t_value,
                                            s.disc_acc.tobytes()) for s in full.history]
        assert all(type(v) is float for s in lean.history for v in (s.v_h, s.v_d, s.v_lambda))

    def test_an_empty_labeled_domain_is_refused_by_name(self):
        ds, _ = toy_setup()
        pool = LabeledPool(ds)
        for j in (0, 2):
            pool.reveal(j, np.arange(4))
        with pytest.raises(ValueError, match="labeled domain 1 has no rows"):
            train_round(ds, pool, fast_cfg(), seed=0)

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


def reshuffled(rng, blocks, steps):
    """The reference draws, each step's picks of the blocks side by side:
    for each block (n, k) in turn, one `rng.permuted` call over
    ceil(steps / (n // k)) copies of arange(n), one shuffle a row; step
    after step takes the next k rows of the current shuffle, and the next
    shuffle starts where fewer than k are left."""
    per_block = []
    for n, k in blocks:
        shuffles = iter(rng.permuted(np.tile(np.arange(n), (-(-steps // (n // k)), 1)), axis=1))
        order, at, picks = next(shuffles), 0, []
        for _ in range(steps):
            if n - at < k:
                order, at = next(shuffles), 0
            picks.append(order[at:at + k])
            at += k
        per_block.append(picks)
    return [np.concatenate(step) for step in zip(*per_block)]


class Counting(np.random.Generator):
    """A generator that records the row length of each `permuted` call."""

    def __init__(self, bits):
        super().__init__(bits)
        self.shuffled = []

    def permuted(self, x, *args, **kwargs):
        self.shuffled.append(np.shape(x)[-1])
        return super().permuted(x, *args, **kwargs)


class TestReshuffledDraws:
    @pytest.mark.parametrize("n, k, steps", [
        (400, 16, 25), (60, 8, 8), (30, 8, 25), (10, 10, 7), (1, 1, 4), (2, 1, 5),
        (4000, 512, 8), (9, 4, 3)])
    @pytest.mark.parametrize("seed", range(3))
    def test_a_steps_rows_are_distinct_and_in_range(self, n, k, steps, seed):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        takes = training._shuffled_takes(rng, n, k, steps)
        assert takes.shape == (steps, k)
        assert takes.min() >= 0 and takes.max() < n
        assert all(np.unique(step).size == k for step in takes)
        assert np.array_equal(takes, np.array(reshuffled(twin, [(n, k)], steps)))
        assert rng.random() == twin.random()

    def test_each_original_is_drawn_once_an_epoch_at_the_default_shape(self):
        # cal_default: 400 train rows a domain in batches of 16, 25 steps;
        # each epoch draws every row once, in a new order
        rng = np.random.default_rng(0)
        epochs = [training._shuffled_takes(rng, 400, 16, 25) for _ in range(3)]
        for takes in epochs:
            assert np.array_equal(np.sort(takes, axis=None), np.arange(400))
        assert not np.array_equal(epochs[0], epochs[1])

    @pytest.mark.parametrize("n, k", [(30, 8), (11, 10), (17, 5)])
    def test_a_short_block_gives_distinct_rows_over_each_shuffles_steps(self, n, k):
        # a labeled block of fewer rows than the epoch draws: each shuffle's
        # n // k steps draw n // k * k distinct rows, and the next starts over
        steps, per = 25, n // k
        takes = training._shuffled_takes(np.random.default_rng(1), n, k, steps)
        for first in range(0, steps, per):
            rows = takes[first:first + per]
            assert np.unique(rows).size == rows.size


class TestStepBuffers:
    def test_steps_of_a_round_write_over_one_set_of_arrays(self, monkeypatch):
        # one encoder pass and two discriminator passes per step, before and
        # after its update
        passes = []
        forward = DenseNet.forward

        def recorded(net, x):
            passes.append(net)
            return forward(net, x)
        monkeypatch.setattr(DenseNet, "forward", recorded)
        ds, pool = toy_setup()
        rr = train_round(ds, pool, fast_cfg(epochs=1), seed=8)
        enc = [net for net in passes if net is rr.bundle.encoder]
        disc = [net for net in passes if net is rr.bundle.discriminator]
        assert len(enc) == 8 and len(disc) == 2 * 8  # 8 steps, no pass outside them

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
        # the first step's passes are kept past it: later steps updated the
        # weights they were computed with
        cls, disc, enc = kept["classifier_pass"], kept["disc_pass"], kept[rr.bundle.encoder]
        assert not np.array_equal(disc.trace.output, rr.bundle.discriminator.predict(
            disc.trace.acts[0]))
        alpha = rr.alpha.alpha
        for read in (cls.errors, lambda: compute_vh(cls, alpha), disc.rates,
                     lambda: compute_vd(disc, alpha),
                     lambda: rr.bundle.encoder.backward(enc, np.zeros_like(enc.output))):
            with pytest.raises(ValueError, match="stale trace"):
                read()

    def test_a_finished_round_is_freed_by_reference_counting(self):
        # a layer refers to its set's `AdamState`, never to the set, so no
        # cycle keeps a round's bundle alive until the collector runs
        ds, pool = toy_setup()
        enabled = gc.isenabled()
        gc.disable()
        try:
            rr = train_round(ds, pool, fast_cfg(epochs=1), seed=8)
            params, disc = weakref.ref(rr.bundle.net_params), weakref.ref(rr.bundle.disc_params)
            del rr
            assert params() is None and disc() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.skipif(resource is None or not sys.platform.startswith("linux"),
                        reason="counts the page faults of glibc's heap")
    def test_a_round_does_not_refault_the_heap_each_step(self):
        # 12 steps of 768 rows at the default widths, Linux, glibc 2.36.
        # Every pass computes into fresh arrays. With the malloc thresholds
        # `mudal` fixes at import, the freed arrays stay in the heap and a
        # warmed-up round faults in a few pages (0-3 from two checkout paths,
        # 22 with other code), as the heap's layout moves with the code, the
        # checkout path and the environment: the thresholds, not a cache of
        # the step's arrays, keep the round resident. Where the caller set a
        # 128 KiB trim threshold, which keeps `mudal` from fixing them, glibc
        # gives each step's freed arrays back and the round faults them in
        # again, 12,682-12,819 pages; the bound is that and 17% more
        ds = gen_rotating(RotatingSpec(n_domains=3, train_per_domain=300, test_per_domain=40,
                                       seed=0))
        pool = init_pool(ds, 390, seed=1)
        cfg = TrainConfig("cal", epochs=4, batch_size=128)
        train_round(ds, pool, cfg, seed=2)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train_round(ds, pool, cfg, seed=2)
        bound = 50 if mudal.FREED_MEMORY_KEPT else 15000
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < bound

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the reading was taken on Linux")
    def test_a_round_holds_what_it_held_before_its_kernels_were_batched(self):
        # the same 12 steps of 768 rows. On Linux (glibc 2.36, NumPy 2.4),
        # tracemalloc's peak over a warmed-up round read 3,214,924 bytes with
        # per-head kernels and transient loss and Adam arrays, and 3,343,108
        # bytes with the batched heads' (N, B, H) products and the round's
        # loss and Adam arrays. It now reads 2,719,284-2,723,493 bytes and
        # falls in a backward pass of the network step (`step_grads`), on top
        # of everything the round keeps: the epoch snapshot runs no pass of
        # its own, and an epoch's draws are one index array. It may grow 5%
        # past the first reading
        ds = gen_rotating(RotatingSpec(n_domains=3, train_per_domain=300, test_per_domain=40,
                                       seed=0))
        pool = init_pool(ds, 390, seed=1)
        cfg = TrainConfig("cal", epochs=4, batch_size=128)
        train_round(ds, pool, cfg, seed=2)
        tracemalloc.start()
        try:
            train_round(ds, pool, cfg, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 3_214_924
