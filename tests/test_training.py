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

        def recorded(bundle, config, batch, layout, ws, alpha, coeff_ema, last_step):
            out = step(bundle, config, batch, layout, ws, alpha, coeff_ema, last_step)
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

    def test_originals_drawn_but_gathered_only_for_the_discriminator(self):
        ds, pool = toy_setup()
        labeled = [(pool.labeled_features(j), pool.labels(j)) for j in range(ds.n_domains)]
        rng, bare_rng = np.random.default_rng(4), np.random.default_rng(4)
        layout = batch_layout(ds, labeled, 8)
        batches = list(training._batch_sampler(ds, labeled, layout, True)(rng, 5))
        bare = list(training._batch_sampler(ds, labeled, layout, False)(bare_rng, 5))
        assert len(batches) == len(bare) == 5
        for (x, labels), (bare_x, bare_labels) in zip(batches, bare):
            n_lab = labels.size
            assert x.shape == (8 * ds.n_domains + n_lab, ds.feature_dim)
            # without the originals the batch holds only the labeled blocks
            assert np.array_equal(bare_x, x[-n_lab:]) and bare_x.shape[0] == n_lab
            assert np.array_equal(bare_labels, labels)
        assert rng.random() == bare_rng.random()  # the stream is the same after

    @pytest.mark.parametrize("short", [(), (1,)], ids=["full", "one_row"])
    def test_batch_stacks_the_per_block_gathers_in_layout_order(self, short):
        # oracle: one gather per block from a twin stream, stacked as
        # [O_0, ..., O_{N-1}, L_0, ..., L_{N-1}], step after step; a labeled
        # domain of one row gives one row
        ds, pool = toy_setup()
        labeled = [(pool.labeled_features(j), pool.labels(j)) for j in range(ds.n_domains)]
        for j in short:
            labeled[j] = (labeled[j][0][:1], labeled[j][1][:1])
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        epoch = training._batch_sampler(ds, labeled, batch_layout(ds, labeled, 8), True)
        for x, labels in epoch(rng, 4):
            blocks, want_labels = [], []
            for i in range(ds.n_domains):
                take = twin.choice(ds.train_size(i), size=8, replace=False)
                blocks.append(ds.train_features[i][take])
            for feats, y in labeled:
                take = twin.choice(y.size, size=min(8, y.size), replace=False)
                blocks.append(feats[take])
                want_labels.append(y[take])
            assert x.tobytes() == np.vstack(blocks).tobytes()
            assert np.array_equal(labels, np.concatenate(want_labels))
        assert rng.random() == twin.random()

    def test_a_block_draws_as_many_rows_as_the_layout_says(self):
        # the layout is the one home of the draw sizes: any sizes it gives
        # are drawn, from the same stream as one gather per block
        ds, pool = toy_setup()
        labeled = [(pool.labeled_features(j), pool.labels(j)) for j in range(ds.n_domains)]
        layout = BlockLayout.of([2, 5, 3], [1, 4, 2])
        rng, twin = np.random.default_rng(6), np.random.default_rng(6)
        for x, labels in training._batch_sampler(ds, labeled, layout, True)(rng, 3):
            takes = [twin.choice(size, size=k, replace=False) for size, k in
                     zip([ds.train_size(i) for i in range(3)] + [y.size for _, y in labeled],
                         [2, 5, 3, 1, 4, 2])]
            want = [ds.train_features[i][t] for i, t in enumerate(takes[:3])]
            want += [f[t] for (f, _), t in zip(labeled, takes[3:])]
            assert x.tobytes() == np.vstack(want).tobytes()
            assert np.array_equal(labels, np.concatenate([y[t] for (_, y), t in
                                                          zip(labeled, takes[3:])]))
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


def choice_loop(rng, blocks, used, steps):
    """The reference draws: `rng.choice(n, size=k, replace=False)` for each
    block (n, k) in turn, step after step, the `used` blocks' side by side."""
    out = []
    for _ in range(steps):
        picks = [rng.choice(n, size=k, replace=False) for n, k in blocks]
        out.append(np.concatenate([picks[b] for b in used]))
    return np.array(out)


def drawn(draws, rng, steps):
    """The picks `draws` writes for `steps` steps."""
    out = np.empty((steps, draws.width), np.int64)
    draws(rng, out)
    return out


def hold_a_half(rng):
    """Leave the generator holding an unread 32-bit half, as a 32-bit draw does."""
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, 0x9E3779B9
    rng.bit_generator.state = state


class TestBlockDraws:
    @pytest.mark.parametrize("blocks, used, steps", [
        # Floyd's j = 0 draws nothing where k = n
        ([(16, 16), (7, 7), (30, 5), (2, 2)], [0, 1, 2, 3], 6),
        ([(1, 1), (9, 1), (1, 1), (5, 3)], [0, 1, 2, 3], 6),
        # no block draws: every pick is row 0
        ([(1, 1)] * 4, [0, 1, 2, 3], 5),
        ([(2000, 128), (2000, 128), (203, 128), (197, 128), (150, 128)], [0, 1, 2, 3, 4], 3),
        # vanilla: the originals are drawn but not read
        ([(3000, 64), (3000, 64), (50, 50), (61, 50)], [2, 3], 4),
        ([(400, 16)] * 6 + [(10, 10), (11, 10), (30, 16), (1, 1), (2, 1), (16, 16)], range(12),
         25),
    ], ids=["k_is_n", "k_is_1", "no_draws", "bigbatch", "unused_originals", "cal_default"])
    @pytest.mark.parametrize("held", [False, True], ids=["fresh", "held_half"])
    def test_the_picks_are_the_choice_calls(self, blocks, used, steps, held):
        draws = training._BlockDraws(blocks, used)
        for seed in range(8):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            if held:
                hold_a_half(rng)
                hold_a_half(twin)
            for piece in (steps, 1):
                got = drawn(draws, rng, piece)
                assert np.array_equal(got, choice_loop(twin, blocks, used, piece))
                assert rng.bit_generator.state == twin.bit_generator.state
            assert rng.random() == twin.random()

    def test_an_epoch_in_pieces_reads_on_where_each_piece_stopped(self, monkeypatch):
        ds, pool = toy_setup()
        labeled = [(pool.labeled_features(j), pool.labels(j)) for j in range(ds.n_domains)]
        layout = batch_layout(ds, labeled, 8)
        whole = training._batch_sampler(ds, labeled, layout, True)
        # 42 picks a step: pieces of 2 steps, so 5 steps are 2 + 2 + 1
        monkeypatch.setattr(training, "_PIECE_BYTES", 700)
        pieced = training._batch_sampler(ds, labeled, layout, True)
        pieces = []
        draw = training._BlockDraws.__call__
        monkeypatch.setattr(training._BlockDraws, "__call__",
                            lambda self, rng, out: pieces.append(len(out)) or draw(self, rng, out))
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        hold_a_half(rng)
        hold_a_half(twin)
        got = [x.tobytes() for x, _ in pieced(rng, 5)]
        assert pieces == [2, 2, 1]
        assert got == [x.tobytes() for x, _ in whole(twin, 5)] and pieces[3:] == [5]
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("used", [[0, 1], [1]], ids=["read", "unread"])
    def test_rejected_words_are_retried_as_the_calls_retry_them(self, used):
        # ranges near 3 * 2^29: Lemire's test rejects a quarter of the words,
        # in a block read or only drawn, and the draws read the retries
        blocks = [(3 << 29, 3), (40, 8)]
        draws = training._BlockDraws(blocks, used)
        assert draws.batched
        for seed in range(4):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(drawn(draws, rng, 8), choice_loop(twin, blocks, used, 8))
            assert rng.random() == twin.random()

    @pytest.mark.parametrize("bits", [np.random.MT19937, np.random.Philox, np.random.SFC64])
    def test_any_bit_generator_gives_the_calls_picks(self, bits):
        blocks, used = [(400, 16)] * 3 + [(10, 10), (30, 16), (1, 1)], range(6)
        draws = training._BlockDraws(blocks, used)
        rng, twin = np.random.Generator(bits(7)), np.random.Generator(bits(7))
        assert np.array_equal(drawn(draws, rng, 5), choice_loop(twin, blocks, used, 5))
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("take, batched", [(200, True), (201, False)])
    def test_a_block_the_calls_shuffle_the_tail_of_makes_the_calls(self, take, batched):
        # `choice` shuffles the tail of arange(n) instead of Floyd's
        # algorithm for n > 10,000 and k > n // 50
        blocks = [(10_001, take), (40, 8)]
        draws = training._BlockDraws(blocks, [0, 1])
        assert draws.batched == batched
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        assert np.array_equal(drawn(draws, rng, 2), choice_loop(twin, blocks, [0, 1], 2))
        assert rng.random() == twin.random()


class TestStepBuffers:
    def test_steps_of_a_round_write_over_one_set_of_arrays(self, monkeypatch):
        # the discriminator's passes before and after its update keep apart
        passes = []
        forward = DenseNet.forward

        def recorded(net, x, *where):
            trace = forward(net, x, *where)
            passes.append((net, trace.acts[1:]))
            return trace
        monkeypatch.setattr(DenseNet, "forward", recorded)
        ds, pool = toy_setup()
        rr = train_round(ds, pool, fast_cfg(epochs=1), seed=8)
        enc = [acts for net, acts in passes if net is rr.bundle.encoder]
        disc = [acts for net, acts in passes if net is rr.bundle.discriminator]
        assert len(enc) == 8 and len(disc) == 2 * 8  # 8 steps, no pass outside them

        def same(a, b):
            return all(x is y for x, y in zip(a, b, strict=True))

        def apart(a, b):
            return not any(np.shares_memory(x, y) for x in a for y in b)
        assert same(enc[0], enc[1]) and same(disc[0], disc[2]) and same(disc[1], disc[3])
        assert apart(disc[0], disc[1])

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
        # 12 steps of 768 rows at the default widths, Linux, glibc 2.36. With
        # the malloc thresholds `mudal` fixes at import, a warmed-up round
        # faults in 0-1 pages. Under glibc's own dynamic thresholds it
        # faulted 634-635 (the round's buffers, given back when the heap top
        # is trimmed after the round), and ~2,960 where the caller set a
        # 128 KiB trim threshold, which keeps `mudal` from fixing them.
        # Allocating each step's arrays afresh re-faulted the heap top every
        # step, 5,602 pages
        ds = gen_rotating(RotatingSpec(n_domains=3, train_per_domain=300, test_per_domain=40,
                                       seed=0))
        pool = init_pool(ds, 390, seed=1)
        cfg = TrainConfig("cal", epochs=4, batch_size=128)
        train_round(ds, pool, cfg, seed=2)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train_round(ds, pool, cfg, seed=2)
        bound = 50 if mudal.FREED_MEMORY_KEPT else 3500
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < bound

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the reading was taken on Linux")
    def test_a_round_holds_what_it_held_before_its_kernels_were_batched(self):
        # the same 12 steps of 768 rows. On Linux (glibc 2.36, NumPy 2.4),
        # tracemalloc's peak over a warmed-up round read 3,214,924 bytes with
        # per-head kernels and transient loss and Adam arrays, and 3,343,108
        # bytes with the batched heads' (N, B, H) products and the round's
        # loss and Adam arrays. The peak falls in V_lambda's term (2,909,064
        # bytes), on top of everything the round keeps, since the epoch
        # snapshot runs no pass of its own; it may grow 5% past the first
        # reading
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
