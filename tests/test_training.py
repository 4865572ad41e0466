import numpy as np
import pytest

from mudal.data import RotatingSpec, gen_rotating, init_pool
from mudal.nn import DenseNet
from mudal.training import NumericalAbort, TrainConfig, train_round, write_snapshots_csv


def toy_setup(n_domains=3, n_classes=3, seed=0, m0=18):
    spec = RotatingSpec(n_domains=n_domains, train_per_domain=60, test_per_domain=30,
                        n_classes=n_classes, total_range_deg=90.0, seed=seed)
    ds = gen_rotating(spec)
    pool = init_pool(ds, m0, seed=seed + 1)
    return ds, pool


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

    def test_shared_trunk_invariant_after_training(self):
        ds, pool = toy_setup()
        rr = train_round(ds, pool, fast_cfg(), seed=4)
        assert rr.bundle.shared_trunk_ok()

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

    def test_cal_step_runs_the_encoder_once_per_block(self, monkeypatch):
        calls = []
        for name in ("forward", "backward"):
            def counted(net, *args, _name=name, _orig=getattr(DenseNet, name)):
                calls.append((_name, net))
                return _orig(net, *args)
            monkeypatch.setattr(DenseNet, name, counted)
        ds, pool = toy_setup()
        rr = train_round(ds, pool, fast_cfg(epochs=1), seed=8)
        n, steps = 3, 8  # ceil(60 train points / batch 8) steps in the one epoch

        def encoder_calls(kind):
            return sum(1 for k, net in calls if k == kind and net is rr.bundle.encoder)

        # each step encodes the N original and N labeled blocks once, plus
        # V_h's stacked pass; the epoch snapshot encodes the 2N blocks again
        assert encoder_calls("forward") == steps * (2 * n + 1) + 2 * n
        # each step backpropagates V_h's pass, V_lambda's N labeled blocks
        # and V_d's 2N blocks, and nothing for the discriminator update
        assert encoder_calls("backward") == steps * (1 + n + 2 * n)

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
