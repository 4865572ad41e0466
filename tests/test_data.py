import struct

import numpy as np
import pytest

from mudal.config import IdxDatasetSpec
from mudal.data import (IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, LabeledPool,
                        RotatingSpec, domain_ranges, gen_rotating, init_pool, load_idx,
                        rotate_idx_domains, split_budget_evenly)


def small_spec(**over):
    base = dict(n_domains=6, train_per_domain=40, test_per_domain=20,
                n_classes=4, total_range_deg=180.0, seed=0)
    base.update(over)
    return RotatingSpec(**base)


class TestGenRotating:
    def test_domain_angles_live_in_their_subrange(self):
        # 6 domains over 180 degrees: domain index 2 must sit in [60, 90)
        ds = gen_rotating(small_spec())
        angles = ds.meta["train_angles"][2]
        assert np.all(angles >= 60.0) and np.all(angles < 90.0)
        for i in range(6):
            a = ds.meta["train_angles"][i]
            assert np.all(a >= 30.0 * i) and np.all(a < 30.0 * (i + 1))

    @pytest.mark.parametrize("total, n", [(97.3, 7), (1.0, 11), (359.9, 3)])
    def test_domain_ranges_keep_the_generators_expressions(self, total, n):
        # i * width and (i + 1) * width, width = total / n, as both generators
        # drew their angles; total * i / n rounds differently at these sizes
        width = total / n
        ranges = domain_ranges(total, n)
        assert ranges == [(i * width, (i + 1) * width) for i in range(n)]
        assert any(i * width != total * i / n for i in range(n + 1))
        assert ranges[0][0] == 0.0 and all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))

    @pytest.mark.parametrize("over", [
        dict(n_domains=0), dict(train_per_domain=0), dict(test_per_domain=0),
        dict(total_range_deg=0.0), dict(total_range_deg=np.inf), dict(total_range_deg=np.nan),
        dict(seed=-1)])
    def test_both_specs_refuse_a_bad_split_alike(self, over):
        with pytest.raises(ValueError) as rotating:
            small_spec(**over)
        with pytest.raises(ValueError) as idx:
            IdxDatasetSpec("images.idx", "labels.idx", **over)
        assert str(rotating.value) == str(idx.value)

    def test_single_domain(self):
        ds = gen_rotating(small_spec(n_domains=1, total_range_deg=30.0))
        assert ds.n_domains == 1
        assert np.all(ds.meta["train_angles"][0] < 30.0)

    def test_deterministic_bitwise(self):
        a = gen_rotating(small_spec())
        b = gen_rotating(small_spec())
        for i in range(a.n_domains):
            assert np.array_equal(a.train_features[i], b.train_features[i])
            assert np.array_equal(a.test_labels[i], b.test_labels[i])

    def test_different_seeds_differ(self):
        a = gen_rotating(small_spec(seed=0))
        b = gen_rotating(small_spec(seed=1))
        assert not np.array_equal(a.train_features[0], b.train_features[0])

    def test_label_balance_within_one(self):
        ds = gen_rotating(small_spec(train_per_domain=42))
        for i in range(ds.n_domains):
            counts = np.bincount(ds.train_labels[i], minlength=4)
            assert counts.max() - counts.min() <= 1

    def test_rotation_preserves_class_geometry(self):
        # rotating a labeled base point back by its angle must land on its
        # class blob: nearest base centroid matches the label
        spec = small_spec(noise=0.05, train_per_domain=60)
        ds = gen_rotating(spec)
        centroids = np.stack([
            [np.cos(2 * np.pi * c / 4), np.sin(2 * np.pi * c / 4)] for c in range(4)
        ])
        for i in range(ds.n_domains):
            ang = np.deg2rad(ds.meta["train_angles"][i])
            x, y = ds.train_features[i][:, 0], ds.train_features[i][:, 1]
            back = np.stack([np.cos(-ang) * x - np.sin(-ang) * y,
                             np.sin(-ang) * x + np.cos(-ang) * y], axis=1)
            d = ((back[:, None, :] - centroids[None]) ** 2).sum(-1)
            assert np.array_equal(np.argmin(d, axis=1), ds.train_labels[i])

    def test_two_moons_requires_two_classes(self):
        with pytest.raises(ValueError, match="2"):
            gen_rotating(small_spec(base_shape="two_moons_k", n_classes=3))
        ds = gen_rotating(small_spec(base_shape="two_moons_k", n_classes=2))
        assert ds.n_classes == 2

    def test_too_many_classes_rejected(self):
        with pytest.raises(ValueError, match="distinguishable"):
            gen_rotating(small_spec(n_classes=40, noise=0.3))


def write_idx_pair(tmp_path, images, labels):
    n, rows, cols = images.shape
    img_path = tmp_path / "img.idx"
    lab_path = tmp_path / "lab.idx"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())
    with open(lab_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        f.write(labels.astype(np.uint8).tobytes())
    return img_path, lab_path


class TestLoadIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(10, 5, 5), dtype=np.uint8)
        labels = rng.integers(0, 10, size=10, dtype=np.uint8)
        img_path, lab_path = write_idx_pair(tmp_path, images, labels)
        feats, labs = load_idx(img_path, lab_path)
        assert feats.shape == (10, 25)
        np.testing.assert_allclose(feats, images.reshape(10, 25) / 255.0)
        np.testing.assert_array_equal(labs, labels)
        assert feats.min() >= 0.0 and feats.max() <= 1.0

    def test_image_magic_mismatch(self, tmp_path):
        img_path, lab_path = write_idx_pair(
            tmp_path, np.zeros((2, 3, 3), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
        data = bytearray(img_path.read_bytes())
        data[3] = 0x99
        img_path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="magic"):
            load_idx(img_path, lab_path)

    def test_truncated_file(self, tmp_path):
        img_path, lab_path = write_idx_pair(
            tmp_path, np.zeros((4, 3, 3), dtype=np.uint8), np.zeros(4, dtype=np.uint8))
        img_path.write_bytes(img_path.read_bytes()[:-5])
        with pytest.raises(ValueError, match="byte offset"):
            load_idx(img_path, lab_path)

    def test_count_mismatch(self, tmp_path):
        img_path, _ = write_idx_pair(
            tmp_path, np.zeros((4, 3, 3), dtype=np.uint8), np.zeros(4, dtype=np.uint8))
        lab_path = tmp_path / "short.idx"
        with open(lab_path, "wb") as f:
            f.write(struct.pack(">II", IDX_LABEL_MAGIC, 3))
            f.write(bytes(3))
        with pytest.raises(ValueError, match="count"):
            load_idx(img_path, lab_path)

    def test_rotate_idx_domains(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(60, 6, 6), dtype=np.uint8)
        labels = rng.integers(0, 3, size=60, dtype=np.uint8)
        img_path, lab_path = write_idx_pair(tmp_path, images, labels)
        feats, labs = load_idx(img_path, lab_path)
        ds = rotate_idx_domains(feats, labs, n_domains=3, train_per_domain=12,
                                test_per_domain=4, total_range_deg=90.0, seed=0)
        assert ds.n_domains == 3
        assert ds.feature_dim == 36
        assert ds.train_features[0].shape == (12, 36)
        assert ds.test_features[2].shape == (4, 36)


class TestPool:
    def test_init_pool_even_split(self):
        # m0=150 over 6 domains: 25 labeled per domain
        ds = gen_rotating(small_spec(train_per_domain=50))
        pool = init_pool(ds, 150, seed=0)
        np.testing.assert_array_equal(pool.counts(), [25] * 6)

    def test_init_pool_one_each(self):
        ds = gen_rotating(small_spec())
        pool = init_pool(ds, 6, seed=0)
        np.testing.assert_array_equal(pool.counts(), [1] * 6)

    def test_remainder_to_lowest_indices(self):
        np.testing.assert_array_equal(split_budget_evenly(8, 3), [3, 3, 2])

    def test_different_seeds_give_different_sets(self):
        ds = gen_rotating(small_spec())
        a = init_pool(ds, 30, seed=0)
        b = init_pool(ds, 30, seed=1)
        assert any(not np.array_equal(a.labeled_indices(j), b.labeled_indices(j))
                   for j in range(6))

    def test_an_m0_below_the_domain_count_is_refused_by_name(self):
        # the even split gives the remainder to the lowest domains, so domain
        # m0 is the first with no rows
        ds = gen_rotating(small_spec())
        for m0 in (5, 0):
            with pytest.raises(ValueError, match=f"labeled domain {m0} with no rows"):
                init_pool(ds, m0, seed=0)

    def test_budget_exceeding_pool_rejected(self):
        ds = gen_rotating(small_spec(train_per_domain=5))
        with pytest.raises(ValueError, match="exceeds"):
            init_pool(ds, 60, seed=0)

    def test_reveal_empty_is_noop(self):
        ds = gen_rotating(small_spec())
        pool = init_pool(ds, 12, seed=0)
        before = pool.labeled_indices(0)
        pool.reveal(0, np.empty(0, dtype=np.int64))
        np.testing.assert_array_equal(pool.labeled_indices(0), before)

    def test_reveal_grows_by_k(self):
        ds = gen_rotating(small_spec())
        pool = init_pool(ds, 12, seed=0)
        take = pool.unlabeled_indices(1)[:5]
        pool.reveal(1, take)
        assert pool.counts()[1] == 2 + 5

    def test_double_labeling_rejected(self):
        ds = gen_rotating(small_spec())
        pool = init_pool(ds, 12, seed=0)
        taken = pool.labeled_indices(0)[:1]
        with pytest.raises(ValueError, match="already labeled"):
            pool.reveal(0, taken)

    def test_unlabeled_excludes_revealed(self):
        ds = gen_rotating(small_spec())
        pool = init_pool(ds, 12, seed=0)
        take = pool.unlabeled_indices(2)[:4]
        pool.reveal(2, take)
        assert np.intersect1d(pool.unlabeled_indices(2), take).size == 0

    def test_partition_invariant(self):
        ds = gen_rotating(small_spec())
        pool = init_pool(ds, 18, seed=3)
        for j in range(ds.n_domains):
            lab, unlab = pool.labeled_indices(j), pool.unlabeled_indices(j)
            assert lab.size + unlab.size == ds.train_size(j)
            assert np.intersect1d(lab, unlab).size == 0

    def test_labels_only_for_revealed(self):
        ds = gen_rotating(small_spec())
        pool = init_pool(ds, 12, seed=0)
        assert pool.labels(0).shape == (2,)
        np.testing.assert_array_equal(
            pool.labels(0), ds.train_labels[0][pool.labeled_indices(0)])
