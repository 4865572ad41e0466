import warnings

import numpy as np
import pytest

from mudal.models import ModelBundle, make_bundle
from mudal.nn import DenseNet, Layer, softmax, softmax_ce
from mudal.strategies import (QueryRequest, badge_embeddings, grads_select,
                              kmeanspp_select, margin_scores, outlier_scores,
                              select, select_badge, select_margin, select_random)
from mudal.training import TrainConfig

TEMPERATURE = TrainConfig().temperature  # the GRADS temperature a run uses by default


def passthrough_bundle(c=3, n_domains=2, with_disc=True, seed=0):
    """Identity encoder/trunk/final so the features ARE the logits (and the
    trunk output), which makes probabilities directly controllable."""
    rng = np.random.default_rng(seed)
    eye = lambda: Layer(np.eye(c), np.zeros(c), "identity")
    encoder = DenseNet([eye()])
    classifier = DenseNet([eye(), eye()])
    heads = [Layer(np.eye(c), np.zeros(c), "identity") for _ in range(n_domains)]
    disc = None
    if with_disc:
        disc = DenseNet.create([c, 6, n_domains], ["leaky_relu", "identity"], rng)
    return ModelBundle(encoder, classifier, heads, disc, n_domains)


def real_bundle(seed=0, n_domains=3, with_disc=True):
    rng = np.random.default_rng(seed)
    return make_bundle(2, 4, n_domains, rng, latent_dim=6, encoder_hidden=(8,),
                       classifier_hidden=(8,), disc_hidden=(8,),
                       with_discriminator=with_disc)


def trunk_output(bundle, feats):
    """Oracle: the classifier's final-layer input, from every classifier
    layer but the last."""
    return DenseNet(bundle.classifier.layers[:-1]).predict(bundle.encode(feats))


def request(bundle, feats, k, domain=0, seed=0):
    n = feats.shape[0]
    return QueryRequest(domain=domain, k=k, unlabeled=np.arange(100, 100 + n),
                        features=feats, bundle=bundle, seed=seed)


class TestRandom:
    def test_k_equals_pool_returns_everything(self):
        bundle = real_bundle()
        feats = np.random.default_rng(0).standard_normal((7, 2))
        out = select_random(request(bundle, feats, 7))
        np.testing.assert_array_equal(out, np.arange(100, 107))

    def test_k_zero_empty(self):
        bundle = real_bundle()
        feats = np.zeros((4, 2))
        assert select_random(request(bundle, feats, 0)).size == 0

    def test_fixed_seed_deterministic(self):
        bundle = real_bundle()
        feats = np.random.default_rng(1).standard_normal((30, 2))
        a = select_random(request(bundle, feats, 9, seed=5))
        b = select_random(request(bundle, feats, 9, seed=5))
        np.testing.assert_array_equal(a, b)
        assert np.all(np.diff(a) > 0)  # sorted, distinct


class TestMargin:
    def test_margin_arithmetic(self):
        bundle = passthrough_bundle(c=3)
        z = np.log(np.array([[0.6, 0.3, 0.1]]))
        np.testing.assert_allclose(margin_scores(bundle, z), [0.3], atol=1e-12)

    def test_uncertain_sample_selected_first(self):
        bundle = passthrough_bundle(c=3)
        confident = np.log(np.array([0.98, 0.01, 0.01]))
        uniformish = np.log(np.array([0.34, 0.33, 0.33]))
        feats = np.stack([confident, uniformish])
        out = select_margin(request(bundle, feats, 1))
        np.testing.assert_array_equal(out, [101])

    def test_matches_full_sort_oracle(self):
        bundle = real_bundle(seed=3)
        feats = np.random.default_rng(4).standard_normal((20, 2))
        out = select_margin(request(bundle, feats, 5))
        probs = softmax(bundle.class_logits(feats))
        srt = np.sort(probs, axis=1)
        margins = srt[:, -1] - srt[:, -2]
        oracle = np.arange(100, 120)[np.lexsort((np.arange(20), margins))[:5]]
        np.testing.assert_array_equal(out, oracle)

    def test_invariant_to_per_sample_logit_shift(self):
        bundle = passthrough_bundle(c=3)
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((12, 3))
        shifted = logits + 1.5  # same constant added to every class logit
        a = select_margin(request(bundle, logits, 4))
        b = select_margin(request(bundle, shifted, 4))
        np.testing.assert_array_equal(a, b)


class TestBadgeEmbeddings:
    def test_one_hot_probability_gives_zero_embedding(self):
        bundle = passthrough_bundle(c=2)
        z = np.array([[1000.0, 0.0]])  # softmax saturates to exactly (1, 0)
        emb = badge_embeddings(bundle, z)
        np.testing.assert_array_equal(emb, np.zeros((1, 4)))

    def test_hand_chain_rule_case(self):
        # z = (1, 0), p = (0.7, 0.3), pseudo-label 0:
        # rows ((p0-1) z, p1 z) flatten to (-0.3, 0, 0.3, 0)
        c = 2
        encoder = DenseNet([Layer(np.eye(c), np.zeros(c), "identity")])
        trunk = Layer(np.eye(c), np.zeros(c), "identity")
        final = Layer(np.array([[np.log(0.7), 0.0], [np.log(0.3), 0.0]]),
                      np.zeros(2), "identity")
        classifier = DenseNet([trunk, final])
        heads = [Layer(np.eye(c), np.zeros(c), "identity")]
        bundle = ModelBundle(encoder, classifier, heads, None, 1)
        emb = badge_embeddings(bundle, np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(emb, [[-0.3, 0.0, 0.3, 0.0]], atol=1e-12)

    def test_norm_factorizes(self):
        bundle = real_bundle(seed=6)
        feats = np.random.default_rng(7).standard_normal((15, 2))
        emb = badge_embeddings(bundle, bundle.encode(feats))
        z = trunk_output(bundle, feats)
        probs = softmax(z @ bundle.classifier.layers[-1].W.T + bundle.classifier.layers[-1].b)
        delta = probs.copy()
        delta[np.arange(15), np.argmax(probs, axis=1)] -= 1.0
        expected = np.linalg.norm(delta, axis=1) * np.linalg.norm(z, axis=1)
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), expected, atol=1e-10)

    def test_embedding_is_exact_last_layer_gradient(self):
        bundle = real_bundle(seed=8)
        feats = np.random.default_rng(9).standard_normal((6, 2))
        emb = badge_embeddings(bundle, bundle.encode(feats))
        z = trunk_output(bundle, feats)
        final_net = DenseNet([bundle.classifier.layers[-1]])
        for b in range(6):
            trace = final_net.forward(z[b:b + 1])
            pseudo = np.array([int(np.argmax(trace.output))])
            _, dlogits = softmax_ce(trace.output, pseudo)
            grads, _ = final_net.backward(trace, dlogits)
            np.testing.assert_allclose(emb[b], grads[final_net.layers[0]][0].reshape(-1),
                                       atol=1e-10)


def direct_kmeanspp(vectors, k, seed):
    """Oracle: k-means++ seeding that recomputes every row's distance to each
    new pick, the loop the pruned `kmeanspp_select` must match bit for bit."""
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    if k == 0:
        return np.empty(0, dtype=np.int64)
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    d2 = np.sum((vectors - vectors[chosen[0]]) ** 2, axis=1)
    while len(chosen) < k:
        total = d2.sum()
        if total <= 0.0:
            pick = int(rng.choice(np.setdiff1d(np.arange(n), np.array(chosen))))
        else:
            u = rng.random() * total
            pick = min(int(np.searchsorted(np.cumsum(d2), u, side="right")), n - 1)
        chosen.append(pick)
        d2 = np.minimum(d2, np.sum((vectors - vectors[pick]) ** 2, axis=1))
    return np.asarray(chosen, dtype=np.int64)


def kmeanspp_case(rng, draw):
    """One k-means++ input: Gaussian rows, an integer grid, BADGE-shaped
    rank-1 rows delta (x) h with |delta| down to 1e-12, or exact duplicates;
    some rows zeroed, and a third of the draws scaled by 1e-160 to 1e140 (below
    squares that overflow), a third so that squared distances land near the
    subnormal range. Every 40th draw has more rows than one row block."""
    big = draw % 40 == 0
    n = int(rng.integers(257, 600)) if big else int(rng.integers(1, 50))
    d = int(rng.integers(1, 10))
    kind = draw % 4
    if kind == 0:
        v = rng.standard_normal((n, d))
    elif kind == 1:
        v = rng.integers(-2, 3, (n, d)).astype(np.float64)
    elif kind == 2:
        delta = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-12, 0, (n, 1))
        v = np.einsum("bc,bz->bcz", delta, rng.standard_normal((n, d))).reshape(n, -1)
    else:
        m = max(1, n // 4)
        v = rng.standard_normal((m, d))[rng.integers(0, m, n)]
    v[rng.random(n) < 0.2] = 0.0
    if draw % 3 == 1:
        v *= 10.0 ** rng.uniform(-160, 140)
    elif draw % 3 == 2:
        v *= 10.0 ** rng.uniform(-163.5, -160)
    return v, int(rng.integers(0, min(n, 12 if big else 30) + 1))


class TestKmeansPP:
    def test_k_one_is_seeded_uniform(self):
        vectors = np.random.default_rng(0).standard_normal((10, 3))
        out = kmeanspp_select(vectors, 1, seed=3)
        expected = np.random.default_rng(3).integers(10)
        np.testing.assert_array_equal(out, [expected])

    def test_zero_distance_duplicates_never_reselected(self):
        base = np.array([[1.0, 0.0], [1.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
        for seed in range(40):
            picks = kmeanspp_select(base, 3, seed=seed)
            assert len(set(picks.tolist())) == 3
            assert not (0 in picks and 1 in picks)  # duplicates of each other

    def test_separated_clusters_covered(self):
        rng = np.random.default_rng(11)
        centers = np.array([[0.0, 0.0], [12.0, 0.0], [0.0, 12.0]])
        vectors = np.vstack([c + 0.2 * rng.standard_normal((5, 2)) for c in centers])
        owners = np.repeat(np.arange(3), 5)
        covered = 0
        trials = 200
        for seed in range(trials):
            picks = kmeanspp_select(vectors, 3, seed=seed)
            if set(owners[picks].tolist()) == {0, 1, 2}:
                covered += 1
        assert covered / trials >= 0.95

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError, match="cannot select"):
            kmeanspp_select(np.zeros((3, 2)), 4, seed=0)

    def test_all_duplicates_fall_back_to_uniform(self):
        vectors = np.zeros((5, 2))
        picks = kmeanspp_select(vectors, 3, seed=1)
        assert len(set(picks.tolist())) == 3

    def test_pruned_picks_match_the_direct_loop(self):
        rng = np.random.default_rng(2024)
        for draw in range(2400):
            vectors, k = kmeanspp_case(rng, draw)
            seed = int(rng.integers(2**32))
            np.testing.assert_array_equal(kmeanspp_select(vectors, k, seed),
                                          direct_kmeanspp(vectors, k, seed),
                                          err_msg=f"draw {draw}")

    def test_non_finite_row_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            vectors = np.ones((6, 3))
            vectors[4, 1] = bad
            vectors[5, 0] = bad
            with pytest.raises(ValueError, match="row 4 holds a NaN or inf"):
                kmeanspp_select(vectors, 2, seed=0)


class TestGrads:
    def zeroed_disc_bundle(self):
        bundle = real_bundle(seed=12)
        final = bundle.discriminator.layers[-1]
        final.W[...] = 0.0
        final.b[...] = 0.0  # sigmoid(0) = 0.5 outlier score for every sample
        return bundle

    def test_constant_score_reduces_to_badge_exactly(self):
        bundle = self.zeroed_disc_bundle()
        feats = np.random.default_rng(13).standard_normal((25, 2))
        for seed in range(20):
            req = request(bundle, feats, 6, domain=1, seed=seed)
            np.testing.assert_array_equal(grads_select(req, temperature=1.0),
                                          select_badge(req))

    def test_outlier_scores_are_probabilities(self):
        bundle = real_bundle(seed=14)
        feats = np.random.default_rng(15).standard_normal((10, 2))
        s = outlier_scores(bundle, bundle.encode(feats), 2)
        assert np.all((s > 0) & (s < 1))

    def test_outlier_scores_saturate_without_overflow(self):
        bundle = real_bundle(seed=14)
        bundle.discriminator.layers[-1].b[...] = -1000.0
        feats = np.random.default_rng(15).standard_normal((10, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = outlier_scores(bundle, bundle.encode(feats), 2)
        np.testing.assert_array_equal(s, 0.0)

    def test_per_row_domains_score_each_row_under_its_domain(self):
        bundle = real_bundle(seed=14)
        feats = np.random.default_rng(15).standard_normal((9, 2))
        owners = np.array([0, 0, 1, 2, 2, 2, 1, 0, 1])
        z = bundle.encode(feats)
        expected = [outlier_scores(bundle, z[r:r + 1], owners[r])[0] for r in range(9)]
        np.testing.assert_allclose(outlier_scores(bundle, z, owners), expected,
                                   rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match="align"):
            request(bundle, feats, 2, domain=owners[:5])

    def test_missing_discriminator_rejected(self):
        bundle = real_bundle(with_disc=False)
        feats = np.zeros((5, 2))
        with pytest.raises(ValueError, match="discriminator"):
            grads_select(request(bundle, feats, 2), TEMPERATURE)

    def test_temperature_reweights_toward_uncertain(self):
        bundle = passthrough_bundle(c=2, with_disc=True)
        low_margin = np.array([2.0, 1.0])
        high_margin = np.array([5.0, 0.0])
        feats = np.stack([low_margin, high_margin])

        def norm_ratio(temp):
            emb = badge_embeddings(bundle, feats, temperature=temp)  # identity encoder
            norms = np.linalg.norm(emb, axis=1)
            return norms[0] / norms[1]

        assert norm_ratio(0.5) > norm_ratio(1.0)


class TestDispatchAndContracts:
    def test_every_strategy_returns_k_distinct_unlabeled(self):
        bundle = real_bundle(seed=16)
        feats = np.random.default_rng(17).standard_normal((18, 2))
        for name in ("random", "margin", "badge", "grads"):
            req = request(bundle, feats, 5, domain=0, seed=9)
            out = select(name, req, TEMPERATURE)
            assert out.shape == (5,)
            assert np.unique(out).size == 5
            assert np.all(np.isin(out, req.unlabeled))

    @pytest.mark.parametrize("name, encodes", [("random", 0), ("margin", 1), ("badge", 1),
                                               ("grads", 1)])
    def test_each_entry_point_encodes_its_rows_once(self, name, encodes, monkeypatch):
        bundle = real_bundle(seed=18)
        feats = np.random.default_rng(19).standard_normal((12, 2))
        rows = []
        encode = bundle.encode
        monkeypatch.setattr(bundle, "encode", lambda x: rows.append(x.shape[0]) or encode(x))
        select(name, request(bundle, feats, 4, domain=2), TEMPERATURE)
        assert rows == [12] * encodes
        # an empty request encodes nothing
        select(name, request(bundle, feats, 0, domain=2), TEMPERATURE)
        assert rows == [12] * encodes

    def test_unknown_strategy_rejected(self):
        bundle = real_bundle()
        req = request(bundle, np.zeros((3, 2)), 1)
        with pytest.raises(ValueError, match="unknown strategy"):
            select("entropy", req, TEMPERATURE)

    def test_budget_exceeding_pool_rejected(self):
        bundle = real_bundle()
        with pytest.raises(ValueError, match="budget"):
            request(bundle, np.zeros((3, 2)), 4)

    def test_bad_domains_rejected(self):
        bundle = real_bundle(n_domains=3)
        feats = np.zeros((3, 2))
        for bad in (3, -1, np.array([0, 1, 3]), 1.0, np.array([0, 1])):
            with pytest.raises(ValueError, match="domain"):
                request(bundle, feats, 1, domain=bad)
