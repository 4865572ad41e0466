import warnings

import numpy as np
import pytest

from mudal.models import ModelBundle, make_bundle
from mudal.nn import DenseNet, Layer, softmax
import mudal.strategies as strategies
from mudal.strategies import (RankOneRows, badge_embeddings, kmeanspp_select, margin_scores,
                              outlier_scores, select)
from mudal.training import TrainConfig
from test_objective import softmax_ce_by_rows

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


class TestRandom:
    def test_k_equals_pool_returns_everything(self):
        bundle = real_bundle()
        feats = np.random.default_rng(0).standard_normal((7, 2))
        out = select("random", bundle, feats, 7, seed=0, domain=0, temperature=TEMPERATURE)
        np.testing.assert_array_equal(out, np.arange(7))

    def test_k_zero_empty(self):
        bundle = real_bundle()
        feats = np.zeros((4, 2))
        assert select("random", bundle, feats, 0, seed=0, domain=0,
                      temperature=TEMPERATURE).size == 0

    def test_fixed_seed_deterministic(self):
        bundle = real_bundle()
        feats = np.random.default_rng(1).standard_normal((30, 2))
        a = select("random", bundle, feats, 9, seed=5, domain=0, temperature=TEMPERATURE)
        b = select("random", bundle, feats, 9, seed=5, domain=0, temperature=TEMPERATURE)
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
        out = select("margin", bundle, feats, 1, seed=0, domain=0, temperature=TEMPERATURE)
        np.testing.assert_array_equal(out, [1])

    def test_matches_full_sort_oracle(self):
        bundle = real_bundle(seed=3)
        feats = np.random.default_rng(4).standard_normal((20, 2))
        out = select("margin", bundle, feats, 5, seed=0, domain=0, temperature=TEMPERATURE)
        probs = softmax(bundle.classifier.predict(bundle.encode(feats)))
        srt = np.sort(probs, axis=1)
        margins = srt[:, -1] - srt[:, -2]
        oracle = np.lexsort((np.arange(20), margins))[:5]
        np.testing.assert_array_equal(out, oracle)

    def test_invariant_to_per_sample_logit_shift(self):
        bundle = passthrough_bundle(c=3)
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((12, 3))
        shifted = logits + 1.5  # same constant added to every class logit
        a = select("margin", bundle, logits, 4, seed=0, domain=0, temperature=TEMPERATURE)
        b = select("margin", bundle, shifted, 4, seed=0, domain=0, temperature=TEMPERATURE)
        np.testing.assert_array_equal(a, b)


class TestBadgeEmbeddings:
    def test_one_hot_probability_gives_zero_embedding(self):
        bundle = passthrough_bundle(c=2)
        z = np.array([[1000.0, 0.0]])  # softmax saturates to exactly (1, 0)
        emb = badge_embeddings(bundle, z).rows(slice(None))
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
        emb = badge_embeddings(bundle, np.array([[1.0, 0.0]])).rows(slice(None))
        np.testing.assert_allclose(emb, [[-0.3, 0.0, 0.3, 0.0]], atol=1e-12)

    def test_norm_factorizes(self):
        bundle = real_bundle(seed=6)
        feats = np.random.default_rng(7).standard_normal((15, 2))
        emb = badge_embeddings(bundle, bundle.encode(feats)).rows(slice(None))
        z = trunk_output(bundle, feats)
        probs = softmax(z @ bundle.classifier.layers[-1].W.T + bundle.classifier.layers[-1].b)
        delta = probs.copy()
        delta[np.arange(15), np.argmax(probs, axis=1)] -= 1.0
        expected = np.linalg.norm(delta, axis=1) * np.linalg.norm(z, axis=1)
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), expected, atol=1e-10)

    def test_embedding_is_exact_last_layer_gradient(self):
        bundle = real_bundle(seed=8)
        feats = np.random.default_rng(9).standard_normal((6, 2))
        emb = badge_embeddings(bundle, bundle.encode(feats)).rows(slice(None))
        z = trunk_output(bundle, feats)
        final_net = DenseNet([bundle.classifier.layers[-1]])
        for b in range(6):
            trace = final_net.forward(z[b:b + 1])
            pseudo = np.array([int(np.argmax(trace.output))])
            _, dlogits = softmax_ce_by_rows(trace.output, pseudo)
            grads, _ = final_net.backward(trace, dlogits)
            np.testing.assert_allclose(emb[b], grads[final_net.layers[0]][0].reshape(-1),
                                       atol=1e-10)


    def test_rows_equal_the_dense_einsum(self):
        rng = np.random.default_rng(10)
        delta, hidden = rng.standard_normal((9, 4)), rng.standard_normal((9, 5))
        scores = rng.random(9)
        scores[2] = 5e-324  # a subnormal score
        emb = np.einsum("bc,bz->bcz", delta, hidden).reshape(9, -1)
        rows = RankOneRows(delta, hidden)
        assert np.array_equal(rows.rows(slice(None)), emb)
        idx = np.array([7, 0, 7, 3])
        assert np.array_equal(rows.rows(idx), emb[idx])
        emb *= scores[:, None]  # GRADS's scaling of the dense embedding
        scaled = RankOneRows(delta, hidden, scores)
        assert np.array_equal(scaled.rows(slice(None)), emb)
        assert np.array_equal(scaled.rows(idx), emb[idx])
        assert np.array_equal(scaled.rows(slice(2, 5)), emb[2:5])
        assert len(scaled) == 9

    def test_factors_must_align(self):
        with pytest.raises(ValueError, match="align"):
            RankOneRows(np.ones((3, 2)), np.ones((4, 2)))
        with pytest.raises(ValueError, match="align"):
            RankOneRows(np.ones((3, 2)), np.ones((3, 2)), np.ones(2))


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


def count_fallbacks(monkeypatch) -> list:
    """A list that grows by one on each exact fallback of `kmeanspp_select`."""
    fallbacks = []
    exact = strategies._fold_exact
    monkeypatch.setattr(strategies, "_fold_exact",
                        lambda *args: fallbacks.append(1) or exact(*args))
    return fallbacks


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

    def test_pruned_picks_match_the_direct_loop(self, monkeypatch):
        # duplicates, zero rows and subnormal scales must send some picks down
        # the exact path; most picks keep the certified approximate one
        fallbacks, picks = count_fallbacks(monkeypatch), 0
        rng = np.random.default_rng(2024)
        for draw in range(2400):
            vectors, k = kmeanspp_case(rng, draw)
            seed = int(rng.integers(2**32))
            np.testing.assert_array_equal(kmeanspp_select(vectors, k, seed),
                                          direct_kmeanspp(vectors, k, seed),
                                          err_msg=f"draw {draw}")
            picks += max(k - 1, 0)
        assert 0 < len(fallbacks) < picks / 2

    def test_non_finite_row_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            vectors = np.ones((6, 3))
            vectors[4, 1] = bad
            vectors[5, 0] = bad
            with pytest.raises(ValueError, match="row 4 holds a NaN or inf"):
                kmeanspp_select(vectors, 2, seed=0)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["left", "right", "scale"])
    def test_non_finite_factor_rejected(self, bad, part):
        parts = {"left": np.ones((6, 2)), "right": np.ones((6, 3)), "scale": np.full(6, 0.5)}
        parts[part][4] = bad
        parts[part][5] = bad
        with pytest.raises(ValueError, match="row 4 holds a NaN or inf"):
            kmeanspp_select(RankOneRows(**parts), 2, seed=0)

    def test_overflowing_row_rejected(self):
        # finite factors whose product overflows: the dense row holds an inf
        left, right = np.ones((6, 2)), np.ones((6, 3))
        left[3, 1], right[3, 2] = 1e200, -1e200
        with pytest.raises(ValueError, match="row 3 holds a NaN or inf"):
            kmeanspp_select(RankOneRows(left, right), 2, seed=0)

    @pytest.mark.parametrize("case", ["scale above one", "norms near overflow"])
    def test_uncertified_inputs_take_the_exact_path(self, case, monkeypatch):
        fallbacks = count_fallbacks(monkeypatch)
        rng = np.random.default_rng(21)
        left, right = rng.standard_normal((40, 3)), rng.standard_normal((40, 4))
        scale = None
        if case == "scale above one":
            scale = rng.uniform(0.0, 4.0, 40)
        else:
            right *= 1e150
        rows = RankOneRows(left, right, scale)
        for seed in range(5):
            fallbacks.clear()
            np.testing.assert_array_equal(kmeanspp_select(rows, 12, seed),
                                          direct_kmeanspp(rows.rows(slice(None)), 12, seed))
            assert len(fallbacks) == 11

    def test_debug_record_counts_the_fallbacks(self, caplog):
        vectors = np.zeros((5, 2))  # every pick after the first is uniform, exactly
        with caplog.at_level("DEBUG", logger="mudal.strategies"):
            kmeanspp_select(vectors, 3, seed=1)
            kmeanspp_select(vectors, 0, seed=1)
        assert [r.getMessage() for r in caplog.records] == [
            "k-means++ over 5 rows, k=3: 2 exact fallbacks",
            "k-means++ over 5 rows, k=0: 0 exact fallbacks"]


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
            np.testing.assert_array_equal(
                select("grads", bundle, feats, 6, seed=seed, domain=1, temperature=1.0),
                select("badge", bundle, feats, 6, seed=seed, domain=1, temperature=1.0))

    def test_badge_ignores_the_temperature(self):
        # BADGE always embeds at T = 1; only GRADS reads the temperature
        bundle = real_bundle(seed=12)
        feats = np.random.default_rng(13).standard_normal((25, 2))
        for seed in range(5):
            picks = [select("badge", bundle, feats, 6, seed=seed, domain=0, temperature=t)
                     for t in (0.1, 0.5, 1.0, TEMPERATURE, 4.0)]
            for other in picks[1:]:
                np.testing.assert_array_equal(other, picks[0])

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
            select("grads", bundle, feats, 2, seed=0, domain=owners[:5],
                   temperature=TEMPERATURE)

    def test_missing_discriminator_rejected(self):
        bundle = real_bundle(with_disc=False)
        feats = np.zeros((5, 2))
        with pytest.raises(ValueError, match="discriminator"):
            select("grads", bundle, feats, 2, seed=0, domain=0, temperature=TEMPERATURE)

    def test_temperature_reweights_toward_uncertain(self):
        bundle = passthrough_bundle(c=2, with_disc=True)
        low_margin = np.array([2.0, 1.0])
        high_margin = np.array([5.0, 0.0])
        feats = np.stack([low_margin, high_margin])

        def norm_ratio(temp):
            # the identity encoder: the features are the latent rows
            emb = badge_embeddings(bundle, feats, temperature=temp).rows(slice(None))
            norms = np.linalg.norm(emb, axis=1)
            return norms[0] / norms[1]

        assert norm_ratio(0.5) > norm_ratio(1.0)


class TestDispatchAndContracts:
    def test_every_strategy_returns_k_distinct_unlabeled(self):
        bundle = real_bundle(seed=16)
        feats = np.random.default_rng(17).standard_normal((18, 2))
        for name in ("random", "margin", "badge", "grads"):
            out = select(name, bundle, feats, 5, seed=9, domain=0, temperature=TEMPERATURE)
            assert out.shape == (5,)
            assert np.unique(out).size == 5
            assert np.all((out >= 0) & (out < 18))

    @pytest.mark.parametrize("name, encodes", [("random", 0), ("margin", 1), ("badge", 1),
                                               ("grads", 1)])
    def test_each_entry_point_encodes_its_rows_once(self, name, encodes, monkeypatch):
        bundle = real_bundle(seed=18)
        feats = np.random.default_rng(19).standard_normal((12, 2))
        rows = []
        encode = bundle.encode
        monkeypatch.setattr(bundle, "encode", lambda x: rows.append(x.shape[0]) or encode(x))
        select(name, bundle, feats, 4, seed=0, domain=2, temperature=TEMPERATURE)
        assert rows == [12] * encodes
        # an empty selection encodes nothing
        select(name, bundle, feats, 0, seed=0, domain=2, temperature=TEMPERATURE)
        assert rows == [12] * encodes

    def test_unknown_strategy_rejected(self):
        bundle = real_bundle()
        for k in (0, 1):
            with pytest.raises(ValueError, match="unknown strategy"):
                select("entropy", bundle, np.zeros((3, 2)), k, seed=0, domain=0,
                       temperature=TEMPERATURE)

    def test_budget_exceeding_pool_rejected(self):
        bundle = real_bundle()
        for k in (4, -1):
            with pytest.raises(ValueError, match="budget"):
                select("random", bundle, np.zeros((3, 2)), k, seed=0, domain=0,
                       temperature=TEMPERATURE)

    def test_bad_domains_rejected(self):
        bundle = real_bundle(n_domains=3)
        feats = np.zeros((3, 2))
        for bad in (3, -1, np.array([0, 1, 3]), 1.0, np.array([0, 1])):
            with pytest.raises(ValueError, match="domain"):
                select("random", bundle, feats, 1, seed=0, domain=bad,
                       temperature=TEMPERATURE)
