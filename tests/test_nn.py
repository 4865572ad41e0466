import math

import numpy as np
import pytest

from mudal.cli import gradcheck_cases
from mudal.nn import (LEAKY_SLOPE, AdamState, DenseNet, Layer, ParamSet, adam_step,
                      grad_check, sigmoid, sigmoid_bce, softmax, softmax_ce)


def identity_net(dim):
    return DenseNet([Layer(np.eye(dim), np.zeros(dim), "identity")])


class TestForward:
    def test_identity_layer(self):
        net = identity_net(2)
        out = net.forward(np.array([[1.0, 2.0]])).output
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_relu_clamps_negative(self):
        net = DenseNet([Layer([[1.0, -1.0]], [0.0], "relu")])
        out = net.forward(np.array([[2.0, 3.0]])).output
        np.testing.assert_array_equal(out, [[0.0]])  # pre-activation is -1

    def test_two_layer_matches_matrix_oracle(self):
        rng = np.random.default_rng(42)
        net = DenseNet.create([3, 5, 2], ["identity", "identity"], rng)
        x = rng.standard_normal((4, 3))
        # straight-line matrix arithmetic, independent of forward()
        w0, b0 = net.layers[0].W, net.layers[0].b
        w1, b1 = net.layers[1].W, net.layers[1].b
        expected = (x @ w0.T + b0) @ w1.T + b1
        np.testing.assert_allclose(net.forward(x).output, expected, rtol=0, atol=1e-14)

    def test_forward_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        net = DenseNet.create([4, 8, 3], ["relu", "identity"], rng)
        x = rng.standard_normal((5, 4))
        a = net.forward(x).output
        b = net.forward(x).output
        assert np.array_equal(a, b)

    def test_dimension_mismatch_rejected(self):
        net = identity_net(3)
        with pytest.raises(ValueError, match="dim"):
            net.forward(np.ones((2, 4)))

    def test_dims_must_chain(self):
        l0 = Layer(np.ones((3, 2)), np.zeros(3), "relu")
        l1 = Layer(np.ones((1, 4)), np.zeros(1), "identity")
        with pytest.raises(ValueError, match="chain"):
            DenseNet([l0, l1])


class TestBackward:
    def test_identity_net_chain_rule(self):
        net = identity_net(2)
        x = np.array([[1.5, -2.0], [0.5, 3.0]])
        trace = net.forward(x)
        g = np.array([[1.0, 2.0], [3.0, 4.0]])
        grads, dx = net.backward(trace, g)
        np.testing.assert_allclose(dx, g)
        np.testing.assert_allclose(grads[net.layers[0]][0], g.T @ x)
        np.testing.assert_allclose(grads[net.layers[0]][1], g.sum(axis=0))

    def test_zero_output_grad_gives_zero_grads(self):
        rng = np.random.default_rng(0)
        net = DenseNet.create([3, 6, 2], ["relu", "identity"], rng)
        trace = net.forward(rng.standard_normal((4, 3)))
        grads, dx = net.backward(trace, np.zeros((4, 2)))
        assert set(grads) == set(net.layers)
        for dw, db in grads.values():
            assert np.all(dw == 0) and np.all(db == 0)
        assert np.all(dx == 0)

    @pytest.mark.parametrize("kind, slope", [("relu", 0.0), ("leaky_relu", LEAKY_SLOPE)])
    def test_activation_derivative_at_the_kinks(self, kind, slope):
        # the trace keeps activations only, so backward reads the derivative
        # off the activation's sign; at a pre-activation of 0 or below, relu
        # gives 0 and leaky_relu its slope, even where leaky_relu's output
        # underflows to -0.0
        pre = np.array([0.0, -0.0, -1e-320, -1e-322, -5e-324, 5e-324, 1e-320, 1.0, -1.0])
        net = DenseNet([Layer(np.zeros((pre.size, 1)), pre, kind)])
        x = np.array([[2.0]])
        trace = net.forward(x)
        if kind == "leaky_relu":
            underflowed = trace.output[0, 3:5]
            assert np.all(underflowed == 0.0) and np.all(np.signbit(underflowed))
        oracle = np.array([slope] * 5 + [1.0, 1.0, 1.0, slope])
        grads, _ = net.backward(trace, np.full((1, pre.size), 3.0))
        dw, db = grads[net.layers[0]]
        np.testing.assert_array_equal(db, 3.0 * oracle)
        np.testing.assert_array_equal(dw, 3.0 * oracle[:, None] * x)

    def test_stale_trace_rejected(self):
        rng = np.random.default_rng(0)
        net = DenseNet.create([2, 3], ["identity"], rng)
        trace = net.forward(rng.standard_normal((2, 2)))
        net.layers[0].W[0, 0] += 1.0
        net.layers[0].bump()
        with pytest.raises(ValueError, match="stale"):
            net.backward(trace, np.ones((2, 3)))

    def test_foreign_trace_rejected(self):
        rng = np.random.default_rng(0)
        a = DenseNet.create([2, 3], ["identity"], rng)
        b = DenseNet.create([2, 3], ["identity"], rng)
        trace = a.forward(rng.standard_normal((2, 2)))
        with pytest.raises(ValueError, match="different net"):
            b.backward(trace, np.ones((2, 3)))


class TestGradCheck:
    def test_linear_net_squared_loss_near_exact(self):
        rng = np.random.default_rng(1)
        net = DenseNet.create([3, 2], ["identity"], rng)
        x = rng.standard_normal((5, 3))

        def sq_loss(out):
            return 0.5 * float((out ** 2).sum()), out

        assert grad_check(net, x, sq_loss) < 1e-7

    def test_relu_net_away_from_kinks(self):
        rng = np.random.default_rng(2)
        net = DenseNet.create([3, 8, 2], ["relu", "identity"], rng)
        x = rng.standard_normal((6, 3)) + 0.1
        labels = np.array([0, 1, 0, 1, 0, 1])

        assert grad_check(net, x, lambda out: softmax_ce(out, labels)) < 1e-5

    def test_leaky_relu_net(self):
        rng = np.random.default_rng(8)
        net = DenseNet.create([3, 8, 1], ["leaky_relu", "identity"], rng)
        x = rng.standard_normal((5, 3))
        targets = np.array([1.0, 0.0, 1.0, 0.0, 1.0])

        def loss(out):
            value, d = sigmoid_bce(out.reshape(-1), targets)
            return value, d[:, None]

        assert grad_check(net, x, loss) < 1e-5

    def test_command_cases_pass_at_every_draw(self):
        # correct gradients far below one pass the check: their central
        # differences differ from them by roundoff alone
        for seed in range(40):
            for name, net, x, loss in gradcheck_cases(np.random.default_rng(seed)):
                assert grad_check(net, x, loss) < 1e-4, (seed, name)

    def test_planted_wrong_gradient_fails(self):
        for name, net, x, loss in gradcheck_cases(np.random.default_rng(0)):
            def wrong(out, loss=loss):
                value, dout = loss(out)
                return value, dout * 1.001
            assert 5e-4 < grad_check(net, x, wrong) < 2e-3, name


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        rng = np.random.default_rng(0)
        params = [rng.standard_normal((3, 2)), rng.standard_normal(3)]
        start = [p.copy() for p in params]
        state = AdamState.init(params)
        for _ in range(7):
            adam_step(params, [np.zeros_like(p) for p in params], state, lr=0.1)
        for p, s in zip(params, start):
            np.testing.assert_allclose(p, s, atol=1e-12)
        assert state.t == 7

    def test_constant_gradient_descends(self):
        params = [np.zeros(4)]
        g = np.array([1.0, -2.0, 3.0, -0.5])
        state = AdamState.init(params)
        for _ in range(50):
            adam_step(params, [g], state, lr=0.01)
        assert np.all(np.sign(params[0]) == -np.sign(g))

    def test_first_step_hand_value(self):
        # with zeroed state, g=1: m_hat = 1, v_hat = 1, so delta = -lr / (1 + eps)
        params = [np.zeros(1)]
        state = AdamState.init(params)
        adam_step(params, [np.ones(1)], state, lr=0.1)
        expected = -0.1 * (1.0 / (1.0 + 1e-8))
        np.testing.assert_allclose(params[0][0], expected, rtol=0, atol=1e-15)

    def test_nan_gradient_aborts(self):
        params = [np.zeros(2)]
        state = AdamState.init(params)
        with pytest.raises(FloatingPointError, match="NaN"):
            adam_step(params, [np.array([np.nan, 0.0])], state, lr=0.1)
        assert state.t == 0

    def test_step_counter_strictly_increments(self):
        params = [np.zeros(2)]
        state = AdamState.init(params)
        for k in range(1, 4):
            adam_step(params, [np.ones(2)], state, lr=0.1)
            assert state.t == k


def probs_from_gradient(dlogits, labels):
    """The probabilities behind an unweighted `softmax_ce` gradient, whose
    rows are (p - onehot) / B."""
    probs = dlogits * labels.size
    probs[np.arange(labels.size), labels] += 1.0
    return probs


class TestSoftmaxCE:
    def test_equal_logits_symmetry(self):
        logits = np.zeros((3, 4))
        labels = np.array([0, 1, 2])
        loss, d = softmax_ce(logits, labels)
        np.testing.assert_allclose(probs_from_gradient(d, labels), 0.25)
        np.testing.assert_allclose(loss, math.log(4.0), rtol=1e-12)

    def test_hand_computed_weighted_oracle(self):
        # scalar arithmetic done independently with math.*
        logits = np.array([[1.0, -1.0, 0.5], [0.0, 2.0, -0.5]])
        labels = np.array([2, 1])
        weights = np.array([0.3, 0.7])
        expected = 0.0
        for b in range(2):
            z = [logits[b, c] for c in range(3)]
            denom = sum(math.exp(v) for v in z)
            ce = math.log(denom) - z[labels[b]]
            expected += weights[b] * ce
        expected /= weights.sum()
        loss, _ = softmax_ce(logits, labels, weights)
        np.testing.assert_allclose(loss, expected, rtol=1e-12)

    def test_probability_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((20, 5)) * 10
        labels = rng.integers(0, 5, 20)
        _, d = softmax_ce(logits, labels)
        probs = probs_from_gradient(d, labels)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_gradient_rows_sum_to_zero_uniform_weights(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((10, 4))
        _, d = softmax_ce(logits, rng.integers(0, 4, 10))
        np.testing.assert_allclose(d.sum(axis=1), 0.0, atol=1e-9)

    def test_gradient_scaling_contract(self):
        # rows equal weight * (p - onehot) / sum w
        logits = np.array([[0.3, -0.7], [1.2, 0.1]])
        labels = np.array([1, 0])
        weights = np.array([2.0, 1.0])
        _, d = softmax_ce(logits, labels, weights)
        probs = softmax(logits)
        onehot = np.zeros_like(probs)
        onehot[np.arange(2), labels] = 1.0
        expected = weights[:, None] * (probs - onehot) / weights.sum()
        np.testing.assert_allclose(d, expected, rtol=1e-12)

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            softmax_ce(np.zeros((2, 2)), np.array([0, 1]), weights=np.zeros(2))

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ValueError, match="range"):
            softmax_ce(np.zeros((1, 2)), np.array([2]))


class TestSigmoidBCE:
    def test_zero_logit_target_one(self):
        loss, _ = sigmoid_bce(np.zeros(1), np.ones(1))
        np.testing.assert_allclose(loss, math.log(2.0), rtol=1e-12)

    def test_large_logit_saturates(self):
        loss, _ = sigmoid_bce(np.array([50.0]), np.ones(1))
        assert loss < 1e-20

    def test_hand_computed_mixed_batch(self):
        logits = np.array([0.5, -1.0, 2.0])
        targets = np.array([1.0, 0.0, 0.0])
        weights = np.array([1.0, 2.0, 0.5])
        expected = 0.0
        for z, t, w in zip(logits, targets, weights):
            p = 1.0 / (1.0 + math.exp(-z))
            expected += w * (-(t * math.log(p) + (1 - t) * math.log(1 - p)))
        expected /= weights.sum()
        loss, _ = sigmoid_bce(logits, targets, weights)
        np.testing.assert_allclose(loss, expected, rtol=1e-12)

    def test_bad_targets_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            sigmoid_bce(np.zeros(2), np.array([0.0, 0.5]))

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            sigmoid_bce(np.zeros(2), np.zeros(2), np.zeros(2))


def test_softmax_helper_temperature():
    p1 = softmax(np.array([2.0, 1.0]))
    p2 = softmax(np.array([2.0, 1.0]), temperature=0.1)
    assert p2[0] > p1[0]
    np.testing.assert_allclose(p1.sum(), 1.0, atol=1e-12)


def masked_sigmoid(z):
    """The boolean-mask form `sigmoid` replaced, as the bitwise oracle."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_the_mask_version_bit_for_bit():
    z = np.concatenate([np.random.default_rng(0).standard_normal(10**6),
                        [0.0, -0.0, 745.0, -745.0, 1e308, -1e308]])
    with np.errstate(over="raise", invalid="raise"):
        got, want = sigmoid(z), masked_sigmoid(z)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def small_net(seed=0):
    return DenseNet.create([3, 5, 4, 2], ["relu", "leaky_relu", "identity"],
                           np.random.default_rng(seed))


def random_grads(net, rng):
    return {layer: (rng.standard_normal(layer.W.shape), rng.standard_normal(layer.b.shape))
            for layer in net.layers}


def state_of(pset):
    return pset.flat.copy(), pset.adam.m[0].copy(), pset.adam.v[0].copy(), pset.adam.t


class TestParamSet:
    def test_layers_view_the_flat_vector(self):
        net = small_net()
        before = [(layer.W.copy(), layer.b.copy()) for layer in net.layers]
        pset = ParamSet(net.layers)
        assert pset.flat.size == sum(w.size + b.size for w, b in before)
        assert pset.adam.m[0].shape == pset.adam.v[0].shape == pset.flat.shape
        for layer, (w, b) in zip(net.layers, before):
            assert np.shares_memory(layer.W, pset.flat)
            assert np.shares_memory(layer.b, pset.flat)
            assert np.array_equal(layer.W, w) and np.array_equal(layer.b, b)

    def test_step_matches_per_array_adam(self):
        # the flat update is the per-array update, element for element
        net = small_net(1)
        rng = np.random.default_rng(2)
        params = [p.copy() for layer in net.layers for p in (layer.W, layer.b)]
        state = AdamState.init(params)
        pset = ParamSet(net.layers)
        for _ in range(3):
            grads = random_grads(net, rng)
            adam_step(params, [g for layer in net.layers for g in grads[layer]], state, 0.01)
            pset.step(grads, 0.01)
        live = [p for layer in net.layers for p in (layer.W, layer.b)]
        assert all(np.array_equal(a, b) for a, b in zip(live, params))

    def test_missing_layer_steps_on_zero_gradient(self):
        net = small_net(3)
        pset = ParamSet(net.layers)
        untouched, stepped = net.layers[1], net.layers[0]
        W, b, W0 = untouched.W.copy(), untouched.b.copy(), stepped.W.copy()
        grads = random_grads(net, np.random.default_rng(4))
        del grads[untouched]
        for _ in range(3):
            pset.step(grads, 0.01)
        assert np.array_equal(untouched.W, W) and np.array_equal(untouched.b, b)
        assert not np.array_equal(stepped.W, W0)

    @pytest.mark.parametrize("k", range(3))
    @pytest.mark.parametrize("which", [0, 1])
    def test_nan_in_any_layer_aborts_before_any_change(self, k, which):
        net = small_net(5)
        pset = ParamSet(net.layers)
        rng = np.random.default_rng(6)
        pset.step(random_grads(net, rng), 0.01)
        before = state_of(pset)
        grads = random_grads(net, rng)
        grads[net.layers[k]][which].flat[-1] = np.nan
        with pytest.raises(FloatingPointError):
            pset.step(grads, 0.01)
        after = state_of(pset)
        for a, b in zip(before[:3], after[:3]):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        assert after[3] == before[3] == 1

    def test_wrong_gradient_shape_rejected(self):
        net = small_net(7)
        pset = ParamSet(net.layers)
        grads = random_grads(net, np.random.default_rng(8))
        dW, db = grads[net.layers[1]]
        grads[net.layers[1]] = (dW[:1], db)  # would broadcast into the slot
        before = state_of(pset)
        with pytest.raises(ValueError, match="layer 1"):
            pset.step(grads, 0.01)
        assert np.array_equal(pset.flat, before[0]) and pset.adam.t == 0

    def test_step_after_rebinding_rejected(self):
        net = small_net(9)
        first = ParamSet(net.layers)
        second = ParamSet(net.layers[1:])
        grads = random_grads(net, np.random.default_rng(10))
        with pytest.raises(ValueError, match="layer 1 .*no longer views"):
            first.step(grads, 0.01)
        second.step(grads, 0.01)
        net.layers[2].W = net.layers[2].W.copy()
        with pytest.raises(ValueError, match="layer 1 .*no longer views"):
            second.step(grads, 0.01)

    def test_grad_check_reaches_the_live_weights(self):
        for name, net, x, loss in gradcheck_cases(np.random.default_rng(11)):
            ParamSet(net.layers)
            assert grad_check(net, x, loss) < 1e-4, name

            def wrong(out, loss=loss):
                value, dout = loss(out)
                return value, dout * 1.001
            assert 5e-4 < grad_check(net, x, wrong) < 2e-3, name
