import math

import numpy as np
import pytest

from mudal import nn
from mudal.cli import gradcheck_cases
from mudal.nn import (ALLOCATE, LEAKY_SLOPE, AdamState, DenseNet, Layer, ParamSet,
                      Workspace, _sigmoid_bce, _softmax_residual, adam_step, grad_check, sigmoid,
                      softmax)
from test_objective import softmax_ce_by_rows


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

    def test_leaky_mask_is_exact(self):
        # the branch-free derivative mask scales a 0/1 mask by 1 - slope and
        # adds the slope; it gives exactly 1 only while these round to 1
        assert (1.0 - LEAKY_SLOPE) + LEAKY_SLOPE == 1.0
        assert 0.0 * (1.0 - LEAKY_SLOPE) + LEAKY_SLOPE == LEAKY_SLOPE

    @staticmethod
    def mixed_net_and_trace(seed):
        rng = np.random.default_rng(seed)
        net = DenseNet.create([3, 7, 5, 4], ["relu", "leaky_relu", "identity"], rng)
        trace = net.forward(rng.standard_normal((9, 3)))
        return net, trace, rng.standard_normal((9, 4))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partial_backward_equals_the_full_one(self, seed):
        net, trace, g = self.mixed_net_and_trace(seed)
        full_grads, full_dx = net.backward(trace, g)
        grads, dx = net.backward(trace, g, inputs=False)
        assert dx is None
        assert list(grads) == list(full_grads)
        for layer, (dw, db) in grads.items():
            assert dw.tobytes() == full_grads[layer][0].tobytes()
            assert db.tobytes() == full_grads[layer][1].tobytes()
        grads, dx = net.backward(trace, g, params=False)
        assert grads is None
        assert dx.tobytes() == full_dx.tobytes()

    def test_backward_of_nothing_refused(self):
        net, trace, g = self.mixed_net_and_trace(0)
        with pytest.raises(ValueError, match="params, inputs or both"):
            net.backward(trace, g, params=False, inputs=False)

    def test_stale_trace_rejected(self):
        rng = np.random.default_rng(0)
        net = DenseNet.create([2, 3], ["identity"], rng)
        params = ParamSet(net.layers)
        trace = net.forward(rng.standard_normal((2, 2)))
        params.step({net.layers[0]: (np.ones((3, 2)), np.ones(3))}, 0.1)
        with pytest.raises(ValueError, match="stale"):
            net.backward(trace, np.ones((2, 3)))

    def test_trace_stale_once_a_later_set_takes_its_layers_over(self):
        rng = np.random.default_rng(0)
        net = DenseNet.create([2, 3, 3], ["relu", "identity"], rng)
        x = rng.standard_normal((2, 2))
        bare = net.forward(x)
        ParamSet(net.layers)
        held = net.forward(x)
        ParamSet(net.layers)  # no step: the takeover alone
        for trace in (bare, held):
            with pytest.raises(ValueError, match="stale"):
                net.backward(trace, np.ones((2, 3)))
        net.backward(net.forward(x), np.ones((2, 3)))

    def test_refused_nan_step_leaves_traces_current(self):
        rng = np.random.default_rng(1)
        net = DenseNet.create([2, 3, 3], ["relu", "identity"], rng)
        params = ParamSet(net.layers)
        params.step(random_grads(net, rng), 0.1)
        trace = net.forward(rng.standard_normal((4, 2)))
        g = rng.standard_normal((4, 3))
        before = net.backward(trace, g)[1].copy()
        grads = random_grads(net, rng)
        grads[net.layers[1]][0].flat[0] = np.nan
        with pytest.raises(FloatingPointError):
            params.step(grads, 0.1)
        assert params.adam.t == 1
        assert net.backward(trace, g)[1].tobytes() == before.tobytes()

    def test_foreign_trace_rejected(self):
        rng = np.random.default_rng(0)
        a = DenseNet.create([2, 3], ["identity"], rng)
        b = DenseNet.create([2, 3], ["identity"], rng)
        trace = a.forward(rng.standard_normal((2, 2)))
        with pytest.raises(ValueError, match="different net"):
            b.backward(trace, np.ones((2, 3)))


def net_grad_check(net, x, loss_fn):
    """`grad_check` of a loss of the net's output, `loss_fn(out)` giving the
    value and its gradient in `out`, against the net's backward."""
    trace = net.forward(x)
    grads, _ = net.backward(trace, loss_fn(trace.output)[1], inputs=False)
    return grad_check(net.layers, grads, lambda: (loss_fn(net.forward(x).output)[0],))


class TestGradCheck:
    def test_linear_net_squared_loss_near_exact(self):
        rng = np.random.default_rng(1)
        net = DenseNet.create([3, 2], ["identity"], rng)
        x = rng.standard_normal((5, 3))

        def sq_loss(out):
            return 0.5 * float((out ** 2).sum()), out

        assert net_grad_check(net, x, sq_loss) < 1e-7

    def test_relu_net_away_from_kinks(self):
        rng = np.random.default_rng(2)
        net = DenseNet.create([3, 8, 2], ["relu", "identity"], rng)
        x = rng.standard_normal((6, 3)) + 0.1
        labels = np.array([0, 1, 0, 1, 0, 1])

        assert net_grad_check(net, x, lambda out: softmax_ce_by_rows(out, labels)) < 1e-5

    def test_leaky_relu_net(self):
        rng = np.random.default_rng(8)
        net = DenseNet.create([3, 8, 1], ["leaky_relu", "identity"], rng)
        x = rng.standard_normal((5, 3))
        targets = np.array([1.0, 0.0, 1.0, 0.0, 1.0])

        def loss(out):
            value, d = _sigmoid_bce(out.reshape(-1), targets, np.ones(5), 5.0)
            return value, d[:, None]

        assert net_grad_check(net, x, loss) < 1e-5

    def test_a_layer_missing_from_the_grads_counts_as_zero(self):
        rng = np.random.default_rng(3)
        net, unread = small_net(3), Layer.random(2, 2, "identity", rng)
        x = rng.standard_normal((4, 3))
        trace = net.forward(x)
        grads, _ = net.backward(trace, trace.output, inputs=False)

        def loss():
            return 0.5 * float((net.forward(x).output ** 2).sum()),
        # a layer the loss does not read has a zero gradient, as it has none
        assert grad_check([*net.layers, unread], grads, loss) < 1e-7
        del grads[net.layers[0]]
        assert grad_check(net.layers, grads, loss) > 0.99

    def test_the_roundoff_floor_is_the_largest_terms(self):
        # the loss sum(W) + sum(b), exact all-ones gradients, as two terms
        # 1e7 * sum(W^2) + sum(W) + sum(b) and -1e7 * sum(W^2): each term
        # rounds at its own magnitude, far above 8 ulps of their sum
        net = small_net(4)
        grads = {layer: (np.ones_like(layer.W), np.ones_like(layer.b)) for layer in net.layers}

        def terms():
            sq = 1e7 * sum(float((layer.W ** 2).sum()) for layer in net.layers)
            return sq + sum(float(layer.W.sum() + layer.b.sum()) for layer in net.layers), -sq
        assert grad_check(net.layers, grads, terms) == 0.0
        # the same loss as one term keeps the sum's floor: a false failure
        assert grad_check(net.layers, grads, lambda: (sum(terms()),)) > 1e-4

    def test_command_cases_pass_at_every_draw(self):
        # correct gradients far below one pass the check: their central
        # differences differ from them by roundoff alone
        for seed in range(40):
            cases = gradcheck_cases(np.random.default_rng(seed))
            assert [name.split(":")[0] for name, *_ in cases] == [
                "cal", "cal", "cal_alpha", "cal_alpha", "cal_fa", "cal_fa", "vanilla"]
            for name, layers, grads, loss in cases:
                assert grad_check(layers, grads, loss) < 1e-4, (seed, name)

    def test_planted_wrong_gradient_fails(self):
        # at every draw, so that the terms' floor hides no wrong gradient
        for seed in range(40):
            for name, layers, grads, loss in gradcheck_cases(np.random.default_rng(seed)):
                wrong = {layer: (dW * 1.001, db * 1.001) for layer, (dW, db) in grads.items()}
                assert 5e-4 < grad_check(layers, wrong, loss) < 2e-3, (seed, name)

    def test_the_cases_check_the_live_weights_of_parameter_sets(self):
        # the cases perturb the layers of the trainer's `ParamSet`s in place
        # (test_command_cases_pass_at_every_draw fails if the writes miss them)
        for name, layers, grads, loss in gradcheck_cases(np.random.default_rng(11)):
            flat = layers[0].W.base
            assert all(np.shares_memory(p, flat) for layer in layers for p in (layer.W, layer.b))


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        param = np.random.default_rng(0).standard_normal(9)
        start = param.copy()
        state = AdamState.init(param)
        for _ in range(7):
            adam_step(param, np.zeros_like(param), state, lr=0.1)
        np.testing.assert_allclose(param, start, atol=1e-12)
        assert state.t == 7

    def test_constant_gradient_descends(self):
        param = np.zeros(4)
        g = np.array([1.0, -2.0, 3.0, -0.5])
        state = AdamState.init(param)
        for _ in range(50):
            adam_step(param, g, state, lr=0.01)
        assert np.all(np.sign(param) == -np.sign(g))

    def test_first_step_hand_value(self):
        # with zeroed state, g=1: m_hat = 1, v_hat = 1, so delta = -lr / (1 + eps)
        param = np.zeros(1)
        state = AdamState.init(param)
        adam_step(param, np.ones(1), state, lr=0.1)
        expected = -0.1 * (1.0 / (1.0 + 1e-8))
        np.testing.assert_allclose(param[0], expected, rtol=0, atol=1e-15)

    def test_nan_gradient_aborts(self):
        param = np.zeros(2)
        state = AdamState.init(param)
        with pytest.raises(FloatingPointError, match="NaN"):
            adam_step(param, np.array([np.nan, 0.0]), state, lr=0.1)
        assert state.t == 0

    @pytest.mark.parametrize("grad_size, state_size", [(3, 2), (2, 3)])
    def test_shape_mismatch_rejected(self, grad_size, state_size):
        param = np.zeros(2)
        state = AdamState.init(np.zeros(state_size))
        with pytest.raises(ValueError, match="shape mismatch"):
            adam_step(param, np.ones(grad_size), state, lr=0.1)
        assert state.t == 0 and not param.any()

    def test_step_counter_strictly_increments(self):
        param = np.zeros(2)
        state = AdamState.init(param)
        for k in range(1, 4):
            adam_step(param, np.ones(2), state, lr=0.1)
            assert state.t == k

    def test_temporaries_give_the_textbook_expression_bit_for_bit(self):
        # oracle: the update written as one expression, each temporary fresh
        rng = np.random.default_rng(12)
        param = rng.standard_normal(50)
        want, m, v = param.copy(), np.zeros(50), np.zeros(50)
        state = AdamState.init(param)
        scratch = [id(a) for a in state.scratch]
        b1, b2, eps = nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS
        for t in range(1, 6):
            g = rng.standard_normal(50) * 10.0 ** rng.integers(-6, 3)
            adam_step(param, g, state, lr=0.003)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            want -= 0.003 * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
            for got, oracle in ((param, want), (state.m, m), (state.v, v)):
                assert np.array_equal(got.view(np.int64), oracle.view(np.int64))
        assert [id(a) for a in state.scratch] == scratch


def softmax_parts(logits, labels):
    """`_softmax_residual` of logits on labels: each row's cross-entropy,
    read off the kernel's parts as the terms read it, and the residual
    p - onehot."""
    onehot = labels[:, None] == np.arange(logits.shape[1])
    shifted, denom, residual = _softmax_residual(np.asarray(logits, dtype=np.float64), onehot)
    return np.log(denom) - shifted[onehot], residual


class TestSoftmaxCE:
    def test_equal_logits_symmetry(self):
        labels = np.array([0, 1, 2])
        ce, residual = softmax_parts(np.zeros((3, 4)), labels)
        probs = residual + (labels[:, None] == np.arange(4))
        np.testing.assert_allclose(probs, 0.25)
        np.testing.assert_allclose(ce, math.log(4.0), rtol=1e-12)

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
        ce, _ = softmax_parts(logits, labels)
        np.testing.assert_allclose((weights * ce).sum() / weights.sum(), expected, rtol=1e-12)

    def test_probability_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((20, 5)) * 10
        labels = rng.integers(0, 5, 20)
        _, residual = softmax_parts(logits, labels)
        probs = residual + (labels[:, None] == np.arange(5))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_gradient_rows_sum_to_zero_uniform_weights(self):
        rng = np.random.default_rng(1)
        _, residual = softmax_parts(rng.standard_normal((10, 4)), rng.integers(0, 4, 10))
        np.testing.assert_allclose(residual.sum(axis=1), 0.0, atol=1e-9)

    def test_gradient_scaling_contract(self):
        # a weighted-mean CE's gradient rows, w_b / sum w times the residual's,
        # equal weight * (p - onehot) / sum w
        logits = np.array([[0.3, -0.7], [1.2, 0.1]])
        labels = np.array([1, 0])
        weights = np.array([2.0, 1.0])
        _, residual = softmax_parts(logits, labels)
        probs = softmax(logits)
        onehot = np.zeros_like(probs)
        onehot[np.arange(2), labels] = 1.0
        expected = weights[:, None] * (probs - onehot) / weights.sum()
        np.testing.assert_allclose((weights / weights.sum())[:, None] * residual, expected,
                                   rtol=1e-12)


class TestSigmoidBCE:
    def test_zero_logit_target_one(self):
        loss, _ = _sigmoid_bce(np.zeros(1), np.ones(1), np.ones(1), 1.0)
        np.testing.assert_allclose(loss, math.log(2.0), rtol=1e-12)

    def test_large_logit_saturates(self):
        loss, _ = _sigmoid_bce(np.array([50.0]), np.ones(1), np.ones(1), 1.0)
        assert loss < 1e-20

    def test_hand_computed_mixed_batch(self):
        logits = np.array([0.5, -1.0, 2.0])
        targets = np.array([1.0, 0.0, 0.0])
        weights = np.array([1.0, 2.0, 0.5])
        expected, grad = 0.0, []
        for z, t, w in zip(logits, targets, weights):
            p = 1.0 / (1.0 + math.exp(-z))
            expected += w * (-(t * math.log(p) + (1 - t) * math.log(1 - p)))
            grad.append(w * (p - t) / weights.sum())
        expected /= weights.sum()
        loss, dlogits = _sigmoid_bce(logits, targets, weights, weights.sum())
        np.testing.assert_allclose(loss, expected, rtol=1e-12)
        np.testing.assert_allclose(dlogits, grad, rtol=1e-12)


def test_softmax_helper_temperature():
    p1 = softmax(np.array([2.0, 1.0]))
    p2 = softmax(np.array([2.0, 1.0]), temperature=0.1)
    assert p2[0] > p1[0]
    np.testing.assert_allclose(p1.sum(), 1.0, atol=1e-12)


def reduction_softmax(logits, temperature=1.0):
    """The softmax by whole-row reductions that `softmax` replaced with the
    losses' column-at-a-time kernel, as its bitwise oracle."""
    scaled = np.asarray(logits, dtype=np.float64) / temperature
    shifted = scaled - scaled.max(axis=-1, keepdims=True)
    expz = np.exp(shifted)
    return expz / expz.sum(axis=-1, keepdims=True)


def test_softmax_matches_the_reduction_softmax_bit_for_bit():
    # C from 1 to 11 (both sides of the sequential row sum), signed zeros
    # and ties, several temperatures, and 1-D rows as well as stacks
    rng = np.random.default_rng(70)
    for k in range(600):
        c = int(rng.integers(1, 12))
        shape = (c,) if k % 5 == 0 else (int(rng.integers(1, 30)), c)
        x = rng.standard_normal(shape) * rng.choice([0.1, 1.0, 30.0])
        x[rng.random(shape) < 0.2] = 0.0
        x[rng.random(shape) < 0.2] = -0.0
        for t in (1.0, 0.5, 0.1):
            got, want = softmax(x, temperature=t), reduction_softmax(x, t)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (k, t)


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
    return pset.flat.copy(), pset.adam.m.copy(), pset.adam.v.copy(), pset.adam.t


class TestParamSet:
    def test_layers_view_the_flat_vector(self):
        net = small_net()
        before = [(layer.W.copy(), layer.b.copy()) for layer in net.layers]
        pset = ParamSet(net.layers)
        assert pset.flat.size == sum(w.size + b.size for w, b in before)
        assert pset.adam.m.shape == pset.adam.v.shape == pset.flat.shape
        for layer, (w, b) in zip(net.layers, before):
            assert np.shares_memory(layer.W, pset.flat)
            assert np.shares_memory(layer.b, pset.flat)
            assert np.array_equal(layer.W, w) and np.array_equal(layer.b, b)

    def test_step_matches_per_array_adam(self):
        # the flat update is the per-array update, element for element
        net = small_net(1)
        rng = np.random.default_rng(2)
        params = [p.copy() for layer in net.layers for p in (layer.W, layer.b)]
        states = [AdamState.init(p) for p in params]
        pset = ParamSet(net.layers)
        for _ in range(3):
            grads = random_grads(net, rng)
            per_array = [g for layer in net.layers for g in grads[layer]]
            for p, g, state in zip(params, per_array, states):
                adam_step(p, g, state, 0.01)
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


class TestStack:
    def heads(self, seed=0, k=4):
        """A small net and k consecutive same-shape layers after it, in one set."""
        rng = np.random.default_rng(seed)
        net = small_net(seed)
        layers = [Layer.random(5, 3, "identity", rng) for _ in range(k)]
        return net, layers, ParamSet([*net.layers, *layers])

    def test_every_W_before_every_b(self):
        net, layers, pset = self.heads()
        ws = [layer.W for layer in pset.layers]
        bs = [layer.b for layer in pset.layers]
        flat = np.concatenate([p.reshape(-1) for p in ws + bs])
        assert np.array_equal(pset.flat, flat)
        assert all(np.shares_memory(p, pset.flat) for p in ws + bs)

    def test_views_alias_each_layer_and_its_gradient_views(self):
        net, layers, pset = self.heads(1)
        stack, views = pset.stack(layers), pset.grad_views()
        assert stack.layers == tuple(layers)
        assert stack.W.shape == (4, 3, 5) and stack.b.shape == (4, 3)
        assert stack.dW.shape == (4, 3, 5) and stack.db.shape == (4, 3)
        for k, layer in enumerate(layers):
            assert np.array_equal(stack.W[k], layer.W) and np.array_equal(stack.b[k], layer.b)
            assert all(a is b for a, b in zip(stack.grads[layer], views[layer], strict=True))
            for a, b in ((stack.W[k], layer.W), (stack.b[k], layer.b),
                         (stack.dW[k], views[layer][0]), (stack.db[k], views[layer][1])):
                assert np.shares_memory(a, b) and a.ctypes.data == b.ctypes.data
        # a write through the stack reaches the layer and the gradient `step` reads
        stack.W[2, 1, 3] = 7.0
        stack.db[3] = 1.5
        assert layers[2].W[1, 3] == 7.0 and np.all(views[layers[3]][1] == 1.5)
        # a run of the stack is the stack of that run
        assert np.shares_memory(pset.stack(layers[1:3]).W, stack.W[1:3])
        first = stack.first(2)
        assert first.layers == tuple(layers[:2]) and set(first.grads) == set(layers[:2])
        assert first.W.ctypes.data == stack.W.ctypes.data and first.dW.shape == (2, 3, 5)

    @pytest.mark.parametrize("pick", [lambda net, layers: [layers[0], layers[2]],
                                      lambda net, layers: [net.layers[-1], layers[0]],
                                      lambda net, layers: [layers[0], small_net().layers[0]]],
                             ids=["not_consecutive", "differ_in_shape", "not_in_the_set"])
    def test_refused_unless_consecutive_layers_of_one_shape(self, pick):
        net, layers, pset = self.heads(2)
        with pytest.raises(ValueError, match="stack"):
            pset.stack(pick(net, layers))

    def test_a_rebound_layer_is_still_refused(self):
        net, layers, pset = self.heads(3)
        stack = pset.stack(layers)
        layers[1].W = layers[1].W.copy()
        with pytest.raises(ValueError, match="no longer views"):
            pset.stack(layers)
        with pytest.raises(ValueError, match="no longer views"):
            pset.step(stack.grads, 0.01)
        # a later set takes the layers over: the first one refuses them too
        later = ParamSet(layers)
        with pytest.raises(ValueError, match="no longer views"):
            pset.stack(layers[2:])
        assert np.shares_memory(later.stack(layers).W, layers[1].W)


@pytest.mark.parametrize("shape", [(50, 1), (50, 2), (96, 4), (7, 96, 4), (30, 7), (30, 8),
                                   (30, 12), (2, 9, 11)])
def test_row_max_and_row_sum_are_the_reductions_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    x = np.exp(rng.standard_normal(shape) * 3.0)
    x[..., -1] = x[..., 0]  # a tie
    assert np.array_equal(nn._row_max(x).view(np.int64), x.max(axis=-1).view(np.int64))
    assert np.array_equal(nn._row_sum(x).view(np.int64), x.sum(axis=-1).view(np.int64))


class TestWorkspace:
    def passes(self, ws, roles, net=None):
        """One forward and full backward of `net` (a `small_net` if None) per
        role, all in `ws`: the net, the traces and the input gradients."""
        net, rng = net or small_net(), np.random.default_rng(0)
        x, g = rng.standard_normal((6, 3)), rng.standard_normal((6, 2))
        traces = [net.forward(x, ws, role) for role in roles]
        return net, traces, [net.backward(trace, g)[1] for trace in traces]

    def test_a_key_returns_one_array(self):
        ws = Workspace({})
        a = ws.array("encoder", 0, (3, 4))
        assert ws.array("encoder", 0, (3, 4)) is a
        others = [ws.array("encoder", 0, (4, 3)), ws.array("encoder", 1, (3, 4)),
                  ws.array("disc", 0, (3, 4)), ws.array("encoder", 0, (3, 4), np.int64)]
        assert not any(np.shares_memory(a, b) for b in others)

    def test_layer_gradients_go_where_it_keeps_them(self):
        net = small_net()
        views = ParamSet(net.layers).grad_views()
        trace = net.forward(np.ones((2, 3)), Workspace(views), "net")
        grads, _ = net.backward(trace, np.ones((2, 2)))
        assert all(grads[layer][0] is views[layer][0] and grads[layer][1] is views[layer][1]
                   for layer in net.layers)

    def test_two_roles_of_one_shape_share_no_memory(self):
        _, (a, b), (dx_a, dx_b) = self.passes(Workspace({}), ("disc", "disc_rerun"))
        np.testing.assert_array_equal(a.output, b.output)
        assert not any(np.shares_memory(p, q) for p in a.acts[1:] for q in b.acts[1:])
        assert not np.shares_memory(dx_a, dx_b)

    def test_backward_scratch_is_shared_across_roles(self):
        ws = Workspace({})
        net, _, _ = self.passes(ws, ("encoder",))
        first = set(ws.arrays)
        assert any(role is None for role, *_ in first)  # the masks and the deltas past layer 0
        self.passes(ws, ("trunk",), net)
        # the second role adds its own activations and input gradient, nothing shared
        assert {role for role, *_ in set(ws.arrays) - first} == {"trunk"}

    def test_allocate_never_returns_an_array_twice(self):
        assert ALLOCATE.array("r", "a", (2, 2)) is not ALLOCATE.array("r", "a", (2, 2))
        net, (a, b), (dx_a, dx_b) = self.passes(ALLOCATE, ("r", "r"))
        assert not np.shares_memory(a.output, b.output) and not np.shares_memory(dx_a, dx_b)
        assert not np.shares_memory(ALLOCATE.grad(net.layers[0])[0],
                                    ALLOCATE.grad(net.layers[0])[0])
        # so predict's output stays the caller's
        x = np.ones((2, 3))
        kept = net.predict(x)
        assert not np.shares_memory(kept, net.predict(x))
