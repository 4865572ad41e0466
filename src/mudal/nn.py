"""Minimal dense-network engine in float64 NumPy.

Provides exactly what the rest of the package needs: dense layers with a
handful of activations, an explicit forward/backward pass that also returns
input gradients (required to chain gradients into an upstream encoder and to
flip the sign of adversarial updates), the kernels of the weighted
softmax/sigmoid cross-entropies that the objective's terms call (no public
loss), and `grad_check(layers, grads, loss)`, the oracle of any gradient, e.g.
a training step's, by central finite differences of a zero-argument `loss()`
that returns the loss's terms.

A gradient has one shape from backward to the optimizer: `LayerGrads`, the
(dW, db) pair of each layer. A `ParamSet` keeps its layers' W and b as views
into one flat vector, every W first and then every b, and steps them on a
`LayerGrads` with one Adam update. Adam is elementwise, so the layout leaves
its bits as they were; it makes consecutive layers of one shape one block
of W's and one of b's, which `ParamSet.stack` hands out as a `LayerStack`:
(K, out, in) and (K, out) views of the parameters and of the gradient
buffer, slice k aliasing layer k. Adam writes its products and quotients,
in the textbook expression's operand order, into two temporaries the set's
`AdamState` allocates once. A layer views one set at a time: a later set
over it takes it over, and the earlier one then refuses to step. So a
`models.ModelBundle` builds its sets and its stack of final layers once,
with itself, and every pass reads those; a gradient a term writes through
the stack lands in the set's buffer, where the next pass writes over it.

`DenseNet.backward` computes only what its caller reads: `params=False`
skips every dW/db and `inputs=False` skips layer 0's input gradient, and a
skipped part comes back as None. Either way the parts it does compute are
the full backward's to the bit.

Which arrays live how long. `forward(x, ws, role)` writes each layer's
activation into the `Workspace` ws under `role`, and the backward of its
trace writes there too: layer 0's input gradient under the role, the masks
and deltas that die within the backward under their shape alone (so every
role shares them), and the layer gradients where ws keeps them, e.g. a
`ParamSet`'s `grad_views`. A trainer keeps one workspace for a round, so
each pass writes over the last one of its role; the default, `ALLOCATE`,
makes a new array on every call, so `predict` and every pass outside
training own what they return. A backward refuses a trace once its net's
parameters changed (`stale trace`), so a caller that steps the net before
its role is written again never reads a later pass's values through an old
trace. `np.matmul` and `sum(axis=0)` round alike with and without `out=`,
so both give the same bits.

The losses' kernels spend few NumPy calls on many short rows: the softmax
takes its row max and row sum one column at a time (`_row_max`, `_row_sum`:
the reductions' bits, without a loop per row), subtracts the one-hot rows as
a boolean array and computes the cross-entropy value only for a caller that
reads it; the sigmoid picks its two sides with `np.copyto(..., where=)`
into workspace arrays.

The leaky ReLU and its derivative mask avoid `np.where`: on rows whose signs
mix at random, its data-dependent branch mispredicts about half the time
and costs several times the arithmetic. `max(z, slope * z)` and a 0/1 mask
scaled by 1 - slope plus slope give the same bits (see `_activate`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "leaky_relu", "identity")
LEAKY_SLOPE = 0.01


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    """The activation of the pre-activation z, written over z."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    if kind == "leaky_relu":
        # slope * z lies above z exactly where z < 0, so this is
        # np.where(z > 0, z, slope * z) to the bit, without the branch
        return np.maximum(z, LEAKY_SLOPE * z, out=z)
    if kind == "identity":
        return z
    raise ValueError(f"unknown activation {kind!r}")


def _activation_grad(a: np.ndarray, kind: str, out: np.ndarray) -> np.ndarray:
    # Derivative with respect to the pre-activation, read from the activation
    # a and written into `out`: relu and leaky_relu are positive exactly
    # where their input is. The subgradient of relu at 0 is taken as 0;
    # leaky_relu uses its negative-side slope there.
    if kind not in ("relu", "leaky_relu"):
        # identity's derivative is 1: backward passes its gradient through as is
        raise ValueError(f"no derivative mask for activation {kind!r}")
    # the comparison's True/False cast to float64 is the 0/1 mask
    grad = np.greater(a, 0.0, out=out)
    if kind == "leaky_relu":
        # 1 or the slope from the 0/1 mask: (1 - slope) + slope rounds to 1
        grad *= 1.0 - LEAKY_SLOPE
        grad += LEAKY_SLOPE
    return grad


def sigmoid(z: np.ndarray, ws: Workspace | None = None, role=None) -> np.ndarray:
    """Logistic function, overflow-safe for logits of either sign: 1 / (1 + e)
    where z >= 0 and e / (1 + e) elsewhere, e = exp(-|z|), written into `ws`
    under `role` (fresh arrays without one)."""
    ws = ALLOCATE if ws is None else ws
    e = np.abs(z, out=ws.array(role, "sigmoid", z.shape))
    np.exp(np.negative(e, out=e), out=e)
    denom = np.add(1.0, e, out=ws.array(role, "sigmoid_denom", z.shape))
    np.divide(e, denom, out=e)
    np.copyto(e, np.divide(1.0, denom, out=denom),
              where=np.greater_equal(z, 0.0, out=ws.array(role, "sigmoid_side", z.shape, bool)))
    return e


class Layer:
    """One dense layer: weight (out, in), bias (out,), activation tag.

    ``version`` increments on every in-place parameter update so a forward
    trace can detect that it has gone stale.
    """

    __slots__ = ("W", "b", "activation", "version")

    def __init__(self, W: np.ndarray, b: np.ndarray, activation: str = "identity"):
        W = np.array(W, dtype=np.float64)
        b = np.array(b, dtype=np.float64)
        if W.ndim != 2 or b.ndim != 1 or b.shape[0] != W.shape[0]:
            raise ValueError(f"layer shapes inconsistent: W {W.shape}, b {b.shape}")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.W = W
        self.b = b
        self.activation = activation
        self.version = 0

    @property
    def in_dim(self) -> int:
        return self.W.shape[1]

    @property
    def out_dim(self) -> int:
        return self.W.shape[0]

    def bump(self) -> None:
        self.version += 1

    @classmethod
    def random(cls, in_dim: int, out_dim: int, activation: str, rng: np.random.Generator) -> "Layer":
        # He-style scaling for the rectified activations, Glorot otherwise.
        if activation in ("relu", "leaky_relu"):
            scale = np.sqrt(2.0 / in_dim)
        else:
            scale = np.sqrt(1.0 / in_dim)
        W = rng.standard_normal((out_dim, in_dim)) * scale
        b = np.zeros(out_dim)
        return cls(W, b, activation)


class Workspace:
    """The arrays the passes of a training round write into: a dict keyed by
    (role, name, shape, dtype), each array made on first use, plus the
    layer-gradient destinations `grads` (a bundle's `ParamSet`s'
    `grad_views` merged; a layer missing from them has its own, under the
    layer as role). A key of role None is shared by every role: the backward
    keeps there what dies within it."""

    def __init__(self, grads: LayerGrads):
        self.arrays = {}
        self.grads = dict(grads)

    def array(self, role, name, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        key = (role, name, shape, dtype)
        a = self.arrays.get(key)
        if a is None:
            a = self.arrays[key] = np.empty(shape, dtype)
        return a

    def grad(self, layer: Layer) -> tuple[np.ndarray, np.ndarray]:
        """The (dW, db) arrays a gradient of `layer` is written into."""
        pair = self.grads.get(layer)
        if pair is None:
            pair = self.array(layer, "dW", layer.W.shape), self.array(layer, "db", layer.b.shape)
        return pair


class _Allocating(Workspace):
    def array(self, role, name, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        return np.empty(shape, dtype)


# the workspace of a pass that owns its arrays: a new one on every call
ALLOCATE = _Allocating({})


@dataclass
class ActivationTrace:
    """Everything forward() saw, sufficient for an exact backward pass, and
    the workspace and role it was written into, which its backward uses."""

    net: "DenseNet"
    acts: list[np.ndarray]     # the input, then the activation of each layer
    versions: tuple[int, ...]
    ws: Workspace
    role: str

    @property
    def output(self) -> np.ndarray:
        return self.acts[-1]

    def check_current(self, net: "DenseNet") -> None:
        """Refuse a trace of another net, or one taken before a parameter update."""
        if self.net is not net:
            raise ValueError("trace was produced by a different net")
        if self.versions != net.versions():
            raise ValueError("stale trace: parameters changed since forward()")


# the (dW, db) pair of each layer a gradient reaches
LayerGrads = dict[Layer, tuple[np.ndarray, np.ndarray]]


class DenseNet:
    """A stack of dense layers. Layer objects may be shared between nets;
    composing nets that reuse layers (e.g. a shared classifier trunk) is the
    intended way to express parameter tying."""

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ValueError("a DenseNet needs at least one layer")
        for a, bnext in zip(layers, layers[1:]):
            if a.out_dim != bnext.in_dim:
                raise ValueError(
                    f"layer dimensions do not chain: {a.out_dim} -> {bnext.in_dim}"
                )
        self.layers = list(layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    @classmethod
    def create(cls, dims: list[int], activations: list[str], rng: np.random.Generator) -> "DenseNet":
        if len(dims) < 2 or len(activations) != len(dims) - 1:
            raise ValueError("need dims [d0..dL] and one activation per layer")
        layers = [
            Layer.random(dims[k], dims[k + 1], activations[k], rng)
            for k in range(len(dims) - 1)
        ]
        return cls(layers)

    def versions(self) -> tuple[int, ...]:
        return tuple([layer.version for layer in self.layers])

    def forward(self, x: np.ndarray, ws: Workspace = ALLOCATE, role: str = "") -> ActivationTrace:
        """The trace of x through every layer, written into `ws` under
        `role`, as the backward of the trace then is."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected (B, D) features, got shape {x.shape}")
        if x.shape[1] != self.input_dim:
            raise ValueError(
                f"feature dim {x.shape[1]} does not match net input dim {self.input_dim}"
            )
        acts, rows = [x], x.shape[0]
        for k, layer in enumerate(self.layers):
            # layer k's activation is the role's array named k
            z = np.matmul(x, layer.W.T, out=ws.array(role, k, (rows, layer.W.shape[0])))
            z += layer.b  # the same add as `x @ W.T + b`, one temporary fewer
            x = _activate(z, layer.activation)
            acts.append(x)
        if not np.isfinite(x).all():
            raise FloatingPointError("non-finite values in forward output")
        return ActivationTrace(self, acts, self.versions(), ws, role)

    def backward(self, trace: ActivationTrace, output_grad: np.ndarray, *,
                 params: bool = True, inputs: bool = True,
                 ) -> tuple[LayerGrads | None, np.ndarray | None]:
        """Every layer's (dW, db) and d(loss)/d(input), written into the
        trace's workspace. A caller that reads only one of them turns the
        other off: `params=False` skips every dW/db, `inputs=False` skips
        layer 0's input gradient, and the skipped part comes back as None."""
        if not (params or inputs):
            raise ValueError("backward needs params, inputs or both")
        trace.check_current(self)
        delta = np.asarray(output_grad, dtype=np.float64)
        if delta.shape != trace.output.shape:
            raise ValueError(
                f"output_grad shape {delta.shape} != output shape {trace.output.shape}"
            )
        ws, rows = trace.ws, delta.shape[0]
        grads: LayerGrads | None = {} if params else None
        for k in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[k]
            if layer.activation == "identity":
                dz = delta  # times a derivative of 1
            else:
                dz = _activation_grad(trace.acts[k + 1], layer.activation,
                                      ws.array(None, "dz", (rows, layer.out_dim)))
                dz *= delta
            if params:
                dW, db = ws.grad(layer)
                grads[layer] = (np.matmul(dz.T, trace.acts[k], out=dW), dz.sum(axis=0, out=db))
            if k or inputs:
                # the input gradient outlives the backward, the deltas before it do not
                delta = np.matmul(dz, layer.W, out=ws.array(None if k else trace.role, "delta",
                                                             (rows, layer.in_dim)))
            else:
                delta = None
        return grads, delta

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x).output


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators of one flat parameter vector, and
    the two temporaries of its update."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    def __post_init__(self) -> None:
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def init(cls, param: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(param), v=np.zeros_like(param))


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> None:
    """Apply one bias-corrected Adam update in place and advance the step
    counter. Each product and quotient is the textbook expression's, in its
    operand order, written into the state's two temporaries."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise ValueError(f"shape mismatch: param {param.shape} vs grad {grad.shape} "
                         f"vs state {state.m.shape}")
    if not np.isfinite(grad).all():
        raise FloatingPointError("NaN/Inf in gradients; aborting optimizer step")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m, v = state.m, state.v
    step, denom = state.scratch
    m *= b1
    m += np.multiply(1.0 - b1, grad, out=step)
    v *= b2
    v += np.multiply(np.multiply(1.0 - b2, grad, out=step), grad, out=step)
    # param -= lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
    np.multiply(lr, np.divide(m, 1.0 - b1 ** state.t, out=step), out=step)
    np.sqrt(np.divide(v, 1.0 - b2 ** state.t, out=denom), out=denom)
    denom += ADAM_EPS
    param -= np.divide(step, denom, out=step)


@dataclass(frozen=True)
class LayerStack:
    """Consecutive layers of one shape in a `ParamSet`, viewed as one stack:
    W (K, out, in) and b (K, out), and dW and db alike in its gradient
    buffer. Slice k aliases layer k's W, b and `grad_views` pair, which
    `grads` holds."""
    layers: tuple[Layer, ...]
    W: np.ndarray
    b: np.ndarray
    dW: np.ndarray
    db: np.ndarray
    grads: LayerGrads

    def first(self, k: int) -> LayerStack:
        """The stack of the first k layers, viewing the same memory."""
        return LayerStack(self.layers[:k], self.W[:k], self.b[:k], self.dW[:k], self.db[:k],
                          {layer: self.grads[layer] for layer in self.layers[:k]})


class ParamSet:
    """An ordered, de-duplicated collection of layers updated together by one
    Adam optimizer, whose state the set holds. `flat` holds every layer's W in
    order, then every layer's b, each `Layer.W`/`.b` rebound to a view into
    it, so in-place writes (e.g. `grad_check`'s) reach it; the Adam moments
    and the gradient buffer are flat alike. Adam is elementwise, so the
    layout does not change its bits, and it lets consecutive layers of one
    shape read as one `stack`. `grad_views` hands out each layer's (dW, db)
    view of the gradient buffer, so a backward can write a gradient where
    `step` reads it. A set refuses to step, or to stack, once a layer was
    rebound, by a later set or by assignment."""

    def __init__(self, layers: list[Layer]):
        self.layers = list({id(layer): layer for layer in layers}.values())
        params = [layer.W for layer in self.layers] + [layer.b for layer in self.layers]
        self.flat = np.empty(sum(p.size for p in params))
        self._grad = np.empty_like(self.flat)
        views, self._starts, end = [], [], 0
        for p in params:
            start, end = end, end + p.size
            view = self.flat[start:end].reshape(p.shape)
            view[...] = p
            views.append((view, self._grad[start:end].reshape(p.shape)))
            self._starts.append(start)
        n = len(self.layers)
        self._slots = []  # (layer, W view, dW slot, b view, db slot)
        for layer, (W, dW), (b, db) in zip(self.layers, views[:n], views[n:]):
            layer.W, layer.b = W, b
            self._slots.append((layer, W, dW, b, db))
        self.adam = AdamState.init(self.flat)

    def _check_views(self, k: int) -> None:
        layer, W, _, b, _ = self._slots[k]
        if layer.W is not W or layer.b is not b:
            raise ValueError(f"layer {k} ({layer.out_dim}x{layer.in_dim}) no longer views "
                             "this ParamSet's parameters")

    def grad_views(self) -> LayerGrads:
        """Each layer's (dW, db) view of the gradient buffer `step` reads."""
        return {layer: (dW, db) for layer, _, dW, _, db in self._slots}

    def stack(self, layers: list[Layer]) -> LayerStack:
        """`layers`, consecutive layers of this set with one shape, as one
        `LayerStack` of views."""
        starts = [k for k, layer in enumerate(self.layers) if layer is layers[0]]
        first = starts[0] if starts else 0
        end = first + len(layers)
        run = self.layers[first:end]
        if not starts or len(run) != len(layers) or any(a is not b for a, b in zip(run, layers)):
            raise ValueError("the layers to stack are not consecutive in this ParamSet")
        if len({layer.W.shape for layer in layers}) != 1:
            raise ValueError("the layers to stack differ in shape")
        for k in range(first, end):
            self._check_views(k)
        w_size, b_size = layers[0].W.size, layers[0].b.size
        w0, b0 = self._starts[first], self._starts[len(self.layers) + first]
        K, shape = len(layers), layers[0].W.shape
        W = self.flat[w0:w0 + K * w_size].reshape(K, *shape)
        dW = self._grad[w0:w0 + K * w_size].reshape(K, *shape)
        b = self.flat[b0:b0 + K * b_size].reshape(K, shape[0])
        db = self._grad[b0:b0 + K * b_size].reshape(K, shape[0])
        views = self.grad_views()
        return LayerStack(tuple(layers), W, b, dW, db, {layer: views[layer] for layer in layers})

    def step(self, grads: LayerGrads, lr: float) -> None:
        """One Adam step on every layer; a layer missing from `grads` steps on
        a zero gradient, and a gradient already in its `grad_views` is read in
        place."""
        for k, (layer, W, dW, b, db) in enumerate(self._slots):
            if layer.W is not W or layer.b is not b:
                self._check_views(k)
            pair = grads.get(layer)
            if pair is None:
                dW[...] = db[...] = 0.0
                continue
            if pair[0] is dW and pair[1] is db:
                continue
            if (np.shape(pair[0]), np.shape(pair[1])) != (dW.shape, db.shape):
                raise ValueError(f"layer {k}: gradient shapes {tuple(map(np.shape, pair))} "
                                 f"!= parameter shapes {(dW.shape, db.shape)}")
            dW[...], db[...] = pair
        adam_step(self.flat, self._grad, self.adam, lr)
        for layer in self.layers:
            layer.bump()


def softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Stable softmax over the last axis at a temperature."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    return _softmax_residual(np.asarray(logits, dtype=np.float64) / temperature, False)[2]


# NumPy adds fewer than 8 values along an axis one after another (below its
# pairwise summation's block), so a row sum of this many columns or fewer is
# the columns added in order, to the bit
SEQUENTIAL_SUM_MAX = 7


def _row_max(x: np.ndarray) -> np.ndarray:
    """x.max(axis=-1), one column at a time: on many rows of a few columns,
    C - 1 calls cost less than one reduction's per-row loop. A maximum is
    exact, so the order does not change its value (only, on a tie of 0 and
    -0, which zero comes back)."""
    m = x[..., 0].copy()
    for k in range(1, x.shape[-1]):
        np.maximum(m, x[..., k], out=m)
    return m


def _row_sum(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=-1) of a C-contiguous array to the bit: one column at a
    time in order when C <= SEQUENTIAL_SUM_MAX, else the reduction itself."""
    if x.shape[-1] == 1 or x.shape[-1] > SEQUENTIAL_SUM_MAX:
        return x.sum(axis=-1)
    s = x[..., 0] + x[..., 1]
    for k in range(2, x.shape[-1]):
        s += x[..., k]
    return s


def _softmax_residual(logits: np.ndarray, onehot: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's softmax less its one-hot row, for C-contiguous float64
    logits (..., C) and a boolean `onehot` that broadcasts to them, and what
    the cross-entropy reads besides: the logits shifted by their row max and
    the row sums of their exponentials. Every row is computed on its own, so
    stacking rows does not change their bits. A weighted-mean softmax CE's
    gradient is w_b / sum w times row b of the residual."""
    # a zero's sign in the row max changes only zeros' signs in `shifted`,
    # which exp and the loss read alike
    shifted = logits - _row_max(logits)[..., None]
    expz = np.exp(shifted)
    denom = _row_sum(expz)
    # subtracting True (1) or False (0) is p - onehot
    residual = np.divide(expz, denom[..., None], out=expz)
    residual -= onehot
    return shifted, denom, residual


def _sigmoid_bce(z: np.ndarray, t: np.ndarray, weights: np.ndarray, wsum, *,
                 value: bool = True, ws: Workspace = ALLOCATE,
                 role=None) -> tuple[float | None, np.ndarray]:
    """Weighted-mean binary cross-entropy on logits: (loss, dloss/dz), for
    float64 logits z, 0/1 targets t and weights of positive sum `wsum`, all
    of one shape, which the caller guarantees (V_d's targets and weights are
    its `BlockLayout`'s). A caller that does not read the loss turns `value`
    off and gets None for it. The gradient is written into `ws` under
    `role`."""
    loss = None
    if value:
        # max(z,0) - z*t + log(1 + exp(-|z|)) is the overflow-safe BCE
        per = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
        loss = float((weights * per).sum() / wsum)
    # weights * (sigmoid(z) - t) / wsum, over the sigmoid's array
    dlogits = sigmoid(z, ws, role)
    dlogits -= t
    dlogits *= weights
    dlogits /= wsum
    return loss, dlogits


# a loss term is taken as exact to within this many units in its last place
FD_ROUNDOFF_ULPS = 8.0


def grad_check(layers: list[Layer], grads: LayerGrads, loss, eps: float = 1e-6) -> float:
    """Max relative error between the gradients `grads` of the loss and its
    central finite differences over each layer's live W and b, perturbed in
    place one entry at a time; a layer missing from `grads` counts as zero.
    The zero-argument `loss()` returns the loss's terms, which the check sums.

    A central difference carries its loss values' roundoff, divided by
    2 * eps, and a sum of terms carries the roundoff of its largest term even
    where the terms cancel. Each entry scores |g - fd| less that noise floor,
    relative to max(|g|, |fd|): an entry that agrees to within the floor
    scores 0 however small it is, and any larger disagreement counts in full
    above it.
    """
    worst = 0.0
    for layer in layers:
        for p, g in zip((layer.W, layer.b), grads.get(layer, (0.0 * layer.W, 0.0 * layer.b))):
            flat_p = p.reshape(-1)
            for i, g_i in enumerate(np.reshape(g, -1)):
                orig = flat_p[i]
                flat_p[i] = orig + eps
                up = loss()
                flat_p[i] = orig - eps
                down = loss()
                flat_p[i] = orig
                fd = (sum(up) - sum(down)) / (2.0 * eps)
                largest = max(abs(term) for term in (*up, *down))
                noise = FD_ROUNDOFF_ULPS * np.finfo(np.float64).eps * largest / eps
                excess = abs(g_i - fd) - noise
                if excess > 0.0:
                    worst = max(worst, excess / max(abs(g_i), abs(fd)))
    return worst
