"""Minimal dense-network engine in float64 NumPy.

Provides exactly what the rest of the package needs: dense layers with a
handful of activations, an explicit forward/backward pass that also returns
input gradients (required to chain gradients into an upstream encoder and to
flip the sign of adversarial updates), weighted softmax/sigmoid cross-entropy
losses, and a central finite-difference gradient checker used as the test
oracle.

A gradient has one shape from backward to the optimizer: `LayerGrads`, the
(dW, db) pair of each layer. A `ParamSet` keeps its layers' W and b as views
into one flat vector and steps them on a `LayerGrads` with one Adam update.

`DenseNet.backward` computes only what its caller reads: `params=False`
skips every dW/db and `inputs=False` skips layer 0's input gradient, and a
skipped part comes back as None. Either way the parts it does compute are
the full backward's to the bit.

Which arrays live how long. `forward(x)` allocates each layer's activation
fresh, and so does the backward of its trace, so `predict` and every pass
outside training own what they return. A trainer whose passes keep their
shapes gives `forward` a `PassBuffers` as `out`: arrays allocated once,
which live as long as the buffers (a training round). Every pass given them
writes over the last one's activations, and its backward over the masks,
deltas and, through a `ParamSet`'s `grad_views`, layer gradients. Both
cases run one loop; `out=None` is numpy's "allocate". A backward refuses a
trace once its net's parameters changed (`stale trace`), so a caller that
steps the net before it writes the buffers again never reads a later pass's
values through an old trace. `np.matmul` and `sum(axis=0)` round alike with
and without `out=`, so both give the same bits.

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


def _activation_grad(a: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    # Derivative with respect to the pre-activation, read from the activation
    # a and written into `out` (fresh if None): relu and leaky_relu are
    # positive exactly where their input is. The subgradient of relu at 0 is
    # taken as 0; leaky_relu uses its negative-side slope there.
    if kind not in ("relu", "leaky_relu"):
        # identity's derivative is 1: backward passes its gradient through as is
        raise ValueError(f"no derivative mask for activation {kind!r}")
    # the comparison's True/False cast to float64 is the 0/1 mask
    grad = np.greater(a, 0.0, out=np.empty_like(a) if out is None else out)
    if kind == "leaky_relu":
        # 1 or the slope from the 0/1 mask: (1 - slope) + slope rounds to 1
        grad *= 1.0 - LEAKY_SLOPE
        grad += LEAKY_SLOPE
    return grad


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, overflow-safe for logits of either sign."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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


class PassBuffers:
    """The arrays one forward of a net's `layers` over `rows` rows, and the
    backward of its trace, write into: `acts[k]`, layer k's pre-activation
    and then its activation; `dz[k]`, its derivative mask and then the
    gradient of its pre-activation (None for an identity layer, which passes
    its output gradient on as is); `deltas[k]`, the gradient of its input
    (None for layer 0 without `inputs`); and `grads`, the (dW, db) arrays each
    layer's gradient goes to, e.g. a `ParamSet`'s `grad_views` (a layer
    missing from it gets fresh ones). Layer 0's input gradient without
    `inputs` is allocated fresh if a backward asks for it.

    `dz` and the deltas past layer 0 die within the backward that writes
    them, so the buffers of passes whose backwards run one at a time can
    share them: they come from the `scratch` dict, one array per kind and
    shape, and passes given the same dict share its arrays."""

    def __init__(self, layers: list[Layer], rows: int, grads: LayerGrads, scratch: dict,
                 inputs: bool = True):
        def shared(kind: str, width: int) -> np.ndarray:
            key = (kind, rows, width)
            if key not in scratch:
                scratch[key] = np.empty((rows, width))
            return scratch[key]

        self.rows = rows
        self.acts = [np.empty((rows, layer.out_dim)) for layer in layers]
        self.dz = [None if layer.activation == "identity" else shared("dz", layer.out_dim)
                   for layer in layers]
        self.deltas = [shared("delta", layer.in_dim) if k
                       else np.empty((rows, layer.in_dim)) if inputs else None
                       for k, layer in enumerate(layers)]
        self.grads = {layer: grads[layer] for layer in layers if layer in grads}


@dataclass
class ActivationTrace:
    """Everything forward() saw, sufficient for an exact backward pass, and
    the buffers it was written into (None: its own arrays)."""

    net: "DenseNet"
    acts: list[np.ndarray]     # the input, then the activation of each layer
    versions: tuple[int, ...]
    out: PassBuffers | None = None

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
        return tuple(layer.version for layer in self.layers)

    def forward(self, x: np.ndarray, out: PassBuffers | None = None) -> ActivationTrace:
        """The trace of x through every layer, written into `out`'s arrays
        (fresh ones if None), which the backward of the trace then uses."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected (B, D) features, got shape {x.shape}")
        if x.shape[1] != self.input_dim:
            raise ValueError(
                f"feature dim {x.shape[1]} does not match net input dim {self.input_dim}"
            )
        if out is not None and out.rows != x.shape[0]:
            raise ValueError(f"{x.shape[0]} rows do not fit buffers of {out.rows}")
        acts = [x]
        for k, layer in enumerate(self.layers):
            z = np.matmul(x, layer.W.T, out=None if out is None else out.acts[k])
            z += layer.b  # the same add as `x @ W.T + b`, one temporary fewer
            x = _activate(z, layer.activation)
            acts.append(x)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("non-finite values in forward output")
        return ActivationTrace(self, acts, self.versions(), out)

    def backward(self, trace: ActivationTrace, output_grad: np.ndarray, *,
                 params: bool = True, inputs: bool = True,
                 ) -> tuple[LayerGrads | None, np.ndarray | None]:
        """Every layer's (dW, db) and d(loss)/d(input), written into the
        trace's buffers where it has them. A caller that reads only one of
        them turns the other off: `params=False` skips every dW/db,
        `inputs=False` skips layer 0's input gradient, and the skipped part
        comes back as None."""
        if not (params or inputs):
            raise ValueError("backward needs params, inputs or both")
        trace.check_current(self)
        delta = np.asarray(output_grad, dtype=np.float64)
        if delta.shape != trace.output.shape:
            raise ValueError(
                f"output_grad shape {delta.shape} != output shape {trace.output.shape}"
            )
        out = trace.out
        grads: LayerGrads | None = {} if params else None
        for k in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[k]
            if layer.activation == "identity":
                dz = delta  # times a derivative of 1
            else:
                dz = _activation_grad(trace.acts[k + 1], layer.activation,
                                      None if out is None else out.dz[k])
                dz *= delta
            if params:
                dW, db = (None, None) if out is None else out.grads.get(layer, (None, None))
                grads[layer] = (np.matmul(dz.T, trace.acts[k], out=dW), dz.sum(axis=0, out=db))
            if k or inputs:
                delta = np.matmul(dz, layer.W, out=None if out is None else out.deltas[k])
            else:
                delta = None
        return grads, delta

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x).output


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators of one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def init(cls, param: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(param), v=np.zeros_like(param))


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> None:
    """Apply one bias-corrected Adam update in place and advance the step counter."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise ValueError(f"shape mismatch: param {param.shape} vs grad {grad.shape} "
                         f"vs state {state.m.shape}")
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("NaN/Inf in gradients; aborting optimizer step")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    param -= lr * (m / (1.0 - b1 ** state.t)) / (np.sqrt(v / (1.0 - b2 ** state.t)) + ADAM_EPS)


class ParamSet:
    """An ordered, de-duplicated collection of layers updated together by one
    Adam optimizer, whose state the set holds. `flat` holds every layer's W and
    b in order, each `Layer.W`/`.b` rebound to a view into it, so in-place
    writes (e.g. `grad_check`'s) reach it; the Adam moments and the gradient
    buffer are flat alike. `grad_views` hands out each layer's (dW, db) view
    of that buffer, so a backward can write a gradient where `step` reads it.
    A set refuses to step once a layer was rebound, by a later set or by
    assignment."""

    def __init__(self, layers: list[Layer]):
        self.layers = list({id(layer): layer for layer in layers}.values())
        self.flat = np.empty(sum(layer.W.size + layer.b.size for layer in self.layers))
        self._grad = np.empty_like(self.flat)
        self._slots = []  # (layer, W view, dW slot, b view, db slot)
        end = 0
        for layer in self.layers:
            slot = [layer]
            for p in (layer.W, layer.b):
                start, end = end, end + p.size
                view = self.flat[start:end].reshape(p.shape)
                view[...] = p
                slot += (view, self._grad[start:end].reshape(p.shape))
            layer.W, layer.b = slot[1], slot[3]
            self._slots.append(tuple(slot))
        self.adam = AdamState.init(self.flat)

    def grad_views(self) -> LayerGrads:
        """Each layer's (dW, db) view of the gradient buffer `step` reads."""
        return {layer: (dW, db) for layer, _, dW, _, db in self._slots}

    def step(self, grads: LayerGrads, lr: float) -> None:
        """One Adam step on every layer; a layer missing from `grads` steps on
        a zero gradient, and a gradient already in its `grad_views` is read in
        place."""
        for k, (layer, W, dW, b, db) in enumerate(self._slots):
            if layer.W is not W or layer.b is not b:
                raise ValueError(f"layer {k} ({layer.out_dim}x{layer.in_dim}) no longer views "
                                 "this ParamSet's parameters")
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
    scaled = np.asarray(logits, dtype=np.float64) / temperature
    shifted = scaled - scaled.max(axis=-1, keepdims=True)
    expz = np.exp(shifted)
    return expz / expz.sum(axis=-1, keepdims=True)


def softmax_ce(logits: np.ndarray, labels: np.ndarray,
               weights: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Weighted-mean softmax cross-entropy. Returns (loss, dloss/dlogits).

    The loss is sum_b w_b * CE_b / sum_b w_b, so the gradient rows are
    w_b * (p_b - onehot_b) / sum w, with p_b the softmax of row b.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    b, c = logits.shape
    if labels.shape != (b,):
        raise ValueError("labels must be shape (B,)")
    if np.any(labels < 0) or np.any(labels >= c):
        raise ValueError("labels out of range")
    weights = np.ones(b) if weights is None else np.asarray(weights, dtype=np.float64)
    if weights.sum() <= 0:
        raise ValueError("weights must not all be zero")
    return _softmax_ce(logits, labels, weights)


def _softmax_ce(logits: np.ndarray, labels: np.ndarray,
                weights: np.ndarray) -> tuple[float, np.ndarray]:
    """`softmax_ce` on inputs its checks would pass: float64 logits (B, C),
    integer labels (B,) in [0, C), float64 weights (B,) of positive sum. A
    caller that knows its labels are in range, e.g. because it checked the
    set they are drawn from, calls this once a step."""
    b = logits.shape[0]
    wsum = weights.sum()
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    denom = expz.sum(axis=1)
    probs = expz / denom[:, None]
    # log-sum-exp form keeps the per-sample CE finite even for extreme logits
    ce = np.log(denom) - shifted[np.arange(b), labels]
    loss = float((weights * ce).sum() / wsum)

    onehot = np.zeros_like(probs)
    onehot[np.arange(b), labels] = 1.0
    dlogits = (weights / wsum)[:, None] * (probs - onehot)
    return loss, dlogits


def sigmoid_bce(logits: np.ndarray, targets: np.ndarray,
                weights: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Weighted-mean binary cross-entropy on logits. Returns (loss, dloss/dlogits)."""
    z = np.asarray(logits, dtype=np.float64).reshape(-1)
    t = np.asarray(targets, dtype=np.float64).reshape(-1)
    if z.shape != t.shape:
        raise ValueError("logit/target shape mismatch")
    if np.any((t != 0.0) & (t != 1.0)):
        raise ValueError("targets must be 0 or 1")
    if weights is None:
        weights = np.ones_like(z)
    else:
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if weights.shape != z.shape:
            raise ValueError("weights shape mismatch")
    if weights.sum() <= 0:
        raise ValueError("weights must not all be zero")
    return _sigmoid_bce(z, t, weights)


def _sigmoid_bce(z: np.ndarray, t: np.ndarray, weights: np.ndarray) -> tuple[float, np.ndarray]:
    """`sigmoid_bce` on inputs its checks would pass: float64 logits, 0/1
    targets and weights of positive sum, all of one 1-D shape. A caller
    whose targets are fixed, e.g. a `BlockLayout`'s, checks them once and
    calls this once a step."""
    wsum = weights.sum()
    # max(z,0) - z*t + log(1 + exp(-|z|)) is the overflow-safe BCE
    per = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    loss = float((weights * per).sum() / wsum)
    dlogits = weights * (sigmoid(z) - t) / wsum
    return loss, dlogits


# a loss value is taken as exact to within this many units in its last place
FD_ROUNDOFF_ULPS = 8.0


def grad_check(net: DenseNet, features: np.ndarray, loss_fn, eps: float = 1e-6) -> float:
    """Max relative error between analytic parameter gradients and central
    finite differences. ``loss_fn`` maps the net output to (scalar, dloss/doutput).

    A central difference carries its two loss values' roundoff, divided by
    2 * eps. Each entry scores |g - fd| less that noise floor, relative to
    max(|g|, |fd|): an entry that agrees to within the floor scores 0 however
    small it is, and any larger disagreement counts in full above it.
    """
    features = np.asarray(features, dtype=np.float64)
    trace = net.forward(features)
    _, dout = loss_fn(trace.output)
    grads, _ = net.backward(trace, dout, inputs=False)

    def loss_at() -> float:
        value, _ = loss_fn(net.forward(features).output)
        return value

    worst = 0.0
    params = [p for layer in net.layers for p in (layer.W, layer.b)]
    analytic = [g for layer in net.layers for g in grads[layer]]
    for p, g in zip(params, analytic):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + eps
            up = loss_at()
            flat_p[i] = orig - eps
            down = loss_at()
            flat_p[i] = orig
            fd = (up - down) / (2.0 * eps)
            noise = FD_ROUNDOFF_ULPS * np.finfo(np.float64).eps * max(abs(up), abs(down)) / eps
            excess = abs(flat_g[i] - fd) - noise
            if excess > 0.0:
                worst = max(worst, excess / max(abs(flat_g[i]), abs(fd)))
    return worst
