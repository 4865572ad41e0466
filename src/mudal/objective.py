"""The composite training objective: the alpha-weighted classification term,
the conditional-discriminator alignment term, the domain-specific head term,
projected-gradient updates of the similarity matrix, and the empirical
feature-space distance estimator.

Every term reads latent rows e(x) that the trainer encodes, one forward
pass per network, stacked as a `BlockLayout` says. `classifier_pass` runs
the classifier trunk once over the labeled rows, the stack's tail, then the
shared and head final layers as one stack; V_h, V_lambda and the 0/1 errors
read its logits, and V_h and V_lambda return the gradient of the trunk
output for one trunk backward (`ClassifierPass.backward`). `disc_pass` runs
the discriminator once over the whole stack; column i of its output is the
conditional decision D_i(z) of every row. The pass does not depend on alpha:
`compute_vd` takes the loss and backward pass from it at a given alpha,
running only the parts of the backward its caller reads. The alpha-free
part of both passes is the `BlockLayout`, which is its block sizes: the
`Segments` every mean over a block reads, and V_d's targets, are worked
out from them when first read, and V_d's weights at an alpha from them
and the alpha.

Every block has rows: `BlockLayout.of` and `Segments.of` refuse an empty
one, naming its domain, so a block's size divides every mean over it.

Values on demand. V_h, V_lambda and V_d compute their loss value only when
the caller asks (`value=True`, the default); otherwise the value reads None,
so nothing can take an uncomputed value for 0. Their gradients are the same
bits either way.

Batched heads. The pass reads the bundle's stack of the shared final layer
and the heads (`ModelBundle.finals`), views of its network `ParamSet`. V_h
and V_lambda write the final layers' dW and db into the set's buffer (the
heads' with one batched product and one row sum), so a caller that keeps
them across another pass copies them. V_lambda's trunk-output gradient is
one batched (N, B, H) product summed over the heads in head order, as the
per-head loop summed it. V_h and V_lambda read one softmax of all K final
layers' logits (`ClassifierPass.softmax`), computed once per pass: each row
is computed on its own, so the stacked rows keep their bits.

The readers of a pass refuse it once its network's set stepped (`stale
trace`), since it would pair old activations with new weights. The terms
call the losses' kernels, which check nothing: V_d's targets are 0/1 by
construction, and a classifier pass's labels must lie in [0, C).

`decision_rates` is the one home of the discriminator's 0/1 decision rates:
`DiscPass.rates` (the alpha coefficients, which read only the labeled
rates, and the epoch snapshot) and `estimate_h_distance` (every domain's
distance from one discriminator forward per block) both read them through
it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data import MultiDomainDataset
from .models import ModelBundle
from .nn import ActivationTrace, LayerGrads, LayerStack, _sigmoid_bce, _softmax_residual
from .simplex import column_importance, project_simplex


@dataclass
class TermResult:
    """A term's value; `grads`, the gradients of the layers the term owns past
    the rows it read; and `dz`, the gradient of those rows, stacked in the
    order read (trunk outputs for V_h and V_lambda, latent rows for V_d).
    A part the caller asked the term to skip is None: the value of any term,
    the grads or dz of `compute_vd`."""
    value: float | None
    grads: LayerGrads | None
    dz: np.ndarray | None


def require_rows(sizes, kind: str) -> None:
    """Refuse a domain's block of no rows, naming the first such domain."""
    empty = np.flatnonzero(np.asarray(sizes) == 0)
    if empty.size:
        raise ValueError(f"{kind} domain {empty[0]} has no rows")


class Segments(NamedTuple):
    """Consecutive segments of the given sizes along an axis, and each one's
    first index and size as a float, worked out once for every mean over
    them. Every segment has rows."""
    sizes: np.ndarray
    starts: np.ndarray
    float_sizes: np.ndarray

    @classmethod
    def of(cls, sizes, kind: str) -> Segments:
        """The segments of blocks of `sizes` rows, an empty one refused as a
        `kind` domain's."""
        sizes = np.asarray(sizes)
        require_rows(sizes, kind)
        return cls(sizes, sizes.cumsum() - sizes, sizes.astype(np.float64))

    def means(self, x: np.ndarray) -> np.ndarray:
        """Means of 0/1 values in the segments along x's last axis: one
        integer count per segment, so exact, over its size.

        Two traps of `np.add.reduceat`. For an empty segment it returns the
        value at the segment's start, not 0; `Segments.of` refuses an empty
        segment. And
        `np.add` on bools is a logical OR, which a `reduceat` without `dtype`
        computes on some NumPy versions, not a count: the counts name theirs."""
        return np.add.reduceat(x, self.starts, axis=-1, dtype=np.int64) / self.float_sizes


@dataclass(frozen=True)
class BlockLayout:
    """The alpha-free layout of latent rows stacked as [O_0, ..., O_{N-1},
    L_0, ..., L_{N-1}]: the originals of each domain, then each labeled
    domain. The layout is its block sizes: the `Segments` the means over its
    blocks read (the 0/1 errors and the decision rates), and V_d's BCE parts
    (the originals' weights and the 0/1 targets), are worked out from them
    when first read, so a layout V_d never reads (the h-distance's, over the
    whole pool) builds none of its (rows, N) arrays; `vd_weights` builds
    V_d's weights at an alpha. Every block has rows."""
    n_orig: np.ndarray  # rows per original domain
    n_lab: np.ndarray   # rows per labeled domain

    @classmethod
    def of(cls, n_orig, n_lab) -> BlockLayout:
        n_orig, n_lab = np.asarray(n_orig), np.asarray(n_lab)
        require_rows(n_orig, "original")
        require_rows(n_lab, "labeled")
        return cls(n_orig, n_lab)

    @cached_property
    def orig_blocks(self) -> Segments:
        return Segments.of(self.n_orig, "original")

    @cached_property
    def lab_blocks(self) -> Segments:
        return Segments.of(self.n_lab, "labeled")

    @cached_property
    def orig_rows(self) -> int:  # the stack's head
        return int(self.n_orig.sum())

    @cached_property
    def orig_w(self) -> np.ndarray:  # 1/|O_i| in an original's own column i, 0 in the others
        return np.repeat(np.diag(1.0 / self.n_orig), self.n_orig, axis=0)

    @cached_property
    def target(self) -> np.ndarray:  # 1 on the originals, 0 on the labeled rows
        n = self.n_orig.size
        return np.repeat([[1.0] * n, [0.0] * n], [self.orig_rows, self.n_lab.sum()], axis=0)

    def vd_weights(self, alpha: np.ndarray) -> np.ndarray:
        """V_d's BCE weight of each (row, logit i) at alpha, (rows, N): 1/|O_i|
        for an original of domain i (0 for the other originals), and
        alpha[i, j]/|L_j| for a row of L_j."""
        return np.concatenate([self.orig_w, np.repeat((alpha / self.n_lab).T, self.n_lab, axis=0)])


@dataclass
class ClassifierPass:
    """One classifier-trunk forward over the labeled domains' stacked latent
    rows, and the logits (K, B, C) of the final layers on its output: the
    shared final layer at 0, then head i's final at 1 + i when the pass
    includes the heads. The final layers are `stack`, the bundle's
    `LayerStack` of them, whose gradient views the terms write."""
    trunk: ActivationTrace  # its output is the trunk output, (B, H)
    logits: np.ndarray
    labels: np.ndarray
    blocks: Segments        # rows per labeled domain
    stack: LayerStack
    _softmax: tuple | None = None

    def softmax(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """`_softmax_residual` of every final layer's logits on the labels,
        and the labels' one-hot rows (B, C): computed for all K stacked
        layers once, on the first request, and read by V_h (layer 0) and
        V_lambda (the heads), neither of which writes into it."""
        if self._softmax is None:
            onehot = self.labels[:, None] == np.arange(self.logits.shape[2])
            self._softmax = (*_softmax_residual(self.logits, onehot), onehot)
        return self._softmax

    def check_current(self) -> None:
        """Refuse a pass once the set that steps its trunk, and with it the
        final layers, stepped: its logits are the old weights'."""
        self.trunk.check_current()

    def errors(self) -> np.ndarray:
        """0/1 error (K, N) of each final layer on each L_j."""
        self.check_current()
        return self.blocks.means(self.logits.argmax(axis=2) != self.labels)

    def backward(self, dhidden: np.ndarray) -> tuple[LayerGrads, np.ndarray]:
        """The trunk's gradients and the latent gradient of the rows the pass
        read, from the summed gradient of the trunk output; the trunk's
        backward refuses a stale pass."""
        return self.trunk.net.backward(self.trunk, dhidden)


def classifier_pass(bundle: ModelBundle, z: np.ndarray, labels: np.ndarray,
                    blocks: Segments, *, heads: bool = True) -> ClassifierPass:
    """Run the classifier trunk once over labeled latent rows `z` (`blocks`,
    their rows per labeled domain) and apply the bundle's `finals` (with
    `heads`, else the shared final layer alone) as one (K, C, H) stack. The
    labels must lie in [0, C) for V_h and V_lambda to read them."""
    sizes = blocks.sizes
    if sizes.sum() != z.shape[0] or labels.shape != (z.shape[0],):
        raise ValueError(f"{z.shape[0]} latent rows with {labels.shape[0]} labels do not fit "
                         f"labeled blocks of {sizes.tolist()} rows")
    trace = bundle.trunk.forward(z)
    stack = bundle.finals if heads else bundle.finals.first(1)
    # final layers are identity-activated: x @ W.T + b, as in DenseNet.forward
    logits = trace.output @ stack.W.transpose(0, 2, 1)
    logits += stack.b[:, None, :]
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite values in classifier logits")
    return ClassifierPass(trace, logits, labels, blocks, stack)


def compute_vh(cls: ClassifierPass, alpha: np.ndarray, *, value: bool = True) -> TermResult:
    """Column-importance-weighted classification loss of the shared classifier:
    sum_j alpha_j * mean_{L_j} CE(h(z), y), via per-sample weights. `grads`
    covers the shared final layer; `dz` the trunk output. Without `value`
    the loss is not computed and reads None."""
    cls.check_current()
    cols = column_importance(alpha)
    sizes = cls.blocks.sizes
    w = (cols / sizes).repeat(sizes)
    wsum = w.sum()
    loss = None  # the weighted mean's, before wsum undoes it
    shifted, denom, residual, onehot = cls.softmax()
    if value:
        ce = np.log(denom[0]) - shifted[0][onehot]
        loss = float((w * ce).sum() / wsum)
    dlogits = np.multiply((w / wsum)[:, None], residual[0])
    dlogits *= wsum
    hidden, final = cls.trunk.output, cls.stack.layers[0]
    dW, db = cls.stack.grads[final]
    grads = {final: (np.matmul(dlogits.T, hidden, out=dW), dlogits.sum(axis=0, out=db))}
    dz = dlogits @ cls.stack.W[0]
    return TermResult(None if loss is None else float(loss * wsum), grads, dz)


def compute_vlambda(cls: ClassifierPass, alpha: np.ndarray, *,
                    value: bool = True) -> TermResult:
    """Domain-specific head loss:
    (1/N) sum_i sum_j alpha[i, j] * mean_{L_j} CE(h_i(z), y), every head's
    logits read from the one pass. `grads` covers the head finals; `dz` the
    trunk output. The heads' gradients are batched over the heads: their
    dW in one stacked product and their db in one row sum, written into the
    pass's `LayerStack`, and `dz` sums the heads' (B, H) products over the
    heads in head order. Without `value` the loss is not computed and reads
    None."""
    cls.check_current()
    n = alpha.shape[0]
    heads = cls.stack.layers[1:]
    if len(heads) != n:
        raise ValueError("V_lambda needs a classifier pass with every head")
    # head i weighs each row of L_j by alpha[i, j] / |L_j|
    sizes = cls.blocks.sizes
    w = (alpha / sizes).repeat(sizes, axis=1)
    wsum = w.sum()
    shifted, denom, residual, onehot = cls.softmax()
    loss = None
    if value:
        # the weighted-mean CE over every head's rows, one after another
        ce = (np.log(denom[1:]).reshape(-1)
              - shifted[1:][np.broadcast_to(onehot, shifted[1:].shape)])
        loss = float((w.reshape(-1) * ce).sum() / wsum)
    dlogits = np.multiply((w / wsum)[..., None], residual[1:])
    dlogits *= wsum / n
    W, dW, db = cls.stack.W[1:], cls.stack.dW[1:], cls.stack.db[1:]
    grads = {h: cls.stack.grads[h] for h in heads}
    np.matmul(dlogits.transpose(0, 2, 1), cls.trunk.output, out=dW)
    dlogits.sum(axis=1, out=db)
    # each head's (B, H) product, then their sum in head order, one at a time
    # into the first: sum(axis=0)'s bits without a second array
    products = dlogits @ W
    dhidden = products[0]
    for i in range(1, n):
        dhidden += products[i]
    return TermResult(None if loss is None else float(loss * wsum / n), grads, dhidden)


@dataclass
class DiscPass:
    """One discriminator forward over the latent rows V_d reads, stacked as
    `layout` says. Column i of the output is D_i(z), the logit that a row is
    an original of domain i."""
    trace: ActivationTrace
    layout: BlockLayout

    def rerun(self) -> DiscPass:
        """The same input rows through the discriminator as it is now, e.g.
        after its update."""
        return DiscPass(self.trace.net.forward(self.trace.acts[0]), self.layout)

    def rates(self, originals: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
        """The pass's `decision_rates`; refused once the discriminator
        changed, since they would be the old weights' decisions."""
        self.trace.check_current()
        return decision_rates(self.trace.output, self.layout, originals=originals)


def decision_rates(logits: np.ndarray, layout: BlockLayout, *,
                   originals: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """How often the discriminator takes rows for original (D_i >= 0), from
    its logits (rows x N) on rows stacked as `layout` says: on each domain's
    originals under its own logit, (N,); on each L_j under each logit i,
    (N, N). With `originals` off the originals' rates are skipped and read
    None."""
    n_o = layout.orig_rows
    lab = layout.lab_blocks.means((logits[n_o:] >= 0.0).T)
    if not originals:
        return None, lab
    return np.diag(layout.orig_blocks.means((logits[:n_o] >= 0.0).T)), lab


def disc_pass(bundle: ModelBundle, z: np.ndarray, layout: BlockLayout) -> DiscPass:
    """Run the discriminator once over the latent rows `z`, stacked as
    `layout` says."""
    if bundle.discriminator is None:
        raise ValueError("V_d needs a discriminator")
    rows = layout.orig_rows + int(layout.n_lab.sum())
    if z.shape[0] != rows:
        raise ValueError(f"{z.shape[0]} latent rows do not fit a layout of {rows}")
    return DiscPass(bundle.discriminator.forward(z), layout)


def compute_vd(disc: DiscPass, alpha: np.ndarray, *, params: bool = True, inputs: bool = True,
               value: bool = True) -> TermResult:
    """Conditional-discriminator loss from one discriminator pass: for each
    original domain i, BCE of D_i against target 1 on the originals of i and
    target 0 on every labeled domain j weighted alpha[i, j]. `grads` covers
    the discriminator; `dz` the original rows, then the labeled rows. A
    caller turns off what it does not read: `params=False` leaves `grads`
    None, `inputs=False` leaves `dz` None, and with both off no backward
    runs; `value=False` leaves the value None; all three off is a ValueError.
    The BCE weights are the layout's `vd_weights` at alpha."""
    backward = params or inputs
    if not (backward or value):
        raise ValueError("compute_vd needs its value, params or inputs")
    lay = disc.layout
    n = lay.n_orig.size
    trace, net = disc.trace, disc.trace.net
    if not backward:
        trace.check_current()
    logits = trace.output
    w = lay.vd_weights(alpha)
    wsum = w.sum()  # the flat weights' sum too: a contiguous array sums alike in any shape
    norm_loss, dlogits = _sigmoid_bce(logits.reshape(-1), lay.target.reshape(-1),
                                      w.reshape(-1), wsum, value=value)
    scale = wsum / (2.0 * n)
    grads = dz = None
    if backward:
        dlogits *= scale
        grads, dz = net.backward(trace, dlogits.reshape(logits.shape), params=params,
                                 inputs=inputs)
    return TermResult(None if norm_loss is None else float(norm_loss * scale), grads, dz)


def alpha_objective_coefficients(cls: ClassifierPass, disc: DiscPass,
                                 lambda_d: float) -> np.ndarray:
    """Linear coefficients (N, N) of the 0/1-error objective in each alpha
    entry, from one classifier pass with every head and one discriminator
    pass over the same labeled rows.

    With the networks frozen the objective is linear in every alpha row:
    coefficient (i, j) collects the shared-classifier 0/1 error on L_j, the
    head-i 0/1 error on L_j, and (negatively) the rate at which the
    discriminator mistakes L_j for original domain i.
    """
    err = cls.errors()
    n = err.shape[1]
    if err.shape[0] != n + 1:
        raise ValueError("the alpha coefficients need a classifier pass with every head")
    err_h, head_err, disc_orig = err[0], err[1:], disc.rates(originals=False)[1]
    return (err_h[None, :] + head_err) / n - lambda_d * disc_orig / (2.0 * n)


def alpha_step(alpha: np.ndarray, coeffs: np.ndarray, lr: float) -> np.ndarray:
    """project_simplex(alpha - lr * coeffs): one projected-gradient step per
    row on the frozen linear objective; a step float64 cannot project is a
    FloatingPointError. Rows must lie on the simplex, as the trainer's do:
    they start uniform and only ever come from this step.

    Exactly, p = proj(a - t c) has c.p <= c.a - |a - p|^2 / t (projection
    theorem): no row's value rises. Computed, with n the width, eps = 2^-53,
    gamma_m = m eps / (1 - m eps) (Higham 2002) and M = 1 + t |c|_inf, each
    entry of p is within E = 3 (n + 2)^2 eps M of the exact one: a - t c
    rounds by 2 eps M, which moves the projection by twice that; its
    threshold, a sum of at most n entries below M less 1 over a count, errs
    by gamma_{n+2} (n M + 1), and by as much again for a misread cut; the
    clip rounds by eps (2 M + 1). For a row within d of the simplex per
    entry (d is the E of the step that made it), the computed c.p exceeds the
    computed c.a by at most |c|_1 (E + 3 d) + 2 gamma_n |c|_inf (1 + n E),
    the last term for the two dot products."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if alpha.shape != coeffs.shape:
        raise ValueError("alpha/coefficient shape mismatch")
    try:
        return project_simplex(alpha - lr * coeffs)
    except ValueError as exc:  # rows past float64's reach, e.g. from a huge lambda_d
        raise FloatingPointError(str(exc)) from exc


def estimate_h_distance(bundle: ModelBundle, orig_z: list[np.ndarray],
                        labeled_z: list[np.ndarray], alpha: np.ndarray) -> np.ndarray:
    """Empirical feature-space distance (N,) between each original domain i
    and its alpha[i]-weighted labeled mixture, from latent rows and one
    discriminator forward per block: 2 * (1 - [originals of i misread as
    mixture + sum_j alpha[i, j] * L_j misread as original of i]), clamped to
    [0, 2]. The sum runs over j in domain order. The blocks' `BlockLayout`
    refuses an empty one."""
    layout = BlockLayout.of([z.shape[0] for z in orig_z], [z.shape[0] for z in labeled_z])
    logits = np.concatenate([bundle.discriminator.predict(z) for z in [*orig_z, *labeled_z]])
    orig_rate, lab_rate = decision_rates(logits, layout)
    # misread originals counted back from the rate: the mean of D_i < 0 to the bit
    err_o = (layout.n_orig - np.rint(orig_rate * layout.n_orig)) / layout.n_orig
    # a running sum over j in domain order; a row's positive entry rules out -0.0
    err_l = np.cumsum(alpha * lab_rate, axis=1)[:, -1]
    return np.clip(2.0 * (1.0 - (err_o + err_l)), 0.0, 2.0)


def evaluate(bundle: ModelBundle, dataset: MultiDomainDataset) -> np.ndarray:
    """Per-domain test accuracy (N,) of argmax h(e(x)); argmax breaks ties
    toward the lowest class index."""
    accs = np.zeros(dataset.n_domains)
    for i in range(dataset.n_domains):
        pred = np.argmax(bundle.readout(bundle.encode(dataset.test_features[i]))[1], axis=1)
        accs[i] = float(np.mean(pred == dataset.test_labels[i]))
    return accs
