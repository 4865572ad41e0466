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
parts of both passes (block sizes, segment-membership matrices, V_d's BCE
weights and targets) form the `BlockLayout`, built once per round.

A pass writes into the buffers its caller gives (`disc_pass`'s
`PassBuffers`, `classifier_pass`'s `ClassifierBuffers`), and so do the terms
and backwards that read it; without them every array is fresh. The readers
of a pass refuse it once its layers changed (`stale trace`). The terms call
the unchecked cores of `softmax_ce` and `sigmoid_bce`: a `BlockLayout`
checks V_d's targets once, and a classifier pass's labels must lie in
[0, C).

`decision_rates` is the one home of the discriminator's 0/1 decision rates:
`DiscPass.rates` (the alpha coefficients and the epoch snapshot) and
`estimate_h_distance` (every domain's distance from one discriminator
forward per block) both read them through it.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .data import MultiDomainDataset
from .models import ModelBundle
from .nn import (ActivationTrace, DenseNet, Layer, LayerGrads, PassBuffers, _sigmoid_bce,
                 _softmax_ce)
from .simplex import as_alpha, column_importance, project_simplex

log = logging.getLogger(__name__)


@dataclass
class TermResult:
    """A term's value; `grads`, the gradients of the layers the term owns past
    the rows it read; and `dz`, the gradient of those rows, stacked in the
    order read (trunk outputs for V_h and V_lambda, latent rows for V_d).
    A part the caller asked `compute_vd` to skip is None."""
    value: float
    grads: LayerGrads | None
    dz: np.ndarray | None


def segment_member(sizes: np.ndarray) -> np.ndarray:
    """The boolean matrix (rows, segments) of which consecutive segment of
    the given sizes each row belongs to."""
    return np.repeat(np.arange(sizes.size), sizes)[:, None] == np.arange(sizes.size)


def _segment_means(x: np.ndarray, sizes: np.ndarray,
                   member: np.ndarray | None = None) -> np.ndarray:
    """Means of 0/1 values in consecutive segments of the given sizes along
    x's last axis, through `member`, the sizes' `segment_member` matrix
    (built here if not given; a float64 copy spares the cast); an empty
    segment reads 0. The sums count 0/1 values, so they are exact in any
    order and either matrix gives the same bits."""
    if member is None:
        member = segment_member(sizes)
    return x.astype(np.float64) @ member / np.maximum(sizes, 1)


@dataclass(frozen=True)
class BlockLayout:
    """The alpha-free layout of latent rows stacked as [O_0, ..., O_{N-1},
    L_0, ..., L_{N-1}]: the originals of each domain, then each labeled
    domain. It holds the block sizes, their `segment_member` matrices as
    float64 (read by the 0/1 errors and the decision rates) and V_d's BCE
    parts: the originals' weights, each labeled row's domain and the
    targets. It depends on the sizes alone, so a trainer whose batches keep
    their sizes builds it once per round."""
    n_orig: np.ndarray  # rows per original domain
    n_lab: np.ndarray   # rows per labeled domain
    orig_member: np.ndarray
    lab_member: np.ndarray
    orig_w: np.ndarray
    lab_owner: np.ndarray
    target: np.ndarray

    @classmethod
    def of(cls, n_orig, n_lab) -> BlockLayout:
        n_orig, n_lab = np.asarray(n_orig), np.asarray(n_lab)
        if np.any(n_orig == 0):
            raise ValueError(f"original domain {np.argmin(n_orig)} batch is empty")
        n = n_orig.size
        owner = np.repeat(np.arange(n), n_orig)
        target = np.repeat([1.0, 0.0], [n_orig.sum(), n_lab.sum()])[:, None] * np.ones(n)
        return cls(n_orig, n_lab, segment_member(n_orig).astype(np.float64),
                   segment_member(n_lab).astype(np.float64),
                   np.eye(n)[owner] / n_orig[owner, None], np.repeat(np.arange(n), n_lab),
                   target)

    def __post_init__(self) -> None:
        if np.any((self.target != 0.0) & (self.target != 1.0)):
            raise ValueError("V_d's targets must be 0 or 1")

    def rates(self, logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`decision_rates` of the logits of rows in this layout."""
        return decision_rates(logits, self.n_orig, self.n_lab,
                              (self.orig_member, self.lab_member))


@dataclass(frozen=True)
class ClassifierBuffers:
    """The arrays a classifier pass over B labeled rows, V_h and V_lambda on
    it, and the trunk backward write into: the trunk's `PassBuffers`, the
    logits (K, B, C), the final layers' (dW, db) arrays in `grads`, V_h's
    and V_lambda's trunk-output gradients (B, H), the one head's product
    (B, H) that V_lambda adds to its sum at a time, and its labels once per
    head (N, B). A part that is None is allocated fresh, as all are for
    `FRESH`."""
    trunk: PassBuffers | None = None
    logits: np.ndarray | None = None
    grads: LayerGrads = field(default_factory=dict)
    vh_dz: np.ndarray | None = None
    vl_dz: np.ndarray | None = None
    head_product: np.ndarray | None = None
    head_labels: np.ndarray | None = None

    @classmethod
    def of(cls, bundle: ModelBundle, rows: int, heads: bool, grads: LayerGrads,
           scratch: dict) -> ClassifierBuffers:
        """Buffers for passes over `rows` labeled rows (with every head if
        `heads`) whose layer gradients go to `grads`, e.g. a `ParamSet`'s
        `grad_views`; the trunk's `PassBuffers` take their backward's
        arrays from `scratch`."""
        trunk = bundle.classifier.layers[:-1]
        hidden = bundle.classifier.layers[-1].in_dim
        n, k = bundle.n_domains, 1 + bundle.n_domains * heads
        return cls(PassBuffers(trunk, rows, grads, scratch) if trunk else None,
                   np.empty((k, rows, bundle.classifier.output_dim)), grads,
                   np.empty((rows, hidden)), np.empty((rows, hidden)) if heads else None,
                   np.empty((rows, hidden)) if heads else None,
                   np.empty((n, rows), dtype=np.int64) if heads else None)


FRESH = ClassifierBuffers()


@dataclass
class ClassifierPass:
    """One classifier-trunk forward over the labeled domains' stacked latent
    rows, and the logits (K, B, C) of the final layers on its output: the
    shared final layer at 0, then head i's final at 1 + i when the pass
    includes the heads. Its arrays, and those of the terms that read it,
    are `out`'s where it has them."""
    trunk: ActivationTrace | None  # None when the classifier has no trunk
    hidden: np.ndarray             # the trunk output, (B, H)
    finals: list[Layer]
    versions: tuple[int, ...]      # of `finals`, at the forward pass
    logits: np.ndarray
    labels: np.ndarray
    sizes: np.ndarray              # rows per labeled domain
    member: np.ndarray | None      # the sizes' `segment_member`, if the caller has it
    out: ClassifierBuffers = FRESH

    def check_current(self) -> None:
        """Refuse a pass whose layers changed since it ran: a later pass may
        have written over its buffers."""
        if tuple(f.version for f in self.finals) != self.versions:
            raise ValueError("stale trace: final layers changed since classifier_pass()")
        if self.trunk is not None:
            self.trunk.check_current(self.trunk.net)

    def errors(self) -> np.ndarray:
        """0/1 error (K, N) of each final layer on each L_j; an empty L_j
        reads 1."""
        self.check_current()
        err = _segment_means(np.argmax(self.logits, axis=2) != self.labels, self.sizes,
                             self.member)
        err[:, self.sizes == 0] = 1.0
        return err

    def backward(self, dhidden: np.ndarray) -> tuple[LayerGrads, np.ndarray]:
        """The trunk's gradients and the latent gradient of the rows the pass
        read, from the summed gradient of the trunk output."""
        self.check_current()
        if self.trunk is None:
            return {}, dhidden
        return self.trunk.net.backward(self.trunk, dhidden)


def classifier_pass(bundle: ModelBundle, z: np.ndarray, labels: np.ndarray, sizes, *,
                    heads: bool = True, member: np.ndarray | None = None,
                    out: ClassifierBuffers = FRESH) -> ClassifierPass:
    """Run the classifier trunk once over labeled latent rows `z` (`sizes`
    rows per labeled domain) and apply the shared final layer (and, with
    `heads`, every head final) as one (K, C, H) stack. `member`, e.g. a
    `BlockLayout`'s `lab_member`, spares building the sizes' matrix. The
    labels must lie in [0, C) for V_h and V_lambda to read them."""
    sizes = np.asarray(sizes)
    if sizes.sum() != z.shape[0] or labels.shape != (z.shape[0],):
        raise ValueError(f"{z.shape[0]} latent rows with {labels.shape[0]} labels do not fit "
                         f"labeled blocks of {sizes.tolist()} rows")
    trunk = bundle.classifier.layers[:-1]
    trace = DenseNet(trunk).forward(z, out.trunk) if trunk else None
    hidden = z if trace is None else trace.output
    finals = [bundle.classifier.layers[-1], *(bundle.head_finals if heads else [])]
    # final layers are identity-activated: x @ W.T + b, as in DenseNet.forward
    logits = np.matmul(hidden, np.stack([f.W for f in finals]).transpose(0, 2, 1),
                       out=out.logits)
    logits += np.stack([f.b for f in finals])[:, None, :]
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite values in classifier logits")
    return ClassifierPass(trace, hidden, finals, tuple(f.version for f in finals), logits,
                          labels, sizes, member, out)


def compute_vh(cls: ClassifierPass, alpha) -> TermResult:
    """Column-importance-weighted classification loss of the shared classifier:
    sum_j alpha_j * mean_{L_j} CE(h(z), y), via per-sample weights. `grads`
    covers the shared final layer; `dz` the trunk output."""
    cls.check_current()
    cols = column_importance(alpha)
    for j in np.nonzero((cls.sizes == 0) & (cols > 0))[0]:
        log.warning("labeled domain %d is empty; its V_h term contributes 0", j)
    w = np.repeat(cols / np.maximum(cls.sizes, 1), cls.sizes)
    wsum = w.sum()
    if wsum <= 0:
        value, dlogits = 0.0, np.zeros_like(cls.logits[0])
    else:
        norm_loss, dlogits = _softmax_ce(cls.logits[0], cls.labels, w)
        value = norm_loss * wsum  # undo the weighted-mean normalization
        dlogits = dlogits * wsum
    final = cls.finals[0]
    dW, db = cls.out.grads.get(final, (None, None))
    grads = {final: (np.matmul(dlogits.T, cls.hidden, out=dW), dlogits.sum(axis=0, out=db))}
    return TermResult(float(value), grads, np.matmul(dlogits, final.W, out=cls.out.vh_dz))


def compute_vlambda(cls: ClassifierPass, alpha) -> TermResult:
    """Domain-specific head loss:
    (1/N) sum_i sum_j alpha[i, j] * mean_{L_j} CE(h_i(z), y), every head's
    logits read from the one pass. `grads` covers the head finals; `dz` the
    trunk output."""
    cls.check_current()
    a = as_alpha(alpha)
    n = a.shape[0]
    heads = cls.finals[1:]
    if len(heads) != n:
        raise ValueError("V_lambda needs a classifier pass with every head")
    for j in np.nonzero((cls.sizes == 0) & (a.max(axis=0) > 0))[0]:
        log.warning("labeled domain %d is empty; its V_lambda terms contribute 0", j)
    # head i weighs each row of L_j by alpha[i, j] / |L_j|
    w = np.repeat(a / np.maximum(cls.sizes, 1), cls.sizes, axis=1)
    wsum = w.sum()
    if wsum <= 0:
        return TermResult(0.0, {}, np.zeros_like(cls.hidden))
    logits = cls.logits[1:]
    out = cls.out
    labels = out.head_labels
    if labels is None:
        labels = np.empty((n, cls.labels.size), np.int64)
    labels[...] = cls.labels  # np.tile(cls.labels, n), one row per head
    norm_loss, dlogits = _softmax_ce(logits.reshape(-1, logits.shape[2]), labels.reshape(-1),
                                     w.reshape(-1))
    dlogits = dlogits.reshape(logits.shape) * (wsum / n)
    grads = {}
    for i, h in enumerate(heads):
        dW, db = out.grads.get(h, (None, None))
        grads[h] = (np.matmul(dlogits[i].T, cls.hidden, out=dW), dlogits[i].sum(axis=0, out=db))
    # the heads' trunk-output gradients, summed in head order one product at a time
    dhidden = np.matmul(dlogits[0], heads[0].W, out=out.vl_dz)
    for i in range(1, n):
        dhidden += np.matmul(dlogits[i], heads[i].W, out=out.head_product)
    return TermResult(float(norm_loss * wsum / n), grads, dhidden)


@dataclass
class DiscPass:
    """One discriminator forward over the latent rows V_d reads, stacked as
    `layout` says. Column i of the output is D_i(z), the logit that a row is
    an original of domain i."""
    trace: ActivationTrace
    layout: BlockLayout

    def rerun(self, out: PassBuffers | None = None) -> DiscPass:
        """The same input rows through the discriminator as it is now, e.g.
        after its update, written into `out` (fresh arrays if None). A
        trainer gives it other buffers than the pass before the update: the
        pass after one step's update is still current when the next step's
        pass before the update runs."""
        return replace(self, trace=self.trace.net.forward(self.trace.acts[0], out))

    def rates(self) -> tuple[np.ndarray, np.ndarray]:
        """The pass's `decision_rates`; refused once the discriminator
        changed, since a later pass may have written over its buffers."""
        self.trace.check_current(self.trace.net)
        return self.layout.rates(self.trace.output)


def decision_rates(logits: np.ndarray, n_orig: np.ndarray, n_lab: np.ndarray,
                   members: tuple[np.ndarray, np.ndarray] | None = None,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """How often the discriminator takes rows for original (D_i >= 0), from
    its logits (rows x N) on rows stacked as [O_0, ..., O_{N-1}, L_0, ...,
    L_{N-1}]: on each domain's originals under its own logit, (N,); on each
    L_j under each logit i, (N, N). An empty block reads 0. `members`, the
    two sizes' `segment_member` matrices, spares building them."""
    decided = (logits >= 0.0).T
    n_o = n_orig.sum()
    orig_m, lab_m = (None, None) if members is None else members
    orig = _segment_means(decided[:, :n_o], n_orig, orig_m)
    return np.diag(orig), _segment_means(decided[:, n_o:], n_lab, lab_m)


def disc_pass(bundle: ModelBundle, z: np.ndarray, layout: BlockLayout,
              out: PassBuffers | None = None) -> DiscPass:
    """Run the discriminator once over the latent rows `z`, stacked as
    `layout` says, written into `out` (fresh arrays if None)."""
    if bundle.discriminator is None:
        raise ValueError("V_d needs a discriminator")
    rows = layout.n_orig.sum() + layout.n_lab.sum()
    if z.shape[0] != rows:
        raise ValueError(f"{z.shape[0]} latent rows do not fit a layout of {rows}")
    return DiscPass(bundle.discriminator.forward(z, out), layout)


def compute_vd(disc: DiscPass, alpha, *, params: bool = True, inputs: bool = True) -> TermResult:
    """Conditional-discriminator loss from one discriminator pass: for each
    original domain i, BCE of D_i against target 1 on the originals of i and
    target 0 on every labeled domain j weighted alpha[i, j]. `grads` covers
    the discriminator; `dz` the original rows, then the labeled rows. A
    caller turns off what it does not read: `params=False` leaves `grads`
    None, `inputs=False` leaves `dz` None, and with both off no backward
    runs."""
    a = as_alpha(alpha)
    lay = disc.layout
    n = lay.n_orig.size
    for i, j in zip(*np.nonzero((a > 0) & (lay.n_lab == 0))):
        log.warning("labeled domain %d empty; V_d term for pair (%d,%d) skipped", j, i, j)
    # BCE weight of each (row, logit i): 1/|O_i| for an original of domain i
    # (0 for the other originals), alpha[i, j]/|L_j| for a row of L_j
    w = np.concatenate([lay.orig_w, a[:, lay.lab_owner].T / lay.n_lab[lay.lab_owner, None]])
    wsum = w.sum()
    logits = disc.trace.output

    norm_loss, dlogits = _sigmoid_bce(logits.reshape(-1), lay.target.reshape(-1),
                                      w.reshape(-1))
    scale = wsum / (2.0 * n)
    net = disc.trace.net
    if params or inputs:
        grads, dz = net.backward(disc.trace, dlogits.reshape(logits.shape) * scale,
                                 params=params, inputs=inputs)
    else:
        disc.trace.check_current(net)
        grads = dz = None
    return TermResult(float(norm_loss * scale), grads, dz)


def alpha_objective_coefficients(cls: ClassifierPass, disc: DiscPass,
                                 lambda_d: float) -> np.ndarray:
    """Linear coefficients (N, N) of the 0/1-error objective in each alpha
    entry, from one classifier pass with every head and one discriminator
    pass over the same labeled rows.

    With the networks frozen the objective is linear in every alpha row:
    coefficient (i, j) collects the shared-classifier 0/1 error on L_j, the
    head-i 0/1 error on L_j, and (negatively) the rate at which the
    discriminator mistakes L_j for original domain i. An empty L_j reads as
    error 1 and rate 0.
    """
    err = cls.errors()
    n = err.shape[1]
    if err.shape[0] != n + 1:
        raise ValueError("the alpha coefficients need a classifier pass with every head")
    err_h, head_err, disc_orig = err[0], err[1:], disc.rates()[1]
    return (err_h[None, :] + head_err) / n - lambda_d * disc_orig / (2.0 * n)


# halvings of the alpha step before a row that still would rise keeps its value
ALPHA_MAX_BACKTRACKS = 30


def alpha_step(alpha: np.ndarray, coeffs: np.ndarray, lr: float) -> np.ndarray:
    """One projected-gradient step per row on the frozen linear objective,
    with a backtracking halving that never lets a row's value increase. The
    rows step together; only those that would rise halve and project again."""
    a = as_alpha(alpha).copy()
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if a.shape != coeffs.shape:
        raise ValueError("alpha/coefficient shape mismatch")
    # a stacked matmul takes each row's 1-D dot product a[i] @ coeffs[i], to the bit
    base = (a[:, None, :] @ coeffs[:, :, None]).ravel()
    rows = np.arange(a.shape[0])  # rows whose step is not yet accepted
    for k in range(ALPHA_MAX_BACKTRACKS + 1):
        trial = project_simplex(a[rows] - lr * 0.5 ** k * coeffs[rows])
        ok = (trial[:, None, :] @ coeffs[rows, :, None]).ravel() <= base[rows] + 1e-12
        a[rows[ok]] = trial[ok]
        rows = rows[~ok]
        if rows.size == 0:
            break
    return a


def estimate_h_distance(bundle: ModelBundle, orig_z: list[np.ndarray],
                        labeled_z: list[np.ndarray], alpha) -> np.ndarray:
    """Empirical feature-space distance (N,) between each original domain i
    and its alpha[i]-weighted labeled mixture, from latent rows and one
    discriminator forward per nonempty block: 2 * (1 - [originals of i
    misread as mixture + sum_j alpha[i, j] * L_j misread as original of i]),
    clamped to [0, 2]. The sum runs over j in domain order."""
    a = as_alpha(alpha)
    n_orig = np.array([z.shape[0] for z in orig_z])
    n_lab = np.array([z.shape[0] for z in labeled_z])
    if np.any(n_orig == 0):
        raise ValueError(f"original domain {np.argmin(n_orig)} sample set is empty")
    empty = np.nonzero((n_lab == 0) & np.any(a != 0.0, axis=0))[0]
    if empty.size:
        raise ValueError(f"empty labeled sample set for domain {empty[0]} with positive weight")
    logits = np.concatenate([bundle.discriminator.predict(z)
                             for z in [*orig_z, *labeled_z] if z.shape[0]])
    orig_rate, lab_rate = decision_rates(logits, n_orig, n_lab)
    # misread originals counted back from the rate: the mean of D_i < 0 to the bit
    err_o = (n_orig - np.rint(orig_rate * n_orig)) / n_orig
    err_l = np.zeros(a.shape[0])
    for j in range(a.shape[1]):
        err_l += a[:, j] * lab_rate[:, j]
    return np.clip(2.0 * (1.0 - (err_o + err_l)), 0.0, 2.0)


def evaluate(bundle: ModelBundle, dataset: MultiDomainDataset) -> tuple[np.ndarray, float]:
    """Per-domain and average test accuracy of argmax h(e(x)); argmax breaks
    ties toward the lowest class index."""
    accs = np.zeros(dataset.n_domains)
    for i in range(dataset.n_domains):
        pred = np.argmax(bundle.class_logits(dataset.test_features[i]), axis=1)
        accs[i] = float(np.mean(pred == dataset.test_labels[i]))
    return accs, float(accs.mean())
