"""The composite training objective: the alpha-weighted classification term,
the conditional-discriminator alignment term, the domain-specific head term,
projected-gradient updates of the similarity matrix, and the empirical
feature-space distance estimator.

All three loss terms return their exact values together with per-layer
gradient dictionaries; the trainer combines them with the appropriate signs.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data import MultiDomainDataset
from .models import ModelBundle
from .nn import DenseNet, LayerGrads, accumulate_layer_grads, sigmoid_bce, softmax_ce
from .simplex import SimilarityMatrix, column_importance, project_simplex

log = logging.getLogger(__name__)


@dataclass
class TermResult:
    value: float
    grads: LayerGrads
    extras: dict = field(default_factory=dict)


def _as_alpha(alpha) -> np.ndarray:
    if isinstance(alpha, SimilarityMatrix):
        return alpha.alpha
    return np.asarray(alpha, dtype=np.float64)


def compute_vh(bundle: ModelBundle, labeled_feats: list[np.ndarray],
               labeled_labels: list[np.ndarray], alpha) -> TermResult:
    """Column-importance-weighted classification loss of the shared classifier:
    sum_j alpha_j * mean_{L_j} CE(h(e(x)), y), via per-sample weights."""
    a = _as_alpha(alpha)
    cols = column_importance(a)
    feats, labels, weights = [], [], []
    for j in range(bundle.n_domains):
        n_j = labeled_feats[j].shape[0]
        if n_j == 0:
            if cols[j] > 0:
                log.warning("labeled domain %d is empty; its V_h term contributes 0", j)
            continue
        feats.append(labeled_feats[j])
        labels.append(labeled_labels[j])
        weights.append(np.full(n_j, cols[j] / n_j))
    if not feats:
        return TermResult(0.0, {})
    x = np.vstack(feats)
    y = np.concatenate(labels)
    w = np.concatenate(weights)
    wsum = w.sum()

    enc_trace = bundle.encoder.forward(x)
    cls_trace = bundle.classifier.forward(enc_trace.output)
    if wsum <= 0:
        value, dlogits = 0.0, np.zeros_like(cls_trace.output)
    else:
        norm_loss, dlogits, _ = softmax_ce(cls_trace.output, y, 1.0, w)
        value = norm_loss * wsum  # undo the weighted-mean normalization
        dlogits = dlogits * wsum

    grads: LayerGrads = {}
    cls_g = bundle.classifier.backward(cls_trace, dlogits)
    enc_g = bundle.encoder.backward(enc_trace, cls_g.input)
    accumulate_layer_grads(grads, cls_g.by_layer(bundle.classifier))
    accumulate_layer_grads(grads, enc_g.by_layer(bundle.encoder))
    return TermResult(float(value), grads)


def compute_vd(bundle: ModelBundle, orig_feats: list[np.ndarray],
               labeled_feats: list[np.ndarray], alpha) -> TermResult:
    """Conditional-discriminator loss: for each original domain i, BCE of
    f(e(x), one-hot(i)) against target 1 on originals and target 0 on every
    labeled domain j weighted alpha[i, j]. Returns gradients for the
    discriminator and (separately scaled by the caller) for the encoder."""
    if bundle.discriminator is None:
        raise ValueError("V_d needs a discriminator")
    a = _as_alpha(alpha)
    n = bundle.n_domains

    n_orig = np.array([f.shape[0] for f in orig_feats])
    n_lab = np.array([f.shape[0] for f in labeled_feats])
    if np.any(n_orig == 0):
        raise ValueError(f"original domain {np.argmin(n_orig)} batch is empty")
    for i, j in zip(*np.nonzero(a > 0)):
        if n_lab[j] == 0:
            log.warning("labeled domain %d empty; V_d term for pair (%d,%d) skipped", j, i, j)
    traces = ([bundle.encoder.forward(f) for f in orig_feats]
              + [bundle.encoder.forward(labeled_feats[j]) for j in np.flatnonzero(n_lab)])
    z = np.concatenate([t.output for t in traces])

    # Block i holds the originals of domain i, then every labeled row, all
    # conditioned on domain i. Row r of z = [originals, labeled] is in block
    # i if it is an original of domain i or labeled; nonzero() lists the
    # blocks in order, each block's rows in z's order.
    orig_owner = np.repeat(np.arange(n), n_orig)
    lab_owner = np.repeat(np.arange(n), n_lab)
    in_block = np.concatenate([orig_owner == np.arange(n)[:, None],
                               np.ones((n, lab_owner.size), dtype=bool)], axis=1)
    dom, src = np.nonzero(in_block)
    # weight of row r in block i: 1/|O_i| for an original, alpha[i, j]/|L_j| for L_j
    weight = np.concatenate([in_block[:, :orig_owner.size] / n_orig[:, None],
                             a[:, lab_owner] / n_lab[lab_owner]], axis=1)
    is_orig = src < orig_owner.size  # the BCE target
    w = weight[dom, src]
    wsum = w.sum()

    disc_trace = bundle.discriminator.forward(bundle.disc_input(z[src], dom))
    logits = disc_trace.output.reshape(-1)
    norm_loss, dlogits = sigmoid_bce(logits, is_orig, w)
    value = norm_loss * wsum / (2.0 * n)
    dlogits = dlogits * (wsum / (2.0 * n))

    disc_g = bundle.discriminator.backward(disc_trace, dlogits[:, None])
    f_grads: LayerGrads = {}
    accumulate_layer_grads(f_grads, disc_g.by_layer(bundle.discriminator))

    # route the z-part of the input gradient back through the encoder: an
    # original row sits in one block, a labeled row in all N, summed in block order
    dz_rows = disc_g.input[:, :bundle.latent_dim]
    dz = np.concatenate([dz_rows[is_orig], dz_rows[~is_orig].reshape(
        n, lab_owner.size, bundle.latent_dim).sum(axis=0)])
    enc_grads: LayerGrads = {}
    start = 0
    for trace in traces:
        rows = trace.output.shape[0]
        g = bundle.encoder.backward(trace, dz[start:start + rows])
        accumulate_layer_grads(enc_grads, g.by_layer(bundle.encoder))
        start += rows

    return TermResult(float(value), f_grads, {"encoder_grads": enc_grads})


def compute_vlambda(bundle: ModelBundle, labeled_feats: list[np.ndarray],
                    labeled_labels: list[np.ndarray], alpha) -> TermResult:
    """Domain-specific head loss:
    (1/N) sum_i sum_j alpha[i, j] * mean_{L_j} CE(h_i(e(x)), y)."""
    a = _as_alpha(alpha)
    n = bundle.n_domains
    present = [j for j in range(n) if labeled_feats[j].shape[0] > 0]
    for j in range(n):
        if labeled_feats[j].shape[0] == 0 and a[:, j].max() > 0:
            log.warning("labeled domain %d is empty; its V_lambda terms contribute 0", j)
    if not present:
        return TermResult(0.0, {}, {})

    enc_traces = {j: bundle.encoder.forward(labeled_feats[j]) for j in present}
    z_all = np.vstack([enc_traces[j].output for j in present])
    y_all = np.concatenate([labeled_labels[j] for j in present])
    sizes = [labeled_feats[j].shape[0] for j in present]

    grads: LayerGrads = {}
    dz_all = np.zeros_like(z_all)
    value = 0.0
    for i in range(n):
        w = np.concatenate([np.full(sz, a[i, j] / sz) for j, sz in zip(present, sizes)])
        wsum = w.sum()
        head = bundle.head_net(i)
        trace = head.forward(z_all)
        if wsum <= 0:
            continue
        norm_loss, dlogits, _ = softmax_ce(trace.output, y_all, 1.0, w)
        value += norm_loss * wsum
        g = head.backward(trace, dlogits * wsum)
        accumulate_layer_grads(grads, g.by_layer(head), scale=1.0 / n)
        dz_all += g.input / n
    value /= n

    start = 0
    for j, sz in zip(present, sizes):
        g = bundle.encoder.backward(enc_traces[j], dz_all[start:start + sz])
        accumulate_layer_grads(grads, g.by_layer(bundle.encoder))
        start += sz
    return TermResult(float(value), grads, {})


def _disc_decisions(bundle: ModelBundle, feats: np.ndarray, domain: int) -> np.ndarray:
    """True where the discriminator calls a sample 'original domain' (threshold 0.5)."""
    z = bundle.encode(feats)
    return bundle.disc_logits(z, domain) >= 0.0


def labeled_readouts(bundle: ModelBundle, labeled_feats: list[np.ndarray],
                     labeled_labels: list[np.ndarray]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frozen networks' 0/1 readouts on the labeled batches.

    Returns err_h (N,), the shared classifier's error on each L_j; head_err
    (N, N), head i's error on L_j; and disc_orig_rate (N, N), how often the
    discriminator takes L_j for original domain i (zero without one). An
    empty L_j reads as error 1 and rate 0. Each L_j is encoded once and run
    through the classifier trunk once; the shared and head final layers then
    read the same trunk output.
    """
    n = bundle.n_domains
    err_h = np.ones(n)
    head_err = np.ones((n, n))
    disc_orig = np.zeros((n, n))
    trunk = bundle.classifier.layers[:-1]
    finals = [bundle.classifier.layers[-1], *bundle.head_finals]
    for j in range(n):
        if labeled_feats[j].shape[0] == 0:
            continue
        z = bundle.encode(labeled_feats[j])
        t = DenseNet(trunk).predict(z) if trunk else z
        # final layers are identity-activated: x @ W.T + b, as in DenseNet.forward
        errs = [float(np.mean(np.argmax(t @ f.W.T + f.b, axis=1) != labeled_labels[j]))
                for f in finals]
        err_h[j], head_err[:, j] = errs[0], errs[1:]
        if bundle.discriminator is not None:
            # L_j under every domain code at once: rows of block i read code i
            logits = bundle.disc_logits(np.concatenate([z] * n),
                                        np.repeat(np.arange(n), z.shape[0]))
            disc_orig[:, j] = np.mean(logits.reshape(n, -1) >= 0.0, axis=1)
    return err_h, head_err, disc_orig


def alpha_objective_coefficients(bundle: ModelBundle, labeled_feats: list[np.ndarray],
                                 labeled_labels: list[np.ndarray],
                                 lambda_d: float = 1.0) -> tuple[np.ndarray, dict]:
    """Linear coefficients of the 0/1-error objective in each alpha entry.

    With the networks frozen the objective is linear in every alpha row:
    coefficient (i, j) collects the shared-classifier 0/1 error on L_j, the
    head-i 0/1 error on L_j, and (negatively) the rate at which the
    discriminator mistakes L_j for original domain i.
    """
    n = bundle.n_domains
    err_h, head_err, disc_orig = labeled_readouts(bundle, labeled_feats, labeled_labels)
    coeffs = (err_h[None, :] + head_err) / n - lambda_d * disc_orig / (2.0 * n)
    diag = {"err_h": err_h, "head_err": head_err, "disc_orig_rate": disc_orig}
    return coeffs, diag


def alpha_step(alpha: np.ndarray, coeffs: np.ndarray, lr: float,
               max_backtracks: int = 30) -> np.ndarray:
    """One projected-gradient step per row on the frozen linear objective,
    with a backtracking halving that never lets a row's value increase."""
    a = _as_alpha(alpha).copy()
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if a.shape != coeffs.shape:
        raise ValueError("alpha/coefficient shape mismatch")
    for i in range(a.shape[0]):
        row, c = a[i], coeffs[i]
        base = float(row @ c)
        step = lr
        candidate = row
        for _ in range(max_backtracks + 1):
            trial = project_simplex(row - step * c)
            if float(trial @ c) <= base + 1e-12:
                candidate = trial
                break
            step *= 0.5
        a[i] = candidate
    return a


def estimate_h_distance(bundle: ModelBundle, orig_feats: np.ndarray,
                        labeled_feats: list[np.ndarray], alpha_row: np.ndarray,
                        domain: int) -> float:
    """Empirical feature-space distance between original domain `domain` and
    its weighted labeled mixture, read off the current discriminator:
    2 * (1 - [originals misread as mixture + weighted mixture misread as original]),
    clamped to [0, 2]."""
    alpha_row = np.asarray(alpha_row, dtype=np.float64)
    if orig_feats.shape[0] == 0:
        raise ValueError("empty original sample set")
    dec_o = _disc_decisions(bundle, orig_feats, domain)
    err_o = float(np.mean(~dec_o))
    err_l = 0.0
    for j, feats in enumerate(labeled_feats):
        if alpha_row[j] == 0.0:
            continue
        if feats.shape[0] == 0:
            raise ValueError(f"empty labeled sample set for domain {j} with positive weight")
        dec_l = _disc_decisions(bundle, feats, domain)
        err_l += alpha_row[j] * float(np.mean(dec_l))
    return float(np.clip(2.0 * (1.0 - (err_o + err_l)), 0.0, 2.0))


def evaluate(bundle: ModelBundle, dataset: MultiDomainDataset) -> tuple[np.ndarray, float]:
    """Per-domain and average test accuracy of argmax h(e(x)); argmax breaks
    ties toward the lowest class index."""
    accs = np.zeros(dataset.n_domains)
    for i in range(dataset.n_domains):
        pred = np.argmax(bundle.class_logits(dataset.test_features[i]), axis=1)
        accs[i] = float(np.mean(pred == dataset.test_labels[i]))
    return accs, float(accs.mean())
