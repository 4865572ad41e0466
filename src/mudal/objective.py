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
from .nn import DenseNet, Layer, accumulate_layer_grads, sigmoid_bce, softmax_ce
from .simplex import SimilarityMatrix, column_importance, project_simplex

log = logging.getLogger(__name__)

LayerGrads = dict[Layer, tuple[np.ndarray, np.ndarray]]


@dataclass
class TermResult:
    value: float
    grads: LayerGrads
    extras: dict = field(default_factory=dict)


def _as_alpha(alpha) -> np.ndarray:
    if isinstance(alpha, SimilarityMatrix):
        return alpha.alpha
    return np.asarray(alpha, dtype=np.float64)


def _merge(into: LayerGrads, other: LayerGrads, scale: float = 1.0) -> None:
    for layer, (dw, db) in other.items():
        if layer in into:
            odw, odb = into[layer]
            into[layer] = (odw + scale * dw, odb + scale * db)
        else:
            into[layer] = (scale * dw, scale * db)


def compute_vh(bundle: ModelBundle, labeled_feats: list[np.ndarray],
               labeled_labels: list[np.ndarray], alpha) -> TermResult:
    """Column-importance-weighted classification loss of the shared classifier:
    sum_j alpha_j * mean_{L_j} CE(h(e(x)), y), via per-sample weights."""
    a = _as_alpha(alpha)
    cols = column_importance(a)
    feats, labels, weights, slices = [], [], [], []
    for j in range(bundle.n_domains):
        n_j = labeled_feats[j].shape[0]
        if n_j == 0:
            if cols[j] > 0:
                log.warning("labeled domain %d is empty; its V_h term contributes 0", j)
            continue
        feats.append(labeled_feats[j])
        labels.append(labeled_labels[j])
        weights.append(np.full(n_j, cols[j] / n_j))
        slices.append(j)
    if not feats:
        return TermResult(0.0, {}, {"per_domain_ce": np.zeros(bundle.n_domains)})
    x = np.vstack(feats)
    y = np.concatenate(labels)
    w = np.concatenate(weights)
    wsum = w.sum()

    enc_trace = bundle.encoder.forward(x)
    cls_trace = bundle.classifier.forward(enc_trace.output)
    if wsum <= 0:
        value, dlogits = 0.0, np.zeros_like(cls_trace.output)
        probs = None
    else:
        norm_loss, dlogits, probs = softmax_ce(cls_trace.output, y, 1.0, w)
        value = norm_loss * wsum  # undo the weighted-mean normalization
        dlogits = dlogits * wsum

    grads: LayerGrads = {}
    cls_g = bundle.classifier.backward(cls_trace, dlogits)
    enc_g = bundle.encoder.backward(enc_trace, cls_g.input)
    accumulate_layer_grads(grads, bundle.classifier, cls_g)
    accumulate_layer_grads(grads, bundle.encoder, enc_g)

    per_domain = np.zeros(bundle.n_domains)
    if probs is not None:
        ce = -np.log(np.maximum(probs[np.arange(y.size), y], 1e-300))
        start = 0
        for j, f in zip(slices, feats):
            per_domain[j] = ce[start:start + f.shape[0]].mean()
            start += f.shape[0]
    return TermResult(float(value), grads, {"per_domain_ce": per_domain})


def compute_vd(bundle: ModelBundle, orig_feats: list[np.ndarray],
               labeled_feats: list[np.ndarray], alpha) -> TermResult:
    """Conditional-discriminator loss: for each original domain i, BCE of
    f(e(x), code(i)) against target 1 on originals and target 0 on every
    labeled domain j weighted alpha[i, j]. Returns gradients for the
    discriminator and (separately scaled by the caller) for the encoder."""
    if bundle.discriminator is None:
        raise ValueError("V_d needs a discriminator")
    a = _as_alpha(alpha)
    n = bundle.n_domains

    enc_orig = []
    for i in range(n):
        if orig_feats[i].shape[0] == 0:
            raise ValueError(f"original domain {i} batch is empty")
        enc_orig.append(bundle.encoder.forward(orig_feats[i]))
    enc_lab = [bundle.encoder.forward(labeled_feats[j]) if labeled_feats[j].shape[0] else None
               for j in range(n)]

    blocks, targets, weights = [], [], []
    block_meta = []  # ("orig", i) or ("lab", i, j)
    for i in range(n):
        code = bundle.code(i)
        z_o = enc_orig[i].output
        blocks.append(np.hstack([z_o, np.tile(code, (z_o.shape[0], 1))]))
        targets.append(np.ones(z_o.shape[0]))
        weights.append(np.full(z_o.shape[0], 1.0 / z_o.shape[0]))
        block_meta.append(("orig", i, None))
        for j in range(n):
            if enc_lab[j] is None:
                if a[i, j] > 0:
                    log.warning("labeled domain %d empty; V_d term for pair (%d,%d) skipped", j, i, j)
                continue
            z_l = enc_lab[j].output
            blocks.append(np.hstack([z_l, np.tile(code, (z_l.shape[0], 1))]))
            targets.append(np.zeros(z_l.shape[0]))
            weights.append(np.full(z_l.shape[0], a[i, j] / z_l.shape[0]))
            block_meta.append(("lab", i, j))

    x = np.vstack(blocks)
    t = np.concatenate(targets)
    w = np.concatenate(weights)
    wsum = w.sum()

    disc_trace = bundle.discriminator.forward(x)
    logits = disc_trace.output.reshape(-1)
    norm_loss, dlogits = sigmoid_bce(logits, t, w)
    value = norm_loss * wsum / (2.0 * n)
    dlogits = dlogits * (wsum / (2.0 * n))

    disc_g = bundle.discriminator.backward(disc_trace, dlogits[:, None])
    f_grads: LayerGrads = {}
    accumulate_layer_grads(f_grads, bundle.discriminator, disc_g)

    # route the z-part of the input gradient back through the encoder
    zdim = bundle.latent_dim
    dz_orig = [np.zeros((orig_feats[i].shape[0], zdim)) for i in range(n)]
    dz_lab = [np.zeros((labeled_feats[j].shape[0], zdim)) for j in range(n)]
    start = 0
    for block, meta in zip(blocks, block_meta):
        rows = block.shape[0]
        dz = disc_g.input[start:start + rows, :zdim]
        kind, i, j = meta
        if kind == "orig":
            dz_orig[i] += dz
        else:
            dz_lab[j] += dz
        start += rows
    enc_grads: LayerGrads = {}
    for i in range(n):
        g = bundle.encoder.backward(enc_orig[i], dz_orig[i])
        accumulate_layer_grads(enc_grads, bundle.encoder, g)
    for j in range(n):
        if enc_lab[j] is not None:
            g = bundle.encoder.backward(enc_lab[j], dz_lab[j])
            accumulate_layer_grads(enc_grads, bundle.encoder, g)

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
        accumulate_layer_grads(grads, head, g, scale=1.0 / n)
        dz_all += g.input / n
    value /= n

    start = 0
    for j, sz in zip(present, sizes):
        g = bundle.encoder.backward(enc_traces[j], dz_all[start:start + sz])
        accumulate_layer_grads(grads, bundle.encoder, g)
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
            disc_orig[:, j] = [np.mean(bundle.disc_logits(z, i) >= 0.0) for i in range(n)]
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
