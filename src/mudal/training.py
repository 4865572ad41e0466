"""One training round of the composite minimax game.

Per minibatch, in order: the discriminator ascends the game value (descends
its own BCE), the similarity matrix descends its frozen-net 0/1 objective via
a projected step, and finally encoder, shared classifier, and domain heads
descend the full objective with the discriminator term sign-flipped into the
encoder. Each minibatch block is encoded once; its latent rows serve every
term but V_h. Models are re-initialized at the start of every round; the
similarity matrix restarts uniform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledPool, MultiDomainDataset
from .models import ModelBundle, make_bundle
from .nn import AdamState, accumulate_layer_grads
from .objective import (alpha_objective_coefficients, alpha_step, compute_vd, compute_vh,
                        compute_vlambda, encoder_grads, labeled_readouts)
from .simplex import SimilarityMatrix

VARIANTS = ("cal", "cal_alpha", "cal_fa", "vanilla")
# EMA weight of past alpha coefficients; single minibatches are too noisy
ALPHA_COEFF_MOMENTUM = 0.9


class NumericalAbort(RuntimeError):
    """Raised when a training round produces non-finite losses."""


@dataclass(frozen=True)
class TrainConfig:
    variant: str = "cal"
    lambda_d: float = 1.0
    epochs: int = 30
    batch_size: int = 16
    lr: float = 2e-3
    lr_alpha: float = 0.01
    temperature: float = 0.5
    latent_dim: int = 16
    encoder_hidden: tuple[int, ...] = (32,)
    classifier_hidden: tuple[int, ...] = (32,)
    disc_hidden: tuple[int, ...] = (32, 32)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.lambda_d < 0:
            raise ValueError("lambda_d must be nonnegative")
        if self.lr <= 0 or self.lr_alpha <= 0:
            raise ValueError("learning rates must be positive")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")

    @property
    def trains_discriminator(self) -> bool:
        return self.variant in ("cal", "cal_alpha", "cal_fa")

    @property
    def optimizes_alpha(self) -> bool:
        return self.variant in ("cal", "cal_alpha")

    @property
    def uses_vlambda(self) -> bool:
        return self.variant in ("cal", "cal_alpha")

    @property
    def aligns_encoder(self) -> bool:
        # cal_alpha keeps the feature path frozen for alignment: V_d gradients
        # do not reach the encoder; vanilla has no alignment term at all.
        return self.variant in ("cal", "cal_fa")


@dataclass
class ObjectiveSnapshot:
    epoch: int
    v_h: float
    v_d: float
    v_lambda: float
    t_value: float
    disc_acc: np.ndarray

    def finite(self) -> bool:
        vals = [self.v_h, self.v_d, self.v_lambda, self.t_value]
        return all(math.isfinite(v) for v in vals) and bool(np.all(np.isfinite(self.disc_acc)))


@dataclass
class RoundResult:
    bundle: ModelBundle
    alpha: SimilarityMatrix
    history: list[ObjectiveSnapshot] = field(default_factory=list)


def write_snapshots_csv(history: list[ObjectiveSnapshot], path) -> None:
    n = history[0].disc_acc.size if history else 0
    cols = ["epoch", "V_h", "V_d", "V_lambda", "T"] + [f"disc_acc_{i}" for i in range(n)]
    with open(path, "w", newline="\n") as f:
        f.write(",".join(cols) + "\n")
        for snap in history:
            row = [str(snap.epoch)] + [
                format(v, ".9g")
                for v in (snap.v_h, snap.v_d, snap.v_lambda, snap.t_value, *snap.disc_acc)
            ]
            f.write(",".join(row) + "\n")


def _sample_batches(rng: np.random.Generator, dataset: MultiDomainDataset,
                    pool: LabeledPool, batch: int):
    orig_feats, lab_feats, lab_labels = [], [], []
    for i in range(dataset.n_domains):
        n = dataset.train_size(i)
        take = rng.choice(n, size=min(batch, n), replace=False)
        orig_feats.append(dataset.train_features[i][take])
    for j in range(dataset.n_domains):
        idx = pool.labeled_indices(j)
        if idx.size == 0:
            lab_feats.append(np.empty((0, dataset.feature_dim)))
            lab_labels.append(np.empty(0, dtype=np.int64))
            continue
        take = rng.choice(idx.size, size=min(batch, idx.size), replace=False)
        chosen = idx[take]
        lab_feats.append(dataset.train_features[j][chosen])
        lab_labels.append(dataset.train_labels[j][chosen])
    return orig_feats, lab_feats, lab_labels


def train_round(dataset: MultiDomainDataset, pool: LabeledPool, config: TrainConfig,
                seed) -> RoundResult:
    """Train freshly initialized networks on the current pool and return the
    trained bundle, the final similarity matrix, and per-epoch objective
    snapshots."""
    rng = np.random.default_rng(seed)
    bundle = make_bundle(
        dataset.feature_dim, dataset.n_classes, dataset.n_domains, rng,
        latent_dim=config.latent_dim,
        encoder_hidden=config.encoder_hidden,
        classifier_hidden=config.classifier_hidden,
        disc_hidden=config.disc_hidden,
        with_discriminator=config.trains_discriminator,
    )
    history: list[ObjectiveSnapshot] = []
    try:
        # overflow and invalid values stop the round where they arise
        with np.errstate(over="raise", invalid="raise"):
            alpha = _run_epochs(dataset, pool, config, rng, bundle, history)
    except FloatingPointError as exc:
        raise NumericalAbort(f"training diverged: {exc}") from exc
    return RoundResult(bundle, SimilarityMatrix(alpha), history)


def _run_epochs(dataset, pool, config, rng, bundle, history) -> np.ndarray:
    n = dataset.n_domains
    alpha = np.full((n, n), 1.0 / n)
    net_set = bundle.net_param_set()
    net_state = AdamState.init(net_set.params())
    if config.trains_discriminator:
        disc_set = bundle.disc_param_set()
        disc_state = AdamState.init(disc_set.params())
    max_train = max(dataset.train_size(i) for i in range(n))
    steps_per_epoch = max(1, math.ceil(max_train / config.batch_size))
    coeff_ema = None
    for epoch in range(1, config.epochs + 1):
        last = None
        for _ in range(steps_per_epoch):
            orig_feats, lab_feats, lab_labels = _sample_batches(rng, dataset, pool, config.batch_size)

            if config.trains_discriminator:
                # one encoder trace per block (originals, then labeled), read
                # by V_d, alpha and V_lambda
                traces = [bundle.encoder.forward(f) for f in orig_feats + lab_feats]
                orig_z, lab_z = [t.output for t in traces[:n]], [t.output for t in traces[n:]]
                vd = compute_vd(bundle, orig_z, lab_z, alpha)
                disc_set.step(disc_set.grads_from(vd.grads), disc_state, config.lr)

            if config.optimizes_alpha:
                coeffs, _ = alpha_objective_coefficients(bundle, lab_z, lab_labels,
                                                         config.lambda_d)
                if coeff_ema is None:
                    coeff_ema = coeffs
                else:
                    mom = ALPHA_COEFF_MOMENTUM
                    coeff_ema = mom * coeff_ema + (1.0 - mom) * coeffs
                alpha = alpha_step(alpha, coeff_ema, config.lr_alpha)

            vh = compute_vh(bundle, lab_feats, lab_labels, alpha)
            total = {}
            accumulate_layer_grads(total, vh.grads)
            v_lambda_val = 0.0
            if config.uses_vlambda:
                vl = compute_vlambda(bundle, lab_z, lab_labels, alpha)
                accumulate_layer_grads(total, vl.grads)
                accumulate_layer_grads(total, encoder_grads(bundle, traces[n:], vl.dz))
                v_lambda_val = vl.value
            v_d_val = 0.0
            if config.trains_discriminator:
                vd_now = compute_vd(bundle, orig_z, lab_z, alpha)
                v_d_val = vd_now.value
                if config.aligns_encoder:
                    # descent on -lambda_d * V_d: the encoder fights the discriminator
                    accumulate_layer_grads(total, encoder_grads(bundle, traces, vd_now.dz),
                                           scale=-config.lambda_d)
            net_set.step(net_set.grads_from(total), net_state, config.lr)

            last = (orig_feats, lab_feats, lab_labels, vh.value, v_d_val, v_lambda_val)

        orig_feats, lab_feats, lab_labels, v_h_val, v_d_val, v_lambda_val = last
        t_value = v_h_val - config.lambda_d * v_d_val + v_lambda_val
        disc_acc = np.zeros(n)
        if config.trains_discriminator:
            # half the rate of originals called original plus the alpha-weighted
            # rate of (nonempty) labeled domains called not original
            z = [bundle.encode(f) for f in orig_feats + lab_feats]
            _, _, disc_orig = labeled_readouts(bundle, z[n:], lab_labels)
            ok_orig = np.array([np.mean(bundle.disc_logits(z[i], i) >= 0.0) for i in range(n)])
            present = np.array([f.shape[0] > 0 for f in lab_feats])
            disc_acc = 0.5 * (ok_orig + (alpha * (1.0 - disc_orig) * present).sum(axis=1))
        snap = ObjectiveSnapshot(epoch, v_h_val, v_d_val, v_lambda_val, t_value, disc_acc)
        if not snap.finite():
            raise NumericalAbort(
                f"non-finite objective at epoch {epoch}: "
                f"V_h={v_h_val}, V_d={v_d_val}, V_lambda={v_lambda_val}"
            )
        history.append(snap)
    return alpha
