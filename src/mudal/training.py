"""One training round of the composite minimax game.

Per minibatch, in order: the discriminator ascends the game value (descends
its own BCE), the similarity matrix descends its frozen-net 0/1 objective via
a projected step, and finally encoder, shared classifier, and domain heads
descend the full objective with the discriminator term sign-flipped into the
encoder. Each network runs forward once per minibatch, the discriminator
once before and once after its own update:

1. the encoder, over the originals and the labeled rows stacked;
2. the classifier trunk over the labeled rows, with the shared and head
   final layers as one stack (`classifier_pass`);
3. the discriminator over the originals and the labeled rows stacked, each
   row once, with one logit per domain (`disc_pass`), for its own update;
4. the updated discriminator over the same rows (`DiscPass.rerun`). Its
   decisions and the classifier pass's errors give the alpha coefficients;
   V_d at the new alpha reads the same pass.

V_h and V_lambda read the classifier pass and the trunk runs backward once on
their summed gradient; the latent gradients (the trunk's, and V_d's times
-lambda_d) go back through the encoder once. Each term's layer gradients
cover layers no other term reaches (V_h the shared final layer, V_lambda the
head finals, the trunk backward the trunk, the encoder backward the encoder),
so the step's gradient is their union, and one Adam step of the network
`ParamSet` applies it; the discriminator's `ParamSet` steps on V_d's. Each set
runs one Adam update over its flat parameter vector, and a layer no term
reaches (head finals under `vanilla` and `cal_fa`) keeps its initial weights.
No pass or trace outlives its step. Models are re-initialized at the start of
every round; the similarity matrix restarts uniform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledPool, MultiDomainDataset
from .models import ModelBundle, make_bundle
from .objective import (alpha_objective_coefficients, alpha_step, classifier_pass, compute_vd,
                        compute_vh, compute_vlambda, decision_rates, disc_pass)
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
        if min(self.latent_dim, *self.encoder_hidden, *self.classifier_hidden,
               *self.disc_hidden) < 1:
            raise ValueError("latent_dim and every hidden width must be >= 1")

    @property
    def trains_discriminator(self) -> bool:
        return self.variant in ("cal", "cal_alpha", "cal_fa")

    @property
    def optimizes_alpha(self) -> bool:
        # the variants that optimize alpha are also the ones with the V_lambda term
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


def _split_rows(z: np.ndarray, blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Views of the rows of `z` that belong to each stacked block."""
    return np.split(z, np.cumsum([b.shape[0] for b in blocks])[:-1])


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


def _train_step(bundle, config, batch, alpha, coeff_ema, net_set, disc_set):
    """One minibatch step. Returns the new alpha, the new coefficient EMA and
    (V_h, V_d, V_lambda); every pass and trace lives only as long as the step."""
    orig_feats, lab_feats, lab_labels = batch
    n = bundle.n_domains
    # one encoder pass over the originals (read only by V_d), then the
    # labeled blocks; the discriminator update leaves the encoder as is
    blocks = (orig_feats if config.trains_discriminator else []) + lab_feats
    trace = bundle.encoder.forward(np.vstack(blocks))
    z = _split_rows(trace.output, blocks)
    orig_z, lab_z = z[:-n], z[-n:]
    # one trunk pass over the labeled rows; the head logits only where
    # V_lambda and the alpha readouts read them
    cls = classifier_pass(bundle, lab_z, lab_labels, heads=config.optimizes_alpha)

    v_d_val = 0.0
    if config.trains_discriminator:
        disc = disc_pass(bundle, orig_z, lab_z)
        disc_set.step(compute_vd(disc, alpha).grads, config.lr)
        # the updated discriminator's one pass over the same rows feeds the
        # alpha readouts and then V_d at the new alpha
        disc = disc.rerun()
        if config.optimizes_alpha:
            coeffs = alpha_objective_coefficients(cls, disc, config.lambda_d)
            if coeff_ema is None:
                coeff_ema = coeffs
            else:
                mom = ALPHA_COEFF_MOMENTUM
                coeff_ema = mom * coeff_ema + (1.0 - mom) * coeffs
            alpha = alpha_step(alpha, coeff_ema, config.lr_alpha)
        vd = compute_vd(disc, alpha)
        v_d_val = vd.value

    vh = compute_vh(cls, alpha)
    grads = vh.grads
    dhidden = vh.dz
    v_lambda_val = 0.0
    if config.optimizes_alpha:
        vl = compute_vlambda(cls, alpha)
        grads = grads | vl.grads
        dhidden = dhidden + vl.dz
        v_lambda_val = vl.value
    trunk_g, dz_lab = cls.backward(dhidden)
    dz = np.zeros_like(trace.output)
    dz[trace.output.shape[0] - dz_lab.shape[0]:] = dz_lab
    if config.aligns_encoder:
        # descent on -lambda_d * V_d: the encoder fights the discriminator
        dz -= config.lambda_d * vd.dz
    enc_g, _ = bundle.encoder.backward(trace, dz)
    net_set.step(grads | trunk_g | enc_g, config.lr)
    return alpha, coeff_ema, (vh.value, v_d_val, v_lambda_val)


def _run_epochs(dataset, pool, config, rng, bundle, history) -> np.ndarray:
    n = dataset.n_domains
    alpha = np.full((n, n), 1.0 / n)
    net_set = bundle.net_param_set()
    disc_set = bundle.disc_param_set() if config.trains_discriminator else None
    max_train = max(dataset.train_size(i) for i in range(n))
    steps_per_epoch = max(1, math.ceil(max_train / config.batch_size))
    coeff_ema = None
    for epoch in range(1, config.epochs + 1):
        for _ in range(steps_per_epoch):
            batch = _sample_batches(rng, dataset, pool, config.batch_size)
            alpha, coeff_ema, values = _train_step(bundle, config, batch, alpha, coeff_ema,
                                                   net_set, disc_set)

        orig_feats, lab_feats, _ = batch
        v_h_val, v_d_val, v_lambda_val = values
        t_value = v_h_val - config.lambda_d * v_d_val + v_lambda_val
        disc_acc = np.zeros(n)
        if config.trains_discriminator:
            # half the rate of originals called original plus the alpha-weighted
            # rate of (nonempty) labeled domains called not original
            blocks = orig_feats + lab_feats
            sizes = np.array([f.shape[0] for f in blocks])
            logits = bundle.discriminator.predict(bundle.encode(np.vstack(blocks)))
            orig_rate, lab_rate = decision_rates(logits, sizes[:n], sizes[n:])
            present = sizes[n:] > 0
            disc_acc = 0.5 * (orig_rate + (alpha * (1.0 - lab_rate) * present).sum(axis=1))
        snap = ObjectiveSnapshot(epoch, v_h_val, v_d_val, v_lambda_val, t_value, disc_acc)
        if not snap.finite():
            raise NumericalAbort(
                f"non-finite objective at epoch {epoch}: "
                f"V_h={v_h_val}, V_d={v_d_val}, V_lambda={v_lambda_val}"
            )
        history.append(snap)
    return alpha
