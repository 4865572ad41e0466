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
Models are re-initialized at the start of every round; the similarity matrix
restarts uniform.

Each backward computes only what its caller reads:
- the discriminator's update: its layer gradients, not its input gradient;
- V_d at the new alpha: under `cal` and `cal_fa` only its latent gradient
  (no layer gradients), under `cal_alpha` only its value (no backward), and
  only on each epoch's last step, whose value the epoch snapshot reads;
- the classifier trunk: its layer gradients and its input gradient;
- the encoder: its layer gradients, not its input gradient.

Every batch of a round has the same block sizes, so `_run_epochs` builds
what depends on them once per round and drops it with the round: each
labeled domain's features and labels, gathered (and their labels checked)
once; the `BlockLayout` of V_d's alpha-free BCE parts and the
segment-membership matrices of the 0/1 errors and decision rates; and the
`_StepBuffers`. A step's batch is one matrix in that order, and each pass
reads a slice of the encoder's output over it.

What lives for the round and what for the step. The `_StepBuffers` live
for the round, and each step writes over the last one's: each network's
activations, its backward's masks and deltas, the classifier's logits, V_h's
and V_lambda's trunk-output gradients, the encoder's output gradient, and
the layer gradients, which go straight into the `ParamSet`s' gradient
buffers. What a step reads of them lives only for the step: the readers of
a pass or trace refuse it once its network stepped (`stale trace`), and
each network steps before the next step writes over its buffers. The
discriminator's passes before and after its update keep separate
activations, because the pass after one step's update is still current
when the next step's pass before the update runs. The rest of a step's
arrays are small and fresh each step (the batch, the losses' weights and
logit gradients, the alpha readouts), and the epoch snapshot and everything
outside training allocate their own.

A numerical abort names the phase of the step it arose in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledPool, MultiDomainDataset
from .models import ModelBundle, make_bundle
from .nn import PassBuffers, ParamSet
from .objective import (BlockLayout, ClassifierBuffers, alpha_objective_coefficients, alpha_step,
                        classifier_pass, compute_vd, compute_vh, compute_vlambda, disc_pass)
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
                    labeled: list[tuple[np.ndarray, np.ndarray]], batch: int,
                    originals: bool) -> tuple[np.ndarray, np.ndarray]:
    """One minibatch (x, labels): x stacks up to `batch` train rows of each
    domain, then up to `batch` rows of each labeled domain as gathered for
    the round, in `BlockLayout` order; `labels` are its labeled rows'. The
    train rows are drawn either way, so the stream does not depend on
    `originals`, but stacked only when it is set: only the discriminator
    reads them."""
    blocks, labels = [], []
    for i in range(dataset.n_domains):
        n = dataset.train_size(i)
        take = rng.choice(n, size=min(batch, n), replace=False)
        if originals:
            blocks.append(dataset.train_features[i][take])
    for feats, y in labeled:
        if y.size:
            take = rng.choice(y.size, size=min(batch, y.size), replace=False)
            feats, y = feats[take], y[take]
        blocks.append(feats)
        labels.append(y)
    return np.vstack(blocks), np.concatenate(labels)


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
    # overflow and invalid values stop the round where they arise
    with np.errstate(over="raise", invalid="raise"):
        alpha = _run_epochs(dataset, pool, config, rng, bundle, history)
    return RoundResult(bundle, SimilarityMatrix(alpha), history)


@dataclass(frozen=True)
class _StepBuffers:
    """The arrays every step of a round writes into, sized by its layout:
    each network's `PassBuffers` (the discriminator's twice, for its passes
    before and after its update), the classifier's `ClassifierBuffers` and
    the encoder's output gradient `dz`. The networks' backwards run one at a
    time, so their passes share one scratch for the arrays that die within
    a backward; layer gradients go to the `ParamSet`s' `grad_views`."""
    encoder: PassBuffers
    dz: np.ndarray
    classifier: ClassifierBuffers
    disc: PassBuffers | None
    disc_rerun: PassBuffers | None

    @classmethod
    def of(cls, bundle: ModelBundle, config: TrainConfig, layout: BlockLayout,
           net_set: ParamSet, disc_set: ParamSet | None) -> _StepBuffers:
        lab = int(layout.n_lab.sum())
        rows = lab + int(layout.n_orig.sum()) * config.trains_discriminator
        grads, scratch = net_set.grad_views(), {}
        disc = rerun = None
        if config.trains_discriminator:
            layers, disc_grads = bundle.discriminator.layers, disc_set.grad_views()
            disc = PassBuffers(layers, rows, disc_grads, scratch, inputs=False)
            # only V_d after the update reads the latent gradient, and only
            # where the encoder aligns
            rerun = PassBuffers(layers, rows, disc_grads, scratch, inputs=config.aligns_encoder)
        return cls(PassBuffers(bundle.encoder.layers, rows, grads, scratch, inputs=False),
                   np.empty((rows, bundle.latent_dim)),
                   ClassifierBuffers.of(bundle, lab, config.optimizes_alpha, grads, scratch),
                   disc, rerun)


def _train_step(bundle, config, batch, layout, buffers, alpha, coeff_ema, net_set, disc_set,
                last_step):
    """One minibatch step over a `_sample_batches` batch in the round's
    `layout`, written into the round's `_StepBuffers`. Returns the new
    alpha, the new coefficient EMA and (V_h, V_d, V_lambda); V_d reads 0
    where nothing reads it, under `cal_alpha` on all but an epoch's
    `last_step`. A FloatingPointError leaves naming the phase it arose in."""
    x, labels = batch
    phase = "encoder forward"
    try:
        # the discriminator update leaves the encoder as is
        trace = bundle.encoder.forward(x, buffers.encoder)
        z = trace.output
        n_orig = z.shape[0] - labels.size
        lab = slice(n_orig, None)  # the labeled rows, the tail
        phase = "classifier forward"
        # one trunk pass over the labeled rows; the head logits only where
        # V_lambda and the alpha readouts read them
        cls = classifier_pass(bundle, z[lab], labels, layout.n_lab,
                              heads=config.optimizes_alpha, member=layout.lab_member,
                              out=buffers.classifier)

        v_d_val = 0.0
        if config.trains_discriminator:
            phase = "discriminator update"
            disc = disc_pass(bundle, z, layout, buffers.disc)
            disc_set.step(compute_vd(disc, alpha, inputs=False).grads, config.lr)
            # the updated discriminator's one pass over the same rows feeds the
            # alpha readouts and then V_d at the new alpha
            phase = "discriminator forward"
            disc = disc.rerun(buffers.disc_rerun)
            if config.optimizes_alpha:
                phase = "alpha step"
                coeffs = alpha_objective_coefficients(cls, disc, config.lambda_d)
                if coeff_ema is None:
                    coeff_ema = coeffs
                else:
                    mom = ALPHA_COEFF_MOMENTUM
                    coeff_ema = mom * coeff_ema + (1.0 - mom) * coeffs
                alpha = alpha_step(alpha, coeff_ema, config.lr_alpha)
            if config.aligns_encoder or last_step:
                phase = "V_d"
                # the encoder reads V_d's latent gradient only where it aligns
                vd = compute_vd(disc, alpha, params=False, inputs=config.aligns_encoder)
                v_d_val = vd.value

        phase = "V_h"
        vh = compute_vh(cls, alpha)
        grads = vh.grads
        dhidden = vh.dz
        v_lambda_val = 0.0
        if config.optimizes_alpha:
            phase = "V_lambda"
            vl = compute_vlambda(cls, alpha)
            grads = grads | vl.grads
            dhidden += vl.dz  # V_h's array, this step's own
            v_lambda_val = vl.value
        phase = "backward"
        trunk_g, dz_lab = cls.backward(dhidden)
        dz = buffers.dz
        dz[:n_orig] = 0.0
        dz[lab] = dz_lab
        if config.aligns_encoder:
            # descent on -lambda_d * V_d: the encoder fights the discriminator
            vd.dz *= config.lambda_d
            dz -= vd.dz
        enc_g, _ = bundle.encoder.backward(trace, dz, inputs=False)
        phase = "optimizer step"
        net_set.step(grads | trunk_g | enc_g, config.lr)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{phase}: {exc}") from exc
    return alpha, coeff_ema, (vh.value, v_d_val, v_lambda_val)


def _disc_accuracy(bundle, x, layout, alpha) -> np.ndarray:
    """Per domain, half the rate of originals called original plus the
    alpha-weighted rate of (nonempty) labeled domains called not original,
    on one batch's stacked rows `x`."""
    try:
        logits = bundle.discriminator.predict(bundle.encode(x))
        orig_rate, lab_rate = layout.rates(logits)
    except FloatingPointError as exc:
        raise FloatingPointError(f"epoch snapshot: {exc}") from exc
    present = layout.n_lab > 0
    return 0.5 * (orig_rate + (alpha * (1.0 - lab_rate) * present).sum(axis=1))


def _run_epochs(dataset, pool, config, rng, bundle, history) -> np.ndarray:
    n = dataset.n_domains
    # every batch of the round has the same blocks: gather each labeled
    # domain once and lay the blocks out once
    labeled = [(pool.labeled_features(j), pool.labels(j)) for j in range(n)]
    # every step's labels are drawn from these, so V_h and V_lambda need not
    # check their range each step
    pool_labels = np.concatenate([labels for _, labels in labeled])
    if np.any((pool_labels < 0) | (pool_labels >= dataset.n_classes)):
        raise ValueError(f"pool labels outside [0, {dataset.n_classes})")
    layout = BlockLayout.of(
        [min(config.batch_size, dataset.train_size(i)) for i in range(n)],
        [min(config.batch_size, labels.size) for _, labels in labeled])
    alpha = np.full((n, n), 1.0 / n)
    net_set = bundle.net_param_set()
    disc_set = bundle.disc_param_set() if config.trains_discriminator else None
    buffers = _StepBuffers.of(bundle, config, layout, net_set, disc_set)
    max_train = max(dataset.train_size(i) for i in range(n))
    steps_per_epoch = max(1, math.ceil(max_train / config.batch_size))
    coeff_ema = None
    for epoch in range(1, config.epochs + 1):
        try:
            for step in range(1, steps_per_epoch + 1):
                batch = _sample_batches(rng, dataset, labeled, config.batch_size,
                                        config.trains_discriminator)
                alpha, coeff_ema, values = _train_step(bundle, config, batch, layout, buffers,
                                                       alpha, coeff_ema, net_set, disc_set,
                                                       step == steps_per_epoch)
            v_h_val, v_d_val, v_lambda_val = values
            t_value = v_h_val - config.lambda_d * v_d_val + v_lambda_val
            disc_acc = (_disc_accuracy(bundle, batch[0], layout, alpha)
                        if config.trains_discriminator else np.zeros(n))
        except FloatingPointError as exc:
            raise NumericalAbort(f"training diverged at epoch {epoch}: {exc}") from exc
        snap = ObjectiveSnapshot(epoch, v_h_val, v_d_val, v_lambda_val, t_value, disc_acc)
        if not snap.finite():
            raise NumericalAbort(
                f"non-finite objective at epoch {epoch}: "
                f"V_h={v_h_val}, V_d={v_d_val}, V_lambda={v_lambda_val}"
            )
        history.append(snap)
    return alpha
