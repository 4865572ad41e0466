"""One training round of the composite minimax game.

Per minibatch, in order: the discriminator ascends the game value (descends
its own BCE), the similarity matrix descends its frozen-net 0/1 objective via
a projected step, and finally encoder, shared classifier, and domain heads
descend the full objective with the discriminator term sign-flipped into the
encoder. Each network runs forward once per minibatch, the discriminator
once before and once after its own update, and no pass runs outside a step:

1. the encoder, over the originals and the labeled rows stacked;
2. the classifier trunk over the labeled rows, with the shared and head
   final layers as one stack (`classifier_pass`);
3. the discriminator over the originals and the labeled rows stacked, each
   row once, with one logit per domain (`disc_pass`), for its own update;
4. the updated discriminator over the same rows (`DiscPass.rerun`). Its
   decisions and the classifier pass's errors give the alpha coefficients;
   V_d at the new alpha reads the same pass, and so does the epoch
   snapshot's discriminator accuracy after the epoch's last step.

`step_grads` is the one home of the network step's gradient: the trainer
steps on it and `mudal gradcheck` checks it against finite differences. In
it, V_h and V_lambda read the classifier pass and the trunk runs backward once
on their summed gradient; the latent gradients (the trunk's, and V_d's times
-lambda_d) go back through the encoder once. Each term's layer gradients
cover layers no other term reaches (V_h the shared final layer, V_lambda the
head finals, the trunk backward the trunk, the encoder backward the encoder),
so the step's gradient is their union, and one Adam step of the bundle's
network `ParamSet` applies it; its discriminator `ParamSet` steps on V_d's.
Each set runs one Adam update over its flat parameter vector, and a layer no
term reaches (head finals under `vanilla` and `cal_fa`) keeps its initial
weights. Models are re-initialized at the start of every round; the
similarity matrix restarts uniform. Every labeled domain has rows:
`train_round` refuses an empty one, naming it, so every block of every batch
has rows.

Each backward computes only what its caller reads:
- the discriminator's update: its layer gradients, not its input gradient;
- V_d at the new alpha: under `cal` and `cal_fa` only its latent gradient
  (no layer gradients), under `cal_alpha` only its value (no backward), and
  only on each epoch's last step, whose value the epoch snapshot reads;
- the classifier trunk: its layer gradients and its input gradient;
- the encoder: its layer gradients, not its input gradient.

What a step asks for on which step. The loss values feed only the epoch
snapshot, which reads the epoch's last step. So V_h, V_lambda and V_d at
the new alpha compute their values on that step alone and return None on
every other; V_d before the discriminator's update never computes one. The
alpha readouts read only the labeled decision rates. Every gradient is the
same on every step.

Every batch of a round has the same block sizes, so `_run_epochs` builds
what depends on them once per round and drops it with the round: each
labeled domain's features and labels, gathered (and their labels checked)
once, and stacked with the train rows for `_batch_sampler`; the
`BlockLayout`, the block sizes each draw takes and the terms read, with the
segments of its blocks that the means over them read. A step's batch is
one matrix in that order, gathered with one index, and each pass reads a
slice of the encoder's output over it.

The minibatches reshuffle each block as the epoch goes through it (random
reshuffling; Bottou 2009, Gurbuzbalaban, Ozdaglar & Parrilo 2021): in each
epoch, one `rng.permuted` call shuffles a block of n rows that a batch
takes k of as many times as the epoch's steps need, n // k steps a
shuffle, and each step takes the next k rows of the current shuffle. So a
step's rows of a block are distinct, and where k divides n, an epoch of
n / k steps visits each row once. The draws are the round generator's only
reads while it trains.

Every pass computes into fresh arrays. A step's pass or trace is refused
(`stale trace`) once its network's `AdamState` stepped, since it would pair
old activations with new weights; the epoch snapshot reads the last step's
pass after the discriminator's update, still current since only the network
set steps after it.

A numerical abort names the phase of the step it arose in.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledPool, MultiDomainDataset
from .models import ModelBundle, make_bundle
from .objective import (BlockLayout, alpha_objective_coefficients, alpha_step, classifier_pass,
                        compute_vd, compute_vh, compute_vlambda, disc_pass, require_rows)
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
        # the chained comparisons refuse nan as well
        if not 0 <= self.lambda_d < math.inf:
            raise ValueError("lambda_d must be nonnegative and finite")
        if not (0 < self.lr < math.inf and 0 < self.lr_alpha < math.inf):
            raise ValueError("learning rates must be positive and finite")
        if not 0 < self.temperature < math.inf:
            raise ValueError("temperature must be positive and finite")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not self.classifier_hidden:
            raise ValueError("classifier_hidden must name at least one trunk width")
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


def _shuffled_takes(rng: np.random.Generator, n: int, k: int, steps: int) -> np.ndarray:
    """(steps, k) rows of arange(n), k distinct ones a step: one
    `rng.permuted` call shuffles arange(n) as many times as the steps use,
    and each shuffle gives n // k steps their next k rows, dropping the
    n % k left over."""
    per = n // k
    shuffles = rng.permuted(np.broadcast_to(np.arange(n), (-(-steps // per), n)), axis=1)
    return shuffles[:, :per * k].reshape(-1, k)[:steps]


def _batch_sampler(dataset: MultiDomainDataset, labeled: list[tuple[np.ndarray, np.ndarray]],
                   layout: BlockLayout, originals: bool,
                   ) -> Callable[[np.random.Generator, int],
                                 Iterator[tuple[np.ndarray, np.ndarray]]]:
    """A round's minibatches: `epoch(rng, steps)` yields `steps` minibatches
    (x, labels). x stacks `layout.n_orig[i]` train rows of each domain i,
    then `layout.n_lab[j]` rows of each labeled domain j as gathered for the
    round, in `BlockLayout` order; `labels` are its labeled rows'. Each
    block's rows are its `_shuffled_takes`, drawn in that order each epoch.
    The train rows are drawn and stacked only when `originals` is set: only
    the discriminator reads them. The rows a draw picks from are stacked
    once, here, and an epoch's draws are made at once, so each step gathers
    x and the labels with one index each."""
    n = dataset.n_domains
    sizes = [dataset.train_size(i) for i in range(n)] + [y.size for _, y in labeled]
    takes = [*layout.n_orig.tolist(), *layout.n_lab.tolist()]
    stacked = range(2 * n) if originals else range(n, 2 * n)
    rows = np.vstack([*(dataset.train_features if originals else []), *(f for f, _ in labeled)])
    labels = np.concatenate([y for _, y in labeled])
    # each stacked block's first row in `rows`, once per row of the batch it gives
    starts = np.cumsum([0] + [sizes[b] for b in stacked])[:-1]
    offsets = np.repeat(starts, [takes[b] for b in stacked])
    n_orig = layout.orig_rows if originals else 0  # the batch's rows before the labeled ones
    lab_start = sum(sizes[:n]) if originals else 0  # and those of `rows`

    def epoch(rng: np.random.Generator, steps: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        idx = np.hstack([_shuffled_takes(rng, sizes[b], takes[b], steps) for b in stacked])
        idx += offsets
        for row in idx:
            yield rows[row], labels[row[n_orig:] - lab_start]
    return epoch


def train_round(dataset: MultiDomainDataset, pool: LabeledPool, config: TrainConfig,
                seed) -> RoundResult:
    """Train freshly initialized networks on the current pool and return the
    trained bundle, the final similarity matrix, and per-epoch objective
    snapshots. A pool with an empty labeled domain is refused."""
    require_rows(pool.counts(), "labeled")
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


def step_grads(config, trace, cls, disc, alpha, *, value=True):
    """The network step's `LayerGrads` of V_h + V_lambda - lambda_d * V_d,
    less the terms the variant lacks, at `alpha` with the discriminator held
    fixed, and (V_h, V_d, V_lambda), None unless `value`: V_d from the
    post-update pass `disc` (0 if None), V_h and V_lambda (0 without heads)
    from the classifier pass `cls`, backward over the encoder `trace`. A
    FloatingPointError leaves naming its phase."""
    phase = "V_d"
    try:
        v_d = v_lambda = 0.0 if value else None
        if disc is not None and (config.aligns_encoder or value):
            # the encoder reads V_d's latent gradient only where it aligns
            vd = compute_vd(disc, alpha, params=False, inputs=config.aligns_encoder, value=value)
            v_d = vd.value
        phase = "V_h"
        vh = compute_vh(cls, alpha, value=value)
        grads, dhidden = vh.grads, vh.dz
        if config.optimizes_alpha:
            phase = "V_lambda"
            vl = compute_vlambda(cls, alpha, value=value)
            grads = grads | vl.grads
            dhidden += vl.dz  # V_h's array, this step's own
            v_lambda = vl.value
        phase = "backward"
        trunk_g, dz_lab = cls.backward(dhidden)
        n_orig = trace.output.shape[0] - dz_lab.shape[0]  # the labeled rows are the tail
        if config.aligns_encoder:
            # descent on -lambda_d * V_d: the encoder fights the discriminator.
            # 0 - x on the originals and dz_lab - x on the labeled rows, written
            # over V_d's latent gradient x, this step's own
            dz = vd.dz
            dz *= config.lambda_d
            np.subtract(0.0, dz[:n_orig], out=dz[:n_orig])
            np.subtract(dz_lab, dz[n_orig:], out=dz[n_orig:])
        else:
            dz = np.zeros(trace.output.shape)
            dz[n_orig:] = dz_lab
        enc_g, _ = trace.net.backward(trace, dz, inputs=False)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{phase}: {exc}") from exc
    return grads | trunk_g | enc_g, (vh.value, v_d, v_lambda)


def _train_step(bundle, config, batch, layout, alpha, coeff_ema, last_step):
    """One minibatch step over a `_batch_sampler` batch in the round's
    `layout`. Returns the new alpha, the new coefficient EMA,
    `step_grads`'s values, computed only on an epoch's `last_step`, the one
    the epoch snapshot reads, and the updated discriminator's pass (None
    without one), still current after the step. A FloatingPointError leaves
    naming the phase it arose in."""
    x, labels = batch
    phase = "encoder forward"
    try:
        # the discriminator update leaves the encoder as is
        trace = bundle.encoder.forward(x)
        z = trace.output
        phase = "classifier forward"
        # one trunk pass over the labeled rows, the tail; the head logits only
        # where V_lambda and the alpha readouts read them
        cls = classifier_pass(bundle, z[-labels.size:], labels, layout.lab_blocks,
                              heads=config.optimizes_alpha)
        disc = None
        if config.trains_discriminator:
            phase = "discriminator update"
            disc = disc_pass(bundle, z, layout)
            bundle.disc_params.step(compute_vd(disc, alpha, inputs=False, value=False).grads,
                                    config.lr)
            # the updated discriminator's one pass over the same rows feeds the
            # alpha readouts and then V_d at the new alpha
            phase = "discriminator forward"
            disc = disc.rerun()
            if config.optimizes_alpha:
                phase = "alpha step"
                coeffs = alpha_objective_coefficients(cls, disc, config.lambda_d)
                mom = ALPHA_COEFF_MOMENTUM
                coeff_ema = coeffs if coeff_ema is None else mom * coeff_ema + (1.0 - mom) * coeffs
                alpha = alpha_step(alpha, coeff_ema, config.lr_alpha)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{phase}: {exc}") from exc
    grads, values = step_grads(config, trace, cls, disc, alpha, value=last_step)
    try:
        bundle.net_params.step(grads, config.lr)
    except FloatingPointError as exc:
        raise FloatingPointError(f"optimizer step: {exc}") from exc
    return alpha, coeff_ema, values, disc


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
    epoch_batches = _batch_sampler(dataset, labeled, layout, config.trains_discriminator)
    max_train = max(dataset.train_size(i) for i in range(n))
    steps_per_epoch = max(1, math.ceil(max_train / config.batch_size))
    coeff_ema = None
    for epoch in range(1, config.epochs + 1):
        try:
            for step, batch in enumerate(epoch_batches(rng, steps_per_epoch), 1):
                alpha, coeff_ema, values, disc = _train_step(
                    bundle, config, batch, layout, alpha, coeff_ema, step == steps_per_epoch)
        except FloatingPointError as exc:
            raise NumericalAbort(f"training diverged at epoch {epoch}: {exc}") from exc
        v_h_val, v_d_val, v_lambda_val = values
        t_value = v_h_val - config.lambda_d * v_d_val + v_lambda_val
        # per domain, half the rate of originals called original plus the
        # alpha-weighted rate of labeled domains called not original
        disc_acc = np.zeros(n)
        if disc is not None:
            orig_rate, lab_rate = disc.rates()
            disc_acc = 0.5 * (orig_rate + (alpha * (1.0 - lab_rate)).sum(axis=1))
        snap = ObjectiveSnapshot(epoch, v_h_val, v_d_val, v_lambda_val, t_value, disc_acc)
        if not snap.finite():
            raise NumericalAbort(
                f"non-finite objective at epoch {epoch}: "
                f"V_h={v_h_val}, V_d={v_d_val}, V_lambda={v_lambda_val}"
            )
        history.append(snap)
    return alpha
