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
segments of its blocks that the means over them read; the plan of the
round's draws (`_BlockDraws`); and the bundle's `Workspace` every step
writes into (`ModelBundle.workspace`). A step's batch is one matrix in that
order, gathered with one index, and each pass reads a slice of the
encoder's output over it.

The minibatches are the picks of `rng.choice(size, size=take,
replace=False)` for each block in `BlockLayout` order, step after step, to
the bit, and the round's generator reads nothing else while it trains. So
the steps' draws are one run of bounded draws, each the one
`rng.integers` makes for a bound: `_BlockDraws` makes those of a piece of
an epoch's steps with one `rng.integers` call over the calls' bounds, in
their order, and maps them to the same picks.

What lives for the round and what for the step. The workspace lives for
the round, and each step writes over the last one's arrays of each role:
"encoder" (its activations), "trunk" (the classifier pass, its logits, V_h's
trunk-output gradient and V_lambda's head products), "disc" and
"disc_rerun" (the discriminator's passes before and after its update, kept
apart because the pass after one step's update is still current when the
next step's pass before the update runs) and "vd" (V_d's weights, sigmoid
and logit gradient). The backwards' masks and deltas are shared by every
role, and the layer gradients go straight into the bundle's `ParamSet`s'
gradient buffers. Where the encoder aligns, its output gradient is written
over V_d's latent gradient; elsewhere it is the "encoder" role's. What a
step reads of the workspace lives only for the step: the readers of a pass
or trace refuse it once its network's `AdamState` stepped (`stale trace`),
as each does before the next step writes its role again. The rest of a
step's arrays are small and fresh each step (the batch, the classifier
pass's softmax, V_h's and V_lambda's row weights and logit gradients, the
alpha readouts). The epoch snapshot reads the last step's pass after the
discriminator's update once the step is done, still current since only the
network set steps after it; everything outside training allocates its own.
The index of a piece of the epoch's steps lives until the epoch's last step
has its batch; the draws and the temporaries that map them to it live only
while it is drawn.

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


# the steps drawn at once keep each array they allocate (a 4-byte value per
# draw, an 8-byte one per pick or swap) under 128 KiB, so a long epoch's draws
# and their temporaries take a bounded amount of memory, not one that grows
# with the epoch's steps
_PIECE_BYTES = (1 << 17) - 1


class _BlockDraws:
    """`draws(rng, out)` writes into a C-contiguous `out` (steps, width), for
    each step, the picks of `rng.choice(n, size=k, replace=False)` for each
    block (n, k) of `blocks` in turn, those of the blocks in `used` side by
    side. The picks are the calls' bit for bit, and the generator is left
    where the calls leave it; the other blocks' draws are made and dropped.
    At most `piece` steps are drawn at once.

    How a call draws k of n: Floyd's algorithm (Bentley & Floyd 1987) takes,
    for t = 0 .. k-1, a draw v_t in [0, j] at j = n - k + t and picks v_t,
    or j where v_t was picked before; a Fisher-Yates pass then swaps
    position i with a draw r_i in [0, i], for i = k-1 .. 1. Each draw is
    NumPy's bounded draw, the one `rng.integers(0, bounds, endpoint=True)`
    makes for each of an array of bounds in turn, as int32 or int64 alike:
    Lemire's multiply-shift (Lemire 2019) on a 32-bit word where the bound
    is under 2^32, retried where it rejects the word, and no read where the
    bound is 0. So one such call over the bounds of a piece's calls, in
    their order, makes the calls' draws, for any bit generator.

    Floyd's picks are resolved for all (step, block) lanes at once: v_t is
    taken unless an earlier v of its lane equals it, or it is the j of an
    earlier t' = v_t - n + k whose v was not taken; so it is taken where the
    v at the end of that chain of links is, which pointer jumping finds. The
    swaps run one position at a time, over every lane at once.

    The calls themselves run where a call would not take Floyd's picks (it
    shuffles the tail of arange(n) for n > 10,000 and k > n // 50) and for
    blocks of 2^31 rows or more in all, where a bound would not fit the
    int32 draws or a sort key int64."""

    def __init__(self, blocks: list[tuple[int, int]], used):
        self.blocks, self.used = blocks, list(used)
        self.batched = (sum(n for n, _ in blocks) < 1 << 31
                        and not any(n > 10_000 and k > n // 50 for n, k in blocks))
        # each draw's bound, Floyd's j then the swaps' i block by block; per
        # column of a used block, the draw of its t; per used block, its k,
        # its first column and its offset among the lanes' values; per swap
        # of a used block, for i = k-1 .. 1, i, the draw of r_i and the
        # block's first column
        bounds, f_col, lanes, swaps = [], [], [], []
        col = key = start = 0
        for b, (n, k) in enumerate(blocks):
            bounds += [np.arange(n - k, n), np.arange(k - 1, 0, -1)]
            if b in self.used:
                f_col.append(start + np.arange(k))
                lanes.append((k, col, key))
                i = np.arange(k - 1, 0, -1)
                swaps.append(np.stack([i, start + 2 * k - 1 - i, np.full(k - 1, col)]))
                col, key = col + k, key + n
            start += 2 * k - 1
        self.bounds = np.concatenate(bounds)
        self.f_col = np.concatenate(f_col)
        self.f_j = self.bounds[self.f_col]
        self.k, self.first, self.key = np.array(lanes).T
        # the swaps position by position, from the last: every lane's i, then i - 1
        swaps = np.concatenate(swaps, axis=1)
        order = np.argsort(-swaps[0], kind="stable")
        self.s_col, self.s_base = swaps[1:, order]
        self.s_count = np.bincount(swaps[0])[:0:-1]  # the swaps of each i, from the last
        self.ends = np.cumsum(self.s_count).tolist()
        self.width, self.values = col, key
        self.piece = max(1, _PIECE_BYTES // max(4 * self.bounds.size, 8 * self.width,
                                                8 * self.s_col.size))

    def __call__(self, rng: np.random.Generator, out: np.ndarray) -> None:
        if not self.batched:
            for step in out:
                picks = [rng.choice(n, size=k, replace=False) for n, k in self.blocks]
                step[:] = np.concatenate([picks[b] for b in self.used])
            return
        steps = out.shape[0]
        draws = rng.integers(0, self.bounds, (steps, self.bounds.size), np.int32, endpoint=True)
        out[...] = draws[:, self.f_col]
        # each swap's r_i and i, flat in the picks, (swap, step)
        rows = np.arange(0, out.size, self.width)  # each step's first pick
        swap_i = np.repeat(np.arange(self.s_count.size, 0, -1), self.s_count)
        r = draws.T[self.s_col] + (self.s_base[:, None] + rows)
        at = (self.s_base + swap_i)[:, None] + rows
        del draws
        t = np.arange(self.width) - np.repeat(self.first, self.k)
        self._floyd(out, self.f_j, t, np.repeat(self.key, self.k))
        picks = out.reshape(-1)
        start = 0
        for end in self.ends:
            i, r_i = at[start:end], r[start:end]
            swapped = picks[r_i]
            picks[r_i] = picks[i]
            picks[i] = swapped
            start = end

    def _floyd(self, v, j, t, key):
        """Floyd's picks, in place of each column's draws v (steps, width),
        given each column's j, t and its block's offset among the values."""
        steps, width = v.shape
        size = v.size
        shift = size.bit_length()
        # one key per draw, by step, lane and value (the steps' lanes are
        # apart by the values a step's lanes take), then by its index: sorted,
        # a key whose step, lane and value are the last one's is a repeat
        keys = v << shift
        keys += np.add.outer(np.arange(steps) * ((self.values << shift) + width),
                             (key << shift) + np.arange(width))
        keys = keys.reshape(-1)
        keys.sort()
        group = keys >> shift
        keys &= (1 << shift) - 1
        repeat = np.zeros(size, bool)
        repeat[keys[1:]] = group[1:] == group[:-1]
        del keys, group
        # a v that is no repeat and the j of an earlier t: -t <= v - j < 0
        back = v - j
        linked = np.flatnonzero(~repeat & ((back < 0) & (back >= -t)).reshape(-1))
        ptr = np.arange(size)
        ptr[linked] += back.reshape(-1)[linked]
        del back
        live = linked  # jumps double until each link reaches its chain's first v
        while live.size:
            ptr[live] = nxt = ptr[ptr[live]]
            live = live[ptr[nxt] != nxt]
        # a linked v is taken where its chain's first v is
        repeat[linked] = repeat[ptr[linked]]
        np.copyto(v, j, where=repeat.reshape(steps, width))


def _batch_sampler(dataset: MultiDomainDataset, labeled: list[tuple[np.ndarray, np.ndarray]],
                   layout: BlockLayout, originals: bool,
                   ) -> Callable[[np.random.Generator, int],
                                 Iterator[tuple[np.ndarray, np.ndarray]]]:
    """A round's minibatches: `epoch(rng, steps)` yields `steps` minibatches
    (x, labels). x stacks `layout.n_orig[i]` train rows of each domain i,
    then `layout.n_lab[j]` rows of each labeled domain j as gathered for the
    round, in `BlockLayout` order, each block's rows those of
    `rng.choice(size, size=take, replace=False)` for the blocks in that
    order, step after step, bit for bit (`_BlockDraws`); `labels` are its
    labeled rows'. The train rows are drawn either way, so the stream does
    not depend on `originals`, but stacked only when it is set: only the
    discriminator reads them. The rows a draw picks from are stacked once,
    here, and the draws of whole steps are made at once, so each step
    gathers x and the labels with one index each."""
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
    draws = _BlockDraws(list(zip(sizes, takes)), stacked)

    def epoch(rng: np.random.Generator, steps: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        # allocated before the draws' temporaries, which it outlives
        idx = np.empty((min(draws.piece, steps), offsets.size), np.int64)
        for first in range(0, steps, draws.piece):
            piece = idx[:min(draws.piece, steps - first)]
            draws(rng, piece)
            piece += offsets
            for row in piece:
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
    from the classifier pass `cls`, backward over the encoder `trace`, all
    written into the trace's workspace. A FloatingPointError leaves naming
    its phase."""
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
            dz = trace.ws.array("encoder", "output_grad", trace.output.shape)
            dz[:n_orig] = 0.0
            dz[n_orig:] = dz_lab
        enc_g, _ = trace.net.backward(trace, dz, inputs=False)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{phase}: {exc}") from exc
    return grads | trunk_g | enc_g, (vh.value, v_d, v_lambda)


def _train_step(bundle, config, batch, layout, ws, alpha, coeff_ema, last_step):
    """One minibatch step over a `_batch_sampler` batch in the round's
    `layout`, written into the round's `Workspace`. Returns the new
    alpha, the new coefficient EMA, `step_grads`'s values, computed only
    on an epoch's `last_step`, the one the epoch snapshot reads, and the
    updated discriminator's pass (None without one), still current after
    the step. A FloatingPointError leaves naming the phase it arose in."""
    x, labels = batch
    phase = "encoder forward"
    try:
        # the discriminator update leaves the encoder as is
        trace = bundle.encoder.forward(x, ws, "encoder")
        z = trace.output
        phase = "classifier forward"
        # one trunk pass over the labeled rows, the tail; the head logits only
        # where V_lambda and the alpha readouts read them
        cls = classifier_pass(bundle, z[-labels.size:], labels, layout.lab_blocks,
                              heads=config.optimizes_alpha, ws=ws)
        disc = None
        if config.trains_discriminator:
            phase = "discriminator update"
            disc = disc_pass(bundle, z, layout, ws)
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
    ws = bundle.workspace()
    epoch_batches = _batch_sampler(dataset, labeled, layout, config.trains_discriminator)
    max_train = max(dataset.train_size(i) for i in range(n))
    steps_per_epoch = max(1, math.ceil(max_train / config.batch_size))
    coeff_ema = None
    for epoch in range(1, config.epochs + 1):
        try:
            for step, batch in enumerate(epoch_batches(rng, steps_per_epoch), 1):
                alpha, coeff_ema, values, disc = _train_step(
                    bundle, config, batch, layout, ws, alpha, coeff_ema, step == steps_per_epoch)
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
