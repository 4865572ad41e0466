"""Instance-level selection: Random, Margin, BADGE (last-layer gradient
embeddings + k-means++ seeding), and the discriminator-score-weighted variant
with a temperature-sharpened softmax. Strategies never touch the pool; they
return indices and the harness applies the reveals. Each `select_*` entry point
encodes its request's rows once; the readouts take the latent rows. k-means++
seeding skips the distance updates that the triangle inequality rules out
(Elkan 2003), with picks bit-identical to updating every row (`kmeanspp_select`)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelBundle
from .nn import DenseNet, sigmoid, softmax

STRATEGIES = ("random", "margin", "badge", "grads")


@dataclass(frozen=True)
class QueryRequest:
    """A selection request: pick k of the given unlabeled indices.

    ``features`` holds the feature rows aligned with ``unlabeled``. ``domain``
    is the one domain every row belongs to, or an array with each row's
    domain when one request pools several domains (joint assignment); GRADS
    reads each row's outlier score under that row's domain.
    """

    domain: int | np.ndarray
    k: int
    unlabeled: np.ndarray
    features: np.ndarray
    bundle: ModelBundle
    seed: object = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "unlabeled", np.asarray(self.unlabeled, dtype=np.int64))
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        if self.k < 0 or self.k > self.unlabeled.size:
            raise ValueError(f"budget k={self.k} outside [0, {self.unlabeled.size}]")
        if self.features.shape[0] != self.unlabeled.size:
            raise ValueError("features must align with unlabeled indices")
        d = np.asarray(self.domain)
        if not np.issubdtype(d.dtype, np.integer):
            raise ValueError(f"domain indices must be integers, got {d.dtype}")
        if d.ndim and d.shape != self.unlabeled.shape:
            raise ValueError("per-row domains must align with unlabeled indices")
        if d.size and (d.min() < 0 or d.max() >= self.bundle.n_domains):
            raise ValueError(f"domain index out of range [0, {self.bundle.n_domains})")


def select_random(req: QueryRequest) -> np.ndarray:
    """Uniform without replacement, sorted ascending."""
    if req.k == 0:
        return np.empty(0, dtype=np.int64)
    rng = np.random.default_rng(req.seed)
    chosen = rng.choice(req.unlabeled, size=req.k, replace=False)
    return np.sort(chosen)


def _classifier_readout(bundle: ModelBundle, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The classifier's final-layer input on latent rows, and its final logits."""
    *trunk, final = bundle.classifier.layers
    hidden = DenseNet(trunk).predict(z) if trunk else z
    return hidden, hidden @ final.W.T + final.b


def margin_scores(bundle: ModelBundle, z: np.ndarray) -> np.ndarray:
    """Top-1 minus top-2 predicted probability per latent row (small = uncertain)."""
    probs = softmax(_classifier_readout(bundle, z)[1])
    part = np.sort(probs, axis=1)
    return part[:, -1] - part[:, -2]


def select_margin(req: QueryRequest) -> np.ndarray:
    """The k smallest margins, ties broken by ascending index."""
    if req.k == 0:
        return np.empty(0, dtype=np.int64)
    margins = margin_scores(req.bundle, req.bundle.encode(req.features))
    order = np.lexsort((req.unlabeled, margins))
    return req.unlabeled[order[:req.k]]


def badge_embeddings(bundle: ModelBundle, z: np.ndarray,
                     temperature: float = 1.0) -> np.ndarray:
    """Last-layer gradient embedding at the predicted pseudo-label:
    flatten((p - onehot(argmax p)) outer h) with h the classifier's final-layer
    input on latent rows z; p is the temperature softmax of the logits."""
    hidden, logits = _classifier_readout(bundle, z)
    del z  # free the latent rows before the embedding: held, they raised peak RSS ~1 MiB
    probs = softmax(logits, temperature=temperature)
    pseudo = np.argmax(probs, axis=1)
    delta = probs.copy()
    delta[np.arange(delta.shape[0]), pseudo] -= 1.0
    emb = np.einsum("bc,bz->bcz", delta, hidden)
    return emb.reshape(hidden.shape[0], -1)


def _sq_dists(vectors, rows, center, buf, out) -> np.ndarray:
    """Squared distances from ``center`` to ``vectors[rows]`` into ``out``,
    gathered a block of ``buf``'s rows at a time; each row sums its D entries."""
    for s in range(0, rows.size, buf.shape[0]):
        block = rows[s:s + buf.shape[0]]
        b = np.take(vectors, block, axis=0, out=buf[:block.size])
        np.sum(np.square(np.subtract(b, center, out=b), out=b), axis=1, out=out[s:s + block.size])
    return out[:rows.size]


def kmeanspp_select(vectors: np.ndarray, k: int, seed) -> np.ndarray:
    """k-means++ seeding; the chosen seeds are the selected batch.

    First pick is seeded-uniform; every next pick is drawn with probability
    proportional to squared Euclidean distance to the nearest pick so far.
    Returns positions into ``vectors`` in selection order; a non-finite row
    is rejected. A row x whose d2 was set by pick o keeps it under pick c when
    ||c_o - c|| >= 2 ||x - c_o||, so only rows with ||c_o - c||^2 / 4 (1 - 1e-9)
    < d2, or d2 < 1e-250, are recomputed. Each term has relative roundoff of
    about D eps, so the slack keeps a skipped row's computed distance >= d2 for
    D below ~1e6; the floor covers underflow. The norm bound | ||x|| - ||c|| |
    is not used: its subtraction cancels, and the absolute error could skip a row.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    if k > n:
        raise ValueError(f"cannot select {k} from {n} vectors")
    if vectors.size and not np.isfinite([vectors.min(), vectors.max()]).all():
        bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))[0]
        raise ValueError(f"k-means++ input row {bad} holds a NaN or inf")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    buf, new = np.empty((min(n, 256), vectors.shape[1])), np.empty(n)
    d2 = _sq_dists(vectors, np.arange(n), vectors[chosen[0]], buf, np.empty(n))
    owner = np.zeros(n, dtype=np.int64)  # the pick that set each row's d2
    while len(chosen) < k:
        total = d2.sum()
        if total <= 0.0:
            # every remaining point duplicates a pick; fall back to uniform
            remaining = np.setdiff1d(np.arange(n), np.array(chosen))
            pick = int(rng.choice(remaining))
        else:
            u = rng.random() * total
            pick = int(np.searchsorted(np.cumsum(d2), u, side="right"))
            pick = min(pick, n - 1)
        cc2 = np.sum((vectors[chosen] - vectors[pick]) ** 2, axis=1)
        chosen.append(pick)
        rows = np.flatnonzero((cc2[owner] * (0.25 * (1.0 - 1e-9)) < d2) | (d2 < 1e-250))
        dist = _sq_dists(vectors, rows, vectors[pick], buf, new)
        closer = dist < d2[rows]
        d2[rows[closer]] = dist[closer]
        owner[rows[closer]] = len(chosen) - 1
    return np.asarray(chosen, dtype=np.int64)


def select_badge(req: QueryRequest) -> np.ndarray:
    """BADGE: k-means++ seeds over gradient embeddings at the T = 1 softmax, in
    selection order."""
    if req.k == 0:
        return np.empty(0, dtype=np.int64)
    emb = badge_embeddings(req.bundle, req.bundle.encode(req.features))
    positions = kmeanspp_select(emb, req.k, req.seed)
    return req.unlabeled[positions]


def outlier_scores(bundle: ModelBundle, z: np.ndarray, domain) -> np.ndarray:
    """Discriminator probability that a latent row is original rather than part
    of the labeled mixture for its domain (one index, or one per row)."""
    if bundle.discriminator is None:
        raise ValueError("outlier scores need a discriminator (composite-trained model)")
    return sigmoid(bundle.discriminator.predict(z)[np.arange(z.shape[0]), domain])


def grads_select(req: QueryRequest, temperature: float) -> np.ndarray:
    """Gradient embeddings at the given temperature, each scaled by the
    sample's outlier score, then k-means++ selection."""
    if req.bundle.discriminator is None:
        raise ValueError("this strategy requires a discriminator-bearing model")
    if req.k == 0:
        return np.empty(0, dtype=np.int64)
    z = req.bundle.encode(req.features)
    emb = badge_embeddings(req.bundle, z, temperature=temperature)
    scores = outlier_scores(req.bundle, z, req.domain)
    emb *= scores[:, None]
    positions = kmeanspp_select(emb, req.k, req.seed)
    return req.unlabeled[positions]


def select(strategy: str, req: QueryRequest, temperature: float) -> np.ndarray:
    """Dispatch by strategy name: random | margin | badge | grads; only grads
    reads the temperature."""
    if strategy == "random":
        return select_random(req)
    if strategy == "margin":
        return select_margin(req)
    if strategy == "badge":
        return select_badge(req)
    if strategy == "grads":
        return grads_select(req, temperature=temperature)
    raise ValueError(f"unknown strategy {strategy!r}")
