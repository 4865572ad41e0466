"""Instance-level selection: Random, Margin, BADGE (last-layer gradient
embeddings + k-means++ seeding), and the discriminator-score-weighted variant
with a temperature-sharpened softmax. `select` is the one entry point: it
encodes the rows it is given once and returns positions into them, never pool
indices; the harness maps positions to indices and applies the reveals. The
readouts take the latent rows. BADGE and GRADS embeddings stay factored
(`RankOneRows`): k-means++ seeding keeps each row's distance to its nearest
pick from two small GEMVs per pick, takes a pick only when a forward-error
bound proves the exact distances pick the same row, and recomputes them
exactly otherwise, so picks are bit-identical to the direct loop over the
dense rows (`kmeanspp_select`)."""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .models import ModelBundle
from .nn import sigmoid, softmax

STRATEGIES = ("random", "margin", "badge", "grads")

log = logging.getLogger(__name__)


def margin_scores(bundle: ModelBundle, z: np.ndarray) -> np.ndarray:
    """Top-1 minus top-2 predicted probability per latent row (small = uncertain)."""
    probs = softmax(bundle.readout(z)[1])
    part = np.sort(probs, axis=1)
    return part[:, -1] - part[:, -2]


@dataclass(frozen=True)
class RankOneRows:
    """Rows held as their factors: row b is flatten(left[b] outer right[b]),
    times scale[b] when a scale is given. A BADGE embedding is
    (p - onehot) outer h (C and H wide); GRADS scales it by the outlier score,
    a probability. `rows` builds exact dense rows on demand."""

    left: np.ndarray
    right: np.ndarray
    scale: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", np.asarray(self.left, dtype=np.float64))
        object.__setattr__(self, "right", np.asarray(self.right, dtype=np.float64))
        if self.scale is not None:
            object.__setattr__(self, "scale", np.asarray(self.scale, dtype=np.float64))
        if (self.left.ndim != 2 or self.right.ndim != 2
                or self.right.shape[0] != len(self)
                or (self.scale is not None and self.scale.shape != (len(self),))):
            raise ValueError("left (n, C), right (n, H) and scale (n,) must align by row")

    def __len__(self) -> int:
        return self.left.shape[0]

    def rows(self, idx) -> np.ndarray:
        """The dense rows at `idx` (an index array or a slice): the outer
        products, then the scale, each entry rounded as a dense build rounds it."""
        left, right = self.left[idx], self.right[idx]
        out = np.einsum("bc,bz->bcz", left, right).reshape(left.shape[0], -1)
        if self.scale is not None:
            out *= self.scale[idx, None]
        return out

    def dense(self) -> np.ndarray:
        return self.rows(slice(None))


def badge_embeddings(bundle: ModelBundle, z: np.ndarray,
                     temperature: float = 1.0) -> RankOneRows:
    """Last-layer gradient embedding at the predicted pseudo-label,
    (p - onehot(argmax p)) outer h, as its factors: h is the classifier's
    final-layer input on latent rows z and p the temperature softmax of the
    logits."""
    hidden, logits = bundle.readout(z)
    delta = softmax(logits, temperature=temperature)
    delta[np.arange(delta.shape[0]), np.argmax(delta, axis=1)] -= 1.0
    return RankOneRows(delta, hidden)


_EPS = 2.0 ** -53  # unit roundoff
_ETA = 2.0 ** -1074  # subnormal spacing: the most one rounded product loses to underflow
_SAFE = 2.0 ** 960  # squared row norms below this cannot overflow any sum below
_BLOCK = 256  # rows per block of the exact path's dense rows


def _fold_exact(rows: RankOneRows, picks, d2: np.ndarray) -> None:
    """d2 = min(d2, squared distance to each pick), by the direct loop's
    formula sum((x - c)**2) on exact dense rows, a block of rows at a time."""
    centers = rows.rows(np.asarray(picks, dtype=np.int64))
    for s in range(0, d2.size, _BLOCK):
        block = rows.rows(slice(s, s + _BLOCK))
        for c in centers:
            np.minimum(d2[s:s + _BLOCK], np.sum((block - c) ** 2, axis=1),
                       out=d2[s:s + _BLOCK])


def kmeanspp_select(vectors, k: int, seed) -> np.ndarray:
    """k-means++ seeding; the chosen seeds are the selected batch.

    The first pick is seeded-uniform; every next pick is drawn with
    probability proportional to the squared Euclidean distance to the nearest
    pick so far. `vectors` is a `RankOneRows` or a dense (n, D) array, taken
    as the rank-one rows 1 outer row. Returns positions in selection order,
    the same as the direct loop over the dense rows, which recomputes each
    distance as sum((x - c)**2) per pick. A row whose dense form holds a NaN
    or inf is rejected.

    Each pick costs two GEMVs over the factors. Let p_x be the exponent that
    puts row x's largest |left| in [1/2, 1), clipped to [-1021, 1023] so that
    2^-p_x and 2^p_x are exact floats; l_x = left_x 2^-p_x and
    r_x = (right_x 2^p_x) scale_x, so row x is l_x outer r_x, with squared norm
    q_x = |l_x|^2 |r_x|^2. The approximate d2 keeps, over the picks c, the min
    of max(0, q_x + q_c - 2 (l_c . l_x)(r_c . r_x)). With eps = 2^-53,
    eta = 2^-1074 and C, H, D = CH the widths, it differs from the exact d2 of
    row x by at most kappa eps (q_x + max_c q_c) + phi, where
    kappa = 4(C + H + D) + 64 and phi = 16(D + 2) eta. Per distance:
      - a dense entry rounds the product and then the scale, 2 eps relative
        and eta absolute (|scale| <= 1 keeps the first underflow from
        growing): 10.1 eps (q_x + q_c) + eta;
      - l_x outer r_x rounds once (the scale) and underflows: 6.1 eps
        (q_x + q_c) + eta;
      - the direct sum of D squared differences errs by gamma_{D+2} relative
        (gamma_m = m eps / (1 - m eps), Higham 2002) and D eta absolute;
      - the factored arithmetic errs by (2C + 2H + 6) eps (q_x + q_c) +
        (6D + 3) eta: dot products gamma_C and gamma_H, one product, two
        additions, and eta for each product that underflows. The largest
        entry of l_x is at least 2^-53, so an underflow in l_c . l_x is
        negligible beside |l_c| |l_x| and is not multiplied up by a large
        r_c . r_x;
      - clamping at 0 moves toward the exact distance, which is nonnegative,
        and a min over picks moves by at most the largest move of its terms.
    That is about half of kappa and phi; the rest covers the (1 + O(n eps))
    factors, the bound's use of computed q and its own rounding. Summed over
    rows, E = kappa eps (sum q + n max_c q_c) + n phi. A cumsum or sum of n
    nonnegative terms adds gamma_n times its total, so every prefix sum and
    the total are within TE = E + 3 n eps (T + E) of the exact ones (T, the
    approximate total), and u = r T is within UE = TE + 2 eps (T + TE) + eta
    of the exact draw.

    A pick draws r = rng.random() only once TE < T < inf certifies the exact
    total > 0, and takes p from the approximate cumsum. It keeps p only if
    u - cumsum[p - 1] >= M (skipped at p = 0) and cumsum[p] - u > M (skipped
    at p = n - 1, where the direct loop clamps), M = 2 (TE + UE), the 2 for
    the rounding of those differences: the exact cumsum then brackets the
    exact u at p. Otherwise the pick falls back to the exact d2, the direct
    formula folded in over the picks made since the last fallback, and redoes
    the pick with the same r. Where no r is drawn yet, that is the direct
    loop's step: uniform among the unpicked rows if the exact total is 0. If
    some q >= 2^960 (sums could overflow) or some |scale| > 1, every pick
    takes the exact path.
    """
    rows = (vectors if isinstance(vectors, RankOneRows) else
            RankOneRows(np.ones((len(vectors), 1)), vectors))
    n = len(rows)
    if k > n:
        raise ValueError(f"cannot select {k} from {n} vectors")
    # factors column-major, so that each per-row quantity is a pass along n
    ell, r, scale = rows.left.T.copy(), rows.right.T.copy(), rows.scale
    with np.errstate(over="ignore", invalid="ignore"):
        # the largest |entry| of each dense row, rounded as the dense row rounds it
        left_max = np.abs(ell).max(axis=0, initial=0.0)
        # max |r| without an n x H temporary
        peak = left_max * np.maximum(r.max(axis=0, initial=0.0), -r.min(axis=0, initial=0.0))
        if scale is not None:
            peak *= np.abs(scale)
        if not np.isfinite(peak).all():
            bad = np.flatnonzero(~np.isfinite(peak))[0]
            raise ValueError(f"k-means++ input row {bad} holds a NaN or inf")
        if k == 0:
            log.debug("k-means++ over %d rows, k=0: 0 exact fallbacks", n)
            return np.empty(0, dtype=np.int64)
        # l_x = left_x 2^-p_x, r_x = (right_x 2^p_x) scale_x and q_x, as derived above
        p = np.clip(np.frexp(left_max)[1], -1021, 1023)  # 2^-p and 2^p are exact floats
        ell *= np.ldexp(1.0, -p)
        r *= np.ldexp(1.0, p)
        if scale is not None:
            r *= scale
        a = np.einsum("ij,ij->j", ell, ell)
        r[:, a == 0.0] = 0.0  # a zero row stays zero however large its right factor
        sq = a * np.einsum("ij,ij->j", r, r)
    certified = bool(sq.max() < _SAFE) and (scale is None or np.abs(scale).max() <= 1.0)
    width = ell.shape[0] * r.shape[0]
    kappa_eps = (4 * (ell.shape[0] + r.shape[0] + width) + 64) * _EPS
    floor = n * 16 * (width + 2) * _ETA
    sq_sum = float(sq.sum())
    d2, cum = np.empty(n), np.empty(n)

    def fold_approx(c: int) -> None:
        """d2 = min(d2, max(0, the approximate squared distance to row c))."""
        g = ell[:, c] @ ell
        g *= (-2.0 * r[:, c]) @ r
        g += sq
        g += sq[c]
        np.minimum(d2, g, out=d2)
        np.maximum(d2, 0.0, out=d2)

    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    exact, fallbacks = None, 0
    if certified and k > 1:
        d2.fill(np.inf)
        fold_approx(chosen[0])
        q_max = float(sq[chosen[0]])
    while len(chosen) < k:
        draw = pick = None
        if certified:
            np.cumsum(d2, out=cum)
            total = float(cum[-1])
            err = kappa_eps * (sq_sum + n * q_max) + floor
            te = err + 3 * n * _EPS * (total + err)
            if te < total < np.inf:
                draw = rng.random()
                u = draw * total
                ue = te + 2.0 * _EPS * (total + te) + _ETA
                margin = 2.0 * (te + ue)
                at = min(int(np.searchsorted(cum, u, side="right")), n - 1)
                if ((at == 0 or u - float(cum[at - 1]) >= margin)
                        and (at == n - 1 or float(cum[at]) - u > margin)):
                    pick = at
        if pick is None:
            # the exact path: the direct loop's step on exact distances
            fallbacks += 1
            if exact is None:
                exact, folded = np.full(n, np.inf), 0
            _fold_exact(rows, chosen[folded:], exact)
            folded = len(chosen)
            total = exact.sum()
            if draw is None and total <= 0.0:
                # every remaining point duplicates a pick; fall back to uniform
                pick = int(rng.choice(np.setdiff1d(np.arange(n), np.array(chosen))))
            else:
                u = (rng.random() if draw is None else draw) * total
                pick = min(int(np.searchsorted(np.cumsum(exact), u, side="right")), n - 1)
        chosen.append(pick)
        if certified and len(chosen) < k:
            fold_approx(pick)
            q_max = max(q_max, float(sq[pick]))
    log.debug("k-means++ over %d rows, k=%d: %d exact fallbacks", n, k, fallbacks)
    return np.asarray(chosen, dtype=np.int64)


def outlier_scores(bundle: ModelBundle, z: np.ndarray, domain) -> np.ndarray:
    """Discriminator probability that a latent row is original rather than part
    of the labeled mixture for its domain (one index, or one per row)."""
    if bundle.discriminator is None:
        raise ValueError("outlier scores need a discriminator (composite-trained model)")
    return sigmoid(bundle.discriminator.predict(z)[np.arange(z.shape[0]), domain])


def select(strategy: str, bundle: ModelBundle, features: np.ndarray, k: int, *, seed,
           domain: int | np.ndarray, temperature: float) -> np.ndarray:
    """Pick k of the feature rows by strategy name (random | margin | badge |
    grads) and return their positions: random sorted ascending, margin by
    ascending margin with ties to the lower position, BADGE (at T = 1) and
    GRADS (at `temperature`) in k-means++ order.

    ``domain`` is the one domain every row belongs to, or an array with each
    row's domain when one call pools several domains (joint assignment); GRADS
    reads each row's outlier score under that row's domain.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if k < 0 or k > n:
        raise ValueError(f"budget k={k} outside [0, {n}]")
    d = np.asarray(domain)
    if not np.issubdtype(d.dtype, np.integer):
        raise ValueError(f"domain indices must be integers, got {d.dtype}")
    if d.ndim and d.shape != (n,):
        raise ValueError("per-row domains must align with the feature rows")
    if d.size and (d.min() < 0 or d.max() >= bundle.n_domains):
        raise ValueError(f"domain index out of range [0, {bundle.n_domains})")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if strategy == "random":
        return np.sort(np.random.default_rng(seed).choice(n, size=k, replace=False))
    z = bundle.encode(features)
    if strategy == "margin":
        return np.argsort(margin_scores(bundle, z), kind="stable")[:k]
    if strategy == "badge":
        return kmeanspp_select(badge_embeddings(bundle, z), k, seed)
    emb = badge_embeddings(bundle, z, temperature)
    emb = RankOneRows(emb.left, emb.right, outlier_scores(bundle, z, domain))
    return kmeanspp_select(emb, k, seed)
