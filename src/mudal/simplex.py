"""Similarity-matrix storage, exact Euclidean simplex projection, the exact
integer allocator for the bound's complexity term sum_j alpha_j^2 / beta_j,
and the budget-assignment modes: `cal_optimal` runs that allocator,
`paper_literal` rounds the paper's literal rule."""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """argmin_{w >= 0, sum w = 1} ||w - v||_2 (sort-based, exact) for each row of
    a 2-D array; a 1-D vector is the one-row case."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.size == 0:
        raise ValueError("expected a nonempty 1-D vector or 2-D array of rows")
    if not np.isfinite(v).all():
        raise ValueError("input must be finite")
    rows = v.reshape(-1, v.shape[-1])
    u = np.sort(rows, axis=1)[:, ::-1]
    css = u.cumsum(axis=1) - 1.0
    positive = u - css / np.arange(1, u.shape[1] + 1) > 0
    if not positive.any(axis=1).all():  # only where float64 cannot tell u - 1 from u
        raise ValueError("input too large to project")
    rho = u.shape[1] - 1 - positive[:, ::-1].argmax(axis=1)  # each row's last positive
    tau = css[np.arange(rows.shape[0]), rho] / (rho + 1.0)
    return np.maximum(rows - tau[:, None], 0.0).reshape(v.shape)


def as_alpha(alpha: np.ndarray | "SimilarityMatrix") -> np.ndarray:
    """The float64 array of a similarity matrix or of an array-like."""
    if isinstance(alpha, SimilarityMatrix):
        return alpha.alpha
    return np.asarray(alpha, dtype=np.float64)


def column_importance(alpha: np.ndarray | "SimilarityMatrix") -> np.ndarray:
    """Column means of the similarity matrix: labeled domain j's overall weight.
    The column sums divided by N are `mean(axis=0)` to the bit, in fewer calls."""
    a = as_alpha(alpha)
    return a.sum(axis=0) / a.shape[0]


@dataclass
class SimilarityMatrix:
    """Row-stochastic N x N matrix: row i holds the mixture weights of the
    surrogate for original domain i over the labeled domains."""

    alpha: np.ndarray

    def __post_init__(self) -> None:
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        self.validate()

    @property
    def n(self) -> int:
        return self.alpha.shape[0]

    def validate(self, atol: float = 1e-9) -> None:
        if self.alpha.ndim != 2 or self.alpha.shape[0] != self.alpha.shape[1]:
            raise ValueError(f"alpha must be square (got shape {self.alpha.shape})")
        if not np.all(np.isfinite(self.alpha) & (self.alpha >= -atol)):
            raise ValueError("alpha entries must be finite and nonnegative")
        rows = self.alpha.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > atol):
            raise ValueError(f"alpha rows must sum to 1 (got {rows})")

    def column_importance(self) -> np.ndarray:
        return column_importance(self.alpha)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as f:
            f.write(",".join(f"L{j}" for j in range(self.n)) + "\n")
            for row in self.alpha:
                f.write(",".join(format(x, ".9g") for x in row) + "\n")

    @classmethod
    def from_csv(cls, path) -> "SimilarityMatrix":
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        mat = cls.__new__(cls)
        mat.alpha = np.asarray(raw, dtype=np.float64)
        mat.validate(atol=1e-6)  # text round-trip loses a little precision
        return mat


@dataclass
class BudgetLedger:
    """Bookkeeping for the total budget m0 + R*m and its per-domain split.

    beta(r) is exactly (initial_counts + sum of increments through round r)
    divided by (m0 + r*m), all in integer arithmetic on counts.
    """

    m0: int
    m: int
    initial_counts: np.ndarray
    increments: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.initial_counts = np.asarray(self.initial_counts, dtype=np.int64)
        if self.initial_counts.sum() != self.m0:
            raise ValueError("initial counts must sum to m0")

    def record(self, incr: np.ndarray) -> None:
        incr = np.asarray(incr, dtype=np.int64)
        if incr.shape != self.initial_counts.shape:
            raise ValueError("increment shape mismatch")
        if np.any(incr < 0):
            raise ValueError("increments must be nonnegative")
        if incr.sum() != self.m:
            raise ValueError(f"increments must sum to m={self.m}, got {incr.sum()}")
        self.increments.append(incr)

    def labeled_counts(self, r: int | None = None) -> np.ndarray:
        return np.sum([self.initial_counts, *self.increments[:r]], axis=0)

    def beta(self, r: int | None = None) -> np.ndarray:
        return self.labeled_counts(r) / self.total_budget(r)

    def total_budget(self, r: int | None = None) -> int:
        if r is None:
            r = len(self.increments)
        return self.m0 + r * self.m


def largest_remainder_round(fractions: np.ndarray, m: int) -> np.ndarray:
    """Round nonnegative fractions summing to m (within less than 1) onto
    integers summing to m: floor everything, then hand out the remaining
    units, at most one each, by descending fractional part, ties to the
    lower index."""
    fractions = np.asarray(fractions, dtype=np.float64)
    if np.any(fractions < 0):
        raise ValueError("fractions must be nonnegative")
    if not abs(fractions.sum() - m) < 1.0:  # also refuses nan
        raise ValueError(f"fractions sum to {fractions.sum()}, not within 1 of m={m}")
    floors = np.floor(fractions).astype(np.int64)
    fracpart = fractions - floors
    order = np.lexsort((np.arange(fractions.size), -fracpart))
    floors[order[:m - floors.sum()]] += 1
    return floors


def _round_capped(raw: np.ndarray, m: int, capacities: np.ndarray) -> np.ndarray:
    """Clamp raw desires at 0 and capacity, scale to sum m, round with largest
    remainder, then move any capacity overshoot to the most spare capacity
    in one pass (the caller checks that the capacities hold m)."""
    x = np.minimum(np.maximum(raw, 0.0), capacities.astype(np.float64))
    if x.sum() <= 0:
        # no domain wants budget; spread it by remaining capacity
        x = capacities.astype(np.float64).copy()
    total = x.sum()
    # m / total overflows only when the desires sum to a subnormal; then
    # dividing by the sum first keeps every share finite
    scaled = x * (m / total) if total >= m / np.finfo(np.float64).max else x / total * m
    incr = largest_remainder_round(scaled, m)
    excess = int(np.maximum(incr - capacities, 0).sum())
    incr = np.minimum(incr, capacities)
    spare = capacities - incr
    for j in np.argsort(-spare, kind="stable"):
        if excess == 0:
            break
        give = int(min(spare[j], excess))
        incr[j] += give
        excess -= give
    return incr


def greedy_increments(weights: np.ndarray, counts: np.ndarray, m: int,
                      capacities: np.ndarray) -> np.ndarray:
    """Integer x with 0 <= x <= capacities and sum x = m that minimizes
    sum_j weights_j^2 / (counts_j + x_j), a zero weight's term counting 0;
    the capacities must hold m.

    The objective is separable and convex, so handing out the m units one at
    a time, each where the objective falls most (ties to the lower index), is
    exact (Fox 1966). Domain j's gain from its k-th extra unit,
    w_j^2 / (c (c + 1)) at c = counts_j + k, falls as k grows, so those picks
    are the m largest gains of the (N, m) table, a prefix per domain: one
    stable sort takes them. A gain at or past capacity is -inf, and a zero
    count under a positive weight gains +inf."""
    w2 = np.asarray(weights, dtype=np.float64)[:, None] ** 2
    k = np.arange(m)
    c = np.asarray(counts, dtype=np.float64)[:, None] + k
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.where(w2 > 0, w2 / (c * (c + 1.0)), 0.0)
    gain[k >= np.asarray(capacities)[:, None]] = -np.inf
    # row-major order breaks ties by domain, then by unit
    picks = np.argsort(-gain, axis=None, kind="stable")[:m] // m
    return np.bincount(picks, minlength=w2.shape[0])


def assign_budget(alpha_cols: np.ndarray, ledger: BudgetLedger, round_r: int,
                  capacities: np.ndarray, mode: str,
                  prev_alpha_cols: np.ndarray | None = None) -> np.ndarray:
    """Per-domain increments for query round round_r (>= 1), summing to m
    within the capacities, under one of the experiment's assignment modes.

    cal_optimal minimizes the bound's complexity term: sum_j alpha_cols_j^2
    over the labeled counts after the round (`greedy_increments`).
    paper_literal spends the difference (alpha_cols - prev_alpha_cols) * m
    through a clamp / cap / renormalize / largest-remainder pipeline. Either
    logs a clamp when its raw desires leave [0, capacity]: cal_optimal's are
    the gaps from the counts to alpha_cols * (m0 + r*m).
    """
    if round_r < 1:
        raise ValueError("query rounds start at 1")
    alpha_cols = np.asarray(alpha_cols, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.int64)
    if capacities.sum() < ledger.m:
        raise ValueError(
            f"infeasible budget: only {capacities.sum()} unlabeled points for m={ledger.m}"
        )
    if mode == "cal_optimal":
        counts = ledger.labeled_counts(round_r - 1)
        raw = alpha_cols * ledger.total_budget(round_r) - counts
        incr = greedy_increments(alpha_cols, counts, ledger.m, capacities)
    elif mode == "paper_literal":
        if prev_alpha_cols is None:
            raise ValueError("paper_literal mode needs the previous round's alpha columns")
        raw = (alpha_cols - np.asarray(prev_alpha_cols, dtype=np.float64)) * ledger.m
        incr = _round_capped(raw, ledger.m, capacities)
    else:
        raise ValueError(f"unknown budget mode {mode!r}")
    if np.any(raw < 0) or np.any(raw > capacities):
        log.info("budget round %d: clamping triggered (raw=%s)", round_r, np.round(raw, 3))
    return incr
