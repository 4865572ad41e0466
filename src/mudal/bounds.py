"""Numerical embodiment of the error-bound theory: the Hoeffding complexity
term, a brute-force verifier that the budget-share simplex minimizes the
complexity ratio exactly at the column-importance vector, composition of the
full empirical bound, and a side-by-side ordering diagnostic across variants."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data import LabeledPool, MultiDomainDataset
from .models import ModelBundle
from .objective import estimate_h_distance, labeled_readouts
from .simplex import SimilarityMatrix, column_importance, project_simplex


@dataclass(frozen=True)
class BoundParams:
    """d is a comparative capacity proxy, not a certified VC dimension."""

    d: float = 1.0
    delta: float = 0.05
    total_labeled: int = 1

    def __post_init__(self) -> None:
        if self.d <= 0:
            raise ValueError("d must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.total_labeled < 1:
            raise ValueError("total labeled count must be >= 1")


@dataclass
class BoundReport:
    weighted_err: float
    hoeffding: float
    mean_hdist: float
    vlambda_proxy: float

    def __post_init__(self) -> None:
        for name in ("weighted_err", "hoeffding", "mean_hdist", "vlambda_proxy"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def total(self) -> float:
        return self.weighted_err + self.hoeffding + self.mean_hdist + self.vlambda_proxy


def complexity_ratio(alpha_cols: np.ndarray, beta: np.ndarray) -> float:
    """sum_j alpha_j^2 / beta_j, with 0/0 terms contributing 0."""
    alpha_cols = np.asarray(alpha_cols, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    bad = (beta == 0) & (alpha_cols > 0)
    if np.any(bad):
        raise ValueError(
            f"beta is zero where alpha is positive (domains {np.nonzero(bad)[0].tolist()}); "
            "the complexity term diverges"
        )
    mask = alpha_cols > 0
    return float(np.sum(alpha_cols[mask] ** 2 / beta[mask]))


def hoeffding_term(alpha_cols: np.ndarray, beta: np.ndarray, params: BoundParams) -> float:
    """2 * sqrt(ratio * (2 d log(2(M+1)) + log(4/delta)) / M)."""
    ratio = complexity_ratio(alpha_cols, beta)
    m = params.total_labeled
    inner = (2.0 * params.d * np.log(2.0 * (m + 1)) + np.log(4.0 / params.delta)) / m
    return float(2.0 * np.sqrt(ratio * inner))


@lru_cache(maxsize=16)
def _simplex_grid(n: int, steps: int) -> np.ndarray:
    """All points of the n-simplex whose coordinates are multiples of 1/steps."""

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first, *rest)

    grid = np.array(list(compositions(steps, n)), dtype=np.float64)
    return grid / steps


def verify_optimal_beta(alpha_cols: np.ndarray, grid_step: float = 0.01
                        ) -> tuple[np.ndarray, float, float]:
    """Check numerically that the complexity ratio over the budget simplex is
    minimized at beta = alpha.

    For N <= 4 this exhaustively evaluates a simplex grid (cells with
    beta_j = 0 while alpha_j > 0 are excluded) and returns
    (grid minimizer, inf-distance to alpha, minimum value). For larger N a
    multi-start projected-gradient descent substitutes for the grid and the
    returned minimizer is the best stationary point found.
    """
    alpha_cols = np.asarray(alpha_cols, dtype=np.float64)
    n = alpha_cols.size
    if grid_step <= 0 or grid_step > 0.5:
        raise ValueError("grid_step must lie in (0, 0.5]")
    steps = int(round(1.0 / grid_step))
    if abs(steps * grid_step - 1.0) > 1e-9:
        raise ValueError("grid_step must evenly divide 1")

    if n <= 4:
        grid = _simplex_grid(n, steps)
        feasible = ~np.any((grid == 0.0) & (alpha_cols > 0)[None, :], axis=1)
        grid = grid[feasible]
        if grid.shape[0] == 0:
            raise ValueError("grid too coarse: no feasible interior point")
        with np.errstate(divide="ignore"):
            inv = np.where(grid > 0, 1.0 / np.where(grid > 0, grid, 1.0), 0.0)
        values = inv @ (alpha_cols ** 2)
        best = int(np.argmin(values))
        beta_star = grid[best]
        return beta_star, float(np.max(np.abs(beta_star - alpha_cols))), float(values[best])

    # large N: multi-start projected gradient on the smooth ratio
    rng = np.random.default_rng(0)
    best_beta, best_val = None, np.inf
    floor = 1e-6
    for start in range(8):
        beta = project_simplex(rng.dirichlet(np.ones(n))) if start else alpha_cols.copy()
        beta = np.maximum(beta, floor)
        beta /= beta.sum()
        for _ in range(500):
            grad = -(alpha_cols ** 2) / beta ** 2
            beta = project_simplex(beta - 0.05 * grad)
            beta = np.maximum(beta, floor)
            beta /= beta.sum()
        val = complexity_ratio(alpha_cols, beta)
        if val < best_val:
            best_beta, best_val = beta, val
    return best_beta, float(np.max(np.abs(best_beta - alpha_cols))), float(best_val)


def empirical_bound(bundle: ModelBundle, dataset: MultiDomainDataset, pool: LabeledPool,
                    alpha, params: BoundParams | None = None) -> BoundReport:
    """Compose the empirical bound from the current model state: the
    importance-weighted 0/1 error on labeled data, the Hoeffding term at the
    pool's realized budget shares, the mean estimated feature distance, and
    the trainable stand-in for the per-domain joint-error floor."""
    a = alpha.alpha if isinstance(alpha, SimilarityMatrix) else np.asarray(alpha, dtype=np.float64)
    n = dataset.n_domains
    cols = column_importance(a)
    counts = pool.counts()
    total = int(counts.sum())
    if params is None:
        params = BoundParams(total_labeled=max(total, 1))
    lab_z = [bundle.encode(pool.labeled_features(j)) for j in range(n)]
    lab_labels = [pool.labels(j) for j in range(n)]

    err_h, head_err, _ = labeled_readouts(bundle, lab_z, lab_labels)
    weighted_err = float(cols @ err_h)

    beta = counts / total if total > 0 else np.zeros(n)
    hoeff = hoeffding_term(cols, beta, params)

    hdist = 0.0
    if bundle.discriminator is not None:
        for i in range(n):
            hdist += estimate_h_distance(bundle, bundle.encode(dataset.train_features[i]),
                                         lab_z, a[i], i)
    mean_hdist = hdist / (2.0 * n)

    proxy = 0.0
    for j in range(n):
        if lab_z[j].shape[0] == 0:
            continue
        for i in range(n):
            if a[i, j] != 0.0:
                proxy += a[i, j] * head_err[i, j]
    vlambda_proxy = proxy / n

    return BoundReport(weighted_err, hoeff, mean_hdist, vlambda_proxy)


def bound_ordering_diag(reports: dict[str, BoundReport]) -> list[dict]:
    """Side-by-side table of bound components per variant, sorted by total.
    Purely diagnostic; per-run stochastic training need not respect the
    idealized ordering of minima."""
    if not reports:
        raise ValueError("no reports to compare")
    rows = []
    for name, rep in reports.items():
        rows.append({
            "variant": name,
            "weighted_err": rep.weighted_err,
            "hoeffding": rep.hoeffding,
            "mean_hdist": rep.mean_hdist,
            "vlambda_proxy": rep.vlambda_proxy,
            "total": rep.total,
        })
    rows.sort(key=lambda r: r["total"])
    return rows
