"""Numerical embodiment of the error-bound theory: the Hoeffding complexity
term at a fixed capacity proxy d and confidence delta, an exact check that the
complexity ratio's minimizer over a grid of budget shares sits at the
column-importance vector, and composition of the full empirical bound from the
model state and the budget ledger's realized shares."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelBundle
from .objective import classifier_pass, estimate_h_distance
from .simplex import BudgetLedger, as_alpha, column_importance, greedy_increments

# The Hoeffding term's d, a comparative capacity proxy rather than a certified
# VC dimension, and its confidence delta.
BOUND_D = 1.0
BOUND_DELTA = 0.05


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


def hoeffding_term(alpha_cols: np.ndarray, beta: np.ndarray, m: int) -> float:
    """2 * sqrt(ratio * (2 d log(2(M+1)) + log(4/delta)) / M) over M = m labels."""
    if m < 1:
        raise ValueError("total labeled count must be >= 1")
    ratio = complexity_ratio(alpha_cols, beta)
    inner = (2.0 * BOUND_D * np.log(2.0 * (m + 1)) + np.log(4.0 / BOUND_DELTA)) / m
    return float(2.0 * np.sqrt(ratio * inner))


MIN_GRID_STEP = 0.01  # grid steps accepted: [MIN_GRID_STEP, 0.5], each dividing 1 evenly


def grid_steps(grid_step: float) -> int:
    """1 / grid_step, for a step in [MIN_GRID_STEP, 0.5] that evenly divides 1."""
    if not MIN_GRID_STEP <= grid_step <= 0.5:  # also refuses nan
        raise ValueError(f"grid_step must lie in [{MIN_GRID_STEP}, 0.5], got {grid_step}")
    steps = int(round(1.0 / grid_step))
    if abs(steps * grid_step - 1.0) > 1e-9:
        raise ValueError(f"grid_step must evenly divide 1, got {grid_step}")
    return steps


def verify_optimal_beta(alpha_cols: np.ndarray, grid_step: float
                        ) -> tuple[np.ndarray, float, float]:
    """Check numerically that the complexity ratio over the budget simplex is
    minimized at beta = alpha.

    Returns (grid minimizer, inf-distance to alpha, minimum value) over the
    shares that are multiples of grid_step, excluding beta_j = 0 where
    alpha_j > 0. The minimizer is `greedy_increments` of 1/grid_step units
    from zero counts, so it is exact on the grid for every N.
    """
    alpha_cols = np.asarray(alpha_cols, dtype=np.float64)
    n = alpha_cols.size
    steps = grid_steps(grid_step)
    if np.count_nonzero(alpha_cols > 0) > steps:
        raise ValueError("grid too coarse: no feasible interior point")
    beta_star = greedy_increments(alpha_cols, np.zeros(n), steps, np.full(n, steps)) / steps
    return (beta_star, float(np.max(np.abs(beta_star - alpha_cols))),
            complexity_ratio(alpha_cols, beta_star))


def empirical_bound(bundle: ModelBundle, ledger: BudgetLedger, r: int, alpha,
                    lab_z: list[np.ndarray], lab_labels: list[np.ndarray],
                    orig_z: list[np.ndarray] | None) -> BoundReport:
    """Compose the empirical bound of round r from the current model state:
    the importance-weighted 0/1 error on labeled data, the Hoeffding term at
    the ledger's realized budget shares and label total, the mean estimated
    feature distance, and the trainable stand-in for the per-domain
    joint-error floor. It reads the latent rows and labels of each labeled
    domain (`lab_z`, `lab_labels`) and the latent rows of each domain's train
    rows (`orig_z`, None without a discriminator) and encodes nothing."""
    a = as_alpha(alpha)
    n = a.shape[0]
    cols = column_importance(a)

    # one classifier pass per labeled domain: one pass over the whole pool
    # raises vanilla_select's peak RSS (see CHANGES.md)
    err = np.concatenate([classifier_pass(bundle, z, y, [y.size]).errors()
                          for z, y in zip(lab_z, lab_labels)], axis=1)
    err_h, head_err = err[0], err[1:]
    weighted_err = float(cols @ err_h)

    hoeff = hoeffding_term(cols, ledger.beta(r), ledger.total_budget(r))

    hdist = 0.0
    if bundle.discriminator is not None:
        # a running sum in domain order: np.sum pairs terms from 8 domains up
        hdist = float(np.cumsum(estimate_h_distance(bundle, orig_z, lab_z, a))[-1])
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
