"""Numerical embodiment of the error-bound theory: the Hoeffding complexity
term at a fixed capacity proxy d and confidence delta, an exact check that the
complexity ratio's minimizer over a grid of budget shares sits at the
column-importance vector, and composition of the full empirical bound from the
model state and the budget ledger's realized shares."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelBundle
from .objective import Segments, classifier_pass, estimate_h_distance, require_rows
from .simplex import BudgetLedger, column_importance, greedy_increments

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
            if not 0 <= getattr(self, name) < np.inf:  # also refuses nan
                raise ValueError(f"{name} must be finite and nonnegative")

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


def verify_optimal_beta(alpha_cols: np.ndarray, units: int) -> tuple[np.ndarray, float, float]:
    """Check numerically that the complexity ratio over the budget simplex is
    minimized at beta = alpha.

    Returns (grid minimizer, inf-distance to alpha, minimum value) over the
    shares that are multiples of 1/units, excluding beta_j = 0 where
    alpha_j > 0. The minimizer is `greedy_increments` of the units from zero
    counts, so it is exact on the grid for every N.
    """
    alpha_cols = np.asarray(alpha_cols, dtype=np.float64)
    n = alpha_cols.size
    if np.count_nonzero(alpha_cols > 0) > units:
        raise ValueError("grid too coarse: no feasible interior point")
    beta_star = greedy_increments(alpha_cols, np.zeros(n), units, np.full(n, units)) / units
    return (beta_star, float(np.max(np.abs(beta_star - alpha_cols))),
            complexity_ratio(alpha_cols, beta_star))


def empirical_bound(bundle: ModelBundle, ledger: BudgetLedger, r: int, alpha: np.ndarray,
                    lab_z: list[np.ndarray], lab_labels: list[np.ndarray],
                    orig_z: list[np.ndarray] | None) -> BoundReport:
    """Compose the empirical bound of round r from the current model state:
    the importance-weighted 0/1 error on labeled data, the Hoeffding term at
    the ledger's realized budget shares and label total, the mean estimated
    feature distance, and the trainable stand-in for the per-domain
    joint-error floor. It reads the latent rows and labels of each labeled
    domain (`lab_z`, `lab_labels`) and the latent rows of each domain's train
    rows (`orig_z`, None without a discriminator) and encodes nothing. An
    empty labeled domain is refused."""
    require_rows([y.size for y in lab_labels], "labeled")
    n = alpha.shape[0]
    cols = column_importance(alpha)

    # one classifier pass per labeled domain: one pass over the whole pool
    # raises vanilla_select's peak RSS (see CHANGES.md)
    err = np.concatenate([classifier_pass(bundle, z, y, Segments.of([y.size], "labeled")).errors()
                          for z, y in zip(lab_z, lab_labels)], axis=1)
    err_h, head_err = err[0], err[1:]
    weighted_err = float(cols @ err_h)

    hoeff = hoeffding_term(cols, ledger.beta(r), ledger.total_budget(r))

    hdist = 0.0
    if bundle.discriminator is not None:
        # a running sum in domain order: np.sum pairs terms from 8 domains up
        hdist = float(np.cumsum(estimate_h_distance(bundle, orig_z, lab_z, alpha))[-1])
    mean_hdist = hdist / (2.0 * n)

    # a running sum over j, then i, in domain order
    vlambda_proxy = float(np.cumsum((alpha * head_err).ravel(order="F"))[-1]) / n

    return BoundReport(weighted_err, hoeff, mean_hdist, vlambda_proxy)
