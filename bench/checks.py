"""Checks on the files `export_outputs` writes, and their digests.

A round fails when its seed did not finish, when it is missing from the
outputs without a recorded truncation, or when any check below fails for it.
"""
from __future__ import annotations

import csv
import hashlib
import os

from mudal.config import ExperimentConfig
from mudal.simplex import SimilarityMatrix

# Average test accuracy must clear chance (1 / n_classes) by this much.
ACC_MARGIN = 0.15


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def digests(cfg: ExperimentConfig, out_dir: str) -> dict[str, str]:
    """SHA-256 of metrics.csv, bounds.csv and every alpha CSV, by relative path."""
    names = ["metrics.csv", "bounds.csv"]
    for seed in cfg.seeds:
        seed_dir = os.path.join(out_dir, f"seed_{seed}")
        if os.path.isdir(seed_dir):
            names += sorted(os.path.join(f"seed_{seed}", f) for f in os.listdir(seed_dir)
                            if f.startswith("alpha_round_"))
    return {name: _sha256(os.path.join(out_dir, name))
            for name in names if os.path.exists(os.path.join(out_dir, name))}


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_outputs(cfg: ExperimentConfig, out_dir: str, finished_seeds: set[int],
                  truncated: dict[int, int]) -> tuple[dict, set, list[str]]:
    """Check one experiment's exported outputs.

    `truncated` maps a seed to the round before which the harness stopped.
    Returns (per-round average accuracy keyed by (seed, round), the set of
    failed (seed, round) keys, and a message per failure).
    """
    chance = 1.0 / cfg.dataset.n_classes
    planned = {(s, r) for s in cfg.seeds for r in range(cfg.rounds + 1)}
    failed: set = set()
    problems: list[str] = []

    def fail(key, why):
        failed.add(key)
        problems.append(f"seed {key[0]} round {key[1]}: {why}")

    for seed in cfg.seeds:
        if seed not in finished_seeds:
            failed |= {k for k in planned if k[0] == seed}
            problems.append(f"seed {seed}: did not finish")
        elif seed in truncated:
            fail((seed, truncated[seed]), "unplanned truncation")
            failed |= {k for k in planned if k[0] == seed and k[1] > truncated[seed]}

    acc: dict = {}
    metrics = _read_rows(os.path.join(out_dir, "metrics.csv"))
    for row in metrics:
        if row["domain"] != "avg":
            continue
        key = (int(row["seed"]), int(row["round"]))
        acc[key] = float(row["test_accuracy"])
        if acc[key] < chance + ACC_MARGIN:
            fail(key, f"average accuracy {acc[key]:.4f} below chance {chance:.3f} "
                      f"+ {ACC_MARGIN}")
        expected = cfg.m0 + key[1] * cfg.m
        if int(row["n_labeled"]) != expected:
            fail(key, f"n_labeled {row['n_labeled']} != m0 + r*m = {expected}")

    bounds = _read_rows(os.path.join(out_dir, "bounds.csv"))
    bound_keys = set()
    for row in bounds:
        key = (int(row["seed"]), int(row["round"]))
        bound_keys.add(key)
        parts = [float(row[c]) for c in
                 ("weighted_err", "hoeffding", "mean_hdist", "vlambda_proxy")]
        total = float(row["total"])
        if min(parts) < 0:
            fail(key, f"negative bound component {parts}")
        # each CSV value carries 9 significant digits
        if abs(total - sum(parts)) > 1e-8 * (abs(total) + sum(map(abs, parts))):
            fail(key, f"bound total {total} != sum of components {sum(parts)}")

    for key in sorted(planned - failed):
        if key not in acc or key not in bound_keys:
            fail(key, "round missing from metrics.csv or bounds.csv")
            continue
        alpha_path = os.path.join(out_dir, f"seed_{key[0]}", f"alpha_round_{key[1]}.csv")
        try:
            SimilarityMatrix.from_csv(alpha_path)
        except (OSError, ValueError) as exc:
            fail(key, f"alpha CSV rejected: {exc}")
    return acc, failed, problems
