"""The benchmark's workloads: each builds an `ExperimentConfig` from a seed.

Every dataset is a synthetic rotating-domain set (4 Gaussian-blob classes over
90 degrees), so nothing is downloaded. The seed sets the dataset and the
experiment seeds, so the same seed gives the same inputs. Epoch counts are
sized so that one experiment takes a few seconds on two cores and a run of the
benchmark's length holds several of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from mudal.config import ExperimentConfig
from mudal.data import RotatingSpec
from mudal.training import TrainConfig


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    strategy: str
    assignment: str
    n_domains: int
    train_per_domain: int
    batch_size: int
    m: int
    epochs: int
    n_seeds: int
    rounds: int = 5
    test_per_domain: int = 400

    def config(self, seed: int, tiny: bool = False) -> ExperimentConfig:
        """The experiment for `seed`. `tiny` keeps every code path but shrinks
        the data, epochs and rounds so that a test can run it in about a
        second."""
        n, train, test, m = self.n_domains, self.train_per_domain, self.test_per_domain, self.m
        epochs, rounds, batch = self.epochs, self.rounds, self.batch_size
        if tiny:
            train, test, m = 10 * n + 20, 20, 2 * n
            epochs, rounds, batch = 2, 1, min(batch, 8)
        return ExperimentConfig(
            dataset=RotatingSpec(n, train, test, seed=seed),
            variant=self.variant, strategy=self.strategy, assignment=self.assignment,
            train=TrainConfig(self.variant, epochs=epochs, batch_size=batch),
            m0=m, m=m, rounds=rounds,
            seeds=tuple(seed * 100 + k for k in range(1, self.n_seeds + 1)),
        )


# Why each workload exists is stated in BENCHMARK.json and bench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("cal_default", "cal", "grads", "cal_optimal", n_domains=6,
             train_per_domain=400, batch_size=16, m=60, epochs=2, n_seeds=2),
    Workload("cal_bigbatch", "cal", "badge", "paper_literal", n_domains=3,
             train_per_domain=2000, batch_size=128, m=150, epochs=3, n_seeds=1),
    Workload("vanilla_select", "vanilla", "badge", "cal_optimal", n_domains=6,
             train_per_domain=3000, batch_size=64, m=300, epochs=1, n_seeds=1),
)}


def steps_per_round(cfg: ExperimentConfig) -> int:
    """Training minibatch steps in one `train_round`, as `train_round` sizes them."""
    per_epoch = max(1, math.ceil(cfg.dataset.train_per_domain / cfg.train.batch_size))
    return cfg.train.epochs * per_epoch
