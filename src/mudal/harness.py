"""Experiment runner: the round loop (train, evaluate, score the bound, assign
domain budgets, select instances, reveal), the baseline assignment modes, and
CSV export. After training, a round encodes each row block once: each
domain's test rows, labeled rows and, with a discriminator, train rows (read
by the h-distances and the bound), and each nonempty margin, BADGE or GRADS
request. The export reads each round's reveals and budget shares from the ledger.

Every random draw derives from (experiment seed, purpose, round, domain), so a
rerun with the same config and seeds reproduces byte-identical outputs.
"""
from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundReport, empirical_bound
from .config import ConfigError, ExperimentConfig, IdxDatasetSpec, config_to_text
from .data import (MultiDomainDataset, RotatingSpec, gen_rotating, init_pool,
                   load_idx, rotate_idx_domains)
from .objective import estimate_h_distance, evaluate
from .simplex import BudgetLedger, SimilarityMatrix, assign_budget
from .strategies import QueryRequest, select
from .training import ObjectiveSnapshot, train_round, write_snapshots_csv

log = logging.getLogger(__name__)

_STREAM_POOL, _STREAM_TRAIN, _STREAM_QUERY = 1, 2, 3


def _rng_seed(seed: int, stream: int, *extra: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(seed), int(stream), *map(int, extra)))


@dataclass
class RoundMetrics:
    seed: int
    round: int
    per_domain_acc: np.ndarray
    avg_acc: float
    alpha: SimilarityMatrix
    hdist: np.ndarray
    bound: BoundReport
    history: list[ObjectiveSnapshot]

    def __post_init__(self) -> None:
        if abs(self.avg_acc - float(np.mean(self.per_domain_acc))) > 1e-12:
            raise ValueError("average accuracy must equal the per-domain mean")


@dataclass
class SeedRunResult:
    seed: int
    rounds: list[RoundMetrics] = field(default_factory=list)
    ledger: BudgetLedger | None = None
    truncated_at: int | None = None


def build_dataset(cfg: ExperimentConfig) -> MultiDomainDataset:
    if isinstance(cfg.dataset, RotatingSpec):
        return gen_rotating(cfg.dataset)
    spec: IdxDatasetSpec = cfg.dataset
    try:
        features, labels = load_idx(spec.images, spec.labels)
        return rotate_idx_domains(features, labels, spec.n_domains,
                                  spec.train_per_domain, spec.test_per_domain,
                                  spec.total_range_deg, spec.seed)
    except ValueError as exc:  # a corrupt or too-small IDX pair
        raise ConfigError(str(exc)) from exc


def _joint_select(cfg: ExperimentConfig, dataset: MultiDomainDataset,
                  unlab: list[np.ndarray], bundle, seed_seq) -> list[np.ndarray]:
    """Pick m samples from the pooled unlabeled set, ignoring domains: one
    request over every domain's unlabeled rows `unlab[j]`, each row keeping
    its domain."""
    n = dataset.n_domains
    owners = np.concatenate([np.full(unlab[j].size, j) for j in range(n)])
    flat_idx = np.concatenate(unlab)
    req = QueryRequest(domain=owners, k=cfg.m, unlabeled=np.arange(flat_idx.size),
                       features=np.vstack([dataset.train_features[j][unlab[j]]
                                           for j in range(n)]),
                       bundle=bundle, seed=seed_seq)
    positions = select(cfg.strategy, req, temperature=cfg.train.temperature)
    return [flat_idx[positions[owners[positions] == j]] for j in range(n)]


def _score_round(bundle, dataset, pool, ledger, r, alpha) -> tuple[np.ndarray, BoundReport]:
    """Round r's h-distances (N,) and bound from one encode of each labeled domain
    and, with a discriminator, of each domain's train rows, freed before selection."""
    n = dataset.n_domains
    lab_z = [bundle.encode(pool.labeled_features(j)) for j in range(n)]
    orig_z, hdist = None, np.zeros(n)
    if bundle.discriminator is not None:
        orig_z = [bundle.encode(dataset.train_features[i]) for i in range(n)]
        hdist = estimate_h_distance(bundle, orig_z, lab_z, alpha)
    lab_labels = [pool.labels(j) for j in range(n)]
    return hdist, empirical_bound(bundle, ledger, r, alpha, lab_z, lab_labels, orig_z)


def run_seed(cfg: ExperimentConfig, dataset: MultiDomainDataset, seed: int) -> SeedRunResult:
    n = dataset.n_domains
    pool = init_pool(dataset, cfg.m0, _rng_seed(seed, _STREAM_POOL))
    ledger = BudgetLedger(cfg.m0, cfg.m, pool.counts())
    result = SeedRunResult(seed=seed, ledger=ledger)
    prev_cols = np.full(n, 1.0 / n)

    for r in range(cfg.rounds + 1):
        rr = train_round(dataset, pool, cfg.train, _rng_seed(seed, _STREAM_TRAIN, r))
        bundle = rr.bundle
        per_acc, avg = evaluate(bundle, dataset)
        hdist, report = _score_round(bundle, dataset, pool, ledger, r, rr.alpha)
        result.rounds.append(RoundMetrics(
            seed=seed, round=r, per_domain_acc=per_acc, avg_acc=avg,
            alpha=rr.alpha, hdist=hdist, bound=report, history=rr.history,
        ))

        if r == cfg.rounds:
            break

        # the round's unlabeled rows, read once for the capacities and the requests
        unlab = [pool.unlabeled_indices(j) for j in range(n)]
        capacities = np.array([u.size for u in unlab])
        if capacities.sum() < cfg.m:
            log.warning("seed %d: unlabeled pool exhausted before round %d", seed, r + 1)
            result.truncated_at = r + 1
            break

        cols = rr.alpha.column_importance()
        if cfg.assignment == "joint":
            chosen = _joint_select(cfg, dataset, unlab, bundle,
                                   _rng_seed(seed, _STREAM_QUERY, r + 1))
            increments = np.array([c.size for c in chosen], dtype=np.int64)
        else:
            if cfg.assignment == "separate":
                increments = np.full(n, cfg.m // n, dtype=np.int64)
                if np.any(increments > capacities):
                    log.warning("seed %d: a domain ran out of unlabeled points", seed)
                    result.truncated_at = r + 1
                    break
            else:
                increments = assign_budget(cols, ledger, r + 1, capacities, cfg.assignment,
                                           prev_cols)
            chosen = []
            for j in range(n):
                req = QueryRequest(domain=j, k=int(increments[j]), unlabeled=unlab[j],
                                   features=dataset.train_features[j][unlab[j]],
                                   bundle=bundle,
                                   seed=_rng_seed(seed, _STREAM_QUERY, r + 1, j))
                chosen.append(select(cfg.strategy, req, temperature=cfg.train.temperature))

        for j in range(n):
            pool.reveal(j, chosen[j])
        ledger.record(increments)
        prev_cols = cols

    return result


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".9g")


def export_outputs(cfg: ExperimentConfig, results: list[SeedRunResult], out_dir) -> list[str]:
    """Write metrics.csv, bounds.csv, per-seed alpha and snapshot CSVs, and a
    config.resolved echo. All CSVs use 9 significant digits and LF endings."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    metrics_path = os.path.join(out_dir, "metrics.csv")
    with open(metrics_path, "w", newline="\n") as f:
        f.write("seed,round,domain,test_accuracy,n_labeled,increment,beta,hdist\n")
        for res in results:
            ledger = res.ledger
            reveals = [ledger.initial_counts, *ledger.increments]  # that produced each pool
            for rm in res.rounds:
                acc, counts = rm.per_domain_acc, ledger.labeled_counts(rm.round)
                incr, beta, hdist = reveals[rm.round], ledger.beta(rm.round), rm.hdist
                rows = [(str(j), *v) for j, v in enumerate(zip(acc, counts, incr, beta, hdist))]
                rows.append(("avg", rm.avg_acc, counts.sum(), incr.sum(), beta.sum(),
                             hdist.mean()))
                for domain, *values in rows:
                    f.write(",".join([str(rm.seed), str(rm.round), domain,
                                      *map(_fmt, values)]) + "\n")
    written.append(metrics_path)

    bounds_path = os.path.join(out_dir, "bounds.csv")
    with open(bounds_path, "w", newline="\n") as f:
        f.write("variant,seed,round,weighted_err,hoeffding,mean_hdist,vlambda_proxy,total\n")
        for res in results:
            for rm in res.rounds:
                b = rm.bound
                f.write(",".join([
                    cfg.variant, str(rm.seed), str(rm.round),
                    _fmt(b.weighted_err), _fmt(b.hoeffding), _fmt(b.mean_hdist),
                    _fmt(b.vlambda_proxy), _fmt(b.total),
                ]) + "\n")
    written.append(bounds_path)

    for res in results:
        seed_dir = os.path.join(out_dir, f"seed_{res.seed}")
        os.makedirs(seed_dir, exist_ok=True)
        for rm in res.rounds:
            alpha_path = os.path.join(seed_dir, f"alpha_round_{rm.round}.csv")
            rm.alpha.to_csv(alpha_path)
            written.append(alpha_path)
            snap_path = os.path.join(seed_dir, f"snapshots_round_{rm.round}.csv")
            write_snapshots_csv(rm.history, snap_path)
            written.append(snap_path)

    truncated = [res for res in results if res.truncated_at is not None]
    if truncated:
        trunc_path = os.path.join(out_dir, "truncation.txt")
        with open(trunc_path, "w", newline="\n") as f:
            for res in truncated:
                f.write(f"seed {res.seed}: stopped before query round {res.truncated_at} "
                        "(unlabeled pool exhausted)\n")
        written.append(trunc_path)

    resolved_path = os.path.join(out_dir, "config.resolved")
    with open(resolved_path, "w", newline="\n") as f:
        f.write(config_to_text(cfg))
    written.append(resolved_path)
    return written


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> list[str]:
    """Run every seed and export all outputs. Returns the written file paths."""
    dataset = build_dataset(cfg)
    results = [run_seed(cfg, dataset, s) for s in cfg.seeds]
    return export_outputs(cfg, results, out_dir or cfg.out_dir)
