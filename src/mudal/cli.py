"""Command-line entry point.

    mudal run <config> [--seeds 1,2,3] [--out DIR] [--variant V] [--strategy S] [--mode M]
    mudal verify-theory [--grid-step X]
    mudal gradcheck

Exit codes: 0 success, 2 configuration error, 3 numerical abort.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .bounds import MIN_GRID_STEP, grid_steps, hoeffding_term, verify_optimal_beta
from .config import ASSIGNMENT_MODES, ConfigError, parse_config, parse_int_tuple
from .harness import run_experiment
from .models import make_bundle
from .nn import DenseNet, grad_check, sigmoid_bce, softmax_ce
from .strategies import STRATEGIES
from .training import VARIANTS, NumericalAbort, TrainConfig


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    updates = {}
    if args.seeds is not None:
        updates["seeds"] = parse_int_tuple(args.seeds)
    if args.out:
        updates["out_dir"] = args.out
    if args.variant:
        updates["variant"] = args.variant
        updates["train"] = dataclasses.replace(cfg.train, variant=args.variant)
    if args.strategy:
        updates["strategy"] = args.strategy
    if args.mode:
        updates["assignment"] = args.mode
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    paths = run_experiment(cfg)
    for p in paths:
        print(p)
    return 0


def _cmd_verify_theory(args) -> int:
    rng = np.random.default_rng(7)
    print("optimal budget-share check: minimizer of sum alpha_j^2 / beta_j over the simplex")
    ok = True
    for n in (2, 3, 4):
        alpha = rng.dirichlet(np.ones(n))
        alpha = np.maximum(alpha, 0.02)
        alpha /= alpha.sum()
        beta_star, gap, value = verify_optimal_beta(alpha, args.grid_step)
        good = gap <= args.grid_step + 1e-12 and value >= 1.0 - 1e-9
        ok &= good
        print(f"  N={n}: alpha={np.round(alpha, 3)} -> beta*={np.round(beta_star, 3)} "
              f"gap={gap:.4f} min={value:.6f} [{'ok' if good else 'FAIL'}]")
    alpha = np.array([0.5, 0.3, 0.2])
    term = hoeffding_term(alpha, alpha, 100)
    expected = 2.0 * np.sqrt((2.0 * np.log(202.0) + np.log(80.0)) / 100.0)
    good = abs(term - expected) < 1e-12
    ok &= good
    print(f"complexity term at beta=alpha: {term:.12f} (closed form {expected:.12f}) "
          f"[{'ok' if good else 'FAIL'}]")
    return 0 if ok else 1


def gradcheck_cases(rng: np.random.Generator) -> list[tuple]:
    """(name, net, inputs, loss) for each network of a bundle at the default
    `TrainConfig` widths, with inputs, labels, targets and weights from `rng`."""
    cfg = TrainConfig()
    bundle = make_bundle(2, 4, 6, rng, cfg.latent_dim, cfg.encoder_hidden,
                         cfg.classifier_hidden, cfg.disc_hidden)
    x = rng.standard_normal((6, 2))
    labels = rng.integers(0, 4, size=6)
    weights = rng.uniform(0.2, 1.0, size=6)
    z = rng.standard_normal((6, bundle.latent_dim))
    targets = rng.integers(0, 2, size=(6, bundle.n_domains)).astype(float)
    disc_weights = rng.uniform(0.2, 1.0, size=(6, bundle.n_domains))

    def bce(out):
        loss, dlogits = sigmoid_bce(out, targets, disc_weights)
        return loss, dlogits.reshape(out.shape)

    full = DenseNet([*bundle.encoder.layers, *bundle.classifier.layers])
    head = DenseNet([*bundle.encoder.layers, *bundle.classifier.layers[:-1],
                     bundle.head_finals[0]])
    return [
        ("encoder+classifier / CE", full, x, lambda out: softmax_ce(out, labels)),
        ("encoder+classifier / weighted CE", full, x,
         lambda out: softmax_ce(out, labels, weights)),
        ("encoder+domain head / CE", head, x, lambda out: softmax_ce(out, labels)),
        ("discriminator, one logit per domain / weighted BCE", bundle.discriminator, z, bce),
    ]


def _cmd_gradcheck(args) -> int:
    worst = 0.0
    for name, net, feats, loss in gradcheck_cases(np.random.default_rng(0)):
        err = grad_check(net, feats, loss)
        worst = max(worst, err)
        print(f"  {name}: max relative error beyond roundoff {err:.3e}")
    print(f"worst case: {worst:.3e} "
          f"[{'ok' if worst < 1e-4 else 'FAIL'}]")
    return 0 if worst < 1e-4 else 1


def _grid_step(text: str) -> float:
    """A `--grid-step` value, checked before any grid is built."""
    try:
        grid_steps(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mudal",
                                     description="multi-domain active learning runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--seeds", default=None, help="comma-separated seed list")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--variant", default=None, choices=VARIANTS)
    p_run.add_argument("--strategy", default=None, choices=STRATEGIES)
    p_run.add_argument("--mode", default=None, choices=ASSIGNMENT_MODES)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify-theory", help="run the bound-lab numeric checks")
    p_verify.add_argument("--grid-step", type=_grid_step, default=0.01,
                          help=f"simplex grid spacing: a step in [{MIN_GRID_STEP}, 0.5] that "
                          "evenly divides 1 (default 0.01)")
    p_verify.set_defaults(func=_cmd_verify_theory)

    p_grad = sub.add_parser("gradcheck", help="run the gradient oracle checks")
    p_grad.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
