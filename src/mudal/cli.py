"""Command-line entry point.

    mudal [--log-level LEVEL] run <config> [--seeds 1,2,3] [--out DIR] [--variant V]
                                           [--strategy S] [--mode M]
    mudal [--log-level LEVEL] verify-theory [--units M]
    mudal [--log-level LEVEL] gradcheck

`gradcheck` checks each variant's training-step gradients against central
finite differences (`gradcheck_cases`).

The package's log records at LEVEL (default WARNING) and above are held
while the command runs and go to stderr when it ends, after its verdict
line (`config error: ...` or `numerical abort: ...`) if it has one, e.g.
`--log-level INFO` shows each budget round's `clamping triggered` line.

Exit codes: 0 success, 1 failed check, 2 config error, 3 numerical abort.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import logging
import logging.handlers
import math
import sys

import numpy as np

from .bounds import complexity_ratio, hoeffding_term, verify_optimal_beta
from .config import ASSIGNMENT_MODES, ConfigError, parse_config, parse_int_tuple
from .harness import run_experiment
from .models import make_bundle
from .nn import grad_check
from .objective import BlockLayout, classifier_pass, compute_vd, disc_pass
from .strategies import STRATEGIES
from .training import VARIANTS, NumericalAbort, TrainConfig, step_grads


LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    updates = {}
    if args.seeds is not None:
        updates["seeds"] = parse_int_tuple(args.seeds)
    if args.out is not None:
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


# the command checks N = 2 ... 6 domains, each with a positive alpha_j
VERIFY_MAX_DOMAINS = 6


def _no_better_move(alpha: np.ndarray, beta: np.ndarray, units: int) -> bool:
    """Whether no move of one 1/units share between two domains lowers
    sum alpha_j^2 / beta_j (beyond rounding). The objective is separable and
    convex, so a grid point no such move improves is the grid's minimum (Fox
    1966). A move that empties a domain with alpha_j > 0 diverges."""
    value = complexity_ratio(alpha, beta)
    for i, j in itertools.permutations(range(alpha.size), 2):
        moved = beta.copy()
        moved[i] -= 1.0 / units
        moved[j] += 1.0 / units
        if moved[i] > 0 and complexity_ratio(alpha, moved) < value * (1.0 - 1e-12):
            return False
    return True


def _cmd_verify_theory(args) -> int:
    rng = np.random.default_rng(7)
    print("optimal budget-share check: minimizer of sum alpha_j^2 / beta_j over the simplex")
    ok = True
    for n in range(2, VERIFY_MAX_DOMAINS + 1):  # through the default config's 6 domains
        alpha = rng.dirichlet(np.ones(n))
        alpha = np.maximum(alpha, 0.02)
        alpha /= alpha.sum()
        beta_star, gap, value = verify_optimal_beta(alpha, args.units)
        # the grid's minimum is at least the simplex's, 1 at beta = alpha; how far
        # beta* lies from alpha depends on the grid, so the gap is shown, not tested
        good = _no_better_move(alpha, beta_star, args.units) and value >= 1.0 - 1e-9
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
    """(name, layers, grads, loss) for `grad_check`, per variant: the network
    step's gradient (`training.step_grads`) against the objective it
    descends with alpha and the discriminator held fixed, whose `loss()`
    returns its terms; where the discriminator trains, its step's V_d
    gradient against V_d. Every parameter of networks with each layer kind
    of the default `TrainConfig` at width 4, the batch, alpha and lambda_d
    come from `rng`."""
    n, c = 3, 3
    layout = BlockLayout.of(rng.integers(1, 4, n), rng.integers(1, 4, n))
    x = rng.standard_normal((layout.orig_rows + layout.n_lab.sum(), 2))
    labels = rng.integers(0, c, layout.n_lab.sum())
    alpha = rng.dirichlet(np.ones(n), size=n)

    def cases_of(variant: str) -> list[tuple]:
        cfg = TrainConfig(variant, lambda_d=rng.uniform(0.5, 2.0), latent_dim=3,
                          encoder_hidden=(4,), classifier_hidden=(4,), disc_hidden=(4, 4))
        bundle = make_bundle(2, c, n, rng, cfg.latent_dim, cfg.encoder_hidden,
                             cfg.classifier_hidden, cfg.disc_hidden, cfg.trains_discriminator)
        for pset in filter(None, (bundle.net_params, bundle.disc_params)):
            pset.flat[...] = rng.standard_normal(pset.flat.size)

        def step(value: bool):
            trace = bundle.encoder.forward(x)
            cls = classifier_pass(bundle, trace.output[layout.orig_rows:], labels,
                                  layout.lab_blocks, heads=cfg.optimizes_alpha)
            # V_d reaches the network step only where the encoder aligns
            disc = disc_pass(bundle, trace.output, layout) if cfg.aligns_encoder else None
            return step_grads(cfg, trace, cls, disc, alpha, value=value)

        def terms() -> tuple[float, ...]:
            v_h, v_d, v_lambda = step(True)[1]
            return v_h, v_lambda, -cfg.lambda_d * v_d
        # copies, as the objective's steps write over them; only V_lambda reads the heads
        grads = {layer: (dW.copy(), db.copy()) for layer, (dW, db) in step(False)[0].items()}
        layers = bundle.net_params.layers
        layers = layers if cfg.optimizes_alpha else layers[:-n]
        cases = [(f"{variant}: network step", layers, grads, terms)]
        if bundle.discriminator:
            z = bundle.encoder.forward(x).output
            grads = compute_vd(disc_pass(bundle, z, layout), alpha, inputs=False,
                               value=False).grads
            cases.append((f"{variant}: discriminator step", bundle.discriminator.layers, grads,
                          lambda: (compute_vd(disc_pass(bundle, z, layout), alpha, params=False,
                                              inputs=False).value,)))
        return cases
    return [case for variant in VARIANTS for case in cases_of(variant)]


def _cmd_gradcheck(args) -> int:
    worst = 0.0
    for name, layers, grads, loss in gradcheck_cases(np.random.default_rng(0)):
        err = grad_check(layers, grads, loss)
        worst = max(worst, err)
        print(f"  {name}: max relative error beyond roundoff {err:.3e}")
    print(f"worst case: {worst:.3e} [{'ok' if worst < 1e-4 else 'FAIL'}]")
    return 0 if worst < 1e-4 else 1


def _units(text: str) -> int:
    """A `--units` value: an integer of at least VERIFY_MAX_DOMAINS, since
    each domain's positive alpha_j needs one unit, and at most 10**6 so that
    the greedy search's (N, M) gain table stays small."""
    if not text.isdecimal() or not VERIFY_MAX_DOMAINS <= int(text) <= 10**6:
        raise argparse.ArgumentTypeError(
            f"expected an integer in [{VERIFY_MAX_DOMAINS}, 10**6], got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mudal",
                                     description="multi-domain active learning runner")
    parser.add_argument("--log-level", default="WARNING", type=str.upper, choices=LOG_LEVELS,
                        help="least severe log records shown on stderr (default WARNING)")
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
    p_verify.add_argument("--units", type=_units, default=100,
                          help="budget units M: budget shares are multiples of 1/M (default 100)")
    p_verify.set_defaults(func=_cmd_verify_theory)

    p_grad = sub.add_parser("gradcheck", help="check training-step gradients numerically")
    p_grad.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the package's records at the chosen level are held while the command
    # runs, so that a verdict line comes first on stderr
    stream = logging.StreamHandler(sys.stderr)
    stream.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    handler = logging.handlers.MemoryHandler(math.inf, logging.CRITICAL + 1, stream)
    pkg = logging.getLogger("mudal")
    level = pkg.level
    pkg.addHandler(handler)
    pkg.setLevel(args.log_level)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    finally:
        pkg.removeHandler(handler)
        handler.close()  # writes the held records
        pkg.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
