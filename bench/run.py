"""Benchmark of the `mudal` active-learning loop.

    python3 bench/run.py --workload cal_default --seed 0 --seconds 24 --trace 0
    python3 bench/run.py --workload all          # every workload untraced, then traced

One workload run builds the experiment from the seed and drives the public
harness API the way `mudal run` does: `build_dataset`, `run_seed` per seed,
`export_outputs`. It repeats that experiment until `--seconds` are spent
(at least three times), checks every output, and reports medians.

`--trace 0` reports the end-to-end metrics; set-up time is the median wall
time of several fresh interpreters that import `mudal` and build the dataset.
`--trace 1` alternates untraced and traced experiments and reports per-layer
metrics from the traced ones (see bench/README.md).

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
where attempted and failed count query rounds. A results file with the
metrics, output digests and an environment record goes to
.bench_out/results/. The exit code is 0 when every check passes, 1 when one
fails and 2 when the benchmark cannot run (e.g. the `mudal` sources are missing).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracing
from tracing import LAYERS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

MIN_REPS = 3          # untraced experiments per run, at least
TRACED_PAIRS = 2      # (untraced, traced) experiment pairs per traced run, at least
SETUP_PROBES = 9      # fresh interpreters timed for setup_s, at least
SELF_TIME_TOLERANCE = 0.05
PROBE_TIMEOUT_S = 120

# name -> (unit, better); the order is the print order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "experiment_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "acc_final": ("fraction", "higher"),
    "acc_auc": ("fraction", "higher"),
    "ok_share": ("fraction", "higher"),
}

# Functions timed (.s inclusive) and counted (.calls) in every workload.
TIMED = (
    "training.train_round", "objective.compute_vh", "objective.evaluate",
    "objective.zero_one_errors", "nn.DenseNet.forward", "nn.DenseNet.backward",
    "nn.DenseNet.predict", "nn.ParamSet.step", "simplex.assign_budget",
    "bounds.empirical_bound", "strategies.select", "strategies.kmeanspp_select",
    "strategies.badge_embeddings", "data.LabeledPool.unlabeled_indices",
    "data.LabeledPool.reveal", "harness.run_seed", "harness.export_outputs",
)
# Functions that some workload never calls: counted only, since a time that
# reads 0 on every run of a workload cannot be told from a broken timer.
COUNTED = (
    "objective.compute_vd", "objective.alpha_objective_coefficients",
    "objective.compute_vlambda", "objective.alpha_step",
    "objective.estimate_h_distance", "models.ModelBundle.disc_logits",
    "models.ModelBundle.encode", "simplex.project_simplex",
    "strategies.outlier_scores",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TIMED:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
    units.update({
        "training.train_round.self_s": "s",
        "bounds.empirical_bound.s": "s",
        "harness.run_seed.self_s": "s",
        "nn.forward_calls_per_step": "ratio",
        "simplex.projections_per_alpha_row": "ratio",
        "strategies.kmeanspp_select.dist_rows": "count",
        "data.gen_rotating.s": "s",
        "data.gen_rotating.calls": "count",
        "trace.experiment_s": "s",
        "trace.overhead_s": "s",
    })
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    return units


PER_LAYER = per_layer_units()


def import_mudal() -> None:
    """Import `mudal` from this checkout's sources and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "mudal", "__init__.py")):
        print(f"bench: no mudal sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import mudal

    if os.path.dirname(os.path.dirname(os.path.abspath(mudal.__file__))) != SRC:
        print(f"bench: imported mudal from {mudal.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy as np

    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # git must not search above ROOT
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }


class Experiment:
    """One workload at one seed: the dataset is built once, then `run` repeats
    the whole experiment and checks it."""

    def __init__(self, workload: str, seed: int, out_root: str, tiny: bool = False):
        from mudal import harness
        from workloads import WORKLOADS

        self.cfg = WORKLOADS[workload].config(seed, tiny=tiny)
        self.work_dir = os.path.join(out_root, "work", f"{workload}-{os.getpid()}")
        self.dataset = harness.build_dataset(self.cfg)
        self.reps = 0

    def run(self) -> dict:
        """Run every seed and export; returns wall and CPU time, accuracies,
        digests and failures. Module attributes are read at call time, so an
        installed tracer sees these calls."""
        from mudal import harness
        from checks import check_outputs, digests

        out_dir = os.path.join(self.work_dir, f"rep{self.reps}")
        self.reps += 1
        results, errors = [], []
        t0, c0 = time.perf_counter(), time.process_time()
        for seed in self.cfg.seeds:
            try:
                results.append(harness.run_seed(self.cfg, self.dataset, seed))
            except Exception as exc:  # a failed seed is counted, not fatal
                errors.append(f"seed {seed}: {type(exc).__name__}: {exc}")
        harness.export_outputs(self.cfg, results, out_dir)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0

        truncated = {r.seed: r.truncated_at for r in results if r.truncated_at is not None}
        acc, failed, problems = check_outputs(
            self.cfg, out_dir, {r.seed for r in results}, truncated)
        rep = {"wall": wall, "cpu": cpu, "acc": acc, "failed": failed,
               "problems": errors + problems, "digests": digests(self.cfg, out_dir),
               "attempted": len(self.cfg.seeds) * (self.cfg.rounds + 1)}
        shutil.rmtree(out_dir, ignore_errors=True)
        return rep

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


def _summarize(reps: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed rounds over all reps, plus problem messages; a
    rep whose digests differ from the first rep's fails all its rounds."""
    attempted = sum(r["attempted"] for r in reps)
    failed = 0
    problems = []
    for k, rep in enumerate(reps):
        bad = len(rep["failed"])
        problems += [f"rep {k}: {p}" for p in rep["problems"]]
        if rep["digests"] != reps[0]["digests"]:
            bad = rep["attempted"]
            problems.append(f"rep {k}: output digests differ from rep 0")
        failed += bad
    return attempted, failed, problems


def _keep_going(times: list[float], deadline: float, minimum: int) -> bool:
    return len(times) < minimum or time.perf_counter() + statistics.median(times) <= deadline


def probe_setup(workload: str, seed: int) -> float:
    """Wall time of one fresh interpreter running bench/probe.py, from spawn
    to exit: importing `mudal`, building the config and the dataset."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "probe.py"), workload, str(seed)])
    # wait() with a timeout polls in steps of up to 50 ms; a blocking wait
    # returns at exit, and the timer bounds it instead
    killer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    if code != 0:
        raise RuntimeError(f"set-up probe exited with {code}")
    return time.perf_counter() - t0


def measure_end_to_end(workload: str, seed: int, seconds: float, out_root: str = OUT_ROOT,
                       tiny: bool = False, probes: int = SETUP_PROBES) -> dict:
    """Repeat the experiment for `seconds` (at least MIN_REPS times). Set-up
    probes run between experiments, so that they sample the same stretch of
    machine time, and then up to `probes` at the end."""
    exp = Experiment(workload, seed, out_root, tiny)
    reps, setup = [], []
    deadline = time.perf_counter() + seconds
    try:
        while True:
            setup.append(probe_setup(workload, seed))
            reps.append(exp.run())
            if not _keep_going([r["wall"] for r in reps], deadline, MIN_REPS):
                break
    finally:
        exp.close()
    while len(setup) < probes:
        setup.append(probe_setup(workload, seed))
    attempted, failed, problems = _summarize(reps)
    acc = reps[0]["acc"]
    final_round = exp.cfg.rounds
    finals = [a for (s, r), a in acc.items() if r == final_round]
    values = {
        "setup_s": statistics.median(setup),
        "experiment_s": statistics.median(r["wall"] for r in reps),
        "cpu_s": statistics.median(r["cpu"] for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "acc_final": statistics.fmean(finals) if finals else 0.0,
        "acc_auc": statistics.fmean(acc.values()) if acc else 0.0,
        "ok_share": 1.0 - failed / attempted,
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()},
        "problems": problems,
        "digests": reps[0]["digests"],
        "reps": [{"wall": r["wall"], "cpu": r["cpu"]} for r in reps],
        "setup_probes": setup,
    }


def _layer_values(t, setup_tracer, cfg, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metric values from one traced experiment's tracer `t`."""
    from workloads import steps_per_round

    v = {}
    for name in TIMED:
        v[f"{name}.s"] = t.total(name)
        v[f"{name}.calls"] = t.calls(name)
    for name in COUNTED:
        v[f"{name}.calls"] = t.calls(name)
    for layer in LAYERS:
        v[f"{layer}.self_s"] = t.layer_self_time(layer)
    v["training.train_round.self_s"] = t.self_time("training.train_round")
    v["harness.run_seed.self_s"] = t.self_time("harness.run_seed")
    _, nested_h_s = t.edge("bounds.empirical_bound", "objective.estimate_h_distance")
    v["bounds.empirical_bound.s"] = t.total("bounds.empirical_bound") - nested_h_s
    steps = t.calls("training.train_round") * steps_per_round(cfg)
    v["nn.forward_calls_per_step"] = t.calls("nn.DenseNet.forward") / steps
    alpha_rows = t.calls("objective.alpha_step") * cfg.dataset.n_domains
    projections, _ = t.edge("objective.alpha_step", "simplex.project_simplex")
    v["simplex.projections_per_alpha_row"] = projections / alpha_rows if alpha_rows else 0.0
    v["strategies.kmeanspp_select.dist_rows"] = t.counters.get(
        "strategies.kmeanspp_select.dist_rows", 0)
    v["data.gen_rotating.s"] = setup_tracer.total("data.gen_rotating")
    v["data.gen_rotating.calls"] = setup_tracer.calls("data.gen_rotating")
    v["trace.experiment_s"] = traced_s
    v["trace.overhead_s"] = traced_s - untraced_s
    return v


def measure_per_layer(workload: str, seed: int, seconds: float, out_root: str = OUT_ROOT,
                      tiny: bool = False) -> dict:
    """Alternate untraced and traced experiments; per-layer values are medians
    over the traced ones, whose call counts must agree exactly."""
    setup_tracer = tracing.Tracer()
    patches = tracing.install(setup_tracer)
    try:
        exp = Experiment(workload, seed, out_root, tiny)
    finally:
        tracing.uninstall(patches)
    untraced, traced, tracers = [], [], []
    deadline = time.perf_counter() + seconds
    try:
        while True:
            untraced.append(exp.run())
            tracer = tracing.Tracer()
            patches = tracing.install(tracer)
            try:
                traced.append(exp.run())
            finally:
                tracing.uninstall(patches)
            tracers.append(tracer)
            pair_times = [u["wall"] + t["wall"] for u, t in zip(untraced, traced)]
            if not _keep_going(pair_times, deadline, TRACED_PAIRS):
                break
    finally:
        exp.close()

    attempted, failed, problems = _summarize(untraced + traced)
    leftovers = tracing.leftover_wrappers()
    if leftovers:
        problems.append(f"wrappers left installed: {leftovers}")
    counts = [t.call_counts() for t in tracers]
    if any(c != counts[0] for c in counts):
        problems.append("traced call counts differ between experiments")
    for tracer, rep in zip(tracers, traced):
        covered = sum(tracer.layer_self_time(layer) for layer in LAYERS)
        if abs(covered - rep["wall"]) > SELF_TIME_TOLERANCE * rep["wall"]:
            problems.append(f"layer self times sum to {covered:.3f} s, "
                            f"traced experiment took {rep['wall']:.3f} s")

    untraced_s = statistics.median(r["wall"] for r in untraced)
    per_tracer = [_layer_values(t, setup_tracer, exp.cfg, untraced_s, r["wall"])
                  for t, r in zip(tracers, traced)]
    values = {k: statistics.median(p[k] for p in per_tracer) for k in PER_LAYER}
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()},
        "problems": problems,
        "digests": untraced[0]["digests"],
        "spans": [{"parent": p, "name": n, "calls": c, "total_s": s}
                  for (p, n), (c, s) in sorted(tracers[0].edges.items(),
                                               key=lambda e: -e[1][1])],
    }


def write_results(result: dict, workload: str, seed: int, trace: int, env: dict) -> None:
    path = os.path.join(OUT_ROOT, "results", f"{workload}_seed{seed}_trace{trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed, "trace": trace, "env": env, **result},
                  f, indent=1, sort_keys=True, default=str)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    env = environment()  # before the runs, so the load average is not ours
    if trace:
        result = measure_per_layer(workload, seed, seconds)
    else:
        result = measure_end_to_end(workload, seed, seconds)
    write_results(result, workload, seed, trace, env)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then every workload traced, each in its own
    process so that peak memory is per workload."""
    from workloads import WORKLOADS

    status = 0
    for trace in (0, 1):
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                return 2
            result = json.loads(lines[-1])
            print(f"== {name} (trace {trace}) correct={result['correct']} "
                  f"rounds attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"{name:15s} {metric:45s} {m['value']:14.6g} {m['unit']}")
            if not result["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name from bench/workloads.py, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_mudal()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
