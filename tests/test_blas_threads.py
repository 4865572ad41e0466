"""OpenBLAS thread count: importing `mudal` pins one BLAS thread unless the
caller set one, and neither the thread count nor the malloc thresholds the
import fixes can move any exported byte.

Each case runs in a fresh interpreter, since OpenBLAS reads its environment
once, when NumPy loads it, and glibc reads its own at start-up."""
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")

PIN_PROBE = """
import json, os
import mudal
import numpy as np
a = np.ones((600, 600))
a @ a
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), len(os.listdir("/proc/self/task"))]))
"""

# 3 domains at batch 128 with 128 labeled rows each: every training step stacks
# 768 rows, enough for OpenBLAS to split some of its matmuls across two threads
EXPERIMENT = """
import hashlib, json, os, sys
from mudal.config import ExperimentConfig
from mudal.data import RotatingSpec
from mudal.harness import run_experiment
from mudal.training import TrainConfig
cfg = ExperimentConfig(
    dataset=RotatingSpec(n_domains=3, train_per_domain=256, test_per_domain=40, seed=0),
    variant="cal", strategy="badge", assignment="cal_optimal",
    train=TrainConfig("cal", epochs=2, batch_size=128),
    m0=384, m=30, rounds=1, seeds=(1,))
out = sys.argv[1]
paths = run_experiment(cfg, out)
print(json.dumps({os.path.relpath(p, out): hashlib.sha256(open(p, "rb").read()).hexdigest()
                  for p in paths}))
"""


def run_child(code: str, *args: str, **given_env: str):
    """The last line of `code`'s output, as JSON, from a fresh interpreter
    that sees none of the caller's BLAS thread or malloc threshold settings,
    only `given_env`'s."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS + MALLOC_VARS}
    env.update(given_env, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    return json.loads(out.splitlines()[-1])


needs_two_cpus = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="needs /proc/self/task and at least two CPUs")


@needs_two_cpus
def test_import_pins_one_blas_thread():
    assert run_child(PIN_PROBE) == ["1", 1]


@needs_two_cpus
@pytest.mark.parametrize("given, expected", [({"OPENBLAS_NUM_THREADS": "2"}, "2"),
                                             ({"OMP_NUM_THREADS": "2"}, None)],
                         ids=["openblas", "omp"])
def test_a_set_thread_count_is_left_alone(given, expected):
    assert run_child(PIN_PROBE, **given)[0] == expected


def test_blas_thread_count_moves_no_output(tmp_path):
    one = run_child(EXPERIMENT, str(tmp_path / "one"), OPENBLAS_NUM_THREADS="1")
    two = run_child(EXPERIMENT, str(tmp_path / "two"), OPENBLAS_NUM_THREADS="2")
    # glibc's own thresholds: a caller's threshold turns the import's off
    glibcs = run_child(EXPERIMENT, str(tmp_path / "glibcs"), OPENBLAS_NUM_THREADS="1",
                       MALLOC_TRIM_THRESHOLD_="131072")
    assert one == two == glibcs
    assert "bounds.csv" in one
