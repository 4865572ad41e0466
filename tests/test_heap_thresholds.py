"""glibc malloc thresholds: importing `mudal` fixes them, so freed arrays stay
in the heap and the next allocation reuses resident pages, unless the caller
set one. `tests/test_blas_threads.py` checks that they move no exported byte.

Each case runs in a fresh interpreter, since glibc reads its environment once,
at start-up, and the thresholds hold for the rest of the process."""
import os

import pytest

from test_blas_threads import run_child

try:
    import resource
except ImportError:  # not POSIX
    resource = None

MMAP, TRIM = -3, -1  # glibc's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD

# four 0.75 MiB arrays, each over glibc's first 128 KiB mmap threshold, written
# in full, then freed: the faults of each of 6 cycles
CYCLES = """
import json, resource
import mudal
import numpy as np
faults = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.full(98_304, 1.0) for _ in range(4)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""

# the `mallopt` calls of the import, with `mallopt` replaced by a recorder that
# refuses the parameter in argv[1] (0 for none); the C library is named glibc,
# or not at all where argv[2] == "musl"
MALLOPT = """
import ctypes, json, os, sys, types
import numpy
calls = []
def mallopt(param, value):
    calls.append([param, value])
    return int(str(param) != sys.argv[1])
ctypes.CDLL = lambda name: types.SimpleNamespace(mallopt=mallopt)
def confstr(name):
    if sys.argv[2] == "musl":
        raise ValueError("unrecognized configuration name")
    return "glibc 2.36"
os.confstr = confstr
import mudal
print(json.dumps(calls))
"""

# 2 domains of 1,500 rows, 2 query rounds of BADGE: each selection's arrays
# (the pool's features, its classifier hidden rows, 1,470 x 32 float64 at
# first, and the k-means++ distances) are over 128 KiB. The faults of a second
# run of the seed, after a first one warmed the heap
RUN_SEED = """
import json, resource
from mudal.config import ExperimentConfig
from mudal.data import RotatingSpec
from mudal.harness import build_dataset, run_seed
from mudal.training import TrainConfig
cfg = ExperimentConfig(
    dataset=RotatingSpec(n_domains=2, train_per_domain=1500, test_per_domain=40, seed=0),
    variant="vanilla", strategy="badge", assignment="cal_optimal",
    train=TrainConfig("vanilla", epochs=1, batch_size=64), m0=60, m=60, rounds=2, seeds=(1,))
dataset = build_dataset(cfg)
run_seed(cfg, dataset, 1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_seed(cfg, dataset, 1)
print(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before))
"""


def is_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


needs_glibc = pytest.mark.skipif(resource is None or not is_glibc(),
                                 reason="counts the page faults of glibc's heap")


@needs_glibc
def test_freed_arrays_stay_resident():
    faults = run_child(CYCLES)
    assert faults[0] >= 700  # 768 pages written
    assert max(faults[1:]) <= 10


@needs_glibc
@pytest.mark.parametrize("opt_out", [
    {"MALLOC_TRIM_THRESHOLD_": "131072"},
    {"MALLOC_MMAP_THRESHOLD_": "131072"},
    {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"},
], ids=["trim", "mmap", "tunable"])
def test_a_caller_threshold_is_left_alone(opt_out):
    # glibc keeps the caller's threshold and its 128 KiB start for the other:
    # the freed 3 MiB top of the heap is trimmed, or the arrays mapped afresh,
    # every cycle
    assert min(run_child(CYCLES, **opt_out)[1:]) >= 700


@needs_glibc
def test_a_warmed_seed_run_faults_no_heap_pages():
    # Linux, glibc 2.36: 0 faults. Before `mudal` fixed the thresholds the
    # same run read 822-964, as the heap's layout moved with the environment
    assert run_child(RUN_SEED) <= 50


BOTH = [[MMAP, 32 << 20], [TRIM, 64 << 20]]


@pytest.mark.parametrize("refused, libc, env, calls", [
    ("0", "glibc", {}, BOTH),
    (str(MMAP), "glibc", {}, BOTH[:1]),
    ("0", "musl", {}, []),
    ("0", "glibc", {"MALLOC_MMAP_THRESHOLD_": "131072"}, []),
    ("0", "glibc", {"MALLOC_TRIM_THRESHOLD_": "131072"}, []),
    ("0", "glibc", {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"}, []),
    ("0", "glibc", {"GLIBC_TUNABLES": "glibc.malloc.tcache_count=0"}, BOTH),
    ("0", "glibc", {"MALLOC_PERTURB_": "0", "MALLOC_CHECK_": "3"}, BOTH),
], ids=["set", "mmap-refused", "not-glibc", "mmap-var", "trim-var", "tunable",
        "other-tunable", "debug-vars"])
def test_which_thresholds_are_set(refused, libc, env, calls):
    # where glibc refuses the mmap threshold, the trim threshold is not set
    # alone; off glibc the import still succeeds; malloc's debugging settings
    # leave the thresholds as a plain run has them
    assert run_child(MALLOPT, refused, libc, **env) == calls
