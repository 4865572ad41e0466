"""Multi-domain active learning: similarity-weighted surrogate domains,
adversarial feature alignment, theoretically guided budget assignment, and
pluggable instance-level query strategies.

Importing the package sets up the whole process for that work, not just
`mudal`'s own calls:

- It pins OpenBLAS to one thread unless OPENBLAS_NUM_THREADS,
  GOTO_NUM_THREADS or OMP_NUM_THREADS is set; the pin cannot reach a NumPy
  imported before it.
- Under glibc it fixes malloc's mmap threshold at 32 MiB and its trim
  threshold at 64 MiB, so freed arrays stay in the heap and the next round,
  step or selection reuses pages that are still resident instead of faulting
  them in again. The cost: a freed block under 32 MiB that is not at the top
  of the heap is never given back to the OS, and the freed top is given back
  only past 64 MiB. It is skipped where the C library is not glibc, and where
  the caller set either threshold: MALLOC_MMAP_THRESHOLD_ or
  MALLOC_TRIM_THRESHOLD_, or glibc.malloc.mmap_threshold or
  glibc.malloc.trim_threshold in GLIBC_TUNABLES. Setting one of them is the
  way to opt out; `mudal.FREED_MEMORY_KEPT` says whether the import fixed
  them. Training relies on the thresholds too: every pass computes into
  fresh arrays, and they keep a step's freed temporaries resident for the
  next step. Opted out with a 128 KiB trim threshold, glibc gives those
  back and faults them in again each step: on glibc 2.36 a warmed 768-row
  `cal` round faulted 12,819 pages instead of 0, and the benchmark's
  experiments ran 11-45% slower.
"""
import ctypes
import os

if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

# glibc's dynamic rule raises the mmap threshold to each freed mmapped block's
# size, up to 32 MiB on 64-bit, and keeps the trim threshold at twice it. These
# are its ceilings. Both must be set: setting either alone turns the rule off
# and leaves the other at its 128 KiB start, so the freed heap top is still
# trimmed (mmap threshold alone) or every array over 128 KiB is still mapped
# afresh (trim threshold alone).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD
_THRESHOLD_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
_THRESHOLD_TUNABLES = ("glibc.malloc.mmap_threshold", "glibc.malloc.trim_threshold")


def _keep_freed_memory() -> bool:
    """Fix glibc's thresholds unless the caller set one; True if they are
    fixed."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return False
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if (any(v in os.environ for v in _THRESHOLD_VARS)
            or any(t in tunables for t in _THRESHOLD_TUNABLES)):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    # the mmap threshold goes first: where glibc refuses it (a 32-bit build),
    # nothing is set and the dynamic rule stays
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


FREED_MEMORY_KEPT = _keep_freed_memory()

from .nn import DenseNet, Layer, grad_check, softmax
from .data import (LabeledPool, MultiDomainDataset, RotatingSpec, gen_rotating,
                   init_pool, load_idx, rotate_idx_domains)
from .simplex import (BudgetLedger, SimilarityMatrix, assign_budget,
                      column_importance, largest_remainder_round, project_simplex)
from .models import ModelBundle, make_bundle
from .objective import (alpha_objective_coefficients, alpha_step, classifier_pass,
                        compute_vd, compute_vh, compute_vlambda, disc_pass,
                        estimate_h_distance, evaluate)
from .training import (NumericalAbort, ObjectiveSnapshot, RoundResult, TrainConfig,
                       train_round, write_snapshots_csv)
from .strategies import RankOneRows, badge_embeddings, kmeanspp_select, select
from .bounds import BoundReport, empirical_bound, hoeffding_term, verify_optimal_beta
from .config import ConfigError, ExperimentConfig, config_to_text, parse_config
from .harness import RoundMetrics, SeedRunResult, export_outputs, run_experiment

__version__ = "0.1.0"
