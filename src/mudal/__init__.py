"""Multi-domain active learning: similarity-weighted surrogate domains,
adversarial feature alignment, theoretically guided budget assignment, and
pluggable instance-level query strategies. Importing the package pins
OpenBLAS to one thread unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS is set; the pin cannot reach a NumPy imported before it."""
import os
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
