"""Multi-domain active learning: similarity-weighted surrogate domains,
adversarial feature alignment, theoretically guided budget assignment, and
pluggable instance-level query strategies."""

from .nn import DenseNet, Layer, grad_check, sigmoid_bce, softmax, softmax_ce
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
from .strategies import (QueryRequest, badge_embeddings, grads_select,
                         kmeanspp_select, select, select_badge, select_margin,
                         select_random)
from .bounds import BoundReport, empirical_bound, hoeffding_term, verify_optimal_beta
from .config import ConfigError, ExperimentConfig, config_to_text, parse_config
from .harness import RoundMetrics, SeedRunResult, export_outputs, run_experiment

__version__ = "0.1.0"
