"""Golden outputs: one tiny experiment whose exported CSVs are pinned by SHA-256.

A refactor must leave these files byte-identical. A change that has to alter
them updates the digests and says in CHANGES.md why the output changed.
"""
import dataclasses
import hashlib

from mudal.config import ExperimentConfig
from mudal.data import RotatingSpec
from mudal.harness import run_experiment
from mudal.training import TrainConfig

GOLDEN = ExperimentConfig(
    dataset=RotatingSpec(n_domains=3, train_per_domain=40, test_per_domain=20,
                         n_classes=3, seed=0),
    variant="cal", strategy="grads", assignment="cal_optimal",
    train=TrainConfig("cal", epochs=2, batch_size=8, latent_dim=8, encoder_hidden=(10,),
                      classifier_hidden=(10,), disc_hidden=(10,)),
    m0=6, m=6, rounds=2, seeds=(1, 2),
)

DIGESTS = {
    "bounds.csv": "18f6e0043dbd089d307d69f99cca9397935e791760830b9878ed850f4c95258e",
    "metrics.csv": "6be4332a329ad47b53cf04a5fb452e04f0471e0939a94a434ec1a0716398f6ff",
    "seed_1/alpha_round_0.csv": "e0746752de9910a598bb69407c4a29602b2691f76bd2894b374128a81b4b481a",
    "seed_1/alpha_round_1.csv": "df3ab74b1c39c38ea77d82fa11be1f46dd3d17fbcad1e7f99d29de6df7e43d8f",
    "seed_1/alpha_round_2.csv": "b396d7840afaf630f30482d17c5e0a5e54edb5be428f07840572a54aebd397e0",
    "seed_2/alpha_round_0.csv": "b47a441b8d1bbf5d8e4e894e6ed1bfd6a732344841963232368492e04537e2d7",
    "seed_2/alpha_round_1.csv": "77a07cc8bdda8a87482c6c9e2543f2695b46dbac4ea40703a3cba2cc48e019a4",
    "seed_2/alpha_round_2.csv": "3d14620219161df10e84d73cf20979d986a85e1f52efbb059782b1a6b10412e8",
}


# The same setup with joint assignment: one pooled GRADS request whose rows
# each keep their own domain.
GOLDEN_JOINT = dataclasses.replace(GOLDEN, assignment="joint")

JOINT_DIGESTS = {
    "bounds.csv": "8fc3c73747e3113ce57a5dcf218e0e238fa33f6134264ece91f4870c662fd16f",
    "metrics.csv": "da3d231a396bfba677da15e79b53e2196f15391c826c1de2db8bb171eca2ae23",
    "seed_1/alpha_round_0.csv": "e0746752de9910a598bb69407c4a29602b2691f76bd2894b374128a81b4b481a",
    "seed_1/alpha_round_1.csv": "778d1a0b61043f6aedaa37112db4cb4c7d7b04da99f5e7d32266dc15b87ff728",
    "seed_1/alpha_round_2.csv": "9b24c388b7a21b7f71622b8febbf058fa301a6dde175d3434eaad01164bcea3e",
    "seed_2/alpha_round_0.csv": "b47a441b8d1bbf5d8e4e894e6ed1bfd6a732344841963232368492e04537e2d7",
    "seed_2/alpha_round_1.csv": "ee05687fafe40c831ccb2c25a89edfcaf77427d95c84d04142d31a2c70071b88",
    "seed_2/alpha_round_2.csv": "1542f7381bab15bdc5ef6fb3eab17df1282eb3841609f374f8801289cb1916da",
}


def _output_digests(cfg, names, out_dir):
    run_experiment(cfg, str(out_dir))
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names}


def test_golden_output_digests(tmp_path):
    assert _output_digests(GOLDEN, DIGESTS, tmp_path) == DIGESTS


def test_golden_joint_grads_digests(tmp_path):
    assert _output_digests(GOLDEN_JOINT, JOINT_DIGESTS, tmp_path) == JOINT_DIGESTS
