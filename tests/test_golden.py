"""Golden outputs: tiny experiments whose exported CSVs are pinned by SHA-256.

A refactor must leave these files byte-identical. A change that has to alter
them updates the digests and says in CHANGES.md why the output changed.
"""
import dataclasses
import hashlib

import pytest

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
    "bounds.csv": "3eb17d5f7aeb9d572232e005511a8fe428438cd45b077c08d00fb157db97fd4a",
    "metrics.csv": "0e7548329c9354d748040a9d68a4ec024f253afa7cc762204e3ded4c50dfe2da",
    "seed_1/alpha_round_0.csv": "122c883a93a745afc85ad9bb92da14f4ed627a2f250cfb8fbc6d36b5f7a9250d",
    "seed_1/alpha_round_1.csv": "aaa13c6cab59cafa7d5bd8ac5d5f2bae7e44e31d426049c6a3fac510e55eec89",
    "seed_1/alpha_round_2.csv": "90e0b9e353df5f86a0e62cd6662cc8ff287e0185399ef54f0b20eaa6984e044e",
    "seed_2/alpha_round_0.csv": "d1145d62fc89b03cc265b9f1af6c8dd4d763562a6b77ed5c110890080c7d6d77",
    "seed_2/alpha_round_1.csv": "15a14526e8845839c0c14e1eee61a064fcb05d0daebc1c468904c4ead5848631",
    "seed_2/alpha_round_2.csv": "46ae38e23f2665805a8807650851ef15f22b536bd863386358ad74ab19e148d8",
    # the snapshot CSVs pin cal's V_h, V_d, V_lambda and disc_acc per epoch
    "seed_1/snapshots_round_0.csv": "3e45c5dfb733811c61f6528c09b37925af3097d1b01f5c34d416f83828a4c04d",
    "seed_1/snapshots_round_1.csv": "da4da9c067fcac8febd820296e046b9fc0cedce0c35e9bdffdafa136a7e8ad64",
    "seed_1/snapshots_round_2.csv": "0f648e67cd284e6316b626cbd2e1b91cedbaf3854cf0686a644024cb01a42a12",
    "seed_2/snapshots_round_0.csv": "fa150d7b9ab0dd8ea3748cb1943090038454ea412cf32df70b5ac4f55c298fc4",
    "seed_2/snapshots_round_1.csv": "ffb9a26ae8ceeedffbe17771b07b6c2519dec7f885e84f020cf309ebc607f693",
    "seed_2/snapshots_round_2.csv": "bb016ab378b7d2d04782f79f6883ec6db69d714f31a34197c44d1c1f23888481",
}


# The same setup with joint assignment: one pooled GRADS request whose rows
# each keep their own domain.
GOLDEN_JOINT = dataclasses.replace(GOLDEN, assignment="joint")

JOINT_DIGESTS = {
    "bounds.csv": "1f7b4dbeb8b002a8b5df2b5f12dd0ac074b3be015eb7928b406b0c2beb2c2967",
    "metrics.csv": "38426d2158d13b08fd3325aa7aca2e79860365e158315e5c1b882cbc9a707772",
    "seed_1/alpha_round_0.csv": "122c883a93a745afc85ad9bb92da14f4ed627a2f250cfb8fbc6d36b5f7a9250d",
    "seed_1/alpha_round_1.csv": "266537bc3f5067c253e744a454420f916258d7c06139ac66c8eb89b8b33bf880",
    "seed_1/alpha_round_2.csv": "3a293e4ab731b9e2217826a678016fd449279d534770b4e46e405e9f647a23a6",
    "seed_2/alpha_round_0.csv": "d1145d62fc89b03cc265b9f1af6c8dd4d763562a6b77ed5c110890080c7d6d77",
    "seed_2/alpha_round_1.csv": "5d1cbaf062072fddcb820cad264466daaa1580141eb0182a27a0de286000a70b",
    "seed_2/alpha_round_2.csv": "8a48685b5d882dd2945d6266d843c61eeb3cbf5e4576be209e01d1b1217cb963",
}


# The same setup under the other variants (vanilla cannot use GRADS, so it
# queries by margin). Their encoder gradients take paths that cal does not:
# cal_alpha has no V_d term in the encoder, cal_fa has no V_lambda or alpha
# step, vanilla trains no discriminator. Alpha CSVs are pinned only where
# alpha moves; the snapshot CSVs pin V_d, V_lambda and disc_acc.
VARIANT_STRATEGY = {"cal_alpha": "grads", "cal_fa": "grads", "vanilla": "margin"}

VARIANT_DIGESTS = {
    "cal_alpha": {
        "bounds.csv":
            "913171ec2c29a944381e8ae1a8952134851805bbf50fbf1939c3c65a7d158f80",
        "metrics.csv":
            "02a964a0e0a4a9febebd53cde6cdbdf70a48944c508768b7674988b23fbfa2fd",
        "seed_1/alpha_round_0.csv":
            "122c883a93a745afc85ad9bb92da14f4ed627a2f250cfb8fbc6d36b5f7a9250d",
        "seed_1/alpha_round_1.csv":
            "780fd538163ab12b8246b0dcbea9ded14464d3461c082568ed9d207c54cf4ab3",
        "seed_1/alpha_round_2.csv":
            "651f3ee12467effbbe776781bfe6e9bda8f4eb5e349d65dbc08516a093b5b51b",
        "seed_2/alpha_round_0.csv":
            "7c97f348ab136c0712004189185f3511aaf5de5f4f3b038ee5651836c3ec29d6",
        "seed_2/alpha_round_1.csv":
            "15a14526e8845839c0c14e1eee61a064fcb05d0daebc1c468904c4ead5848631",
        "seed_2/alpha_round_2.csv":
            "314eedda7d1d096c56d500faf369991c51be2e61bbc877dc087d9bf9cfd4d1c2",
        "seed_1/snapshots_round_0.csv":
            "7dd409dbbcb06cb98d228124760a98432f7cb6f1083fad1a1c3bf06c07ba7382",
        "seed_1/snapshots_round_1.csv":
            "5c2db3e3b98c8387d67ffb508a95b4e6c25dcf641ad49983cee63bf84dadae7b",
        "seed_1/snapshots_round_2.csv":
            "87bb9ec9ee621d964b762dbf3723ddff7f1623fa0f50e7c1ad0f7ec11ef1f9f1",
        "seed_2/snapshots_round_0.csv":
            "47abc6f3182355bd098cb32314c75728ccc0302912ea2b84bc0bddf1cd6a4c35",
        "seed_2/snapshots_round_1.csv":
            "572dd598aabc72f2d6a155b6421ce29d2b1f02f5b9d3fa5975632570c4c4c03a",
        "seed_2/snapshots_round_2.csv":
            "36a3ea24c1f0260a70a5ad4d6480f20d045542e4117d43d42e48bcf440f6b60b",
    },
    "cal_fa": {
        "bounds.csv":
            "f928d9ba78a939445795ded52444db1f6a9e85c0a6ca11394bd4b965d15e638a",
        "metrics.csv":
            "52b144fd789f47b3f87ca63f684700c7968ac904e45fff7dee8d9de1d8cc02fb",
        "seed_1/snapshots_round_0.csv":
            "097f63a9e5ec854c75d3258f19f36a27e4e7db9751fb2f3e02b5a09ddd5684d8",
        "seed_1/snapshots_round_1.csv":
            "05b0515548051a8012ae4060978f0cf730b8f2918813befc4f9c23b747b3aad7",
        "seed_1/snapshots_round_2.csv":
            "d7ed25a528410e24e5c87506595fcce5e777335c1b0898616680adc8f903c43d",
        "seed_2/snapshots_round_0.csv":
            "ad1350e8b18941013868cb7d6b6042f30d2a129644ac1fda48b256e6fdf56528",
        "seed_2/snapshots_round_1.csv":
            "48921d4feeed2ff54f65bf704dd2ef585a407b45260153dcd4848fcb13f7c89e",
        "seed_2/snapshots_round_2.csv":
            "c7483f7691e1256c78ff0c88d4d285405cedada79cb1ecf7dca2a08246da1b15",
    },
    "vanilla": {
        "bounds.csv":
            "34558def8bbf983ce12ff0e2c32ad8a72fea08e8afd0e2baf931fda6b6d8b11a",
        "metrics.csv":
            "046a58ed5442b13776c194ec8dbddf32bf11f566afe5b17a68390b0236ba312d",
        "seed_1/snapshots_round_0.csv":
            "525ac05086b5d57d851df1652b73be6760acabbbaea4dde0a00690d29f71e580",
        "seed_1/snapshots_round_1.csv":
            "98fdbb3cda24b9d4650f698417f3ea2dfe347deb96e694131cab28381821926b",
        "seed_1/snapshots_round_2.csv":
            "597afde95594333d17220ca6a6b0d4688e9b7c227de4a2da42192a148a03db1b",
        "seed_2/snapshots_round_0.csv":
            "50101d169dd44397ff467493fd723162f24998da449154553837fa7a786826de",
        "seed_2/snapshots_round_1.csv":
            "978ad878f9d31ca839d8cf899ab0bda47855d72d7db50ad3c59ad7623af34414",
        "seed_2/snapshots_round_2.csv":
            "dbf59195aae8b8f2f6e09147080f5dd760fd9f16a466039bcd37ddd2eddb6f0b",
    },
}


def _output_digests(cfg, names, out_dir):
    run_experiment(cfg, str(out_dir))
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names}


def test_golden_output_digests(tmp_path):
    assert _output_digests(GOLDEN, DIGESTS, tmp_path) == DIGESTS


def test_golden_joint_grads_digests(tmp_path):
    assert _output_digests(GOLDEN_JOINT, JOINT_DIGESTS, tmp_path) == JOINT_DIGESTS


@pytest.mark.parametrize("variant", sorted(VARIANT_DIGESTS))
def test_golden_variant_digests(variant, tmp_path):
    cfg = dataclasses.replace(GOLDEN, variant=variant, strategy=VARIANT_STRATEGY[variant],
                              train=dataclasses.replace(GOLDEN.train, variant=variant))
    digests = VARIANT_DIGESTS[variant]
    assert _output_digests(cfg, digests, tmp_path) == digests
