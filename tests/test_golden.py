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
    "bounds.csv": "18f6e0043dbd089d307d69f99cca9397935e791760830b9878ed850f4c95258e",
    "metrics.csv": "6be4332a329ad47b53cf04a5fb452e04f0471e0939a94a434ec1a0716398f6ff",
    "seed_1/alpha_round_0.csv": "e0746752de9910a598bb69407c4a29602b2691f76bd2894b374128a81b4b481a",
    "seed_1/alpha_round_1.csv": "df3ab74b1c39c38ea77d82fa11be1f46dd3d17fbcad1e7f99d29de6df7e43d8f",
    "seed_1/alpha_round_2.csv": "b396d7840afaf630f30482d17c5e0a5e54edb5be428f07840572a54aebd397e0",
    "seed_2/alpha_round_0.csv": "b47a441b8d1bbf5d8e4e894e6ed1bfd6a732344841963232368492e04537e2d7",
    "seed_2/alpha_round_1.csv": "77a07cc8bdda8a87482c6c9e2543f2695b46dbac4ea40703a3cba2cc48e019a4",
    "seed_2/alpha_round_2.csv": "3d14620219161df10e84d73cf20979d986a85e1f52efbb059782b1a6b10412e8",
    # the snapshot CSVs pin cal's V_h, V_d, V_lambda and disc_acc per epoch
    "seed_1/snapshots_round_0.csv": "ee94b5802c695c7b715b47a110017b67713876d127d78460137cb35c9952fa9d",
    "seed_1/snapshots_round_1.csv": "25c9f4bf64a889a3c28348d53dd02cf080093dbd5c60d564a5b82e81dafe4a4d",
    "seed_1/snapshots_round_2.csv": "5254ac51637c92cec041dadbe0bbb0222d8404811e738a0e38ba93bcd6fd23cf",
    "seed_2/snapshots_round_0.csv": "3d47deabb576db537d711a310b64434a01ca9c922346cd6553cc81b724559494",
    "seed_2/snapshots_round_1.csv": "193708f66e359498ab544a5fde6addbdd73c61baf6a6b2bf43b114721948702e",
    "seed_2/snapshots_round_2.csv": "3f6bbff1a15f56bc075f605d9bc4e02ddff7c00222b979fd17c0f5a458db4a9e",
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


# The same setup under the other variants (vanilla cannot use GRADS, so it
# queries by margin). Their encoder gradients take paths that cal does not:
# cal_alpha has no V_d term in the encoder, cal_fa has no V_lambda or alpha
# step, vanilla trains no discriminator. Alpha CSVs are pinned only where
# alpha moves; the snapshot CSVs pin V_d, V_lambda and disc_acc.
VARIANT_STRATEGY = {"cal_alpha": "grads", "cal_fa": "grads", "vanilla": "margin"}

VARIANT_DIGESTS = {
    "cal_alpha": {
        "bounds.csv":
            "ff4b47a8195f5e226c00906206f6c852eda3d6002897ca8d81ad78cd6fb2a90e",
        "metrics.csv":
            "c637d4eab1d1459442036cc128596172f3f13391329b15df352b6aee31ba99c3",
        "seed_1/alpha_round_0.csv":
            "384d222c74997e557b0d6f1ace77e793355b9410b3fd021ce892c390b904fe2b",
        "seed_1/alpha_round_1.csv":
            "c524014844926dc222294cc9aa0e7cc28156d64b626f3e1c07741e18863c8a3c",
        "seed_1/alpha_round_2.csv":
            "3106a3fda31b32fd130bf93b92bbf64efe0371a7d5c9c149d13bd03933c4d532",
        "seed_2/alpha_round_0.csv":
            "f0a4d2bcca05e807480472bcae10bbdb984ca2272827703180989d081e09bb65",
        "seed_2/alpha_round_1.csv":
            "c9682e26897b84a5aa3fbfba8ff462811ac58a69ab72a1d737425d36f159ff09",
        "seed_2/alpha_round_2.csv":
            "fc7a1f84c4e377326287d7f531b09ab3397103f912f70bf130bf73a16ab8ebed",
        "seed_1/snapshots_round_0.csv":
            "c91e62ab6ce459b5aa5d2094a06a1d6b11fe169961118c6e662814e2b7579d7f",
        "seed_1/snapshots_round_1.csv":
            "f6112d2ae8175586647d5b16695b251f8000d14d2ebc196802c78b2445c6bee6",
        "seed_1/snapshots_round_2.csv":
            "82c6fcf4d1775be641d8310ac8ac5ffb2dcdb4161a0f13f63dc943f7c8514749",
        "seed_2/snapshots_round_0.csv":
            "abfec4761082925be819b6dc96a0235774ce48571525564cfdbaaba3579a996e",
        "seed_2/snapshots_round_1.csv":
            "4eb32a5437f84affaa9dabcb1184713ccfc94b2b08e4fd5efefce7bdaabcda48",
        "seed_2/snapshots_round_2.csv":
            "72aede97ef8063ed9507071287fd3dd0a3d3f695c8f5807d2fa8a0f64d334636",
    },
    "cal_fa": {
        "bounds.csv":
            "152068badfa7e987746b2b79110805e1a5692b4c4a7821b2545a753bea40b4c3",
        "metrics.csv":
            "a62422bfa5b57aff5d17cbb701a6371c1a801437156dba08366f0efedf996e44",
        "seed_1/snapshots_round_0.csv":
            "58443bc02972905b3099342243b88b7ad27df296dbc8df705bf7f8b2c6717375",
        "seed_1/snapshots_round_1.csv":
            "d86d1789673f08537c66e35bddbcfe2121307c12f44ca56d6b4616a35be58ff0",
        "seed_1/snapshots_round_2.csv":
            "8deae1483e0254a3c51702918e81e5551e6777675c10c399b9b27afe6301de6d",
        "seed_2/snapshots_round_0.csv":
            "aaef6c092f69ea6c74e7d6aed832c3a05328746089f383406efe55dd1f7ef912",
        "seed_2/snapshots_round_1.csv":
            "62a54ea9290bb5b2058c2dfeb158c0fa4d91f94a34360719a4477f761761fa79",
        "seed_2/snapshots_round_2.csv":
            "d84f9c3c2f9436dc887f213ae5a9da53a48499277015e844a2c22bf2f2fe2f91",
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
