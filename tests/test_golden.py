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
    "bounds.csv": "6caa9b35b2142f88f1f426cfcde1d8bffac1c6937fcb1393734b51ceb255900c",
    "metrics.csv": "ae4f4a99a52c2b70d7203c9c534afa50f5c9752639f605d37ab22a22cd9a15cb",
    "seed_1/alpha_round_0.csv": "a4774c35548ce81664dee503a791f922a0fc57028b43af3503d980a2fe72531f",
    "seed_1/alpha_round_1.csv": "36e342d6a7758d19bba80faff897c38cf2a1be97d931868d5065737e48b783fb",
    "seed_1/alpha_round_2.csv": "380b67b94d6ac6f46a1cea2e23507f51993657a774447d71cfa21cc5cdd04bf6",
    "seed_2/alpha_round_0.csv": "d1145d62fc89b03cc265b9f1af6c8dd4d763562a6b77ed5c110890080c7d6d77",
    "seed_2/alpha_round_1.csv": "4a4c75a58dcb815541f416cbcbddb0ce56a0c98fd654098ab9f418edc7db8cf0",
    "seed_2/alpha_round_2.csv": "2a88cd68d201576664a3ffe7bfcdcccc4393bb934f000a9e2f51c37b9e17c9e9",
    # the snapshot CSVs pin cal's V_h, V_d, V_lambda and disc_acc per epoch
    "seed_1/snapshots_round_0.csv": "ef2afb5fe75a388c9c6a242d240b15128ddba3a83453ae34cda63cddd3a1d8b8",
    "seed_1/snapshots_round_1.csv": "efec2d8323b81aca680d46b3f864be8c6e7f7e37df8362434454a1dd8379942f",
    "seed_1/snapshots_round_2.csv": "18e0025b907b15398b46a0cdd280ba0e34d9799f545c6b8811648f4539ecd2d3",
    "seed_2/snapshots_round_0.csv": "6c5406ebc75108eb61f83ff136c0de0603adb781ac690c14700305fad24a8a1d",
    "seed_2/snapshots_round_1.csv": "0d7a2a70877039badbeb77c01aae8169d01cb88ce30f0cb2c237a4b911ee5ef9",
    "seed_2/snapshots_round_2.csv": "b03d20fe8ea5d2c4b09bc0199f2c458fa1b1606d8c1adc30596f721843fb79d9",
}


# The same setup with joint assignment: one pooled GRADS request whose rows
# each keep their own domain.
GOLDEN_JOINT = dataclasses.replace(GOLDEN, assignment="joint")

JOINT_DIGESTS = {
    "bounds.csv": "a3fffa6c7f1bd7dbcdb4cd87d41d401b5aa74453fecdda78f9a2707404c4fccb",
    "metrics.csv": "f65a6b23611cda8817fc4008b1066f2ad278b40a9c170dc0407f1dc3a45a09a5",
    "seed_1/alpha_round_0.csv": "a4774c35548ce81664dee503a791f922a0fc57028b43af3503d980a2fe72531f",
    "seed_1/alpha_round_1.csv": "507b041256a8e8a92d152d8914fa630c1fc5520d579d2e220bf8ae02a34c0ca8",
    "seed_1/alpha_round_2.csv": "13d53607fa824f62de8bc2842da37d99599c70715b4c96e31eecd6a0f8afb8fb",
    "seed_2/alpha_round_0.csv": "d1145d62fc89b03cc265b9f1af6c8dd4d763562a6b77ed5c110890080c7d6d77",
    "seed_2/alpha_round_1.csv": "5d1cbaf062072fddcb820cad264466daaa1580141eb0182a27a0de286000a70b",
    "seed_2/alpha_round_2.csv": "7430421e8b855a6f401a8fa79f4c2cd01399360e61ae4def8430edea572a0d9c",
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
            "d2c7e3d058b4022817ba2f4da928d51ffbc85127bb3972b572ddc5e4bdab816c",
        "metrics.csv":
            "ec37b499922689cb68e554f20cddc28d31298be7b345b6c1dd1e4ad7a1743301",
        "seed_1/alpha_round_0.csv":
            "a4774c35548ce81664dee503a791f922a0fc57028b43af3503d980a2fe72531f",
        "seed_1/alpha_round_1.csv":
            "efd25deddde2f90e35825ecd088b9bc24f48c58aa1dfef0721f66b5e3df97364",
        "seed_1/alpha_round_2.csv":
            "ab8f2b86e2da6ec3647a91d220026fdd63eab3f8d71a2bec22638f752e702551",
        "seed_2/alpha_round_0.csv":
            "7c97f348ab136c0712004189185f3511aaf5de5f4f3b038ee5651836c3ec29d6",
        "seed_2/alpha_round_1.csv":
            "15a14526e8845839c0c14e1eee61a064fcb05d0daebc1c468904c4ead5848631",
        "seed_2/alpha_round_2.csv":
            "a190ce7ea961d9e49807f958398593158609b4deda74e4bd236d8634a410625a",
        "seed_1/snapshots_round_0.csv":
            "958d1ea087748410f1b5904b6813e54fea4ef84c1d88b88c4b6a0f0ca3a7ad12",
        "seed_1/snapshots_round_1.csv":
            "e27df77268bb461366ac3a80e57df88dd8edc6bd4e4a2761a803a4688ad4fc87",
        "seed_1/snapshots_round_2.csv":
            "9b321360d232e78b3fe866bd50e923fe1bc7c78d0f1b38eb5dc90224638ef0a9",
        "seed_2/snapshots_round_0.csv":
            "2c626fd15c95e482c199c59e71510173c207040b1d39d5e2d881f4be1c309836",
        "seed_2/snapshots_round_1.csv":
            "e308b4351ccbf5d7dd93af484444ee27c55f40c71f8019d2d3991f89358593f5",
        "seed_2/snapshots_round_2.csv":
            "4d07b7508f8c1ae8c676b49c78268079caa20cdd889bb405528cce8fb6434599",
    },
    "cal_fa": {
        "bounds.csv":
            "6af7aee4dc1bbec5281123c2440fb3a5ba4914844ae12f40600b997bd27ab6a1",
        "metrics.csv":
            "237697632e86c3d15d94e779845ab6d414245ee18d6eb6b0c6e96cd48be77999",
        "seed_1/snapshots_round_0.csv":
            "540dc988c0ea9b2d9005e5b02f3fd7db6dce16f1caeee8c22b06395f8131839e",
        "seed_1/snapshots_round_1.csv":
            "1238386ca8bdf01a1c7dd86880cd9e776fc09210e4be2b1a0e29e4b1b5f422c9",
        "seed_1/snapshots_round_2.csv":
            "ca247fa3d0bf0abdd14a56c867a46cf7cd12c502d33f7e9265000031cb5408c4",
        "seed_2/snapshots_round_0.csv":
            "8462c7e32cc45e3b198eda812d16c54d53382a7d08d3aa3c7e9d85f9078ec850",
        "seed_2/snapshots_round_1.csv":
            "edceea416c467e45e76a5490f196b8e4b8e8b1569209100f75c7d6f0172631a8",
        "seed_2/snapshots_round_2.csv":
            "a74be6253a8e7e3a46949f4746d9e0fbb2b452abbbc47ba0fe431836861f9704",
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


# Default widths and 128-row blocks (3 x 128 originals and 3 x 128 labeled
# rows a step): the training step's arrays at the sizes the benchmark runs,
# which the batch-8, width-10 setups above never reach.
GOLDEN_LARGE = ExperimentConfig(
    dataset=RotatingSpec(n_domains=3, train_per_domain=300, test_per_domain=40, seed=0),
    variant="cal", strategy="badge", assignment="paper_literal",
    train=TrainConfig("cal", epochs=1, batch_size=128),
    m0=390, m=60, rounds=1, seeds=(1,),
)

LARGE_DIGESTS = {
    "bounds.csv": "6145d701c0342003ab3b1b3ddea0beba174e9ea381b3d60274833f160efae331",
    "metrics.csv": "71fdbbe74af455a55d8ca47a0f33d8bc88045eba35c555a89feaaba16b64298b",
    "seed_1/alpha_round_0.csv": "5ca6bfa46e223a3283e8cd196b269b6e0e817655dbb9c61d07fa0db432dd6d12",
    "seed_1/alpha_round_1.csv": "88da08eeb28caa2d3fc42c7cffc8ef5ee83d90402be35aaa81feb9fc0492063e",
    "seed_1/snapshots_round_0.csv": "13ee25523c3d86d528f392e4d2f2e365e9ed66bfc03ce68125ef99dabb9f64f0",
    "seed_1/snapshots_round_1.csv": "1167860861586b3552d5812f0373185e451898d6065fad0f269878ec4f2f4fcc",
}


# The same setup under the strategy and assignment pairs that no pin above
# covers. Each pick feeds the next round's training, so the last round's
# snapshots pin both rounds' selections.
SELECTION_DIGESTS = {
    ("random", "separate"): {
        "bounds.csv":
            "89ea67fcc39c742cfe3e6509f02862d2862d58af7e097f672ca66ec6856cd419",
        "metrics.csv":
            "79a1e903cbc919fccfe0c13ab6daa204924b707c54b1cf20e28a9296db75cc6a",
        "seed_1/snapshots_round_2.csv":
            "92411ff47db8b21ead2d7629d05e5fc7dcc6f24f6b3ceebb411cd25714dc0436",
        "seed_2/snapshots_round_2.csv":
            "a526b9385a847c63a8ca0ea6e7bd87f0a762bbe2a25b6526c9476ff12e5bb2ef",
    },
    ("random", "joint"): {
        "bounds.csv":
            "da36636d7d6735e29ce78ecbb94465d11baa09513c2462fc7528166ea174ac7c",
        "metrics.csv":
            "126b646fd284f3639f6ad669cf32b0ffa554e5ac6fcb148409a956fec42c0680",
        "seed_1/snapshots_round_2.csv":
            "6e33f595e257e10a4873017b5bcf4dad745c84e27fdaa1945ac12799b7a065d0",
        "seed_2/snapshots_round_2.csv":
            "2e7755b00a0ec083c03971d9dd2090f4eac0430d94fb326ff746d98c4cc8cb76",
    },
    ("margin", "joint"): {
        "bounds.csv":
            "0534ec2717296df17d31e7c636d72df7750df170b194eb72cbf9ba87d5a93f60",
        "metrics.csv":
            "dddb7d9f8c928e83ac16a7bd4f2d4b13de6796551eedad8a415620ff27a71ade",
        "seed_1/snapshots_round_2.csv":
            "a0f23211b8be4c40e4b21cb41efab101ba405d7a023aab876a9615376bf2ae9b",
        "seed_2/snapshots_round_2.csv":
            "1b6607cd3c02c7495b1d6e01be1f40550090c1db0e69b911f38180f495d6e006",
    },
}


def _output_digests(cfg, names, out_dir):
    run_experiment(cfg, str(out_dir))
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names}


def test_golden_output_digests(tmp_path):
    assert _output_digests(GOLDEN, DIGESTS, tmp_path) == DIGESTS


def test_golden_large_rows_digests(tmp_path):
    assert _output_digests(GOLDEN_LARGE, LARGE_DIGESTS, tmp_path) == LARGE_DIGESTS


def test_golden_joint_grads_digests(tmp_path):
    assert _output_digests(GOLDEN_JOINT, JOINT_DIGESTS, tmp_path) == JOINT_DIGESTS


@pytest.mark.parametrize("variant", sorted(VARIANT_DIGESTS))
def test_golden_variant_digests(variant, tmp_path):
    cfg = dataclasses.replace(GOLDEN, variant=variant, strategy=VARIANT_STRATEGY[variant],
                              train=dataclasses.replace(GOLDEN.train, variant=variant))
    digests = VARIANT_DIGESTS[variant]
    assert _output_digests(cfg, digests, tmp_path) == digests


@pytest.mark.parametrize("strategy, assignment", sorted(SELECTION_DIGESTS))
def test_golden_selection_digests(strategy, assignment, tmp_path):
    cfg = dataclasses.replace(GOLDEN, strategy=strategy, assignment=assignment)
    digests = SELECTION_DIGESTS[strategy, assignment]
    assert _output_digests(cfg, digests, tmp_path) == digests
