import argparse
import dataclasses
import logging
import re
import struct

import numpy as np
import pytest

from mudal.cli import build_parser, main as cli_main
from mudal.config import (ASSIGNMENT_MODES, ConfigError, ExperimentConfig, config_to_text,
                          parse_config, parse_config_text)
from mudal.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, LabeledPool, RotatingSpec
from mudal import bounds, harness
from mudal.harness import build_dataset, export_outputs, run_experiment, run_seed
from mudal.models import ModelBundle
from mudal.simplex import SimilarityMatrix
from mudal.strategies import STRATEGIES
from mudal.training import VARIANTS, TrainConfig

MINIMAL = """
[dataset]
kind = rotating
n_domains = 3
train_per_domain = 30
test_per_domain = 15
n_classes = 3
total_range_deg = 90
seed = 0

[method]
variant = cal
strategy = grads
assignment = cal_optimal
"""

FAST_TRAIN = """
[train]
epochs = 2
batch_size = 8
latent_dim = 8
encoder_hidden = 10
classifier_hidden = 10
disc_hidden = 10
"""

FAST_BUDGET = """
[budget]
m0 = 6
m = 6
rounds = 2
"""


def fast_config(**over):
    cfg = parse_config_text(MINIMAL + FAST_TRAIN + FAST_BUDGET + "\n[output]\nseeds = 1\n")
    if over:
        import dataclasses
        cfg = dataclasses.replace(cfg, **over)
    return cfg


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.train.lambda_d == 1.0
        assert cfg.rounds == 5
        assert cfg.train.temperature == 0.5
        assert cfg.seeds == (1, 2, 3)
        assert cfg.m0 == 60 and cfg.m == 60

    def test_unknown_key_rejected_with_name(self):
        bad = MINIMAL + "\n[train]\nlamda_d = 1.0\n"
        with pytest.raises(ConfigError, match="lamda_d"):
            parse_config_text(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="sectio"):
            parse_config_text(MINIMAL + "\n[misc]\nx = 1\n")

    def test_round_trip(self, tmp_path):
        cfg = fast_config()
        text = config_to_text(cfg)
        again = parse_config_text(text)
        assert again == cfg
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        assert parse_config(path) == cfg

    def test_round_trip_every_train_field(self):
        train = TrainConfig(variant="cal_fa", lambda_d=0.25, epochs=3, batch_size=5,
                            lr=1e-3, lr_alpha=0.07, temperature=0.8, latent_dim=7,
                            encoder_hidden=(9, 4), classifier_hidden=(6,),
                            disc_hidden=(5, 3))
        defaults = TrainConfig()
        assert all(getattr(train, f.name) != getattr(defaults, f.name)
                   for f in dataclasses.fields(TrainConfig))
        cfg = dataclasses.replace(fast_config(), variant="cal_fa", train=train)
        assert parse_config_text(config_to_text(cfg)) == cfg

    def test_python_and_file_defaults_agree(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.train == TrainConfig()
        assert cfg == ExperimentConfig(dataset=cfg.dataset)

    def test_separate_divisibility_enforced(self):
        bad = MINIMAL.replace("assignment = cal_optimal", "assignment = separate")
        bad += "\n[budget]\nm0 = 6\nm = 7\nrounds = 1\n"
        with pytest.raises(ConfigError, match="divide"):
            parse_config_text(bad)

    def test_budget_floor_enforced(self):
        for assignment in ("cal_optimal", "joint"):
            bad = MINIMAL.replace("assignment = cal_optimal", f"assignment = {assignment}")
            bad += "\n[budget]\nm0 = 2\nm = 6\nrounds = 1\n"
            with pytest.raises(ConfigError, match="n_domains"):
                parse_config_text(bad)

    @pytest.mark.parametrize("kind", ["rotating", "idx"])
    def test_initial_budget_must_fit_a_domain(self, kind):
        # m0 = 7 over 2 domains puts ceil(7 / 2) = 4 labels in domain 0
        text = MINIMAL.replace("n_domains = 3", "n_domains = 2").replace(
            "train_per_domain = 30", "train_per_domain = 3")
        if kind == "idx":
            text = text.replace("kind = rotating", "kind = idx\nimages = i.idx\nlabels = l.idx")
            text = text.replace("n_classes = 3\n", "")
        budget = "\n[budget]\nm0 = {}\nm = 2\nrounds = 1\n"
        with pytest.raises(ConfigError, match="more than train_per_domain"):
            parse_config_text(text + budget.format(7))
        assert parse_config_text(text + budget.format(6)).m0 == 6

    def test_grads_requires_discriminator_variant(self):
        bad = MINIMAL.replace("variant = cal", "variant = vanilla")
        with pytest.raises(ConfigError, match="discriminator"):
            parse_config_text(bad)

    def test_variant_must_match_train_variant(self):
        spec = RotatingSpec(3, 40, 20, n_classes=3)
        for variant, strategy, train_variant in (("vanilla", "random", "cal"),
                                                 ("cal", "grads", "vanilla")):
            with pytest.raises(ConfigError, match="train.variant"):
                ExperimentConfig(dataset=spec, variant=variant, strategy=strategy,
                                 train=TrainConfig(train_variant, epochs=1, batch_size=8),
                                 m0=6, m=6, rounds=1, seeds=(1,))

    def test_repeated_seeds_rejected(self):
        with pytest.raises(ConfigError, match="repeated seeds"):
            fast_config(seeds=(1, 2, 1))
        with pytest.raises(ConfigError, match="repeated seeds"):
            parse_config_text(MINIMAL + "\n[output]\nseeds = 3,3\n")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="variant"):
            parse_config_text(MINIMAL.replace("variant = cal", "variant = cadl"))

    def test_idx_dataset_requires_paths(self):
        text = "[dataset]\nkind = idx\n"
        with pytest.raises(ConfigError, match="images"):
            parse_config_text(text)


class TestRunSeed:
    def test_budget_conservation_and_monotonicity(self):
        cfg = fast_config()
        ds = build_dataset(cfg)
        res = run_seed(cfg, ds, seed=1)
        assert res.truncated_at is None
        assert len(res.rounds) == cfg.rounds + 1
        total = res.ledger.labeled_counts().sum()
        assert total == cfg.m0 + cfg.rounds * cfg.m
        for incr in res.ledger.increments:
            assert incr.sum() == cfg.m
            assert np.all(incr >= 0)
        for rm in res.rounds:
            np.testing.assert_allclose(rm.avg_acc, rm.per_domain_acc.mean(), atol=1e-12)
            np.testing.assert_allclose(res.ledger.beta(rm.round).sum(), 1.0, atol=1e-9)

    def test_rounds_zero_only_initial(self):
        cfg = fast_config(rounds=0)
        ds = build_dataset(cfg)
        res = run_seed(cfg, ds, seed=1)
        assert len(res.rounds) == 1
        assert len(res.ledger.increments) == 0

    def test_separate_mode_even_increments(self):
        cfg = fast_config(assignment="separate", strategy="random")
        cfg = dataclasses.replace(cfg, variant="vanilla",
                                  train=dataclasses.replace(cfg.train, variant="vanilla"))
        ds = build_dataset(cfg)
        res = run_seed(cfg, ds, seed=2)
        for incr in res.ledger.increments:
            np.testing.assert_array_equal(incr, [2, 2, 2])

    def test_joint_mode_reveals_exactly_m(self):
        cfg = fast_config(assignment="joint", strategy="margin")
        ds = build_dataset(cfg)
        res = run_seed(cfg, ds, seed=3)
        assert res.ledger.labeled_counts().sum() == cfg.m0 + cfg.rounds * cfg.m
        for incr in res.ledger.increments:
            assert incr.sum() == cfg.m

    @pytest.mark.parametrize("seed", [1, 2])
    def test_budget_shares_track_column_importance(self, seed, caplog):
        # cal_optimal with no clamp: round r's shares are alpha's column
        # importance from round r - 1 times m0 + r*m, off by less than one
        # point per domain after rounding
        cfg = fast_config(rounds=6)
        assert cfg.assignment == "cal_optimal"
        with caplog.at_level(logging.INFO, logger="mudal.simplex"):
            res = run_seed(cfg, build_dataset(cfg), seed=seed)
        clamped = {rec.args[0] for rec in caplog.records if "clamping" in rec.getMessage()}
        n, ledger = res.ledger.beta(0).size, res.ledger
        checked = 0
        for r in range(1, len(ledger.increments) + 1):
            if r in clamped:
                continue
            cols = res.rounds[r - 1].alpha.column_importance()
            assert np.abs(ledger.beta(r) - cols).sum() < n / (cfg.m0 + r * cfg.m), r
            checked += 1
        assert checked >= 4

    @pytest.mark.parametrize("assignment, strategy, variant", [
        ("cal_optimal", "grads", "cal"), ("joint", "margin", "cal"),
        ("separate", "badge", "vanilla"), ("paper_literal", "random", "cal"),
    ])
    def test_each_row_block_encoded_once_per_round(self, assignment, strategy, variant,
                                                    monkeypatch):
        # per round, outside training: each domain's test rows, its labeled
        # rows and, with a discriminator, its train rows, plus the rows of each
        # nonempty margin/badge/grads request
        cfg = fast_config(assignment=assignment, strategy=strategy)
        cfg = dataclasses.replace(cfg, variant=variant,
                                  train=dataclasses.replace(cfg.train, variant=variant))
        per_round, training = [], [False]
        encode, train = ModelBundle.encode, harness.train_round

        def counting_encode(bundle, x):
            if not training[0]:
                per_round[-1] += 1
            return encode(bundle, x)

        def counted_train(*args):
            training[0] = True
            try:
                return train(*args)
            finally:
                training[0] = False
                per_round.append(0)

        monkeypatch.setattr(ModelBundle, "encode", counting_encode)
        monkeypatch.setattr(harness, "train_round", counted_train)
        res = run_seed(cfg, build_dataset(cfg), seed=1)
        n = 3
        blocks = 2 * n if variant == "vanilla" else 3 * n
        if strategy == "random":
            requests = [0] * cfg.rounds
        elif assignment == "joint":
            requests = [1] * cfg.rounds
        else:
            requests = [int(np.count_nonzero(incr)) for incr in res.ledger.increments]
        assert len(res.ledger.increments) == cfg.rounds
        assert per_round == [blocks + q for q in requests] + [blocks]

    @pytest.mark.parametrize("assignment, strategy", [
        ("cal_optimal", "grads"), ("joint", "margin"), ("separate", "random"),
    ])
    def test_unlabeled_rows_read_once_per_domain_per_query_round(self, assignment, strategy,
                                                                  monkeypatch):
        # the capacities, the per-domain requests and the joint request read
        # one list of each domain's unlabeled rows per query round
        cfg = fast_config(assignment=assignment, strategy=strategy)
        calls, unlabeled = [], LabeledPool.unlabeled_indices

        def counted(pool, j):
            calls.append(j)
            return unlabeled(pool, j)

        monkeypatch.setattr(LabeledPool, "unlabeled_indices", counted)
        res = run_seed(cfg, build_dataset(cfg), seed=1)
        assert len(res.ledger.increments) == cfg.rounds
        assert calls == [0, 1, 2] * cfg.rounds

    def test_paper_literal_mode_runs(self):
        cfg = fast_config(assignment="paper_literal")
        ds = build_dataset(cfg)
        res = run_seed(cfg, ds, seed=4)
        assert len(res.ledger.increments) == cfg.rounds

    def test_truncation_marker_on_exhaustion(self):
        cfg = fast_config(rounds=30)  # 6 + 30*6 > 3*30 available
        ds = build_dataset(cfg)
        res = run_seed(cfg, ds, seed=5)
        assert res.truncated_at is not None
        assert res.ledger.labeled_counts().sum() <= sum(
            ds.train_size(j) for j in range(ds.n_domains))


class TestExportAndRun:
    def test_file_set_and_row_counts(self, tmp_path):
        cfg = fast_config(out_dir=str(tmp_path / "out"))
        paths = run_experiment(cfg)
        names = {p.split("/")[-1] for p in paths}
        assert "metrics.csv" in names and "bounds.csv" in names
        assert "config.resolved" in names
        metrics = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        n, rounds, seeds = 3, cfg.rounds + 1, len(cfg.seeds)
        assert len(metrics) == 1 + seeds * rounds * (n + 1)
        bounds = (tmp_path / "out" / "bounds.csv").read_text().splitlines()
        assert len(bounds) == 1 + seeds * rounds
        assert bounds[0] == "variant,seed,round,weighted_err,hoeffding,mean_hdist,vlambda_proxy,total"

    def test_alpha_export_reloads_as_valid_matrix(self, tmp_path):
        cfg = fast_config(out_dir=str(tmp_path / "out"))
        run_experiment(cfg)
        for r in range(cfg.rounds + 1):
            mat = SimilarityMatrix.from_csv(tmp_path / "out" / "seed_1" / f"alpha_round_{r}.csv")
            np.testing.assert_allclose(mat.alpha.sum(axis=1), 1.0, atol=1e-6)

    def test_rerun_byte_identical(self, tmp_path):
        cfg1 = fast_config(out_dir=str(tmp_path / "a"))
        cfg2 = fast_config(out_dir=str(tmp_path / "b"))
        run_experiment(cfg1)
        run_experiment(cfg2)
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b

    def test_empty_results_header_only(self, tmp_path):
        cfg = fast_config()
        paths = export_outputs(cfg, [], str(tmp_path / "empty"))
        metrics = (tmp_path / "empty" / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 1
        bounds = (tmp_path / "empty" / "bounds.csv").read_text().splitlines()
        assert len(bounds) == 1

    def test_truncation_marker_file(self, tmp_path):
        cfg = fast_config(rounds=30, out_dir=str(tmp_path / "trunc"))
        run_experiment(cfg)
        marker = tmp_path / "trunc" / "truncation.txt"
        assert marker.exists()
        assert "exhausted" in marker.read_text()


class TestCli:
    def test_bad_config_exit_2(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL + "\n[train]\nlamda_d = 1\n")
        assert cli_main(["run", str(path)]) == 2

    def test_missing_file_exit_2(self):
        assert cli_main(["run", "/does/not/exist.cfg"]) == 2

    def test_run_and_overrides(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL + FAST_TRAIN + FAST_BUDGET + "\n[output]\nseeds = 1\n")
        code = cli_main(["run", str(path), "--out", str(tmp_path / "o"),
                         "--strategy", "random", "--mode", "separate",
                         "--variant", "cal"])
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics.csv" in out
        resolved = (tmp_path / "o" / "config.resolved").read_text()
        assert "strategy = random" in resolved
        assert "assignment = separate" in resolved

    def test_numerical_abort_exit_3_names_seed_round_and_epoch(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL + FAST_TRAIN + "lr = 1e200\n" + FAST_BUDGET
                        + "\n[output]\nseeds = 4\n")
        assert cli_main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical abort: seed 4, round 0: training diverged at epoch ")
        assert not (tmp_path / "o").exists()

    def test_numerical_abort_names_the_phase(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL + FAST_TRAIN + "lr = 1e200\n" + FAST_BUDGET
                        + "\n[output]\nseeds = 4\n")
        assert cli_main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        phases = ("encoder forward", "classifier forward", "discriminator update",
                  "discriminator forward", "alpha step", "V_d", "V_h", "V_lambda", "backward",
                  "optimizer step", "epoch snapshot")
        match = re.match(r"numerical abort: seed 4, round 0: training diverged at epoch \d+: "
                         r"([^:]+): ", err)
        assert match and match.group(1) in phases, err

    @pytest.mark.parametrize("flag, shown", [([], False), (["--log-level", "INFO"], True),
                                             (["--log-level", "info"], True)])
    def test_log_level_shows_the_budget_clamp(self, flag, shown, tmp_path, capsys):
        # paper_literal budgets follow the change in alpha's columns, which
        # is negative somewhere in every round that moves alpha
        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL.replace("cal_optimal", "paper_literal") + FAST_TRAIN
                        + FAST_BUDGET + "\n[output]\nseeds = 1\n")
        assert cli_main([*flag, "run", str(path), "--out", str(tmp_path / "o")]) == 0
        err = capsys.readouterr().err
        assert ("INFO mudal.simplex: budget round 1: clamping triggered" in err) == shown
        assert not logging.getLogger("mudal").handlers

    def test_debug_level_shows_each_kmeanspp_call(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL + FAST_TRAIN + FAST_BUDGET + "\n[output]\nseeds = 1\n")
        assert cli_main(["--log-level", "DEBUG", "run", str(path),
                         "--out", str(tmp_path / "o")]) == 0
        records = re.findall(r"DEBUG mudal\.strategies: k-means\+\+ over \d+ rows, "
                             r"k=\d+: \d+ exact fallbacks", capsys.readouterr().err)
        assert records  # GRADS runs k-means++ in every domain with a budget

    def test_bad_log_level_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--log-level", "LOUD", "gradcheck"])
        assert exc.value.code == 2
        assert "--log-level" in capsys.readouterr().err

    def test_bad_seeds_exit_2(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL + FAST_TRAIN + FAST_BUDGET)
        for bad in ("1,x", ",", "", "1,1", "-1", "2,-3"):
            assert cli_main(["run", str(path), "--seeds", bad,
                             "--out", str(tmp_path / "o")]) == 2
            assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [
        MINIMAL.replace("n_domains = 3", "n_domains = 0") + FAST_TRAIN + FAST_BUDGET,
        MINIMAL + FAST_TRAIN.replace("latent_dim = 8", "latent_dim = 0") + FAST_BUDGET,
        MINIMAL + FAST_TRAIN.replace("disc_hidden = 10", "disc_hidden = 10,0") + FAST_BUDGET,
        MINIMAL.replace("cal_optimal", "joint") + FAST_TRAIN + FAST_BUDGET.replace("m = 6",
                                                                                  "m = -3"),
        MINIMAL.replace("n_classes = 3", "n_classes = 40") + FAST_TRAIN + FAST_BUDGET,
        MINIMAL.replace("n_classes = 3", "n_classes = 1").replace("grads", "margin")
        + FAST_TRAIN + FAST_BUDGET,
        # readable IDX files (written below), so only the bad value can stop the run
        MINIMAL.replace("kind = rotating", "kind = idx\nimages = {dir}/img.idx\n"
                        "labels = {dir}/lab.idx")
        .replace("n_classes = 3\n", "").replace("n_domains = 3", "n_domains = 0")
        + FAST_TRAIN + FAST_BUDGET,
        MINIMAL.replace("seed = 0", "seed = -2") + FAST_TRAIN + FAST_BUDGET,
        MINIMAL.replace("kind = rotating", "kind = idx\nimages = {dir}/img.idx\n"
                        "labels = {dir}/lab.idx")
        .replace("n_classes = 3\n", "").replace("seed = 0", "seed = -2")
        + FAST_TRAIN + FAST_BUDGET,
        MINIMAL + FAST_TRAIN + FAST_BUDGET + "\n[output]\nseeds = 1,-1\n",
        # ceil(10 / 2) = 5 initial labels in a domain of 3 train points
        MINIMAL.replace("n_domains = 3", "n_domains = 2")
        .replace("train_per_domain = 30", "train_per_domain = 3").replace("grads", "random")
        + FAST_TRAIN + FAST_BUDGET.replace("m0 = 6", "m0 = 10"),
    ], ids=["n_domains_0", "latent_dim_0", "hidden_width_0", "joint_m_negative",
            "n_classes_40", "n_classes_1", "idx_n_domains_0", "dataset_seed_negative",
            "idx_seed_negative", "output_seed_negative", "m0_exceeds_train"])
    def test_bad_values_exit_2(self, text, tmp_path, capsys):
        (tmp_path / "img.idx").write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 4, 2, 2)
                                           + bytes(16))
        (tmp_path / "lab.idx").write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, 4) + bytes(4))
        path = tmp_path / "bad.cfg"
        path.write_text(text.replace("{dir}", str(tmp_path)))
        assert cli_main(["run", str(path), "--seeds", "1", "--out", str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("magic, images, pixels, message", [
        (IDX_IMAGE_MAGIC, 40, 10, "truncated pixel data at byte offset 26"),
        (0, 40, 40 * 16, "bad magic 0x00000000"),
        # 3 domains x (30 + 15) points need 135 images
        (IDX_IMAGE_MAGIC, 40, 40 * 16, "need 135 samples, have 40"),
        # enough images, but every label is 0
        (IDX_IMAGE_MAGIC, 140, 140 * 16, "labels give 1 class"),
    ], ids=["truncated_pixels", "bad_magic", "too_few_images", "one_class"])
    def test_corrupt_idx_exit_2(self, magic, images, pixels, message, tmp_path, capsys):
        # a pair of 4x4 images with all-zero pixels and labels, broken one way
        # per case
        (tmp_path / "img.idx").write_bytes(struct.pack(">IIII", magic, images, 4, 4)
                                           + bytes(pixels))
        (tmp_path / "lab.idx").write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, images)
                                           + bytes(images))
        path = tmp_path / "bad.cfg"
        idx = f"kind = idx\nimages = {tmp_path}/img.idx\nlabels = {tmp_path}/lab.idx"
        path.write_text(MINIMAL.replace("kind = rotating", idx).replace("n_classes = 3\n", "")
                        + FAST_TRAIN + FAST_BUDGET)
        assert cli_main(["run", str(path), "--seeds", "1", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and message in err
        assert not (tmp_path / "o").exists()

    def test_run_choices_are_the_package_names(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        choices = {a.dest: a.choices for a in sub.choices["run"]._actions}
        assert choices["variant"] is VARIANTS
        assert choices["strategy"] is STRATEGIES
        assert choices["mode"] is ASSIGNMENT_MODES

    def test_verify_theory_exit_0(self, capsys):
        assert cli_main(["verify-theory", "--grid-step", "0.02"]) == 0
        assert "ok" in capsys.readouterr().out

    @pytest.mark.parametrize("step", ["0.3", "0", "nan", "-0.5", "0.75", "x", "0.005"])
    def test_verify_theory_bad_grid_step_exit_2(self, step, capsys, monkeypatch):
        def no_grid(*args):
            raise AssertionError("the grid was searched")

        monkeypatch.setattr(bounds, "greedy_increments", no_grid)
        with pytest.raises(SystemExit) as exc:
            cli_main(["verify-theory", "--grid-step", step])
        assert exc.value.code == 2
        assert "--grid-step" in capsys.readouterr().err

    def test_gradcheck_exit_0(self, capsys):
        assert cli_main(["gradcheck"]) == 0
