import argparse
import dataclasses

import numpy as np
import pytest

from mudal.cli import build_parser, main as cli_main
from mudal.config import (ASSIGNMENT_MODES, ConfigError, ExperimentConfig, config_to_text,
                          parse_config, parse_config_text)
from mudal.data import RotatingSpec
from mudal.harness import build_dataset, export_outputs, run_experiment, run_seed
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
            np.testing.assert_allclose(rm.beta.sum(), 1.0, atol=1e-9)

    def test_rounds_zero_only_initial(self):
        cfg = fast_config(rounds=0)
        ds = build_dataset(cfg)
        res = run_seed(cfg, ds, seed=1)
        assert len(res.rounds) == 1
        assert res.ledger.rounds_recorded == 0

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

    def test_paper_literal_mode_runs(self):
        cfg = fast_config(assignment="paper_literal")
        ds = build_dataset(cfg)
        res = run_seed(cfg, ds, seed=4)
        assert res.ledger.rounds_recorded == cfg.rounds

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

    def test_bad_seeds_exit_2(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL + FAST_TRAIN + FAST_BUDGET)
        for bad in ("1,x", ",", "", "1,1"):
            assert cli_main(["run", str(path), "--seeds", bad,
                             "--out", str(tmp_path / "o")]) == 2
            assert "config error:" in capsys.readouterr().err
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

    def test_gradcheck_exit_0(self, capsys):
        assert cli_main(["gradcheck"]) == 0
