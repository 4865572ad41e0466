"""A config-space fuzz of `mudal run`: every config exits 0, 2 or 3.

The strategy writes INI text for either dataset kind whose keys come from
`config`'s schema tables, so a new field joins the fuzz by itself. Each
value is drawn from the field's edges (0, 1, negatives, huge values, floats
where an int belongs, bad tuples and words) or from a small range that keeps
a run cheap. Keys that set a run's cost are always written, the rest only
sometimes, so their defaults are fuzzed too. The output directory is always
`--out`, a fresh temporary directory. An `idx` example also draws a small
IDX image/label pair, written next to the config (`test_data.write_idx_pair`),
whose paths its `images` and `labels` keys name, or now and then a wrong
file, a directory or no file at all. A fixed config whose first seed logs a
warning and whose second seed aborts pins the order on stderr: the verdict
line first, then the run's log records.
"""
import contextlib
import csv
import functools
import io
import pathlib
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from mudal import config
from mudal.cli import main as cli_main
from mudal.simplex import SimilarityMatrix
from mudal.strategies import STRATEGIES
from mudal.training import VARIANTS
from test_data import write_idx_pair

OUTPUT = {k: v for k, v in config._OUTPUT.items() if k != "dir"}
SECTIONS = {kind: {"dataset": config._DATASET[kind], "method": config._METHOD,
                   "train": config._TRAIN, "budget": config._BUDGET, "output": OUTPUT}
            for kind in config._DATASET}
# keys whose size sets a run's cost: always written, their values kept small
# (a huge value only where it is refused or cheap)
RANGES = {"n_domains": (1, 4), "train_per_domain": (1, 30), "test_per_domain": (1, 10),
          "n_classes": (2, 5), "epochs": (1, 2), "batch_size": (1, 40), "latent_dim": (1, 6),
          "m0": (1, 24), "m": (1, 12), "rounds": (0, 3)}
HUGE = {"n_domains", "batch_size", "m0", "m", "seed", "seeds"}
WORDS = {"variant": VARIANTS, "strategy": STRATEGIES, "assignment": config.ASSIGNMENT_MODES,
         "base_shape": ("gaussian_blobs", "two_moons_k")}
FLOATS = {"lr": ("0.002", "0.01"), "total_range_deg": ("90", "360", "0.5"),
          "noise": ("0.15", "0.05", "0")}
EDGES = ["", "x", "-1", "0"]
# an IDX path key names its file, or the other file, the directory or nothing
PATHS = {"images": ("{images}", ["{labels}", "{dir}", "{dir}/none.idx", ""]),
         "labels": ("{labels}", ["{images}", "{dir}", "{dir}/none.idx", ""])}


@functools.cache
def values(key: str, parser):
    """The text of a value for `key`, parsed by `parser`: mostly one that
    the field accepts on its own, one in 16 times an edge."""
    huge = ["10" * 7] if key in HUGE else []
    if key in PATHS:
        good, edges = st.just(PATHS[key][0]), PATHS[key][1]
    elif key in WORDS:
        good, edges = st.sampled_from(WORDS[key]), ["x", ""]
    elif parser is int:
        good, edges = st.integers(*RANGES.get(key, (0, 8))).map(str), [*EDGES, "1", "2.0", *huge]
    elif parser is float:
        good = st.sampled_from(FLOATS.get(key, ("0.5", "1", "0.01")))
        edges = [*EDGES, "1e300", "inf", "nan"]
    elif parser is config.parse_int_tuple:
        good = st.lists(st.integers(*RANGES.get(key, (1, 6))), min_size=1, max_size=2,
                        unique=True).map(lambda v: ",".join(map(str, v)))
        edges = [*EDGES, "1,1", "2,-1", "4,x", ",", "1,", *huge]
    else:
        good, edges = st.just("x"), [""]
    # hypothesis favours a range's ends, so the edge takes a value from its middle
    return st.integers(0, 15).flatmap(lambda k: st.sampled_from(edges) if k == 7 else good)


@st.composite
def idx_pairs(draw) -> tuple[np.ndarray, np.ndarray, bool]:
    """Square uint8 images (n, side, side), their labels, and whether the
    image file is cut short. 200 images, three times in four, cover the
    largest draw of domains x (train + test) rows; a draw with fewer is
    refused, as is one whose labels give a single class."""
    n = 200 if draw(st.integers(0, 3)) else draw(st.integers(1, 200))
    side, classes = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    images = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
    return images, rng.integers(0, classes, size=n, dtype=np.uint8), draw(st.integers(0, 15)) == 7


@st.composite
def config_texts(draw) -> tuple[str, tuple | None]:
    """INI text, and for an `idx` config the `idx_pairs` draw its paths name
    (as placeholders the test fills in)."""
    kind = draw(st.sampled_from(sorted(SECTIONS)))
    lines = []
    for section, schema in SECTIONS[kind].items():
        lines.append(f"[{section}]")
        if section == "dataset":
            lines.append(f"kind = {kind}")
        for key, (_, parser, default) in schema.items():
            required = default is None and draw(st.integers(0, 15)) != 7
            if key in RANGES or key == "seeds" or required or draw(st.booleans()):
                lines.append(f"{key} = {draw(values(key, parser))}")
        if draw(st.integers(0, 30)) == 17:
            lines.append("no_such_key = 1")
    return "\n".join(lines) + "\n", draw(idx_pairs()) if kind == "idx" else None


def rows(path: pathlib.Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_outputs(out: pathlib.Path) -> None:
    """Item by item, what a run that exits 0 must have written."""
    cfg = config.parse_config(out / "config.resolved")
    truncation = out / "truncation.txt"
    stops = {}  # seed -> the query round it stopped before
    if truncation.exists():
        for line in truncation.read_text().splitlines():
            seed, rest = line.split(": stopped before query round ")
            stops[int(seed.removeprefix("seed "))] = int(rest.split()[0])
    metrics = rows(out / "metrics.csv")
    for seed in cfg.seeds:
        last = stops.get(seed, cfg.rounds + 1) - 1
        avg = [r for r in metrics if r["seed"] == str(seed) and r["domain"] == "avg"]
        assert [int(r["round"]) for r in avg] == list(range(last + 1))
        assert all(int(r["n_labeled"]) == cfg.m0 + k * cfg.m for k, r in enumerate(avg))
        for r in metrics:
            if r["seed"] == str(seed) and r["domain"] != "avg":
                # an increment within its round's capacity: no domain labels more than it has
                assert 0 <= int(r["increment"]) and int(r["n_labeled"]) <= \
                    cfg.dataset.train_per_domain
        for k in range(last + 1):
            SimilarityMatrix.from_csv(out / f"seed_{seed}" / f"alpha_round_{k}.csv")
    for r in rows(out / "bounds.csv"):
        assert all(float(r[c]) >= 0 for c in ("weighted_err", "hoeffding", "mean_hdist",
                                              "vlambda_proxy", "total"))


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config_texts())
def test_every_config_exits_0_2_or_3(example):
    text, idx = example
    with tempfile.TemporaryDirectory() as tmp:
        path, out = pathlib.Path(tmp) / "exp.cfg", pathlib.Path(tmp) / "out"
        if idx is not None:
            images, labels, cut = idx
            img_path, lab_path = write_idx_pair(pathlib.Path(tmp), images, labels)
            if cut:  # a truncated pixel block
                img_path.write_bytes(img_path.read_bytes()[:-1])
            text = text.format(images=img_path, labels=lab_path, dir=tmp)
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["run", str(path), "--out", str(out)])
        assert code in (0, 2, 3), (code, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("config error:"), err.getvalue()
            assert not out.exists()
        elif code == 3:
            assert err.getvalue().startswith("numerical abort:"), err.getvalue()
        else:
            check_outputs(out)


# seed 2 logs a warning (its pool runs out before round 1), then seed 1 aborts
LOGS_THEN_ABORTS = """\
[dataset]
kind = rotating
n_domains = 1
train_per_domain = 8
test_per_domain = 1
n_classes = 3
seed = 4
[method]
variant = cal_alpha
[train]
lambda_d = 1e300
epochs = 1
batch_size = 1
latent_dim = 1
disc_hidden = 1
[budget]
m0 = 3
m = 6
rounds = 1
[output]
seeds = 2,1
"""


def test_the_verdict_comes_before_the_log_records(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(LOGS_THEN_ABORTS)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["run", str(path), "--out", str(tmp_path / "out")])
    lines = err.getvalue().splitlines()
    assert code == 3, err.getvalue()
    assert lines[0].startswith("numerical abort: seed 1, round 0: "), lines
    assert lines[1:] == ["WARNING mudal.harness: seed 2: unlabeled pool exhausted before round 1"]
