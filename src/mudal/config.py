"""Experiment configuration: a strict key-value text format with sections
[dataset], [method], [train], [budget], [output]. Unknown sections or keys are
rejected outright so typos cannot silently fall back to defaults."""
from __future__ import annotations

import configparser
import io
from dataclasses import MISSING, dataclass, field, fields as dc_fields

from .data import RotatingSpec
from .training import TrainConfig, VARIANTS
from .strategies import STRATEGIES

ASSIGNMENT_MODES = ("cal_optimal", "separate", "joint", "paper_literal")


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 2)."""


@dataclass(frozen=True)
class IdxDatasetSpec:
    """Rotating domains built from an IDX image/label file pair."""

    images: str
    labels: str
    n_domains: int = 6
    train_per_domain: int = 400
    test_per_domain: int = 160
    total_range_deg: float = 180.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_domains < 1:
            raise ValueError("n_domains must be >= 1")
        if self.train_per_domain < 1 or self.test_per_domain < 1:
            raise ValueError("need at least one train and one test point per domain")
        if self.total_range_deg <= 0:
            raise ValueError("total_range_deg must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: RotatingSpec | IdxDatasetSpec
    variant: str = "cal"
    strategy: str = "grads"
    assignment: str = "cal_optimal"
    train: TrainConfig = field(default_factory=TrainConfig)
    m0: int = 60
    m: int = 60
    rounds: int = 5
    seeds: tuple[int, ...] = (1, 2, 3)
    out_dir: str = "mudal_out"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.train.variant != self.variant:
            raise ConfigError(f"variant {self.variant!r} disagrees with "
                              f"train.variant {self.train.variant!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.assignment not in ASSIGNMENT_MODES:
            raise ConfigError(f"unknown assignment mode {self.assignment!r}")
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        n = self.dataset.n_domains
        if self.m0 < n:
            raise ConfigError(f"m0 must be >= n_domains ({n})")
        # the initial pool splits m0 evenly, so its largest share is ceil(m0 / N)
        share, train = -(-self.m0 // n), self.dataset.train_per_domain
        if share > train:
            raise ConfigError(f"m0 = {self.m0} gives a domain {share} initial labels, "
                              f"more than train_per_domain ({train})")
        if self.m < 1:
            raise ConfigError("m must be >= 1")
        if self.assignment != "joint" and self.m < n:
            raise ConfigError(f"m must be >= n_domains ({n}) for {self.assignment}")
        if self.assignment == "separate" and self.m % n != 0:
            raise ConfigError(f"separate assignment needs n_domains ({n}) to divide m ({self.m})")
        if self.strategy == "grads" and not self.train.trains_discriminator:
            raise ConfigError("the grads strategy needs a discriminator; "
                              "pair it with the cal, cal_alpha, or cal_fa variant")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {self.seeds}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"repeated seeds in {self.seeds}")


def parse_int_tuple(s: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in s.split(",") if p.strip())
    except ValueError:
        parts = ()
    if not parts:
        raise ConfigError(f"expected comma-separated integers, got {s!r}")
    return parts


# field annotation (a string under `from __future__ import annotations`) -> parser
_PARSERS = {"str": str, "int": int, "float": float, "tuple[int, ...]": parse_int_tuple}


def _schema(cls, names=None, rename=None) -> dict:
    """INI key -> (field name, parser, default) for the fields of dataclass
    `cls` (only `names`, if given), so each default lives on its field.
    `rename` maps a field name to its INI key where the two differ. A default
    of None marks a required key."""
    rename = rename or {}
    return {rename.get(f.name, f.name): (f.name, _PARSERS[f.type],
                                         None if f.default is MISSING else f.default)
            for f in dc_fields(cls) if names is None or f.name in names}


_DATASET = {"rotating": _schema(RotatingSpec), "idx": _schema(IdxDatasetSpec)}
_METHOD = _schema(ExperimentConfig, ("variant", "strategy", "assignment"))
_TRAIN = _schema(TrainConfig)
del _TRAIN["variant"]  # set from [method]
_BUDGET = _schema(ExperimentConfig, ("m0", "m", "rounds"))
_OUTPUT = _schema(ExperimentConfig, ("seeds", "out_dir"), rename={"out_dir": "dir"})

_SECTIONS = ("dataset", "method", "train", "budget", "output")


def _read_section(cp: configparser.ConfigParser, name: str, schema: dict) -> dict:
    """Field name -> parsed value for every key of `schema`."""
    out = {}
    raw = dict(cp[name]) if cp.has_section(name) else {}
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
    for key, (field_name, conv, default) in schema.items():
        if key in raw:
            try:
                out[field_name] = conv(raw[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for [{name}] {key}: {exc}") from exc
        elif default is None:
            raise ConfigError(f"missing required key {key!r} in section [{name}]")
        else:
            out[field_name] = default
    return out


def parse_config_text(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"could not parse config: {exc}") from exc
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    if not cp.has_section("dataset"):
        raise ConfigError("missing required section [dataset]")

    kind = cp["dataset"].pop("kind", "rotating").strip()
    if kind not in _DATASET:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    d = _read_section(cp, "dataset", _DATASET[kind])
    method = _read_section(cp, "method", _METHOD)
    train_kw = _read_section(cp, "train", _TRAIN)
    try:
        dataset = RotatingSpec(**d) if kind == "rotating" else IdxDatasetSpec(**d)
        train = TrainConfig(variant=method["variant"], **train_kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(dataset=dataset, train=train, **method,
                            **_read_section(cp, "budget", _BUDGET),
                            **_read_section(cp, "output", _OUTPUT))


def parse_config(path) -> ExperimentConfig:
    with open(path, "r") as f:
        return parse_config_text(f.read())


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_to_text(cfg: ExperimentConfig) -> str:
    """Serialize a config with every value resolved; parsing it back yields an
    equal ExperimentConfig."""
    kind = "rotating" if isinstance(cfg.dataset, RotatingSpec) else "idx"
    buf = io.StringIO()
    buf.write(f"[dataset]\nkind = {kind}\n")
    sections = (("dataset", _DATASET[kind], cfg.dataset), ("method", _METHOD, cfg),
                ("train", _TRAIN, cfg.train), ("budget", _BUDGET, cfg),
                ("output", _OUTPUT, cfg))
    for name, schema, obj in sections:
        if name != "dataset":
            buf.write(f"\n[{name}]\n")
        for key, (field_name, _, _) in schema.items():
            buf.write(f"{key} = {_fmt(getattr(obj, field_name))}\n")
    return buf.getvalue()
