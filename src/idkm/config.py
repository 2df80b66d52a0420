"""Run configuration: a single INI file with per-layer sections.

Sections: [run] names the dataset and output directory, [data] parameterizes
synthetic data, [model] holds the loss, [layer.N] sections define the
network in order, [pretrain] and [quantize] hold the two training phases.
Unknown sections or keys fail fast with the offending name; command-line
flags override file values. A key that neither sets keeps the default of the
dataclass or function that takes it, so no default is restated here.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, ParamError
from .gradients import BACKEND_KINDS, GradBackend
from .nn import LAYER_KINDS, LOSS_KINDS, LayerSpec, Network
from .solver import INIT_KINDS, InitStrategy
from .training import TrainConfig

DATASET_KINDS = ("blobs", "mnist")

# The keys of each section, with the type of each value; a tuple of strings
# lists the values the key accepts.
SECTION_TYPES = {
    "run": {"dataset": DATASET_KINDS, "data_dir": str, "out": str, "seed": int},
    "data": {
        "classes": int,
        "points_per_class": int,
        "dim": int,
        "separation": float,
        "image_channels": int,
        "image_height": int,
        "image_width": int,
    },
    "model": {"loss": LOSS_KINDS},
    "pretrain": {
        "lr": float,
        "epochs": int,
        "batch_size": int,
        "accuracy_floor": float,
        "seed": int,
    },
    "quantize": {
        "k": int,
        "d": int,
        "tau": float,
        "lr": float,
        "epochs": int,
        "batch_size": int,
        "max_cluster_iters": int,
        "eps": float,
        "backend": BACKEND_KINDS,
        "fallback_jfb": bool,
        "init": INIT_KINDS,
        "seed": int,
    },
}

_LAYER_TYPES = {
    "kind": LAYER_KINDS,
    "in_features": int,
    "out_features": int,
    "in_channels": int,
    "out_channels": int,
    "kernel": int,
    "stride": int,
    "padding": str,
    "quantize": bool,
}

# Keys whose parameter has another name in train_float and TrainConfig.
_PARAM_NAMES = {"lr": "learning_rate"}


@dataclass
class RunConfig:
    """Everything a command needs, already validated and typed."""

    dataset: str = "blobs"
    data_dir: str | None = None
    out: str = "runs/default"
    seed: int = 0
    data: dict = field(default_factory=dict)
    loss: str = "cross_entropy"
    layers: tuple[LayerSpec, ...] = ()
    pretrain: dict = field(default_factory=dict)
    quantize: dict = field(default_factory=dict)

    def network(self) -> Network:
        if not self.layers:
            raise ConfigError("config defines no [layer.N] sections")
        return Network(layers=self.layers)

    def echo(self) -> dict:
        """Flat JSON-friendly snapshot written into every report."""
        return {
            "dataset": self.dataset,
            "out": self.out,
            "seed": self.seed,
            "loss": self.loss,
            "data": dict(self.data),
            "layers": [
                {k: v for k, v in vars(spec).items()} for spec in self.layers
            ],
            "pretrain": dict(self.pretrain),
            "quantize": dict(self.quantize),
        }


def _typed(section: str, key: str, raw: str, kind):
    if isinstance(kind, tuple):
        if raw not in kind:
            raise ConfigError(
                f"[{section}] {key} = {raw!r}, expected one of {kind}"
            )
        return raw
    try:
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not a valid {kind.__name__}"
        ) from None


def _typed_section(parser, section: str, types: dict) -> dict:
    """The section's values, typed; an unknown key fails with its name."""
    for key in parser.options(section):
        if key not in types:
            raise ConfigError(f"unknown key {key!r} in [{section}]")
    return {
        key: _typed(section, key, raw, types[key])
        for key, raw in parser.items(section)
    }


def _layer_sections(parser) -> tuple[LayerSpec, ...]:
    indices = []
    for section in parser.sections():
        if not section.startswith("layer."):
            continue
        suffix = section[len("layer.") :]
        if not suffix.isdigit():
            raise ConfigError(f"bad layer section name [{section}]")
        indices.append(int(suffix))
    if not indices:
        return ()
    indices.sort()
    if indices != list(range(len(indices))):
        raise ConfigError(
            f"layer sections must be contiguous from 0, got {indices}"
        )
    specs = []
    for i in indices:
        section = f"layer.{i}"
        fields = _typed_section(parser, section, _LAYER_TYPES)
        if "kind" not in fields:
            raise ConfigError(f"[{section}] is missing 'kind'")
        try:
            specs.append(LayerSpec(**fields))
        except Exception as exc:
            raise ConfigError(f"[{section}]: {exc}") from exc
    return tuple(specs)


def parse_config(path) -> RunConfig:
    """Load and validate an INI run configuration."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    cfg = RunConfig()
    for section in parser.sections():
        if section.startswith("layer."):
            continue
        if section not in SECTION_TYPES:
            raise ConfigError(f"unknown section [{section}] in {path}")
        values = _typed_section(parser, section, SECTION_TYPES[section])
        if section in ("run", "model"):  # their keys are RunConfig fields
            for key, value in values.items():
                setattr(cfg, key, value)
        else:
            setattr(cfg, section, values)
    cfg.layers = _layer_sections(parser)
    return cfg


def _params(section: str, values: dict, overrides: dict | None) -> dict:
    """A section's values, with the set overrides laid over them.

    Only the section's keys are read from `overrides`, and a None value is
    an unset flag, so an argparse namespace can be passed as it is. The
    result is keyed by parameter name.
    """
    given = dict(values)
    for key, value in (overrides or {}).items():
        if key in SECTION_TYPES[section] and value is not None:
            given[key] = value
    return {_PARAM_NAMES.get(key, key): value for key, value in given.items()}


def pretrain_params(cfg: RunConfig, overrides: dict | None = None) -> dict:
    """Merge [pretrain] values with flag overrides into train_float arguments.

    The run seed is the default seed. accuracy_floor, which train_float does
    not take, is passed on when set, for the caller to take out.
    """
    params = _params("pretrain", cfg.pretrain, overrides)
    params.setdefault("seed", cfg.seed)
    return {**params, "loss_kind": cfg.loss}


def build_train_config(cfg: RunConfig, overrides: dict | None = None) -> TrainConfig:
    """Merge [quantize] values with flag overrides into a TrainConfig.

    Only the keys that the file or a flag set are passed on. backend and
    init set the kind of GradBackend and InitStrategy, and the run seed is
    the default seed of both the run and its init.
    """
    params = _params("quantize", cfg.quantize, overrides)
    seed = params.setdefault("seed", cfg.seed)
    backend = {"kind": params.pop("backend")} if "backend" in params else {}
    init = {"kind": params.pop("init")} if "init" in params else {}
    try:
        return TrainConfig(
            backend=GradBackend(**backend),
            init=InitStrategy(seed=seed, **init),
            loss_kind=cfg.loss,
            **params,
        )
    except ParamError as exc:
        raise ConfigError(str(exc)) from exc
