"""Run configuration: a single INI file with per-layer sections.

Sections: [run] names the dataset and output directory, [data] parameterizes
synthetic data, [model] holds the loss, [layer.N] sections define the
network in order, [pretrain] and [quantize] hold the two training phases.
Unknown sections or keys fail fast with the offending name; command-line
flags override file values, which override the defaults baked in here.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .gradients import BACKEND_KINDS, GradBackend
from .nn import LAYER_KINDS, LOSS_KINDS, LayerSpec, Network
from .solver import INIT_KINDS, InitStrategy
from .training import TrainConfig

SECTION_KEYS = {
    "run": {"dataset", "data_dir", "out", "seed"},
    "data": {
        "classes",
        "points_per_class",
        "dim",
        "separation",
        "image_channels",
        "image_height",
        "image_width",
    },
    "model": {"loss"},
    "pretrain": {"lr", "epochs", "batch_size", "accuracy_floor", "seed"},
    "quantize": {
        "k",
        "d",
        "tau",
        "lr",
        "epochs",
        "batch_size",
        "max_cluster_iters",
        "eps",
        "backend",
        "alpha0",
        "max_adjoint_iters",
        "max_restarts",
        "adjoint_eps",
        "fallback_jfb",
        "init",
        "seed",
    },
}

LAYER_SECTION_KEYS = {
    "kind",
    "in_features",
    "out_features",
    "in_channels",
    "out_channels",
    "kernel",
    "stride",
    "padding",
    "quantize",
}

DATASET_KINDS = ("blobs", "mnist")


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


def _typed(section: str, key: str, raw: str, kind: type):
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


_DATA_TYPES = {
    "classes": int,
    "points_per_class": int,
    "dim": int,
    "separation": float,
    "image_channels": int,
    "image_height": int,
    "image_width": int,
}

_PRETRAIN_TYPES = {
    "lr": float,
    "epochs": int,
    "batch_size": int,
    "accuracy_floor": float,
    "seed": int,
}

_QUANTIZE_TYPES = {
    "k": int,
    "d": int,
    "tau": float,
    "lr": float,
    "epochs": int,
    "batch_size": int,
    "max_cluster_iters": int,
    "eps": float,
    "backend": str,
    "alpha0": float,
    "max_adjoint_iters": int,
    "max_restarts": int,
    "adjoint_eps": float,
    "fallback_jfb": bool,
    "init": str,
    "seed": int,
}

_LAYER_TYPES = {
    "kind": str,
    "in_features": int,
    "out_features": int,
    "in_channels": int,
    "out_channels": int,
    "kernel": int,
    "stride": int,
    "padding": str,
    "quantize": bool,
}


def _typed_section(parser, section: str, types: dict[str, type]) -> dict:
    out = {}
    for key, raw in parser.items(section):
        out[key] = _typed(section, key, raw, types[key])
    return out


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
        for key in parser.options(section):
            if key not in LAYER_SECTION_KEYS:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
        fields = _typed_section(parser, section, _LAYER_TYPES)
        if "kind" not in fields:
            raise ConfigError(f"[{section}] is missing 'kind'")
        if fields["kind"] not in LAYER_KINDS:
            raise ConfigError(
                f"[{section}] kind = {fields['kind']!r}, expected one of {LAYER_KINDS}"
            )
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
        if section not in SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key in parser.options(section):
            if key not in SECTION_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    if parser.has_section("run"):
        run = dict(parser.items("run"))
        cfg.dataset = run.get("dataset", cfg.dataset)
        if cfg.dataset not in DATASET_KINDS:
            raise ConfigError(
                f"[run] dataset = {cfg.dataset!r}, expected one of {DATASET_KINDS}"
            )
        cfg.data_dir = run.get("data_dir", cfg.data_dir)
        cfg.out = run.get("out", cfg.out)
        if "seed" in run:
            cfg.seed = _typed("run", "seed", run["seed"], int)
    if parser.has_section("data"):
        cfg.data = _typed_section(parser, "data", _DATA_TYPES)
    if parser.has_section("model"):
        model = dict(parser.items("model"))
        cfg.loss = model.get("loss", cfg.loss)
        if cfg.loss not in LOSS_KINDS:
            raise ConfigError(
                f"[model] loss = {cfg.loss!r}, expected one of {LOSS_KINDS}"
            )
    cfg.layers = _layer_sections(parser)
    if parser.has_section("pretrain"):
        cfg.pretrain = _typed_section(parser, "pretrain", _PRETRAIN_TYPES)
    if parser.has_section("quantize"):
        cfg.quantize = _typed_section(parser, "quantize", _QUANTIZE_TYPES)
        backend = cfg.quantize.get("backend")
        if backend is not None and backend not in BACKEND_KINDS:
            raise ConfigError(
                f"[quantize] backend = {backend!r}, expected one of {BACKEND_KINDS}"
            )
        init = cfg.quantize.get("init")
        if init is not None and init not in INIT_KINDS:
            raise ConfigError(
                f"[quantize] init = {init!r}, expected one of {INIT_KINDS}"
            )
    return cfg


def build_train_config(cfg: RunConfig, overrides: dict | None = None) -> TrainConfig:
    """Merge [quantize] values with flag overrides into a TrainConfig."""
    merged = dict(cfg.quantize)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    backend = GradBackend(
        kind=merged.get("backend", "implicit"),
        alpha0=merged.get("alpha0", 0.25),
        max_adjoint_iters=merged.get("max_adjoint_iters", 500),
        max_restarts=merged.get("max_restarts", 5),
        adjoint_eps=merged.get("adjoint_eps", 1e-8),
    )
    init = InitStrategy(
        kind=merged.get("init", "kmeans_pp"),
        seed=merged.get("seed", cfg.seed),
    )
    try:
        return TrainConfig(
            k=merged.get("k", 4),
            d=merged.get("d", 1),
            tau=merged.get("tau", 5e-4),
            eps=merged.get("eps", 1e-6),
            max_cluster_iters=merged.get("max_cluster_iters", 30),
            backend=backend,
            learning_rate=merged.get("lr", 1e-4),
            epochs=merged.get("epochs", 100),
            batch_size=merged.get("batch_size", 128),
            loss_kind=cfg.loss,
            init=init,
            seed=merged.get("seed", cfg.seed),
            fallback_jfb=merged.get("fallback_jfb", False),
        )
    except Exception as exc:
        raise ConfigError(str(exc)) from exc
