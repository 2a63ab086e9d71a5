"""Experiment configuration: YAML schema, validation, defaults.

Every invalid field raises ConfigError naming the offending key; parsing
never crashes with a bare traceback. The documented schema (see README and
:data:`DEFAULT_CONFIG_YAML`) is normative; unknown keys are rejected so that
typos fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import yaml

from .continual import AugmentConfig, Scenario, TrainConfig
from .errors import ConfigError
from .evaluate import ProbeConfig
from .losses import Method, PnrConfig, Regime

DEFAULT_CONFIG_YAML = """\
# Continual SSL experiment configuration (all keys shown with defaults).
scenario: class_il          # class_il | data_il | domain_il
num_tasks: 5
seeds: [1, 2, 3]            # one full run per seed

dataset:
  classes: 10
  input_dim: 32
  samples_per_class: 200
  radius: 1.0
  sigma: 2.0                # noise norm as a fraction of radius

model:
  encoder_dims: [32, 32, 8]
  projector_dims: [8, 8]
  predictor_dims: [8, 8]

augment:
  noise_std: 0.5
  dropout_p: 0.3
  scale_range: [0.6, 1.4]

train:
  epochs_per_task: 100
  batch_size: 64
  lr: 0.05
  momentum: 0.9
  weight_decay: 5.0e-3
  ema_momentum: 0.99        # BYOL target update
  queue_capacity: 1024      # MoCo queues

loss:
  method: simclr            # simclr | moco | byol | vicreg | barlow
  regime: pnr               # ft | cassle | pnr
  tau: 0.2
  lambda_pnr: null          # null = per-method default (byol 0.5, vicreg 23, barlow 1)
  lambda_cassle: 25.0       # VICReg distillation weight
  barlow_lambda: 0.005
  vicreg_sim: 25.0
  vicreg_var: 25.0
  vicreg_cov: 1.0

probe:
  epochs: 500
  lr: 0.5
  l2_penalty: 1.0e-4
  train_fraction: 0.8
"""


@dataclass
class DatasetParams:
    classes: int = 10
    input_dim: int = 32
    samples_per_class: int = 200
    radius: float = 1.0
    sigma: float = 2.0


@dataclass
class ExperimentConfig:
    scenario: str = Scenario.CLASS_IL
    num_tasks: int = 5
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    dataset: DatasetParams = field(default_factory=DatasetParams)
    train: TrainConfig = field(default_factory=TrainConfig)
    probe: ProbeConfig = field(default_factory=ProbeConfig)

    def train_for_seed(self, seed: int) -> TrainConfig:
        from dataclasses import replace
        return replace(self.train, seed=seed)


def _require(mapping: dict, context: str, known: set[str]) -> None:
    for key in mapping:
        if key not in known:
            raise ConfigError(f"{context}: unknown key {key!r}")


def _get(mapping: dict, key: str, kind, default, context: str):
    if key not in mapping or mapping[key] is None:
        return default
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{context}.{key}: expected {kind.__name__}, "
                          f"got {type(value).__name__}")
    return value


def _positive(value, key: str, context: str):
    if value <= 0:
        raise ConfigError(f"{context}.{key}: must be positive, got {value}")
    return value


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a mapping")
    _require(raw, "top level", {"scenario", "num_tasks", "seeds", "dataset",
                                "model", "augment", "train", "loss", "probe"})

    scenario = _get(raw, "scenario", str, Scenario.CLASS_IL, "top level")
    if scenario not in Scenario.ALL:
        raise ConfigError(f"scenario: {scenario!r} not one of {Scenario.ALL}")
    num_tasks = _positive(_get(raw, "num_tasks", int, 5, "top level"),
                          "num_tasks", "top level")

    seeds = raw.get("seeds", [1, 2, 3])
    if (not isinstance(seeds, list) or not seeds
            or not all(isinstance(s, int) and not isinstance(s, bool)
                       for s in seeds)):
        raise ConfigError("seeds: expected a non-empty list of integers")

    d = raw.get("dataset", {}) or {}
    _require(d, "dataset", {"classes", "input_dim", "samples_per_class",
                            "radius", "sigma"})
    dataset = DatasetParams(
        classes=_positive(_get(d, "classes", int, 10, "dataset"),
                          "classes", "dataset"),
        input_dim=_positive(_get(d, "input_dim", int, 32, "dataset"),
                            "input_dim", "dataset"),
        samples_per_class=_positive(
            _get(d, "samples_per_class", int, 200, "dataset"),
            "samples_per_class", "dataset"),
        radius=_positive(_get(d, "radius", float, 1.0, "dataset"),
                         "radius", "dataset"),
        sigma=_get(d, "sigma", float, 2.0, "dataset"),
    )
    if dataset.sigma < 0:
        raise ConfigError("dataset.sigma: must be non-negative")
    if dataset.classes < 2:
        raise ConfigError("dataset.classes: need at least 2 classes")

    m = raw.get("model", {}) or {}
    _require(m, "model", {"encoder_dims", "projector_dims", "predictor_dims"})

    def dims(key: str, default: list[int]) -> list[int]:
        value = m.get(key, default)
        if (not isinstance(value, list) or len(value) < 2
                or not all(isinstance(v, int) and v >= 1 for v in value)):
            raise ConfigError(f"model.{key}: expected a list of >=2 positive ints")
        return value

    encoder_dims = dims("encoder_dims", [32, 32, 8])
    projector_dims = dims("projector_dims", [8, 8])
    predictor_dims = dims("predictor_dims", [8, 8])
    if encoder_dims[0] != dataset.input_dim:
        raise ConfigError(
            f"model.encoder_dims: first dim {encoder_dims[0]} must equal "
            f"dataset.input_dim {dataset.input_dim}")

    a = raw.get("augment", {}) or {}
    _require(a, "augment", {"noise_std", "dropout_p", "scale_range"})
    scale = a.get("scale_range", [0.6, 1.4])
    if (not isinstance(scale, list) or len(scale) != 2
            or not all(isinstance(v, (int, float)) for v in scale)):
        raise ConfigError("augment.scale_range: expected [lo, hi]")
    try:
        augment = AugmentConfig(
            noise_std=_get(a, "noise_std", float, 0.5, "augment"),
            dropout_p=_get(a, "dropout_p", float, 0.3, "augment"),
            scale_range=(float(scale[0]), float(scale[1])),
        )
    except ValueError as exc:
        raise ConfigError(f"augment: {exc}") from exc

    lo = raw.get("loss", {}) or {}
    _require(lo, "loss", {"method", "regime", "tau", "lambda_pnr",
                          "lambda_cassle", "barlow_lambda", "vicreg_sim",
                          "vicreg_var", "vicreg_cov"})
    method = _get(lo, "method", str, "simclr", "loss")
    regime = _get(lo, "regime", str, "pnr", "loss")
    try:
        loss = PnrConfig(
            method=Method(method),
            regime=Regime(regime),
            tau=_positive(_get(lo, "tau", float, 0.2, "loss"), "tau", "loss"),
            lambda_pnr=_get(lo, "lambda_pnr", float, None, "loss"),
            lambda_cassle=_get(lo, "lambda_cassle", float, 25.0, "loss"),
            barlow_lambda=_get(lo, "barlow_lambda", float, 5e-3, "loss"),
            vicreg_sim=_get(lo, "vicreg_sim", float, 25.0, "loss"),
            vicreg_var=_get(lo, "vicreg_var", float, 25.0, "loss"),
            vicreg_cov=_get(lo, "vicreg_cov", float, 1.0, "loss"),
        )
    except ValueError as exc:
        raise ConfigError(f"loss: {exc}") from exc

    t = raw.get("train", {}) or {}
    _require(t, "train", {"epochs_per_task", "batch_size", "lr", "momentum",
                          "weight_decay", "ema_momentum", "queue_capacity"})
    try:
        train = TrainConfig(
            epochs_per_task=_get(t, "epochs_per_task", int, 100, "train"),
            batch_size=_get(t, "batch_size", int, 64, "train"),
            lr=_get(t, "lr", float, 0.05, "train"),
            momentum=_get(t, "momentum", float, 0.9, "train"),
            weight_decay=_get(t, "weight_decay", float, 5e-3, "train"),
            ema_momentum=_get(t, "ema_momentum", float, 0.99, "train"),
            seed=seeds[0],
            loss=loss,
            augment=augment,
            encoder_dims=encoder_dims,
            projector_dims=projector_dims,
            predictor_dims=predictor_dims,
            queue_capacity=_get(t, "queue_capacity", int, 1024, "train"),
        )
    except ValueError as exc:
        raise ConfigError(f"train: {exc}") from exc

    p = raw.get("probe", {}) or {}
    _require(p, "probe", {"epochs", "lr", "l2_penalty", "train_fraction"})
    try:
        probe = ProbeConfig(
            epochs=_get(p, "epochs", int, 500, "probe"),
            lr=_get(p, "lr", float, 0.5, "probe"),
            l2_penalty=_get(p, "l2_penalty", float, 1e-4, "probe"),
            train_fraction=_get(p, "train_fraction", float, 0.8, "probe"),
        )
    except ValueError as exc:
        raise ConfigError(f"probe: {exc}") from exc

    if scenario == Scenario.CLASS_IL and dataset.classes % num_tasks != 0:
        raise ConfigError(
            f"num_tasks: {dataset.classes} classes not divisible by {num_tasks}")

    return ExperimentConfig(scenario=scenario, num_tasks=num_tasks,
                            seeds=list(seeds), dataset=dataset, train=train,
                            probe=probe)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    return parse_config(raw or {})
