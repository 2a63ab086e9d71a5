"""Experiment configuration: the YAML schema, its parser and its default file.

The config dataclasses are the schema: their field defaults are the only
defaults, and their ``__post_init__`` checks are the only range and
cross-field checks. :data:`SECTIONS` maps each YAML section to the dataclass
and the field names it sets; :func:`parse_config` walks that table and
:data:`DEFAULT_CONFIG_YAML` is generated from it. Every invalid field raises
ConfigError naming the offending key; unknown keys are rejected so that typos
fail loudly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import MISSING, dataclass, field, replace

import yaml

from .continual import AugmentConfig, Scenario, TrainConfig, check_split
from .datastore import DatasetParams
from .errors import ConfigError, CsslError
from .evaluate import ProbeConfig
from .losses import DEFAULT_LAMBDA_PNR, PnrConfig


@dataclass
class ExperimentConfig:
    scenario: Scenario = Scenario.CLASS_IL
    num_tasks: int = 5
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    dataset: DatasetParams = field(default_factory=DatasetParams)
    train: TrainConfig = field(default_factory=TrainConfig)
    probe: ProbeConfig = field(default_factory=ProbeConfig)

    def __post_init__(self):
        self.scenario = Scenario(self.scenario)
        check_split(self.scenario, self.num_tasks, self.dataset.classes,
                    self.dataset.classes * self.dataset.samples_per_class)
        if not self.seeds:
            raise CsslError("seeds must be a non-empty list")
        if self.train.encoder_dims[0] != self.dataset.input_dim:
            raise CsslError(
                f"model.encoder_dims: first dim {self.train.encoder_dims[0]} "
                f"must equal dataset.input_dim {self.dataset.input_dim}")

    def train_for_seed(self, seed: int) -> TrainConfig:
        return replace(self.train, seed=seed)


# YAML section ("" is the top level) -> the dataclass and the fields it sets.
SECTIONS: dict[str, tuple[type, tuple[str, ...]]] = {
    "": (ExperimentConfig, ("scenario", "num_tasks", "seeds")),
    "dataset": (DatasetParams, ("classes", "input_dim", "samples_per_class",
                                "radius", "sigma")),
    "model": (TrainConfig, ("encoder_dims", "projector_dims",
                            "predictor_dims")),
    "augment": (AugmentConfig, ("noise_std", "dropout_p", "scale_range")),
    "train": (TrainConfig, ("epochs_per_task", "batch_size", "lr", "momentum",
                            "weight_decay", "ema_momentum", "queue_capacity")),
    "loss": (PnrConfig, ("method", "regime", "tau", "lambda_pnr",
                         "lambda_cassle", "barlow_lambda", "vicreg_sim",
                         "vicreg_var", "vicreg_cov")),
    "probe": (ProbeConfig, ("epochs", "lr", "l2_penalty", "train_fraction")),
}


def _path(section: str, key: str) -> str:
    return f"{section}.{key}" if section else key


def _field_default(cls: type, key: str):
    f = cls.__dataclass_fields__[key]
    return f.default if f.default_factory is MISSING else f.default_factory()


def _expected(path: str, expected: str, value) -> str:
    return f"{path}: expected {expected}, got {type(value).__name__}"


def _coerce(value, default, path: str):
    """``value`` checked against the type of the field default ``default``;
    a ``None`` default stands for an optional float (``lambda_pnr``)."""
    if isinstance(default, (list, tuple)):
        if not isinstance(value, list):
            raise ConfigError(_expected(path, "a list", value))
        return type(default)(_coerce(v, default[0], f"{path}[{i}]")
                             for i, v in enumerate(value))
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(_expected(path, "a string", value))
        try:
            return type(default)(value)
        except CsslError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(_expected(path, "an int", value))
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(_expected(path, "a float", value))
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value}")
    return float(value)


def _build(cls: type, **kwargs):
    """``cls(**kwargs)``. The dataclass checks start each message with the
    name of the field at fault (``ExperimentConfig`` with its YAML path); a
    failed check becomes a ConfigError that starts with that YAML path."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        key = str(exc).split()[0]
        section = next((s for s, (owner, keys) in SECTIONS.items()
                        if owner is cls and key in keys), "")
        raise ConfigError(_path(section, str(exc))) from exc


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a mapping")
    values: dict[str, dict] = {}
    for section, (cls, keys) in SECTIONS.items():
        mapping = raw.get(section) if section else raw
        mapping = {} if mapping is None else mapping
        if not isinstance(mapping, dict):
            raise ConfigError(f"{section}: expected a mapping")
        known = set(keys) if section else set(keys) | set(SECTIONS) - {""}
        for key in mapping:
            if key not in known:
                raise ConfigError(
                    f"{section or 'top level'}: unknown key {key!r}")
        # A missing or null key is left out, so the field default applies.
        values[section] = {key: _coerce(mapping[key], _field_default(cls, key),
                                        _path(section, key))
                           for key in keys if mapping.get(key) is not None}
    train = _build(TrainConfig, **values["model"], **values["train"],
                   loss=_build(PnrConfig, **values["loss"]),
                   augment=_build(AugmentConfig, **values["augment"]))
    cfg = _build(ExperimentConfig, **values[""],
                 dataset=_build(DatasetParams, **values["dataset"]),
                 train=train, probe=_build(ProbeConfig, **values["probe"]))
    cfg.train = cfg.train_for_seed(cfg.seeds[0])
    return cfg


# Comments in the generated default file, by YAML path; an enum key lists
# its choices.
_NOTES = {
    "loss.lambda_pnr": "null = per-method default (" + ", ".join(
        f"{m.value} {lam:g}" for m, lam in DEFAULT_LAMBDA_PNR.items()) + ")",
    "probe.epochs": "cap on Newton iterations",
    "probe.lr": "not read: the probe is solved to its minimum",
}


def _yaml_value(value) -> str:
    if isinstance(value, enum.Enum):
        value = value.value
    if isinstance(value, tuple):
        value = list(value)
    return yaml.safe_dump(value, default_flow_style=True).splitlines()[0]


def _default_config_yaml() -> str:
    """Every key of :data:`SECTIONS` with its dataclass field default. Field
    defaults, not a resolved instance: ``lambda_pnr`` stays ``null`` so that
    it follows the per-method table when ``method`` is edited."""
    lines = ["# Continual SSL experiment configuration "
             "(all keys shown with defaults)."]
    for section, (cls, keys) in SECTIONS.items():
        if section:
            lines += ["", f"{section}:"]
        for key in keys:
            default = _field_default(cls, key)
            line = f"{'  ' if section else ''}{key}: {_yaml_value(default)}"
            note = (" | ".join(m.value for m in type(default))
                    if isinstance(default, enum.Enum)
                    else _NOTES.get(_path(section, key)))
            lines.append(f"{line:<28}# {note}" if note else line)
    return "\n".join(lines) + "\n"


DEFAULT_CONFIG_YAML = _default_config_yaml()


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    return parse_config({} if raw is None else raw)
