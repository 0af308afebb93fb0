"""Experiment configuration: nested dataclasses, a flat `key = value` text
format, and strict override handling.

Every key is `section.field` (top-level fields have no section).  Values
are typed from the dataclass annotations; lists are comma separated.
Unknown keys are rejected so typos never silently fall back to defaults.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

from .evaluate import PRIOR_MODES
from .losses import LossConfig
from .model import VARIANTS
from .nn import OPTIMIZERS


class ConfigError(ValueError):
    """Bad config file, bad key, or bad value."""


@dataclass(frozen=True)
class DataConfig:
    classes: tuple[str, ...] = ("box", "table", "cylstack", "chair",
                                "lamp", "lbeam")
    base_classes: tuple[str, ...] = ("box", "table", "cylstack", "chair")
    novel_classes: tuple[str, ...] = ("lamp", "lbeam")
    objects_per_class: int = 8
    poses_per_object: int = 8
    elevations: tuple[float, ...] = (-30.0, -10.0, 15.0, 35.0)
    vox_dim: int = 16
    image_size: int = 32
    shots: int = 1

    def __post_init__(self):
        # Rules across fields (classes, shots per class) are the split's.
        if min(self.objects_per_class, self.poses_per_object, self.shots) < 1:
            raise ValueError("object, pose and shot counts must be >= 1")
        if not self.elevations:
            raise ValueError("at least one elevation is needed")


@dataclass(frozen=True)
class PriorConfig:
    threshold: float = 0.5          # mean-occupancy cut for class priors
    mode: str = "correct"           # correct | corrupted | none

    def __post_init__(self):
        if not 0.0 <= self.threshold < 1.0:
            raise ValueError(f"threshold must be in [0, 1), got {self.threshold}")
        if self.mode not in PRIOR_MODES:
            raise ValueError(f"unknown prior mode {self.mode!r}, not one of "
                             f"{PRIOR_MODES}")


@dataclass(frozen=True)
class ModelSection:
    latent_width: int = 128
    image_channels: tuple[int, ...] = (8, 16, 32, 32)
    prior_channels: tuple[int, ...] = (8, 16, 32)
    decoder_channels: tuple[int, ...] = (32, 16, 8)
    variant: str = "prior"          # prior | no_prior

    def __post_init__(self):
        layers = (self.image_channels, self.prior_channels, self.decoder_channels)
        if not all(layers) or min(self.latent_width, *sum(layers, ())) < 1:
            raise ValueError("every encoder and decoder needs a layer, and "
                             "every width and channel count must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, not one of "
                             f"{VARIANTS}")


@dataclass(frozen=True)
class MixupSection:
    alpha: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.alpha < float("inf"):   # Beta(inf, inf) draws NaN
            raise ValueError(f"alpha must be in (0, inf), got {self.alpha}")


@dataclass(frozen=True)
class TrainSection:
    pipeline: str = "dual_mix"      # base | input_mix | latent_mix | dual_mix
    batch_size: int = 32
    lr: float = 1e-3
    gt_lr: float = 1e-4
    optimizer: str = "adam"         # adam | sgd
    stage_epochs: tuple[int, ...] = (12, 8, 8)
    pretrain_epochs: int = 400
    pretrain_batch: int = 4

    def __post_init__(self):
        # One count each for the base, input-mixing and latent-mixing stages.
        if len(self.stage_epochs) != 3 or min(self.stage_epochs) < 0:
            raise ValueError("stage_epochs needs one count >= 0 per stage, "
                             f"3 in all, got {self.stage_epochs}")
        if self.batch_size < 1 or self.pretrain_batch < 1:
            raise ValueError("batch sizes must be at least 1")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}, not one "
                             f"of {tuple(OPTIMIZERS)}")


@dataclass(frozen=True)
class EvalSection:
    iou_threshold: float = 0.3
    batch_size: int = 64

    def __post_init__(self):
        if not 0.0 < self.iou_threshold < 1.0:
            raise ValueError(
                f"iou_threshold must be in (0, 1), got {self.iou_threshold}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    run_name: str = "default"
    data: DataConfig = field(default_factory=DataConfig)
    prior: PriorConfig = field(default_factory=PriorConfig)
    model: ModelSection = field(default_factory=ModelSection)
    loss: LossConfig = field(default_factory=LossConfig)
    mixup: MixupSection = field(default_factory=MixupSection)
    train: TrainSection = field(default_factory=TrainSection)
    eval: EvalSection = field(default_factory=EvalSection)


_SECTIONS = {f.name: f.type for f in fields(ExperimentConfig)
             if dataclasses.is_dataclass(
                 f.default_factory() if f.default_factory is not dataclasses.MISSING
                 else f.default)}


def _coerce(raw: str, annotation: Any, key: str):
    raw = raw.strip()
    origin = get_origin(annotation)
    if origin is tuple:
        item_type = get_args(annotation)[0]
        if raw == "":
            return ()
        return tuple(_coerce(part, item_type, key) for part in raw.split(","))
    if annotation is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}")
    if annotation is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}")
    if annotation is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if annotation is str:
        return raw
    raise ConfigError(f"{key}: unsupported config field type {annotation}")


def apply_assignments(config: ExperimentConfig,
                      items: dict[str, str]) -> ExperimentConfig:
    """Apply `dotted.key -> raw string` assignments onto a config."""
    top_fields = get_type_hints(ExperimentConfig)
    section_updates: dict[str, dict[str, Any]] = {}
    top_updates: dict[str, Any] = {}
    for key, raw in items.items():
        if "." in key:
            section, name = key.split(".", 1)
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section {section!r} in {key!r}")
            sec_fields = get_type_hints(type(getattr(config, section)))
            if name not in sec_fields:
                raise ConfigError(f"unknown config key {key!r}")
            section_updates.setdefault(section, {})[name] = \
                _coerce(raw, sec_fields[name], key)
        else:
            if key not in top_fields or key in _SECTIONS:
                raise ConfigError(f"unknown config key {key!r}")
            top_updates[key] = _coerce(raw, top_fields[key], key)
    for section, updates in section_updates.items():
        # Every section checks its fields one by one, so assigning them one
        # at a time names the key of a rejected value.
        value = getattr(config, section)
        for name, item in updates.items():
            try:
                value = replace(value, **{name: item})
            except ValueError as exc:
                raise ConfigError(f"{section}.{name}: {exc}") from None
        top_updates[section] = value
    return replace(config, **top_updates)


def parse_assignment(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise ConfigError(f"expected key=value, got {text!r}")
    key, raw = text.split("=", 1)
    key = key.strip()
    if not key:
        raise ConfigError(f"empty key in assignment {text!r}")
    return key, raw


def parse_config_text(text: str,
                      base: ExperimentConfig | None = None) -> ExperimentConfig:
    config = base or ExperimentConfig()
    items: dict[str, str] = {}
    # Lines end at "\n" only, as `dump_config` writes them: splitlines()
    # would also break at a "\r" or "\x1c" inside a value.
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            key, raw = parse_assignment(stripped)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        if key in items:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        items[key] = raw
    return apply_assignments(config, items)


def load_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    config = parse_config_text(text)
    if overrides:
        items = dict(parse_assignment(item) for item in overrides)
        config = apply_assignments(config, items)
    return config


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(config: ExperimentConfig) -> str:
    """Deterministic full dump; parsing it back reproduces the config."""
    lines: list[str] = []
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            for sub in fields(value):
                lines.append(
                    f"{f.name}.{sub.name} = {_format_value(getattr(value, sub.name))}")
        else:
            lines.append(f"{f.name} = {_format_value(value)}")
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(dump_config(config).encode("utf-8")).hexdigest()[:16]
