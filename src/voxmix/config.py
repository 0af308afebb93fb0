"""Experiment configuration: nested dataclasses, a flat `key = value` text
format, and strict override handling.

Every key is `section.field` (top-level fields have no section).  Values
are typed from the dataclass annotations; lists are comma separated.
Unknown keys are rejected so typos never silently fall back to defaults.

A built `ExperimentConfig` is valid: each section checks its own fields,
and `ExperimentConfig` every rule across them (the run name, the sizes the
network's strides divide, the split), so no other module checks them.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Iterable, get_args, get_origin, get_type_hints

from .losses import LossConfig
from .shapes import ARCHETYPE_NAMES


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
        # The rules across fields (the split, the sizes the network's
        # strides divide) are `ExperimentConfig`'s.
        for names in (self.classes, self.base_classes, self.novel_classes):
            twice = sorted({c for c in names if names.count(c) > 1})
            if twice:
                raise ValueError(f"{twice} named more than once")
        unknown = sorted(set(self.classes) - set(ARCHETYPE_NAMES))
        if unknown:
            raise ValueError(f"{unknown} are not shape archetypes, which are "
                             f"{ARCHETYPE_NAMES}")
        # The cosine report compares views of one object with each other.
        if min(self.objects_per_class, self.shots, self.poses_per_object - 1) < 1:
            raise ValueError("object and shot counts must be >= 1, poses >= 2")
        if not self.elevations:
            raise ValueError("at least one elevation is needed")
        # The renderer's range, and the smallest grid `shapes.voxelize` fills.
        if not all(-45.0 <= e <= 45.0 for e in self.elevations):
            raise ValueError(f"elevations must lie in [-45, 45], got "
                             f"{self.elevations}")
        if self.vox_dim < 8:
            raise ValueError(f"vox_dim must be at least 8, got {self.vox_dim}")


PRIOR_MODES = ("correct", "corrupted", "none")


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

    def __post_init__(self):
        layers = (self.image_channels, self.prior_channels, self.decoder_channels)
        if not all(layers) or min(self.latent_width, *sum(layers, ())) < 1:
            raise ValueError("every encoder and decoder needs a layer, and "
                             "every width and channel count must be >= 1")


@dataclass(frozen=True)
class MixupSection:
    alpha: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.alpha < float("inf"):   # Beta(inf, inf) draws NaN
            raise ValueError(f"alpha must be in (0, inf), got {self.alpha}")


@dataclass(frozen=True)
class TrainSection:
    batch_size: int = 32
    lr: float = 1e-3
    gt_lr: float = 1e-4
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
        if self.pretrain_epochs < 0:
            raise ValueError(
                f"pretrain_epochs must be >= 0, got {self.pretrain_epochs}")
        for name in ("lr", "gt_lr"):
            if not 0.0 < getattr(self, name) < float("inf"):
                raise ValueError(f"{name} must be in (0, inf), got "
                                 f"{getattr(self, name)}")


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

    def __post_init__(self):
        if self.seed < 0:   # np.random.SeedSequence refuses it
            raise ConfigError(f"seed: {self.seed} is negative")
        name = self.run_name
        if name in ("", ".", "..") or any(c in name for c in "/\0"):
            raise ConfigError(f"run_name: {name!r} is not one "
                              "directory name under the run root")
        data = self.data
        # Every conv and every transposed conv has stride 2.
        for size, layers in (("image_size", "image_channels"),
                             ("vox_dim", "prior_channels"),
                             ("vox_dim", "decoder_channels")):
            value = getattr(data, size)
            down = 2 ** len(getattr(self.model, layers))
            if value < down or value % down:
                raise ConfigError(f"data.{size}: {value} is not a multiple of "
                                  f"{down}, the stride of model.{layers}")
        for key, names in (("data.base_classes", data.base_classes),
                           ("data.novel_classes", data.novel_classes)):
            if not names:
                raise ConfigError(f"{key}: names no class")
        known, base, novel = (set(c) for c in (data.classes, data.base_classes,
                                               data.novel_classes))
        for key, bad, why in (
                ("data.base_classes", base - known, "not in data.classes"),
                ("data.novel_classes", novel - known, "not in data.classes"),
                ("data.novel_classes", novel & base, "also in data.base_classes"),
                ("data.classes", known - base - novel,
                 "in neither data.base_classes nor data.novel_classes")):
            if bad:
                raise ConfigError(f"{key}: {sorted(bad)} {why}")
        if data.shots >= data.objects_per_class:
            raise ConfigError(f"data.shots: {data.shots} shots leave no query "
                              f"object of {data.objects_per_class} per class")


_SECTIONS = {name for name, hint in get_type_hints(ExperimentConfig).items()
             if dataclasses.is_dataclass(hint)}


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
    if annotation is str:
        return raw
    raise ConfigError(f"{key}: unsupported config field type {annotation}")


def apply_assignments(config: ExperimentConfig,
                      items: dict[str, str]) -> ExperimentConfig:
    """Apply `dotted.key -> raw string` assignments onto a config, naming
    the key of a rejected value.  The rules across fields see them all."""
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


def _config_items(text: str) -> dict[str, str]:
    """The `key -> raw value` assignments of a config file's text."""
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
    return items


def parse_config_text(text: str) -> ExperimentConfig:
    return apply_assignments(ExperimentConfig(), _config_items(text))


def load_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    """The file's assignments with `overrides` on top, applied at once."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    items = _config_items(text)
    items.update(parse_assignment(item) for item in overrides or ())
    return apply_assignments(ExperimentConfig(), items)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
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


def config_hash(config: ExperimentConfig, keys: Iterable[str] | None = None,
                skip: Iterable[str] = ()) -> str:
    """Hash of the `dump_config` lines whose key is in `keys` (all when None)
    and not in `skip`; a section name stands for its fields.  An artifact
    hashes the keys its command reads, so no other field makes it stale.  A
    name that matches no line is a ValueError: a typo drops no field."""
    lines = dump_config(config).split("\n")[:-1]

    def picked(names: Iterable[str]) -> set[str]:
        found: set[str] = set()
        for name in names:
            matched = {line for line in lines
                       if line.startswith((f"{name} = ", f"{name}."))}
            if not matched:
                raise ValueError(f"{name!r} names no config key")
            found |= matched
        return found

    kept = (set(lines) if keys is None else picked(keys)) - picked(skip)
    text = "".join(line + "\n" for line in lines if line in kept)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
