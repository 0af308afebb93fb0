import dataclasses
import hashlib
from typing import get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from voxmix.config import (PRIOR_MODES, ConfigError, DataConfig,
                           ExperimentConfig, ModelSection, apply_assignments,
                           config_hash, dump_config, load_config,
                           parse_config_text)
from voxmix.shapes import ARCHETYPE_NAMES

# What a config file can hold as a name: no comma (the list separator), no
# newline, no "#" and no whitespace at either end.
NAMES = st.text(st.characters(blacklist_characters=",#\n"), min_size=1) \
    .filter(lambda s: s == s.strip())

_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_CHANNELS = st.lists(st.integers(min_value=1), min_size=1, max_size=4).map(tuple)

# The fields a section range-checks draw from inside their range; `_configs`
# draws the fields the rules across sections tie together.
IN_RANGE = {
    "seed": st.integers(min_value=0),
    "run_name": NAMES.filter(lambda s: s not in (".", "..")
                             and not set(s) & set("/\0")),
    "loss.w_recon": _NON_NEGATIVE, "loss.w_align": _NON_NEGATIVE,
    "loss.margin": st.floats(0.0, 1.0), "mixup.alpha": _POSITIVE,
    "train.lr": _POSITIVE, "train.gt_lr": _POSITIVE,
    "train.batch_size": st.integers(min_value=1),
    "train.pretrain_batch": st.integers(min_value=1),
    "train.pretrain_epochs": st.integers(min_value=0),
    "train.stage_epochs": st.tuples(*[st.integers(min_value=0)] * 3),
    "eval.iou_threshold": _OPEN_UNIT, "eval.batch_size": st.integers(min_value=1),
    "data.poses_per_object": st.integers(min_value=2),
    "data.elevations": st.lists(st.floats(-45.0, 45.0), min_size=1,
                                max_size=4).map(tuple),
    "prior.threshold": st.floats(0.0, 1.0, exclude_max=True),
    "prior.mode": st.sampled_from(PRIOR_MODES),
    "model.latent_width": st.integers(min_value=1),
    "model.image_channels": _CHANNELS, "model.prior_channels": _CHANNELS,
    "model.decoder_channels": _CHANNELS,
}


def _values(annotation):
    if get_origin(annotation) is tuple:
        return st.lists(_values(get_args(annotation)[0]), max_size=4).map(tuple)
    return {int: st.integers(),
            float: st.floats(allow_nan=False, allow_infinity=False),
            str: NAMES}[annotation]


def _builds(cls, prefix="", **tied):
    """`cls` of `tied`'s strategies for their fields, the others in range."""
    hints = get_type_hints(cls)
    return st.builds(cls, **{
        f.name: tied[f.name] if f.name in tied
        else _builds(hints[f.name], f"{f.name}.")
        if dataclasses.is_dataclass(hints[f.name])
        else IN_RANGE.get(prefix + f.name, _values(hints[f.name]))
        for f in dataclasses.fields(cls)})


def _multiple(step: int, least: int = 1):
    """The multiples of `step` that are at least `least`."""
    return st.integers(min_value=-(-least // step)).map(lambda k: k * step)


@st.composite
def _configs(draw):
    """A valid config: 2-4 archetypes cut into a base and a novel list,
    fewer shots than objects per class, sizes the strides divide, and (in
    `IN_RANGE`) a run name that is one directory name."""
    model = draw(_builds(ModelSection, "model."))
    classes = draw(st.lists(st.sampled_from(ARCHETYPE_NAMES), min_size=2,
                            max_size=4, unique=True))
    order, cut = draw(st.permutations(classes)), draw(
        st.integers(1, len(classes) - 1))
    objects = draw(st.integers(min_value=2))
    data = _builds(
        DataConfig, "data.", classes=st.just(tuple(classes)),
        base_classes=st.just(tuple(order[:cut])),
        novel_classes=st.just(tuple(order[cut:])),
        objects_per_class=st.just(objects), shots=st.integers(1, objects - 1),
        image_size=_multiple(2 ** len(model.image_channels)),
        vox_dim=_multiple(2 ** max(len(model.prior_channels),
                                   len(model.decoder_channels)), 8))
    return draw(_builds(ExperimentConfig, model=st.just(model), data=data))


@given(_configs())
@settings(max_examples=100, deadline=None)
def test_dump_config_round_trips_through_the_parser(config):
    assert parse_config_text(dump_config(config)) == config


def test_dump_and_hash_keep_their_bytes():
    # Hashes of the dumps written before the loss section became a
    # LossConfig, less their `model.variant`, `train.optimizer`, `loss.kind`,
    # `loss.focal_gamma`, `loss.focal_balance`, `loss.clamp_eps` and
    # `train.pipeline` lines.
    assert config_hash(ExperimentConfig()) == "1dffe7bc51b02c36"
    assert config_hash(apply_assignments(
        ExperimentConfig(), {"loss.margin": "0.3"})) == "b48b636660c28fbe"
    loss_lines = [line for line in dump_config(ExperimentConfig()).split("\n")
                  if line.startswith("loss.")]
    assert loss_lines == [
        "loss.w_recon = 10.0", "loss.w_align = 0.5", "loss.margin = 0.1"]


def _hash_of(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines)
                          .encode("utf-8")).hexdigest()[:16]


def test_config_hash_expands_a_section_and_drops_the_skipped_keys():
    config = ExperimentConfig()
    lines = dump_config(config).split("\n")[:-1]
    assert config_hash(config) == _hash_of(lines)
    data = [line for line in lines if line.startswith("data.")]
    assert config_hash(config, ("data",)) == _hash_of(data)
    assert config_hash(config, ("seed", "data"), skip=("data.shots",)) \
        == _hash_of(["seed = 0"] + [line for line in data
                                    if not line.startswith("data.shots ")])
    assert config_hash(config, skip=("eval", "prior.mode")) == _hash_of(
        [line for line in lines if not line.startswith(("eval.", "prior.mode "))])


@pytest.mark.parametrize("keys,skip", [
    (("seed", "data.clases"), ()), (("dat",), ()), (None, ("evaluation",)),
    (("data",), ("mixup.alpha", "train.pipeline"))])
def test_config_hash_refuses_a_name_that_matches_no_key(keys, skip):
    with pytest.raises(ValueError, match="names no config key"):
        config_hash(ExperimentConfig(), keys, skip)


@pytest.mark.parametrize("key,value", [
    ("loss.margin", "5"), ("mixup.alpha", "0"),
    ("train.stage_epochs", "1,1"), ("eval.iou_threshold", "1.0"),
    ("prior.mode", "wrong"), ("model.latent_width", "0"),
    ("model.image_channels", "4,0"), ("data.classes", "box,lamp,box"),
    ("data.classes", "box,foo"),
    ("data.base_classes", "box,box"), ("data.novel_classes", "lamp,lamp"),
    ("data.elevations", "10,60"), ("data.vox_dim", "4"),
    pytest.param("loss.w_recon", "nan", id="w_recon-nan"),
    pytest.param("loss.w_align", "inf", id="w_align-inf")])
def test_a_value_a_section_rejects_is_a_config_error_naming_its_key(key, value):
    with pytest.raises(ConfigError, match=f"^{key}: "):
        apply_assignments(ExperimentConfig(), {"seed": "1", "loss.w_recon": "2",
                                               key: value})


@pytest.mark.parametrize("key,value", [
    ("run_name", ""), ("run_name", "."), ("run_name", ".."),
    ("run_name", "a/b"), ("run_name", "a\0b"), ("data.vox_dim", "12"),
    ("data.image_size", "0"), ("data.base_classes", "box,foo"),
    ("data.novel_classes", "foo"), ("data.base_classes", ""),
    ("data.novel_classes", ""), ("data.novel_classes", "lamp,box"),
    ("data.shots", "8")])
def test_a_rule_across_fields_is_a_config_error_naming_its_key(key, value):
    # A config built without a file, as the benchmark and the tests build
    # theirs, keeps the rules a loaded one does; the default has 8 objects
    # per class.
    with pytest.raises(ConfigError, match=f"^{key}: "):
        apply_assignments(ExperimentConfig(), {key: value})


def test_overrides_complete_a_split_the_file_leaves_partial(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("data.classes = box,lamp\n", encoding="utf-8")
    data = load_config(path, ["data.base_classes=box",
                              "data.novel_classes=lamp"]).data
    assert (data.classes, data.base_classes, data.novel_classes) \
        == (("box", "lamp"), ("box",), ("lamp",))


@pytest.mark.parametrize("text,error", [
    ("seed = 1\nrun_name", "line 2: expected key=value"),
    ("seed = 1\n\nseed = 2", "line 3: duplicate key 'seed'")])
def test_a_bad_config_file_line_is_a_config_error_naming_the_line(
        tmp_path, text, error):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{error}"):
        load_config(path, ["seed=3"])
