import dataclasses
from typing import get_args, get_origin, get_type_hints

from hypothesis import given, settings, strategies as st

from voxmix.config import ExperimentConfig, dump_config, parse_config_text

# What a config file can hold as a name: no comma (the list separator), no
# newline, no "#" and no whitespace at either end.
NAMES = st.text(st.characters(blacklist_characters=",#\n"), min_size=1) \
    .filter(lambda s: s == s.strip())


def _values(annotation):
    if get_origin(annotation) is tuple:
        return st.lists(_values(get_args(annotation)[0]), max_size=4).map(tuple)
    return {int: st.integers(),
            float: st.floats(allow_nan=False, allow_infinity=False),
            bool: st.booleans(),
            str: NAMES}[annotation]


def _configs(cls=ExperimentConfig):
    hints = get_type_hints(cls)
    return st.builds(cls, **{
        f.name: _configs(hints[f.name]) if dataclasses.is_dataclass(hints[f.name])
        else _values(hints[f.name]) for f in dataclasses.fields(cls)})


@given(_configs())
@settings(max_examples=100, deadline=None)
def test_dump_config_round_trips_through_the_parser(config):
    assert parse_config_text(dump_config(config)) == config
