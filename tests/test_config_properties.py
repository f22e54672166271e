"""Property tests of scenario config merging: an override made of a
scenario's own default values changes nothing, and a leaf of the wrong
type is always refused with ConfigError."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from casidec.errors import ConfigError
from casidec.scenarios import _merge_config, list_scenarios, scenario_defaults

NAMES = [name for name, _ in list_scenarios()]


def _leaves(tree, path=()):
    for key, value in tree.items():
        yield path + (key,), value
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))


def _nest(path, value):
    for key in reversed(path):
        value = {key: value}
    return value


@st.composite
def _default_subtree(draw, tree):
    return {key: draw(_default_subtree(value)) if isinstance(value, dict) else value
            for key, value in tree.items() if draw(st.booleans())}


@st.composite
def _default_overrides(draw):
    name = draw(st.sampled_from(NAMES))
    return name, draw(_default_subtree(scenario_defaults(name)))


def _wrong_values(default):
    """Values whose type the merge must refuse for a leaf like default."""
    scalars = [st.none(), st.text(max_size=3), st.booleans()]
    if isinstance(default, dict):
        return st.one_of(st.floats(), st.lists(st.integers(), max_size=2), *scalars)
    if isinstance(default, list):
        numbers = st.floats(allow_nan=False, allow_infinity=False)
        return st.one_of(st.floats(), st.none(), st.text(max_size=3), st.booleans(),
                         st.lists(st.text(max_size=3), min_size=1, max_size=3),
                         st.lists(st.booleans(), min_size=1, max_size=3),
                         st.lists(numbers, max_size=4).filter(lambda v: len(v) != len(default)))
    if isinstance(default, str):
        return st.one_of(st.integers(), st.floats(), st.none(), st.booleans(),
                         st.lists(st.text(max_size=3), max_size=2))
    if isinstance(default, int):
        return st.one_of(st.floats(), st.none(), st.text(max_size=3), st.booleans(),
                         st.lists(st.integers(), max_size=2))
    return st.one_of(st.none(), st.text(max_size=3), st.booleans(),
                     st.lists(st.floats(), max_size=2), st.dictionaries(st.text(), st.integers()))


@st.composite
def _wrong_leaf(draw):
    name = draw(st.sampled_from(NAMES))
    defaults = scenario_defaults(name)
    path, default = draw(st.sampled_from(list(_leaves(defaults))))
    return defaults, _nest(path, draw(_wrong_values(default)))


@given(_default_overrides())
def test_default_valued_overrides_merge_to_the_defaults(case):
    name, overrides = case
    defaults = scenario_defaults(name)
    merged = _merge_config(defaults, overrides)
    # the JSON form also tells an integer from a float
    assert json.dumps(merged, sort_keys=True) == json.dumps(defaults, sort_keys=True)


@given(_wrong_leaf())
def test_a_wrong_typed_leaf_raises_config_error(case):
    defaults, overrides = case
    with pytest.raises(ConfigError):
        _merge_config(defaults, overrides)


@pytest.mark.parametrize("name", NAMES)
def test_every_default_leaf_has_a_type_the_merge_handles(name):
    # the merge checks mappings, counts, floats, strings and lists of floats
    # only; a default of any other type would fall through to the list check
    for path, value in _leaves(scenario_defaults(name)):
        ok = (isinstance(value, (dict, float, str))
              or (isinstance(value, int) and not isinstance(value, bool))
              or (isinstance(value, list) and all(type(v) is float for v in value)))
        assert ok, f"{name}: {'.'.join(path)} = {value!r}"
