"""Property tests of scenario config merging: an override made of a
scenario's own default values changes nothing, a leaf of the wrong type is
always refused with ConfigError, and any config file run through the CLI
runs or fails typed."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casidec.cli import main
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


# the scenarios that no config can make run long: the only count they read
# is series_points, at most 10,000 points of closed forms; the grid
# scenarios and the identity suite can be set to run for hours
_QUICK = ["1d-mirror-vacuum", "sphere-rayleigh-vacuum", "sphere-thermal-free",
          "cosmic-background-sphere", "sieve-pointer-states"]

_EDGES = st.sampled_from([0, -1, 1, 2, 10_000, 10_001, 10**30, 0.0, -0.0, 5e-324, 1e-300,
                          1e300, -1e300, 1.7976931348623157e308])

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                              max_size=3),
    max_leaves=6)


@st.composite
def _mutated_config(draw):
    """A quick scenario's default config, as a file would give it, with a
    few keys dropped, retyped or set to edge values."""
    name = draw(st.sampled_from(_QUICK))
    config = copy.deepcopy(scenario_defaults(name))
    for path, default in draw(st.lists(st.sampled_from(list(_leaves(config))), max_size=3)):
        parent = config
        for key in path[:-1]:
            parent = parent.get(key)
            if not isinstance(parent, dict):
                break
        else:
            if path[-1] in parent:
                value = st.one_of(_EDGES, st.floats(), _wrong_values(default))
                if draw(st.booleans()):
                    parent[path[-1]] = draw(value)
                else:
                    del parent[path[-1]]
    return {"scenario": name, **config}


# a drawn config may leave a formula's regime: the CLI warns and runs on
@pytest.mark.filterwarnings("ignore::casidec.errors.RegimeWarning")
@settings(max_examples=100, deadline=None)
@given(content=st.one_of(
    st.binary(max_size=64),
    _JSON.map(lambda value: json.dumps(value).encode()),
    _mutated_config().map(lambda config: json.dumps(config).encode())))
def test_any_config_file_runs_or_fails_typed_through_the_cli(content):
    # exit 0, 2, 3 or 4 with no exception out of main, and either every
    # artifact of the run or none of them on disk
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_bytes(content)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = main(["run", str(cfg), "--out", str(out)])
        assert status in (0, 2, 3, 4)
        runs = list(out.iterdir()) if out.exists() else []
        assert len(runs) == (1 if status in (0, 4) else 0)
        for run in runs:
            manifest = json.loads((run / "manifest.json").read_text())
            assert sorted(p.name for p in run.iterdir()) == sorted(
                [*manifest["artifacts"], "manifest.json"])
