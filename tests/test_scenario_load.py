"""Scenario files parse to the same document under libyaml and under
PyYAML's pure-Python parser, and load_scenario uses libyaml when PyYAML
was built with it."""

from importlib import resources
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from tollroute import scenario
from tollroute.scenario import ScenarioError, load_scenario

BUNDLED = sorted(Path(str(resources.files("tollroute") / "scenarios")).glob("*.scn"))

needs_libyaml = pytest.mark.skipif(
    not yaml.__with_libyaml__, reason="PyYAML was built without libyaml"
)


# Without libyaml these skip, so a slower parser shows as skips.
@needs_libyaml
def test_load_scenario_uses_libyaml_where_pyyaml_has_it():
    assert scenario._LOADER is yaml.CSafeLoader


@needs_libyaml
@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.name)
def test_bundled_scenarios_parse_alike(path):
    text = path.read_text(encoding="utf-8")
    assert yaml.load(text, yaml.CSafeLoader) == yaml.load(text, yaml.SafeLoader)


_ADDR = st.binary(min_size=6, max_size=6).map(lambda b: b.hex("-"))
_SCALAR = st.one_of(
    st.integers(-(2**70), 2**70), st.booleans(), st.none(), st.text(max_size=12),
    st.floats(allow_nan=False),
)
_VALUE = st.recursive(
    _SCALAR,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12,
)
_DOC = st.fixed_dictionaries(
    {
        "version": st.integers(0, 3),
        "seed": st.integers(0, 2**64),
        "duration_ms": st.integers(1, 10**6),
        "defaults": st.dictionaries(st.sampled_from(["retries", "payment_mode", "x"]), _VALUE),
        "nodes": st.lists(
            st.fixed_dictionaries(
                {"addr": _ADDR, "cost": st.integers(0, 9)},
                optional={"serves": st.lists(
                    st.fixed_dictionaries({"prefix": st.text(min_size=1, max_size=10)
                                           .map(lambda s: "/" + s)}), max_size=2)},
            ),
            max_size=4,
        ),
        "links": st.lists(st.lists(st.one_of(_ADDR, st.integers(0, 50), st.floats(0, 1)),
                                   max_size=5), max_size=4),
        "schedule": st.lists(_VALUE, max_size=3),
    }
)


@needs_libyaml
@given(_DOC)
@settings(max_examples=60, deadline=None)
def test_scenario_shaped_documents_parse_alike(doc):
    # Not compared with doc: PyYAML's emitter writes some characters
    # (U+0085 with allow_unicode) as text that neither parser reads back.
    for text in (yaml.safe_dump(doc, sort_keys=False),
                 yaml.safe_dump(doc, sort_keys=False, allow_unicode=True)):
        assert yaml.load(text, yaml.CSafeLoader) == yaml.load(text, yaml.SafeLoader)


@pytest.mark.parametrize(
    "text", ["nodes: [unclosed\n", "a: b: c\n", "- a\nb: c\n", "key: 'open\n", "\tx: 1\n"]
)
def test_malformed_text_is_not_valid_yaml(tmp_path, text):
    path = tmp_path / "broken.scn"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    [problem] = err.value.problems
    assert problem.startswith(f"{path}: not valid YAML: ")
