"""Property-based fuzzing of the text inputs: a manifest read from arbitrary
JSON (or arbitrary bytes) and a synthetic spec read from arbitrary
``key = value`` lines either parse or raise the package's own error type.

Examples are derandomized and kept few, so the suite stays fast and every
run tries the same inputs."""

import json
import math
from dataclasses import fields

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from zbcae.config import parse_synthetic_spec  # noqa: E402
from zbcae.dataset import DatasetManifest, SyntheticSpec, load_manifest  # noqa: E402
from zbcae.errors import ConfigError, ManifestError  # noqa: E402

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# text UTF-8 can encode (no lone surrogates)
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=12,
)


def _field(value):
    """A manifest field: well-typed three times in four, else any JSON value."""
    return st.integers(0, 3).flatmap(lambda k: value if k else JSON_VALUES)


# labels: class indices in and out of range, and values once coerced to 1
LABELS = st.integers(-1, 3) | st.sampled_from([1.0, 1.5, True, "1", float("nan")])
ITEMS = _field(st.fixed_dictionaries({"path": _field(TEXT), "record": _field(TEXT), "label": _field(LABELS)}))
MANIFESTS = _field(st.fixed_dictionaries(
    {"classes": _field(st.lists(TEXT, min_size=2, max_size=4)), "items": _field(st.lists(ITEMS, max_size=3))}
))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(doc=MANIFESTS)
def test_manifest_from_any_json_parses_or_is_manifest_error(scratch, doc):
    path = scratch / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        manifest = load_manifest(path)
    except ManifestError as e:
        assert str(e).startswith(f"{path}: ")
        return
    assert isinstance(manifest, DatasetManifest)
    assert all(type(it.label) is int and 0 <= it.label < len(manifest.classes) for it in manifest.items)


@FUZZ
@given(raw=st.binary(max_size=64))
def test_manifest_from_any_bytes_parses_or_is_manifest_error(scratch, raw):
    path = scratch / "m.json"
    path.write_bytes(raw)
    try:
        load_manifest(path)
    except ManifestError as e:
        assert str(e).startswith(f"{path}: ")


SPEC_KEYS = st.sampled_from([f.name for f in fields(SyntheticSpec)]) | TEXT
SPEC_VALUES = st.integers(-3, 50).map(str) | st.floats().map(str) | st.sampled_from(["nan", "-inf", "1e400"]) | TEXT
SPEC_LINES = st.lists(st.tuples(SPEC_KEYS, st.sampled_from([" = ", "=", " "]), SPEC_VALUES), max_size=6)


@FUZZ
@given(lines=SPEC_LINES)
def test_synthetic_spec_from_any_text_parses_or_is_typed_error(scratch, lines):
    path = scratch / "spec.cfg"
    path.write_text("".join(f"{k}{sep}{v}\n" for k, sep, v in lines), encoding="utf-8")
    try:
        spec = parse_synthetic_spec(path)
    except (ConfigError, ManifestError):
        return
    assert isinstance(spec, SyntheticSpec) and math.isfinite(spec.mu) and math.isfinite(spec.sigma)
