"""Property-based fuzzing of the inputs read from files: a manifest read
from arbitrary JSON (or arbitrary bytes), a synthetic spec and a run config
read from arbitrary ``key = value`` lines, a ZTEN container read from
arbitrary bytes, and a CAE or classifier checkpoint read from arbitrary
records either parse or raise the package's own error type.

Examples are derandomized and kept few, so the suite stays fast and every
run tries the same inputs."""

import json
import math
import struct
from dataclasses import fields

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import array_shapes, arrays  # noqa: E402

from zbcae.cae import CaeModel  # noqa: E402
from zbcae.config import CliConfig, parse_synthetic_spec, resolve_config  # noqa: E402
from zbcae.dataset import DatasetManifest, SyntheticSpec, load_manifest  # noqa: E402
from zbcae.errors import ConfigError, ManifestError, TensorFileError  # noqa: E402
from zbcae.pipeline import _json_record, load_cae_checkpoint, load_svm_checkpoint  # noqa: E402
from zbcae.svm import SvmModel  # noqa: E402
from zbcae.tensorfile import DTYPE_F64, MAGIC, VERSION, load_tensors, save_tensors  # noqa: E402

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


CONFIG_KEYS = sorted(CliConfig().echo())
DEFAULTS = {key: str(value) for key, value in CliConfig().echo().items() if value is not None}
OTHER_VALUES = SPEC_VALUES | st.sampled_from(["true", "off", "always-zero", "None", ""])
# a known key with its default value (most lines), a known key with any
# value, or any text as the key
CONFIG_LINE = st.sampled_from(sorted(DEFAULTS)).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from([" = ", "="]), st.just(DEFAULTS[key]))
) | st.tuples(st.sampled_from(CONFIG_KEYS) | TEXT, st.sampled_from([" = ", "=", " "]), OTHER_VALUES)
CONFIG_LINES = st.lists(CONFIG_LINE, max_size=6)


@FUZZ
@given(lines=CONFIG_LINES)
def test_run_config_from_any_text_resolves_or_is_config_error(scratch, lines):
    path = scratch / "run.cfg"
    path.write_text("".join(f"{k}{sep}{v}\n" for k, sep, v in lines), encoding="utf-8")
    try:
        config = resolve_config(path)
    except ConfigError:
        return
    assert isinstance(config, CliConfig)
    assert all(math.isfinite(v) for v in config.echo().values() if isinstance(v, float))


@st.composite
def zten_records(draw):
    """One record: a name, a dtype code (mostly float64), extents and a
    payload that fits them exactly or is arbitrary."""
    name = draw(st.binary(max_size=6))
    dims = draw(st.lists(st.integers(0, 3) | st.integers(0, 2**64 - 1), max_size=3))
    n = math.prod(dims)
    exact = n <= 16 and draw(st.booleans())
    payload = draw(st.binary(min_size=8 * n, max_size=8 * n) if exact else st.binary(max_size=40))
    head = struct.pack("<H", len(name)) + name
    return head + struct.pack(f"<BB{len(dims)}Q", draw(st.sampled_from([DTYPE_F64] * 3 + [0, 3])),
                              len(dims), *dims) + payload


@st.composite
def zten_files(draw):
    """A ZTEN header over drawn records, with a record count off by at most
    one and a few trailing bytes now and then."""
    records = draw(st.lists(zten_records(), max_size=3))
    count = max(0, len(records) + draw(st.sampled_from([0, 0, 0, -1, 1])))
    version = draw(st.sampled_from([VERSION] * 3 + [0, 2]))
    tail = draw(st.sampled_from([b""] * 3) | st.binary(max_size=4))
    return MAGIC + struct.pack("<II", version, count) + b"".join(records) + tail


@FUZZ
@given(raw=st.binary(max_size=64) | zten_files())
def test_tensor_file_from_any_bytes_loads_or_is_tensor_file_error(scratch, raw):
    path = scratch / "t.zten"
    path.write_bytes(raw)
    try:
        records = load_tensors(path)
    except TensorFileError as e:
        assert str(e).startswith(f"{path}: ")
        return
    assert isinstance(records, dict)
    assert all(isinstance(a, np.ndarray) and a.dtype == np.float64 for a in records.values())


def _values(shape):
    """An array of ``shape``: mostly finite values, else any floats (NaN and
    infinities included).  Hypothesis favours small integers, so ``k < 7``
    is the common branch."""
    return st.integers(0, 7).flatmap(
        lambda k: arrays(np.float64, shape, elements=st.floats(-10, 10) if k < 7 else st.floats()))


def _array(shape):
    """An array record: mostly of ``shape``, else of any shape."""
    any_shape = array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3)
    return st.integers(0, 7).flatmap(lambda k: _values(shape) if k < 7 else any_shape.flatmap(_values))


def _json(doc):
    """A JSON record holding ``doc`` most of the time, else any JSON value,
    JSON text the parser refuses, or an array of any values."""
    unparsable = st.sampled_from(["1" * 5000, "[" * 5000 + "]" * 5000]).map(
        lambda text: np.frombuffer(text.encode(), dtype=np.uint8).astype(np.float64))
    return st.integers(0, 7).flatmap(lambda k: (
        st.just(_json_record(doc)) if k < 5 else JSON_VALUES.map(_json_record) if k == 5
        else unparsable if k == 6 else _array((3,))))


def _records(draw, records):
    """``records`` with one left out now and then and, at times, the extra
    record an older checkpoint held."""
    kept = {name: draw(value) for name, value in records.items() if draw(st.integers(0, 15)) < 15}
    if draw(st.booleans()):
        kept["lambda"] = draw(_array((1,)))
    return kept


# sampled_from favours its first entries: most draws give dimensions that make a model
@st.composite
def cae_records(draw):
    k, c, kh = (draw(st.sampled_from(sides)) for sides in ([2, 3, 1, 0], [2, 3, 1, 0], [3, 1, 2, 4]))
    return _records(draw, {"encoder_weights": _array((k, c, kh, kh)), "encoder_bias": _array((k,)),
                           "decoder_bias": _array((c,)), "meta_json": _json({"filters": k})})


@st.composite
def svm_records(draw):
    n, d = (draw(st.sampled_from(sides)) for sides in ([2, 3, 1], [2, 3, 1, 0]))
    return _records(draw, {"weights": _array((n, d)), "biases": _array((n,)),
                           "class_names_json": _json([str(i) for i in range(n)]),
                           "meta_json": _json({"svm_config_echo": None})})


@FUZZ
@pytest.mark.parametrize("load, model_type, records", [
    (load_cae_checkpoint, CaeModel, cae_records()), (load_svm_checkpoint, SvmModel, svm_records()),
], ids=["cae", "svm"])
@given(data=st.data())
def test_checkpoint_from_any_records_loads_or_is_tensor_file_error(scratch, load, model_type, records, data):
    path = scratch / "checkpoint.zten"
    save_tensors(path, data.draw(records))
    try:
        model, meta = load(path)
    except TensorFileError as e:
        assert str(e).startswith(f"{path}: ")
        return
    assert isinstance(model, model_type) and isinstance(meta, dict)
