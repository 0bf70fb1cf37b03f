"""Container format tests: byte-exact round trips and malformed-file
diagnostics with offsets."""

import struct

import numpy as np
import numpy.testing as npt
import pytest

from zbcae.errors import (
    BadMagicError,
    DuplicateRecordError,
    TensorFileError,
    TruncatedFileError,
    VersionError,
)
from zbcae.tensorfile import DTYPE_F64, MAGIC, VERSION, load_tensors, save_tensors


def test_round_trip_consecutive_values(tmp_path):
    path = tmp_path / "t.zten"
    original = np.arange(6.0).reshape(2, 3)
    save_tensors(path, {"a": original})
    loaded = load_tensors(path)
    assert list(loaded) == ["a"]
    npt.assert_array_equal(loaded["a"], original)
    assert loaded["a"].dtype == np.float64


def test_round_trip_multiple_records_preserves_order(tmp_path):
    path = tmp_path / "t.zten"
    rng = np.random.default_rng(60)
    tensors = {
        "weights": rng.normal(size=(2, 3, 3, 3)),
        "bias": rng.normal(size=5),
        "scalar": np.array(4.25),
    }
    save_tensors(path, tensors)
    loaded = load_tensors(path)
    assert list(loaded) == ["weights", "bias", "scalar"]
    npt.assert_array_equal(loaded["weights"], tensors["weights"])
    npt.assert_array_equal(loaded["scalar"], np.array([4.25]))  # scalars become length-1


def test_save_load_save_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.zten", tmp_path / "b.zten"
    rng = np.random.default_rng(61)
    save_tensors(a, {"x": rng.normal(size=(3, 4)), "y": rng.normal(size=(2,))})
    save_tensors(b, load_tensors(a))
    assert a.read_bytes() == b.read_bytes()


def test_empty_record_list(tmp_path):
    path = tmp_path / "empty.zten"
    save_tensors(path, {})
    assert load_tensors(path) == {}


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.zten"
    path.write_bytes(b"XXXX" + struct.pack("<II", VERSION, 0))
    with pytest.raises(BadMagicError, match="offset 0"):
        load_tensors(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "v9.zten"
    path.write_bytes(MAGIC + struct.pack("<II", 9, 0))
    with pytest.raises(VersionError, match="version 9"):
        load_tensors(path)


def test_truncated_payload_reports_offset(tmp_path):
    path = tmp_path / "trunc.zten"
    save_tensors(path, {"x": np.arange(4.0)})
    data = path.read_bytes()
    path.write_bytes(data[:-8])  # drop the final element
    with pytest.raises(TruncatedFileError, match="payload of record 'x'"):
        load_tensors(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "short.zten"
    path.write_bytes(MAGIC + b"\x01")
    with pytest.raises(TruncatedFileError, match="format version"):
        load_tensors(path)


def test_duplicate_record_names(tmp_path):
    path = tmp_path / "dup.zten"
    record = struct.pack("<H", 1) + b"x" + struct.pack("<BB", DTYPE_F64, 1) + struct.pack("<Q", 1) + struct.pack("<d", 1.0)
    path.write_bytes(MAGIC + struct.pack("<II", VERSION, 2) + record + record)
    with pytest.raises(DuplicateRecordError, match="'x'"):
        load_tensors(path)


def test_unknown_dtype_code(tmp_path):
    path = tmp_path / "dtype.zten"
    record = struct.pack("<H", 1) + b"x" + struct.pack("<BB", 7, 1) + struct.pack("<Q", 1) + struct.pack("<d", 1.0)
    path.write_bytes(MAGIC + struct.pack("<II", VERSION, 1) + record)
    with pytest.raises(TensorFileError, match="dtype code 7"):
        load_tensors(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "trail.zten"
    save_tensors(path, {"x": np.arange(2.0)})
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(TensorFileError, match="trailing"):
        load_tensors(path)


def test_invalid_utf8_record_name_names_offset(tmp_path):
    path = tmp_path / "name.zten"
    record = struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<BB", DTYPE_F64, 1) + struct.pack("<Q", 1) + struct.pack("<d", 1.0)
    path.write_bytes(MAGIC + struct.pack("<II", VERSION, 1) + record)
    with pytest.raises(TensorFileError, match="offset 14 is not valid UTF-8"):
        load_tensors(path)


def test_extents_beyond_numpy_limit_name_offset(tmp_path):
    # zero elements, so no payload bytes follow, but 2**63 exceeds the
    # largest dimension numpy can represent
    path = tmp_path / "extents.zten"
    record = struct.pack("<H", 1) + b"x" + struct.pack("<BB", DTYPE_F64, 2) + struct.pack("<2Q", 0, 2**63)
    path.write_bytes(MAGIC + struct.pack("<II", VERSION, 1) + record)
    with pytest.raises(TensorFileError, match=r"extents \(0, 9223372036854775808\) at offset 17"):
        load_tensors(path)


def test_payload_longer_than_the_file_is_truncation_not_allocation(tmp_path):
    # the extents claim 2**40 elements (8 TiB): the loader compares that
    # with the file size before it allocates anything
    path = tmp_path / "huge.zten"
    record = struct.pack("<H", 1) + b"x" + struct.pack("<BB", DTYPE_F64, 2) + struct.pack("<2Q", 2**20, 2**20)
    path.write_bytes(MAGIC + struct.pack("<II", VERSION, 1) + record + struct.pack("<d", 1.0))
    assert path.stat().st_size < 100
    with pytest.raises(TruncatedFileError, match="payload of record 'x' at offset 33"):
        load_tensors(path)


def test_loaded_arrays_are_aligned_writeable_contiguous_float64(tmp_path):
    # the pipeline runs in-place updates and BLAS on what it loads
    path = tmp_path / "t.zten"
    rng = np.random.default_rng(62)
    save_tensors(path, {"name": np.array(1.0), "a": rng.normal(size=(3, 5)), "b": rng.normal(size=(2, 1, 4)),
                        "empty": np.zeros((0, 3))})
    for name, arr in load_tensors(path).items():
        assert arr.dtype == np.float64, name
        assert arr.flags.c_contiguous and arr.flags.aligned and arr.flags.writeable, name
