"""Exception types shared across the package.

The CLI maps these onto exit codes: usage problems exit 1, data/format
problems exit 2, numerical failures exit 3.
"""


class ShapeError(ValueError):
    """An operand's dimensionality, extents or values (a label that is not a
    class index, a non-finite feature) do not fit the operation."""


class TensorFileError(ValueError):
    """A tensor container file is malformed."""


class BadMagicError(TensorFileError):
    """The file does not start with the expected magic bytes."""


class VersionError(TensorFileError):
    """The container declares an unsupported format version."""


class TruncatedFileError(TensorFileError):
    """The file ends before a declared field or payload is complete."""


class DuplicateRecordError(TensorFileError):
    """Two records in one container share a name."""


class ManifestError(ValueError):
    """A dataset manifest is malformed or references missing data."""


class ConfigError(ValueError):
    """A configuration file or value cannot be parsed or is out of range."""


class NonFiniteLossError(ArithmeticError):
    """Training produced a NaN or infinite loss."""
