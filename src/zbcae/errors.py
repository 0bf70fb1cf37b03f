"""Exception types shared across the package, :func:`read_number`, the
one reader of numbers given as text (no numpy here: the CLI reads
``ZBCAE_THREADS`` with it before numpy loads), and :func:`check_fields`,
the one range check of the run settings' dataclasses, whose bounds their
fields declare in their metadata.

The CLI maps these onto exit codes: usage problems exit 1, data/format
problems exit 2, numerical failures exit 3.
"""

import math
import operator
import re
from dataclasses import fields

_NUMBER = {int: re.compile(r"[+-]?[0-9]+"), float: re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")}
_NON_FINITE = re.compile(r"[+-]?(nan|inf|infinity)", re.IGNORECASE)
# a field's metadata form -> whether its value lies within the bound
_BOUNDS = {">=": operator.ge, ">": operator.gt, "in": lambda value, b: b[0] < value < b[1],
           "one of": lambda value, b: value in b}


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


class CollapseError(ArithmeticError):
    """A training epoch left the code or the reconstruction zero on every
    sample: the parameters before that ReLU get no gradient, for good."""


class NonFiniteValueError(ValueError):
    """Number text that names nan or an infinity, or overflows to one."""


def read_number(text: str, kind: type):
    """``text`` as ``kind``, int or float, by one ASCII grammar (``_NUMBER``,
    the README's Configuration section): no whitespace, underscores or other
    scripts' digits.  NonFiniteValueError for ``nan`` or ``inf`` in any
    spelling ``float`` takes and for a float that overflows; ValueError for
    any other text outside the grammar."""
    if _NUMBER[kind].fullmatch(text):
        value = kind(text)
        if abs(value) != float("inf"):
            return value
    elif not _NON_FINITE.fullmatch(text):
        raise ValueError(f"expects {kind.__name__} in ASCII digits")
    raise NonFiniteValueError("must be finite")


def check_fields(config, error=ValueError) -> None:
    """``error`` naming the first field of dataclass ``config`` that holds
    a float nan or infinity, or a value outside the bound its metadata
    declares: ``{">=": n}``, ``{">": n}``, the open interval
    ``{"in": (lo, hi)}`` or ``{"one of": values}``."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value}")
        for form, bound in f.metadata.items():
            if not _BOUNDS[form](value, bound):
                raise error(f"{f.name} must be {form} {bound}, got {value!r}")
