"""Flat key=value configuration files and the resolved CLI configuration.

Precedence is flag > config file > built-in default.  The keys and their
defaults are derived from the component configs: every
:class:`~zbcae.cae.CaeTrainConfig` field under its own name,
:class:`~zbcae.svm.SvmTrainConfig`'s ``lam`` as ``lambda``, every
:class:`~zbcae.svm.LbfgsConfig` field with an ``lbfgs_`` prefix, and
:class:`CliConfig`'s own geometry and ``l2_normalize`` fields.  A
synthetic-spec file's keys and types are likewise the fields of
:class:`~zbcae.dataset.SyntheticSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .cae import CaeTrainConfig
from .dataset import SyntheticSpec
from .errors import ConfigError
from .svm import LbfgsConfig, SvmTrainConfig


def parse_config_file(path) -> dict:
    """Parse UTF-8 ``key = value`` lines; '#' starts a comment."""
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not valid UTF-8: {e}") from e
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        out[key.strip()] = value.strip()
    return out


def _parse_bool(value: str, key: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"config key {key!r} expects a boolean, got {value!r}")


@dataclass
class CliConfig:
    """Fully resolved settings: the conv geometry, the feature
    post-processing switch and the component configs the stages run with.
    The geometry keys admit only the same-size convolution, the one at which
    the tied decoder's reconstruction lands on the input grid."""

    filters: int = 4096
    kernel: int = 3
    stride: int = 1
    pad: int | None = None  # (kernel - 1) // 2 when unset
    pool: int = 2
    l2_normalize: bool = False
    cae: CaeTrainConfig = field(default_factory=CaeTrainConfig)
    svm: SvmTrainConfig = field(default_factory=SvmTrainConfig)

    def __post_init__(self):
        if self.pool != 2:
            raise ConfigError(f"pool must be 2 (the only supported window), got {self.pool}")
        if self.filters < 1 or self.kernel < 1:
            raise ConfigError("filters and kernel must be >= 1")
        if self.pad is None:
            self.pad = (self.kernel - 1) // 2
        if self.stride != 1 or self.kernel % 2 == 0 or 2 * self.pad != self.kernel - 1:
            raise ConfigError(f"the auto-encoder needs stride 1 and pad (kernel - 1) / 2 with an odd kernel; "
                              f"got kernel {self.kernel}, stride {self.stride}, pad {self.pad}")

    def echo(self) -> dict:
        """Config-file-keyed view of every resolved value."""
        owners = {"": self, "cae": self.cae, "svm": self.svm, "lbfgs": self.svm.lbfgs}
        return {key: getattr(owners[owner], f.name) for key, (owner, f) in _KEYS.items()}


# config key -> (owner, field), the owner named as in CliConfig.echo
_KEYS = {
    **{f.name: ("", f) for f in fields(CliConfig) if f.name not in ("cae", "svm")},
    **{f.name: ("cae", f) for f in fields(CaeTrainConfig)},
    "lambda": ("svm", next(f for f in fields(SvmTrainConfig) if f.name == "lam")),
    **{f"lbfgs_{f.name}": ("lbfgs", f) for f in fields(LbfgsConfig)},
}


def _coerce(f, key: str, value):
    """``value`` as the type of dataclass field ``f``, read from its
    annotation string ("int", "int | None", ...); ConfigError naming
    ``key`` when it does not parse.  A number must be written in ASCII:
    ``int`` and ``float`` would read other scripts' digits too."""
    if not isinstance(value, str):
        return value  # flag values arrive already typed
    kind = f.type.split(" |")[0]
    if kind in ("int", "float") and not value.isascii():
        raise ConfigError(f"config key {key!r} expects {kind} in ASCII digits, got {value!r}")
    try:
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        if kind == "bool":
            return _parse_bool(value, key)
        return value
    except ValueError as e:
        raise ConfigError(f"config key {key!r} expects {kind}, got {value!r}") from e


def resolve_config(config_path=None, overrides: dict | None = None) -> CliConfig:
    """Merge defaults, the optional config file, and flag overrides, and
    build the component configs.

    ``overrides`` maps config keys to already-typed values (None entries are
    ignored).  Unknown keys in either source, a float that is not finite, a
    negative seed, and every value a component config rejects, raise
    ConfigError.
    """
    values = {}
    if config_path is not None:
        for key, raw in parse_config_file(config_path).items():
            if key not in _KEYS:
                raise ConfigError(f"{config_path}: unknown config key {key!r}")
            values[key] = _coerce(_KEYS[key][1], key, raw)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _coerce(_KEYS[key][1], key, value)
    parts = {owner: {} for owner, _ in _KEYS.values()}
    for key, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
        if key == "seed" and value < 0:
            raise ConfigError(f"config key 'seed' must be >= 0, got {value!r}")
        owner, f = _KEYS[key]
        parts[owner][f.name] = value
    try:
        svm = SvmTrainConfig(lbfgs=LbfgsConfig(**parts["lbfgs"]), **parts["svm"])
        return CliConfig(cae=CaeTrainConfig(**parts["cae"]), svm=svm, **parts[""])
    except ValueError as e:
        raise ConfigError(str(e)) from e


def parse_synthetic_spec(path) -> SyntheticSpec:
    """Read a SyntheticSpec from a key=value file whose keys and types are
    the spec's fields."""
    spec_fields = {f.name: f for f in fields(SyntheticSpec)}
    values = {}
    for key, raw in parse_config_file(path).items():
        if key not in spec_fields:
            raise ConfigError(f"{path}: unknown synthetic spec key {key!r}")
        values[key] = _coerce(spec_fields[key], key, raw)
    return SyntheticSpec(**values)
