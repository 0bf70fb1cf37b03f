"""Flat key=value configuration files and the resolved CLI configuration.

Precedence is flag > config file > built-in default.  The keys and their
defaults are derived from the component configs: every
:class:`~zbcae.cae.CaeTrainConfig` field under its own name,
:class:`~zbcae.svm.SvmTrainConfig`'s ``lam`` as ``lambda``, every
:class:`~zbcae.svm.LbfgsConfig` field with an ``lbfgs_`` prefix, and
:class:`CliConfig`'s own geometry and ``l2_normalize`` fields.  A
synthetic-spec file's keys and types are likewise the fields of
:class:`~zbcae.dataset.SyntheticSpec`.  Both files and the flags are read as
text by one loop, numbers by :func:`~zbcae.errors.read_number`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .cae import CaeTrainConfig
from .dataset import SyntheticSpec
from .errors import ConfigError, ManifestError, NonFiniteValueError, check_fields, read_number
from .svm import LbfgsConfig, SvmTrainConfig


def parse_config_file(path) -> dict:
    """Parse UTF-8 ``key = value`` lines; '#' starts a comment.  A key set
    on two lines is a ConfigError naming both."""
    out, first_line = {}, {}
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
        key = key.strip()
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is set on lines {first_line[key]} and {lineno}")
        first_line[key] = lineno
        out[key] = value.strip()
    return out


_BOOLS = {**dict.fromkeys(("true", "yes", "on", "1"), True), **dict.fromkeys(("false", "no", "off", "0"), False)}


@dataclass
class CliConfig:
    """Fully resolved settings: the conv geometry, the feature
    post-processing switch and the component configs the stages run with.
    The geometry keys admit only the same-size convolution, the one at which
    the tied decoder's reconstruction lands on the input grid."""

    filters: int = field(default=4096, metadata={">=": 1})
    kernel: int = field(default=3, metadata={">=": 1})
    stride: int = 1
    pad: int | None = None  # (kernel - 1) // 2 when unset
    pool: int = 2
    l2_normalize: bool = False
    cae: CaeTrainConfig = field(default_factory=CaeTrainConfig)
    svm: SvmTrainConfig = field(default_factory=SvmTrainConfig)

    def __post_init__(self):
        check_fields(self, ConfigError)
        if self.pool != 2:
            raise ConfigError(f"pool must be 2 (the only supported window), got {self.pool}")
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


def _read_fields(pairs: dict, by_name: dict, unknown: str, non_finite=ConfigError) -> dict:
    """``{key: text}`` as ``{key: value}``, each text read as the type its
    field in ``by_name`` is annotated with ("int", "int | None", ...).
    ConfigError for a key not in ``by_name`` (``unknown`` and the key) or
    text that does not parse; ``non_finite``, the fields' owner's error type,
    for a non-finite float."""
    values = {}
    for key, text in pairs.items():
        if key not in by_name:
            raise ConfigError(f"{unknown} {key!r}")
        kind = by_name[key].type.split(" |")[0]
        try:
            if kind in ("int", "float"):
                values[key] = read_number(text, int if kind == "int" else float)
            elif kind == "bool" and text.lower() not in _BOOLS:
                raise ValueError("expects a boolean")
            else:
                values[key] = _BOOLS[text.lower()] if kind == "bool" else text
        except NonFiniteValueError as e:
            raise non_finite(f"{key} must be finite, got {text!r}") from e
        except ValueError as e:
            raise ConfigError(f"config key {key!r} {e}, got {text!r}") from e
    return values


def resolve_config(config_path=None, overrides: dict | None = None) -> CliConfig:
    """Merge defaults, the optional config file, and flag overrides, and
    build the component configs.

    ``overrides`` maps config keys to values (None entries are ignored),
    each read from its ``str`` as a file's text is.  Unknown keys in either
    source, text that does not parse or names a non-finite float, and every
    value a component config rejects, raise ConfigError.
    """
    by_name = {key: f for key, (_, f) in _KEYS.items()}
    values = {} if config_path is None else _read_fields(
        parse_config_file(config_path), by_name, f"{config_path}: unknown config key")
    values.update(_read_fields({k: str(v) for k, v in (overrides or {}).items() if v is not None},
                               by_name, "unknown config key"))
    parts = {owner: {} for owner, _ in _KEYS.values()}
    for key, value in values.items():
        owner, f = _KEYS[key]
        parts[owner][f.name] = value
    try:
        svm = SvmTrainConfig(lbfgs=LbfgsConfig(**parts["lbfgs"]), **parts["svm"])
        return CliConfig(cae=CaeTrainConfig(**parts["cae"]), svm=svm, **parts[""])
    except ValueError as e:
        raise ConfigError(str(e)) from e


def parse_synthetic_spec(path) -> SyntheticSpec:
    """Read a SyntheticSpec from a key=value file whose keys and types are
    the spec's fields; a non-finite float is a ManifestError, as the spec's
    own range checks raise."""
    spec_fields = {f.name: f for f in fields(SyntheticSpec)}
    return SyntheticSpec(**_read_fields(parse_config_file(path), spec_fields,
                                        f"{path}: unknown synthetic spec key", ManifestError))
