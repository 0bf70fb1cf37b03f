"""Command-line front end.

Every successful command prints a single JSON document on stdout; training
progress goes to stderr as one JSON line per epoch, and every warning raised
during a command as one JSON line too.  Exit codes: 0 success, 1 usage error,
2 data/format error, 3 numerical failure.  A command that names a manifest
loads it once, with :func:`~zbcae.dataset.load_dataset` (``run-all`` and
``sweep`` through :func:`~zbcae.pipeline.filter_size_sweep`, ``run-all`` as
its one-row case), and hands the stages the loaded array.  :func:`_emit`
writes every JSON document, the stdout one and a ``--report`` file alike.

Numbers are read by :func:`~zbcae.errors.read_number`.  A flag takes any
single-dash text that names no option (``-1e-5``, ``-inf``) as its value.
A config key's flag reaches ``resolve_config`` as text, so its bad value is
exit 2 as in a file;
a bad ``sweep --filters`` or ``gradcheck --seed`` is a usage error (exit 1).

ZBCAE_THREADS, when set to a positive integer, caps the BLAS thread pools:
it replaces any value the four BLAS variables already hold (it must take
effect before numpy loads, which is why this module is imported before any
numeric submodule in the console-script entry path); a value that is not an
integer >= 0 fails every command (exit 2).
"""

import os
import sys

from .errors import (CollapseError, ConfigError, ManifestError, NonFiniteLossError, ShapeError, TensorFileError,
                     read_number)


def _int_at_least(low: int, text: str) -> int | None:
    """``text`` as an int >= ``low`` by read_number's grammar, else None."""
    try:
        value = read_number(text, int)
    except ValueError:
        return None
    return value if value >= low else None


_threads = os.environ.get("ZBCAE_THREADS", "").strip()
_cap = _int_at_least(0, _threads or "0")
if _cap:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[_var] = str(_cap)

import argparse
import json
import re
import warnings
from pathlib import Path

from .cae import BIAS_MODES
from .config import parse_synthetic_spec, resolve_config
from .dataset import gen_synthetic, load_dataset, load_manifest
from .gradcheck import gradcheck_report
from .pipeline import (
    evaluate_features,
    extract_stage,
    filter_size_sweep,
    load_cae_checkpoint,
    load_features_file,
    load_svm_checkpoint,
    save_cae_checkpoint,
    save_features_file,
    save_svm_checkpoint,
    svm_config_echo,
    train_cae_stage,
)
from .svm import train_svm


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a dash token for an option unless it looks like a
        # negative number; here any single-dash token that names no option
        # (-1e-5, -inf, -1_0) is a value, for read_number to judge
        self._negative_number_matcher = re.compile("-(?!-)")

    def error(self, message):
        raise _UsageError(message)


def _emit(doc, path=None) -> None:
    """Write ``doc`` as indented JSON to ``path`` when one is given, and
    then the same text to stdout, so a failed write prints no report."""
    text = json.dumps(doc, indent=2) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _progress(epoch, mean_loss, lr) -> None:
    print(json.dumps({"epoch": epoch, "mean_loss": mean_loss, "lr": lr}), file=sys.stderr)


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """``warnings.showwarning`` replacement: one JSON line on stderr."""
    print(json.dumps({"warning": str(message), "category": category.__name__}), file=sys.stderr)


def cmd_gen_synthetic(args) -> int:
    spec = parse_synthetic_spec(args.spec)
    out_dir = Path(args.out)
    train, test = gen_synthetic(spec, out_dir)
    _emit({
        "train_manifest": str(out_dir / "train.json"),
        "test_manifest": str(out_dir / "test.json"),
        "n_train": len(train),
        "n_test": len(test),
        "classes": list(train.classes),
    })
    return 0


def cmd_train_cae(args) -> int:
    keys = ("filters", "epochs", "batch_size", "learning_rate", "bias_mode", "seed")
    config = resolve_config(args.config, {key: getattr(args, key) for key in keys})
    tensors, _ = load_dataset(load_manifest(args.train))
    model, meta = train_cae_stage(tensors, config.cae, config.filters, kernel=config.kernel, progress=_progress)
    save_cae_checkpoint(args.out, model, meta)
    _emit({"model": str(args.out), "filters": config.filters, **meta["cae_summary"]})
    return 0


def cmd_encode(args) -> int:
    model, meta = load_cae_checkpoint(args.model)
    manifest = load_manifest(args.manifest)
    tensors, labels = load_dataset(manifest)
    if tensors.shape[1] != model.n_channels:
        raise ShapeError(f"model {args.model} takes {model.n_channels}-channel maps but manifest {args.manifest} "
                         f"has {tensors.shape[1]}-channel samples; both need one channel count")
    features = extract_stage(model, tensors, args.l2_normalize)
    meta = {**meta, "l2_normalize": bool(args.l2_normalize)}
    save_features_file(args.out, features, labels, manifest.classes, meta)
    _emit({
        "features": str(args.out),
        "n_samples": int(features.shape[0]),
        "feature_dim": int(features.shape[1]),
        "l2_normalized": bool(args.l2_normalize),
    })
    return 0


def cmd_train_svm(args) -> int:
    config = resolve_config(args.config, {"lambda": getattr(args, "lambda")})
    features, labels, classes, meta = load_features_file(args.features)
    model = train_svm(features, labels, len(classes), config.svm, class_names=classes)
    meta = {**meta, "svm_config_echo": svm_config_echo(config.svm)}
    save_svm_checkpoint(args.out, model, meta)
    _emit({
        "model": str(args.out),
        "n_train": int(features.shape[0]),
        "feature_dim": int(features.shape[1]),
        "n_classes": len(classes),
        "lambda": config.svm.lam,
    })
    return 0


def cmd_evaluate(args) -> int:
    svm_model, meta = load_svm_checkpoint(args.svm)
    features, labels, classes, _ = load_features_file(args.features)
    if svm_model.class_names != classes:
        raise ShapeError(f"classifier {args.svm} has class table {svm_model.class_names} but features file "
                         f"{args.features} has {classes}; both need one table")
    if features.shape[1] != svm_model.weights.shape[1]:
        raise ShapeError(f"classifier {args.svm} takes {svm_model.weights.shape[1]} features per sample but "
                         f"features file {args.features} has {features.shape[1]}; both need one dimension")
    _emit(evaluate_features(svm_model, features, labels, meta), args.report)
    return 0


def cmd_run_all(args) -> int:
    sweep = args.command == "sweep"
    if sweep:
        k_values = [_int_at_least(1, v.strip()) for v in args.filters.split(",")]
        if None in k_values:
            raise _UsageError(f"--filters expects comma-separated integers >= 1, got {args.filters!r}")
    config = resolve_config(args.config, {})
    reports = filter_size_sweep(
        load_manifest(args.train), load_manifest(args.test), config.cae, config.svm,
        k_values if sweep else [config.filters],
        l2_normalize=config.l2_normalize, kernel=config.kernel, progress=_progress,
    )
    rows = [{"filters": r["config"]["filters"], "top1_accuracy": r["results"]["top1_accuracy"],
             "feature_dim": r["results"]["feature_dim"]} for r in reports]
    _emit({"rows": rows} if sweep else reports[0], args.report)
    return 0


def cmd_gradcheck(args) -> int:
    seed = _int_at_least(0, args.seed)
    if seed is None:
        raise _UsageError(f"--seed expects an integer >= 0, got {args.seed!r}")
    _emit(gradcheck_report(seed=seed))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="zbcae", description="Zero-bias convolutional auto-encoder feature pipeline")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("gen-synthetic", help="generate a synthetic feature-map dataset")
    p.add_argument("--spec", required=True, help="key=value synthetic spec file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("train-cae", help="train the auto-encoder on a manifest")
    p.add_argument("--train", required=True, help="training manifest JSON")
    p.add_argument("--out", required=True, help="model checkpoint path")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--filters")
    p.add_argument("--epochs")
    p.add_argument("--batch", dest="batch_size")
    p.add_argument("--lr", dest="learning_rate")
    p.add_argument("--bias-mode", dest="bias_mode", help=" or ".join(BIAS_MODES))
    p.add_argument("--seed")
    p.set_defaults(func=cmd_train_cae)

    p = sub.add_parser("encode", help="extract zero-bias features for a manifest")
    p.add_argument("--model", required=True, help="auto-encoder checkpoint")
    p.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p.add_argument("--out", required=True, help="features file path")
    p.add_argument("--l2-normalize", dest="l2_normalize", action="store_true")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("train-svm", help="train the classifier on a features file")
    p.add_argument("--features", required=True, help="features file from encode")
    p.add_argument("--out", required=True, help="classifier checkpoint path")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--lambda", help="regularization strength")
    p.set_defaults(func=cmd_train_svm)

    p = sub.add_parser("evaluate", help="score a features file with a trained classifier")
    p.add_argument("--svm", required=True, help="classifier checkpoint")
    p.add_argument("--features", required=True, help="features file to score")
    p.add_argument("--report", default=None, help="also write the report JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run-all", help="train, extract, classify and evaluate in one go")
    p.add_argument("--train", required=True, help="training manifest JSON")
    p.add_argument("--test", required=True, help="test manifest JSON")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--report", default=None, help="also write the report JSON here")
    p.set_defaults(func=cmd_run_all)

    p = sub.add_parser("sweep", help="run the pipeline for several filter counts")
    p.add_argument("--filters", required=True, help="comma-separated filter counts, e.g. 512,1024,2048,4096")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_run_all)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p.add_argument("--seed", default="0")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def dispatch(argv) -> int:
    """Parse argv (without the program name) and run one command."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        parser.print_usage(sys.stderr)
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse --help
        return 0 if e.code in (0, None) else 1
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        print("error: a command is required", file=sys.stderr)
        return 1
    try:
        if _cap is None:
            raise ConfigError(f"ZBCAE_THREADS must be unset or a non-negative integer, got {_threads!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _warning_line
            return args.func(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (NonFiniteLossError, CollapseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (TensorFileError, ManifestError, ConfigError, ShapeError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
