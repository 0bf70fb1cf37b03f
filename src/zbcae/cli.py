"""Command-line front end.

Every successful command prints a single JSON document on stdout; training
progress goes to stderr as one JSON line per epoch, and every warning raised
during a command as one JSON line too.  Exit codes: 0 success, 1 usage error,
2 data/format error, 3 numerical failure.  A command that names a manifest
loads it once, with :func:`~zbcae.dataset.load_dataset` (``run-all`` and
``sweep`` through :mod:`zbcae.pipeline`'s runners), and hands the stages
the loaded array.

ZBCAE_THREADS, when set to a positive integer, caps the BLAS thread pools
(it must take effect before numpy loads, which is why this module is
imported before any numeric submodule in the console-script entry path);
a value that is not a non-negative integer fails every command (exit 2).
"""

import os
import sys

_threads = os.environ.get("ZBCAE_THREADS", "").strip()
_threads_ok = not _threads or (_threads.isascii() and _threads.isdigit())
if _threads_ok and int(_threads or 0) > 0:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import json
import warnings
from pathlib import Path

from .cae import BIAS_MODES
from .config import parse_synthetic_spec, resolve_config
from .dataset import gen_synthetic, load_dataset, load_manifest
from .errors import ConfigError, ManifestError, NonFiniteLossError, ShapeError, TensorFileError
from .gradcheck import gradcheck_report
from .pipeline import (
    evaluate_features,
    extract_stage,
    filter_size_sweep,
    load_cae_checkpoint,
    load_features_file,
    load_svm_checkpoint,
    run_pipeline,
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
    def error(self, message):
        raise _UsageError(message)


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2))


def _progress(epoch, mean_loss, lr) -> None:
    print(json.dumps({"epoch": epoch, "mean_loss": mean_loss, "lr": lr}), file=sys.stderr)


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """``warnings.showwarning`` replacement: one JSON line on stderr."""
    print(json.dumps({"warning": str(message), "category": category.__name__}), file=sys.stderr)


def _write_report(text: str, path) -> None:
    sys.stdout.write(text)
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")


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
    config = resolve_config(args.config, {
        "filters": args.filters,
        "epochs": args.epochs,
        "batch_size": args.batch,
        "learning_rate": args.lr,
        "bias_mode": args.bias_mode,
        "seed": args.seed,
    })
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
    report = evaluate_features(svm_model, features, labels, meta)
    _write_report(report.to_json(), args.report)
    return 0


def cmd_run_all(args) -> int:
    config = resolve_config(args.config, {})
    train_m = load_manifest(args.train)
    test_m = load_manifest(args.test)
    report = run_pipeline(
        train_m, test_m, config.cae, config.svm, config.filters,
        l2_normalize=config.l2_normalize, kernel=config.kernel, progress=_progress,
    )
    _write_report(report.to_json(), args.report)
    return 0


def cmd_sweep(args) -> int:
    try:
        k_values = [int(v) for v in args.filters.split(",") if v.strip()]
    except ValueError:
        raise _UsageError(f"--filters expects a comma-separated integer list, got {args.filters!r}")
    if not k_values:
        raise _UsageError("--filters list is empty")
    if min(k_values) < 1:
        raise _UsageError(f"--filters counts must be >= 1, got {args.filters!r}")
    config = resolve_config(args.config, {})
    train_m = load_manifest(args.train)
    test_m = load_manifest(args.test)
    reports = filter_size_sweep(
        train_m, test_m, config.cae, config.svm, k_values,
        l2_normalize=config.l2_normalize, kernel=config.kernel, progress=_progress,
    )
    doc = {"rows": [
        {"filters": r.config_echo["filters"], "top1_accuracy": r.top1, "feature_dim": r.feature_dim}
        for r in reports
    ]}
    _write_report(json.dumps(doc, indent=2) + "\n", args.report)
    return 0


def cmd_gradcheck(args) -> int:
    _emit(gradcheck_report(seed=args.seed))
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
    p.add_argument("--filters", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--bias-mode", dest="bias_mode", choices=BIAS_MODES, default=None)
    p.add_argument("--seed", type=int, default=None)
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
    p.add_argument("--lambda", type=float, default=None, help="regularization strength")
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
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p.add_argument("--seed", type=int, default=0)
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
        if not _threads_ok:
            raise ConfigError(f"ZBCAE_THREADS must be unset or a non-negative integer, got {_threads!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _warning_line
            return args.func(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NonFiniteLossError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (TensorFileError, ManifestError, ConfigError, ShapeError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
