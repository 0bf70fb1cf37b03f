"""End-to-end experiment plumbing: model/feature checkpoints, the stages,
the report document, and the one train -> extract -> classify -> evaluate
runner, the filter-size sweep (``run-all`` is its one-row case).

The stages take a manifest's samples as the one (N, C, H, W) array
:func:`~zbcae.dataset.load_dataset` returns; the runner and the commands
load each manifest once, and the runner loads both before any training.

Checkpoints reuse the ZTEN container: each holds its arrays, a class table
where it has one, and a ``meta_json`` record (UTF-8 JSON bytes stored as
float64 values).  ``meta_json`` is the only record of a run's settings: it
carries the configuration echo and training summary forward through every
stage, and :func:`evaluate_features` builds every report from it, so a report
assembled from staged files is identical to one produced by
:func:`filter_size_sweep` in a single process.  The loaders ignore records
they do not read, so files that still carry older records load unchanged.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from . import cae as cae_mod
from .cae import CaeModel, CaeTrainConfig, LossHistory
from .dataset import DatasetManifest, load_dataset
from .errors import ShapeError, TensorFileError
from .svm import SvmModel, SvmTrainConfig, _class_indices, predict_many, top1_accuracy, train_svm
from .tensorfile import load_tensors, save_tensors

POOL = 2  # fixed 2x2 pooling window of the extraction path


def _json_record(obj) -> np.ndarray:
    """Encode a JSON document as float64 byte values for a ZTEN record."""
    raw = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.float64)


def _record_json(path, records, name: str):
    """Decode record ``name`` written by :func:`_json_record`.  A value that
    is not an integer in 0..255, or bytes the JSON parser refuses (not UTF-8
    JSON, an over-long integer, over-deep nesting), raise TensorFileError
    naming the record."""
    arr = records[name]
    if not ((arr >= 0) & (arr <= 255) & (arr == np.floor(arr))).all():
        raise TensorFileError(f"{path}: record {name!r} holds a value that is not a byte (an integer in 0..255)")
    try:
        return json.loads(arr.astype(np.uint8).tobytes().decode("utf-8"))
    except (ValueError, RecursionError) as e:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise TensorFileError(f"{path}: record {name!r} is not UTF-8 JSON: {e}") from None


def _class_names(path, records) -> list:
    names = _record_json(path, records, "class_names_json")
    if not isinstance(names, list):
        raise TensorFileError(f"{path}: record 'class_names_json' is not a list")
    if not all(isinstance(name, str) for name in names):
        raise TensorFileError(f"{path}: record 'class_names_json' must be a list of strings")
    return names


def _meta(path, records) -> dict:
    meta = _record_json(path, records, "meta_json")
    if not isinstance(meta, dict):
        raise TensorFileError(f"{path}: record 'meta_json' is not a JSON object")
    return meta


def loss_summary(history: LossHistory) -> dict:
    if not history.mean_loss:
        return {"epochs_run": 0, "initial_mean_loss": None, "final_mean_loss": None,
                "final_lr": None, "anneal_events": []}
    return {
        "epochs_run": len(history.mean_loss),
        "initial_mean_loss": history.mean_loss[0],
        "final_mean_loss": history.mean_loss[-1],
        "final_lr": history.learning_rate[-1],
        "anneal_events": [{"epoch": e, "lr": lr} for e, lr in history.anneal_events],
    }


def svm_config_echo(config: SvmTrainConfig) -> dict:
    return {"lambda": config.lam, "lbfgs": asdict(config.lbfgs)}


# ---------------------------------------------------------------------------
# checkpoints

def _load_records(path, kind: str, names) -> dict:
    """The records of ZTEN file ``path``; TensorFileError naming the first
    of ``names`` it lacks."""
    records = load_tensors(path)
    for name in names:
        if name not in records:
            raise TensorFileError(f"{path}: {kind} is missing record {name!r}")
    return records


def _model(path, cls, **arrays):
    """``cls(**arrays)``; the ShapeError or ValueError it raises for arrays
    that do not make a model becomes a TensorFileError naming ``path``."""
    try:
        return cls(**arrays)
    except ValueError as e:
        raise TensorFileError(f"{path}: {e}") from None


def _save(path, meta: dict, classes=None, **arrays) -> None:
    """Write ``arrays`` as ZTEN records in order, then the class table
    ``classes`` when one is given, then ``meta``."""
    if classes is not None:
        arrays["class_names_json"] = _json_record(list(classes))
    save_tensors(path, {**arrays, "meta_json": _json_record(meta)})


def save_cae_checkpoint(path, model: CaeModel, meta: dict) -> None:
    _save(path, meta, encoder_weights=model.w_e, encoder_bias=model.b_e, decoder_bias=model.b_d)


def load_cae_checkpoint(path):
    records = _load_records(path, "model checkpoint",
                            ("encoder_weights", "encoder_bias", "decoder_bias", "meta_json"))
    model = _model(path, CaeModel, w_e=records["encoder_weights"], b_e=records["encoder_bias"],
                   b_d=records["decoder_bias"])
    return model, _meta(path, records)


def save_features_file(path, features, labels, classes, meta: dict) -> None:
    _save(path, meta, classes, features=features, labels=labels)


def load_features_file(path):
    records = _load_records(path, "features file", ("features", "labels", "class_names_json", "meta_json"))
    features, labels = records["features"], records["labels"]
    if features.ndim != 2 or labels.shape != (features.shape[0],):
        raise TensorFileError(f"{path}: features/labels shapes are inconsistent")
    if not np.isfinite(features).all():
        raise TensorFileError(f"{path}: record 'features' holds non-finite values")
    classes = _class_names(path, records)
    try:
        labels = _class_indices(labels, len(classes))
    except ShapeError as e:
        raise TensorFileError(f"{path}: {e}") from None
    return features, labels, classes, _meta(path, records)


def save_svm_checkpoint(path, model: SvmModel, meta: dict) -> None:
    _save(path, meta, model.class_names, weights=model.weights, biases=model.biases)


def load_svm_checkpoint(path):
    records = _load_records(path, "classifier checkpoint", ("weights", "biases", "class_names_json", "meta_json"))
    model = _model(path, SvmModel, weights=records["weights"], biases=records["biases"],
                   class_names=_class_names(path, records))
    return model, _meta(path, records)


# ---------------------------------------------------------------------------
# stages

def train_cae_stage(tensors: np.ndarray, cae_config: CaeTrainConfig, n_filters: int,
                    kernel: int = 3, progress=None):
    """Train the auto-encoder on an (N, C, H, W) array of samples (learning
    is unsupervised).  Returns (model, meta)."""
    model = cae_mod.init_model(n_filters, tensors.shape[1], kernel, seed=cae_config.seed)
    model, history = cae_mod.train(model, tensors, cae_config, progress=progress)
    meta = {
        "filters": n_filters,
        "kernel": kernel,
        "stride": 1,
        "pad": (kernel - 1) // 2,
        "pool": POOL,
        "cae_config": asdict(cae_config),
        "cae_summary": loss_summary(history),
    }
    return model, meta


def l2_normalize_rows(features: np.ndarray) -> np.ndarray:
    norms = np.sqrt((features * features).sum(axis=1, keepdims=True))
    return features / np.where(norms > 0.0, norms, 1.0)


def extract_stage(model: CaeModel, tensors: np.ndarray, l2_normalize: bool = False) -> np.ndarray:
    """Zero-bias features of an (N, C, H, W) array of samples, one row per
    sample in order: an N x D matrix."""
    features = cae_mod.extract_features(model, tensors)
    return l2_normalize_rows(features) if l2_normalize else features


# ---------------------------------------------------------------------------
# evaluation report

def evaluate_features(svm_model: SvmModel, features, labels, meta: dict) -> dict:
    """Score a feature matrix and assemble the report document: its
    ``results`` (the confusion matrix's rows are true classes, its columns
    predictions) under the classifier's class table, and the ``cae`` and
    ``config`` sections from the run's ``meta`` record (a missing key reads
    null, a missing ``l2_normalize`` False).  A label that is not a class
    index of the classifier raises ShapeError."""
    classes = svm_model.class_names
    n_classes = len(classes)
    labels = _class_indices(np.asarray(labels), n_classes)
    predictions = predict_many(svm_model, features)
    confusion = np.bincount(labels * n_classes + predictions, minlength=n_classes**2).reshape(n_classes, n_classes)
    row_sums = confusion.sum(axis=1)
    per_class = [
        float(confusion[c, c] / row_sums[c]) if row_sums[c] else 0.0 for c in range(n_classes)
    ]
    return {
        "results": {
            "top1_accuracy": top1_accuracy(predictions, labels),
            "per_class_accuracy": per_class,
            "confusion_matrix": confusion.tolist(),
            "n_test": int(labels.size),
            "feature_dim": int(np.asarray(features).shape[1]),
            "classes": list(classes),
        },
        "cae": meta.get("cae_summary"),
        "config": {
            **{key: meta.get(key) for key in ("filters", "kernel", "stride", "pad", "pool")},
            "l2_normalize": meta.get("l2_normalize", False),
            "cae": meta.get("cae_config"),
            "svm": meta.get("svm_config_echo"),
        },
    }


def filter_size_sweep(train_manifest: DatasetManifest, test_manifest: DatasetManifest,
                      cae_config: CaeTrainConfig, svm_config: SvmTrainConfig, k_values,
                      l2_normalize: bool = False, kernel: int = 3, progress=None) -> list:
    """For each filter count, train the auto-encoder on the train split,
    extract zero-bias features for both splits, fit the SVM on the train
    features and score the test split, sharing every seed; return one report
    document per count.  Each manifest is loaded once, and the class tables
    (one table, of at least two classes) and sample shapes of both are
    checked before any training.  Each report reads the CAE stage's meta
    plus what ``encode`` and ``train-svm`` add."""
    if not k_values:
        raise ValueError("k_values must be non-empty")
    classes = list(train_manifest.classes)
    if classes != list(test_manifest.classes):
        raise ShapeError("train and test manifests declare different class tables")
    if len(classes) < 2:
        raise ShapeError(f"need at least 2 classes, got {len(classes)}")
    (train_t, train_y), (test_t, test_y) = load_dataset(train_manifest), load_dataset(test_manifest)
    if train_t.shape[1:] != test_t.shape[1:]:
        raise ShapeError(f"train samples have shape {train_t.shape[1:]} but test samples have "
                         f"{test_t.shape[1:]}; both splits need one sample shape")
    reports = []
    for k in k_values:
        model, meta = train_cae_stage(train_t, cae_config, int(k), kernel, progress)
        train_x = extract_stage(model, train_t, l2_normalize)
        test_x = extract_stage(model, test_t, l2_normalize)
        svm_model = train_svm(train_x, train_y, len(classes), svm_config, class_names=classes)
        meta = {**meta, "l2_normalize": bool(l2_normalize), "svm_config_echo": svm_config_echo(svm_config)}
        reports.append(evaluate_features(svm_model, test_x, test_y, meta))
    return reports
