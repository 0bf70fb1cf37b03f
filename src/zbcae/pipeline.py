"""End-to-end experiment plumbing: model/feature checkpoints, the
train -> extract -> classify -> evaluate runner, and the filter-size sweep.

Checkpoints reuse the ZTEN container.  A ``meta_json`` record (UTF-8 JSON
bytes stored as float64 values) carries the configuration echo and training
summary forward through every stage, so a report assembled from staged
files is identical to one produced by :func:`run_pipeline` in a single
process.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import cae as cae_mod
from .cae import BIAS_ALWAYS_ZERO, BIAS_TRAIN_THEN_ZERO, CaeModel, CaeTrainConfig, LossHistory
from .dataset import DatasetManifest, load_dataset
from .errors import ShapeError, TensorFileError
from .svm import SvmModel, SvmTrainConfig, predict_many, top1_accuracy, train_svm
from .tensorfile import load_tensors, save_tensors

POOL = 2  # fixed 2x2 pooling window of the extraction path

_BIAS_CODES = {BIAS_TRAIN_THEN_ZERO: 0.0, BIAS_ALWAYS_ZERO: 1.0}
_BIAS_NAMES = {v: k for k, v in _BIAS_CODES.items()}


def _json_record(obj) -> np.ndarray:
    """Encode a JSON document as float64 byte values for a ZTEN record."""
    raw = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.float64)


def _record_json(path, records, name: str):
    """Decode record ``name`` written by :func:`_json_record`.  A value that
    is not an integer in 0..255, or bytes that are not UTF-8 JSON, raise
    TensorFileError naming the record."""
    arr = records[name]
    if not ((arr >= 0) & (arr <= 255) & (arr == np.floor(arr))).all():
        raise TensorFileError(f"{path}: record {name!r} holds a value that is not a byte (an integer in 0..255)")
    try:
        return json.loads(arr.astype(np.uint8).tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise TensorFileError(f"{path}: record {name!r} is not UTF-8 JSON: {e}") from None


def _scalar_record(path, records, name: str, allowed=None) -> float:
    """The value of record ``name``, which must hold exactly one finite
    element, one of ``allowed`` when given; TensorFileError naming the
    record otherwise."""
    arr = records[name]
    if arr.size != 1 or not np.isfinite(arr).all() or (allowed is not None and arr.item() not in allowed):
        expected = "one finite value" if allowed is None else f"one value in {sorted(allowed)}"
        raise TensorFileError(f"{path}: record {name!r} must hold {expected}, got {arr.ravel().tolist()}")
    return arr.item()


def _class_names(path, records) -> list:
    names = _record_json(path, records, "class_names_json")
    if not isinstance(names, list):
        raise TensorFileError(f"{path}: record 'class_names_json' is not a list")
    return names


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


def cae_config_echo(config: CaeTrainConfig) -> dict:
    return asdict(config)


def svm_config_echo(config: SvmTrainConfig) -> dict:
    return {"lambda": config.lam, "lbfgs": asdict(config.lbfgs)}


# ---------------------------------------------------------------------------
# checkpoints

def save_cae_checkpoint(path, model: CaeModel, bias_mode: str, meta: dict) -> None:
    save_tensors(path, {
        "encoder_weights": model.w_e,
        "encoder_bias": model.b_e,
        "decoder_bias": model.b_d,
        "conv_stride": np.array([1.0]),
        "conv_pad": np.array([float((model.kernel - 1) // 2)]),
        "bias_mode": np.array([_BIAS_CODES[bias_mode]]),
        "decoder_relu": np.array([1.0 if model.decoder_relu else 0.0]),
        "meta_json": _json_record(meta),
    })


def load_cae_checkpoint(path):
    records = load_tensors(path)
    required = ("encoder_weights", "encoder_bias", "decoder_bias",
                "conv_stride", "conv_pad", "bias_mode", "decoder_relu", "meta_json")
    for name in required:
        if name not in records:
            raise TensorFileError(f"{path}: model checkpoint is missing record {name!r}")
    code = _scalar_record(path, records, "bias_mode", _BIAS_NAMES)
    model = CaeModel(
        w_e=records["encoder_weights"],
        b_e=records["encoder_bias"],
        b_d=records["decoder_bias"],
        decoder_relu=bool(_scalar_record(path, records, "decoder_relu", (0.0, 1.0))),
    )
    # the only geometry the model runs: stride 1, pad (kernel - 1) / 2
    _scalar_record(path, records, "conv_stride", (1.0,))
    _scalar_record(path, records, "conv_pad", (float((model.kernel - 1) // 2),))
    return model, _BIAS_NAMES[code], _record_json(path, records, "meta_json")


def save_features_file(path, features, labels, classes, meta: dict) -> None:
    save_tensors(path, {
        "features": np.asarray(features, dtype=np.float64),
        "labels": np.asarray(labels, dtype=np.float64),
        "class_names_json": _json_record(list(classes)),
        "meta_json": _json_record(meta),
    })


def load_features_file(path):
    records = load_tensors(path)
    for name in ("features", "labels", "class_names_json", "meta_json"):
        if name not in records:
            raise TensorFileError(f"{path}: features file is missing record {name!r}")
    features, labels = records["features"], records["labels"]
    if features.ndim != 2 or labels.shape != (features.shape[0],):
        raise TensorFileError(f"{path}: features/labels shapes are inconsistent")
    if not np.isfinite(features).all():
        raise TensorFileError(f"{path}: record 'features' holds non-finite values")
    classes = _class_names(path, records)
    bad = ~((labels >= 0) & (labels < len(classes)) & (labels == np.floor(labels)))
    if bad.any():
        raise TensorFileError(f"{path}: label {float(labels[bad][0])} is not a class index in 0..{len(classes) - 1}")
    return features, labels.astype(np.int64), classes, _record_json(path, records, "meta_json")


def save_svm_checkpoint(path, model: SvmModel, lam: float, meta: dict) -> None:
    save_tensors(path, {
        "weights": model.weights,
        "biases": model.biases,
        "lambda": np.array([float(lam)]),
        "class_names_json": _json_record(list(model.class_names)),
        "meta_json": _json_record(meta),
    })


def load_svm_checkpoint(path):
    records = load_tensors(path)
    for name in ("weights", "biases", "lambda", "class_names_json", "meta_json"):
        if name not in records:
            raise TensorFileError(f"{path}: classifier checkpoint is missing record {name!r}")
    model = SvmModel(
        weights=records["weights"],
        biases=records["biases"],
        class_names=_class_names(path, records),
    )
    lam = _scalar_record(path, records, "lambda")
    if lam < 0:
        raise TensorFileError(f"{path}: record 'lambda' must be >= 0, got {lam}")
    return model, lam, _record_json(path, records, "meta_json")


# ---------------------------------------------------------------------------
# stages

def train_cae_stage(train_manifest: DatasetManifest, cae_config: CaeTrainConfig, n_filters: int,
                    kernel: int = 3, progress=None, data=None):
    """Train the auto-encoder on a manifest's tensors (labels are ignored;
    learning is unsupervised).  ``data`` is the manifest's
    :func:`load_dataset` result when the caller has already loaded it.
    Returns (model, history, meta)."""
    tensors, _ = load_dataset(train_manifest) if data is None else data
    model = cae_mod.init_model(n_filters, tensors.shape[1], kernel, seed=cae_config.seed)
    model, history = cae_mod.train(model, tensors, cae_config, progress=progress)
    meta = {
        "filters": n_filters,
        "kernel": kernel,
        "stride": 1,
        "pad": (kernel - 1) // 2,
        "pool": POOL,
        "cae_config": cae_config_echo(cae_config),
        "cae_summary": loss_summary(history),
    }
    return model, history, meta


def l2_normalize_rows(features: np.ndarray) -> np.ndarray:
    norms = np.sqrt((features * features).sum(axis=1, keepdims=True))
    return features / np.where(norms > 0.0, norms, 1.0)


# Working-set budget of one extraction chunk.  Kept small: on desk-scale
# inputs (12x6x6, K=16) larger chunks raise the run's peak RSS for no
# measurable speed, and at K=4096 over 14x14 maps a chunk is one sample.
EXTRACT_CHUNK_BYTES = 2**18


def extract_stage(model: CaeModel, manifest: DatasetManifest, l2_normalize: bool = False, data=None):
    """Zero-bias features for every manifest item, in manifest order, encoded
    in batched chunks.  ``data`` is the manifest's :func:`load_dataset`
    result when the caller has already loaded it.
    Returns (n x D matrix, labels, class names)."""
    tensors, labels = load_dataset(manifest) if data is None else data
    step = cae_mod.chunk_size(model, tensors.shape[1:], EXTRACT_CHUNK_BYTES)
    features = np.concatenate([cae_mod.extract_features(model, tensors[i : i + step])
                               for i in range(0, len(tensors), step)])
    if l2_normalize:
        features = l2_normalize_rows(features)
    return features, labels, list(manifest.classes)


# ---------------------------------------------------------------------------
# evaluation report

@dataclass
class EvalReport:
    top1: float
    per_class_accuracy: list
    confusion: list  # rows = true class, columns = predicted class
    n_test: int
    feature_dim: int
    classes: list
    cae_summary: dict | None = None
    config_echo: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "results": {
                "top1_accuracy": self.top1,
                "per_class_accuracy": self.per_class_accuracy,
                "confusion_matrix": self.confusion,
                "n_test": self.n_test,
                "feature_dim": self.feature_dim,
                "classes": self.classes,
            },
            "cae": self.cae_summary,
            "config": self.config_echo,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def evaluate_features(svm_model: SvmModel, features, labels, classes, cae_summary=None,
                      config_echo=None) -> EvalReport:
    """Score a feature matrix and assemble the report."""
    predictions = predict_many(svm_model, features)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = len(classes)
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for true, pred in zip(labels, predictions):
        confusion[true, pred] += 1
    row_sums = confusion.sum(axis=1)
    per_class = [
        float(confusion[c, c] / row_sums[c]) if row_sums[c] else 0.0 for c in range(n_classes)
    ]
    return EvalReport(
        top1=top1_accuracy(predictions, labels),
        per_class_accuracy=per_class,
        confusion=confusion.tolist(),
        n_test=int(labels.size),
        feature_dim=int(np.asarray(features).shape[1]),
        classes=list(classes),
        cae_summary=cae_summary,
        config_echo=dict(config_echo or {}),
    )


def assemble_config_echo(meta: dict, svm_echo: dict, l2_normalize: bool) -> dict:
    """The report's configuration section, built identically whether the
    pipeline ran in one process or was chained through checkpoints."""
    return {
        "filters": meta.get("filters"),
        "kernel": meta.get("kernel"),
        "stride": meta.get("stride"),
        "pad": meta.get("pad"),
        "pool": meta.get("pool"),
        "l2_normalize": l2_normalize,
        "cae": meta.get("cae_config"),
        "svm": svm_echo,
    }


def run_pipeline(train_manifest: DatasetManifest, test_manifest: DatasetManifest,
                 cae_config: CaeTrainConfig, svm_config: SvmTrainConfig, n_filters: int,
                 l2_normalize: bool = False, kernel: int = 3, progress=None) -> EvalReport:
    """Unsupervised feature learning end to end: train the auto-encoder on
    the train split, extract zero-bias features for both splits, fit the
    SVM on train features, and score the test split."""
    return _run_stages(train_manifest, test_manifest, load_dataset(train_manifest), None, cae_config,
                       svm_config, n_filters, l2_normalize, kernel, progress)


def _run_stages(train_manifest, test_manifest, train_data, test_data, cae_config, svm_config,
                n_filters, l2_normalize, kernel, progress) -> EvalReport:
    """:func:`run_pipeline` on already loaded data; a ``test_data`` of None
    is loaded only once the features are extracted."""
    if list(train_manifest.classes) != list(test_manifest.classes):
        raise ShapeError("train and test manifests declare different class tables")
    model, _, meta = train_cae_stage(train_manifest, cae_config, n_filters, kernel=kernel,
                                     progress=progress, data=train_data)
    train_x, train_y, classes = extract_stage(model, train_manifest, l2_normalize, data=train_data)
    test_x, test_y, _ = extract_stage(model, test_manifest, l2_normalize, data=test_data)
    if train_x.shape[1] != test_x.shape[1]:
        raise ShapeError(
            f"train and test manifests produce different feature dimensions "
            f"({train_x.shape[1]} vs {test_x.shape[1]}); tensor shapes must match"
        )
    svm_model = train_svm(train_x, train_y, len(classes), svm_config, class_names=classes)
    return evaluate_features(
        svm_model, test_x, test_y, classes,
        cae_summary=meta["cae_summary"],
        config_echo=assemble_config_echo(meta, svm_config_echo(svm_config), l2_normalize),
    )


@dataclass
class SweepRow:
    filters: int
    top1: float
    report: EvalReport


def filter_size_sweep(train_manifest: DatasetManifest, test_manifest: DatasetManifest,
                      cae_config: CaeTrainConfig, svm_config: SvmTrainConfig, k_values,
                      l2_normalize: bool = False, kernel: int = 3, progress=None) -> list:
    """Re-run the full pipeline for each filter count, sharing every seed and
    loading each manifest once, and tabulate (filters, top-1)."""
    if not k_values:
        raise ValueError("k_values must be non-empty")
    train_data, test_data = load_dataset(train_manifest), load_dataset(test_manifest)
    rows = []
    for k in k_values:
        report = _run_stages(train_manifest, test_manifest, train_data, test_data, cae_config,
                             svm_config, int(k), l2_normalize, kernel, progress)
        rows.append(SweepRow(filters=int(k), top1=report.top1, report=report))
    return rows
