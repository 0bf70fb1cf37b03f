"""Dataset manifests and the synthetic feature-map generator.

A manifest is a JSON document listing (tensor file, record name, label)
triples plus the ordered class-name table; tensor paths are relative to the
manifest's directory.  :func:`load_dataset` is the one place a manifest
becomes samples: a single (N, C, H, W) array that every stage takes.

The synthetic generator is the desk-scale stand-in for imported CNN feature
maps: class identity is a mean shift on a block of channels under Gaussian
noise, rectified so inputs are non-negative like real post-ReLU maps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ManifestError, check_fields
from .tensorfile import load_tensors, save_tensors


@dataclass(frozen=True)
class ManifestItem:
    path: str
    record: str
    label: int


@dataclass
class DatasetManifest:
    classes: list
    items: list
    base_dir: Path

    def __len__(self) -> int:
        return len(self.items)


def save_manifest(manifest: DatasetManifest, path) -> None:
    doc = {
        "classes": list(manifest.classes),
        "items": [{"path": it.path, "record": it.record, "label": it.label} for it in manifest.items],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_manifest(path) -> DatasetManifest:
    """Read and validate a manifest.  Anything but an object whose
    ``classes`` is a list of strings and whose ``items`` is a list of
    objects with a string ``path`` (free of NUL characters, which no file
    name holds) and ``record`` and an integer class index ``label`` (not a
    float, bool or string) raises ManifestError naming the file and, for an
    item, its index."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ManifestError(f"{path}: not valid UTF-8 JSON: {e}") from e
    if not isinstance(doc, dict) or "classes" not in doc or "items" not in doc:
        raise ManifestError(f"{path}: manifest must be an object with 'classes' and 'items'")
    classes = doc["classes"]
    if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
        raise ManifestError(f"{path}: 'classes' must be a list of strings")
    if not isinstance(doc["items"], list):
        raise ManifestError(f"{path}: 'items' must be a list of objects")
    items = []
    for i, raw in enumerate(doc["items"]):
        if not isinstance(raw, dict) or not {"path", "record", "label"} <= raw.keys():
            raise ManifestError(f"{path}: item {i} must be an object with 'path', 'record' and 'label'")
        if not (isinstance(raw["path"], str) and isinstance(raw["record"], str)):
            raise ManifestError(f"{path}: item {i} 'path' and 'record' must be strings")
        if "\0" in raw["path"]:
            raise ManifestError(f"{path}: item {i} 'path' {raw['path']!r} contains a NUL character")
        label = raw["label"]
        if type(label) is not int or not 0 <= label < len(classes):
            raise ManifestError(f"{path}: item {i} label {label!r} is not a class index in [0, {len(classes)})")
        items.append(ManifestItem(path=raw["path"], record=raw["record"], label=label))
    return DatasetManifest(classes=classes, items=items, base_dir=path.parent)


def load_dataset(manifest: DatasetManifest):
    """Load every referenced tensor; returns ((N, C, H, W) float64 array,
    int64 label array).  All tensors must share one shape."""
    if not manifest.items:
        raise ManifestError(f"{manifest.base_dir}: manifest lists no items")
    tensors = None
    for i, item in enumerate(manifest.items):
        file_path = manifest.base_dir / item.path
        records = load_tensors(file_path)
        if item.record not in records:
            raise ManifestError(f"{file_path}: no record named {item.record!r} (item {i})")
        t = records[item.record]
        if t.ndim != 3:
            raise ManifestError(f"{file_path}: record {item.record!r} is {t.ndim}-D, expected C x H x W")
        if 0 in t.shape:
            raise ManifestError(f"{file_path}: record {item.record!r} has shape {t.shape}, which holds no values")
        if tensors is None:
            tensors = np.empty((len(manifest.items), *t.shape))
        elif t.shape != tensors.shape[1:]:
            raise ManifestError(
                f"{file_path}: record {item.record!r} has shape {t.shape}, other items have {tensors.shape[1:]}"
            )
        tensors[i] = t
    return tensors, np.asarray([item.label for item in manifest.items], dtype=np.int64)


@dataclass
class SyntheticSpec:
    """Parameters of the synthetic class-signal dataset.

    Class c adds ``mu`` to its block of floor(C / n_classes) channels on top
    of N(0, sigma^2) noise; the result is rectified.  ``mu`` may be zero to
    generate a no-signal control set.
    """

    n_classes: int = field(default=3, metadata={">=": 1})
    samples_per_class: int = field(default=40, metadata={">=": 1})
    channels: int = field(default=12, metadata={">=": 1})
    height: int = field(default=6, metadata={">=": 1})
    width: int = field(default=6, metadata={">=": 1})
    mu: float = field(default=2.0, metadata={">=": 0})
    sigma: float = field(default=1.0, metadata={">": 0})
    seed: int = field(default=0, metadata={">=": 0})

    def __post_init__(self):
        check_fields(self, ManifestError)
        if self.n_classes > self.channels:
            raise ManifestError(
                f"n_classes ({self.n_classes}) exceeds channels ({self.channels}): "
                f"no channel block is available per class"
            )


RECORD_NAME = "feature_map"


def gen_synthetic(spec: SyntheticSpec, out_dir):
    """Generate the dataset under ``out_dir`` and return the train and test
    manifests (also written as train.json / test.json).

    Every fifth sample of each class goes to the test split (80/20,
    per-class interleaved).  Identical specs produce bit-identical files.
    """
    out_dir = Path(out_dir)
    data_dir = out_dir / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    block = spec.channels // spec.n_classes

    class_names = [f"class_{c}" for c in range(spec.n_classes)]
    train_items, test_items = [], []
    for c in range(spec.n_classes):
        for i in range(spec.samples_per_class):
            t = rng.normal(0.0, spec.sigma, size=(spec.channels, spec.height, spec.width))
            t[c * block : (c + 1) * block] += spec.mu
            np.maximum(t, 0.0, out=t)
            rel = f"data/c{c}_s{i:03d}.zten"
            save_tensors(out_dir / rel, {RECORD_NAME: t})
            item = ManifestItem(path=rel, record=RECORD_NAME, label=c)
            (test_items if i % 5 == 4 else train_items).append(item)

    train = DatasetManifest(classes=class_names, items=train_items, base_dir=out_dir)
    test = DatasetManifest(classes=class_names, items=test_items, base_dir=out_dir)
    save_manifest(train, out_dir / "train.json")
    save_manifest(test, out_dir / "test.json")
    return train, test
