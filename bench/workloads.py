"""Benchmark workloads: the inputs a seed generates, the CLI commands one run
executes, and what its report must satisfy.

The harness writes its inputs with its own ZTEN writer instead of the
program's generator, so the inputs of a seed stay byte-identical when the
program's generator or container code changes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WHY = {
    "desk": "README desk set (3x40 12x6x6, K=16) through run-all: per-call overhead bound, where im2col "
            "and batching changes show",
    "paper": "paper geometry (256x14x14, K=4096, one SGD step, D=200704) through run-all: GEMM and "
             "memory bound, where per-call overhead matters little",
    "svm": "staged train-svm and evaluate on a written 1000x4096 10-class features file: L-BFGS, "
           "objective GEMM and ZTEN I/O with no CAE work",
}


@dataclass
class Plan:
    """One run of a workload, as the child process executes it."""

    commands: list  # argv lists for zbcae.cli.dispatch, run in order
    report: str  # path of the report the last command writes
    n_train: int
    n_test: int
    feature_dim: int
    epochs: int  # CAE epochs a run must report (0: the CAE does no work)
    floor: float  # lowest acceptable test top-1


def write_zten(path: Path, records: dict) -> None:
    """Write float64 records in the ZTEN v1 layout (see the README)."""
    chunks = [b"ZTEN", struct.pack("<II", 1, len(records))]
    for name, value in records.items():
        arr = np.ascontiguousarray(value, dtype="<f8")
        raw = name.encode("utf-8")
        chunks += [struct.pack("<H", len(raw)), raw, struct.pack("<BB", 2, arr.ndim),
                   struct.pack(f"<{arr.ndim}Q", *arr.shape), arr.tobytes()]
    path.write_bytes(b"".join(chunks))


def _json_record(obj) -> np.ndarray:
    return np.frombuffer(json.dumps(obj).encode("utf-8"), dtype=np.uint8).astype(np.float64)


def _feature_maps(out: Path, rng, n_classes, per_class, channels, size, mu) -> tuple[int, int]:
    """Class c adds ``mu`` to its block of channels over N(0, 1) noise, then
    rectifies; every fifth sample of a class is a test sample."""
    (out / "data").mkdir(parents=True)
    block = channels // n_classes
    splits = {"train": [], "test": []}
    for c in range(n_classes):
        for i in range(per_class):
            t = rng.normal(0.0, 1.0, size=(channels, size, size))
            t[c * block:(c + 1) * block] += mu
            np.maximum(t, 0.0, out=t)
            rel = f"data/c{c}_s{i:03d}.zten"
            write_zten(out / rel, {"feature_map": t})
            splits["test" if i % 5 == 4 else "train"].append({"path": rel, "record": "feature_map", "label": c})
    classes = [f"class_{c}" for c in range(n_classes)]
    for split, items in splits.items():
        (out / f"{split}.json").write_text(json.dumps({"classes": classes, "items": items}), encoding="utf-8")
    return len(splits["train"]), len(splits["test"])


def _run_all(out: Path, rng, geometry: dict, config: dict, filters: int, floor: float) -> Plan:
    n_train, n_test = _feature_maps(out, rng, **geometry)
    (out / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in config.items()), encoding="utf-8")
    report = str(out / "report.json")
    pooled = (geometry["size"] + 1) // 2
    return Plan(
        commands=[["run-all", "--train", str(out / "train.json"), "--test", str(out / "test.json"),
                   "--config", str(out / "run.cfg"), "--report", report]],
        report=report, n_train=n_train, n_test=n_test, feature_dim=filters * pooled * pooled,
        epochs=config["epochs"], floor=floor,
    )


def _desk(out: Path, rng, tiny: bool) -> Plan:
    # The README desk set and config; epochs set the run length.
    geometry = dict(n_classes=3, per_class=5 if tiny else 40, channels=12, size=6, mu=4.0 if tiny else 2.0)
    config = {"filters": 4 if tiny else 16, "epochs": 2 if tiny else 50, "batch_size": 4,
              "learning_rate": 5e-5, "seed": 0}
    return _run_all(out, rng, geometry, config, config["filters"], floor=0.9)


def _paper(out: Path, rng, tiny: bool) -> Plan:
    # Default filters (4096); one epoch at batch 8 over 8 training samples is
    # one SGD step, with a learning rate small enough that the loss stays
    # finite.  Left to its tolerance, L-BFGS stops after 30 to 91 iterations
    # depending on the seed, which would make the run's length depend on the
    # inputs; a budget below that range fixes the solver work of every seed.
    geometry = dict(n_classes=2, per_class=5, channels=16 if tiny else 256, size=6 if tiny else 14, mu=2.0)
    config = {"epochs": 1, "batch_size": 8, "learning_rate": 1e-6, "seed": 0, "lbfgs_max_iters": 25}
    if tiny:
        config["filters"] = 32
    return _run_all(out, rng, geometry, config, config.get("filters", 4096), floor=0.5)


def _svm(out: Path, rng, tiny: bool) -> Plan:
    n_classes, dim = 10, 64 if tiny else 4096
    block, mu = dim // n_classes, 3.0 if tiny else 0.5
    paths = {}
    sizes = {"train": 100 if tiny else 1000, "test": 50 if tiny else 200}
    for split, n in sizes.items():
        labels = np.arange(n) % n_classes
        x = rng.normal(0.0, 1.0, size=(n, dim))
        for c in range(n_classes):
            x[labels == c, c * block:(c + 1) * block] += mu
        np.maximum(x, 0.0, out=x)
        paths[split] = out / f"{split}_features.zten"
        write_zten(paths[split], {
            "features": x, "labels": labels,
            "class_names_json": _json_record([f"class_{c}" for c in range(n_classes)]),
            "meta_json": _json_record({}),
        })
    model, report = str(out / "svm.zten"), str(out / "report.json")
    return Plan(
        commands=[["train-svm", "--features", str(paths["train"]), "--out", model],
                  ["evaluate", "--svm", model, "--features", str(paths["test"]), "--report", report]],
        report=report, n_train=sizes["train"], n_test=sizes["test"], feature_dim=dim, epochs=0, floor=0.9,
    )


_WORKLOADS = {"desk": _desk, "paper": _paper, "svm": _svm}


def prepare(name: str, out: Path, seed: int, tiny: bool = False) -> Plan:
    """Write the inputs of workload ``name`` for ``seed`` under ``out``."""
    out.mkdir(parents=True)
    return _WORKLOADS[name](out, np.random.default_rng(seed), tiny)
