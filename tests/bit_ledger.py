"""The bit ledger: sha256 digests of what the CAE step computes, so that
"byte-identical" is checked by a test, not re-proved by hand.

    python3 tests/bit_ledger.py        # record this stack's digests in bit_ledger.json

Each digest is taken in a child process at ZBCAE_THREADS=1, since some of
these geometries give other bits at two BLAS threads.  The entries:

- ``<geometry>/<bias mode>/train``: W, b_e, b_d and the loss history after a
  short :func:`zbcae.cae.train` (8 samples, batch 4, 3 epochs);
- ``<geometry>/<bias mode>/loss_gradients``: ``reconstruction_loss`` and
  ``loss_gradients`` of the first 4 samples;
- ``<geometry>/extract_features``: :func:`zbcae.cae.extract_features` of
  the 8 samples as a batch and of the first as a single map, from the
  always-zero model after its short train;
- ``desk/run-all``: the README desk ``run-all`` report;
- ``gradcheck/seed-0``: the output of ``gradcheck --seed 0``;
- ``svm/train_svm``: W and b of :func:`zbcae.svm.train_svm` with the
  default config on a seeded, rectified 120 x 64 feature matrix of 3
  classes (:func:`_svm_entries`).

Geometries: ``desk`` (K=16, 12x6x6, batch 4: a small step),
``desk-chunks`` (the same with ``TRAIN_CHUNK_BYTES`` cut to chunks of 2: a
small step whose batch adds several chunks into the gradient bank),
``one-chunk`` (K=64, C=32, 14x14, batch 4: a batch of one chunk),
``chunks`` (the same, with ``TRAIN_CHUNK_BYTES`` cut to chunks of 2) and
``blocks`` (the same in chunks of one sample, N = 196 = 4 (mod 8), with
``_FILTER_BLOCK_BYTES`` cut to blocks of 24 filter rows, where a block's
encoder, decoder and da GEMMs round otherwise than the whole bank's).

The file is keyed by the numpy version and the OpenBLAS version and core
(:func:`stack_key`), since another BLAS build or core may round otherwise;
a stack with no key recorded is skipped by the test, not failed.  A change
that moves bits regenerates the file and says which entries moved and why.
"""

import ctypes
import glob
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = Path(__file__).with_suffix(".json")

# (K, C, extent, TRAIN_CHUNK_BYTES or None, filter rows per block or None)
# of each geometry; every batch is 4 samples
GEOMETRIES = {
    "desk": (16, 12, 6, None, None),
    "desk-chunks": (16, 12, 6, 2 * 8 * 6 * 6 * 12 * 9, None),
    "one-chunk": (64, 32, 14, None, None),
    "chunks": (64, 32, 14, 2 * 8 * 14 * 14 * 32 * 9, None),
    "blocks": (64, 32, 14, 8 * 14 * 14 * 32 * 9, 24),
}

SPEC = "n_classes = 3\nsamples_per_class = 40\nchannels = 12\nheight = 6\nwidth = 6\nmu = 2.0\nsigma = 1.0\nseed = 7\n"
DESK_CONFIG = "filters = 16\nepochs = 200\nbatch_size = 4\nlearning_rate = 5e-5\nseed = 0\n"


def stack_key() -> str:
    """numpy's version and its BLAS's version and core, as OpenBLAS reports
    them at run time."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = "unknown core"
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
    return f"numpy {np.__version__}, {blas['name']} {blas['version']} {core}"


def _digest(*values) -> str:
    import numpy as np

    h = hashlib.sha256()
    for value in values:
        a = np.asarray(value, dtype=np.float64)
        h.update(repr(a.shape).encode() + a.tobytes())
    return h.hexdigest()


def _step_entries() -> dict:
    import numpy as np
    from zbcae import cae

    entries, default_chunk_bytes, default_block_bytes = {}, cae.TRAIN_CHUNK_BYTES, cae._FILTER_BLOCK_BYTES
    for name, (k, c, extent, chunk_bytes, block_rows) in GEOMETRIES.items():
        cae.TRAIN_CHUNK_BYTES = chunk_bytes or default_chunk_bytes
        cae._FILTER_BLOCK_BYTES = block_rows * c * 3 * 3 * 8 if block_rows else default_block_bytes
        rng = np.random.default_rng(k + c)
        data = np.maximum(rng.normal(0.2, 1.0, size=(8, c, extent, extent)), 0.0)
        for mode in cae.BIAS_MODES:
            model = cae.init_model(k, c, 3, seed=1)
            model.b_e, model.b_d = rng.normal(0.0, 0.1, size=k), rng.normal(0.0, 0.1, size=c)
            loss = cae.reconstruction_loss(model, data[:4], mode)
            grads = cae.loss_gradients(model, data[:4], mode)
            entries[f"{name}/{mode}/loss_gradients"] = _digest(loss, grads.dw_e, grads.db_e, grads.db_d)
            config = cae.CaeTrainConfig(epochs=3, batch_size=4, learning_rate=1e-5, bias_mode=mode, seed=2)
            model, history = cae.train(model, data, config)
            entries[f"{name}/{mode}/train"] = _digest(model.w_e, model.b_e, model.b_d, history.mean_loss)
        entries[f"{name}/extract_features"] = _digest(cae.extract_features(model, data),
                                                      cae.extract_features(model, data[0]))
    return entries


def _svm_entries() -> dict:
    import numpy as np
    from zbcae.svm import train_svm

    rng = np.random.default_rng(5)
    labels = np.arange(120) % 3
    x = np.maximum(rng.normal(0.0, 1.0, size=(120, 64)) + (labels[:, None] == np.arange(64) % 3), 0.0)
    model = train_svm(x, labels, 3)
    return {"svm/train_svm": _digest(model.weights, model.biases)}


def _cli_entries() -> dict:
    from zbcae.cli import dispatch

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "spec.cfg").write_text(SPEC, encoding="utf-8")
        (tmp / "desk.cfg").write_text(DESK_CONFIG, encoding="utf-8")
        report = tmp / "report.json"
        quiet, gradcheck = open(os.devnull, "w", encoding="utf-8"), io.StringIO()
        out, err, sys.stdout, sys.stderr = sys.stdout, sys.stderr, quiet, quiet
        try:
            codes = [dispatch(["gen-synthetic", "--spec", str(tmp / "spec.cfg"), "--out", str(tmp / "data")]),
                     dispatch(["run-all", "--train", str(tmp / "data/train.json"), "--test",
                               str(tmp / "data/test.json"), "--config", str(tmp / "desk.cfg"),
                               "--report", str(report)])]
            sys.stdout = gradcheck
            codes.append(dispatch(["gradcheck", "--seed", "0"]))
        finally:
            sys.stdout, sys.stderr = out, err
            quiet.close()
        if codes != [0, 0, 0]:
            raise SystemExit(f"gen-synthetic, the desk run-all and gradcheck exited {codes}")
        return {"desk/run-all": hashlib.sha256(report.read_bytes()).hexdigest(),
                "gradcheck/seed-0": hashlib.sha256(gradcheck.getvalue().encode()).hexdigest()}


def _child(part: str) -> None:
    """Print this stack's key and one part's entries as one JSON line."""
    sys.path.insert(0, str(ROOT / "src"))
    import zbcae.cli  # noqa: F401  (sets the BLAS thread variables before numpy loads)

    entries = {**_step_entries(), **_svm_entries()} if part == "steps" else _cli_entries()
    print(json.dumps({"key": stack_key(), "entries": entries}))


def digests() -> tuple[str, dict]:
    """(stack key, entries) of this stack, from two child processes at
    ZBCAE_THREADS=1 that run side by side."""
    env = {**os.environ, "ZBCAE_THREADS": "1"}
    children = [subprocess.Popen([sys.executable, __file__, "--child", part], env=env, cwd=ROOT,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                for part in ("steps", "cli")]
    key, entries = None, {}
    for child in children:
        out, err = child.communicate(timeout=300)
        if child.returncode != 0:
            raise RuntimeError(f"ledger child exited {child.returncode}:\n{err}")
        result = json.loads(out.strip().splitlines()[-1])
        key = result["key"]
        entries.update(result["entries"])
    return key, dict(sorted(entries.items()))


def recorded() -> dict:
    """The ledger file: stack key -> entries."""
    return json.loads(LEDGER.read_text(encoding="utf-8")) if LEDGER.exists() else {}


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        _child(sys.argv[2])
        return 0
    key, entries = digests()
    ledger = recorded()
    moved = sorted(name for name, value in ledger.get(key, {}).items() if entries.get(name) != value)
    ledger[key] = entries
    LEDGER.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{key}: {len(entries)} entries written; moved: {', '.join(moved) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
