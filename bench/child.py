"""One benchmark run in a fresh process.

    python3 child.py JOB.json

JOB.json holds the run's plan (see workloads.Plan), the repository root, a
mode and the path to write the outcome to.  The child imports the program,
wraps its functions from the outside (see ``install``), runs the plan's
commands through ``zbcae.cli.dispatch`` and writes what it saw: exit codes,
spans, per-span counters, timestamped progress lines, the report and peak
RSS.  It judges nothing; run.py checks and aggregates.

Modes:
    stage  wrap only the pipeline stages (a dozen calls a run); the
           untraced run that end-to-end metrics come from
    trace  wrap every public function of every layer module
    setup  stop at the first pipeline call, to time set-up alone
"""

import functools
import importlib
import inspect
import io
import json
import resource
import sys
import time
from pathlib import Path

LAYERS = ("ops", "cae", "svm", "tensorfile", "dataset", "pipeline", "config")
STAGE_EXTRA = {"svm.train_svm"}  # the classifier stage lives in the svm module
REASONS = ("grad_tol", "rel_loss_tol", "max_iters", "line_search_failed")


class SetupDone(BaseException):
    """Ends a set-up run at its first pipeline call.  A BaseException, so the
    CLI's error handlers let it through."""


class Tracer:
    """Spans in memory: [name index, start, end, parent span index]."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = [-1]
        self.counters = {}

    def wrap(self, name, fn, note=None, stop=False):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.monotonic
        counters = self.counters.setdefault(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stop:
                raise SetupDone
            span = [idx, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                try:
                    work = note(args, kwargs, out)
                except Exception:  # a changed signature must not fail the run
                    work = {"note_failed": 1}
                for key, value in work.items():
                    counters[key] = counters.get(key, 0) + value
            return out

        return traced


# Work done by a call, computed from its argument and result shapes.

def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _gemm(m, k, n):
    """Flops and operand-plus-result bytes of an (m x k) @ (k x n) product."""
    return {"flops": 2 * m * k * n, "bytes": 8 * (m * k + k * n + m * n)}


def _conv2d(args, kwargs, out):
    w = _arg(args, kwargs, 1, "weights")
    return _gemm(w.shape[0], w.size // w.shape[0], out.size // w.shape[0])


def _conv2d_weight_grad(args, kwargs, out):
    dout = _arg(args, kwargs, 1, "dout")
    return _gemm(out.shape[0], dout.size // out.shape[0], out.size // out.shape[0])


def _conv2d_input_grad(args, kwargs, out):
    w = _arg(args, kwargs, 1, "weights")
    dout = _arg(args, kwargs, 0, "dout")
    return _gemm(w.size // w.shape[0], w.shape[0], dout.size // w.shape[0])


def _objective(args, kwargs, out):
    c = _arg(args, kwargs, 0, "weights").shape[0]
    n, d = _arg(args, kwargs, 2, "x").shape
    # scores = x @ w.T and coeff.T @ x read x twice; w is read three times
    # and the gradient written once.
    return {"flops": 4 * n * d * c, "bytes": 8 * (2 * n * d + 4 * c * d)}


def _distinct(key_of):
    seen = set()

    def note(args, kwargs, out):
        key = key_of(args, kwargs)
        new = key not in seen
        seen.add(key)
        return {"distinct": int(new)}

    return note


def _manifest_key(args, kwargs):
    m = _arg(args, kwargs, 0, "manifest")
    return str(m.base_dir), tuple(m.items)


def _notes():
    """Work hooks by span name; fresh per run, since one of them keeps state."""
    return {
        "ops.conv2d": _conv2d,
        "ops.conv2d_weight_grad": _conv2d_weight_grad,
        "ops.conv2d_input_grad": _conv2d_input_grad,
        "ops.tied_decoder_weights": lambda a, k, out: {"bytes": out.nbytes},
        "svm.squared_hinge_objective": _objective,
        "svm.lbfgs_minimize": lambda a, k, out: {"iterations": out.iterations,
                                                 "reason": REASONS.index(out.reason)},
        "cae.train": lambda a, k, out: {"samples": len(_arg(a, k, 1, "dataset")) * len(out[1].mean_loss)},
        "tensorfile.load_tensors": lambda a, k, out: {"bytes": sum(v.nbytes for v in out.values())},
        "tensorfile.save_tensors": lambda a, k, out: {
            "bytes": sum(8 * getattr(v, "size", 1) for v in _arg(a, k, 1, "tensors").values())},
        "dataset.load_dataset": _distinct(_manifest_key),
    }


def install(tracer: Tracer, mode: str) -> None:
    """Wrap the selected public functions of the layer modules and rebind each
    wrapped function under every name a zbcae module looks it up by (modules
    bind imported names locally, e.g. both zbcae.ops.im2col and
    zbcae.cae.conv2d)."""
    notes = _notes() if mode == "trace" else {}
    targets = {}
    for layer in LAYERS:
        module = importlib.import_module(f"zbcae.{layer}")
        for attr, fn in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if mode == "trace" or layer == "pipeline" or name in STAGE_EXTRA:
                targets[fn] = tracer.wrap(name, fn, notes.get(name), stop=mode == "setup")
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "zbcae" or mod_name.startswith("zbcae."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in targets:
                    setattr(module, attr, targets[value])


class _Stderr(io.StringIO):
    """Captures the CLI's stderr and timestamps each progress line."""

    def __init__(self):
        super().__init__()
        self.epochs = []

    def write(self, text):
        if text.startswith('{"epoch"'):
            self.epochs.append([time.monotonic(), text])
        return super().write(text)


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(job["root"]) / "src"))
    import zbcae.cli

    tracer = Tracer()
    install(tracer, job["mode"])
    plan = job["plan"]
    codes, stopped = [], False
    err, out = _Stderr(), io.StringIO()
    real = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        for argv in plan["commands"]:
            codes.append(zbcae.cli.dispatch(argv))
            if codes[-1] != 0:
                break
    except SetupDone:
        stopped = True
    finally:
        t_end = time.monotonic()
        sys.stdout, sys.stderr = real
    report = Path(plan["report"])
    result = {
        "codes": codes,
        "stopped": stopped,
        "t_end": t_end,
        "stderr": err.getvalue()[-2000:] if any(codes) else "",
        "epochs": [[t, json.loads(line)["mean_loss"]] for t, line in err.epochs],
        "report": report.read_text(encoding="utf-8") if report.exists() and not stopped else None,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "names": tracer.names,
        "spans": tracer.spans,
        "counters": tracer.counters,
    }
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
