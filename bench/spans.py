"""Turn the spans of one run into stage times and per-layer metrics.

A span is [name index, start, end, parent span index]; a span is recorded
when it starts, so every parent precedes its children.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import statistics

CHECKPOINT_IO = ("save_cae_checkpoint", "load_cae_checkpoint", "save_features_file",
                 "load_features_file", "save_svm_checkpoint", "load_svm_checkpoint")
CONV_KERNELS = ("conv2d", "conv2d_weight_grad", "conv2d_input_grad")


def summarize(run: dict) -> dict:
    """Calls, total and self seconds per span name, plus the run's window.

    The window starts at the first pipeline call (the end of set-up) and
    ends when the last command has returned its report.
    """
    names, spans = run["names"], run["spans"]
    n = len(spans)
    child = [0.0] * n
    ancestors = [frozenset()] * n
    for i, (k, t0, t1, p) in enumerate(spans):
        if p >= 0:
            child[p] += t1 - t0
            ancestors[i] = ancestors[p] | {names[spans[p][0]]}
    calls, total, self_s, first = {}, {}, {}, {}
    in_train_im2col = evals = 0
    t_first = min((t0 for k, t0, _, _ in spans if names[k].startswith("pipeline.")), default=None)
    window_self = 0.0
    for i, (k, t0, t1, p) in enumerate(spans):
        name = names[k]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (t1 - t0)
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child[i])
        first.setdefault(name, t0)
        if t_first is not None and t0 >= t_first:
            window_self += t1 - t0 - child[i]
        if name == "ops.im2col" and "cae.train" in ancestors[i]:
            in_train_im2col += 1
        if name == "svm.squared_hinge_objective" and "svm.lbfgs_minimize" in ancestors[i]:
            evals += 1
    return {"calls": calls, "total": total, "self": self_s, "first": first, "t_first": t_first,
            "window_self": window_self, "im2col_in_train": in_train_im2col, "lbfgs_evals": evals}


def _ratio(a, b):
    return a / b if b else 0.0


def stage_metrics(run: dict, s: dict, plan) -> dict:
    """Metrics of an untraced run (only the pipeline stages are wrapped)."""
    tot = s["total"]
    epochs = run["epochs"]
    cae_s = tot.get("pipeline.train_cae_stage", 0.0)
    marks = [s["first"]["pipeline.train_cae_stage"]] + [t for t, _ in epochs] if epochs else []
    return {
        "wall_s": run["t_end"] - s["t_first"],
        "setup_s": s["t_first"] - run["t_spawn"],
        "svm_solve_s": tot.get("svm.train_svm", 0.0),
        "peak_rss_mb": run["maxrss_kb"] / 1024.0,
        "cae_train_samples_per_s": _ratio(plan.n_train * len(epochs), cae_s),
        "extract_samples_per_s": _ratio(plan.n_train + plan.n_test, tot.get("pipeline.extract_stage", 0.0)),
        "cae_epoch_ms": 1e3 * statistics.median(b - a for a, b in zip(marks, marks[1:])) if epochs else 0.0,
    }


def layer_metrics(run: dict, s: dict, machine: dict, final_loss: float) -> dict:
    """Per-layer metrics of a traced run.  Rates use self time; computed
    flops and bytes come from call shapes (see child.py).  A kernel's
    ``peak_frac`` is its rate over its roofline bound: the lower of the GEMM
    peak and the triad bandwidth times its flops per byte."""
    calls, tot, slf, work = s["calls"], s["total"], s["self"], run["counters"]
    peak, bw = machine["gemm_peak_gflops"], machine["triad_gb_per_s"]

    def n(name):
        return calls.get(name, 0)

    def w(name, key):
        return work.get(name, {}).get(key, 0)

    def roofline(name):
        gflops = _ratio(w(name, "flops"), slf.get(name, 0.0)) / 1e9
        bound = min(peak, bw * _ratio(w(name, "flops"), w(name, "bytes")))
        return gflops, _ratio(gflops, bound)

    m = {}
    for op in ("im2col", "col2im", "tied_decoder_weights"):
        m[f"ops.{op}.calls"] = n(f"ops.{op}")
        m[f"ops.{op}.self_s"] = slf.get(f"ops.{op}", 0.0)
    m["ops.im2col.calls_per_sample_step"] = _ratio(s["im2col_in_train"], w("cae.train", "samples"))
    m["ops.tied_decoder_weights.computed_gb"] = w("ops.tied_decoder_weights", "bytes") / 1e9
    for op in CONV_KERNELS:
        m[f"ops.{op}.self_s"] = slf.get(f"ops.{op}", 0.0)
        m[f"ops.{op}.gflop_per_s"], m[f"ops.{op}.peak_frac"] = roofline(f"ops.{op}")
    m["ops.maxpool2.self_s"] = slf.get("ops.maxpool2", 0.0)
    m["ops.relu.self_s"] = slf.get("ops.relu", 0.0)

    steps = n("cae.sgd_step")
    m["cae.train.self_s"] = slf.get("cae.train", 0.0)
    m["cae.train.steps"] = steps
    m["cae.step_ms"] = 1e3 * _ratio(tot.get("cae.train", 0.0), steps)
    m["cae.extract_features.calls"] = n("cae.extract_features")
    m["cae.extract_features.s"] = tot.get("cae.extract_features", 0.0)
    m["cae.final_mean_loss"] = final_loss

    obj, lbfgs = "svm.squared_hinge_objective", "svm.lbfgs_minimize"
    iters, evals = w(lbfgs, "iterations"), s["lbfgs_evals"]
    searched = evals - n(lbfgs)  # evaluations after each solve's start point
    m["svm.objective.calls"] = n(obj)
    m["svm.objective.self_s"] = slf.get(obj, 0.0)
    m["svm.objective.ms_per_call"] = 1e3 * _ratio(tot.get(obj, 0.0), n(obj))
    m["svm.objective.gb_per_s"] = _ratio(w(obj, "bytes"), slf.get(obj, 0.0)) / 1e9
    m["svm.objective.peak_frac"] = roofline(obj)[1]
    m["svm.lbfgs.iterations"] = iters
    m["svm.lbfgs.evals"] = evals
    m["svm.lbfgs.evals_per_iter"] = _ratio(searched, iters)
    m["svm.lbfgs.accept_frac"] = _ratio(iters, searched)
    m["svm.lbfgs.reason"] = w(lbfgs, "reason")
    m["svm.lbfgs.self_s"] = slf.get(lbfgs, 0.0)

    for fn in ("load_tensors", "save_tensors"):
        name = f"tensorfile.{fn}"
        m[f"{name}.calls"] = n(name)
        m[f"{name}.self_s"] = slf.get(name, 0.0)
        m[f"{name}.mb_per_s"] = _ratio(w(name, "bytes"), slf.get(name, 0.0)) / 1e6

    m["dataset.load_dataset.calls"] = n("dataset.load_dataset")
    m["dataset.load_dataset.s"] = tot.get("dataset.load_dataset", 0.0)
    m["dataset.load_dataset.useful_frac"] = _ratio(w("dataset.load_dataset", "distinct"), n("dataset.load_dataset"))
    m["dataset.load_manifest.s"] = tot.get("dataset.load_manifest", 0.0)

    for stage in ("train_cae_stage", "extract_stage", "evaluate_features"):
        m[f"pipeline.{stage}.s"] = tot.get(f"pipeline.{stage}", 0.0)
    m["pipeline.train_svm.s"] = tot.get("svm.train_svm", 0.0)
    m["pipeline.checkpoint_io.s"] = sum(tot.get(f"pipeline.{fn}", 0.0) for fn in CHECKPOINT_IO)
    m["config.resolve_config.s"] = tot.get("config.resolve_config", 0.0)

    wall = run["t_end"] - s["t_first"]
    m["trace.wall_s"] = wall
    m["trace.remainder_s"] = wall - s["window_self"]
    return m


def exact_counters(run: dict, s: dict) -> dict:
    """Counts that must repeat exactly from run to run of one workload."""
    return {"calls": s["calls"], "work": run["counters"], "epochs": len(run["epochs"])}
