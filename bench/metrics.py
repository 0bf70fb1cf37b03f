"""The benchmark's metric table: name, unit and direction of every metric.

``BENCHMARK.json`` at the repository root is checked against this table by
``selfcheck.py``.  Each per-layer entry also names the end-to-end metric and
the workload it should move, so a change that claims a layer gain can cite
both by name before it is measured.
"""

# name, unit, better, bound (share of the parent's median a metric may worsen)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("top1", "fraction", "higher", 0.05),
]

# End-to-end figures that cannot carry a bound, printed in the table of every
# run instead.  The CAE does no work on `svm`, so its stage figures read 0
# there; `failed_frac` reads 0 on a healthy run; and on desk the L-BFGS solve
# stops by tolerance after a number of iterations that varies with the seed,
# so svm_solve_s spreads with the inputs, not only with the code (on svm it is
# within 2% of wall_s).  All but failed_frac are also per-layer metrics of
# the traced run, measured there with tracing off.
UNBOUNDED = [
    ("svm_solve_s", "s", "lower"),
    ("cae_train_samples_per_s", "samples/s", "higher"),
    ("extract_samples_per_s", "samples/s", "higher"),
    ("cae_epoch_ms", "ms", "lower"),
    ("failed_frac", "fraction", "lower"),
]

_DESK_CAE = "cae_train_samples_per_s, wall_s on desk"
_PAPER_CAE = "cae_train_samples_per_s, extract_samples_per_s on paper"
_SVM = "svm_solve_s on svm"

# name, unit, better, moves
PER_LAYER = [
    ("svm_solve_s", "s", "lower", "end-to-end figure of every workload"),
    ("cae_train_samples_per_s", "samples/s", "higher", "end-to-end figure of desk and paper; 0 on svm"),
    ("extract_samples_per_s", "samples/s", "higher", "end-to-end figure of desk and paper; 0 on svm"),
    ("cae_epoch_ms", "ms", "lower", "end-to-end figure of desk and paper; 0 on svm"),
    # ops
    ("ops.im2col.calls", "count", "lower", _DESK_CAE + " (little on paper)"),
    ("ops.im2col.self_s", "s", "lower", _DESK_CAE + " (little on paper)"),
    ("ops.im2col.calls_per_sample_step", "count", "lower", _DESK_CAE),
    ("ops.col2im.calls", "count", "lower", _DESK_CAE),
    ("ops.col2im.self_s", "s", "lower", _DESK_CAE),
    ("ops.conv2d.self_s", "s", "lower", _PAPER_CAE),
    ("ops.conv2d.gflop_per_s", "GFLOP/s", "higher", _PAPER_CAE),
    ("ops.conv2d.peak_frac", "fraction", "higher", _PAPER_CAE),
    ("ops.conv2d_weight_grad.self_s", "s", "lower", "cae_train_samples_per_s on paper"),
    ("ops.conv2d_weight_grad.gflop_per_s", "GFLOP/s", "higher", "cae_train_samples_per_s on paper"),
    ("ops.conv2d_weight_grad.peak_frac", "fraction", "higher", "cae_train_samples_per_s on paper"),
    ("ops.conv2d_input_grad.self_s", "s", "lower", "cae_train_samples_per_s on paper"),
    ("ops.conv2d_input_grad.gflop_per_s", "GFLOP/s", "higher", "cae_train_samples_per_s on paper"),
    ("ops.conv2d_input_grad.peak_frac", "fraction", "higher", "cae_train_samples_per_s on paper"),
    ("ops.tied_decoder_weights.calls", "count", "lower", "cae_train_samples_per_s, peak_rss_mb on paper"),
    ("ops.tied_decoder_weights.self_s", "s", "lower", "cae_train_samples_per_s, peak_rss_mb on paper"),
    ("ops.tied_decoder_weights.computed_gb", "GB", "lower", "cae_train_samples_per_s, peak_rss_mb on paper"),
    ("ops.maxpool2.self_s", "s", "lower", "extract_samples_per_s on desk and paper"),
    ("ops.relu.self_s", "s", "lower", "extract_samples_per_s on desk and paper"),
    # cae
    ("cae.train.self_s", "s", "lower", "cae_train_samples_per_s on desk"),
    ("cae.train.steps", "count", "lower", "cae_train_samples_per_s on desk"),
    ("cae.step_ms", "ms", "lower", "cae_train_samples_per_s on desk"),
    ("cae.extract_features.calls", "count", "lower", "extract_samples_per_s on desk and paper"),
    ("cae.extract_features.s", "s", "lower", "extract_samples_per_s on desk and paper"),
    ("cae.final_mean_loss", "loss", "lower", "none: exact correctness counter; 0 on svm"),
    # svm
    ("svm.objective.calls", "count", "lower", _SVM),
    ("svm.objective.self_s", "s", "lower", _SVM),
    ("svm.objective.ms_per_call", "ms", "lower", _SVM),
    ("svm.objective.gb_per_s", "GB/s", "higher", _SVM),
    ("svm.objective.peak_frac", "fraction", "higher", _SVM),
    ("svm.lbfgs.iterations", "count", "lower", "svm_solve_s on svm"),
    ("svm.lbfgs.evals", "count", "lower", "svm_solve_s on svm"),
    ("svm.lbfgs.evals_per_iter", "count", "lower", "svm_solve_s on paper and svm"),
    ("svm.lbfgs.accept_frac", "fraction", "higher", "svm_solve_s on paper and svm"),
    ("svm.lbfgs.reason", "code", "lower", "svm_solve_s on svm"),
    ("svm.lbfgs.self_s", "s", "lower", "svm_solve_s on paper (vector ops) and svm (iterations)"),
    # tensorfile
    ("tensorfile.load_tensors.calls", "count", "lower", "wall_s on svm; setup_s, wall_s on desk"),
    ("tensorfile.load_tensors.self_s", "s", "lower", "wall_s on svm; setup_s, wall_s on desk"),
    ("tensorfile.load_tensors.mb_per_s", "MB/s", "higher", "wall_s on svm"),
    ("tensorfile.save_tensors.calls", "count", "lower", "wall_s on svm"),
    ("tensorfile.save_tensors.self_s", "s", "lower", "wall_s on svm"),
    ("tensorfile.save_tensors.mb_per_s", "MB/s", "higher", "wall_s on svm"),
    # dataset
    ("dataset.load_dataset.calls", "count", "lower", "wall_s on paper and desk"),
    ("dataset.load_dataset.s", "s", "lower", "wall_s on paper and desk"),
    ("dataset.load_dataset.useful_frac", "fraction", "higher", "wall_s on paper and desk"),
    ("dataset.load_manifest.s", "s", "lower", "setup_s on desk and paper"),
    # pipeline and config
    ("pipeline.train_cae_stage.s", "s", "lower", "wall_s on desk and paper"),
    ("pipeline.extract_stage.s", "s", "lower", "wall_s on desk and paper"),
    ("pipeline.train_svm.s", "s", "lower", "wall_s, svm_solve_s on every workload"),
    ("pipeline.evaluate_features.s", "s", "lower", "wall_s on every workload"),
    ("pipeline.checkpoint_io.s", "s", "lower", "wall_s on svm"),
    ("config.resolve_config.s", "s", "lower", "setup_s on every workload"),
    # the machine and the tracer itself
    ("machine.gemm_peak_gflops", "GFLOP/s", "higher", "none: roofline compute bound"),
    ("machine.triad_gb_per_s", "GB/s", "higher", "none: roofline bandwidth bound"),
    ("machine.triad_array_mb", "MB", "higher", "none: size of each triad array"),
    ("machine.llc_mb", "MB", "higher", "none: last-level cache size"),
    ("machine.nproc", "count", "higher", "none: processors available"),
    ("machine.blas_threads", "count", "higher", "none: BLAS threads of every run"),
    ("trace.wall_s", "s", "lower", "none: traced wall_s"),
    ("trace.remainder_s", "s", "lower", "none: traced wall_s not covered by span self times"),
    ("trace.overhead_frac", "fraction", "lower", "none: traced / untraced wall_s - 1"),
]


def benchmark_entries():
    """The ``end_to_end`` and ``per_layer`` lists BENCHMARK.json must hold."""
    end_to_end = [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END]
    per_layer = [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER]
    return end_to_end, per_layer


UNITS = {row[0]: row[1] for row in END_TO_END + UNBOUNDED + PER_LAYER}
