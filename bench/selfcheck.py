"""Quick self-check of the benchmark harness.

    python3 bench/selfcheck.py

Runs every workload at tiny sizes, once untraced and once traced, and
asserts that every metric the benchmark promises appears with its unit,
that BENCHMARK.json matches metrics.py, and that the harness refuses to run
(non-zero exit, no result line) where the program's source is absent.
Exits 0 when all holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The end-to-end metrics (table of an untraced run) and per-layer metrics
# (result of a traced run) the benchmark was specified with.
SPEC_END_TO_END = ("wall_s", "setup_s", "cae_train_samples_per_s", "extract_samples_per_s", "cae_epoch_ms",
                   "svm_solve_s", "peak_rss_mb", "top1", "failed_frac")
SPEC_PER_LAYER = tuple(
    [f"ops.im2col.{m}" for m in ("calls", "self_s", "calls_per_sample_step")]
    + [f"ops.col2im.{m}" for m in ("calls", "self_s")]
    + [f"ops.{k}.{m}" for k in ("conv2d", "conv2d_weight_grad", "conv2d_input_grad")
       for m in ("self_s", "gflop_per_s", "peak_frac")]
    + [f"ops.tied_decoder_weights.{m}" for m in ("calls", "self_s", "computed_gb")]
    + ["ops.maxpool2.self_s", "ops.relu.self_s", "cae.train.self_s", "cae.train.steps", "cae.step_ms",
       "cae.extract_features.calls", "cae.extract_features.s", "cae.final_mean_loss"]
    + [f"svm.objective.{m}" for m in ("calls", "self_s", "ms_per_call", "gb_per_s")]
    + [f"svm.lbfgs.{m}" for m in ("iterations", "evals_per_iter", "reason", "self_s")]
    + [f"tensorfile.{f}.{m}" for f in ("load_tensors", "save_tensors") for m in ("calls", "self_s", "mb_per_s")]
    + ["dataset.load_dataset.calls", "dataset.load_dataset.s", "dataset.load_dataset.useful_frac",
       "dataset.load_manifest.s", "config.resolve_config.s"]
    + [f"pipeline.{s}.s" for s in ("train_cae_stage", "extract_stage", "train_svm", "evaluate_features",
                                   "checkpoint_io")]
    + ["machine.gemm_peak_gflops", "machine.triad_gb_per_s", "machine.nproc", "trace.overhead_frac"]
)


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL {message}")


def check_benchmark_json() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    require(set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
            f"BENCHMARK.json keys {sorted(doc)}")
    require(doc["command"] == ["python3", "bench/run.py"] and doc["paths"] == ["bench"],
            "BENCHMARK.json command or paths")
    require(doc["workloads"] == [{"name": n, "why": w} for n, w in workloads.WHY.items()],
            "BENCHMARK.json workloads differ from workloads.WHY")
    end_to_end, per_layer = metrics.benchmark_entries()
    require(doc["end_to_end"] == end_to_end, "BENCHMARK.json end_to_end differs from metrics.py")
    require(doc["per_layer"] == per_layer, "BENCHMARK.json per_layer differs from metrics.py")


def run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def table_units(stdout: str) -> dict:
    """metric -> unit from the table rows (name, median, q1, q3, n, unit)."""
    rows = (line.split() for line in stdout.splitlines())
    return {r[0]: r[5] for r in rows if len(r) == 6 and r[0] in metrics.UNITS}


def check_workload(name: str) -> None:
    for trace in ("0", "1"):
        proc = run(ROOT, "--workload", name, "--seed", "1", "--seconds", "0", "--trace", trace, "--tiny")
        where = f"{name} trace {trace}"
        require(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
        require(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
                f"{where}: runs failed\n" + "\n".join(
                    line for line in proc.stdout.splitlines()[:-1] if "FAILED" in line or "n/a" in line))
        want = metrics.END_TO_END if trace == "0" else metrics.PER_LAYER
        require({n: r["unit"] for n, r in result["metrics"].items()} == {row[0]: row[1] for row in want},
                f"{where}: result metrics differ from BENCHMARK.json")
        units = {**table_units(proc.stdout), **{n: r["unit"] for n, r in result["metrics"].items()}}
        spec = SPEC_END_TO_END if trace == "0" else SPEC_PER_LAYER
        missing = [m for m in spec if units.get(m) != metrics.UNITS.get(m, "?")]
        require(not missing, f"{where}: metrics missing or without their unit: {missing}")
    print(f"ok  {name}: every metric present with its unit")


def check_refuses_without_program() -> None:
    bare = ROOT / ".bench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0")
        require(proc.returncode != 0, "the harness ran without the program's source")
        require('"correct"' not in proc.stdout, "the harness printed a result without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    print("ok  refuses to run where the program is absent")


def main() -> int:
    check_benchmark_json()
    print("ok  BENCHMARK.json matches metrics.py")
    for name in workloads.WHY:
        check_workload(name)
    check_refuses_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
