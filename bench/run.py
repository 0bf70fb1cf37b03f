"""Benchmark harness of zbcae.

    python3 bench/run.py --workload {desk,paper,svm} --seed N --seconds S --trace {0,1} [--tiny]

Makes the workload's inputs from the seed, then runs it through the public
CLI entry point (``zbcae.cli.dispatch``), each run in a fresh process, one
after another, with BLAS threads capped at the processors available, until
``--seconds`` have passed (at least MIN_RUNS runs).  Every run's outputs
are checked; a run that fails counts as failed and is not retried.

--trace 0  end-to-end metrics from untraced runs, plus set-up-only runs.
--trace 1  per-layer metrics from traced runs, in which every public
           function of every layer module is wrapped by child.py, alternated
           with untraced runs that give the tracing overhead.  The machine's
           GEMM peak and triad bandwidth are measured first.
--tiny     self-check sizes (see selfcheck.py): one run, small inputs.

Prints a table, then as its last line one JSON object with the keys
correct, attempted, failed and metrics.  Exits 2 without a result when the
program's source is not next to the harness.
"""

import os
import sys

# Cap BLAS threads before numpy loads, here and in every process started.
_NPROC = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "ZBCAE_THREADS"):
    os.environ[_var] = _NPROC

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import machine  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_RUNS = 3  # untraced runs; the traced mode makes at least 2 traced runs
SETUP_RUNS = 10  # set-up samples at least, for the setup_s median
HARD_LIMIT = 150  # seconds of runs at most, so an invocation ends within 180 s


def run_child(work: Path, plan, mode: str, k: int, timeout: float) -> dict:
    """Run one child process and return what it wrote, or {"error": ...}."""
    job, result = work / f"job{k}.json", work / f"result{k}.json"
    Path(plan.report).unlink(missing_ok=True)
    job.write_text(json.dumps({"root": str(ROOT), "plan": asdict(plan), "mode": mode,
                               "result": str(result)}), encoding="utf-8")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job)], cwd=work,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} run timed out after {timeout:.0f} s"}
    elapsed = time.monotonic() - t_spawn
    if proc.returncode != 0 or not result.exists():
        return {"error": f"{mode} run exited {proc.returncode}: {proc.stderr.strip()[-800:]}"}
    out = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    out.update(t_spawn=t_spawn, elapsed=elapsed, mode=mode)
    return out


def check(plan, run: dict) -> list:
    """Problems with one run's outputs; empty when it is correct."""
    if "error" in run:
        return [run["error"]]
    if run["mode"] == "setup":
        return [] if run["stopped"] else ["set-up run ended before its first pipeline call"]
    if run["codes"] != [0] * len(plan.commands):
        return [f"exit codes {run['codes']}: {run['stderr'].strip()[-800:]}"]
    try:
        doc = json.loads(run["report"])
        res = doc["results"]
    except (TypeError, ValueError, KeyError) as e:
        return [f"report does not parse: {e!r}"]
    problems = []
    if res["top1_accuracy"] < plan.floor:
        problems.append(f"top1 {res['top1_accuracy']} below the floor {plan.floor}")
    if (res["n_test"], res["feature_dim"]) != (plan.n_test, plan.feature_dim):
        problems.append(f"report has n_test {res['n_test']}, feature_dim {res['feature_dim']}; "
                        f"expected {plan.n_test}, {plan.feature_dim}")
    if sum(map(sum, res["confusion_matrix"])) != plan.n_test:
        problems.append("confusion matrix does not count every test sample")
    losses = [loss for _, loss in run["epochs"]]
    if doc["cae"] is not None:
        losses += [doc["cae"]["initial_mean_loss"], doc["cae"]["final_mean_loss"]]
        if doc["cae"]["epochs_run"] != plan.epochs:
            problems.append(f"report says {doc['cae']['epochs_run']} epochs, expected {plan.epochs}")
    if len(run["epochs"]) != plan.epochs:
        problems.append(f"{len(run['epochs'])} progress lines, expected {plan.epochs}")
    if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in losses):
        problems.append("a loss is not finite")
    return problems


class Session:
    """The runs of one invocation: outcomes, failures and their reasons."""

    def __init__(self, work: Path, plan):
        self.work, self.plan = work, plan
        self.deadline = time.monotonic() + HARD_LIMIT
        self.runs, self.problems = [], []
        self.attempted = 0
        self.failed = set()  # attempt numbers of failed runs

    def run(self, mode: str) -> None:
        self.attempted += 1
        timeout = max(1.0, self.deadline - time.monotonic())
        run = run_child(self.work, self.plan, mode, self.attempted, timeout)
        problems = check(self.plan, run)
        if problems:
            self.fail(self.attempted, problems)
            return
        run.update(attempt=self.attempted, summary=spans.summarize(run))
        del run["spans"], run["names"]  # the summary keeps what the metrics need
        self.runs.append(run)

    def fail(self, attempt: int, problems: list) -> None:
        self.failed.add(attempt)
        self.problems += [f"run {attempt}: {p}" for p in problems]

    def ok(self, mode: str) -> list:
        return [r for r in self.runs if r["mode"] == mode]

    def consistent(self, runs: list, key, what: str) -> None:
        """Runs must agree exactly on ``key(run)``; a run that differs from
        the first is a failure (non-determinism, not noise)."""
        for r in runs[1:]:
            if key(r) != key(runs[0]):
                self.fail(r["attempt"], [f"non-determinism: {what} differs from run {runs[0]['attempt']}"])


def measure(session: Session, seconds: float, trace: bool, tiny: bool, probe: dict) -> dict:
    plan = session.plan
    start = time.monotonic()
    min_runs = 1 if tiny else (2 if trace else MIN_RUNS)
    # Set-up-only runs alternate with the others, so that setup_s samples the
    # same stretch of machine time as wall_s.
    modes = ("stage", "trace") if trace else ("setup", "stage")
    cycle = []
    while True:
        t = time.monotonic()
        for mode in modes:
            session.run(mode)
        cycle.append(time.monotonic() - t)
        now = time.monotonic()
        if len(cycle) >= min_runs and (tiny or now + max(cycle) > start + seconds) or now >= session.deadline:
            break
    if not trace and not tiny:
        for _ in range(SETUP_RUNS - 2 * len(cycle)):
            if time.monotonic() < session.deadline:
                session.run("setup")

    stage, traced = session.ok("stage"), session.ok("trace")
    # Tracing must not change the output either, so traced reports join the comparison.
    session.consistent(stage + traced, lambda r: r["report"], "report bytes")
    session.consistent(stage, lambda r: r["summary"]["calls"], "stage call counts")
    session.consistent(traced, lambda r: spans.exact_counters(r, r["summary"]), "exact counters")
    stage = [r for r in stage if r["attempt"] not in session.failed]
    traced = [r for r in traced if r["attempt"] not in session.failed]

    per_run = [spans.stage_metrics(r, r["summary"], plan) for r in stage]
    values = {name: [m[name] for m in per_run] for name in per_run[0]} if per_run else {}
    values["setup_s"] = values.get("setup_s", []) + [
        r["t_end"] - r["t_spawn"] for r in session.ok("setup")]
    values["top1"] = [json.loads(r["report"])["results"]["top1_accuracy"] for r in stage]
    if not trace:
        return values
    for name in sorted({n for r in traced for n, c in r["counters"].items() if c.get("note_failed")}):
        print(f"WARNING: the work of {name} could not be computed from its call shapes; its rates read 0")
    for r in traced:
        doc = json.loads(r["report"])
        loss = doc["cae"]["final_mean_loss"] if doc["cae"] else 0.0
        for name, v in spans.layer_metrics(r, r["summary"], probe, loss).items():
            values.setdefault(name, []).append(v)
    if values.get("wall_s") and values.get("trace.wall_s"):
        values["trace.overhead_frac"] = [
            statistics.median(values["trace.wall_s"]) / statistics.median(values["wall_s"]) - 1.0]
    for name in ("gemm_peak_gflops", "triad_gb_per_s", "triad_array_mb", "llc_mb"):
        values[f"machine.{name}"] = [probe[name]]
    values["machine.nproc"] = [machine.nproc()]
    values["machine.blas_threads"] = [int(os.environ["OPENBLAS_NUM_THREADS"])]
    return values


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def print_table(values: dict, names: list) -> None:
    print(f"{'metric':38} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}  unit")
    for name in names:
        vs = values.get(name, [])
        if not vs:
            print(f"{name:38} {'n/a':>12}")
            continue
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        print(f"{name:38} {_fmt(statistics.median(vs)):>12} {_fmt(q1):>12} {_fmt(q3):>12} "
              f"{len(vs):>3}  {metrics.UNITS[name]}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="self-check sizes: small inputs, one run")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "zbcae" / "cli.py").is_file():
        print(f"error: the program source src/zbcae is not in {ROOT}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    print(f"zbcae benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' tiny' if args.tiny else ''}")
    info = machine.describe()
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    probe = {}
    if trace:
        proc = subprocess.run([sys.executable, str(HERE / "machine.py")] + (["--tiny"] if args.tiny else []),
                              capture_output=True, text=True, timeout=60, check=True)
        probe = json.loads(proc.stdout)
        print(f"roofline: float64 GEMM peak {probe['gemm_peak_gflops']:.1f} GFLOP/s; triad "
              f"{probe['triad_gb_per_s']:.2f} GB/s over arrays of {probe['triad_array_mb']:.0f} MB each, "
              f"last-level cache {probe['llc_mb']:.1f} MB")
        print("kernel flops and bytes are computed from call shapes (gflop_per_s, gb_per_s, mb_per_s, "
              "computed_gb, peak_frac); traced times include the tracer's cost")

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        plan = workloads.prepare(args.workload, work / "inputs", args.seed, args.tiny)
        session = Session(work, plan)
        values = measure(session, args.seconds, trace, args.tiny, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    for problem in session.problems:
        print(f"FAILED {problem}")
    failed = len(session.failed)
    print(f"runs: {session.attempted} attempted, {failed} failed")
    if trace:
        names = [row[0] for row in metrics.PER_LAYER]
    else:
        names = [row[0] for row in metrics.END_TO_END + metrics.UNBOUNDED]
        values["failed_frac"] = [failed / session.attempted]
        if not any(values.get("cae_train_samples_per_s", [])):
            print("(the CAE does no work on this workload: its stage figures read 0)")
    print_table(values, names)

    missing = [n for n in names if not values.get(n)]
    result_names = names if trace else [row[0] for row in metrics.END_TO_END]
    out = {
        "correct": failed == 0 and not missing,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {n: {"value": statistics.median(values[n]), "unit": metrics.UNITS[n]}
                    for n in result_names if values.get(n)},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
