"""What the benchmark ran on: static facts and measured roofline bounds.

    python3 machine.py [--tiny]

prints one JSON object: a float64 GEMM peak and a triad bandwidth, measured
in this fresh process with the BLAS thread cap of the runs.  ``describe``
gives the static facts (processors, CPU model, caches, numpy and BLAS build).
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")
_DEFAULT_LLC = 32 << 20  # assumed when the cache size cannot be read


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _size_bytes(text: str) -> int:
    text = text.strip()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def caches() -> dict:
    """Unified and data cache sizes by level, in bytes, of the first CPU."""
    out = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            out[f"L{(index / 'level').read_text().strip()}"] = _size_bytes((index / "size").read_text())
        except (OSError, ValueError):
            continue
    return out


def llc_bytes() -> int:
    sizes = caches()
    return sizes[max(sizes)] if sizes else _DEFAULT_LLC


def describe() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": nproc(),
        "cpu": model,
        "caches": {level: f"{size >> 10}K" for level, size in caches().items()},
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "ZBCAE_THREADS": os.environ.get("ZBCAE_THREADS", "unset"),
    }


def gemm_peak_gflops(n: int, reps: int = 3) -> float:
    """Best float64 n x n matmul rate over ``reps`` timed products."""
    rng = np.random.default_rng(0)
    a, b = rng.random((n, n)), rng.random((n, n))
    c = a @ b  # warm-up: thread pool start, first-touch of the result
    best = float("inf")
    for _ in range(reps):
        t = time.perf_counter()
        np.matmul(a, b, out=c)
        best = min(best, time.perf_counter() - t)
    return 2.0 * n ** 3 / best / 1e9


def triad_gb_per_s(n: int, reps: int = 3) -> float:
    """Best bandwidth of a = b + s*c over float64 arrays of n elements.

    numpy does it in two single-threaded passes (a = s*c, then a += b), so
    the computed traffic is five arrays per triad, as numpy code sees it.
    """
    a, b, c = np.full(n, 1.0), np.full(n, 2.0), np.full(n, 3.0)
    best = float("inf")
    for _ in range(reps + 1):  # the first pass is a warm-up
        t = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - t)
    return 5 * 8 * n / best / 1e9


def measure(tiny: bool) -> dict:
    llc = llc_bytes()
    # Each triad array is at least four times the last-level cache, so no
    # pass is served from cache.
    array_bytes = (1 << 20) if tiny else 4 * llc
    return {
        "gemm_peak_gflops": gemm_peak_gflops(256 if tiny else 2048),
        "triad_gb_per_s": triad_gb_per_s(array_bytes // 8),
        "triad_array_mb": array_bytes / 1e6,
        "llc_mb": llc / 1e6,
    }


if __name__ == "__main__":
    print(json.dumps(measure("--tiny" in sys.argv[1:])))
