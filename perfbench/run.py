"""Benchmark entry point: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload text-train --seed 1 --seconds 20 --trace 0

Prints an info line (machine, BLAS, set-up and check details) and, as the
last line, the result: {"correct", "attempted", "failed", "metrics"}. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones, and the spans go to ``.perfbench_out/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("text-train", "rating-fusion", "attribute")
# One BLAS thread per core of this 2-core reference box, never more than the
# cores this process may run on: an inherited setting would move the
# full-batch matmuls by half.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))


def blas_runtime_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "blas_threads_reported": blas_runtime_threads(),
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "python": platform.python_version(), "numpy": np.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "pcbnet" / "__init__.py").is_file():
        print(f"perfbench: no pcbnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import workloads
    import_s = time.perf_counter() - T0

    result, info = workloads.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), import_s, OUT_DIR)
    info["machine"] = machine_info(np)
    if info["failed_checks"]:
        print(f"perfbench: failed checks {info['failed_checks']}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
