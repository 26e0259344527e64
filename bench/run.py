"""Run one disptrack benchmark workload and print its metrics.

    python3 bench/run.py --workload desk_train --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from the `src/` directory next to
this one.  Workloads are described in workloads.py and BENCHMARK.json.
With --trace 0 the run measures the end-to-end metrics with tracing off;
with --trace 1 it measures the per-layer metrics from tracing.py instead.

Standard output ends with two JSON lines.  The first is a report: the
environment, the input shape, and every metric the run measured by name with
its unit (fail_frac and the workload-specific end-to-end metrics included).
The last is the result: {"correct", "attempted", "failed", "metrics"}, where
metrics holds exactly the BENCHMARK.json end_to_end (trace 0) or per_layer
(trace 1) metrics.  The exit code is 0 only when the run could measure
every one of them.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import glob
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: BLAS threads.  With two, the spin-waiting OpenBLAS worker made a
#: paper-scale predict on 2 cores slower and about twice as variable from
#: call to call; with one the process stays within its two cores.
BLAS_THREADS = "1"


def _limit_threads() -> None:
    # Must run before numpy is imported: BLAS reads these once, at load.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def _keep_freed_memory() -> None:
    """Keep freed memory in the heap for reuse instead of unmapping it.

    By default glibc gives every block over 32 MB its own mmap and unmaps it
    on free, so each paper-scale operation faults in and zeroes about a
    gigabyte of fresh pages.  On a shared 2-core VM that kernel work varied
    from run to run: over 8 interleaved paper_train runs per setting the
    median step took 5.70 s with run-to-run spread (IQR/median) 0.28 by
    default, and 5.02 s with spread 0.18 with mmap and trimming off.  The
    warm-up operation now faults the memory in once and later operations
    reuse it; peak RSS is still measured.
    """
    mallopt = getattr(ctypes.CDLL(ctypes.util.find_library("c")), "mallopt", None)
    if mallopt is not None:  # glibc only
        m_trim_threshold, m_mmap_max = -1, -4
        mallopt(m_mmap_max, 0)
        mallopt(m_trim_threshold, 2**31 - 1)


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"seed": seed, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "disptrack" / "__init__.py").is_file():
        print(f"bench: no disptrack package under {src}", file=sys.stderr)
        return 2
    _limit_threads()
    _keep_freed_memory()
    sys.path.insert(0, str(src))
    import workloads
    from tracing import LAYER_METRICS, Tracer

    tracer = Tracer() if args.trace else None
    res = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer)

    if args.trace:
        reported = {k: v for k, v in res.metrics.items() if k in LAYER_METRICS}
        reported["fail_frac"] = res.metrics["fail_frac"]
        gated = spec["per_layer"]
    else:
        reported = {k: v for k, v in res.metrics.items() if k not in LAYER_METRICS}
        gated = spec["end_to_end"]
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "env": environment(args.seed), "shape": res.shape,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in reported.items()}}))

    missing = [m["name"] for m in gated if m["name"] not in res.metrics]
    metrics = {m["name"]: {"value": res.metrics[m["name"]][0], "unit": m["unit"]}
               for m in gated if m["name"] not in missing}
    print(json.dumps({"correct": res.failed == 0 and not missing,
                      "attempted": res.attempted, "failed": res.failed,
                      "metrics": metrics}))
    if missing:
        print(f"bench: could not measure {', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
