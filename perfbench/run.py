"""Run one sarl benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory, never from an installed copy. With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a
separate traced run. The lines before it give the environment, the
output checks and the detail behind each number. ``--tiny`` shrinks every
workload to a few samples for the smoke check.
"""

import os

# Pinned before numpy loads: the paper's premise is one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
IMPORT_PROBES = 7    # fresh interpreters whose import time set-up reports


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few samples per workload (smoke check only)")
    return ap.parse_args(argv)


def import_library():
    """Import numpy and sarl from this checkout."""
    if not (SRC / "sarl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sarl sources under {SRC}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import sarl
    import sarl.training  # noqa: F401  (imports every other sarl module)
    if Path(sarl.__file__).resolve().parent != (SRC / "sarl").resolve():
        sys.exit(f"perfbench: imported sarl from {sarl.__file__}, not {SRC}")


def import_seconds(kind):
    """Median import time of sarl, calibrated and raw.

    Timed in IMPORT_PROBES fresh interpreters that have numpy loaded
    already, each between two reference timings of the workload's
    ``kind`` taken in the same child. numpy's own import is left out:
    it takes several times as long as sarl's, no change to sarl moves
    it, and on the baseline machine it swings by a third from run to
    run. The children inherit the pinned thread settings.
    """
    code = (f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]; "
            "import numpy, reference; "
            f"ref = reference.Reference({kind!r}); ref.time(); "
            "from time import perf_counter as clock; "
            "before = ref.median_time(); t0 = clock(); "
            "import sarl.training; seconds = clock() - t0; "
            "after = ref.median_time(); "
            "print(ref.scale(seconds, (before + after) / 2), seconds)")
    calibrated, raw = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True)
        cal, seconds = map(float, proc.stdout.split())
        calibrated.append(cal)
        raw.append(seconds)
    return statistics.median(calibrated), statistics.median(raw)


def blas_info():
    """BLAS library name and its thread count as the library reports it."""
    import ctypes
    import glob

    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    name = deps.get("blas", {}).get("name", "unknown")
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return name, threads


def git_rev():
    if not (ROOT / ".git").exists():
        return "unavailable (checkout has no .git)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30,
                          env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    return proc.stdout.strip() or "unavailable"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args):
    import numpy as np

    blas, blas_threads = blas_info()
    return {
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "thread_env": {v: os.environ[v] for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def _number(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def main(argv=None):
    args = parse_args(argv)
    import_library()

    sys.path.insert(0, str(HERE))
    import reference
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"have {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    if args.tiny:
        wl = workloads.tiny(wl)
    print(json.dumps({"environment": environment(args)}))

    ref = reference.Reference(wl.reference)
    import_s, import_raw = import_seconds(wl.reference)
    tracer = tracing.Tracer() if args.trace else None
    # Checkpoints go under the checkout: the benchmark writes nowhere else.
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run = workloads.RUNNERS[wl.kind](wl, args.seed, args.seconds, tracer,
                                         ref, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, detail = run.end_to_end(import_s, import_raw)
    detail.update(import_s=import_s, import_raw_s=import_raw,
                  setup_repeats_s=run.setup_times,
                  setup_repeats_calibrated_s=run.setup_calibrated,
                  attempted=run.attempted, failed=run.failed)
    if wl.kind == "train":
        named = {"train_samples_per_s": "samples_per_s",
                 "step_ms_p50": "op_ms_p50", "step_ms_tail": "op_ms_tail"}
    else:
        named = {"infer_samples_per_s": "samples_per_s",
                 "request_ms_p50": "op_ms_p50", "request_ms_tail": "op_ms_tail"}
    detail["as_named"] = {k: {"value": e2e[v][0], "unit": e2e[v][1]}
                          for k, v in named.items()}
    detail["as_named"]["error_rate"] = {"value": detail["error_rate"],
                                        "unit": "ratio"}
    print(json.dumps({"checks": run.checks, "errors": run.errors[:20]}))
    print(json.dumps({"end_to_end_detail": detail}))

    if tracer is not None:
        metrics, side = tracer.metrics(run.trace_overhead())
        print(json.dumps({"trace": side}))
    else:
        metrics = e2e
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": _number(v), "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
