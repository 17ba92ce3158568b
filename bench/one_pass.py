"""One pass of a benchmark workload, in a fresh interpreter.

Started by run.py with the pass directory as working directory and the
checkout's ``src`` on PYTHONPATH.  Imports are timed first, so nothing
may import numpy before them.  The pass then runs the workload's
operation list once (the timed region), records peak memory, checks the
outputs and writes ``result.json``.

    python3 bench/one_pass.py --workload W --seed N [--trace] [--full-check] [--tiny]
    python3 bench/one_pass.py --setup-only [--env]
"""

import time

# Set-up is timed first, so nothing above may import numpy.
_t0 = time.perf_counter()
import numpy
import scipy.linalg  # the scipy submodules sisq imports
import scipy.special
_t1 = time.perf_counter()
import sisq.cli
_t2 = time.perf_counter()
IMPORT_DONE = time.monotonic()

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

import sisq.chain
import sisq.clt
import sisq.sim
import sisq.spectral
import sisq.stationary

import tracing
import workloads


def platform_signature() -> dict:
    """What the byte-exactness of recorded digests depends on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
        features = sorted(k for k, v in __cpu_features__.items() if v)
    except ImportError:
        features = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "cpu_features": features}


def _blas_threads() -> dict:
    """Thread counts the loaded OpenBLAS builds report; read, never set."""
    import ctypes
    import glob

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = fn()
                    break
    return out


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        **platform_signature(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_ops(ops: list, tracer) -> tuple:
    """The timed region: every operation once, through its public entry point.

    Returns (wall seconds, errors by op id, dense results by op id).
    """
    errors, dense = {}, {}
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        try:
            if op.dense is not None:
                n, r0, t = op.dense
                p = sisq.chain.ModelParams(n=n, lam=r0, gamma=1.0)
                dense[op.id] = sisq.spectral.conditioned_distribution(p, t, 1)
            else:
                rc = sisq.cli.main(list(op.argv))
                if rc != 0:
                    errors[op.id] = [f"exit code {rc}"]
        except Exception as exc:  # every operation must run; record and go on
            errors[op.id] = [f"{type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - start
    return wall, errors, dense


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced pass's spans here")
    ap.add_argument("--full-check", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--env", action="store_true")
    args = ap.parse_args()

    result = {
        "import_done": IMPORT_DONE,
        "numpy_scipy_ms": 1e3 * (_t1 - _t0),
        "sisq_ms": 1e3 * (_t2 - _t1),
        "sisq_file": sisq.cli.__file__,
    }
    if args.env:
        result["env"] = environment()
        result["platform"] = platform_signature()
    if not args.setup_only:
        pass_dir = Path.cwd()
        ops = workloads.operations(args.workload, args.seed, args.tiny)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer, {"stationary": sisq.stationary, "spectral": sisq.spectral,
                                     "clt": sisq.clt, "sim": sisq.sim, "cli": sisq.cli})
        wall, errors, dense = run_ops(ops, tracer)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["wall_s"] = wall
        if tracer is not None:
            tracer.enabled = False
            result["layers"] = tracing.layer_metrics(tracer.spans)
            if args.spans:
                Path(args.spans).write_text(json.dumps(
                    [s.as_dict(i) for i, s in enumerate(tracer.spans)]))
        result["digests"] = workloads.digests(ops, pass_dir)
        failures = workloads.check(args.workload, ops, dense, pass_dir,
                                   sisq.cli.main, args.full_check)
        for op_id, messages in failures.items():
            errors.setdefault(op_id, []).extend(messages)
        result["ops"] = [op.id for op in ops]
        result["errors"] = errors
    Path("result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
