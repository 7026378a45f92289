"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds nothing: the package is imported from
``src/`` of the same checkout (never from an installed copy; without ``src/``
the run fails). Inputs are generated from ``--seed``. With ``--trace 0`` it
measures the end-to-end metrics for ``--seconds``; with ``--trace 1`` it
measures half the budget untraced, then half with wrappers installed around
the package's layer boundaries, and reports the per-layer metrics plus the
tracing overhead (traced minus untraced seconds per op). Outputs are checked
by the oracles after the timed window. Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Which side of the process gets the cores: BLAS threads, or eval/beam workers.
# The other side gets one, so BLAS threads x workers <= nproc.
PARALLEL_SIDE = {
    "train_fb237_k64": "blas",
    "train_fb237_k512_shared": "blas",
    "infer_fb237": "workers",
    "toy_e2e": "blas",
}
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PARALLEL_SIDE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def thread_plan(workload: str) -> dict:
    nproc = len(os.sched_getaffinity(0))
    parallel = PARALLEL_SIDE[workload]
    plan = {
        "nproc": nproc,
        "blas_threads": nproc if parallel == "blas" else 1,
        "workers": nproc if parallel == "workers" else 1,
    }
    if plan["blas_threads"] * plan["workers"] > nproc:
        raise SystemExit("thread plan exceeds nproc")
    return plan


def import_package():
    """Import dskg from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "dskg" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'dskg'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(src), str(ROOT)]
    import dskg

    if Path(dskg.__file__).resolve().parent != (src / "dskg").resolve():
        print(f"error: imported dskg from {dskg.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return dskg


def environment(plan: dict) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **plan,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_active": _blas_threads(),
    }


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    plan = thread_plan(args.workload)
    for name in THREAD_VARIABLES:
        os.environ[name] = str(plan["blas_threads"])
    sys.dont_write_bytecode = True
    import_package()
    declared = declared_metrics()

    from perfbench import oracles, tracing
    from perfbench.workloads import WORKLOADS

    env = environment(plan)
    print("environment " + json.dumps(env, sort_keys=True))
    workload = WORKLOADS[args.workload](plan["workers"])
    state = workload.setup(args.seed)
    checks = oracles.Checks()

    if args.trace:
        untraced = workload.measure(state, args.seconds / 2)
        tracer = tracing.install(tracing.Tracer())
        try:
            measured = workload.measure(state, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer, measured, untraced, state["index_s"])
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        measured = workload.measure(state, args.seconds)
        metrics = {"setup_s": state["setup_s"], "peak_rss_mb": peak_rss_mb()}
        metrics.update({name: measured.work[alias] for name, alias in workload.e2e.items()})
    workload.check(state, measured, checks)

    units = declared[args.trace]
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, value in measured.work.items():
        unit = "1/s" if name.endswith("_per_s") else "s"
        print(f"  {name} = {value:.6g} {unit}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    error_rate = checks.failed / max(checks.attempted, 1)
    print(f"  error_rate = {error_rate:.6g} ({checks.failed} failed / {checks.attempted} attempted)")
    for note in checks.notes:
        print(f"  FAILED {note}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
