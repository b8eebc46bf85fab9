"""Benchmark of the stwnn pipeline: one workload per process.

    python3 perfbench/run.py --workload train|infer|prep --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the workload is timed untraced and the end-to-end metrics are
reported; with ``--trace 1`` tracing is switched on for every other item, and
the per-layer metrics and the tracing overhead (traced against untraced items
of the same run) are reported. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every figure with its
unit and sample count, the correctness checks and the environment. The full
record (and, when traced, every span) is written under ``.perfbench_out/``.

The end-to-end metrics have one meaning per workload (see ``E2E_MEANING``):
throughput is training samples/s (train), shift_consistency streams/s (infer)
or streams/s through synth, segment and read-back (prep); the latency
percentiles are per training.train call (train), per network.forward call
(infer) or per synth+segment+read-back pass (prep).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# imports and set-ups made before and again after the timed loop of an
# untraced run, so setup_s (the sum of their medians) samples two moments
SETUP_REPS = {"paper": 3, "tiny": 1}

E2E = (("throughput_per_s", "1/s"), ("latency_ms_p50", "ms"), ("latency_ms_p95", "ms"),
       ("setup_s", "s"), ("peak_rss_mb", "MB"))

# the name each end-to-end figure goes by on each workload
E2E_MEANING = {
    "train": {"throughput_per_s": "train_samples_per_s",
              "latency_ms_p50": "train_call_ms_p50", "latency_ms_p95": "train_call_ms_p95"},
    "infer": {"throughput_per_s": "shift_streams_per_s",
              "latency_ms_p50": "infer_ms_p50", "latency_ms_p95": "infer_ms_p95"},
    "prep": {"throughput_per_s": "prep_streams_per_s",
             "latency_ms_p50": "prep_pass_ms_p50", "latency_ms_p95": "prep_pass_ms_p95"},
}


def import_stwnn(reps: int) -> list:
    """Import the package from ``src/`` of this checkout ``reps`` times, each
    time from scratch; returns the seconds each import took."""
    src = ROOT / "src"
    if not (src / "stwnn" / "__init__.py").is_file():
        raise ImportError(f"no stwnn package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    times = []
    for _ in range(reps):
        for name in [m for m in sys.modules if m == "stwnn" or m.startswith("stwnn.")]:
            del sys.modules[name]
        start = perf_counter()
        for module in ("stwnn", "stwnn.autodiff", "stwnn.csi", "stwnn.volumes",
                       "stwnn.network", "stwnn.training", "stwnn.dataio", "stwnn.cli"):
            importlib.import_module(module)
        times.append(perf_counter() - start)
    loaded = Path(sys.modules["stwnn"].__file__).resolve()
    if src.resolve() not in loaded.parents:
        raise ImportError(f"stwnn was imported from {loaded}, not from {src}")
    return times


def _blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cache_sizes():
    """L1d/L2/L3 bytes from glibc sysconf (-1 or 0 where unknown)."""
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    # _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE in glibc
    return {"l1d": libc.sysconf(188), "l2": libc.sysconf(191), "l3": libc.sysconf(194)}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cache_bytes": _cache_sizes(),
        "machine": platform.machine(),
        "src_lines": src_lines,
        "src_lines_note": "for information, not gated",
    }


def _percentile(values, q):
    """q-th percentile (0-100) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setups(workload, reps) -> list:
    times = []
    for _ in range(reps):
        start = perf_counter()
        workload.setup()
        times.append(perf_counter() - start)
    return times


def run(args) -> dict:
    reps = 1 if args.trace else SETUP_REPS[args.size]
    import_times = import_stwnn(reps)
    import tracing
    import workloads

    size = workloads.SIZES[args.size]
    workload = workloads.WORKLOADS[args.workload](args.seed, size, ROOT)
    setup_times = _setups(workload, reps)

    results = {}
    try:
        results.update(workload.pre_checks())
        tracer = None
        if args.trace:
            tracer = tracing.Tracer(getattr(workload, "model", None))
            set_tracing = tracing.switch(tracer)
            try:
                loop = workload.loop(args.seconds, max(workload.min_items, 4), set_tracing)
            finally:
                set_tracing(False)
            traced = [s for s, t in zip(loop.latency_s, loop.latency_traced) if t]
            plain = [s for s, t in zip(loop.latency_s, loop.latency_traced) if not t]
            overhead_pct = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        else:
            loop = workload.loop(args.seconds, workload.min_items)
            import_times += import_stwnn(reps)
            setup_times += _setups(workload, reps)
        results.update(workload.post_checks())
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()

    setup_s = statistics.median(import_times) + statistics.median(setup_times)
    latency_ms = [1e3 * s for s in loop.latency_s]
    e2e = {
        "throughput_per_s": (loop.units_per_rate_item * len(loop.rate_s) / sum(loop.rate_s)
                             if loop.rate_s else 0.0),
        "latency_ms_p50": statistics.median(latency_ms) if latency_ms else 0.0,
        "latency_ms_p95": _percentile(latency_ms, 95) if latency_ms else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    failed_checks = [name for name, (ok, _) in results.items() if not ok]
    attempted = loop.attempted + len(results)
    failed = loop.failed + len(failed_checks)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "why": workload.why,
        "environment": environment(),
        "checks": {name: {"ok": ok, "detail": detail} for name, (ok, detail) in results.items()},
        "samples": {"latency": len(loop.latency_s), "latency_unit": workload.latency_unit,
                    "rate": len(loop.rate_s), "rate_unit": workload.rate_unit,
                    "units_per_rate_item": loop.units_per_rate_item},
        "setup": {"import_s": import_times, "setup_reps_s": setup_times},
        "end_to_end": e2e,
        "error_rate": failed / attempted,
        "summary": workload.summary(),
        "latency_s": loop.latency_s,
        "rate_s": loop.rate_s,
    }
    if args.trace:
        record["per_layer"] = tracing.per_layer_metrics(
            tracer, loop.traced_items, overhead_pct, record["summary"].get("train_loss"))
        record["latency_ms_p50_traced_untraced"] = [1e3 * statistics.median(traced),
                                                    1e3 * statistics.median(plain)]
        metrics = {name: {"value": record["per_layer"][name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E}
    record["correct"] = failed == 0

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.json")

    _print_report(record, metrics)
    return {"correct": record["correct"], "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _print_report(record, metrics):
    w = record["workload"]
    samples = record["samples"]
    print(f"perfbench workload={w} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']} size={record['size']}")
    print(f"  why: {record['why']}")
    for key, value in record["environment"].items():
        print(f"  env {key}: {value}")
    for name, check in record["checks"].items():
        print(f"  check {name}: {'PASS' if check['ok'] else 'FAIL'} {check['detail']}")
    counts = {"throughput_per_s": f"{samples['units_per_rate_item']} per item, total over "
                                  f"{samples['rate']} {samples['rate_unit']}",
              "latency_ms_p50": f"n={samples['latency']} {samples['latency_unit']}",
              "latency_ms_p95": f"n={samples['latency']} {samples['latency_unit']}",
              "setup_s": f"median of {len(record['setup']['import_s'])} imports + median of "
                         f"{len(record['setup']['setup_reps_s'])} set-ups"}
    for name, unit in E2E:
        alias = E2E_MEANING[w].get(name, name)
        print(f"  {name} ({alias}) = {record['end_to_end'][name]:.6g} {unit}"
              f"  [{counts.get(name, 'per run')}]")
    for key, value in record["summary"].items():
        print(f"  {key} = {value}")
    print(f"  error_rate = {record['error_rate']:.6g}  [failed / attempted]")
    if "per_layer" in record:
        for name, entry in metrics.items():
            print(f"  {name} = {entry['value']:.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "infer", "prep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("paper", "tiny"), default="paper",
                        help="input sizes; tiny is for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args)
    except ImportError as exc:
        print(f"perfbench: cannot import the stwnn package: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
