"""Benchmark entry point for tawq.

    python3 bench/run.py --workload mlp-train --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root.  One process runs one workload: it pins the
BLAS thread pool before numpy loads, imports tawq from ./src, sets up,
measures for --seconds, checks every output, and prints a metric table and,
as its last line, one JSON object {"correct", "attempted", "failed",
"metrics"}.  --trace 0 reports the end-to-end metrics of BENCHMARK.json;
--trace 1 reports its per-layer metrics and writes the spans to
.bench_build/traces/.  --workload all runs each workload in its own
process and prints every metric as "<workload>.<metric>".
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
# The ROADMAP baseline was measured with 2 BLAS threads; more cores than
# that are not used, so figures stay comparable between machines.
BLAS_THREADS_MAX = 2
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                    "openblas_get_num_threads")


def pin_blas_threads() -> int:
    """Set the BLAS pool size in the environment; numpy must not be loaded
    yet, because OpenBLAS reads it only once, when it starts."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    n = min(len(os.sched_getaffinity(0)), BLAS_THREADS_MAX)
    for var in BLAS_VARS:
        os.environ[var] = str(n)
    return n


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in OPENBLAS_GETTERS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def machine_info(requested: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads_requested": requested,
            "blas_threads_effective": _openblas_threads(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description="tawq benchmark")
    p.add_argument("--workload", required=True, choices=[*workload_names, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def result_line(metrics: dict, spec_metrics: list, correct: bool, attempted: int,
                failed: int) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in spec_metrics}}


def print_table(metrics: dict) -> None:
    for name, entry in metrics.items():
        print(f"{name:<40} {entry['value']:>16.6g} {entry['unit']}")


def run_one(args, spec: dict) -> int:
    if not os.path.isfile(os.path.join(SRC, "tawq", "__init__.py")):
        print(f"error: tawq sources not found under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    requested = pin_blas_threads()
    sys.path.insert(0, SRC)
    import tawq
    from tracer import Tracer
    from workloads import Workload

    if not os.path.abspath(tawq.__file__).startswith(SRC + os.sep):
        print(f"error: imported tawq from {tawq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    info = machine_info(requested)
    os.makedirs(BUILD, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    tracer = Tracer() if args.trace else None
    try:
        wl = Workload(args.workload, args.seed, args.seconds, workdir, tracer=tracer)
        wl.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics, names = wl.per_layer(), spec["per_layer"]
    else:
        metrics, names = wl.end_to_end(), spec["end_to_end"]
    result = result_line(metrics, names, wl.failed == 0, wl.attempted, wl.failed)
    for reason in wl.failures:
        print(f"failed: {reason}", file=sys.stderr)
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        path = os.path.join(BUILD, "traces", f"{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "machine": info, **result})
        print(f"spans: {path}")
    print_table(result["metrics"])
    if wl.speed.factors:
        info["host_speed_factor_median"] = statistics.median(wl.speed.factors)
    print("machine " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    merged, correct, attempted, failed = {}, True, 0, 0
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {w['name']} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        merged.update({f"{w['name']}.{k}": v for k, v in res["metrics"].items()})
        print(f"[{w['name']}] correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
    print_table(merged)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
