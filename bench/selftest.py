"""Self-test of the benchmark at smoke size.

    python3 bench/selftest.py

Checks that BENCHMARK.json keeps to its format, that metric_map.json
explains every metric, that each workload reports every metric with its
unit (untraced and traced) with no failed operation, that a corrupted fold
plan is counted as a failed operation rather than crashing the run, and
that run.py refuses to run without the tawq sources.  Exits 1 on any
failed check.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
SMOKE_SECONDS = 0.01

problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json has exactly its keys")
    check(1 <= len(spec["paths"]) <= 16 and all(
        PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        for p in spec["paths"]), "paths are relative and well formed")
    check(len(spec["command"]) <= 32 and all(
        len(c) <= 200 and not c.startswith("/") and ".." not in c for c in spec["command"]),
        "command is short and stays inside the repository")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
          "run_seconds is a whole number from 1 to 60")
    wl = spec["workloads"]
    check(2 <= len(wl) <= 8 and all(set(w) == {"name", "why"} and len(w["why"]) <= 200
                                    and "\n" not in w["why"] for w in wl),
          "2 to 8 workloads, each a name and a one-line why")
    e2e, layer = spec["end_to_end"], spec["per_layer"]
    check(1 <= len(e2e) <= 16 and all(
        set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        for m in e2e), "1 to 16 end-to-end metrics with a bound of at most 0.25")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in e2e),
          "setup_s is in s, lower is better, and has the largest bound")
    check(1 <= len(layer) <= 128 and all(set(m) == {"name", "unit", "better"}
                                         for m in layer),
          "1 to 128 per-layer metrics without a bound")
    names = [w["name"] for w in wl] + [m["name"] for m in e2e + layer]
    check(len(names) == len(set(names)) and all(NAME.match(n) for n in names),
          "names are unique and well formed")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
              for m in e2e + layer), "units and directions are well formed")
    check(len(json.dumps(spec)) <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")


def check_map(spec: dict) -> None:
    with open(os.path.join(os.path.dirname(__file__), "metric_map.json")) as fh:
        mmap = json.load(fh)
    workloads = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    check(set(mmap["workloads"]) == workloads, "metric_map explains every workload")
    check(set(mmap["end_to_end"]) == e2e and all(
        set(v) == workloads for v in mmap["end_to_end"].values()),
        "metric_map defines every end-to-end metric on every workload")
    layer = mmap["per_layer"]
    check(set(layer) == {m["name"] for m in spec["per_layer"]},
          "metric_map covers exactly the per-layer metrics")
    check(all(set(v["moves"]) <= workloads and all(set(ms) <= e2e for ms in v["moves"].values())
              for v in layer.values()),
          "per-layer metrics map to named workloads and end-to-end metrics")


def smoke(name: str, trace: bool, spec: dict):
    from tracer import Tracer
    from workloads import Workload

    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.BUILD)
    try:
        wl = Workload(name, 7, SMOKE_SECONDS, workdir,
                      tracer=Tracer() if trace else None, smoke=True)
        wl.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = wl.per_layer() if trace else wl.end_to_end()
    names = spec["per_layer" if trace else "end_to_end"]
    result = run.result_line(metrics, names, wl.failed == 0, wl.attempted, wl.failed)
    return wl, result


def check_workloads(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace in (False, True):
            label = f"{w['name']} {'traced' if trace else 'untraced'}"
            wl, result = smoke(w["name"], trace, spec)
            kind = "per_layer" if trace else "end_to_end"
            units = {m["name"]: m["unit"] for m in spec[kind]}
            check(all(result["metrics"][n]["unit"] == u for n, u in units.items())
                  and all(isinstance(v["value"], float) for v in result["metrics"].values()),
                  f"{label}: every metric reported with its unit")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{label}: operations attempted, none failed {wl.failures}")
            if trace:
                calls = result["metrics"]["runtime.ac_only_matmul.calls"]["value"]
                check((calls > 0) == (w["name"] == "mlp-deploy"),
                      f"{label}: accumulate kernel runs only in mlp-deploy")
            else:
                check(all(v["value"] > 0 for v in result["metrics"].values()),
                      f"{label}: end-to-end metrics are nonzero")


def check_corrupted_plan(spec: dict) -> None:
    """A flipped or invalid packed code is a failed operation, not a crash."""
    from tawq import runtime

    def sign_flip_row(p):
        w = runtime.unpack_ternary(p)
        w[0] = -w[0]
        return runtime.pack_ternary(w)

    def invalid_code(p):
        codes = bytearray(p.codes)
        codes[0] |= runtime.CODE_INVALID
        return runtime.PackedTernaryTensor(codes=bytes(codes), shape=p.shape)

    fold = runtime.fold_network
    for label, mutate in (("sign-flipped codes", sign_flip_row),
                          ("invalid code", invalid_code)):
        def corrupt(net):
            plan = fold(net)
            block = next(item for item in plan if hasattr(item, "packed"))
            block.packed[0] = mutate(block.packed[0])
            return plan

        runtime.fold_network = corrupt
        try:
            wl, result = smoke("mlp-deploy", False, spec)
        finally:
            runtime.fold_network = fold
        check(not result["correct"] and 0 < result["failed"] <= result["attempted"]
              and set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]},
              f"fold plan with {label}: {result['failed']} of {result['attempted']} "
              "operations failed and the run still reported")


def check_refuses_without_sources() -> None:
    """With only BENCHMARK.json and the benchmark directory, run.py must
    exit nonzero and print no result."""
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.BUILD)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        here = os.path.dirname(os.path.abspath(__file__))
        shutil.copytree(here, os.path.join(bare, os.path.basename(here)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(here), "run.py"),
             "--workload", "mlp-train", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              f"refuses to run without the tawq sources (exit {proc.returncode})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    run.pin_blas_threads()
    sys.path.insert(0, run.SRC)
    os.makedirs(run.BUILD, exist_ok=True)
    spec = run.load_spec()
    check_spec(spec)
    check_map(spec)
    check_workloads(spec)
    check_corrupted_plan(spec)
    check_refuses_without_sources()
    print(f"{len(problems)} check(s) failed" if problems else "all checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
