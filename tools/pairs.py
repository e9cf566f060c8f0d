"""Compare two checkouts of tawq on the benchmark in alternating pairs of
runs, beside an A/A control, and write the evidence as JSON.

    python3 tools/pairs.py <parent-dir> <change-dir> --workload mlp-train \
        --pairs 10 --seconds 8 --out BENCH_<n>.json

Each pair runs `bench/run.py` once in each checkout with one seed, and the
side that runs first alternates from pair to pair.  The A/A control runs
the parent against a copy of itself the same way, so a shift that follows
the directory rather than the code shows as the A/A ratio.  Each run's
`machine` line and JSON result line are parsed.  Per end-to-end metric
the table gives the parent's and the change's medians and quartiles, the
median ratio, the wins and the same for the A/A control.  `--workload`
may be given more than once; all workloads go into one JSON file.  The
verdict column applies README § Bench's claim rule (`claim_holds`) and
each metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CLAIM_WIN_SHARE = 0.9


def parse_run(stdout: str) -> dict:
    """The `machine` line and the final JSON result line of one
    `bench/run.py` run, as {"machine", "correct", "attempted", "failed",
    "metrics": {name: value}}."""
    lines = stdout.strip().splitlines()
    machine = [json.loads(line[len("machine "):]) for line in lines
               if line.startswith("machine ")]
    if not machine:
        raise ValueError("run printed no machine line")
    result = json.loads(lines[-1])
    return {"machine": machine[-1], "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _compare(base: list[float], other: list[float], higher: bool) -> dict:
    """Quartiles of `other`, its median ratio to `base` and its wins over
    the run of `base` it was paired with."""
    stats = _quartiles(other)
    wins = sum((o > b) if higher else (o < b) for b, o in zip(base, other))
    ref = statistics.median(base)
    return {**stats, "ratio": stats["median"] / ref if ref else math.nan, "wins": wins}


def claim_holds(row: dict) -> bool:
    """README § Bench's claim rule for one metric's summary row."""
    change, aa, parent = row["change"], row["aa"], row["parent"]
    n = len(row["pairs"])
    better = (change["median"] > parent["median"]) == (row["better"] == "higher")
    return (better and change["wins"] >= math.ceil(CLAIM_WIN_SHARE * n)
            and abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"]
            and abs(math.log(change["ratio"])) > abs(math.log(aa["ratio"]))
            and change["wins"] > aa["wins"])


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per end-to-end metric of `spec` (BENCHMARK.json), the summary row of
    one workload's `runs`: dicts of `parse_run` plus "side" ("parent",
    "change" or "copy"), "pair" and "control" (True for the A/A pairs)."""
    def values(side, control, name):
        chosen = sorted((r for r in runs if r["side"] == side and r["control"] == control),
                        key=lambda r: r["pair"])
        return [r["metrics"][name] for r in chosen]

    rows = {}
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        if name not in runs[0]["metrics"]:
            continue
        parent, change = values("parent", False, name), values("change", False, name)
        row = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
               "parent": _quartiles(parent), "change": _compare(parent, change, higher),
               "aa": _compare(values("parent", True, name), values("copy", True, name),
                              higher),
               "pairs": list(zip(parent, change))}
        ratio = row["change"]["ratio"]
        row["worse_than_bound"] = (ratio < 1 - m["bound"]) if higher else (ratio > 1 + m["bound"])
        row["claim"] = claim_holds(row)
        rows[name] = row
    return rows


def format_table(workload: str, rows: dict) -> str:
    """The summary rows of one workload as a text table."""
    row = "{:<20}{:>11}{:>11}{:>11}{:>11}{:>7}{:>7}{:>9}{:>9}  {}"
    out = [f"[{workload}]", row.format("metric", "parent q1", "median", "q3", "change",
                                       "ratio", "wins", "A/A", "A/A wins", "verdict")]
    for name, r in rows.items():
        p, c, aa, n = r["parent"], r["change"], r["aa"], len(r["pairs"])
        verdict = ("claim" if r["claim"] else
                   "worse than bound" if r["worse_than_bound"] else "-")
        out.append(row.format(name, *(f"{v:.5g}" for v in (p["q1"], p["median"], p["q3"],
                                                            c["median"])),
                              f"{c['ratio']:.3f}", f"{c['wins']}/{n}", f"{aa['ratio']:.3f}",
                              f"{aa['wins']}/{n}", verdict))
    return "\n".join(out)


def record(runs: list[dict], spec: dict) -> tuple[dict, dict]:
    """One workload's JSON entry, {"metrics": summary rows, "runs": each
    run with its host-speed factor in place of its machine line}, and the
    machine line of its last run, without that factor."""
    kept = []
    for run in runs:
        machine = dict(run["machine"])
        factor = machine.pop("host_speed_factor_median", None)
        kept.append({**{k: v for k, v in run.items() if k != "machine"},
                     "host_speed_factor": factor})
    return {"metrics": summarize(runs, spec), "runs": kept}, machine


def revision(directory: Path) -> dict:
    """The git commit of a checkout if it is a repository's root, and a
    digest of the files the benchmark builds from, which a plain copy, such
    as a `git archive` of a commit, also has."""
    git = subprocess.run(["git", "-C", str(directory), "rev-parse", "HEAD"],
                         capture_output=True, text=True) if (directory / ".git").exists() else None
    digest = hashlib.sha256()
    for path in sorted(directory.glob("src/**/*.py")) + sorted(directory.glob("bench/*.py")):
        digest.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return {"git": git.stdout.strip() if git and git.returncode == 0 else None,
            "sources_sha256": digest.hexdigest()}


def run_bench(directory: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=directory, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py in {directory} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return parse_run(proc.stdout)


def run_pairs(dirs: dict, workload: str, pairs: int, seconds: float, seed: int) -> list[dict]:
    """Run each pair and its A/A control pair, the first slot alternating."""
    runs = []
    for i in range(pairs):
        for control, sides in ((False, ("parent", "change")), (True, ("parent", "copy"))):
            for side in sides if i % 2 == 0 else sides[::-1]:
                run = run_bench(dirs[side], workload, seed + i, seconds)
                runs.append({**run, "side": side, "pair": i, "control": control,
                             "seed": seed + i})
                print(f"  {workload} pair {i} {'A/A ' if control else ''}{side}: "
                      f"correct={run['correct']}", file=sys.stderr)
    return runs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--out", type=Path, help="JSON file to write")
    args = p.parse_args(argv)
    if args.pairs < 2 or args.seconds <= 0:
        p.error("--pairs must be >= 2 and --seconds > 0")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(prefix="pairs-") as work:
        copy = Path(work) / args.parent.resolve().name
        shutil.copytree(args.parent, copy, ignore=shutil.ignore_patterns(
            ".git", ".bench_build", "__pycache__"))
        dirs = {"parent": args.parent, "change": args.change, "copy": copy}
        doc = {"revisions": {side: revision(dirs[side]) for side in ("parent", "change")},
               "pairs": args.pairs, "seconds": args.seconds,
               "seeds": list(range(args.seed, args.seed + args.pairs)), "workloads": {}}
        for workload in args.workload:
            entry, doc["machine"] = record(
                run_pairs(dirs, workload, args.pairs, args.seconds, args.seed), spec)
            print(format_table(workload, entry["metrics"]))
            doc["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
