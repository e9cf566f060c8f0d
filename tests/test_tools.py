"""tools/count_lines.py puts each line of a module in exactly one class."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("count_lines", ROOT / "tools" / "count_lines.py")
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "tawq").glob("*.py")),
                         ids=lambda path: path.name)
def test_the_four_classes_sum_to_wc_l(path):
    counts = count_lines.count(path.read_text(encoding="utf-8"))
    assert list(counts) == list(count_lines.CLASSES)
    assert sum(counts.values()) == path.read_bytes().count(b"\n")


def test_each_line_is_classed_once():
    source = ('"""Module\n'
              '\n'
              'doc."""\n'
              '\n'
              'x = 1  # code\n'
              '    # comment\n'
              '\n'
              'def f():\n'
              '    """Doc."""\n'
              '    s = """not a\n'
              '\n'
              'docstring"""\n')
    assert count_lines.count(source) == {"code": 5, "docstring": 4, "comment": 1, "blank": 2}


def test_the_report_counts_the_package_from_any_directory(tmp_path):
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "count_lines.py")],
                         cwd=tmp_path, capture_output=True, text=True, check=True).stdout
    wc = sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "tawq").glob("*.py"))
    assert out.splitlines()[-1].split()[:2] == ["total", str(wc)]


_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

MACHINE = {"blas": "scipy-openblas 0.3.31", "cpu_count": 2, "numpy": "2.4.6",
           "python": "3.11.7"}


def _stdout(metrics, host):
    """What `bench/run.py` prints: a table, the machine line, the result."""
    result = {"correct": True, "attempted": 5, "failed": 0,
              "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}
    return ("samples_per_s 1 1/s\n"
            f"machine {json.dumps({**MACHINE, 'host_speed_factor_median': host})}\n"
            f"{json.dumps(result)}\n")


def _runs(change, copy):
    """Ten canned pairs and A/A pairs: `change` and `copy` map a metric to
    the factor on the parent's value, which varies by 2% from pair to pair;
    a tuple gives the factor of each pair."""
    base = {"samples_per_s": 1000.0, "peak_rss_mb": 170.0, "ready_s": 0.02}
    runs = []
    for i in range(10):
        jitter = 1 + 0.01 * ((i * 7) % 5 - 2)
        for control, side, factor in ((False, "parent", {}), (False, "change", change),
                                      (True, "parent", {}), (True, "copy", copy)):
            f = {k: v if isinstance(v, float) else v[i] for k, v in factor.items()}
            values = {k: v * jitter * f.get(k, 1.0) for k, v in base.items()}
            runs.append({**pairs.parse_run(_stdout(values, 0.8)), "side": side,
                         "pair": i, "control": control, "seed": 1 + i})
    return runs


def test_pairs_summarize_tabulate_and_apply_the_claim_rule():
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    entry, machine = pairs.record(
        _runs(change={"samples_per_s": 1.2, "peak_rss_mb": 0.99, "ready_s": 1.4},
              copy={"samples_per_s": (1.01, 0.99) * 5}), bench_spec)
    assert machine == MACHINE
    rows = entry["metrics"]
    assert list(rows) == ["samples_per_s", "ready_s", "peak_rss_mb"]  # the spec's order
    s = rows["samples_per_s"]
    assert set(s) == {"unit", "better", "bound", "parent", "change", "aa", "pairs",
                      "worse_than_bound", "claim"}
    assert set(s["parent"]) == {"median", "q1", "q3"}
    assert set(s["change"]) == set(s["aa"]) == {"median", "q1", "q3", "ratio", "wins"}
    assert s["change"]["ratio"] == pytest.approx(1.2) and s["change"]["wins"] == 10
    assert s["aa"]["ratio"] == pytest.approx(1.0, abs=0.01) and s["aa"]["wins"] == 5
    assert s["claim"] and not s["worse_than_bound"]
    # 1% better in every pair, but within the parent's quartiles: no claim
    assert rows["peak_rss_mb"]["change"]["wins"] == 10 and not rows["peak_rss_mb"]["claim"]
    # 40% slower beyond a 25% bound
    assert rows["ready_s"]["worse_than_bound"] and not rows["ready_s"]["claim"]
    assert len(entry["runs"]) == 40 and all(
        r["host_speed_factor"] == 0.8 and "machine" not in r for r in entry["runs"])
    json.dumps(entry)  # the record is JSON as it stands

    table = pairs.format_table("mlp-train", rows).splitlines()
    assert table[0] == "[mlp-train]" and table[1].split()[0] == "metric"
    verdicts = {line.split()[0]: line.split("  ")[-1].strip() for line in table[2:]}
    assert verdicts == {"samples_per_s": "claim", "ready_s": "worse than bound",
                        "peak_rss_mb": "-"}
    sps = table[2].split()
    assert sps[5:7] == ["1.200", "10/10"] and sps[8] == "5/10"


def test_pairs_claim_must_beat_the_aa_control():
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # the same 20% gain shows between two copies of the parent: the directory,
    # not the code
    entry, _ = pairs.record(_runs(change={"samples_per_s": 1.2},
                                  copy={"samples_per_s": 1.2}), bench_spec)
    assert not entry["metrics"]["samples_per_s"]["claim"]
    # a gain in 8 pairs of 10 is no claim
    runs = _runs(change={"samples_per_s": 1.2}, copy={})
    for r in runs:
        if r["side"] == "change" and r["pair"] < 2:
            r["metrics"]["samples_per_s"] = 1.0
    assert not pairs.summarize(runs, bench_spec)["samples_per_s"]["claim"]
