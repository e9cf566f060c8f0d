"""tools/count_lines.py puts each line of a module in exactly one class."""

import importlib.util
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
