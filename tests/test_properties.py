"""Property test of the command line on small random run configurations.

Whatever the document holds (zero sizes, widths that do not chain, a head
narrower than the class count, empty splits), `tawq train` ends in a
documented exit code.  A net that trained infers unfolded, and folded
inference either prints the same predictions or refuses, naming a layer.
"""

import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tawq.cli import main
from tawq.data import build_dataset
from tawq.errors import ConfigError
from tawq.runconfig import build_network, parse_runconfig


def _document(network: list, timesteps: int = 4, batch_size: int = 16) -> dict:
    return {"network": network, "quant": {"timesteps": timesteps},
            "train": {"epochs": 1, "batch_size": batch_size},
            "dataset": {"kind": "synthetic-temporal-xor", "timesteps": timesteps,
                        "n_samples": 24}}


# float values that no config field accepts: each must exit 2 and name its field
FLOAT_FAULTS = [("train", "lr", float("nan")), ("train", "clip_norm", float("inf")),
                ("quant", "c_th", float("-inf")), ("quant", "sg_scale", 0.0),
                ("lif", "sg_scale_neuron", -1.0), ("lif", "v_reset", float("nan")),
                ("dataset", "noise", -1.0), ("dataset", "test_fraction", float("nan"))]
# at most one out-of-range training or dataset size or float value per document
FAULTS = [None] * 20 + [("train", "epochs", 0), ("train", "batch_size", 0),
                        ("dataset", "n_samples", 1), ("dataset", "n_samples", 0),
                        *FLOAT_FAULTS]


@st.composite
def documents(draw) -> tuple[dict, tuple | None]:
    """A temporal-XOR run whose layer widths usually chain from the
    2-feature input, but may be zero or off by one, and its fault."""
    width, network = 2, []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["block", "linear", "qlinear", "bn", "lif",
                                     "pool", "conv", "flatten"]))
        size = draw(st.sampled_from([width] * 6 + [width + 1, 0]))
        if kind == "block":  # a foldable (qlinear, bn, lif) block
            out = draw(st.integers(1, 4))
            network += [{"kind": "qlinear", "in": size, "out": out},
                        {"kind": "bn", "channels": out}, {"kind": "lif"}]
            width = out
        elif kind in ("linear", "qlinear"):
            out = draw(st.sampled_from([2, 4, 3, 2, 1, 0]))
            network.append({"kind": kind, "in": size, "out": out})
            width = out
        elif kind == "conv":
            network.append({"kind": kind, "in": size, "out": 2, "kernel": 1})
        elif kind == "bn":
            network.append({"kind": kind, "channels": size})
        elif kind == "pool":
            network.append({"kind": kind, "kernel": draw(st.integers(1, 2))})
        else:
            network.append({"kind": kind})
    doc = _document(network, draw(st.integers(2, 4)), draw(st.sampled_from([16, 5])))
    fault = draw(st.sampled_from(FAULTS))
    if fault:
        section, key, value = fault
        doc.setdefault(section, {})[key] = value
    return doc, fault


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(documents())
def test_a_parsed_document_builds(case):
    # the parser judges every rule, so building refuses nothing it accepted
    try:
        cfg = parse_runconfig(case[0])
    except ConfigError:
        return
    build_network(cfg)


BLOCK = [{"kind": "qlinear", "in": 4, "out": 4}, {"kind": "bn", "channels": 4},
         {"kind": "lif"}]
# a block fed by spikes folds; a block fed by a float layer must refuse
INPUT_LAYER = {"kind": "linear", "in": 2, "out": 4}
HEAD = {"kind": "linear", "in": 4, "out": 2}
SPIKING_INPUT = _document([INPUT_LAYER, {"kind": "bn", "channels": 4}, {"kind": "lif"},
                           *BLOCK, HEAD])
GRADED_INPUT = _document([INPUT_LAYER, *BLOCK, HEAD])
# float layers that folded inference runs in place, before and after a block
INPUT_BLOCK = [{"kind": "qlinear", "in": 2, "out": 4}, *BLOCK[1:]]
LIF_FIRST = _document([{"kind": "lif"}, *INPUT_BLOCK, HEAD])
BN_FIRST = _document([{"kind": "bn", "channels": 2}, {"kind": "lif"}, *INPUT_BLOCK, HEAD])
FLOAT_AFTER_BLOCK = _document([*INPUT_BLOCK, {"kind": "linear", "in": 4, "out": 4},
                               {"kind": "bn", "channels": 4}, {"kind": "lif"}, HEAD])


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(documents())
@example((SPIKING_INPUT, None))
@example((GRADED_INPUT, None))
@example((LIF_FIRST, None))
@example((BN_FIRST, None))
@example((FLOAT_AFTER_BLOCK, None))
def test_cli_never_raises_and_folded_agrees_or_refuses(case):
    doc, fault = case
    with tempfile.TemporaryDirectory() as tmp:
        doc["output"] = {"checkpoint": os.path.join(tmp, "run.ckpt"),
                         "metrics": os.path.join(tmp, "metrics.jsonl")}
        config = os.path.join(tmp, "run.yaml")
        with open(config, "w") as fh:
            yaml.safe_dump(doc, fh)
        code, _, err = _run(["train", config])
        assert code in (0, 2, 3, 4)
        if fault in FLOAT_FAULTS:
            # the network is checked first and may be refused before the field
            section, key, _ = fault
            assert code == 2 and (f"{section}: {key} must" in err
                                  or re.search(r"network\[\d+\]", err)), err
        if code != 0:
            return
        inputs = os.path.join(tmp, "inputs.npz")
        np.savez(inputs, inputs=build_dataset(parse_runconfig(doc).dataset).test_x)
        infer = ["infer", doc["output"]["checkpoint"], inputs]
        code, unfolded, err = _run(infer + ["--unfolded"])
        assert code == 0, err
        code, folded, err = _run(infer + ["--folded"])
        if code == 0:
            assert folded == unfolded
        else:
            assert code == 3 and re.search(r"layer \d+ \(\w+\)", err), err


FAILING_PROPERTY = '''
from hypothesis import given, strategies as st

@given(st.integers(min_value=0, max_value=10))
def test_fails(n):
    assert n < 5
'''


def test_a_failing_property_shows_its_falsifying_example(tmp_path):
    # hypothesis's failure report imports libcst, which raises a
    # DeprecationWarning; under the project's warning filters the run must
    # still end as an ordinary failure (exit 1) that prints the example
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(root / "pyproject.toml"), str(tmp_path / "test_failing_property.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
