"""The names the benchmark tracer patches must exist where it looks for them.

`bench/tracer.py` replaces tawq's functions and layer methods by name; a
rename or a method that moves into a base class breaks the traced run.
This reads its tables without running the benchmark.
"""

import importlib
import importlib.util
import pathlib

import numpy as np

from conftest import three_layer_document
from tawq.runconfig import build_network, parse_runconfig
from tawq.runtime import FoldedBlock, fold_network

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    for mod_name, names in _tracer().FUNCTIONS.items():
        module = importlib.import_module(f"tawq.{mod_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"tawq.{mod_name}.{name}"


def test_traced_methods_are_in_their_class_namespace():
    layers = importlib.import_module("tawq.layers")
    for cls_name, methods in _tracer().METHODS.items():
        cls = getattr(layers, cls_name)
        for meth in methods:
            assert meth in cls.__dict__, f"tawq.layers.{cls_name}.{meth}"


def test_fold_plan_packed_is_a_list():
    # bench/selftest.py corrupts a plan by assigning into `packed`
    cfg = parse_runconfig(three_layer_document())
    net = build_network(cfg)
    net.forward(np.zeros((cfg.quant.timesteps, 2, 2)))
    blocks = [item for item in fold_network(net) if isinstance(item, FoldedBlock)]
    assert len(blocks) == 1 and isinstance(blocks[0].packed, list)
