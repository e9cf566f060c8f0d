"""The benchmark's use of tawq must match tawq, checked without running it.

`bench/tracer.py` replaces tawq's functions and layer methods by name; a
rename or a method that moves into a base class breaks the traced run.
Every call the bench scripts make of a tawq module function must bind to
that function's signature, so a removed or renamed parameter fails here.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import numpy as np

from conftest import three_layer_document
from tawq.runconfig import build_network, parse_runconfig
from tawq.runtime import FoldedBlock, fold_network

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
# Workload._try(fn, *args) and HostSpeed.timed(fn, *args) call fn(*args)
DEFERRING = ("_try", "timed")


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


def _tawq_calls(path: pathlib.Path):
    """(name, function, call node, positional args, keyword args) of every
    call in a bench script of a module it imports from tawq, made directly
    or through one of DEFERRING."""
    tree = ast.parse(path.read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "tawq"
               for alias in node.names}

    def target(expr):
        if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
                and expr.value.id in modules):
            return f"{expr.value.id}.{expr.attr}"
        return None

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name, args, keywords = target(node.func), node.args, node.keywords
        if (name is None and isinstance(node.func, ast.Attribute)
                and node.func.attr in DEFERRING and args):
            name, args, keywords = target(args[0]), args[1:], []
        if name is not None:
            mod_name, attr = name.split(".")
            fn = getattr(importlib.import_module(f"tawq.{mod_name}"), attr, None)
            yield name, fn, node, args, keywords


def test_bench_calls_bind_to_tawq_signatures():
    seen = set()
    for path in sorted(BENCH.glob("*.py")):
        for name, fn, node, args, keywords in _tawq_calls(path):
            where = f"{path.name}:{node.lineno} {name}"
            assert callable(fn), where
            assert not any(isinstance(a, ast.Starred) for a in args), where
            assert all(k.arg is not None for k in keywords), where
            try:
                inspect.signature(fn).bind(*args, **{k.arg: k.value for k in keywords})
            except TypeError as exc:
                raise AssertionError(f"{where}: {exc}") from None
            seen.add(name)
    # direct and deferred calls are both found
    assert {"analysis.energy_hardware", "trainer.train", "runtime.folded_forward",
            "runtime.unpack_ternary"} <= seen, seen
