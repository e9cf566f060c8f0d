"""The benchmark's use of tawq must match tawq, checked without running it.

`bench/tracer.py` replaces tawq's functions and layer methods by name; a
rename or a method that moves into a base class breaks the traced run.
Every call the bench scripts make of a tawq module function must bind to
that function's signature, and every `.forward` call to `Network.forward`'s,
so a removed or renamed parameter fails here.
The host-speed hook and the tracer patch `trainer.clip_and_step`, so
`train` must call it through the module global, once per step; the
tracer's materialize counter tells a changed stimulus by object identity,
so every step must put a new array in each `params[...]`.
"""

import ast
import collections
import importlib
import importlib.util
import inspect
import pathlib
import sys
import textwrap

import numpy as np
import pytest

from conftest import WriteSpy, three_layer_document
from tawq import runtime, trainer
from tawq.checkpoint import (
    checkpoint_from_network,
    load_checkpoint,
    network_from_checkpoint,
    save_checkpoint,
)
from tawq.data import build_dataset
from tawq.layers import BatchNorm, Layer, Network
from tawq.runconfig import build_network, parse_runconfig
from tawq.runtime import FoldedBlock, fold_network, pack_ternary, unpack_ternary

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


def test_fold_plan_packed_is_a_list(tmp_path):
    # bench/selftest.py corrupts a plan by assigning into `packed`; that must
    # not reach the quantizer state the block took its tensors from
    cfg = parse_runconfig(three_layer_document())
    net = build_network(cfg)
    net.forward(np.zeros((cfg.quant.timesteps, 2, 2)))
    before, after = tmp_path / "before.ckpt", tmp_path / "after.ckpt"
    save_checkpoint(str(before), checkpoint_from_network(net, cfg))
    stored = net.layers[3].state.stored
    blocks = [item for item in fold_network(net) if isinstance(item, FoldedBlock)]
    assert len(blocks) == 1 and isinstance(blocks[0].packed, list)
    blocks[0].packed[0] = pack_ternary(-unpack_ternary(blocks[0].packed[0]))
    assert net.layers[3].state.stored is stored
    assert blocks[0].packed[0] is not stored[0]
    save_checkpoint(str(after), checkpoint_from_network(net, cfg))
    assert after.read_bytes() == before.read_bytes()


def test_folded_plan_items_are_layers_apart_from_the_net():
    # workloads.folded_blocks counts a plan item that is not one of the
    # net's layers as a folded block, and selftest.check_corrupted_plan
    # corrupts the `packed` list of the first item that has one
    net = build_network(parse_runconfig(three_layer_document()))
    plan = fold_network(net)
    assert sum(isinstance(item, FoldedBlock) for item in plan) == 1
    for item in plan:
        assert isinstance(item, Layer)
        folded = isinstance(item, FoldedBlock)
        assert any(item is layer for layer in net.layers) != folded
        assert isinstance(getattr(item, "packed", None), list) == folded


def test_one_deploy_cycle_packs_each_state_once(tmp_path, monkeypatch):
    # save -> load -> rebuild -> fold -> rewrite: the saved net's state packs
    # its T stacks once and the rebuilt state packs its own once, to compare
    # with the file's; the fold and the rewrite read it, and nothing decodes
    calls = {pack_ternary: [], unpack_ternary: []}

    def counting(fn):
        def wrapper(arg):
            calls[fn].append(arg)
            return fn(arg)
        return wrapper

    for name, module in list(sys.modules.items()):
        if name == "tawq" or name.startswith("tawq."):
            for attr, value in list(vars(module).items()):
                if value is pack_ternary or value is unpack_ternary:
                    monkeypatch.setattr(module, attr, counting(value))
    cfg = parse_runconfig(three_layer_document())
    path = str(tmp_path / "run.ckpt")
    save_checkpoint(path, checkpoint_from_network(build_network(cfg), cfg))
    assert len(calls[pack_ternary]) == cfg.quant.timesteps == 4
    ckpt = load_checkpoint(path)
    net, cfg = network_from_checkpoint(ckpt)
    assert len(calls[pack_ternary]) == 2 * cfg.quant.timesteps
    fold_network(net)
    save_checkpoint(str(tmp_path / "rewrite.ckpt"), checkpoint_from_network(net, cfg))
    assert len(calls[pack_ternary]) == 2 * cfg.quant.timesteps
    assert not calls[unpack_ternary]


def _bench_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports the tracer by name
    return importlib.import_module("workloads")


def test_deploy_results_outlive_the_next_batch(monkeypatch):
    # the deploy rep keeps every batch's folded logits and membranes and
    # checks them after the last batch, so a call may not write into what
    # an earlier call returned; nor may a Network.forward into its logits
    workloads = _bench_workloads(monkeypatch)
    doc = workloads.run_document(workloads.MLP, 8, 16, 0)
    net = build_network(parse_runconfig(doc))
    rng = np.random.default_rng(50)
    xs = [(rng.random((workloads.TIMESTEPS, 8, workloads.N_FEATURES)) < 0.2) * 1.0
          for _ in range(2)]
    net.forward(xs[0], training=True)  # BN statistics of spike input, so the LIFs fire
    plan = fold_network(net)
    first = runtime.folded_forward(plan, xs[0], True)
    kept = [first[0].copy(), *(m.copy() for m in first[1])]
    second = runtime.folded_forward(plan, xs[1], True)
    assert len(first[1]) == 1 and not np.array_equal(first[1][0], second[1][0])
    assert all(np.array_equal(a, b) for a, b in zip([first[0], *first[1]], kept))
    logits = net.forward(xs[0], training=False)
    kept = logits.copy()
    net.forward(xs[1], training=False)
    assert np.array_equal(logits, kept)


@pytest.mark.parametrize("stack", ["MLP", "CONV"])
def test_the_tracer_sees_every_eval_forward_but_batchnorms(monkeypatch, stack):
    # the tracer wraps each class's own `forward`; an eval forward runs it
    # for every layer but a BatchNorm, whose `forward` trains
    workloads = _bench_workloads(monkeypatch)
    layers = importlib.import_module("tawq.layers")
    network = getattr(workloads, stack)
    net = build_network(parse_runconfig(workloads.run_document(network, 8, 16, 0)))
    calls = collections.Counter()
    for cls_name, methods in _tracer().METHODS.items():
        cls = getattr(layers, cls_name)
        if "forward" in methods and issubclass(cls, Layer):
            def counted(self, x, name=cls_name, forward=cls.__dict__["forward"]):
                calls[name] += 1
                return forward(self, x)
            monkeypatch.setattr(cls, "forward", counted)
    sample = (1, workloads.SIDE, workloads.SIDE) if stack == "CONV" else (workloads.N_FEATURES,)
    net.forward(np.ones((workloads.TIMESTEPS, 4, *sample)), training=False)
    assert calls == collections.Counter(type(layer).__name__ for layer in net.layers
                                        if not isinstance(layer, BatchNorm))


class _Uncut(WriteSpy):
    """The writer's file with its final cut to length left out."""

    def truncate(self, *size):
        pass


def test_rewrite_gate_over_a_longer_file(monkeypatch, tmp_path):
    # rewrite.ckpt already holds a longer file: the rewrite must leave exactly
    # the loaded checkpoint's bytes, and a stale tail must trip the gate
    workloads = _bench_workloads(monkeypatch)
    wl = workloads.Workload("mlp-deploy", 1, 0.0, str(tmp_path), smoke=True)
    wl._setup_once()
    stale = wl.fixture + b"\xff" * 4096
    rewrite = pathlib.Path(wl.rewrite_path)
    rewrite.write_bytes(stale)
    net = wl._ready_op()[0]
    assert wl._rewrite_op(net), wl.failures
    assert rewrite.read_bytes() == wl.fixture
    rewrite.write_bytes(stale)
    monkeypatch.setattr("tawq.checkpoint.open",
                        lambda *a, **k: _Uncut(open(*a, **k), lambda i: None), raising=False)
    assert not wl._rewrite_op(net)
    assert wl.failures == [
        "checkpoint rewrite: rewritten checkpoint differs from the one loaded"]


@pytest.mark.parametrize("network", ["bench-mlp", "three-layer"])
def test_folded_blocks_and_accumulates_per_block(monkeypatch, network):
    # workloads.folded_blocks pairs each folded block with the layers it
    # replaced: _count_accumulates reads `.state` of the first, and
    # check_folded_batch a recorded membrane against the LIF's cache
    workloads = _bench_workloads(monkeypatch)
    if network == "bench-mlp":
        doc = workloads.run_document(workloads.MLP, 128, 64, 1)
    else:
        doc = three_layer_document()
    cfg = parse_runconfig(doc)
    net = build_network(cfg)
    plan = fold_network(net)
    blocks = workloads.folded_blocks(plan, net.layers)
    assert len(blocks) == sum(isinstance(item, FoldedBlock) for item in plan) == 1
    for first, lif in blocks:
        assert getattr(net.layers[first], "state", None) is not None
        assert net.layers[lif].kind == "lif"
    calls = []
    original = runtime.ac_only_matmul

    def spy(packed, spikes):
        calls.append(len(packed))
        return original(packed, spikes)

    # the tracer times the kernel by replacing the module global
    monkeypatch.setattr(runtime, "ac_only_matmul", spy)
    x = build_dataset(cfg.dataset).test_x
    batches = [x[:, :8], x[:, 8:16]]
    for xb in batches:
        _, membranes = runtime.folded_forward(plan, xb, record_membranes=True)
        assert len(membranes) == len(blocks)
    assert calls == [cfg.quant.timesteps] * len(blocks) * len(batches)


def _calls(tree: ast.AST):
    """(call node, callee, positional args, keyword args) of every call in
    `tree`; a call through one of DEFERRING stands for the call it defers."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn, args, keywords = node.func, node.args, node.keywords
        if isinstance(fn, ast.Attribute) and fn.attr in DEFERRING and args:
            fn, args, keywords = args[0], args[1:], []
        yield node, fn, args, keywords


def _tawq_calls(path: pathlib.Path):
    """(name, function, call node, positional args, keyword args) of every
    call in a bench script of a module it imports from tawq, made directly
    or through one of DEFERRING."""
    tree = ast.parse(path.read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "tawq"
               for alias in node.names}
    for node, fn, args, keywords in _calls(tree):
        if (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
                and fn.value.id in modules):
            module = importlib.import_module(f"tawq.{fn.value.id}")
            yield f"{fn.value.id}.{fn.attr}", getattr(module, fn.attr, None), node, args, keywords


def _forward_calls(source: str):
    """(call node, positional args, keyword args) of every `<name>.forward`
    call in `source`, made directly or through one of DEFERRING."""
    for node, fn, args, keywords in _calls(ast.parse(source)):
        if (isinstance(fn, ast.Attribute) and fn.attr == "forward"
                and isinstance(fn.value, ast.Name)):
            yield node, args, keywords


def _bind(fn, where: str, args, keywords) -> None:
    """Bind a call's argument nodes to `fn`'s signature; a method's call
    passes None for the instance."""
    try:
        inspect.signature(fn).bind(*args, **{k.arg: k.value for k in keywords})
    except TypeError as exc:
        raise AssertionError(f"{where}: {exc}") from None


def test_bench_calls_bind_to_tawq_signatures():
    seen = set()
    for path in sorted(BENCH.glob("*.py")):
        for name, fn, node, args, keywords in _tawq_calls(path):
            where = f"{path.name}:{node.lineno} {name}"
            assert callable(fn), where
            assert not any(isinstance(a, ast.Starred) for a in args), where
            assert all(k.arg is not None for k in keywords), where
            _bind(fn, where, args, keywords)
            seen.add(name)
    # direct and deferred calls are both found
    assert {"analysis.energy_hardware", "trainer.train", "runtime.folded_forward",
            "runtime.unpack_ternary"} <= seen, seen


def test_bench_forward_calls_bind_to_network_forward():
    seen = set()
    for path in sorted(BENCH.glob("*.py")):
        for node, args, keywords in _forward_calls(path.read_text()):
            _bind(Network.forward, f"{path.name}:{node.lineno}", [None, *args], keywords)
            seen.add(ast.unparse(node))
    assert {"net.forward(xb, training=False)", "net.forward(xb, training=True)",
            "self._try(net.forward, xb, False)"} <= seen, seen


def test_every_layer_forward_takes_what_network_forward_passes():
    layers = importlib.import_module("tawq.layers")
    classes = [cls for cls in vars(layers).values()
               if isinstance(cls, type) and issubclass(cls, Layer)] + [FoldedBlock]
    calls = list(_forward_calls(textwrap.dedent(inspect.getsource(Network.forward))))
    assert len(calls) == 1, calls  # layer.forward(h), the training forward
    _, args, keywords = calls[0]
    for cls in classes:
        _bind(cls.forward, cls.__name__, [None, *args], keywords)


def _train_spied(monkeypatch, optimizer: str):
    """Train the three-layer net for two epochs with `trainer.clip_and_step`
    replaced by a spy; returns the number of steps `train` takes and, per
    spied call, each parameter's object before and after the call."""
    doc = three_layer_document(epochs=2)
    doc["train"].update(optimizer=optimizer, batch_size=100)
    doc["dataset"]["n_samples"] = 400  # 300 training samples: 3 steps an epoch
    cfg = parse_runconfig(doc)
    ds = build_dataset(cfg.dataset)
    net = build_network(cfg)
    original, calls = trainer.clip_and_step, []

    def spy(*args, **kwargs):
        before = {name: param for name, _, _, param in net.named_params()}
        out = original(*args, **kwargs)
        calls.append((before, {name: param for name, _, _, param in net.named_params()}))
        return out

    monkeypatch.setattr(trainer, "clip_and_step", spy)
    trainer.train(net, (ds.train_x, ds.train_y), (ds.test_x, ds.test_y), cfg.train)
    steps = -(-ds.train_x.shape[1] // cfg.train.batch_size) * cfg.train.epochs
    return steps, calls


def test_train_steps_through_the_module_global(monkeypatch):
    steps, calls = _train_spied(monkeypatch, "adamw")
    assert steps == 6 and len(calls) == steps


@pytest.mark.parametrize("optimizer", ["sgd", "adamw"])
def test_every_step_replaces_every_parameter(monkeypatch, optimizer):
    _, calls = _train_spied(monkeypatch, optimizer)
    for before, after in calls:
        assert before.keys() == after.keys()
        assert all(after[name] is not before[name] for name in before)
