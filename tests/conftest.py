"""Shared builders and pytest hooks for the test suite."""

from __future__ import annotations

import platform

import numpy as np
import pytest

from tawq.data import DatasetSpec, build_dataset
from tawq.layers import LIF
from tawq.runconfig import build_network, default_xor_document, parse_runconfig
from tawq.trainer import train


def environment_line() -> str:
    """Python's and numpy's versions and numpy's BLAS: what the bitwise
    tests' expected bits depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # a numpy without this build report
        blas = "unknown"
    return f"python {platform.python_version()}, numpy {np.__version__}, blas {blas}"


def pytest_report_header(config):
    return environment_line()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """On a failed run, the environment line, which -q leaves out of the header."""
    if exitstatus != pytest.ExitCode.OK:
        terminalreporter.write_line(environment_line())


def three_layer_document(seed: int = 0, epochs: int = 50) -> dict:
    """Temporal-XOR run with a quantized 16x16 hidden layer between two
    float layers.  Used wherever a trained qlinear+bn+lif block is needed."""
    doc = default_xor_document(seed=seed)
    doc["network"] = [
        {"kind": "linear", "in": 2, "out": 16},
        {"kind": "bn", "channels": 16},
        {"kind": "lif"},
        {"kind": "qlinear", "in": 16, "out": 16},
        {"kind": "bn", "channels": 16},
        {"kind": "lif"},
        {"kind": "linear", "in": 16, "out": 2},
    ]
    doc["train"]["epochs"] = epochs
    return doc


def conv_document(seed: int = 0) -> dict:
    """Small spiking conv net on (T, B, 2, 6, 6) inputs:
    conv -> bn -> lif -> pool -> qconv -> bn -> lif -> flatten -> linear."""
    doc = default_xor_document(seed=seed)
    doc["network"] = [
        {"kind": "conv", "in": 2, "out": 6, "kernel": 3, "padding": 1},
        {"kind": "bn", "channels": 6},
        {"kind": "lif"},
        {"kind": "pool", "kernel": 2},
        {"kind": "qconv", "in": 6, "out": 4, "kernel": 3, "padding": 1},
        {"kind": "bn", "channels": 4},
        {"kind": "lif"},
        {"kind": "flatten"},
        {"kind": "linear", "in": 36, "out": 2},
    ]
    return doc


def run_document(doc: dict):
    """Build dataset + network from a parsed document and train; returns
    (network, dataset, metrics)."""
    cfg = parse_runconfig(doc)
    ds = build_dataset(cfg.dataset)
    net = build_network(cfg)
    metrics = train(net, (ds.train_x, ds.train_y), (ds.test_x, ds.test_y), cfg.train)
    return net, ds, metrics


def random_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points drawn uniformly from the 2-simplex."""
    e = rng.exponential(size=(n, 3))
    return e / e.sum(axis=1, keepdims=True)


def lif_formula(x, cfg, relaxed):
    """The LIF forward as its plain formula over time: the spikes, hard or
    (relaxed) the surrogate sigmoid of U[t] - v_threshold, and the
    membranes U[t] before reset."""
    decay, k = 1.0 - 1.0 / cfg.tau, cfg.sg_scale_neuron
    u = np.zeros(x.shape[1:])
    us, ss = np.empty_like(x), np.empty_like(x)
    for t in range(x.shape[0]):
        u = decay * u + x[t] / cfg.tau
        if relaxed:
            s = 1.0 / (1.0 + np.exp(-(k * (u - cfg.v_threshold))))
        else:
            s = (u >= cfg.v_threshold).astype(np.float64)
        us[t], ss[t] = u, s
        u = cfg.v_reset * s + u * (1.0 - s)
    return ss, us


class RelaxedLIF(LIF):
    """A LIF whose spike is the surrogate sigmoid, so the forward is smooth
    and finite differences can check the gradient.  It caches what
    `LIF.backward` reads, so that backward is the library's own."""

    def forward(self, x):
        ss, us = lif_formula(x, self.cfg, relaxed=True)
        self.cache = {"x": x, "y": ss, "u": us}
        return ss


class WriteSpy:
    """Stands in for the file the checkpoint writer opens: `before(i)` runs
    before the i-th part is handed to the file, however it is handed."""

    def __init__(self, fh, before):
        self.fh, self.before, self.parts = fh, before, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, part):
        self.before(self.parts)
        self.parts += 1
        return self.fh.write(part)

    def writelines(self, parts):
        for part in parts:
            self.write(part)

    def __getattr__(self, name):
        return getattr(self.fh, name)


def spy_writes(monkeypatch, before) -> None:
    def spying_open(*args, **kwargs):
        return WriteSpy(open(*args, **kwargs), before)

    monkeypatch.setattr("tawq.checkpoint.open", spying_open, raising=False)
