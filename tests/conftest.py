"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from tawq.data import DatasetSpec, build_dataset
from tawq.runconfig import build_network, default_xor_document, parse_runconfig
from tawq.trainer import train


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
