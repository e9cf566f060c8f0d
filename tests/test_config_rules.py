"""The run document's rules, each stated once: the range rules of the config
dataclasses and the layer table that `build_network` builds from; and every
accepted config value has an effect."""

import copy
import dataclasses
import json
import re

import numpy as np
import pytest

from conftest import conv_document
from tawq.checkpoint import load_checkpoint
from tawq.cli import main
from tawq.data import DatasetSpec
from tawq.errors import ConfigError, require
from tawq.layers import LIF, AvgPool2d, BatchNorm, Conv2d, Flatten, Linear, LifConfig, QuantConv2d
from tawq.quantizer import PackedTernaryTensor, QuantConfig
from tawq.runconfig import _SECTIONS, build_network, default_xor_document, parse_runconfig
from tawq.trainer import TrainConfig

FLOAT_FIELDS = [(cls, f.name) for cls in (QuantConfig, LifConfig, TrainConfig, DatasetSpec)
                for f in dataclasses.fields(cls) if f.type == "float"]


def test_every_config_has_float_fields():
    assert {cls for cls, _ in FLOAT_FIELDS} == {QuantConfig, LifConfig, TrainConfig,
                                                DatasetSpec}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls,name", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
def test_float_field_refuses_non_finite(cls, name, value):
    with pytest.raises(ConfigError, match=rf"^{name} must be finite, got {value}$"):
        cls(**{name: value})


class TestRequire:
    @dataclasses.dataclass
    class Cfg:
        a: float = 1.0
        b: int = 2

    @pytest.mark.parametrize("a,message", [
        (0.0, "a must be positive, got 0.0"),
        (-1, "a must be positive, got -1"),
        (float("nan"), "a must be finite, got nan"),
        (float("-inf"), "a must be finite, got -inf"),
    ])
    def test_refusal_names_field_and_value(self, a, message):
        with pytest.raises(ConfigError, match=rf"^{message}$"):
            require(self.Cfg(a=a), "be positive", "b", "a")

    def test_accepts_values_in_range(self):
        require(self.Cfg(a=1e-300, b=10**400), "be positive", "a", "b")


def test_conv_document_builds_its_layers_from_the_table():
    # the same layers, built by hand with each weighted layer's seed (seed, index)
    cfg = parse_runconfig(conv_document())
    net = build_network(cfg)

    def rng(i):
        return np.random.default_rng((cfg.train.seed, i))

    expected = [Conv2d(2, 6, 3, padding=1, rng=rng(0)), BatchNorm(6), LIF(cfg.lif),
                AvgPool2d(2), QuantConv2d(6, 4, 3, cfg.quant, padding=1, rng=rng(4)),
                BatchNorm(4), LIF(cfg.lif), Flatten(), Linear(36, 2, rng=rng(8))]
    assert [type(layer) for layer in net.layers] == [type(layer) for layer in expected]
    for got, want in zip(net.layers, expected):
        assert got.params.keys() == want.params.keys()
        for name in want.params:
            assert np.array_equal(got.params[name], want.params[name])
        for attr in ("stride", "padding", "kernel_size", "channels", "quant", "cfg"):
            assert getattr(got, attr, None) == getattr(want, attr, None)


@pytest.mark.parametrize("sections,message", [
    ({"quant": {"c_th": -1}, "dataset": [1]}, "quant: c_th must be positive, got -1"),
    ({"train": 5, "lif": {"tau": 0.5}}, "train: must be a mapping, got 5"),
], ids=["field-before-later-mapping", "mapping-before-later-field"])
def test_sections_checked_in_order_each_mapping_just_before_its_fields(sections, message):
    # quant, train, lif, dataset: a section's mapping check, then its fields,
    # then the next section's
    doc = default_xor_document()
    doc.update(sections)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_runconfig(doc)


# section.field -> values to try; a run takes the first that differs from
# its context's own value.  A field with no entry fails the effect test.
EFFECT_VALUES = {
    "quant.lam": [0.7],
    "quant.c_th": [0.4],
    "quant.n_level": [2],
    "quant.timesteps": [5],
    "quant.epsilon": [1e-2],
    "quant.sg_scale": [2.0],
    "quant.sg_chain_factor": [True],
    "quant.temporal": [False],
    "train.lr": [0.02],
    "train.optimizer": ["adamw", "sgd"],
    "train.weight_decay": [0.01],
    "train.clip_norm": [0.01],  # small enough that the gradients reach it
    "train.epochs": [3],
    "train.batch_size": [32],
    "train.seed": [1],
    "train.lr_schedule": ["cosine", "constant"],
    "train.adam_beta1": [0.8],
    "train.adam_beta2": [0.99],
    "train.adam_eps": [1e-4],
    "lif.v_threshold": [0.8],
    "lif.v_reset": [-0.1],
    "lif.tau": [3.0],
    "lif.sg_scale_neuron": [2.0],
    "dataset.kind": ["synthetic-rate-patterns", "raster-grid"],
    "dataset.n_samples": [96],
    "dataset.timesteps": [5],
    "dataset.noise": [0.1],
    "dataset.seed": [1],
    "dataset.encoder": ["rate"],
    "dataset.n_classes": [2, 4],
    "dataset.n_features": [3],
    "dataset.path": ["grid.bin"],
    "dataset.test_fraction": [0.5],
}
# (context, field) -> the exit code of a value the network cannot take:
# the input layer is as wide as the feature count
BREAKS_NETWORK = {("rate", "dataset.n_features"): 3}


def _effect_contexts() -> dict:
    """The XOR reference net (hidden 8) under AdamW and a 3-class
    rate-pattern net under SGD, each 2 epochs on 128 samples."""
    xor = default_xor_document(hidden=8)
    xor["train"]["epochs"] = 2
    xor["dataset"]["n_samples"] = 128
    rate = default_xor_document(hidden=8)
    rate["network"][-1]["out"] = 3
    rate["train"] = {"epochs": 2}
    rate["dataset"] = {"kind": "synthetic-rate-patterns", "n_samples": 128,
                       "timesteps": 4, "n_classes": 3}
    return {"xor": xor, "rate": rate}


def _train_outputs(doc: dict, run_dir, capsys):
    """`tawq train` on `doc`: its exit code, its stderr, and the bytes of its
    metrics.jsonl and of its checkpoint's tensors.  The checkpoint's header
    echoes the document, so the header is left out."""
    run_dir.mkdir()
    doc = dict(doc, output={"checkpoint": str(run_dir / "run.ckpt"),
                            "metrics": str(run_dir / "metrics.jsonl")})
    (run_dir / "run.json").write_text(json.dumps(doc))
    code = main(["train", str(run_dir / "run.json")])
    err = capsys.readouterr().err
    if code:
        return code, err, None
    tensors = load_checkpoint(doc["output"]["checkpoint"]).tensors
    stored = [(name, t.codes if isinstance(t, PackedTernaryTensor) else t.tobytes())
              for name, t in sorted(tensors.items())]
    return code, err, ((run_dir / "metrics.jsonl").read_bytes(), stored)


def test_every_accepted_config_value_has_an_effect(tmp_path, capsys):
    # each field off its context's value, one at a time: the run exits 2
    # naming the field, or its metrics or stored tensors differ
    fields = [f"{section}.{f.name}" for section, cls in _SECTIONS.items()
              for f in dataclasses.fields(cls)]
    assert set(fields) == set(EFFECT_VALUES), set(fields) ^ set(EFFECT_VALUES)
    failures = []
    for context, doc in _effect_contexts().items():
        base = _train_outputs(doc, tmp_path / context, capsys)
        assert base[0] == 0, (context, base[1])
        cfg = parse_runconfig(doc)
        for field in fields:
            section, name = field.split(".")
            value = next(v for v in EFFECT_VALUES[field]
                         if v != getattr(getattr(cfg, section), name))
            run = copy.deepcopy(doc)
            run.setdefault(section, {})[name] = value
            code, err, outputs = _train_outputs(run, tmp_path / f"{context}-{field}", capsys)
            want_code = BREAKS_NETWORK.get((context, field))
            if want_code is not None:
                ok = code == want_code
            elif code == 2:
                ok = re.search(rf"\b{name}\b", err) is not None
            else:
                ok = code == 0 and outputs != base[2]
            if not ok:
                failures.append(f"{context}: {field}={value!r} exits {code}: {err.strip()}"
                                if code else f"{context}: {field}={value!r} has no effect")
    assert not failures, failures
