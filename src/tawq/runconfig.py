"""Declarative run configuration: a strict-schema YAML/JSON document that
fully determines a training or inference run."""

from __future__ import annotations

import dataclasses

import numpy as np
import yaml

from .data import DatasetSpec
from .errors import ConfigError
from .layers import (
    LIF,
    AvgPool2d,
    BatchNorm,
    Conv2d,
    Flatten,
    Layer,
    LifConfig,
    Linear,
    Network,
    QuantConv2d,
    QuantLinear,
)
from .quantizer import QuantConfig
from .trainer import TrainConfig

_LAYER_FIELDS = {
    "linear": {"kind", "in", "out", "bias"},
    "qlinear": {"kind", "in", "out"},
    "conv": {"kind", "in", "out", "kernel", "stride", "padding"},
    "qconv": {"kind", "in", "out", "kernel", "stride", "padding"},
    "lif": {"kind"},
    "bn": {"kind", "channels"},
    "pool": {"kind", "kernel"},
    "flatten": {"kind"},
}
# the keys a layer may leave out; every other key of its kind is required
_OPTIONAL_FIELDS = {"bias", "stride", "padding"}
# the least value of each integer size a layer may carry
_SIZE_MIN = {"in": 1, "out": 1, "channels": 1, "kernel": 1, "stride": 1, "padding": 0}


def _check_keys(section: str, doc: dict, allowed: set[str]) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"{section}: unknown key(s) {sorted(unknown)}")


def _build_dataclass(cls, doc: dict, section: str):
    fields = {f.name for f in dataclasses.fields(cls)}
    _check_keys(section, doc, fields)
    try:
        return cls(**doc)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


@dataclasses.dataclass
class RunConfig:
    network: list[dict]
    quant: QuantConfig
    train: TrainConfig
    lif: LifConfig
    dataset: DatasetSpec
    checkpoint_path: str = "tawq.ckpt"
    metrics_path: str = "metrics.jsonl"

    def to_dict(self) -> dict:
        return {
            "network": self.network,
            "quant": dataclasses.asdict(self.quant),
            "train": dataclasses.asdict(self.train),
            "lif": dataclasses.asdict(self.lif),
            "dataset": dataclasses.asdict(self.dataset),
            "output": {"checkpoint": self.checkpoint_path,
                       "metrics": self.metrics_path},
        }


TOP_KEYS = {"network", "quant", "train", "lif", "dataset", "output"}


def parse_runconfig(doc: dict) -> RunConfig:
    """Validate a parsed document; unknown keys are rejected with their path."""
    if not isinstance(doc, dict):
        raise ConfigError("run configuration must be a mapping")
    _check_keys("document", doc, TOP_KEYS)
    if "network" not in doc or not isinstance(doc["network"], list) or not doc["network"]:
        raise ConfigError("network: required non-empty layer list")
    for i, spec in enumerate(doc["network"]):
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigError(f"network[{i}]: each layer needs a 'kind'")
        kind = spec["kind"]
        if kind not in _LAYER_FIELDS:
            raise ConfigError(f"network[{i}].kind: unknown layer kind {kind!r}")
        _check_keys(f"network[{i}]", spec, _LAYER_FIELDS[kind])
        missing = _LAYER_FIELDS[kind] - _OPTIONAL_FIELDS - set(spec)
        if missing:
            raise ConfigError(f"network[{i}]: missing key(s) {sorted(missing)}")
        for key, low in _SIZE_MIN.items():
            if key in spec and not (type(spec[key]) is int and spec[key] >= low):
                raise ConfigError(f"network[{i}].{key}: must be an integer >= {low}, "
                                  f"got {spec[key]!r}")
    # field renames between the document and the dataclasses
    quant_doc = dict(doc.get("quant", {}))
    if "lambda" in quant_doc:
        if "lam" in quant_doc:
            raise ConfigError("quant: give 'lambda' or 'lam', not both")
        quant_doc["lam"] = quant_doc.pop("lambda")
    quant = _build_dataclass(QuantConfig, quant_doc, "quant")
    train = _build_dataclass(TrainConfig, dict(doc.get("train", {})), "train")
    lif = _build_dataclass(LifConfig, dict(doc.get("lif", {})), "lif")
    dataset = _build_dataclass(DatasetSpec, dict(doc.get("dataset", {})), "dataset")
    out = dict(doc.get("output", {}))
    _check_keys("output", out, {"checkpoint", "metrics"})
    if dataset.timesteps != quant.timesteps:
        raise ConfigError(
            f"dataset.timesteps ({dataset.timesteps}) must equal "
            f"quant.timesteps ({quant.timesteps})")
    paths = {f"{key}_path": path for key, path in out.items()}  # absent: the field default
    return RunConfig(network=doc["network"], quant=quant, train=train, lif=lif,
                     dataset=dataset, **paths)


def default_xor_document(hidden: int = 24, quantized: bool = True,
                         timesteps: int = 4, seed: int = 0) -> dict:
    """Reference two-layer temporal-XOR run: float input layer + BN + LIF
    feeding a (optionally quantized) linear head."""
    head = {"kind": "qlinear" if quantized else "linear", "in": hidden, "out": 2}
    return {
        "network": [
            {"kind": "linear", "in": 2, "out": hidden},
            {"kind": "bn", "channels": hidden},
            {"kind": "lif"},
            head,
        ],
        "quant": {"timesteps": timesteps},
        "train": {"lr": 0.05, "optimizer": "adamw", "lr_schedule": "cosine",
                  "epochs": 50, "batch_size": 64, "seed": seed},
        "lif": {},
        "dataset": {"kind": "synthetic-temporal-xor", "n_samples": 512,
                    "timesteps": timesteps, "noise": 0.0, "seed": seed},
    }


def load_runconfig(path: str) -> RunConfig:
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return parse_runconfig(doc)


def build_network(cfg: RunConfig) -> Network:
    """Instantiate layers from the declarative topology.

    Each layer gets a seed derived from the training seed and its index so
    initialization is reproducible layer by layer.  Every quantized layer
    must be followed (possibly after a bn) by a spiking nonlinearity
    unless it is the output head.
    """
    layers: list[Layer] = []
    specs = cfg.network
    for i, spec in enumerate(specs):
        rng = np.random.default_rng((cfg.train.seed, i))
        kind = spec["kind"]
        if kind == "linear":
            layers.append(Linear(spec["in"], spec["out"],
                                 bias=spec.get("bias", True), rng=rng))
        elif kind == "qlinear":
            layers.append(QuantLinear(spec["in"], spec["out"], cfg.quant, rng=rng))
        elif kind == "conv":
            layers.append(Conv2d(spec["in"], spec["out"], spec["kernel"],
                                 stride=spec.get("stride", 1),
                                 padding=spec.get("padding", 0), rng=rng))
        elif kind == "qconv":
            layers.append(QuantConv2d(spec["in"], spec["out"], spec["kernel"],
                                      cfg.quant, stride=spec.get("stride", 1),
                                      padding=spec.get("padding", 0), rng=rng))
        elif kind == "lif":
            layers.append(LIF(cfg.lif))
        elif kind == "bn":
            layers.append(BatchNorm(spec["channels"]))
        elif kind == "pool":
            layers.append(AvgPool2d(spec["kernel"]))
        elif kind == "flatten":
            layers.append(Flatten())
    for i, spec in enumerate(specs[:-1]):
        if spec["kind"] in ("qlinear", "qconv"):
            follow = [s["kind"] for s in specs[i + 1:i + 3]]
            if follow and follow[0] != "lif" and not (
                    follow[0] == "bn" and len(follow) > 1 and follow[1] == "lif"):
                raise ConfigError(
                    f"network[{i}]: quantized layer must feed a spiking "
                    "nonlinearity (optionally through bn) unless it is the head")
    return Network(layers)
