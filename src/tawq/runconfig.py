"""Declarative run configuration: a strict-schema YAML/JSON document that
fully determines a training or inference run.  `parse_runconfig` judges
every rule that needs no file, so `build_network` only builds; one table,
`_LAYERS`, gives both each layer kind's class and keys.  `_SECTIONS`
lists the dataclass sections once, for the parser, `TOP_KEYS` and
`RunConfig.to_dict`."""

from __future__ import annotations

import dataclasses

import numpy as np
import yaml

from .data import DatasetSpec
from .errors import ConfigError, refuse_unread
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
    QuantizedLayer,
    QuantLinear,
    WeightedLayer,
)
from .quantizer import QuantConfig
from .trainer import TrainConfig

# kind -> (layer class, required keys in constructor order, optional keys);
# a left-out optional key takes the constructor's default
_LAYERS = {
    "linear": (Linear, ("in", "out"), ("bias",)),
    "qlinear": (QuantLinear, ("in", "out"), ()),
    "conv": (Conv2d, ("in", "out", "kernel"), ("stride", "padding")),
    "qconv": (QuantConv2d, ("in", "out", "kernel"), ("stride", "padding")),
    "lif": (LIF, (), ()),
    "bn": (BatchNorm, ("channels",), ()),
    "pool": (AvgPool2d, ("kernel",), ()),
    "flatten": (Flatten, (), ()),
}
# the least value of each integer size a layer may carry
_SIZE_MIN = {"in": 1, "out": 1, "channels": 1, "kernel": 1, "stride": 1, "padding": 0}
# the value types a dataclass field's annotation admits; a bool is no number
_FIELD_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,),
                "str | None": (str, type(None))}


def _check_keys(section: str, doc: dict, allowed: set[str]) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"{section}: unknown key(s) {sorted(unknown, key=str)}")


def _section(doc: dict, section: str) -> dict:
    """A copy of the document's `section`, empty if absent."""
    value = doc.get(section, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{section}: must be a mapping, got {value!r}")
    return dict(value)


def _build_dataclass(cls, doc: dict, section: str):
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    _check_keys(section, doc, set(fields))
    for key, value in doc.items():
        types = _FIELD_TYPES[fields[key]]
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            raise ConfigError(f"{section}.{key}: must be of type {fields[key]}, "
                              f"got {value!r}")
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
        return {"network": self.network,
                **{name: dataclasses.asdict(getattr(self, name)) for name in _SECTIONS},
                "output": {"checkpoint": self.checkpoint_path, "metrics": self.metrics_path}}


# the document's dataclass sections, in the order a parse checks them
_SECTIONS = {"quant": QuantConfig, "train": TrainConfig, "lif": LifConfig, "dataset": DatasetSpec}
TOP_KEYS = {"network", *_SECTIONS, "output"}


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
        if not isinstance(kind, str) or kind not in _LAYERS:  # a list is unhashable
            raise ConfigError(f"network[{i}].kind: unknown layer kind {kind!r}")
        _, required, optional = _LAYERS[kind]
        _check_keys(f"network[{i}]", spec, {"kind", *required, *optional})
        missing = set(required) - set(spec)
        if missing:
            raise ConfigError(f"network[{i}]: missing key(s) {sorted(missing)}")
        for key, low in _SIZE_MIN.items():
            if key in spec and not (type(spec[key]) is int and spec[key] >= low):
                raise ConfigError(f"network[{i}].{key}: must be an integer >= {low}, "
                                  f"got {spec[key]!r}")
        if "bias" in spec and type(spec["bias"]) is not bool:
            raise ConfigError(f"network[{i}].bias: must be true or false, "
                              f"got {spec['bias']!r}")
    sections = {}
    for name, cls in _SECTIONS.items():
        fields = _section(doc, name)
        if name == "quant" and "lambda" in fields:  # the document's name for lam
            if "lam" in fields:
                raise ConfigError("quant: give 'lambda' or 'lam', not both")
            fields["lam"] = fields.pop("lambda")
        sections[name] = _build_dataclass(cls, fields, name)
    quant, dataset = sections["quant"], sections["dataset"]
    out = _section(doc, "output")
    _check_keys("output", out, {"checkpoint", "metrics"})
    for key, path in out.items():
        if not isinstance(path, str):  # open() would take an int as a file descriptor
            raise ConfigError(f"output.{key}: must be a file path, got {path!r}")
    if dataset.timesteps != quant.timesteps:
        raise ConfigError(
            f"dataset.timesteps ({dataset.timesteps}) must equal "
            f"quant.timesteps ({quant.timesteps})")
    kinds = [spec["kind"] for spec in doc["network"]]
    quantized = [issubclass(_LAYERS[kind][0], QuantizedLayer) for kind in kinds]
    if not any(quantized):  # timesteps is the one quant field such a network reads
        refuse_unread(quant, "by a network with no qlinear or qconv layer",
                      *(f.name for f in dataclasses.fields(quant) if f.name != "timesteps"))
    for i, kind in enumerate(kinds[:-1]):  # the head may feed nothing
        if quantized[i] and kinds[i + 1] != "lif" and kinds[i + 1:i + 3] != ["bn", "lif"]:
            raise ConfigError(f"network[{i}]: quantized layer must feed a spiking "
                              "nonlinearity (optionally through bn) unless it is the head")
    paths = {f"{key}_path": path for key, path in out.items()}  # absent: the field default
    return RunConfig(network=doc["network"], **sections, **paths)


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


class _UniqueKeyLoader(yaml.SafeLoader):
    """PyYAML's safe loader, refusing a mapping that names a key twice
    (a key may repeat one that a merge, `<<`, brings in)."""

    def compose_mapping_node(self, anchor):  # checked before a merge is flattened in
        node, seen = super().compose_mapping_node(anchor), {}
        for key in (k for k, _ in node.value if isinstance(k, yaml.ScalarNode)
                    and k.tag != "tag:yaml.org,2002:merge"):
            if seen.setdefault(self.construct_object(key), key) is not key:
                raise yaml.constructor.ConstructorError(
                    None, None, f"found duplicate key {key.value!r}", key.start_mark)
        return node


def load_runconfig(path: str) -> RunConfig:
    with open(path, "rb") as fh:  # PyYAML decodes, and refuses a bad byte
        try:
            doc = yaml.load(fh, Loader=_UniqueKeyLoader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    cfg = parse_runconfig(doc)
    # refused here rather than on every parse: a checkpoint of a run made
    # with --ablate-temporal echoes temporal false beside the document's lam
    if not cfg.quant.temporal:
        refuse_unread(cfg.quant, "by the memoryless quantizer (quant.temporal false)", "lam")
    return cfg


class _Undrawn:
    """A weighted layer's generator when its weight will be restored: the
    weight starts as zeros, and nothing is drawn."""

    @staticmethod
    def uniform(low, high, size):
        return np.zeros(size)


def build_network(cfg: RunConfig, draw: bool = True) -> Network:
    """Instantiate layers from the declarative topology.

    Each layer gets a seed derived from the training seed and its index so
    initialization is reproducible layer by layer.  With `draw` false no
    weight is drawn and each starts as zeros, for a caller that restores
    every parameter.
    """
    layers: list[Layer] = []
    for i, spec in enumerate(cfg.network):
        cls, required, optional = _LAYERS[spec["kind"]]
        args = [spec[key] for key in required]
        kwargs = {key: spec[key] for key in optional if key in spec}
        if issubclass(cls, QuantizedLayer):
            args.append(cfg.quant)
        elif cls is LIF:
            args.append(cfg.lif)
        if issubclass(cls, WeightedLayer):
            kwargs["rng"] = np.random.default_rng((cfg.train.seed, i)) if draw else _Undrawn
        layers.append(cls(*args, **kwargs))
    return Network(layers)
