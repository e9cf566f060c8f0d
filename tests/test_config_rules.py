"""The run document's rules, each stated once: the range rules of the config
dataclasses and the layer table that `build_network` builds from."""

import dataclasses

import numpy as np
import pytest

from conftest import conv_document
from tawq.data import DatasetSpec
from tawq.errors import ConfigError, require
from tawq.layers import LIF, AvgPool2d, BatchNorm, Conv2d, Flatten, Linear, LifConfig, QuantConv2d
from tawq.quantizer import QuantConfig
from tawq.runconfig import build_network, parse_runconfig
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
