"""Entropy, energy, hardware read/write, and firing-rate analysis."""

import math

import numpy as np
import pytest

from conftest import conv_document, random_simplex
from tawq.analysis import (
    E_AC_PJ,
    E_MAC_PJ,
    HardwareLayer,
    LayerOps,
    count_sops,
    energy_hardware,
    energy_total,
    entropy_report,
    firing_rate_stats,
    hardware_layers,
    weight_entropy,
)
from tawq.errors import DataError, ShapeError


def entropy_of(p):
    return -sum(q * math.log(q) for q in p if q > 0)


class TestEntropy:
    def test_uniform_thirds_is_maximum(self):
        w = np.array([1, 0, -1] * 100)
        row = weight_entropy(w)
        assert abs(row.entropy - 1.0986) <= 1e-4
        assert abs(row.entropy - math.log(3)) <= 1e-12

    def test_degenerate_distribution(self):
        assert weight_entropy(np.ones(50)).entropy == 0.0

    def test_two_outcome_case(self):
        w = np.array([1, 0] * 10)
        assert abs(weight_entropy(w).entropy - math.log(2)) <= 1e-12

    def test_probabilities_close_on_simplex(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            w = rng.integers(-1, 2, size=300)
            row = weight_entropy(w)
            assert abs(row.p_p + row.p_z + row.p_n - 1.0) <= 1e-12
            assert 0.0 <= row.entropy <= math.log(3) + 1e-9

    def test_maximum_is_unique(self):
        rng = np.random.default_rng(52)
        pts = random_simplex(rng, 1500)
        pts = pts[np.max(np.abs(pts - 1.0 / 3.0), axis=1) > 1e-3]
        assert len(pts) >= 1000
        for p in pts:
            assert entropy_of(p) < math.log(3)

    def test_empty_tensor_rejected(self):
        with pytest.raises(ShapeError):
            weight_entropy(np.array([]))

    def test_report_of_full_precision_net_is_empty(self):
        # a float baseline has no weight stacks: no rows, and mean 0.0
        report = entropy_report([{"kind": "linear"}])
        assert report.rows == [] and report.mean_entropy == 0.0


def _linear_trace(kind, x, y, w_q=None, weight_shape=None):
    t = {"kind": kind, "input": x, "output": y}
    if w_q is not None:
        t["w_q"] = w_q
    if weight_shape is not None:
        t["weight_shape"] = weight_shape
    return t


class TestSops:
    def test_direct_formula_substitution(self):
        # fr=1, TOPs = 64*10 = 640, sr=0.5, T=1 -> SOPs = 640*0.5/64 = 5
        x = np.ones((1, 2, 64))
        y = np.zeros((1, 2, 10))
        w_q = np.zeros((1, 10, 64))
        w_q[0, :, ::2] = 1.0
        rows = count_sops([_linear_trace("qlinear", x, y, w_q=w_q)])
        assert rows[0].sops == 5.0
        assert rows[0].flops_float == 0.0

    def test_silent_layer(self):
        x = np.zeros((2, 3, 8))
        w_q = np.ones((2, 4, 8))
        rows = count_sops([_linear_trace("qlinear", x, np.zeros((2, 3, 4)), w_q=w_q)])
        assert rows[0].sops == 0.0

    def test_float_layer_counts_macs(self):
        x = np.ones((1, 2, 100))
        y = np.zeros((1, 2, 10))
        rows = count_sops([_linear_trace("linear", x, y)])
        assert rows[0].flops_float == 1000.0
        assert rows[0].sops == 0.0

    def test_monotonic_in_firing_rate(self):
        w_q = np.ones((1, 4, 10))
        y = np.zeros((1, 1, 4))
        prev = -1.0
        for active in range(11):
            x = np.zeros((1, 1, 10))
            x[0, 0, :active] = 1.0
            rows = count_sops([_linear_trace("qlinear", x, y, w_q=w_q)])
            assert rows[0].sops >= prev
            prev = rows[0].sops


class TestEnergyTotals:
    def test_arithmetic_example(self):
        layers = [LayerOps("a", False, 0, [], [], flops_float=1000.0),
                  LayerOps("b", True, 0, [], [], sops=10000.0)]
        report = energy_total(layers)
        assert report.e_total_pj == E_MAC_PJ * 1000.0 + E_AC_PJ * 10000.0
        assert abs(report.e_total_pj - 13600.0) < 1e-9

    def test_all_silent_is_zero(self):
        assert energy_total([LayerOps("a", True, 0, [], [])]).e_total_pj == 0.0

    def test_linearity_in_sops(self):
        one = energy_total([LayerOps("a", True, 0, [], [], sops=7.0)])
        two = energy_total([LayerOps("a", True, 0, [], [], sops=14.0)])
        assert two.e_ac_pj == 2.0 * one.e_ac_pj

    def test_constants(self):
        assert E_MAC_PJ == 4.6
        assert E_AC_PJ == 0.9

    def test_dense_layer_closed_form(self):
        # sr=1, fr=1, linear 20 -> 8, T=2: SOPs = 2 * 160/64 = 5
        x = np.ones((2, 1, 20))
        y = np.zeros((2, 1, 8))
        w_q = np.ones((2, 8, 20))
        rows = count_sops([_linear_trace("qlinear", x, y, w_q=w_q)])
        assert rows[0].sops == 5.0
        assert energy_total(rows).e_total_pj == 0.9 * 5.0


class TestHardwareEnergy:
    def test_weight_read_ratio_quarter(self):
        quant = HardwareLayer("q", n_rd=1000, weight_bits=2, act_bits=1)
        byte8 = HardwareLayer("f", n_rd=1000, weight_bits=8, act_bits=1)
        rq = energy_hardware([quant], timesteps=4)
        r8 = energy_hardware([byte8], timesteps=4)
        assert rq.weight_read / r8.weight_read == 0.25

    def test_timestep_scaling(self):
        layer = HardwareLayer("q", n_rd=500)
        t1 = energy_hardware([layer], timesteps=1)
        t4 = energy_hardware([layer], timesteps=4)
        assert t4.weight_read == 4.0 * t1.weight_read
        assert t4.activation_read == 4.0 * t1.activation_read

    def test_writes_mirror_reads(self):
        layer = HardwareLayer("q", n_rd=64, spatial=9)
        r = energy_hardware([layer], timesteps=2)
        assert r.write == r.weight_read + r.activation_read
        assert r.total == 2.0 * (r.weight_read + r.activation_read)

    def test_spatial_multiplies_activation_only(self):
        a = energy_hardware([HardwareLayer("q", n_rd=10, spatial=1)], 1)
        b = energy_hardware([HardwareLayer("q", n_rd=10, spatial=3)], 1)
        assert b.weight_read == a.weight_read
        assert b.activation_read == 3.0 * a.activation_read


class TestHardwareLayers:
    def test_conv_network_descriptors(self):
        from tawq.runconfig import build_network, parse_runconfig
        net = build_network(parse_runconfig(conv_document()))
        net.forward((np.random.default_rng(3).random((4, 5, 2, 6, 6)) < 0.5) * 1.0)
        assert hardware_layers(net.traces()) == [
            # the 8-bit input layer, over 6x6 output positions
            HardwareLayer("0.conv", n_rd=6 * 2 * 9, spatial=36, weight_bits=8, act_bits=8),
            # 2-bit ternary kernels, one timestep's worth, on spikes
            HardwareLayer("4.qconv", n_rd=4 * 6 * 9, spatial=9, weight_bits=2, act_bits=1),
            HardwareLayer("8.linear", n_rd=2 * 36, spatial=1, weight_bits=8, act_bits=1),
        ]

    def test_quantized_input_layer_reads_8bit_activations(self):
        from tawq.layers import LIF, BatchNorm, Linear, Network, QuantLinear
        from tawq.quantizer import QuantConfig
        net = Network([QuantLinear(3, 4, QuantConfig(timesteps=2)), BatchNorm(4), LIF(),
                       Linear(4, 2)])
        net.forward(np.random.default_rng(4).random((2, 5, 3)))
        assert hardware_layers(net.traces()) == [
            # layer 0 reads the raw input, whatever its weights
            HardwareLayer("0.qlinear", n_rd=4 * 3, spatial=1, weight_bits=2, act_bits=8),
            HardwareLayer("3.linear", n_rd=2 * 4, spatial=1, weight_bits=8, act_bits=1),
        ]


    def test_multibit_layer_reads_8bit_weights(self):
        # only ternary stacks are stored 2-bit packed; n_level 3 is stored int64
        from tawq.runconfig import build_network, default_xor_document, parse_runconfig
        widths = []
        for n_level in (1, 3):
            doc = default_xor_document(hidden=8)
            doc["quant"]["n_level"] = n_level
            net = build_network(parse_runconfig(doc))
            net.forward((np.random.default_rng(5).random((4, 6, 2)) < 0.5) * 1.0)
            widths.append([(l.name, l.weight_bits) for l in hardware_layers(net.traces())])
        assert widths == [[("0.linear", 8), ("3.qlinear", 2)],
                          [("0.linear", 8), ("3.qlinear", 8)]]


class TestWeightCount:
    """count_sops and hardware_layers read a layer's weight count from one
    rule: the weight stack, else the weight shape, else (linear only) the
    (out, in) widths."""

    def test_conv_without_weight_shape_refused_by_both(self):
        t = {"kind": "conv", "input": np.ones((1, 2, 3, 6, 6)),
             "output": np.zeros((1, 2, 4, 6, 6))}
        for analyse in (count_sops, hardware_layers):
            with pytest.raises(DataError, match="layer 0: missing weight shape"):
                analyse([t])

    def test_linear_without_weight_shape_counts_out_times_in(self):
        t = _linear_trace("linear", np.ones((1, 2, 100)), np.zeros((1, 2, 10)))
        assert count_sops([t])[0].tops_per_t == 100 * 10
        assert hardware_layers([t])[0].n_rd == 100 * 10


class TestFiringRates:
    def _lif_trace(self, out):
        return {"kind": "lif", "input": out, "output": out}

    def test_mean_rate(self):
        out = np.zeros((2, 1, 4))
        out[0, 0, :2] = 1.0
        stats = firing_rate_stats([self._lif_trace(out)])
        assert abs(stats.mean_rate - 0.25) < 1e-12

    def test_no_spiking_layers_give_empty_rates(self):
        stats = firing_rate_stats([{"kind": "linear", "output": np.ones((1, 1, 1))}])
        assert stats.rates == [] and stats.mean_rate == 0.0
