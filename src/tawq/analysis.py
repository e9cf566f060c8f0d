"""Post-hoc metrics: quantized-weight entropy, the SOPs/energy model, the
hardware read/write energy model, and firing-rate statistics.

Energy constants follow the 45 nm measurements commonly adopted in the
SNN literature: 4.6 pJ per 32-bit multiply-accumulate and 0.9 pJ per
32-bit accumulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ShapeError

E_MAC_PJ = 4.6
E_AC_PJ = 0.9

# layer kinds that carry weights, and so synaptic operations
WEIGHTED_KINDS = ("linear", "qlinear", "conv", "qconv")


@dataclass
class EntropyRow:
    name: str
    p_p: float
    p_z: float
    p_n: float
    entropy: float


@dataclass
class EntropyReport:
    rows: list[EntropyRow]
    mean_entropy: float = field(init=False)

    def __post_init__(self) -> None:
        self.mean_entropy = (float(np.mean([r.entropy for r in self.rows]))
                             if self.rows else 0.0)


def weight_entropy(w_q: np.ndarray, name: str = "") -> EntropyRow:
    """Empirical {+1, 0, -1} probabilities and entropy in nats (0*ln0 = 0)."""
    w = np.asarray(w_q)
    if w.size == 0:
        raise ShapeError("cannot compute entropy of an empty weight tensor")
    p_p = float((w > 0).mean())
    p_n = float((w < 0).mean())
    p_z = float((w == 0).mean())
    h = -sum(p * math.log(p) for p in (p_p, p_z, p_n) if p > 0.0)
    return EntropyRow(name=name, p_p=p_p, p_z=p_z, p_n=p_n, entropy=h)


def entropy_report(traces: list[dict]) -> EntropyReport:
    """Entropy of every quantized layer's weights; empty, with mean 0.0, for
    a full-precision network."""
    return EntropyReport([weight_entropy(t["w_q"], name=f"{i}.{t['kind']}")
                          for i, t in enumerate(traces) if "w_q" in t])


@dataclass
class LayerOps:
    """Per-layer operation counts (per sample, summed over timesteps)."""

    name: str
    quantized: bool
    tops_per_t: float           # MAC-equivalent op count of one timestep
    firing_rate: list[float]    # input activity fraction per timestep
    synapse_ratio: list[float]  # nonzero-weight fraction per timestep (quantized only)
    sops: float = 0.0           # AC pool, BOPs/64 convention
    flops_float: float = 0.0    # MAC pool


@dataclass
class EnergyReport:
    layers: list[LayerOps]
    e_mac_pj: float = field(init=False)
    e_ac_pj: float = field(init=False)
    e_total_pj: float = field(init=False)

    def __post_init__(self) -> None:
        self.e_mac_pj = E_MAC_PJ * sum(l.flops_float for l in self.layers)
        self.e_ac_pj = E_AC_PJ * sum(l.sops for l in self.layers)
        self.e_total_pj = self.e_mac_pj + self.e_ac_pj


def _weight_count(i: int, t: dict) -> int:
    """Weights one timestep of layer `i` reads: from its weight stack, else
    its weight shape, else (linear kinds only) its (out, in) widths."""
    if "w_q" in t:
        shape = t["w_q"].shape[1:]
    elif "weight_shape" in t:
        shape = t["weight_shape"]
    elif t["kind"] in ("linear", "qlinear"):
        shape = (t["output"].shape[2], t["input"].shape[2])
    else:
        raise DataError(f"layer {i}: missing weight shape for conv op count")
    return math.prod(shape)


def count_sops(traces: list[dict]) -> list[LayerOps]:
    """Operation counts for every weighted layer in a forward trace.

    Firing rate is the fraction of active positions at the layer INPUT:
    synaptic work is gated by incoming spikes.  Quantized layers convert
    ternary ops to binary-op equivalents via the synapse ratio, then to
    MAC-equivalents with the /64 rule; their float op count is zero.
    """
    rows = []
    for i, t in enumerate(traces):
        if t["kind"] not in WEIGHTED_KINDS:
            continue
        x = t["input"]
        quantized = "w_q" in t
        tops = float(_weight_count(i, t) * math.prod(t["output"].shape[3:]))
        timesteps = x.shape[0]
        fr = [float((x[ts] != 0).mean()) for ts in range(timesteps)]
        row = LayerOps(name=f"{i}.{t['kind']}", quantized=quantized,
                       tops_per_t=tops, firing_rate=fr, synapse_ratio=[])
        if quantized:
            w_q = t["w_q"]
            row.synapse_ratio = [float((w_q[ts] != 0).mean()) for ts in range(timesteps)]
            row.sops = sum(fr[ts] * (row.synapse_ratio[ts] * tops) / 64.0
                           for ts in range(timesteps))
        else:
            row.flops_float = sum(fr[ts] * tops for ts in range(timesteps))
        rows.append(row)
    return rows


def energy_total(layers: list[LayerOps]) -> EnergyReport:
    """E = E_MAC * sum(float FLOPs) + E_AC * sum(SOPs), in picojoules."""
    return EnergyReport(layers=layers)


@dataclass
class HardwareLayer:
    """Descriptor for the read/write hardware energy model."""

    name: str
    n_rd: int                 # weight count C_o * C_i * k_h * k_w
    spatial: int = 1          # output feature positions H' * W' (1 for linear)
    weight_bits: int = 2      # 2 for packed ternary, 8 otherwise
    act_bits: int = 1         # 1 for spikes (packed 8/word), 8 for the input layer


def hardware_layers(traces: list[dict]) -> list[HardwareLayer]:
    """Read/write descriptors of every weighted layer in a forward trace.

    Ternary layers read 2-bit packed weights; float and multi-bit layers,
    whose weights are not packed, read 8-bit weights.  The layer at index 0
    reads the raw input as 8-bit activations; every other layer reads spikes.
    """
    rows = []
    for i, t in enumerate(traces):
        if t["kind"] not in WEIGHTED_KINDS:
            continue
        bits = 2 if t.get("n_level") == 1 else 8
        act = 8 if i == 0 else 1
        spatial = math.prod(t["output"].shape[3:])  # 1 for (T, B, C) outputs
        rows.append(HardwareLayer(name=f"{i}.{t['kind']}", n_rd=_weight_count(i, t),
                                  spatial=spatial, weight_bits=bits, act_bits=act))
    return rows


@dataclass
class HardwareEnergyReport:
    """Totals over all layers, in units of E_rd, one 8-bit read."""

    weight_read: float
    activation_read: float
    write: float

    @property
    def total(self) -> float:
        return self.weight_read + self.activation_read + self.write


def energy_hardware(layers: list[HardwareLayer], timesteps: int) -> HardwareEnergyReport:
    """Read/write energy with 2-bit weight packing and 8-spikes-per-word
    activation packing, in E_rd units.

    Per weight, one read costs 1/4 at 2-bit and 1 at 8-bit; per
    activation, 1/8 for packed spikes and 1 for 8-bit values.
    Weight reads repeat every timestep; activation traffic additionally
    scales with the output feature positions.  Writes mirror reads.
    """
    weight_read = activation_read = write = 0
    for l in layers:
        w = l.n_rd * (0.25 if l.weight_bits == 2 else 1.0) * timesteps
        a = l.n_rd * (0.125 if l.act_bits == 1 else 1.0) * timesteps * l.spatial
        weight_read += w
        activation_read += a
        write += w + a
    return HardwareEnergyReport(weight_read, activation_read, write)


@dataclass
class FiringRateStats:
    rates: list[list[float]]          # per LIF layer, per timestep
    mean_rate: float


def firing_rate_stats(traces: list[dict]) -> FiringRateStats:
    """Mean spike rates of every LIF layer; empty, with mean 0.0, for a
    network with none."""
    rates = [[float(t["output"][ts].mean()) for ts in range(t["output"].shape[0])]
             for t in traces if t["kind"] == "lif"]
    return FiringRateStats(rates, float(np.concatenate(rates).mean()) if rates else 0.0)
