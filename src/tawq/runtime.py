"""Deployment-style inference.

Ternary weights are packed 2 bits each (4 per byte, little-endian lanes,
row-major element order) with the code map 00->0, 01->+1, 10->-1; 11 is
invalid.  A packed tensor is decoded once, on first use, into a read-only
{-1, 0, +1} float32 matrix cached on the tensor.  The accumulate of binary
spikes is then one float32 BLAS product with that matrix, exact while the
fan-in stays below 2^24; a larger fan-in is refused.  The per-channel
scale and the batch-norm affine are folded into the LIF charging path: a
folded block accumulates every timestep, then charges through the
training layer's own `layers.lif_charge`.  `FoldedBlock.replaces` names
the layers a block stands for, and is the one statement of the fold rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .layers import LifConfig, Network, layer_errors, lif_charge

CODE_INVALID = 0b11

# Every partial sum of a float32 accumulate is an integer of magnitude at
# most the fan-in, so it is exact below this fan-in.
MAX_FAN_IN = 1 << 24

# Byte -> the values of its 4 lanes, lane 0 in the low bits; the invalid
# code 0b11 decodes to the sentinel 2.
_INVALID_VALUE = 2
_BYTE_VALUES = np.array([0, 1, -1, _INVALID_VALUE], dtype=np.int8)[
    np.arange(256)[:, None] >> np.arange(0, 8, 2) & 0b11]


@dataclass(frozen=True)
class PackedTernaryTensor:
    codes: bytes
    shape: tuple[int, ...]

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The decoded weights as a read-only float32 array, decoded on
        first use and kept on this tensor."""
        w = unpack_ternary(self).astype(np.float32)
        w.flags.writeable = False
        return w


def pack_ternary(w_q: np.ndarray) -> PackedTernaryTensor:
    """Lossless 2-bit encoding of a {-1, 0, +1} tensor."""
    w = np.asarray(w_q)
    flat = w.ravel()
    pos, neg = flat == 1, flat == -1
    valid = pos | neg | (flat == 0)
    if not valid.all():
        raise DataError(f"out-of-range ternary entry {flat[~valid][0]!r}")
    codes2 = pos.view(np.uint8) | neg.view(np.uint8) << 1
    pad = (-flat.size) % 4
    if pad:
        codes2 = np.concatenate([codes2, np.zeros(pad, dtype=np.uint8)])
    lanes = codes2.reshape(-1, 4)
    packed = lanes[:, 0] | (lanes[:, 1] << 2) | (lanes[:, 2] << 4) | (lanes[:, 3] << 6)
    return PackedTernaryTensor(codes=packed.tobytes(), shape=w.shape)


def unpack_ternary(packed: PackedTernaryTensor) -> np.ndarray:
    """Decode a payload; as the checkpoint reader does, refuse a byte count
    the shape does not need, a 0b11 code, and a set padding bit."""
    raw = np.frombuffer(packed.codes, dtype=np.uint8)
    if raw.size != (packed.size + 3) // 4:
        raise DataError(f"packed payload holds {4 * raw.size} codes, "
                        f"shape {packed.shape} needs {packed.size}")
    values = np.take(_BYTE_VALUES, raw, axis=0).ravel()
    if np.any(values == _INVALID_VALUE):
        raise DataError("invalid 0b11 code in packed ternary payload")
    if np.any(values[packed.size:]):
        raise DataError("set padding bits in packed ternary payload")
    return values[:packed.size].astype(np.int64).reshape(packed.shape)


def ac_only_matmul(packed: PackedTernaryTensor, spikes: np.ndarray) -> np.ndarray:
    """Accumulate-only product: out[b, c] = (#matches at +1) - (#matches at -1).

    ``packed`` holds a (C_o, C_i) weight matrix; ``spikes`` is a binary
    (B, C_i) array.  The matrix is decoded once per packed tensor; the
    accumulate is one float32 BLAS product of {0, 1} spikes with
    {-1, 0, +1} weights, whose sums are exact integers while
    C_i < `MAX_FAN_IN` (2^24).  A larger fan-in is refused.
    """
    if len(packed.shape) != 2:
        raise ShapeError(f"expected a packed matrix, got shape {packed.shape}")
    if packed.shape[1] >= MAX_FAN_IN:
        raise ShapeError(f"fan-in {packed.shape[1]} is not below 2^24, where "
                         "float32 accumulation stops being exact")
    s = np.asarray(spikes)
    if not ((s == 0) | (s == 1)).all():
        raise DataError("spikes must be binary")
    w = packed.matrix
    if s.shape[-1] != w.shape[1]:
        raise ShapeError(f"spike width {s.shape[-1]} != weight width {w.shape[1]}")
    return (s.astype(np.float32) @ w.T).astype(np.int64)


@dataclass
class FoldedNeuronParams:
    """Scale and shift absorbed into the LIF charging step.

    rho has shape (T, C_o), delta shape (C_o,): the charging becomes
    U[t] = rho[t] * X_q[t] + delta + (1 - 1/tau) U[t-1], where X_q is the
    raw integer accumulate output and U[t-1] the membrane after reset.
    """

    rho: np.ndarray
    delta: np.ndarray
    lif: LifConfig


def fold_parameters(alpha: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                    mu: np.ndarray, sigma2: np.ndarray, eps: float,
                    lif: LifConfig) -> FoldedNeuronParams:
    """rho[t] = gamma * alpha[t] / (tau * sqrt(sigma2 + eps)),
    delta = (beta - gamma * mu / sqrt(sigma2 + eps)) / tau."""
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if np.any(sigma2 + eps <= 0):
        raise ConfigError("sigma2 + eps must be positive")
    std = np.sqrt(sigma2 + eps)
    rho = np.asarray(gamma) * np.asarray(alpha) / (lif.tau * std)
    delta = (np.asarray(beta) - np.asarray(gamma) * np.asarray(mu) / std) / lif.tau
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(delta))):
        raise ConfigError("non-finite folded parameters")
    return FoldedNeuronParams(rho=rho, delta=delta, lif=lif)


@dataclass
class FoldedBlock:
    """One quantized-linear + BN + LIF block prepared for inference."""

    replaces = ("qlinear", "bn", "lif")  # kinds of the layers it stands for; not a field

    packed: list[PackedTernaryTensor]  # one matrix per timestep
    folded: FoldedNeuronParams


def fold_network(net: Network) -> list:
    """Prepare a trained network for accumulate-only inference.

    Quantized layers must have been run forward at least once; weights
    held from before a later stimulus update are re-materialized, so the
    plan packs the current stimulus's weights.  Runs of layers whose kinds
    are `FoldedBlock.replaces`, with a ternary quantized layer first,
    collapse into a `FoldedBlock`; all other layers, multi-bit QuantLinear
    included, are passed through unchanged and run as float layers.
    """
    plan = []
    i = 0
    while i < len(net.layers):
        block = net.layers[i:i + len(FoldedBlock.replaces)]
        if (tuple(layer.kind for layer in block) == FoldedBlock.replaces
                and block[0].quant.n_level == 1):
            q, bn, lif = block
            if q.state is None:
                raise DataError(f"layer {i}: quantized weights not materialized; "
                                "run a forward pass first")
            q.materialize()  # the held weights may predate a stimulus update
            folded = fold_parameters(q.alpha, bn.params["gamma"],
                                     bn.params["beta"], bn.running_mean,
                                     bn.running_var, bn.eps, lif.cfg)
            packed = [pack_ternary(w) for w in q.state.w_q]
            plan.append(FoldedBlock(packed=packed, folded=folded))
            i += len(block)
        else:
            plan.append(net.layers[i])
            i += 1
    return plan


def folded_forward(plan: list, x: np.ndarray,
                   record_membranes: bool = False) -> np.ndarray | tuple:
    """Run the folded plan; returns mean-over-time logits.

    With `record_membranes` the per-block membrane traces are returned as
    well, for equivalence checks against the unfolded path.  Errors name
    the layer they came from, as `Network.forward`'s do.
    """
    h = np.asarray(x, dtype=np.float64)
    membranes = []
    i = 0  # index of the item's first layer in the unfolded network
    for item in plan:
        if isinstance(item, FoldedBlock):
            f = item.folded
            with layer_errors(i, item.replaces[0]):
                if h.shape[0] != len(item.packed):
                    raise ShapeError(f"expected {len(item.packed)} timesteps, "
                                     f"got input with {h.shape[0]}")
                x_q = np.stack([ac_only_matmul(p, h[t]) for t, p in enumerate(item.packed)])
            trace = f.rho[:, None, :] * x_q
            trace += f.delta  # the charging current; lif_charge turns it into U
            h = lif_charge(trace, f.lif)
            membranes.append(trace)
            i += len(item.replaces)
        else:
            with layer_errors(i, item.kind):
                h = item.forward(h, training=False)
            i += 1
    logits = h.mean(axis=0)
    if record_membranes:
        return logits, membranes
    return logits
