"""Deployment-style inference.

`fold_network` turns a network into a fold plan: each run of the layers
`FoldedBlock.replaces` names becomes a `FoldedBlock`, a `layers.Layer`
that accumulates its 2-bit packed weights (`ac_only_matmul`) and charges
its LIF with the scale and batch-norm affine folded in.  A plan runs
through `layers.Network.infer`; `folded_forward` is a thin wrapper over it.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .layers import Layer, LifConfig, Network, lif_charge
# the codec stays importable here: callers pack, unpack and trace it as runtime.*
from .quantizer import CODE_INVALID, PackedTernaryTensor, pack_ternary, unpack_ternary

# Every partial sum of a float32 accumulate is an integer of magnitude at
# most the fan-in, so it is exact below this fan-in.
MAX_FAN_IN = 1 << 24


def ac_only_matmul(packed: list[PackedTernaryTensor], spikes: np.ndarray) -> np.ndarray:
    """Accumulate-only product: out[t, b, c] = (#matches at +1) - (#matches
    at -1) of spikes[t, b] against row c of packed[t].

    ``packed`` holds T (C_o, C_i) matrices, each decoded once per packed
    tensor; ``spikes`` is a binary (T, B, C_i) array, checked and cast once.
    Each timestep is one float32 BLAS product into one (T, B, C_o) float32
    result, whose sums are exact integers while C_i < `MAX_FAN_IN` (2^24).
    A larger fan-in is refused.
    """
    s = np.asarray(spikes)
    if s.ndim != 3:
        raise ShapeError(f"expected a (T, B, C_i) input, got shape {s.shape}")
    if not packed or s.shape[0] != len(packed):
        raise ShapeError(f"expected {len(packed)} timesteps, got input with {s.shape[0]}")
    for p in packed:
        if len(p.shape) != 2:
            raise ShapeError(f"expected a packed matrix, got shape {p.shape}")
        if p.shape[1] >= MAX_FAN_IN:
            raise ShapeError(f"fan-in {p.shape[1]} is not below 2^24, where "
                             "float32 accumulation stops being exact")
        if p.shape != (packed[0].shape[0], s.shape[2]):
            raise ShapeError(f"spike width {s.shape[2]} does not fit weight shape {p.shape}")
    if not ((s == 0) | (s == 1)).all():
        raise DataError("spikes must be binary")
    s32 = s.astype(np.float32)
    out = np.empty((*s.shape[:2], packed[0].shape[0]), dtype=np.float32)
    for t, p in enumerate(packed):
        np.matmul(s32[t], p.matrix.T, out=out[t])
    return out


def fold_parameters(alpha: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                    mu: np.ndarray, sigma2: np.ndarray, eps: float,
                    lif: LifConfig) -> tuple[np.ndarray, np.ndarray]:
    """(rho, delta) with rho[t] = gamma * alpha[t] / (tau * sqrt(sigma2 + eps))
    and delta = (beta - gamma * mu / sqrt(sigma2 + eps)) / tau."""
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if np.any(sigma2 + eps <= 0):
        raise ConfigError("sigma2 + eps must be positive")
    std = np.sqrt(sigma2 + eps)
    rho = np.asarray(gamma) * np.asarray(alpha) / (lif.tau * std)
    delta = (np.asarray(beta) - np.asarray(gamma) * np.asarray(mu) / std) / lif.tau
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(delta))):
        raise ConfigError("non-finite folded parameters")
    return rho, delta


class FoldedBlock(Layer):
    """One quantized-linear + BN + LIF block prepared for inference, from
    T packed (C_o, C_i) matrices, rho (T, C_o) and delta (C_o,).  It
    charges U[t] = rho[t] * X_q[t] + delta + (1 - 1/tau) U[t-1], where X_q
    is the integer accumulate and U[t-1] the membrane after reset, and
    keeps the U of its last input in cache["u"]."""

    replaces = ("qlinear", "bn", "lif")  # kinds of the layers it stands for

    def __init__(self, packed: list[PackedTernaryTensor], rho: np.ndarray,
                 delta: np.ndarray, lif: LifConfig) -> None:
        super().__init__()
        self.packed, self.rho, self.delta, self.lif = packed, rho, delta, lif

    def infer(self, x, out=None):
        u = np.multiply(ac_only_matmul(self.packed, x), self.rho[:, None, :], dtype=np.float64)
        u += self.delta  # the charging current; lif_charge turns it into U
        self.cache = {"u": u}
        return lif_charge(u, self.lif, out)


def fold_network(net: Network) -> list:
    """Prepare a network for accumulate-only inference.

    Runs of layers whose kinds are `FoldedBlock.replaces`, with a ternary
    quantized layer first, collapse into a `FoldedBlock` holding the
    weights of the current stimulus, whether or not a forward pass has
    run; all other layers, multi-bit QuantLinear included, run as float
    layers.
    """
    plan = []
    i = 0
    while i < len(net.layers):
        block = net.layers[i:i + len(FoldedBlock.replaces)]
        if (tuple(layer.kind for layer in block) == FoldedBlock.replaces
                and block[0].quant.n_level == 1):
            q, bn, lif = block
            q.materialize()  # none may be held, or they may predate a stimulus update
            rho, delta = fold_parameters(q.alpha, bn.params["gamma"], bn.params["beta"],
                                         bn.running_mean, bn.running_var, bn.eps, lif.cfg)
            # a list of the block's own: a caller may replace a timestep's tensor
            plan.append(FoldedBlock(packed=list(q.state.stored), rho=rho, delta=delta,
                                    lif=lif.cfg))
            i += len(block)
        else:
            plan.append(net.layers[i])
            i += 1
    return plan


def folded_forward(plan: list, x: np.ndarray,
                   record_membranes: bool = False) -> np.ndarray | tuple:
    """Run the folded plan through `Network.infer`; returns mean-over-time
    logits, and with `record_membranes` the blocks' membrane traces as
    well, for equivalence checks against the unfolded path."""
    logits = Network(plan).infer(x)
    if record_membranes:
        return logits, [item.cache["u"] for item in plan if isinstance(item, FoldedBlock)]
    return logits
