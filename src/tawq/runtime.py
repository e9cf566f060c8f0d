"""Deployment-style inference.

A folded block takes its 2-bit packed weights from the quantizer state
(`QuantizerState.stored`).  Its one kernel, `ac_only_matmul(packed,
spikes)`, takes the T packed tensors and the (T, B, C_i) spikes, and runs
one float32 BLAS product per timestep with each tensor's decoded matrix,
exact while the fan-in stays below 2^24; a larger fan-in is refused.  The
per-channel scale and the batch-norm affine are folded into the LIF
charging path: a block charges straight from the accumulate, through the
training layer's own `layers.lif_charge`.  Float layers run through their
cache-free `infer`, which may overwrite an input that folded inference
owns but never the caller's, so every layer's cache stays as it was.
`FoldedBlock.replaces` names the layers a block stands for, and is the
one statement of the fold rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .layers import LIF, BatchNorm, Flatten, LifConfig, Network, layer_errors, lif_charge
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
    if s.ndim != 3 or not packed or s.shape[0] != len(packed):
        raise ShapeError(f"expected {len(packed)} timesteps, got input with shape {s.shape}")
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


@dataclass
class FoldedBlock:
    """One quantized-linear + BN + LIF block prepared for inference.  It
    charges U[t] = rho[t] * X_q[t] + delta + (1 - 1/tau) U[t-1], where X_q
    is the integer accumulate and U[t-1] the membrane after reset."""

    replaces = ("qlinear", "bn", "lif")  # kinds of the layers it stands for; not a field

    packed: list[PackedTernaryTensor]  # one matrix per timestep
    rho: np.ndarray    # (T, C_o)
    delta: np.ndarray  # (C_o,)
    lif: LifConfig


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
    """Run the folded plan; returns mean-over-time logits.

    With `record_membranes` the per-block membrane traces are returned as
    well, for equivalence checks against the unfolded path.  Errors name
    the layer they came from, as `Network.forward`'s do.
    """
    h = np.asarray(x, dtype=np.float64)
    if plan and isinstance(plan[0], (BatchNorm, LIF, Flatten)):
        h = h.copy()  # their infer writes into the caller's x, or passes on a view of it
    membranes = []
    i = 0  # index of the item's first layer in the unfolded network
    for item in plan:
        if isinstance(item, FoldedBlock):
            with layer_errors(i, item.replaces[0]):
                acc = ac_only_matmul(item.packed, h)
            trace = np.multiply(acc, item.rho[:, None, :], dtype=np.float64)
            trace += item.delta  # the charging current; lif_charge turns it into U
            h = lif_charge(trace, item.lif)
            membranes.append(trace)
            i += len(item.replaces)
        else:
            with layer_errors(i, item.kind):
                h = item.infer(h)
            i += 1
    logits = h.mean(axis=0)
    if record_membranes:
        return logits, membranes
    return logits
