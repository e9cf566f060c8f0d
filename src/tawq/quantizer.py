"""Temporal-adaptive weight quantizer.

Core recurrence: an intermediate state ``c_s`` integrates a normalized
stimulus tensor and emits an integer weight in ``{-n..+n}`` at every
timestep.  While the emitted weight is nonzero the carried state is
decayed (fully, for the ternary case), so weights alternate between
firing and accumulating.  All math is float64 so the vectorized path is
bit-identical to a scalar reference loop.

The recurrence, its surrogate gradient and its reverse pass run in place
on a few scratch buffers of their own, one numpy operation per step of
the formula and no temporary per operator.  They never write into their
inputs or into a retained `QuantizerState`, and each performs the same
floating-point operations, in the same order, as the plain vectorized
formula that tests/test_quantizer.py pins, so its results are
bit-identical to it.

Ternary temporal weights follow a period law: the full decay resets the
state after a firing to the drive (1 - lam) * i, its value at step 1, bit
for bit.  So a weight that first fires at step k fires at every k-th step
with sign(i), w_q[t - 1] = sign(i) * [k divides t], and k falls as |i|
grows: in exact arithmetic k holds for c_th / (1 - lam^k) < |i| <=
c_th / (1 - lam^(k-1)), and |i| <= c_th / (1 - lam^T) never fires.  The
partial multi-bit decay obeys no such law.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError, refuse_unread, require

# The recurrence and its reverse pass treat the weights as flat and run all
# T steps over one slab of at most BLOCK elements (`blocks`) before the next,
# so that a slab's (T, BLOCK) working set stays in L2; the math is elementwise,
# so the blocking moves no result.  At 512x512 and T=4, 8K-32K measured
# fastest; 2K-element blocks and a single unblocked pass were slower.
BLOCK = 16384


def blocks(size: int, *scratch: np.ndarray, row: int = 1):
    """Tile range(size) rows of `row` elements with consecutive slabs of
    whole rows: at most `BLOCK` elements, or one row if a row is larger.

    Yields each slab's slice of rows with the `scratch` buffers, whose last
    axis holds at least one slab's elements, cut to the slab's elements.
    """
    step = max(1, BLOCK // row)
    for start in range(0, size, step):
        blk = slice(start, min(start + step, size))
        yield blk, [b[..., :(blk.stop - start) * row] for b in scratch]


@dataclass(frozen=True)
class QuantConfig:
    """Hyperparameters of the temporal quantizer."""

    lam: float = 0.5          # leak/mix coefficient, 0 < lam < 1
    c_th: float = 0.25        # firing threshold on the carried state
    n_level: int = 1          # 1 -> ternary {-1,0,+1}; n -> {-n..+n}
    timesteps: int = 4
    epsilon: float = 1e-5     # stimulus-normalization stabilizer
    sg_scale: float = 4.0     # surrogate-gradient steepness
    sg_chain_factor: bool = False  # multiply surrogate by sg_scale (alternate reading)
    temporal: bool = True     # False -> memoryless ablation (WQ mode)

    def __post_init__(self) -> None:
        require(self, "be in (0, 1)", "lam")
        require(self, "be positive", "c_th", "epsilon", "sg_scale")
        require(self, "be >= 1", "n_level", "timesteps")
        if self.n_level > 1:
            refuse_unread(self, f"by the multi-bit emitter (n_level {self.n_level})",
                          "c_th", "sg_scale", "sg_chain_factor")

    @property
    def bit_width(self) -> float:
        """Effective bit-width of the emitted weights: log2(2n + 1)."""
        return float(np.log2(2 * self.n_level + 1))


CODE_INVALID = 0b11

# Byte -> the int64 values of its 4 lanes, lane 0 in the low bits: a lookup
# measured faster than `np.unpackbits`.  The decoder refuses the invalid code
# 0b11 before it looks a byte up.
_BYTE_VALUES = np.array([0, 1, -1, 0], dtype=np.int64)[
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
    """Lossless 2-bit encoding of a {-1, 0, +1} tensor in the layout of
    README § File formats: numpy's bit packer over each entry's
    (is +1, is -1) bit pair, little-endian."""
    w = np.asarray(w_q)
    flat = w.ravel()
    pos, neg = flat == 1, flat == -1
    valid = pos | neg | (flat == 0)
    if not valid.all():
        raise DataError(f"out-of-range ternary entry {flat[~valid][0]!r}")
    packed = np.packbits(np.stack([pos, neg], axis=-1), bitorder="little")
    return PackedTernaryTensor(codes=packed.tobytes(), shape=w.shape)


def unpack_ternary(packed: PackedTernaryTensor) -> np.ndarray:
    """Decode a payload; as the checkpoint reader does, refuse a byte count
    the shape does not need, a 0b11 code, and a set padding bit."""
    raw = np.frombuffer(packed.codes, dtype=np.uint8)
    if raw.size != (packed.size + 3) // 4:
        raise DataError(f"packed payload holds {4 * raw.size} codes, "
                        f"shape {packed.shape} needs {packed.size}")
    if np.any(raw & (raw >> 1) & 0b01010101):  # a lane with both bits set
        raise DataError("invalid 0b11 code in packed ternary payload")
    values = np.take(_BYTE_VALUES, raw, axis=0).ravel()
    if np.any(values[packed.size:]):
        raise DataError("set padding bits in packed ternary payload")
    return values[:packed.size].reshape(packed.shape)


@dataclass
class QuantizerState:
    """Everything retained from one quantizer forward pass.

    ``c_s`` has shape (T+1, *w) with ``c_s[0] == 0``; ``w_q`` has shape
    (T, *w) and holds the integer weights emitted at timesteps 1..T.
    """

    i_norm: np.ndarray
    c_s: np.ndarray
    w_q: np.ndarray
    cfg: QuantConfig = field(repr=False)

    @cached_property
    def stored(self) -> tuple:
        """Each timestep's weights as the checkpoint writer and the fold read
        them, made once: 2-bit packed if ternary, else int64.  A state is
        replaced, never updated, whenever its stimulus or config changes."""
        if self.cfg.n_level == 1:
            return tuple(pack_ternary(w) for w in self.w_q)
        return tuple(w.astype(np.int64) for w in self.w_q)


def normalize_stimulus(values: np.ndarray, epsilon: float) -> np.ndarray:
    """Standardize a stimulus tensor with its own global mean / population std."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ShapeError("cannot normalize an empty stimulus tensor")
    if not epsilon > 0.0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    mu = values.mean()
    var = values.var()  # population variance, all axes
    return (values - mu) / np.sqrt(var + epsilon)


def normalize_backward(grad: np.ndarray, i_norm: np.ndarray, values: np.ndarray,
                       epsilon: float) -> np.ndarray:
    """Full Jacobian-vector product of `normalize_stimulus` (mean and variance terms)."""
    std = np.sqrt(np.asarray(values, dtype=np.float64).var() + epsilon)
    return (grad - grad.mean() - i_norm * (grad * i_norm).mean()) / std


def _ternary_into(out: np.ndarray, c_s: np.ndarray, c_th: float,
                  mask: np.ndarray) -> None:
    # (c_s > c_th) - (c_s < -c_th); a masked copy is several times slower
    np.greater(c_s, c_th, out=mask)
    np.copyto(out, mask)
    np.less(c_s, -c_th, out=mask)
    np.subtract(out, mask, out=out)


def _multibit_into(out: np.ndarray, c_s: np.ndarray, n: int,
                   scratch: np.ndarray) -> None:
    # sign(c) * floor(|c| + 0.5) with c = clip(c_s, -n, n)
    np.clip(c_s, -n, n, out=out)
    np.abs(out, out=scratch)
    scratch += 0.5
    np.floor(scratch, out=scratch)
    np.sign(out, out=out)
    out *= scratch


def tawq_forward(i_norm: np.ndarray, cfg: QuantConfig) -> QuantizerState:
    """Run the quantizer recurrence for ``cfg.timesteps`` steps.

    With ``cfg.temporal`` off the recurrence degenerates to memoryless
    re-quantization of ``i_norm`` at every step (the WQ ablation baseline).
    """
    i_norm = np.asarray(i_norm, dtype=np.float64)
    if not np.all(np.isfinite(i_norm)):
        raise NumericError("non-finite normalized stimulus")
    T, n = cfg.timesteps, cfg.n_level
    c_s = np.empty((T + 1,) + i_norm.shape)
    w_q = np.empty((T,) + i_norm.shape)
    size = i_norm.size
    flat_i = i_norm.reshape(size)
    flat_c, flat_w = c_s.reshape(T + 1, size), w_q.reshape(T, size)
    flat_c[0] = 0.0
    width = min(size, BLOCK)
    # gate = 1 - |w_prev| / n lies in [0, 1], so |c| <= |i_norm| at every step and
    # the finite i_norm keeps c finite; gate is also the multi-bit emitter's scratch
    for blk, (drive, gate, mask) in blocks(size, np.empty(width), np.empty(width),
                                           np.empty(width, dtype=bool)):
        i_b = flat_i[blk]
        np.multiply(i_b, 1.0 - cfg.lam, out=drive)
        gate.fill(0.0)
        for t in range(T):
            c, w = flat_c[t + 1, blk], flat_w[t, blk]
            if cfg.temporal:
                # lam * c_s[t] * (1 - |w_prev| / n) + (1 - lam) * i_norm
                np.multiply(flat_c[t, blk], cfg.lam, out=c)
                if t:
                    np.abs(flat_w[t - 1, blk], out=gate)
                    if n > 1:
                        gate /= n
                np.subtract(1.0, gate, out=gate)
                c *= gate
                c += drive
            else:
                np.copyto(c, i_b)
            if n == 1:
                _ternary_into(w, c, cfg.c_th, mask)
            else:
                _multibit_into(w, c, n, gate)
    return QuantizerState(i_norm=i_norm, c_s=c_s, w_q=w_q, cfg=cfg)


def surrogate_grad(c_s: np.ndarray, cfg: QuantConfig) -> np.ndarray:
    """Smooth stand-in for the quantizer's step derivative.

    Ternary case: mean of two sigmoid derivatives centered at +-c_th, with
    arguments scaled by ``sg_scale``.  The scale enters only through the
    argument unless ``sg_chain_factor`` is set.  Multi-bit case: the
    straight-through window indicator on (-n, n).
    """
    c_s = np.asarray(c_s, dtype=np.float64)
    g, lower, scratch = (np.empty(c_s.shape) for _ in range(3))
    _surrogate_into(g, c_s, cfg, lower, scratch)
    return g


def _surrogate_into(g: np.ndarray, c_s: np.ndarray, cfg: QuantConfig,
                    lower: np.ndarray, scratch: np.ndarray) -> None:
    """Write `surrogate_grad` of ``c_s`` into ``g``; ``lower`` and
    ``scratch`` are buffers of g's shape."""
    if cfg.n_level > 1:
        np.greater(c_s, -cfg.n_level, out=g)
        np.less(c_s, cfg.n_level, out=lower)
        g *= lower
        return
    k = cfg.sg_scale
    # 0.5 * (sd(k * (c_s + c_th)) + sd(k * (c_s - c_th)))
    np.add(c_s, cfg.c_th, out=g)
    _sigmoid_deriv(g, k, scratch)
    np.subtract(c_s, cfg.c_th, out=lower)
    g += _sigmoid_deriv(lower, k, scratch)
    g *= 0.5
    if cfg.sg_chain_factor:
        g *= k


def _sigmoid_deriv(z: np.ndarray, k: float, scratch: np.ndarray) -> np.ndarray:
    """Overwrite ``z`` with s * (1 - s), s = 1 / (1 + exp(-k z)), and return it.

    ``scratch`` is a buffer of z's shape; both are float64 arrays the
    caller owns.  Scaling by -k negates k * z exactly.
    """
    z *= -k
    np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)
    np.subtract(1.0, z, out=scratch)
    z *= scratch
    return z


def compute_scaling(w_q_t: np.ndarray) -> np.ndarray:
    """Per-output-channel reciprocal of the mean absolute weight.

    ``w_q_t`` is a single timestep's weight tensor with the output channel
    on axis 0.  All-zero channels get 0: their pre-activation is
    identically zero, so any finite scale is equivalent.
    """
    w = np.asarray(w_q_t, dtype=np.float64)
    mean_abs = np.abs(w).reshape(w.shape[0], -1).mean(axis=1)
    return np.divide(1.0, mean_abs, out=np.zeros_like(mean_abs), where=mean_abs > 0)


def compute_scaling_all(state: QuantizerState) -> np.ndarray:
    """Stack `compute_scaling` over all timesteps: shape (T, C_o)."""
    return np.stack([compute_scaling(w) for w in state.w_q])


def tawq_backward(upstream: np.ndarray, state: QuantizerState) -> np.ndarray:
    """Reverse accumulation through the quantizer recurrence.

    ``upstream`` has shape (T, *w): the loss gradient w.r.t. each emitted
    weight.  Returns the gradient w.r.t. the normalized stimulus.  Partials
    used per step t (state ``c = c_s[t]``, emitted weight ``w = w_q[t-1]``):

        d c[t]   / d i_norm  = 1 - lam
        d c[t+1] / d c[t]    = lam * (1 - |w|/n)
        d c[t+1] / d w[t]    = -lam * c[t] * sign(w) / n
        d w[t]   / d c[t]    = surrogate_grad(c[t])

    In the memoryless ablation the carry terms vanish and every step
    contributes ``upstream[t] * surrogate_grad(i_norm)`` directly.
    """
    cfg = state.cfg
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != state.w_q.shape:
        raise ShapeError(
            f"upstream shape {upstream.shape} != retained w_q shape {state.w_q.shape}")
    if not cfg.temporal:
        grad_i = upstream.sum(axis=0)
        grad_i *= surrogate_grad(state.i_norm, cfg)
        return grad_i

    T, lam, n = cfg.timesteps, cfg.lam, cfg.n_level
    size = state.i_norm.size
    flat_up = upstream.reshape(T, size)
    flat_c, flat_w = state.c_s.reshape(T + 1, size), state.w_q.reshape(T, size)
    grad_i = np.zeros(state.i_norm.shape)
    flat_g = grad_i.reshape(size)
    width = min(size, BLOCK)
    # sg[t - 1] is taken at c_s[t]; carry: dL/dc_s[t+1] reaching step t from the future
    bufs = [np.empty((T, width)) for _ in range(3)] + [np.empty(width) for _ in range(3)]
    for blk, (sg, lower, sg_scratch, carry, g_c, scratch) in blocks(size, *bufs):
        grad_b = flat_g[blk]
        _surrogate_into(sg, flat_c[1:, blk], cfg, lower, sg_scratch)
        carry.fill(0.0)
        for t in range(T, 0, -1):
            np.multiply(flat_up[t - 1, blk], sg[t - 1], out=g_c)
            g_c += carry
            np.multiply(g_c, 1.0 - lam, out=scratch)
            grad_b += scratch
            if t > 1:
                c_prev = flat_c[t - 1, blk]
                w_prev = flat_w[t - 2, blk]
                # carry = g_c * (lam * (1 - |w|/n) - lam * c_prev * sign(w) / n * sg);
                # for ternary w, sign(w) == w and the divisions by n = 1 are no-ops
                np.multiply(c_prev, lam, out=carry)
                if n == 1:
                    carry *= w_prev
                else:
                    np.sign(w_prev, out=scratch)
                    carry *= scratch
                    carry /= n
                carry *= sg[t - 2]
                np.abs(w_prev, out=scratch)
                if n > 1:
                    scratch /= n
                np.subtract(1.0, scratch, out=scratch)
                scratch *= lam
                scratch -= carry
                np.multiply(g_c, scratch, out=carry)
    return grad_i
