"""Temporal-adaptive weight quantizer.

Core recurrence: an intermediate state ``c_s`` integrates a normalized
stimulus tensor and emits an integer weight in ``{-n..+n}`` at every
timestep.  While the emitted weight is nonzero the carried state is
decayed (fully, for the ternary case), so weights alternate between
firing and accumulating.  All math is float64 so the vectorized path is
bit-identical to a scalar reference loop.

The recurrence is written once (`_steps`).  It, its surrogate gradient and
its reverse pass run in place on a few scratch buffers of their own, one
numpy operation per step of the formula and no temporary per operator.
They never write into their inputs or into a retained `QuantizerState`,
and each performs the same floating-point operations, in the same order,
as the plain vectorized formula that tests/test_quantizer.py pins, so its
results are bit-identical to it.

Ternary temporal weights follow a period law, and `tawq_forward` emits
them by it: the full decay resets the state after a firing to the drive
(1 - lam) * i, its value at step 1, bit for bit.  So a weight that first
fires at step k fires at every k-th step with sign(i), w_q[t - 1] =
sign(i) * [k divides t], and k falls as |i| grows: in exact arithmetic k
holds for c_th / (1 - lam^k) < |i| <= c_th / (1 - lam^(k-1)), and |i| <=
c_th / (1 - lam^T) never fires.  `breakpoints` finds the float bounds by
bisection on the recurrence itself, so T compares of |i| give k and one
table lookup per timestep gives the weight.  The partial multi-bit decay
obeys no such law; multi-bit and memoryless weights run the recurrence.

The carried state is never stored: `tawq_backward` recomputes it slab by
slab, by the same steps, where it needs it, and `QuantizerState.c_s`
recomputes it on demand for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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
    """Everything retained from one quantizer forward pass: the normalized
    stimulus and ``w_q``, shape (T, *w), the integer weights emitted at
    timesteps 1..T.  The carried state is not kept; `tawq_backward`
    recomputes it slab by slab.
    """

    i_norm: np.ndarray
    w_q: np.ndarray
    cfg: QuantConfig = field(repr=False)

    @cached_property
    def c_s(self) -> np.ndarray:
        """The carried state, shape (T+1, *w) with ``c_s[0] == 0``, recomputed
        on first read and kept on this state.  For inspection only: no
        training, checkpoint or deployment path reads it."""
        T, size = self.cfg.timesteps, self.i_norm.size
        c_s = np.empty((T + 1,) + self.i_norm.shape)
        flat_c, flat_w = c_s.reshape(T + 1, size), self.w_q.reshape(T, size)
        flat_c[0] = 0.0
        width = min(size, BLOCK)
        for blk, (c, gate, drive) in blocks(size, *(np.empty(width) for _ in range(3))):
            for t in _steps(c, self.i_norm.reshape(size)[blk], flat_w[:, blk], self.cfg,
                            [gate] * T, drive):
                flat_c[t + 1, blk] = c
        return c_s

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


def _steps(c: np.ndarray, i_b: np.ndarray, w: np.ndarray, cfg: QuantConfig, gates,
           drive: np.ndarray, scaled=None):
    """The recurrence, run on one slab in place in ``c`` from c = 0: yields
    each t = 0..T-1 once ``c`` holds c_s[t + 1].  Step t reads w[t - 1], which
    the caller has emitted or holds by then, and leaves its gate
    1 - |w[t - 1]| / n in gates[t] and lam * c_s[t] in scaled[t] (in ``c`` if
    `scaled` is None).  ``drive`` is a slab buffer."""
    if not cfg.temporal:
        np.copyto(c, i_b)
        yield from range(cfg.timesteps)
        return
    lam, n = cfg.lam, cfg.n_level
    np.multiply(i_b, 1.0 - lam, out=drive)
    c.fill(0.0)
    for t in range(cfg.timesteps):
        gate, lam_c = gates[t], c if scaled is None else scaled[t]
        if t:
            np.abs(w[t - 1], out=gate)
            if n > 1:
                gate /= n
            np.subtract(1.0, gate, out=gate)
        else:
            gate.fill(1.0)
        # lam * c_s[t] * (1 - |w_prev| / n) + (1 - lam) * i_norm
        np.multiply(c, lam, out=lam_c)
        np.multiply(lam_c, gate, out=c)
        c += drive
        yield t


def _recur_into(w: np.ndarray, i_b: np.ndarray, cfg: QuantConfig, c: np.ndarray,
                gate: np.ndarray, drive: np.ndarray, mask: np.ndarray) -> None:
    """Emit a slab's weights ``w`` (T, slab) from its stimulus ``i_b`` by
    running the recurrence; ``c``, ``gate``, ``drive`` and ``mask`` are
    buffers of the slab's size.  The multi-bit and memoryless emitter, and
    the oracle of the ternary `breakpoints`."""
    n, T = cfg.n_level, cfg.timesteps
    for t in _steps(c, i_b, w, cfg, [gate] * T, drive):
        if n == 1:
            _ternary_into(w[t], c, cfg.c_th, mask)
        else:
            # gate = 1 - |w_prev| / n lies in [0, 1], so |c| <= |i_norm| at every
            # step and the finite i_norm keeps c finite; it is the emitter's scratch
            _multibit_into(w[t], c, n, gate)


@lru_cache(maxsize=256)
def breakpoints(lam: float, c_th: float, timesteps: int) -> tuple[float, ...]:
    """The ternary temporal recurrence's period breakpoints b_1..b_T: b_j is
    the largest float |i| whose first j steps emit no weight, so |i| fires
    first at step k = T + 1 - #{j : |i| > b_j} (never if that is T + 1).
    Found by bisection over the non-negative floats on the recurrence
    itself, so they hold bit for bit; each lies a few ulps from
    c_th / (1 - lam^j)."""
    cfg = QuantConfig(lam=lam, c_th=c_th, timesteps=timesteps)
    # the bits of 0.0, which never fires, and of inf, one past the largest
    # float, taken as firing
    lo = np.zeros(timesteps, dtype=np.int64)
    hi = np.full(timesteps, np.float64(np.inf).view(np.int64))
    w = np.empty((timesteps, timesteps))
    bufs = [np.empty(timesteps) for _ in range(3)] + [np.empty(timesteps, dtype=bool)]
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        _recur_into(w, mid.view(np.float64), cfg, *bufs)
        # candidate j - 1 is quiet if none of its first j steps fired
        quiet = ~np.diagonal(np.logical_or.accumulate(w != 0, axis=0))
        lo = np.where(quiet, mid, lo)
        hi = np.where(quiet, hi, mid)
    return tuple(lo.view(np.float64).tolist())


def tawq_forward(i_norm: np.ndarray, cfg: QuantConfig) -> QuantizerState:
    """Emit the quantizer's weights for ``cfg.timesteps`` steps: ternary
    temporal weights by their period code, others by the recurrence.  With
    ``cfg.temporal`` off the recurrence degenerates to memoryless
    re-quantization of ``i_norm`` at every step (the WQ ablation baseline).
    """
    i_norm = np.asarray(i_norm, dtype=np.float64)
    if not np.all(np.isfinite(i_norm)):
        raise NumericError("non-finite normalized stimulus")
    T = cfg.timesteps
    w_q = np.empty((T,) + i_norm.shape)
    size = i_norm.size
    flat_i, flat_w = i_norm.reshape(size), w_q.reshape(T, size)
    width = min(size, BLOCK)
    if cfg.n_level > 1 or not cfg.temporal:
        bufs = [np.empty(width) for _ in range(3)] + [np.empty(width, dtype=bool)]
        for blk, slab in blocks(size, *bufs):
            _recur_into(flat_w[:, blk], flat_i[blk], cfg, *slab)
        return QuantizerState(i_norm=i_norm, w_q=w_q, cfg=cfg)
    bounds = breakpoints(cfg.lam, cfg.c_th, T)
    # table[t, m]: the weight at step t + 1 of code m, i >= 0 first firing at step
    # T + 1 - m (m = 0: never) and, code T + 1 + m, the same with i < 0; zeros +0.0
    fires = np.arange(1.0, T + 1)[:, None] % np.arange(T + 1.0, 0.0, -1.0) == 0
    table = np.concatenate([fires, 0.0 - fires], axis=1)
    # code = #{j : |i| > b_j}, plus T + 1 where i < 0, counted in the least
    # unsigned type that holds 2T + 1 and widened once for the lookups: measured
    # faster than counting in intp
    bufs = [np.empty(width), np.empty(width, dtype=bool),
            np.empty(width, dtype=np.min_scalar_type(2 * T + 1)), np.empty(width, dtype=np.intp)]
    for blk, (mag, mask, count, code) in blocks(size, *bufs):
        i_b, flags = flat_i[blk], mask.view(np.uint8)
        np.less(i_b, 0.0, out=mask)
        np.multiply(flags, count.dtype.type(T + 1), out=count)
        np.abs(i_b, out=mag)
        for b in bounds:
            np.greater(mag, b, out=mask)
            count += flags
        np.copyto(code, count)
        for t in range(T):
            np.take(table[t], code, out=flat_w[t, blk], mode="wrap")
    return QuantizerState(i_norm=i_norm, w_q=w_q, cfg=cfg)


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

    The state c_s is recomputed per slab from ``i_norm`` and ``w_q`` by the
    forward's own steps.  In the memoryless ablation the carry terms vanish
    and every step contributes ``upstream[t] * surrogate_grad(i_norm)``
    directly.
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
    flat_i, flat_up = state.i_norm.reshape(size), upstream.reshape(T, size)
    flat_w = state.w_q.reshape(T, size)
    grad_i = np.zeros(state.i_norm.shape)
    flat_g = grad_i.reshape(size)
    width = min(size, BLOCK)
    # gate[t], lam_c[t]: as the recompute's step t left them; sg[t - 1] is taken
    # at c_s[t]; carry: dL/dc_s[t+1] reaching step t from the future.  Until the
    # reverse pass, carry holds the recompute's drive and g_c, scratch the
    # surrogate's scratch: fewer buffers measured faster
    bufs = [np.empty((T, width)) for _ in range(3)] + [np.empty(width) for _ in range(4)]
    for blk, (gate, lam_c, sg, c, carry, g_c, scratch) in blocks(size, *bufs):
        grad_b = flat_g[blk]
        for t in _steps(c, flat_i[blk], flat_w[:, blk], cfg, gate, carry, lam_c):
            _surrogate_into(sg[t], c, cfg, g_c, scratch)
        carry.fill(0.0)
        for t in range(T, 0, -1):
            np.multiply(flat_up[t - 1, blk], sg[t - 1], out=g_c)
            g_c += carry
            np.multiply(g_c, 1.0 - lam, out=scratch)
            grad_b += scratch
            if t > 1:
                w_prev = flat_w[t - 2, blk]
                # carry = g_c * (lam * (1 - |w|/n) - lam * c_prev * sign(w) / n * sg);
                # for ternary w, sign(w) == w and the divisions by n = 1 are no-ops
                if n == 1:
                    np.multiply(lam_c[t - 1], w_prev, out=carry)
                else:
                    np.sign(w_prev, out=scratch)
                    np.multiply(lam_c[t - 1], scratch, out=carry)
                    carry /= n
                carry *= sg[t - 2]
                np.multiply(gate[t - 1], lam, out=scratch)
                scratch -= carry
                np.multiply(g_c, scratch, out=carry)
    return grad_i
