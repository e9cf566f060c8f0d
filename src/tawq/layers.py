"""Spiking network layers over arrays shaped (T, B, ...), T the time axis.

Each rule is stated once, where it applies: `forward` trains and `infer`
evaluates (`Layer`); who is handed a copy (`Network._owned_run`) and who
may write into a gradient (`Network.backward`); how long a trace lives
and what the next forward reuses (`Network.forward`); the in-place
kernels equal the plain formula (`BatchNorm`); quantized weights are
reused while the stimulus is unchanged (`QuantizedLayer.materialize`);
a convolution is one BLAS product per timestep (`_ConvContraction`); the
LIF charge and its time blocking (`lif_charge`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, StateError, TawqError, require
from .quantizer import (
    BLOCK,
    QuantConfig,
    QuantizerState,
    _sigmoid_deriv,
    blocks,
    compute_scaling_all,
    normalize_backward,
    normalize_stimulus,
    tawq_backward,
    tawq_forward,
)


@dataclass(frozen=True)
class LifConfig:
    v_threshold: float = 1.0
    v_reset: float = 0.0
    tau: float = 2.0
    sg_scale_neuron: float = 4.0

    def __post_init__(self) -> None:
        require(self, "be finite", "v_threshold", "v_reset")
        require(self, "exceed 1", "tau")
        require(self, "be positive", "sg_scale_neuron")
        if self.v_threshold <= self.v_reset:
            raise ConfigError("v_threshold must exceed v_reset")


def _into(out: np.ndarray | None, shape: tuple) -> np.ndarray:
    """`out` if it has `shape`, else a new array."""
    return out if out is not None and out.shape == shape else np.empty(shape)


def lif_charge(us: np.ndarray, cfg: LifConfig, out: np.ndarray | None = None) -> np.ndarray:
    """Run the hard-reset LIF neuron over the leading time axis, all T steps
    over one `quantizer.BLOCK` of neurons before the next (as `LIF.backward`
    does); returns the spikes, in `out` if it has the shape of `us`.

    `us[t]`, step t's scaled input current, is overwritten with the membrane
    before reset, U[t] = us[t] + (1 - 1/tau) * u, u the membrane after step
    t-1's reset.  A spike fires when U[t] >= v_threshold, and the membrane
    resets to v_reset * s + U[t] * (1 - s).  The LIF layer and a folded
    block (`runtime.FoldedBlock`) both charge through it.
    """
    decay = 1.0 - 1.0 / cfg.tau
    T, size = us.shape[0], int(np.prod(us.shape[1:]))
    ss = _into(out, us.shape)
    flat_u, flat_s = us.reshape(T, size), ss.reshape(T, size)
    width = min(size, BLOCK)
    # u: the membrane after the previous step's reset
    for blk, (u, scratch, fired) in blocks(size, np.empty(width), np.empty(width),
                                           np.empty(width, dtype=bool)):
        u.fill(0.0)
        for t in range(T):
            ut, st = flat_u[t, blk], flat_s[t, blk]
            u *= decay
            ut += u
            np.greater_equal(ut, cfg.v_threshold, out=fired)
            st[...] = fired
            # u = v_reset * s + u * (1 - s); for v_reset == +-0 the first term
            # is a zero, and adding it changes at most the sign of a zero u
            np.subtract(1.0, st, out=u)
            u *= ut
            if cfg.v_reset:
                np.multiply(st, cfg.v_reset, out=scratch)
                u += scratch
    if not us.flags.c_contiguous:  # flat_u was a copy
        us[...] = flat_u.reshape(us.shape)
    return ss


class Layer:
    """Base layer: float64 params in `params`, matching grads in `grads`.
    `forward` trains, caching what `backward` reads; `infer` evaluates, with
    no cache.  All three may overwrite the array they are handed, which
    `Network` makes one that no one else reads."""

    kind = "layer"

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.cache: dict = {}

    replaces = property(lambda self: (self.kind,))  # kinds of the unfolded layers it stands for

    def forward(self, x):
        """`infer`, which a member defines, plus the cache."""
        y = self.infer(x, self._spare(x))
        self.cache = {"x": x, "y": y}
        return y

    def _spare(self, x):
        """The last forward's output, if `Network.forward` may reuse it."""
        y = self.cache.get("y")
        if (isinstance(y, np.ndarray) and y.flags.owndata and y.flags.c_contiguous
                and y.dtype == np.float64 and not np.may_share_memory(y, x)):
            return y
        return None

    def trace(self) -> dict:
        """Analysis view of the last forward pass (`Network.traces`)."""
        if "x" not in self.cache:
            raise StateError("no trace before a forward pass")
        return {"kind": self.kind, "input": self.cache["x"], "output": self.cache["y"]}


def _check_images(x: np.ndarray) -> None:
    if x.ndim != 5:
        raise ShapeError(f"expected a (T, B, C, H, W) input, got shape {x.shape}")


# One contraction per layer family, shared by its float and quantized
# member.  A weight is shared over time, (O, I) or (O, C, k, k), and its
# gradient summed over time, or has a leading T axis.  `scale` is a
# quantized layer's alpha, or None.  `_contract` scales its product and
# `_contract_grads` the upstream gradient (the conv each timestep's
# (O, B, H', W') product, where a channel is one long run), and returns
# the weight gradient and, if `input_grad`, the input gradient, else None.

class _LinearContraction:
    def _contract(self, x: np.ndarray, w: np.ndarray, scale: np.ndarray | None,
                  out: np.ndarray | None = None) -> np.ndarray:
        """(T, B, I) times (O, I) or (T, O, I) -> (T, B, O)."""
        if x.shape[-1] != w.shape[-1]:
            raise ShapeError(f"input width {x.shape[-1]} != weight width {w.shape[-1]}")
        y = np.matmul(x, np.swapaxes(w, -1, -2), out=_into(out, (*x.shape[:-1], w.shape[-2])))
        return y if scale is None else np.multiply(y, scale, out=y)

    def _contract_grads(self, gout: np.ndarray, x: np.ndarray, w: np.ndarray,
                        scale: np.ndarray | None, input_grad: bool):
        if scale is not None:
            gout *= scale
        if w.ndim == 3:
            gw = np.swapaxes(gout, -1, -2) @ x
        else:  # the T products added in time order, as (T, O, I).sum(axis=0) does
            gw, prod = gout[0].T @ x[0], np.empty(w.shape)
            for t in range(1, x.shape[0]):
                gw += np.matmul(gout[t].T, x[t], out=prod)
        return gw, (gout @ w if input_grad else None)


def _windows(a: np.ndarray, k: int, stride: int, out_hw: tuple[int, int]):
    """The k*k strided views of a padded (C, B, H, W) array, one per kernel
    offset (i, j) in weight order, each shaped (C, B, H', W')."""
    h, w = out_hw
    for i in range(k):
        for j in range(k):
            yield a[:, :, i:i + stride * h:stride, j:j + stride * w:stride]


class _ConvContraction:
    """Each timestep is one BLAS product over the whole batch.  Its images,
    padded in (C, B, H, W) order, are unrolled into a (C*k*k, B*H'*W')
    patch matrix whose rows follow weight.reshape(O, C*k*k).  The backward
    pass rebuilds a timestep's patches rather than caching them: they are
    k*k times the size of its input."""

    def _step_patches(self, x: np.ndarray, k: int, out_hw: tuple[int, int]):
        """Yield each timestep's patch matrix, refilling one buffer."""
        T, B, C, H, W = x.shape
        p = self.padding
        padded = np.zeros((C, B, H + 2 * p, W + 2 * p))
        cols = np.empty((C, k * k, B, *out_hw))
        for t in range(T):
            padded[:, :, p:p + H, p:p + W] = x[t].transpose(1, 0, 2, 3)
            for idx, win in enumerate(_windows(padded, k, self.stride, out_hw)):
                cols[:, idx] = win
            yield cols.reshape(C * k * k, -1)

    def _contract(self, x: np.ndarray, w: np.ndarray, scale: np.ndarray | None,
                  out: np.ndarray | None = None) -> np.ndarray:
        """(T, B, C, H, W) convolved with (O, C, k, k) or (T, O, C, k, k)
        -> (T, B, O, H', W')."""
        _check_images(x)
        if x.shape[2] != w.shape[-3]:
            raise ShapeError(f"input channels {x.shape[2]} != weight channels {w.shape[-3]}")
        T, B, C = x.shape[:3]
        O, k = w.shape[-4], w.shape[-1]
        hp, wp = (n + 2 * self.padding for n in x.shape[3:])
        out_hw = ((hp - k) // self.stride + 1, (wp - k) // self.stride + 1)
        if min(out_hw) < 1:
            raise ShapeError(f"kernel {k} exceeds the padded input {(hp, wp)}")
        w2 = np.broadcast_to(w.reshape(-1, O, C * k * k), (T, O, C * k * k))  # per timestep
        y, prod = _into(out, (T, B, O, *out_hw)), np.empty((O, B, *out_hw))
        for t, cols in enumerate(self._step_patches(x, k, out_hw)):
            np.matmul(w2[t], cols, out=prod.reshape(O, -1))
            if scale is not None:
                prod *= scale[t].reshape(O, 1, 1, 1)
            y[t] = prod.transpose(1, 0, 2, 3)
        return y

    def _contract_grads(self, gout: np.ndarray, x: np.ndarray, w: np.ndarray,
                        scale: np.ndarray | None, input_grad: bool):
        T, B, O, *out_hw = gout.shape
        C, H, W = x.shape[2:]
        k, p = w.shape[-1], self.padding
        w2 = np.broadcast_to(w.reshape(-1, O, C * k * k), (T, O, C * k * k))  # per timestep
        gw, g = np.empty((T, O, C * k * k)), np.empty((O, B, *out_hw))
        gx = None
        if input_grad:
            gx, gpad = np.empty(x.shape), np.empty((C, B, H + 2 * p, W + 2 * p))
            gcols = np.empty((C, k * k, B, *out_hw))
        for t, cols in enumerate(self._step_patches(x, k, out_hw)):
            if scale is None:
                g[...] = gout[t].transpose(1, 0, 2, 3)
            else:  # scaled in the transposing copy, not in a copy of all of gout
                np.multiply(gout[t].transpose(1, 0, 2, 3), scale[t].reshape(O, 1, 1, 1), out=g)
            np.matmul(g.reshape(O, -1), cols.T, out=gw[t])
            if not input_grad:
                continue
            np.matmul(w2[t].T, g.reshape(O, -1), out=gcols.reshape(C * k * k, -1))
            gpad.fill(0.0)
            for idx, win in enumerate(_windows(gpad, k, self.stride, out_hw)):
                win += gcols[:, idx]
            gx[t] = gpad[:, :, p:p + H, p:p + W].transpose(1, 0, 2, 3)
        return (gw.sum(axis=0) if w.ndim == 4 else gw).reshape(w.shape), gx


class WeightedLayer(Layer):
    """A layer with one trainable tensor, drawn Kaiming-uniform, that its
    family's contraction applies to the input: y = contract(x, w) * scale
    + bias.  A member gives w and its scale, or None (`_weight`), and takes
    the gradient of w (`_weight_grad`); the bias, if any, is params["bias"]."""

    def __init__(self, name: str, shape: tuple[int, ...], fan_in: int,
                 rng: np.random.Generator | None) -> None:
        super().__init__()
        bound = np.sqrt(6.0 / fan_in)
        self.params[name] = (rng or np.random.default_rng(0)).uniform(
            -bound, bound, size=shape)

    def _weight(self, x: np.ndarray | None = None):
        """The weight and scale to contract with: a forward passes its
        input, the backward nothing."""
        return self.params["weight"], None

    def _weight_grad(self, gw: np.ndarray) -> None:
        self.grads["weight"] = gw

    def infer(self, x, out=None):
        w, scale = self._weight(x)
        y = self._contract(x, w, scale, out)
        if "bias" in self.params:
            y += self.params["bias"]
        return y

    def backward(self, gout, input_grad=True):
        w, scale = self._weight()
        if "bias" in self.params:  # before _contract_grads may scale gout in place
            self.grads["bias"] = gout.sum(axis=(0, 1))
        gw, gx = self._contract_grads(gout, self.cache["x"], w, scale, input_grad)
        self._weight_grad(gw)
        return gx


class Linear(_LinearContraction, WeightedLayer):
    """Plain float linear layer, y[t] = x[t] @ W.T + b."""

    kind = "linear"

    def __init__(self, in_features: int, out_features: int, *,
                 bias: bool = True, rng: np.random.Generator | None = None) -> None:
        super().__init__("weight", (out_features, in_features), in_features, rng)
        if bias:
            self.params["bias"] = np.zeros(out_features)


class Conv2d(_ConvContraction, WeightedLayer):
    kind = "conv"

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, *,
                 stride: int = 1, padding: int = 0,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__("weight", (out_channels, in_channels, kernel_size, kernel_size),
                         in_channels * kernel_size * kernel_size, rng)
        self.stride, self.padding = stride, padding

    def trace(self):
        t = super().trace()
        t["weight_shape"] = self.params["weight"].shape
        return t


class QuantizedLayer(WeightedLayer):
    """A weighted layer whose weight carries a time axis.  The trainable
    parameter is the stimulus tensor; each forward quantizes it into a
    (T, *weight shape) integer stack plus a per-timestep per-channel scale
    alpha, a detached statistic of the emitted weights with no gradient of
    its own, applied after the contraction so binary input sums exactly."""

    def __init__(self, shape: tuple[int, ...], fan_in: int, quant: QuantConfig,
                 rng: np.random.Generator | None) -> None:
        super().__init__("stimulus", shape, fan_in, rng)
        self.quant = quant
        self.state: QuantizerState | None = None
        self.alpha: np.ndarray | None = None
        self._quantized_stimulus: np.ndarray | None = None  # the state's source

    def materialize(self) -> None:
        """Quantize the stimulus into weights and scales, unless the held
        state was made from a stimulus equal to the current one under the
        same config.  The stimulus is compared by value against a private
        copy, because parameters may be written in place; the copy is taken
        only once quantizing has succeeded, so a stimulus that raised raises
        again."""
        stimulus = self.params["stimulus"]
        if (self.state is not None and self.state.cfg == self.quant
                and np.array_equal(stimulus, self._quantized_stimulus)):
            return
        i_norm = normalize_stimulus(stimulus, self.quant.epsilon)
        self.state = tawq_forward(i_norm, self.quant)
        self.alpha = compute_scaling_all(self.state)
        self._quantized_stimulus = np.array(stimulus, dtype=np.float64)

    def _weight(self, x=None):
        """The (T, C_o, ...) weight stack, materialized for a forward, and
        alpha (T, C_o) shaped to broadcast against the (T, B, C_o, ...)
        output, which has as many axes as the stack."""
        if x is not None:
            if x.shape[0] != self.quant.timesteps:
                raise ShapeError(f"expected {self.quant.timesteps} timesteps, "
                                 f"got input with {x.shape[0]}")
            self.materialize()
        elif self.state is None:
            raise StateError("backward called before forward")
        w_q = self.state.w_q
        return w_q, self.alpha.reshape(self.alpha.shape[0], 1, -1, *(1,) * (w_q.ndim - 3))

    def _weight_grad(self, g_wq):
        g_inorm = tawq_backward(g_wq, self.state)
        self.grads["stimulus"] = normalize_backward(
            g_inorm, self.state.i_norm, self.params["stimulus"], self.quant.epsilon)

    def trace(self):
        t = super().trace()
        t.update(alpha=self.alpha, w_q=self.state.w_q, n_level=self.quant.n_level)
        return t


class QuantLinear(_LinearContraction, QuantizedLayer):
    """Linear layer whose weights come from the temporal quantizer."""

    kind = "qlinear"

    def __init__(self, in_features: int, out_features: int, quant: QuantConfig, *,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__((out_features, in_features), in_features, quant, rng)


class QuantConv2d(_ConvContraction, QuantizedLayer):
    """2-D convolution whose kernels come from the temporal quantizer."""

    kind = "qconv"

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 quant: QuantConfig, *, stride: int = 1, padding: int = 0,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__((out_channels, in_channels, kernel_size, kernel_size),
                         in_channels * kernel_size * kernel_size, quant, rng)
        self.stride, self.padding = stride, padding


def _add_row_sums(sums, i, blk, values):
    """Add a (n, C, S) slab to sums[i]: its row sums over S into (k, R, C)
    sums, or all of it into (k, C) sums for the one slab of S <= 1."""
    if sums.ndim == 2:
        values.sum(axis=(0, 2), out=sums[i])
    else:
        values.sum(axis=2, out=sums[i, blk])


class BatchNorm(Layer):
    """Channel batch norm over time, batch, and spatial positions.

    `forward` trains: batch statistics, running averages updated with
    momentum 0.1, and the cache `backward` needs.  `infer` applies the
    running-statistics affine in place.

    The kernels of BatchNorm, LIF and AvgPool2d run in place, one numpy
    operation per step of the formula, and perform its floating-point
    operations in the order of the plain formula tests/test_layers.py pins,
    so they equal it under np.array_equal (but for the sign of a zero or a
    NaN).  BatchNorm walks (T*B, C, S) rows, S the spatial size, in
    `quantizer.blocks` slabs of whole rows that stay in L2, so a loop over
    the slabs passes once over memory.  A channel's sum is each row's sum
    over S, the row sums added in row order: numpy's order for
    x.sum(axis=(0, 1, 3, 4)) of a C-ordered x or a batch slice of one.  A
    (T, B, C) input is one slab, its mean numpy's reduction of x itself.
    """

    kind = "bn"
    momentum = 0.1
    eps = 1e-5

    def __init__(self, channels: int) -> None:
        super().__init__()
        self.channels = channels
        self.params["gamma"] = np.ones(channels)
        self.params["beta"] = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def _rows(self, a):
        """a as (T*B, C, S) rows, a C-order copy if no view has that shape;
        one channel is one row, as numpy sums it as one run."""
        if a.ndim < 3 or a.shape[2] != self.channels:
            raise ShapeError(f"expected {self.channels} channels on axis 2, "
                             f"got input shape {a.shape}")
        R, S = a.shape[0] * a.shape[1], math.prod(a.shape[3:])
        return a.reshape((1, 1, R * S) if self.channels == 1 else (R, self.channels, S))

    def _slabs(self, rows, *scratch):
        """Each slab's slice of rows, with the flat `scratch` cut to its shape."""
        R, C, S = rows.shape
        walk = blocks(R, *scratch, row=C * S) if S > 1 else [(slice(0, R), scratch)]
        for blk, bufs in walk:
            n = blk.stop - blk.start
            yield blk, [b[:n * C * S].reshape(n, C, S) for b in bufs]

    def _spread(self, rows, *vectors):
        """Each per-channel vector over one (C, S) row, so a slab op runs over
        whole rows: numpy broadcasts a (C, 1) over short S at half the speed."""
        C, S = rows.shape[1:]
        return [v.reshape(C, 1) if C == 1 or S <= 1 else np.repeat(v, S).reshape(C, S)
                for v in vectors]

    def _normalize(self, rows, xhat, y, std, mean=None):
        """Per slab: xhat = rows - mean (with no mean, xhat holds it), then
        xhat /= std and y = xhat * gamma + beta; xhat and y may be rows."""
        std, gamma, beta = self._spread(rows, std, self.params["gamma"], self.params["beta"])
        mean = None if mean is None else self._spread(rows, mean)[0]
        for blk, _ in self._slabs(rows):
            xh, yb = xhat[blk], y[blk]
            if mean is not None:
                np.subtract(rows[blk], mean, out=xh)
            xh /= std
            np.multiply(xh, gamma, out=yb)
            yb += beta

    def forward(self, x):
        rows = self._rows(x)  # centred and scaled in place into xhat
        R, C, S = rows.shape
        y = _into(self._spare(x), x.shape)
        mean = x.mean(axis=(0, 1, *range(3, x.ndim)))
        mean_row, = self._spread(rows, mean)
        # np.var's own steps on the centred data: square, sum, divide; the
        # squares go to y's first slab, which _normalize then overwrites
        sums = np.empty((1, C) if S <= 1 else (1, R, C))
        for blk, (sq,) in self._slabs(rows, y.reshape(-1)):
            xh = np.subtract(rows[blk], mean_row, out=rows[blk])
            _add_row_sums(sums, 0, blk, np.multiply(xh, xh, out=sq))
        var = (sums[0] if S <= 1 else sums[0].sum(axis=0)) / (R * S)
        self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
        self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        std = np.sqrt(var + self.eps)
        self._normalize(rows, rows, y.reshape(rows.shape), std)
        self.cache = {"x": x, "y": y, "xhat": rows.reshape(x.shape), "std": std}
        return y

    def infer(self, x, out=None):  # in place: out is unused
        rows = self._rows(x)
        self._normalize(rows, rows, rows, np.sqrt(self.running_var + self.eps), self.running_mean)
        return rows.reshape(x.shape)

    def backward(self, gout, input_grad=True):
        if "xhat" not in self.cache:
            raise StateError("backward needs a training-mode forward")
        g, xhat = self._rows(gout), self._rows(self.cache["xhat"])
        R, C, S = g.shape
        std, gamma = self._spread(g, self.cache["std"], self.params["gamma"])
        gx = g if input_grad else None  # g_scaled, then the input gradient
        scratch = np.empty(g.size if S <= 1 else min(g.size, max(BLOCK, C * S)))
        # the gamma and beta grads, then sum(g_scaled) and sum(g_scaled * xhat)
        k = 4 if input_grad else 2
        sums = np.empty((k, C) if S <= 1 else (k, R, C))
        for blk, (sc,) in self._slabs(g, scratch):
            gb, xh = g[blk], xhat[blk]
            _add_row_sums(sums, 0, blk, np.multiply(gb, xh, out=sc))
            _add_row_sums(sums, 1, blk, gb)
            if input_grad:
                gs = np.multiply(gb, gamma, out=gx[blk])  # g_scaled
                _add_row_sums(sums, 2, blk, gs)
                _add_row_sums(sums, 3, blk, np.multiply(gs, xh, out=sc))
        totals = sums if S <= 1 else sums.sum(axis=1)
        self.grads["gamma"], self.grads["beta"] = totals[0], totals[1]
        if input_grad:
            # g_scaled - mean(g_scaled) - xhat * mean(g_scaled * xhat)
            m_g, m_gx = self._spread(g, *totals[2:] / (R * S))
            for blk, (sc,) in self._slabs(g, scratch):
                gxb = gx[blk]
                gxb -= m_g
                gxb -= np.multiply(xhat[blk], m_gx, out=sc)
                gxb /= std
        return None if gx is None else gx.reshape(gout.shape)


class LIF(Layer):
    """Leaky integrate-and-fire neuron with hard reset.  It scales its input
    current by 1/tau before `lif_charge`, so a fold of the scale and batch
    norm into the charging path is exact at inference."""

    kind = "lif"

    def __init__(self, cfg: LifConfig | None = None) -> None:
        super().__init__()
        self.cfg = cfg or LifConfig()

    def forward(self, x):
        ss = self.infer(x, self._spare(x))
        self.cache = {"x": x, "y": ss, "u": x}
        return ss

    def infer(self, x, out=None):
        x /= self.cfg.tau  # x is left holding the membrane
        return lif_charge(x, self.cfg, out)

    def backward(self, gout):
        cfg, k = self.cfg, self.cfg.sg_scale_neuron
        decay = 1.0 - 1.0 / cfg.tau
        T, size = gout.shape[0], int(np.prod(gout.shape[1:]))
        # gx is written over gout, a copy if no view is (T, size)
        flat_u, flat_s, flat_g = (a.reshape(T, size) for a in (
            self.cache["u"], self.cache["y"], gout))
        bufs = [np.empty(min(size, BLOCK)) for _ in range(3)]
        for blk, (ds, scratch, gu_carry) in blocks(size, *bufs):
            gu_carry.fill(0.0)
            for t in range(T - 1, -1, -1):
                u, s, gu = flat_u[t, blk], flat_s[t, blk], flat_g[t, blk]
                # ds = k * sigmoid'(k * (u - v_threshold))
                np.subtract(u, cfg.v_threshold, out=ds)
                _sigmoid_deriv(ds, k, scratch)
                ds *= k
                # gu = gout[t] * ds + gu_carry * ((1 - s) + (v_reset - u) * ds)
                gu *= ds
                np.subtract(cfg.v_reset, u, out=scratch)
                scratch *= ds
                np.subtract(1.0, s, out=ds)  # ds is spent: it takes 1 - s
                scratch += ds
                scratch *= gu_carry
                gu += scratch
                np.multiply(gu, decay, out=gu_carry)
                gu /= cfg.tau  # gx[t]
        return flat_g.reshape(gout.shape)


class AvgPool2d(Layer):
    kind = "pool"

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def infer(self, x, out=None):
        k = self.kernel_size
        _check_images(x)
        T, B, C, H, W = x.shape
        if H % k or W % k:
            raise ShapeError(f"spatial dims {(H, W)} not divisible by pool size {k}")
        v = x.reshape(T, B, C, H // k, k, W // k, k)
        shape = (T, B, C, H // k, W // k)
        if W == k or k >= 8 or not x.flags.c_contiguous:
            # numpy's mean sums these windows as one run, pairwise, or in
            # stride order, which its own output's layout sets: keep its order
            y = v.mean(axis=(4, 6), out=_into(out, shape) if x.flags.c_contiguous else None)
        else:
            # numpy's mean order: each window row summed, then the rows
            y, row = _into(out, shape), np.empty(shape)
            for i in range(k):
                acc = row if i else y
                np.copyto(acc, v[..., i, :, 0])
                for j in range(1, k):
                    acc += v[..., i, :, j]
                if i:
                    y += row
            y /= k * k
        return y

    def backward(self, gout):
        k = self.kernel_size
        T, B, C, h, w = gout.shape
        # widen each row k times, then copy it to the k rows of its windows
        g = np.empty((T, B, C, h, k, w * k))
        gout /= k * k
        g[...] = np.repeat(gout, k, axis=4)[:, :, :, :, None, :]
        return g.reshape(T, B, C, h * k, w * k)


class Flatten(Layer):
    kind = "flatten"

    def infer(self, x, out=None):  # a view: out is unused
        return x.reshape(*x.shape[:2], -1)

    def backward(self, gout):
        return gout.reshape(self.cache["x"].shape)


# bench/tracer.py times only the methods found in a class's own namespace
for _cls in (Linear, Conv2d, QuantLinear, QuantConv2d, AvgPool2d, Flatten):
    for _name in ("forward", "backward", "materialize"):
        if hasattr(_cls, _name):
            setattr(_cls, _name, getattr(_cls, _name))
del _cls, _name


class Network:
    """Feed-forward stack whose logits are its last output's mean over time."""

    def __init__(self, layers: list[Layer]) -> None:
        self.layers = layers
        self._shape: tuple | None = None  # the input shape of the last forward; None if it raised

    def walk(self):
        """Each layer with the range of indices, in the unfolded network,
        of the layers it stands for: its own, or a folded block's."""
        i = 0
        for layer in self.layers:
            yield range(i, i + len(layer.replaces)), layer
            i += len(layer.replaces)

    def _run(self, h, step, order=iter):
        """h passed through step(layer, h) of each layer in turn, in `order`;
        an error is prefixed with the index and kind of the layer that raised it."""
        for idx, layer in order(list(self.walk())):
            try:
                h = step(layer, h)
            except TawqError as exc:
                raise type(exc)(f"layer {idx[0]} ({layer.replaces[0]}): {exc}") from exc
        return h

    def _owned_run(self, x, run):
        """x through run(layer, h) of each layer, which may write into h.
        The one copy rule: BatchNorm and LIF write into their input, so they
        are handed a copy of one read elsewhere, the caller's x or spikes,
        directly or through Flatten's view.  Every other array is read by
        no one after the layer it is handed to: a BatchNorm's or weighted
        layer's output, or a pool's."""
        def step(layer, carry):
            h, shared = carry
            if shared and isinstance(layer, (BatchNorm, LIF)):
                h = h.copy()
            return (run(layer, h),
                    layer.replaces[-1] == "lif" or (shared and isinstance(layer, Flatten)))
        return self._run((np.asarray(x, dtype=np.float64), True), step)[0]

    def _drop_traces(self) -> None:
        for layer in self.layers:
            layer.cache = {}
        self._shape = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """The logits, by `_owned_run` through each layer's `forward` (an
        eval BatchNorm's `infer`), each layer's cache keeping a trace: what
        it was handed and returned, by reference.  A trace is valid until
        the next forward, which writes each output into the array the
        layer's last trace holds if the layer allocated it (`Layer._spare`),
        so one batch of activations is held, not two; `infer` allocates.
        The input of a BatchNorm or LIF, and an output that feeds one, hold
        what its in-place kernel left; every other trace array its value.
        The traces are dropped before the first layer runs if x's shape
        differs from the last forward's or x overlaps a trace's output, and
        all of them if the forward raises, so `traces` and `backward` refuse."""
        def step(layer, h):
            if training or not isinstance(layer, BatchNorm):
                return layer.forward(h)
            layer.cache = {"x": h, "y": layer.infer(h)}  # BatchNorm's forward trains
            return layer.cache["y"]
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self._shape or any(np.may_share_memory(x, layer.cache.get("y", 0))
                                         for layer in self.layers):
            self._drop_traces()
        try:
            h = self._owned_run(x, step)
        except BaseException:
            self._drop_traces()
            raise
        self._shape = x.shape
        return h.mean(axis=0)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """The eval logits of these layers, or of a fold plan, whose folded
        blocks (`runtime.FoldedBlock`) are layers that keep their membrane."""
        return self._owned_run(x, lambda layer, h: layer.infer(h)).mean(axis=0)

    def backward(self, glogits: np.ndarray) -> None:
        """Backpropagate the logits' gradient into each layer's `grads`.
        Each gradient array is held by one layer only, which may write into
        it: the walk starts from a fresh copy, no layer keeps a reference to
        its `gout`, and Flatten returns a view of one nobody else holds.  No
        backward writes into a cache, so a second call gives the same
        gradients.  Layer 0 computes no input gradient: no caller reads it."""
        if self._shape is None:
            raise StateError("backward called before forward")
        T = self._shape[0]
        g = np.broadcast_to(glogits / T, (T,) + glogits.shape).copy()
        def step(layer, g):
            if layer is not self.layers[0]:
                return layer.backward(g)
            return layer.backward(g, input_grad=False) if layer.params else None
        self._run(g, step, reversed)

    def traces(self) -> list[dict]:
        """Each layer's `trace` of the last `forward`."""
        return self._run([], lambda layer, traces: traces + [layer.trace()])

    def named_params(self):
        for i, layer in enumerate(self.layers):
            for name, value in layer.params.items():
                yield f"{i}.{name}", layer, name, value

    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.grads = {}
