"""Spiking network layers evaluated over a leading time axis.

Every layer consumes and produces arrays shaped (T, B, ...) and caches
whatever its backward pass needs.  Quantized layers draw their integer
weights from the temporal quantizer on each forward pass, and reuse the
weights they hold while the stimulus equals, by value, the one those
weights were made from under the same config.  A convolution runs one
BLAS product per timestep over the whole batch.  The LIF neuron scales
its input by 1/tau and runs `lif_charge`, the one membrane update over
time, which the folded runtime runs too.  Both LIF time loops run all T
steps over one `quantizer.BLOCK` of neurons before the next.

A "relaxed" evaluation mode replaces the hard spike with its surrogate
sigmoid so the whole forward becomes differentiable; it exists solely to
validate analytic gradients against finite differences.

The elementwise kernels of BatchNorm, LIF and AvgPool2d run in place on
buffers they allocate themselves, one numpy operation per step of the
formula and no temporary per operator.  They never write into their
inputs or into an array another layer holds in its cache.  Each performs
the same floating-point operations, in the same order, as the plain
formula that tests/test_layers.py pins, so its results are equal to it
under np.array_equal (only the sign of a zero or of a NaN may differ).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, StateError, TawqError, require
from .quantizer import (
    BLOCK,
    QuantConfig,
    QuantizerState,
    _sigmoid,
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


def lif_charge(us: np.ndarray, cfg: LifConfig, relaxed: bool = False) -> np.ndarray:
    """Run the hard-reset LIF neuron over the leading time axis; returns the spikes.

    `us[t]` holds step t's scaled input current and is overwritten in place
    with the membrane before reset, U[t] = us[t] + (1 - 1/tau) * u, where u
    is the membrane after step t-1's reset.  A spike fires when
    U[t] >= v_threshold (relaxed: the surrogate sigmoid of U[t] - v_threshold),
    and the membrane resets to v_reset * s + U[t] * (1 - s).
    """
    decay = 1.0 - 1.0 / cfg.tau
    T, size = us.shape[0], int(np.prod(us.shape[1:]))
    ss = np.empty(us.shape)
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
            if relaxed:
                st[...] = _sigmoid(cfg.sg_scale_neuron * (ut - cfg.v_threshold))
            else:
                np.greater_equal(ut, cfg.v_threshold, out=fired)
                st[...] = fired
            # u = v_reset * s + u * (1 - s); for v_reset == +-0 the first
            # term is v_reset itself (s >= 0), which saves a pass and a buffer
            np.subtract(1.0, st, out=u)
            u *= ut
            if cfg.v_reset:
                np.multiply(st, cfg.v_reset, out=scratch)
                u += scratch
            else:
                u += cfg.v_reset
    if not us.flags.c_contiguous:  # flat_u was a copy
        us[...] = flat_u.reshape(us.shape)
    return ss


class Layer:
    """Base layer: float64 params in `params`, matching grads in `grads`."""

    kind = "layer"

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.cache: dict = {}

    def trace(self) -> dict:
        """Analysis view of the last forward pass."""
        return {"kind": self.kind,
                "input": self.cache.get("x"),
                "output": self.cache.get("y")}


def _check_images(x: np.ndarray) -> None:
    if x.ndim != 5:
        raise ShapeError(f"expected a (T, B, C, H, W) input, got shape {x.shape}")


# One contraction per layer family, shared by its float and quantized
# member.  A weight is either shared over time, (O, I) or (O, C, k, k), or
# per timestep with a leading T axis; a shared weight's gradient is summed
# over time.  Activations stay C-contiguous (T, B, ...).  `_contract_grads`
# multiplies the upstream gradient by `scale` (a quantized layer's alpha,
# or None) and returns the weight gradient and, if `input_grad`, the input
# gradient, else None.

class _LinearContraction:
    def _contract(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """(T, B, I) times (O, I) or (T, O, I) -> (T, B, O)."""
        if x.shape[-1] != w.shape[-1]:
            raise ShapeError(f"input width {x.shape[-1]} != weight width {w.shape[-1]}")
        return x @ np.swapaxes(w, -1, -2)

    def _contract_grads(self, gout: np.ndarray, x: np.ndarray, w: np.ndarray,
                        scale: np.ndarray | None, input_grad: bool):
        if scale is not None:
            gout = gout * scale
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

    def _contract(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
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
        y, prod = np.empty((T, B, O, *out_hw)), np.empty((O, B, *out_hw))
        for t, cols in enumerate(self._step_patches(x, k, out_hw)):
            np.matmul(w2[t], cols, out=prod.reshape(O, -1))
            y[t] = prod.transpose(1, 0, 2, 3)
        return y

    def _contract_grads(self, gout: np.ndarray, x: np.ndarray, w: np.ndarray,
                        scale: np.ndarray | None, input_grad: bool):
        T, B, O, *out_hw = gout.shape
        C, H, W = x.shape[2:]
        k, p = w.shape[-1], self.padding
        w2 = np.broadcast_to(w.reshape(-1, O, C * k * k), (T, O, C * k * k))  # per timestep
        gw, g = np.empty((T, O, C * k * k)), np.empty((O, B, *out_hw))
        g_bo = g.transpose(1, 0, 2, 3)  # g in gout[t]'s (B, O, H', W') order
        gx = None
        if input_grad:
            gx, gpad = np.empty(x.shape), np.empty((C, B, H + 2 * p, W + 2 * p))
            gcols = np.empty((C, k * k, B, *out_hw))
        for t, cols in enumerate(self._step_patches(x, k, out_hw)):
            if scale is None:
                g_bo[...] = gout[t]
            else:  # scaled in the transposing copy, not in a copy of all of gout
                np.multiply(gout[t], scale[t], out=g_bo)
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

    def forward(self, x, training=False, relaxed=False):
        w, scale = self._weight(x)
        y = self._contract(x, w)
        if scale is not None:
            y *= scale
        if "bias" in self.params:
            y += self.params["bias"]
        self.cache = {"x": x, "y": y}
        return y

    def backward(self, gout, input_grad=True):
        w, scale = self._weight()
        gw, gx = self._contract_grads(gout, self.cache["x"], w, scale, input_grad)
        self._weight_grad(gw)
        if "bias" in self.params:
            self.grads["bias"] = gout.sum(axis=(0, 1))
        return gx


class Linear(_LinearContraction, WeightedLayer):
    """Plain float linear layer, y[t] = x[t] @ W.T + b."""

    kind = "linear"

    def __init__(self, in_features: int, out_features: int, *,
                 bias: bool = True, rng: np.random.Generator | None = None) -> None:
        super().__init__("weight", (out_features, in_features), in_features, rng)
        if bias:
            self.params["bias"] = np.zeros(out_features)

    # bench/tracer.py times the methods found in each class's own namespace
    forward = WeightedLayer.forward
    backward = WeightedLayer.backward


class Conv2d(_ConvContraction, WeightedLayer):
    kind = "conv"

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, *,
                 stride: int = 1, padding: int = 0,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__("weight", (out_channels, in_channels, kernel_size, kernel_size),
                         in_channels * kernel_size * kernel_size, rng)
        self.stride, self.padding = stride, padding

    # bench/tracer.py times the methods found in each class's own namespace
    forward = WeightedLayer.forward
    backward = WeightedLayer.backward

    def trace(self):
        t = super().trace()
        t["weight_shape"] = self.params["weight"].shape
        return t


class QuantizedLayer(WeightedLayer):
    """A weighted layer whose weight carries a time axis.

    The trainable parameter is the stimulus tensor; each forward pass
    quantizes it into a (T, *weight shape) integer stack plus a
    per-timestep per-channel scale alpha.  The scale is a detached
    statistic of the emitted weights and carries no gradient of its own.
    It is applied after the contraction, so binary input sums exactly.
    """

    def __init__(self, shape: tuple[int, ...], fan_in: int, quant: QuantConfig,
                 rng: np.random.Generator | None) -> None:
        super().__init__("stimulus", shape, fan_in, rng)
        self.quant = quant
        self.state: QuantizerState | None = None
        self.alpha: np.ndarray | None = None
        self._quantized_stimulus: np.ndarray | None = None  # the state's source

    def materialize(self) -> None:
        """Quantize the stimulus into weights and scales.

        Returns early when the held state was made from a stimulus equal
        to the current one under the same config.  The stimulus is
        compared by value against a private copy, because parameters may
        be written in place; the copy is taken only once quantizing has
        succeeded, so a stimulus that raised raises again.
        """
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
        if self.state is None:
            raise StateError("no trace before a forward pass")
        t = super().trace()
        t.update(alpha=self.alpha, w_q=self.state.w_q, n_level=self.quant.n_level)
        return t


class QuantLinear(_LinearContraction, QuantizedLayer):
    """Linear layer whose weights come from the temporal quantizer."""

    kind = "qlinear"

    def __init__(self, in_features: int, out_features: int, quant: QuantConfig, *,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__((out_features, in_features), in_features, quant, rng)

    # bench/tracer.py times the methods found in each class's own namespace
    materialize = QuantizedLayer.materialize
    forward = WeightedLayer.forward
    backward = WeightedLayer.backward


class QuantConv2d(_ConvContraction, QuantizedLayer):
    """2-D convolution whose kernels come from the temporal quantizer."""

    kind = "qconv"

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 quant: QuantConfig, *, stride: int = 1, padding: int = 0,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__((out_channels, in_channels, kernel_size, kernel_size),
                         in_channels * kernel_size * kernel_size, quant, rng)
        self.stride, self.padding = stride, padding

    # bench/tracer.py times the methods found in each class's own namespace
    materialize = QuantizedLayer.materialize
    forward = WeightedLayer.forward
    backward = WeightedLayer.backward


class BatchNorm(Layer):
    """Channel batch norm over time, batch, and spatial positions.

    Training mode uses batch statistics and updates running averages with
    momentum 0.1; inference mode applies the frozen affine map.
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

    def _axes(self, x):
        # channel axis is 2 for both (T,B,C) and (T,B,C,H,W)
        return tuple(i for i in range(x.ndim) if i != 2)

    def _cshape(self, x):
        return (1, 1, self.channels) + (1,) * (x.ndim - 3)

    def forward(self, x, training=False, relaxed=False):
        if x.ndim < 3 or x.shape[2] != self.channels:
            raise ShapeError(f"expected {self.channels} channels on axis 2, "
                             f"got input shape {x.shape}")
        axes, cs = self._axes(x), self._cshape(x)
        if training:
            mean = x.mean(axis=axes)
            xhat = x - mean.reshape(cs)
            # np.var's own steps on the centred data: square, sum, divide
            y = np.multiply(xhat, xhat)
            var = y.sum(axis=axes) / (x.size // x.shape[2])
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean, var = self.running_mean, self.running_var
            xhat = x - mean.reshape(cs)
            y = np.empty_like(xhat)
        std = np.sqrt(var + self.eps)
        xhat /= std.reshape(cs)
        np.multiply(xhat, self.params["gamma"].reshape(cs), out=y)
        y += self.params["beta"].reshape(cs)
        self.cache = {"x": x, "y": y, "xhat": xhat, "std": std, "training": training}
        return y

    def backward(self, gout, input_grad=True):
        xhat, std = self.cache["xhat"], self.cache["std"]
        axes, cs = self._axes(gout), self._cshape(gout)
        scratch = np.multiply(gout, xhat)
        self.grads["gamma"] = scratch.sum(axis=axes)
        self.grads["beta"] = gout.sum(axis=axes)
        if not input_grad:
            return None
        gx = np.multiply(gout, self.params["gamma"].reshape(cs))  # g_scaled
        if self.cache["training"]:
            # g_scaled - mean(g_scaled) - xhat * mean(g_scaled * xhat)
            np.multiply(gx, xhat, out=scratch)
            m_gx = scratch.mean(axis=axes).reshape(cs)
            gx -= gx.mean(axis=axes).reshape(cs)
            np.multiply(xhat, m_gx, out=scratch)
            gx -= scratch
        gx /= std.reshape(cs)
        return gx


class LIF(Layer):
    """Leaky integrate-and-fire neuron with hard reset.

    The layer scales its input current by 1/tau (charging equation) before
    the membrane update, `lif_charge`, so folding scale/BN parameters into
    the charging path is exact at inference.
    """

    kind = "lif"

    def __init__(self, cfg: LifConfig | None = None) -> None:
        super().__init__()
        self.cfg = cfg or LifConfig()

    def forward(self, x, training=False, relaxed=False):
        us = x / self.cfg.tau  # lif_charge turns us[t] into the membrane U[t]
        ss = lif_charge(us, self.cfg, relaxed)
        self.cache = {"x": x, "y": ss, "u": us}
        return ss

    def backward(self, gout):
        cfg, k = self.cfg, self.cfg.sg_scale_neuron
        decay = 1.0 - 1.0 / cfg.tau
        gx = np.empty(gout.shape)
        T, size = gout.shape[0], int(np.prod(gout.shape[1:]))
        flat_u, flat_s, flat_g, flat_gx = (a.reshape(T, size) for a in (
            self.cache["u"], self.cache["y"], gout, gx))
        bufs = [np.empty(min(size, BLOCK)) for _ in range(3)]
        for blk, (ds, scratch, gu_carry) in blocks(size, *bufs):
            gu_carry.fill(0.0)
            for t in range(T - 1, -1, -1):
                u, s, gu = flat_u[t, blk], flat_s[t, blk], flat_gx[t, blk]
                # ds = k * sigmoid'(k * (u - v_threshold))
                np.subtract(u, cfg.v_threshold, out=ds)
                _sigmoid_deriv(ds, k, scratch)
                ds *= k
                # gu = gout[t] * ds + gu_carry * ((1 - s) + (v_reset - u) * ds)
                np.subtract(cfg.v_reset, u, out=scratch)
                scratch *= ds
                np.subtract(1.0, s, out=gu)
                scratch += gu
                scratch *= gu_carry
                np.multiply(flat_g[t, blk], ds, out=gu)
                gu += scratch
                np.multiply(gu, decay, out=gu_carry)
                gu /= cfg.tau  # gx[t]
        return gx


class AvgPool2d(Layer):
    kind = "pool"

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x, training=False, relaxed=False):
        k = self.kernel_size
        _check_images(x)
        T, B, C, H, W = x.shape
        if H % k or W % k:
            raise ShapeError(f"spatial dims {(H, W)} not divisible by pool size {k}")
        v = x.reshape(T, B, C, H // k, k, W // k, k)
        if W == k or k >= 8 or not x.flags.c_contiguous:
            # numpy's mean sums these windows as one run, pairwise, or in
            # stride order; keep its order
            y = v.mean(axis=(4, 6))
        else:
            # numpy's mean order: each window row summed, then the rows
            out_shape = (T, B, C, H // k, W // k)
            y, row = np.empty(out_shape), np.empty(out_shape)
            for i in range(k):
                acc = row if i else y
                np.copyto(acc, v[..., i, :, 0])
                for j in range(1, k):
                    acc += v[..., i, :, j]
                if i:
                    y += row
            y /= k * k
        self.cache = {"x": x, "y": y}
        return y

    def backward(self, gout):
        k = self.kernel_size
        T, B, C, h, w = gout.shape
        # widen each row k times, then copy it to the k rows of its windows
        g = np.empty((T, B, C, h, k, w * k))
        g[...] = np.repeat(gout / (k * k), k, axis=4)[:, :, :, :, None, :]
        return g.reshape(T, B, C, h * k, w * k)


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x, training=False, relaxed=False):
        y = x.reshape(*x.shape[:2], -1)
        self.cache = {"x": x, "y": y, "shape": x.shape}
        return y

    def backward(self, gout):
        return gout.reshape(self.cache["shape"])


@contextmanager
def layer_errors(i: int, kind: str):
    """Prefix an error raised inside layer `i` with the layer's index and kind."""
    try:
        yield
    except TawqError as exc:
        raise type(exc)(f"layer {i} ({kind}): {exc}") from exc


class Network:
    """Feed-forward stack evaluated over T timesteps.

    The readout is the mean over time of the last layer's pre-activations;
    `forward` returns those logits and retains per-layer traces.
    """

    def __init__(self, layers: list[Layer]) -> None:
        self.layers = layers

    def forward(self, x: np.ndarray, training: bool = False,
                relaxed: bool = False) -> np.ndarray:
        h = np.asarray(x, dtype=np.float64)
        for i, layer in enumerate(self.layers):
            with layer_errors(i, layer.kind):
                h = layer.forward(h, training=training, relaxed=relaxed)
        self._timesteps = h.shape[0]
        return h.mean(axis=0)

    def backward(self, glogits: np.ndarray) -> None:
        """Backpropagate the logits' gradient, leaving each parameter's
        gradient in its layer's `grads`; returns nothing.  No caller reads
        the input gradient, so layer 0 computes only its parameter
        gradients (`input_grad=False`) and, if it has none, does not run."""
        g = np.broadcast_to(glogits / self._timesteps,
                            (self._timesteps,) + glogits.shape).copy()
        for layer in reversed(self.layers[1:]):
            g = layer.backward(g)
        if self.layers[0].params:
            self.layers[0].backward(g, input_grad=False)

    def traces(self) -> list[dict]:
        traces = []
        for i, layer in enumerate(self.layers):
            with layer_errors(i, layer.kind):
                traces.append(layer.trace())
        return traces

    def named_params(self):
        for i, layer in enumerate(self.layers):
            for name, value in layer.params.items():
                yield f"{i}.{name}", layer, name, value

    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.grads = {}
