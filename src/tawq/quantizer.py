"""Temporal-adaptive weight quantizer.

Core recurrence: an intermediate state ``c_s`` integrates a normalized
stimulus tensor and emits an integer weight in ``{-n..+n}`` at every
timestep.  While the emitted weight is nonzero the carried state is
decayed (fully, for the ternary case), so weights alternate between
firing and accumulating.  All math is float64 so the vectorized path is
bit-identical to a scalar reference loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, ShapeError


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
        if not 0.0 < self.lam < 1.0:
            raise ConfigError(f"lam must be in (0, 1), got {self.lam}")
        if self.c_th <= 0.0:
            raise ConfigError(f"c_th must be positive, got {self.c_th}")
        if self.n_level < 1:
            raise ConfigError(f"n_level must be >= 1, got {self.n_level}")
        if self.timesteps < 1:
            raise ConfigError(f"timesteps must be >= 1, got {self.timesteps}")
        if self.epsilon <= 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def bit_width(self) -> float:
        """Effective bit-width of the emitted weights: log2(2n + 1)."""
        return float(np.log2(2 * self.n_level + 1))


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


def normalize_stimulus(values: np.ndarray, epsilon: float) -> np.ndarray:
    """Standardize a stimulus tensor with its own global mean / population std."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ShapeError("cannot normalize an empty stimulus tensor")
    if epsilon <= 0.0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    mu = values.mean()
    var = values.var()  # population variance, all axes
    return (values - mu) / np.sqrt(var + epsilon)


def normalize_backward(grad: np.ndarray, i_norm: np.ndarray, values: np.ndarray,
                       epsilon: float) -> np.ndarray:
    """Full Jacobian-vector product of `normalize_stimulus` (mean and variance terms)."""
    std = np.sqrt(np.asarray(values, dtype=np.float64).var() + epsilon)
    return (grad - grad.mean() - i_norm * (grad * i_norm).mean()) / std


def quantize_ternary(c_s: np.ndarray, c_th: float) -> np.ndarray:
    """Threshold to {-1, 0, +1}; the boundary |c_s| == c_th maps to 0."""
    if c_th <= 0.0:
        raise ConfigError(f"c_th must be positive, got {c_th}")
    c_s = np.asarray(c_s, dtype=np.float64)
    return np.where(c_s > c_th, 1.0, np.where(c_s < -c_th, -1.0, 0.0))


def quantize_multibit(c_s: np.ndarray, n: int) -> np.ndarray:
    """Clamp to [-n, +n] then round half away from zero."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    c = np.clip(np.asarray(c_s, dtype=np.float64), -n, n)
    return np.sign(c) * np.floor(np.abs(c) + 0.5)


def _emit(c_s: np.ndarray, cfg: QuantConfig) -> np.ndarray:
    if cfg.n_level == 1:
        return quantize_ternary(c_s, cfg.c_th)
    return quantize_multibit(c_s, cfg.n_level)


def tawq_forward(i_norm: np.ndarray, cfg: QuantConfig) -> QuantizerState:
    """Run the quantizer recurrence for ``cfg.timesteps`` steps.

    With ``cfg.temporal`` off the recurrence degenerates to memoryless
    re-quantization of ``i_norm`` at every step (the WQ ablation baseline).
    """
    i_norm = np.asarray(i_norm, dtype=np.float64)
    if not np.all(np.isfinite(i_norm)):
        raise NumericError("non-finite normalized stimulus")
    T, n = cfg.timesteps, cfg.n_level
    c_s = np.zeros((T + 1,) + i_norm.shape)
    w_q = np.zeros((T,) + i_norm.shape)
    w_prev = np.zeros_like(i_norm)
    for t in range(T):
        if cfg.temporal:
            c = cfg.lam * c_s[t] * (1.0 - np.abs(w_prev) / n) + (1.0 - cfg.lam) * i_norm
        else:
            c = i_norm
        if not np.all(np.isfinite(c)):
            raise NumericError(f"non-finite quantizer state at timestep {t + 1}")
        c_s[t + 1] = c
        w_q[t] = w_prev = _emit(c, cfg)
    return QuantizerState(i_norm=i_norm, c_s=c_s, w_q=w_q, cfg=cfg)


def surrogate_grad(c_s: np.ndarray, cfg: QuantConfig) -> np.ndarray:
    """Smooth stand-in for the quantizer's step derivative.

    Ternary case: mean of two sigmoid derivatives centered at +-c_th, with
    arguments scaled by ``sg_scale``.  The scale enters only through the
    argument unless ``sg_chain_factor`` is set.  Multi-bit case: the
    straight-through window indicator on (-n, n).
    """
    c_s = np.asarray(c_s, dtype=np.float64)
    if cfg.n_level > 1:
        return np.where((c_s > -cfg.n_level) & (c_s < cfg.n_level), 1.0, 0.0)
    k = cfg.sg_scale
    g = 0.5 * (_sigmoid_deriv(k * (c_s + cfg.c_th)) + _sigmoid_deriv(k * (c_s - cfg.c_th)))
    return g * k if cfg.sg_chain_factor else g


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _sigmoid_deriv(x: np.ndarray) -> np.ndarray:
    s = _sigmoid(x)
    return s * (1.0 - s)


def compute_scaling(w_q_t: np.ndarray, n: int) -> np.ndarray:
    """Per-output-channel reciprocal of the mean absolute weight.

    ``w_q_t`` is a single timestep's weight tensor with the output channel
    on axis 0.  All-zero channels get 0: their pre-activation is
    identically zero, so any finite scale is equivalent.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    w = np.asarray(w_q_t, dtype=np.float64)
    mean_abs = np.abs(w).reshape(w.shape[0], -1).mean(axis=1)
    out = np.zeros_like(mean_abs)
    nz = mean_abs > 0
    out[nz] = 1.0 / mean_abs[nz]
    return out


def compute_scaling_all(state: QuantizerState) -> np.ndarray:
    """Stack `compute_scaling` over all timesteps: shape (T, C_o)."""
    return np.stack([compute_scaling(w, state.cfg.n_level) for w in state.w_q])


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
        return upstream.sum(axis=0) * surrogate_grad(state.i_norm, cfg)

    lam, n = cfg.lam, cfg.n_level
    sg = surrogate_grad(state.c_s[1:], cfg)  # sg[t - 1] is taken at c_s[t]
    grad_i = np.zeros_like(state.i_norm)
    carry = np.zeros_like(state.i_norm)  # dL/dc_s[t+1] reaching step t from the future
    for t in range(cfg.timesteps, 0, -1):
        g_c = upstream[t - 1] * sg[t - 1] + carry
        grad_i += g_c * (1.0 - lam)
        if t > 1:
            c_prev = state.c_s[t - 1]
            w_prev = state.w_q[t - 2]
            carry = g_c * (lam * (1.0 - np.abs(w_prev) / n)
                           - lam * c_prev * np.sign(w_prev) / n * sg[t - 2])
    return grad_i
