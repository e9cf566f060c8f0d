"""Training loop: softmax cross-entropy on mean-over-time logits, global
gradient-norm clipping, SGD / AdamW, and deterministic per-epoch records."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import EntropyReport, weight_entropy
from .errors import ConfigError, DataError, NumericError
from .layers import Network

OPTIMIZERS = ("sgd", "adamw")
SCHEDULES = ("constant", "cosine")
EVAL_BATCH = 256  # samples per inference-mode forward in `evaluate`


@dataclass
class TrainConfig:
    lr: float = 0.05
    optimizer: str = "sgd"
    weight_decay: float = 0.0
    clip_norm: float = 1.0
    epochs: int = 50
    batch_size: int = 64
    seed: int = 0
    lr_schedule: str = "constant"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.clip_norm <= 0:
            raise ConfigError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}")
        if self.optimizer == "sgd" and self.weight_decay != 0:
            raise ConfigError("weight_decay is applied by adamw only; sgd would ignore it")
        if self.lr_schedule not in SCHEDULES:
            raise ConfigError(f"lr_schedule must be one of {SCHEDULES}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class GradientBundle:
    """Per-parameter gradients keyed like `Network.named_params`."""

    tensors: dict[str, np.ndarray]
    global_norm: float = field(init=False)

    def __post_init__(self) -> None:
        self.global_norm = float(np.sqrt(
            sum(float((g * g).sum()) for g in self.tensors.values())))

    def clipped(self, clip_norm: float) -> "GradientBundle":
        """Scale every tensor so the global norm is at most `clip_norm`."""
        if self.global_norm <= clip_norm:
            return self
        scale = clip_norm / self.global_norm
        return GradientBundle({k: g * scale for k, g in self.tensors.items()})


def softmax_cross_entropy(logits: np.ndarray,
                          labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean CE loss and its gradient w.r.t. the logits."""
    if np.any(labels >= logits.shape[1]):
        raise DataError(f"label {labels.max()} is not below the logits width "
                        f"{logits.shape[1]}: the head is narrower than the class count")
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = float(-np.log(p[np.arange(n), labels] + 1e-300).mean())
    grad = p.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def collect_gradients(net: Network) -> GradientBundle:
    tensors = {}
    for name, layer, pname, _ in net.named_params():
        if pname not in layer.grads:
            raise NumericError(f"missing gradient for parameter {name}")
        g = layer.grads[pname]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name}")
        tensors[name] = g
    return GradientBundle(tensors)


class Optimizer:
    def __init__(self, net: Network, cfg: TrainConfig) -> None:
        self.net = net
        self.cfg = cfg
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, grads: GradientBundle, lr: float) -> None:
        cfg = self.cfg
        self.step_count += 1
        for name, layer, pname, param in self.net.named_params():
            g = grads.tensors[name]
            if cfg.optimizer == "sgd":
                layer.params[pname] = param - lr * g
                continue
            # AdamW: standard moments with decoupled weight decay
            m = self.m.setdefault(name, np.zeros_like(param))
            v = self.v.setdefault(name, np.zeros_like(param))
            m = cfg.adam_beta1 * m + (1 - cfg.adam_beta1) * g
            v = cfg.adam_beta2 * v + (1 - cfg.adam_beta2) * g * g
            self.m[name], self.v[name] = m, v
            mhat = m / (1 - cfg.adam_beta1 ** self.step_count)
            vhat = v / (1 - cfg.adam_beta2 ** self.step_count)
            layer.params[pname] = (param - lr * cfg.weight_decay * param
                                   - lr * mhat / (np.sqrt(vhat) + cfg.adam_eps))


def clip_and_step(grads: GradientBundle, cfg: TrainConfig, opt: Optimizer,
                  lr: float) -> GradientBundle:
    """Clip the bundle to `cfg.clip_norm`; apply one step at `lr` of the run's `opt`."""
    clipped = grads.clipped(cfg.clip_norm)
    opt.step(clipped, lr)
    return clipped


def _schedule_lr(cfg: TrainConfig, epoch: int) -> float:
    if cfg.lr_schedule == "cosine":
        return cfg.lr * 0.5 * (1.0 + np.cos(np.pi * epoch / max(cfg.epochs - 1, 1)))
    return cfg.lr


def _fmt(x: float) -> float:
    return float(round(x, 10))


def evaluate(net: Network, inputs: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Mean loss and accuracy over a dataset; inference-mode forward."""
    losses, correct, n = [], 0, inputs.shape[1]
    for start in range(0, n, EVAL_BATCH):
        xb = inputs[:, start:start + EVAL_BATCH]
        yb = labels[start:start + EVAL_BATCH]
        logits = net.forward(xb, training=False)
        loss, _ = softmax_cross_entropy(logits, yb)
        losses.append(loss * len(yb))
        correct += int((logits.argmax(axis=1) == yb).sum())
    return float(np.sum(losses) / n), correct / n


def mean_weight_entropy(net: Network) -> float:
    """Mean entropy of the quantized-weight stacks, 0.0 if none exist."""
    rows = [weight_entropy(layer.state.w_q) for layer in net.layers
            if layer.kind in ("qlinear", "qconv") and layer.state is not None]
    return EntropyReport(rows).mean_entropy


def train(net: Network, train_set: tuple[np.ndarray, np.ndarray],
          test_set: tuple[np.ndarray, np.ndarray], cfg: TrainConfig) -> dict:
    """Train in place; returns a metrics summary whose "history" holds one
    record per epoch and split.

    Deterministic for a fixed seed: batch order comes from a dedicated
    generator and every recorded float is rounded, so identical runs
    produce identical records.
    """
    x_train, y_train = train_set
    x_test, y_test = test_set
    n = x_train.shape[1]
    rng = np.random.default_rng(cfg.seed)
    opt = Optimizer(net, cfg)
    history = []
    for epoch in range(cfg.epochs):
        lr = _schedule_lr(cfg, epoch)
        order = rng.permutation(n)
        epoch_loss, correct, grad_norms = 0.0, 0, []
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb, yb = x_train[:, idx], y_train[idx]
            net.zero_grads()
            logits = net.forward(xb, training=True)
            loss, gl = softmax_cross_entropy(logits, yb)
            if not np.isfinite(loss):
                raise NumericError(f"divergence: non-finite loss at epoch {epoch}")
            net.backward(gl)
            grads = collect_gradients(net)
            clipped = clip_and_step(grads, cfg, opt, lr)
            epoch_loss += loss * len(idx)
            correct += int((logits.argmax(axis=1) == yb).sum())
            grad_norms.append(clipped.global_norm)
        test_loss, test_acc = evaluate(net, x_test, y_test)
        entropy = mean_weight_entropy(net)
        for split, loss_v, acc_v in (("train", epoch_loss / n, correct / n),
                                     ("test", test_loss, test_acc)):
            record = {"epoch": epoch, "split": split, "loss": _fmt(loss_v),
                      "accuracy": _fmt(acc_v), "entropy_mean": _fmt(entropy),
                      "grad_norm": _fmt(float(np.mean(grad_norms)))}
            history.append(record)
    final = [h for h in history if h["split"] == "test"][-1]
    return {"final_test_loss": final["loss"], "final_test_accuracy": final["accuracy"],
            "final_entropy_mean": final["entropy_mean"], "history": history}
