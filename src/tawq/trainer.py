"""Training loop: softmax cross-entropy on mean-over-time logits, global
gradient-norm clipping, SGD / AdamW, and deterministic per-epoch records.

AdamW updates its moments in place and runs one `quantizer.BLOCK` slab at
a time through two scratch buffers; every step gives each parameter a
fresh array and leaves the old one as it was.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import entropy_report
from .errors import ConfigError, DataError, NumericError, refuse_unread, require
from .layers import Network
from .quantizer import BLOCK, blocks

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
        require(self, "be positive", "lr", "clip_norm", "adam_eps")
        require(self, "be >= 0", "weight_decay", "seed")
        require(self, "be >= 1", "epochs", "batch_size")
        require(self, "lie in [0, 1)", "adam_beta1", "adam_beta2")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}")
        if self.lr_schedule not in SCHEDULES:
            raise ConfigError(f"lr_schedule must be one of {SCHEDULES}")
        if self.optimizer == "sgd":
            refuse_unread(self, "by optimizer sgd", "weight_decay", "adam_beta1",
                          "adam_beta2", "adam_eps")


@dataclass
class GradientBundle:
    """Per-parameter gradients keyed like `Network.named_params`."""

    tensors: dict[str, np.ndarray]
    global_norm: float = field(init=False)

    def __post_init__(self) -> None:
        with np.errstate(over="ignore"):  # an overflow is refused below
            self.global_norm = float(np.sqrt(
                sum(float((g * g).sum()) for g in self.tensors.values())))
        if not np.isfinite(self.global_norm):
            raise NumericError("non-finite gradient norm: the squared entries overflow float64")

    def clipped(self, clip_norm: float) -> "GradientBundle":
        """Scale every tensor so the global norm is at most `clip_norm`."""
        if self.global_norm <= clip_norm:
            return self
        scale = clip_norm / self.global_norm
        return GradientBundle({k: g * scale for k, g in self.tensors.items()})


def softmax_cross_entropy(logits: np.ndarray,
                          labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean CE loss and its gradient w.r.t. the logits."""
    if labels.dtype.kind not in "iu":
        raise DataError(f"labels must be integer class indices, not {labels.dtype}: "
                        f"got {labels[:4].tolist()}")
    if np.any(labels < 0):
        raise DataError(f"label {labels.min()} is negative: labels count classes from 0")
    if np.any(labels >= logits.shape[1]):
        raise DataError(f"label {labels.max()} is not below the logits width "
                        f"{logits.shape[1]}: the head is narrower than the class count")
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = float(-np.log(p[np.arange(n), labels] + 1e-300).mean())
    p[np.arange(n), labels] -= 1.0
    return loss, p / n


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
    """SGD, or AdamW with decoupled weight decay.

    A step never writes into a parameter's array: a parameter may be a
    checkpoint's own array, and bench/tracer.py tells a changed stimulus
    by object identity.
    """

    def __init__(self, net: Network, cfg: TrainConfig) -> None:
        self.net = net
        self.cfg = cfg
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._scratch = (np.empty(BLOCK), np.empty(BLOCK))

    def step(self, grads: GradientBundle, lr: float) -> None:
        cfg = self.cfg
        self.step_count += 1
        for name, layer, pname, param in self.net.named_params():
            g = grads.tensors[name]
            if cfg.optimizer == "sgd":
                layer.params[pname] = param - lr * g
                continue
            m = self.m.setdefault(name, np.zeros(param.shape))
            v = self.v.setdefault(name, np.zeros(param.shape))
            new = np.empty(param.shape)
            self._adamw(param.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1),
                        new.reshape(-1), lr)
            layer.params[pname] = new

    def _adamw(self, p, g, m, v, out, lr: float) -> None:
        """out = (p - (lr*wd)*p) - (lr*(m/c1)) / (sqrt(v/c2) + eps), after
        m = b1*m + (1-b1)*g and v = b2*v + ((1-b2)*g)*g in place, one
        `BLOCK` slab at a time: the plain formula's operations in its
        order, so the result is bit-identical to it."""
        cfg = self.cfg
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        c1, c2 = 1 - b1 ** self.step_count, 1 - b2 ** self.step_count
        for blk, (a, b) in blocks(p.size, *self._scratch):
            mb, vb, gb = m[blk], v[blk], g[blk]
            mb *= b1
            np.multiply(gb, 1 - b1, out=a)
            mb += a
            vb *= b2
            np.multiply(gb, 1 - b2, out=a)
            a *= gb
            vb += a
            np.divide(vb, c2, out=a)
            np.sqrt(a, out=a)
            a += cfg.adam_eps
            np.divide(mb, c1, out=b)
            b *= lr
            b /= a
            np.multiply(p[blk], lr * cfg.weight_decay, out=a)
            np.subtract(p[blk], a, out=out[blk])
            out[blk] -= b


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
    """Mean loss and accuracy over a dataset, by eval-mode `Network.forward`
    calls; the network keeps the last batch's traces."""
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
    """Mean entropy of the quantized-weight stacks of the last forward
    pass, 0.0 if none exist."""
    return entropy_report(net.traces()).mean_entropy


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
