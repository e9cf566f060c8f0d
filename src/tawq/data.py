"""Synthetic desk-scale datasets and spike encoders.

The temporal-XOR task is the main benchmark stand-in: channel 0 may fire
during the first half of the simulation window, channel 1 during the
second half, and the label is the XOR of the two presence bits.  Solving
it requires integrating evidence across the two windows.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, refuse_unread, require

RASTER_MAGIC = b"TAWR"

KINDS = ("synthetic-temporal-xor", "synthetic-rate-patterns", "raster-grid")
ENCODERS = ("direct", "rate", "latency")
# the DatasetSpec fields each kind never reads
UNREAD = {"synthetic-temporal-xor": ("encoder", "path", "n_classes", "n_features"),
          "synthetic-rate-patterns": ("encoder", "path"),
          "raster-grid": ("noise", "n_classes", "n_features")}


@dataclass
class DatasetSpec:
    kind: str = "synthetic-temporal-xor"
    n_samples: int = 512
    timesteps: int = 4
    noise: float = 0.0
    seed: int = 0
    encoder: str = "direct"
    n_classes: int = 2
    n_features: int = 2
    path: str | None = None   # raster-grid only
    test_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        if self.encoder not in ENCODERS:
            raise ConfigError(f"unknown encoder {self.encoder!r}")
        require(self, "be >= 1", "n_samples", "n_classes", "n_features")
        require(self, "be >= 0", "seed", "noise")
        require(self, "be in (0, 1)", "test_fraction")
        if self.kind == "synthetic-temporal-xor":
            require(self, "lie in [0, 1]", "noise")  # a flip probability
            if self.timesteps < 2:
                raise ConfigError("temporal-xor needs at least 2 timesteps")
        refuse_unread(self, f"by dataset kind {self.kind!r}", *UNREAD[self.kind])


def gen_temporal_xor(n_samples: int, timesteps: int, noise: float,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Inputs (T, N, 2) binary, labels (N,) in {0, 1}.

    Bit a drives channel 0 over timesteps [0, T/2); bit b drives channel 1
    over [T/2, T); label = a XOR b.  `noise` flips each entry i.i.d.
    """
    if timesteps < 2:
        raise ConfigError("temporal-xor needs at least 2 timesteps")
    if not 0 <= noise <= 1:
        raise ConfigError(f"noise must lie in [0, 1], got {noise}")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(n_samples, 2))
    x = np.zeros((timesteps, n_samples, 2))
    half = timesteps // 2
    x[:half, :, 0] = bits[:, 0]
    x[half:, :, 1] = bits[:, 1]
    if noise > 0:
        flips = rng.random(x.shape) < noise
        x = np.where(flips, 1.0 - x, x)
    labels = bits[:, 0] ^ bits[:, 1]
    return x, labels.astype(np.int64)


def gen_rate_patterns(n_samples: int, timesteps: int, n_classes: int,
                      n_features: int, seed: int,
                      noise: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Classes are fixed per-feature rate vectors; inputs are Bernoulli
    spike rasters drawn at those rates."""
    rng = np.random.default_rng(seed)
    prototypes = rng.uniform(0.1, 0.9, size=(n_classes, n_features))
    labels = rng.integers(0, n_classes, size=n_samples)
    rates = np.clip(prototypes[labels] + noise * rng.standard_normal(
        (n_samples, n_features)), 0.0, 1.0)
    x = (rng.random((timesteps, n_samples, n_features)) < rates).astype(np.float64)
    return x, labels.astype(np.int64)


def rate_encode(x: np.ndarray, timesteps: int, seed: int) -> np.ndarray:
    """Bernoulli spikes with per-element probability x, per timestep."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0) or np.any(x > 1):
        raise DataError("rate_encode input must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    return (rng.random((timesteps,) + x.shape) < x).astype(np.float64)


def latency_encode(x: np.ndarray, timesteps: int) -> np.ndarray:
    """One spike per element; stronger inputs fire earlier, zeros never."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0) or np.any(x > 1):
        raise DataError("latency_encode input must lie in [0, 1]")
    out = np.zeros((timesteps,) + x.shape)
    fire_t = np.floor((1.0 - x) * (timesteps - 1)).astype(np.int64)
    for t in range(timesteps):
        out[t] = np.where((fire_t == t) & (x > 0), 1.0, 0.0)
    return out


def save_raster_grid(path: str, pixels: np.ndarray, labels: np.ndarray) -> None:
    """Headered binary: magic, n/h/w dims, u8 pixels, u8 labels (fractions truncated)."""
    pixels, labels = np.asarray(pixels), np.asarray(labels)
    if pixels.ndim != 3:
        raise DataError(f"pixels must be (N, H, W), got shape {pixels.shape}")
    if labels.shape[0] != pixels.shape[0]:
        raise DataError("label count does not match sample count")
    for name, values in (("pixel", pixels), ("label", labels)):
        bad = ~((values >= 0) & (values <= 255))  # NaN compares false
        if bad.any():
            raise DataError(f"{name} {values[bad][0].item()!r} does not fit a byte (0..255)")
    n, h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(RASTER_MAGIC)
        fh.write(struct.pack("<III", n, h, w))
        fh.write(pixels.astype(np.uint8).tobytes())
        fh.write(labels.astype(np.uint8).tobytes())


def load_raster_grid(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != RASTER_MAGIC:
        raise DataError(f"{path}: bad raster-grid magic")
    n, h, w = struct.unpack_from("<III", blob, 4)
    off = 4 + 12
    npix = n * h * w
    if len(blob) != off + npix + n:
        raise DataError(f"{path}: truncated raster-grid file")
    pixels = np.frombuffer(blob, dtype=np.uint8, count=npix, offset=off)
    labels = np.frombuffer(blob, dtype=np.uint8, count=n, offset=off + npix)
    return pixels.reshape(n, h, w).copy(), labels.astype(np.int64)


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def _split(x: np.ndarray, y: np.ndarray, spec: DatasetSpec) -> Dataset:
    n = y.shape[0]
    rng = np.random.default_rng(spec.seed + 0x5EED)
    order = rng.permutation(n)
    n_test = int(round(n * spec.test_fraction))
    if not 0 < n_test < n:
        raise ConfigError(f"dataset: {n} samples at test_fraction {spec.test_fraction} "
                          "leave the train or the test split empty")
    test_idx, train_idx = order[:n_test], order[n_test:]
    return Dataset(train_x=x[:, train_idx], train_y=y[train_idx],
                   test_x=x[:, test_idx], test_y=y[test_idx])


def build_dataset(spec: DatasetSpec) -> Dataset:
    """Generate (or load) and deterministically split a dataset."""
    if spec.kind == "synthetic-temporal-xor":
        x, y = gen_temporal_xor(spec.n_samples, spec.timesteps, spec.noise, spec.seed)
    elif spec.kind == "synthetic-rate-patterns":
        x, y = gen_rate_patterns(spec.n_samples, spec.timesteps, spec.n_classes,
                                 spec.n_features, spec.seed, spec.noise)
    else:
        if not spec.path:
            raise ConfigError("raster-grid dataset needs a 'path'")
        pixels, y = load_raster_grid(spec.path)
        if spec.n_samples not in (DatasetSpec.n_samples, y.shape[0]):
            raise ConfigError(f"dataset: n_samples is {spec.n_samples}, but {spec.path} "
                              f"holds {y.shape[0]} samples")
        values = pixels.reshape(pixels.shape[0], -1) / 255.0
        if spec.encoder == "rate":
            x = rate_encode(values, spec.timesteps, spec.seed)
        elif spec.encoder == "latency":
            x = latency_encode(values, spec.timesteps)
        else:
            x = np.broadcast_to(values, (spec.timesteps,) + values.shape).copy()
    return _split(x, y, spec)
