"""Self-describing binary checkpoint: README § File formats gives its layout,
what a reader refuses and what a crashed save leaves."""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, StateError
from .layers import BatchNorm, Network, QuantizedLayer
from .runconfig import RunConfig, build_network, parse_runconfig
from .quantizer import PackedTernaryTensor

MAGIC = b"TAWQ"
VERSION = 1

TAG_F64, TAG_I64, TAG_PACKED2 = 0, 1, 2


@dataclass
class Checkpoint:
    runconfig: dict
    metrics: dict
    tensors: dict[str, np.ndarray | PackedTernaryTensor] = field(default_factory=dict)


def _payload(value) -> tuple[int, tuple[int, ...], memoryview]:
    if isinstance(value, PackedTernaryTensor):
        return TAG_PACKED2, value.shape, memoryview(value.codes)
    arr = np.ascontiguousarray(value)  # a 0-d value gets dims (1,)
    if arr.dtype != np.int64:
        arr = arr.astype(np.float64, copy=False)
    tag = TAG_I64 if arr.dtype == np.int64 else TAG_F64
    return tag, arr.shape, memoryview(arr.reshape(-1).view(np.uint8))


def _same(a, b) -> bool:
    """Whether `a` and `b` store as the same tag, dims and payload bytes."""
    (tag, dims, data), (tag_b, dims_b, data_b) = _payload(a), _payload(b)
    return (tag, dims) == (tag_b, dims_b) and np.array_equal(
        np.frombuffer(data, np.uint8), np.frombuffer(data_b, np.uint8))


def _read_tensor(blob: memoryview, off: int):
    (nlen,) = struct.unpack_from("<H", blob, off)
    off += 2
    name = str(blob[off:off + nlen], "utf-8")
    off += nlen
    tag, ndim = struct.unpack_from("<BB", blob, off)
    off += 2
    dims = struct.unpack_from(f"<{ndim}I", blob, off)
    off += 4 * ndim
    (blen,) = struct.unpack_from("<Q", blob, off)
    off += 8
    payload = blob[off:off + blen]
    off += blen
    if tag not in (TAG_F64, TAG_I64, TAG_PACKED2):
        raise DataError(f"tensor {name}: unknown dtype tag {tag}")
    want = (math.prod(dims) + 3) // 4 if tag == TAG_PACKED2 else 8 * math.prod(dims)
    if len(payload) != blen or blen != want:
        raise DataError(f"tensor {name}: {len(payload)} of {blen} payload bytes "
                        f"present, dims {dims} under dtype tag {tag} need {want}")
    if tag == TAG_PACKED2:
        value = PackedTernaryTensor(codes=bytes(payload), shape=tuple(dims))
    else:
        dtype = np.int64 if tag == TAG_I64 else np.float64
        value = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    return name, value, off


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    header = json.dumps({"runconfig": ckpt.runconfig, "metrics": ckpt.metrics},
                        sort_keys=True).encode()
    parts = [MAGIC + struct.pack("<HI", VERSION, len(header)) + header
             + struct.pack("<I", len(ckpt.tensors))]
    for name, value in ckpt.tensors.items():
        tag, dims, payload = _payload(value)
        name_b = name.encode()
        parts += [struct.pack(f"<H{len(name_b)}sBB{len(dims)}IQ", len(name_b), name_b,
                              tag, len(dims), *dims, payload.nbytes), payload]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    end = sum(map(len, parts)) + 4
    # each part over the old bytes, since truncating to zero first (O_TRUNC) makes
    # ext4 (auto_da_alloc) write the whole new file back at close; the 64 KiB buffer
    # joins the small parts, and larger payloads pass through as they are.  Then cut
    # if the old file was longer (a device or pipe has no length)
    with open(path, "wb", buffering=1 << 16,
              opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
        fh.writelines([*parts, struct.pack("<I", crc)])
        if os.fstat(fh.fileno()).st_size > end:
            fh.truncate()


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise DataError(f"{path}: not a TAWQ checkpoint")
    body = memoryview(blob)[:-4]  # parsed in place, without a copy of the file
    (crc_stored,) = struct.unpack_from("<I", blob, len(body))
    if zlib.crc32(body) != crc_stored:
        raise DataError(f"{path}: checksum mismatch, checkpoint is corrupt")
    try:
        version, hlen = struct.unpack_from("<HI", body, 4)
        if version != VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        off = 10
        header = json.loads(str(body[off:off + hlen], "utf-8"))
        off += hlen
        (count,) = struct.unpack_from("<I", body, off)
        off += 4
        tensors: dict = {}
        for _ in range(count):
            name, value, off = _read_tensor(body, off)
            tensors[name] = value
        return Checkpoint(runconfig=header["runconfig"], metrics=header["metrics"],
                          tensors=tensors)
    except (struct.error, ValueError, KeyError, TypeError) as exc:  # ValueError: JSON, UTF-8
        raise DataError(f"{path}: malformed checkpoint: {exc}") from exc


def _tensors(net: Network):
    """Every tensor of a checkpoint of `net`, in file order and in the
    stored form its quantizer state keeps (`QuantizerState.stored`)."""
    for i, layer in enumerate(net.layers):
        for pname, value in layer.params.items():
            yield f"{i}.{pname}", value
        if isinstance(layer, BatchNorm):
            yield f"{i}.running_mean", layer.running_mean
            yield f"{i}.running_var", layer.running_var
        if isinstance(layer, QuantizedLayer):
            layer.materialize()  # a no-op while the held weights are current
            yield f"{i}.alpha", layer.alpha
            for t, w in enumerate(layer.state.stored):
                yield f"{i}.w_q.{t}", w


def checkpoint_from_network(net: Network, cfg: RunConfig,
                            metrics: dict | None = None) -> Checkpoint:
    """Snapshot all parameters, BN buffers, and per-timestep packed weights."""
    return Checkpoint(runconfig=cfg.to_dict(), metrics=metrics or {},
                      tensors=dict(_tensors(net)))


def _stored(ckpt: Checkpoint, key: str, like: np.ndarray | None = None):
    """The tensor stored under `key`; with `like`, it must store as `like` does."""
    if key not in ckpt.tensors:
        raise StateError(f"checkpoint missing tensor {key}")
    value = ckpt.tensors[key]
    if like is not None and _payload(value)[:2] != _payload(like)[:2]:
        raise DataError(f"checkpoint tensor {key} is not float64 with dims {like.shape}")
    return value


def network_from_checkpoint(ckpt: Checkpoint) -> tuple[Network, RunConfig]:
    """Rebuild the network without drawing initial weights, restore its
    parameters and BN buffers as `_stored` checks them, and recompute each
    quantized layer's alpha and weight stacks from its stimulus.  One walk
    over the tensors the writer would write (`_tensors`) then holds the
    file to them: a missing tensor, one unlike the writer's and, after
    those, any other is refused."""
    cfg = parse_runconfig(ckpt.runconfig)
    net = build_network(cfg, draw=False)
    for i, layer in enumerate(net.layers):
        for pname in layer.params:
            layer.params[pname] = _stored(ckpt, f"{i}.{pname}", layer.params[pname])
        if isinstance(layer, BatchNorm):
            layer.running_mean = _stored(ckpt, f"{i}.running_mean", layer.running_mean)
            layer.running_var = _stored(ckpt, f"{i}.running_var", layer.running_var)
            if not (np.isfinite(layer.running_mean).all() and np.isfinite(layer.running_var).all()
                    and (layer.running_var + layer.eps > 0).all()):
                raise DataError(f"layer {i} (bn): running statistics must be finite, "
                                "with running_var + eps positive")
    written = dict(_tensors(net))  # restored tensors are the file's own
    for key in {**written, **ckpt.tensors}:  # the writer's order, then others in file order
        if key not in written:
            raise DataError(f"checkpoint tensor {key} is not one the network stores")
        stored = _stored(ckpt, key)
        if stored is not written[key] and not _same(stored, written[key]):
            raise DataError(f"checkpoint tensor {key} disagrees with the stimulus")
    return net, cfg
