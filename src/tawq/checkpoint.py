"""Self-describing binary checkpoint.

Layout:

    magic "TAWQ" | version u16 | header length u32 | header JSON (utf-8)
    | tensor count u32 | tensors... | crc32 u32

Per tensor: name length u16, name utf-8, dtype tag u8 (0 = float64,
1 = int64, 2 = 2-bit packed ternary), ndim u8, dims u32 each, byte
length u64, raw payload.  The trailing CRC covers everything before it.
A reader refuses an unknown tag and a payload whose length does not
match its dims.
The header JSON carries the run-configuration echo and a metrics summary.
"""

from __future__ import annotations

import json
import math
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


def _tensor_bytes(name: str, value) -> bytes:
    if isinstance(value, PackedTernaryTensor):
        tag, dims, payload = TAG_PACKED2, value.shape, value.codes
    else:
        arr = np.ascontiguousarray(value)
        if arr.dtype == np.int64:
            tag = TAG_I64
        else:
            arr = arr.astype(np.float64)
            tag = TAG_F64
        dims, payload = arr.shape, arr.tobytes()
    name_b = name.encode()
    head = struct.pack("<H", len(name_b)) + name_b
    head += struct.pack("<BB", tag, len(dims))
    head += struct.pack(f"<{len(dims)}I", *dims)
    head += struct.pack("<Q", len(payload))
    return head + payload


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
    parts = [MAGIC, struct.pack("<H", VERSION), struct.pack("<I", len(header)), header,
             struct.pack("<I", len(ckpt.tensors))]
    parts += [_tensor_bytes(name, value) for name, value in ckpt.tensors.items()]
    body = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


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


def _stored(ckpt: Checkpoint, key: str):
    if key not in ckpt.tensors:
        raise StateError(f"checkpoint missing tensor {key}")
    return ckpt.tensors[key]


def network_from_checkpoint(ckpt: Checkpoint) -> tuple[Network, RunConfig]:
    """Rebuild the network: restore parameters and buffers, then check that
    every tensor, quantized weights included, is stored as the writer would."""
    cfg = parse_runconfig(ckpt.runconfig)
    net = build_network(cfg)
    for i, layer in enumerate(net.layers):
        for pname in layer.params:
            layer.params[pname] = np.asarray(_stored(ckpt, f"{i}.{pname}"))
        if isinstance(layer, BatchNorm):
            layer.running_mean = np.asarray(_stored(ckpt, f"{i}.running_mean"))
            layer.running_var = np.asarray(_stored(ckpt, f"{i}.running_var"))
    for key, value in _tensors(net):
        stored = _stored(ckpt, key)  # restored parameters and buffers are `value`
        if stored is not value and _tensor_bytes(key, stored) != _tensor_bytes(key, value):
            raise DataError(f"checkpoint tensor {key} disagrees with the stimulus")
    return net, cfg
