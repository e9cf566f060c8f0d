"""Checkpoint format and command-line surface.

CLI commands are exercised in-process through `tawq.cli.main`, which
returns the documented exit codes: 0 ok, 2 config or a missing or
unreadable file, 3 data, 4 numeric.
"""

import copy
import errno
import json
import os
import re
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import WriteSpy, conv_document, run_document, spy_writes, three_layer_document
from tawq.analysis import count_sops, entropy_report
from tawq.checkpoint import (
    Checkpoint,
    _payload,
    checkpoint_from_network,
    load_checkpoint,
    network_from_checkpoint,
    save_checkpoint,
)
from tawq.cli import main
from tawq import errors
from tawq.data import load_raster_grid
from tawq.errors import DataError, StateError
from tawq.runconfig import build_network, default_xor_document, load_runconfig, parse_runconfig
from tawq.runtime import PackedTernaryTensor, pack_ternary, unpack_ternary


@pytest.fixture(scope="module")
def tiny_doc():
    doc = default_xor_document(hidden=8)
    doc["train"]["epochs"] = 3
    doc["dataset"]["n_samples"] = 128
    return doc


@pytest.fixture(scope="module")
def trained(tiny_doc):
    net, ds, metrics = run_document(tiny_doc)
    cfg = parse_runconfig(tiny_doc)
    return net, ds, metrics, cfg


class TestCheckpointRoundTrip:
    def test_lossless_bitwise(self, trained, tmp_path):
        net, _, metrics, cfg = trained
        ckpt = checkpoint_from_network(net, cfg, {"final": metrics["final_test_loss"]})
        path = str(tmp_path / "a.ckpt")
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.runconfig == ckpt.runconfig
        assert loaded.metrics == ckpt.metrics
        assert set(loaded.tensors) == set(ckpt.tensors)
        for name, value in ckpt.tensors.items():
            got = loaded.tensors[name]
            if isinstance(value, np.ndarray):
                assert np.array_equal(got, value)
                assert got.dtype == value.dtype
            else:
                assert got.codes == value.codes and got.shape == value.shape

    def test_save_load_save_identical_bytes(self, trained, tmp_path):
        net, _, _, cfg = trained
        ckpt = checkpoint_from_network(net, cfg)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(p1, ckpt)
        save_checkpoint(p2, load_checkpoint(p1))
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_network_restores_exactly(self, trained, tmp_path):
        net, ds, _, cfg = trained
        path = str(tmp_path / "a.ckpt")
        save_checkpoint(path, checkpoint_from_network(net, cfg))
        net2, _ = network_from_checkpoint(load_checkpoint(path))
        a = net.forward(ds.test_x, training=False)
        b = net2.forward(ds.test_x, training=False)
        assert np.array_equal(a, b)

    def test_corrupt_payload_reports_checksum(self, trained, tmp_path):
        net, _, _, cfg = trained
        path = str(tmp_path / "a.ckpt")
        save_checkpoint(path, checkpoint_from_network(net, cfg))
        blob = bytearray(Path(path).read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(DataError, match="checksum"):
            load_checkpoint(path)

    @pytest.mark.parametrize("buffer", ["running_mean", "running_var"])
    def test_missing_bn_buffer_rejected(self, trained, buffer):
        net, _, _, cfg = trained
        ckpt = checkpoint_from_network(net, cfg)
        del ckpt.tensors[f"1.{buffer}"]
        with pytest.raises(StateError, match=f"1.{buffer}"):
            network_from_checkpoint(ckpt)

    def test_sign_flipped_code_fails_verification(self, tmp_path, capsys):
        from conftest import three_layer_document
        cfg = parse_runconfig(three_layer_document())
        ckpt = checkpoint_from_network(build_network(cfg), cfg)
        w = unpack_ternary(ckpt.tensors["3.w_q.0"])
        k = np.flatnonzero(w)[0]
        w.flat[k] = -w.flat[k]
        ckpt.tensors["3.w_q.0"] = pack_ternary(w)
        with pytest.raises(DataError, match=r"3\.w_q\.0 disagrees with the stimulus"):
            network_from_checkpoint(ckpt)
        path = str(tmp_path / "flipped.ckpt")
        save_checkpoint(path, ckpt)
        assert main(["report", path]) == 3
        assert "disagrees with the stimulus" in capsys.readouterr().err

    @pytest.mark.parametrize("key,mutate", [
        ("3.alpha", lambda v: 2.0 * v),
        ("3.w_q.0", unpack_ternary),  # the ternary stack stored as int64
        ("3.w_q.0", lambda p: _with_code(p, 9, 0b01)),  # a set padding lane
        ("3.w_q.0", lambda p: _with_code(p, 0, 0b11)),  # the invalid code
    ], ids=["alpha-doubled", "unpacked", "padding-bits", "invalid-code"])
    def test_tensor_unlike_the_writers_refused(self, tmp_path, capsys, key, mutate):
        # a 3x3 quantized layer: 9 codes leave 3 padding lanes in the last byte
        from conftest import three_layer_document
        doc = three_layer_document()
        doc["network"] = [{"kind": "linear", "in": 2, "out": 3}, {"kind": "bn", "channels": 3},
                          {"kind": "lif"}, {"kind": "qlinear", "in": 3, "out": 3},
                          {"kind": "bn", "channels": 3}, {"kind": "lif"},
                          {"kind": "linear", "in": 3, "out": 2}]
        cfg = parse_runconfig(doc)
        ckpt = checkpoint_from_network(build_network(cfg), cfg)
        ckpt.tensors[key] = mutate(ckpt.tensors[key])
        message = f"checkpoint tensor {key} disagrees with the stimulus"
        with pytest.raises(DataError, match=re.escape(message)):
            network_from_checkpoint(ckpt)
        path = str(tmp_path / "tampered.ckpt")
        save_checkpoint(path, ckpt)
        assert main(["report", path]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("layer_first", [False, True],
                             ids=["extra-stack", "extra-layer-first-in-file"])
    def test_tensor_the_writer_would_not_write_refused(self, tmp_path, capsys, layer_first):
        from conftest import three_layer_document
        cfg = parse_runconfig(three_layer_document())
        ckpt = checkpoint_from_network(build_network(cfg), cfg)
        # a fifth stack of the T = 4 layer, after the writer's tensors
        ckpt.tensors["3.w_q.7"] = ckpt.tensors["3.w_q.0"]
        extra = "3.w_q.7"
        if layer_first:  # and a layer the net lacks, before them
            ckpt.tensors = {"9.weight": np.zeros((2, 16)), **ckpt.tensors}
            extra = "9.weight"
        message = f"checkpoint tensor {extra} is not one the network stores"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            network_from_checkpoint(ckpt)
        path = str(tmp_path / "extra.ckpt")
        save_checkpoint(path, ckpt)
        assert main(["report", path]) == 3
        assert message in capsys.readouterr().err

    def test_disagreeing_and_missing_stacks_refused(self, tmp_path, capsys):
        # the walk refuses the first bad tensor in the writer's order
        from conftest import three_layer_document
        cfg = parse_runconfig(three_layer_document())
        ckpt = checkpoint_from_network(build_network(cfg), cfg)
        w = unpack_ternary(ckpt.tensors["3.w_q.0"])
        w.flat[np.flatnonzero(w)[0]] *= -1
        ckpt.tensors["3.w_q.0"] = pack_ternary(w)
        del ckpt.tensors["3.w_q.2"]
        message = "checkpoint tensor 3.w_q.0 disagrees with the stimulus"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            network_from_checkpoint(ckpt)
        path = str(tmp_path / "two_bad.ckpt")
        save_checkpoint(path, ckpt)
        assert main(["report", path]) == 3
        assert message in capsys.readouterr().err

    def test_snapshot_follows_stimulus_update(self):
        # a stimulus replaced after the last forward pass, as an optimizer
        # step does, must not leave the older weights in the checkpoint
        from conftest import three_layer_document
        from tawq.data import build_dataset
        cfg = parse_runconfig(three_layer_document())
        x = build_dataset(cfg.dataset).test_x[:, :16]
        net = build_network(cfg)
        net.forward(x, training=True)
        q = net.layers[3]
        q.params["stimulus"] = q.params["stimulus"] - 0.1 * np.sign(q.params["stimulus"])
        restored, _ = network_from_checkpoint(checkpoint_from_network(net, cfg))
        assert np.array_equal(restored.forward(x), net.forward(x))

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(DataError):
            load_checkpoint(str(path))


def _with_code(packed: PackedTernaryTensor, lane: int, code: int) -> PackedTernaryTensor:
    """`packed` with `code` ORed into 2-bit lane `lane` of its payload."""
    codes = bytearray(packed.codes)
    codes[lane // 4] |= code << 2 * (lane % 4)
    return PackedTernaryTensor(codes=bytes(codes), shape=packed.shape)


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _one_tensor_file(tag: int, dims: tuple, payload: bytes, name: bytes = b"x",
                     version: int = 1) -> bytes:
    header = json.dumps({"runconfig": {}, "metrics": {}}).encode()
    tensor = (struct.pack("<H", len(name)) + name + struct.pack("<BB", tag, len(dims))
              + struct.pack(f"<{len(dims)}I", *dims) + struct.pack("<Q", len(payload))
              + payload)
    return _with_crc(b"TAWQ" + struct.pack("<HI", version, len(header)) + header
                     + struct.pack("<I", 1) + tensor)


class TestCraftedCheckpoints:
    """Files with a correct CRC that the reader still cannot read are
    refused with a DataError, which the CLI reports as exit 3."""

    @pytest.mark.parametrize("blob,message", [
        (_one_tensor_file(7, (2,), bytes(16)), "unknown dtype tag 7"),
        (_one_tensor_file(0, (3,), bytes(16)), "dims (3,) under dtype tag 0 need 24"),
        (_one_tensor_file(1, (2, 2), bytes(40)), "need 32"),
        (_one_tensor_file(2, (5,), bytes(1)), "need 2"),
        (_one_tensor_file(0, (1,), bytes(8), name=b"\xff\xfe"), "malformed"),
        (_one_tensor_file(0, (1,), bytes(8), version=2), "unsupported checkpoint version 2"),
    ], ids=["unknown-tag", "f64-short", "i64-long", "packed-short", "non-utf8-name",
            "version-2"])
    def test_refused(self, tmp_path, capsys, blob, message):
        path = tmp_path / "crafted.ckpt"
        path.write_bytes(blob)
        with pytest.raises(DataError, match=re.escape(message)):
            load_checkpoint(str(path))
        assert main(["report", str(path)]) == 3
        assert message in capsys.readouterr().err

    def test_well_formed_file_reads(self, tmp_path):
        path = tmp_path / "crafted.ckpt"
        path.write_bytes(_one_tensor_file(0, (2,), struct.pack("<2d", 1.5, -2.0)))
        assert np.array_equal(load_checkpoint(str(path)).tensors["x"], [1.5, -2.0])

    def test_every_truncated_body_refused(self, trained, tmp_path):
        net, _, _, cfg = trained
        path = tmp_path / "a.ckpt"
        save_checkpoint(str(path), checkpoint_from_network(net, cfg))
        body = path.read_bytes()[:-4]
        for cut in range(4, len(body), 5):
            path.write_bytes(_with_crc(body[:cut]))
            with pytest.raises(DataError):
                load_checkpoint(str(path))


def _documented_file(ckpt: Checkpoint) -> bytes:
    """`ckpt` encoded from the layout in the README, tensor by tensor."""
    header = json.dumps({"runconfig": ckpt.runconfig, "metrics": ckpt.metrics},
                        sort_keys=True).encode("utf-8")
    body = (b"TAWQ" + struct.pack("<H", 1) + struct.pack("<I", len(header)) + header
            + struct.pack("<I", len(ckpt.tensors)))
    for name, value in ckpt.tensors.items():
        if isinstance(value, PackedTernaryTensor):
            tag, dims, payload = 2, value.shape, value.codes
        else:
            arr = np.asarray(value)
            tag = 1 if arr.dtype == np.int64 else 0
            dims = arr.shape or (1,)
            payload = arr.astype("<i8" if tag else "<f8").tobytes(order="C")
        name_b = name.encode("utf-8")
        body += struct.pack("<H", len(name_b)) + name_b + struct.pack("<BB", tag, len(dims))
        body += b"".join(struct.pack("<I", d) for d in dims)
        body += struct.pack("<Q", len(payload)) + payload
    return _with_crc(body)


def _layout_checkpoint() -> Checkpoint:
    """One tensor of each kind and layout the writer meets."""
    grid = np.arange(24.0).reshape(4, 6)
    tensors = {
        "f64": np.array([1.5, -0.0, np.inf]),
        "i64": np.array([[3, -4]], dtype=np.int64),
        "packed": pack_ternary(np.array([[1, 0, -1], [0, 1, 1]])),
        "strided": grid[:, ::2],
        "transposed": grid.T,
        "f32": np.array([0.1, 2.5], dtype=np.float32),
        "scalar": np.float64(2.5),
        "scalar-i64": np.array(7, dtype=np.int64),
        "empty": np.empty((0, 3)),
        "big-f64": np.linspace(-1.0, 1.0, 20_000),  # large enough to stream
        "tail": np.ones(2),
        "big-packed": pack_ternary(np.resize([1, 0, -1, 1, 1], 300_001)),
        "big-i64": np.arange(9_000, dtype=np.int64),
    }
    return Checkpoint(runconfig={"b": [1, 2], "a": "é"}, metrics={"loss": 0.25},
                      tensors=tensors)


def _longer_layout_checkpoint() -> Checkpoint:
    ckpt = _layout_checkpoint()
    ckpt.tensors["extra"] = np.arange(5_000.0)
    return ckpt


class TestWriter:
    """The writer streams large payloads and joins the rest, writes over
    the old bytes and cuts the file to length, and still writes the
    documented layout byte for byte."""

    def test_bytes_follow_the_documented_layout(self, tmp_path):
        ckpt = _layout_checkpoint()
        path = tmp_path / "a.ckpt"  # a new path
        save_checkpoint(str(path), ckpt)
        assert path.read_bytes() == _documented_file(ckpt)

    @pytest.mark.parametrize("prior", ["longer", "same-size"])
    def test_save_over_an_existing_file(self, tmp_path, prior):
        ckpt = _layout_checkpoint()
        want = _documented_file(ckpt)
        path = tmp_path / "a.ckpt"
        if prior == "longer":
            save_checkpoint(str(path), _longer_layout_checkpoint())
            assert path.stat().st_size > len(want)
        else:
            path.write_bytes(want[::-1])
        save_checkpoint(str(path), ckpt)
        assert path.read_bytes() == want

    def test_save_to_a_device(self):
        # a device has no length to cut; the save writes to it as to a file
        save_checkpoint(os.devnull, _layout_checkpoint())

    def test_new_file_gets_the_mode_open_gives(self, tmp_path):
        save_checkpoint(str(tmp_path / "a.ckpt"), _layout_checkpoint())
        with open(tmp_path / "b.ckpt", "wb"):
            pass
        assert (tmp_path / "a.ckpt").stat().st_mode == (tmp_path / "b.ckpt").stat().st_mode

    def test_old_bytes_stay_until_the_first_part_is_written(self, tmp_path, monkeypatch):
        # the save writes over the old file; it never truncates it to zero first
        path = tmp_path / "a.ckpt"
        save_checkpoint(str(path), _longer_layout_checkpoint())
        old = path.read_bytes()
        on_disk = []
        spy_writes(monkeypatch, lambda i: i or on_disk.append(path.read_bytes()))
        ckpt = _layout_checkpoint()
        save_checkpoint(str(path), ckpt)
        assert len(on_disk) == 1 and on_disk[0] == old
        assert path.read_bytes() == _documented_file(ckpt)

    def test_conv_network_bytes_follow_the_documented_layout(self, tmp_path):
        cfg = parse_runconfig(conv_document())
        ckpt = checkpoint_from_network(build_network(cfg), cfg, {"epochs": 0})
        path = tmp_path / "conv.ckpt"
        save_checkpoint(str(path), ckpt)
        assert path.read_bytes() == _documented_file(ckpt)

    @pytest.mark.parametrize("document", [conv_document, three_layer_document],
                             ids=["conv", "three-layer"])
    def test_each_payload_reaches_the_file_as_its_own_memory(self, tmp_path, monkeypatch,
                                                             document):
        # the writer copies no payload: the file's buffer joins the small ones
        cfg = parse_runconfig(document())
        ckpt = checkpoint_from_network(build_network(cfg), cfg, {"epochs": 0})
        handed = []

        class Recorder(WriteSpy):
            def write(self, part):
                handed.append(part)
                return super().write(part)

        monkeypatch.setattr("tawq.checkpoint.open", lambda *args, **kwargs:
                            Recorder(open(*args, **kwargs), lambda i: None), raising=False)
        path = tmp_path / "a.ckpt"
        save_checkpoint(str(path), ckpt)
        assert len(handed) == 2 * len(ckpt.tensors) + 2  # file head, (head, payload)s, CRC
        assert bytes(handed[0]).startswith(b"TAWQ") and len(handed[-1]) == 4
        for (name, value), head, part in zip(ckpt.tensors.items(), handed[1::2], handed[2::2]):
            if isinstance(value, PackedTernaryTensor):
                assert part.obj is value.codes
            else:
                assert value.dtype == np.float64 and np.shares_memory(np.asarray(part), value)
            name_b = name.encode()
            assert bytes(head).startswith(struct.pack("<H", len(name_b)) + name_b)
            assert bytes(head).endswith(struct.pack("<Q", len(part)))
        assert min(len(part) for part in handed[2:-1:2]) < 1 << 16
        assert path.read_bytes() == _documented_file(ckpt)

    def test_unconvertible_tensor_raises_before_the_file_opens(self, tmp_path,
                                                               monkeypatch):
        path = tmp_path / "a.ckpt"
        save_checkpoint(str(path), Checkpoint({}, {}, {"x": np.arange(3.0)}))
        before = path.read_bytes()
        bad = Checkpoint({}, {}, {"big": np.zeros(20_000), "bad": np.array(["x"])})

        def no_open(*args, **kwargs):
            raise AssertionError("the file was opened")

        monkeypatch.setattr("tawq.checkpoint.open", no_open, raising=False)
        monkeypatch.setattr(os, "open", no_open)
        # the patches catch the call that opens the file
        with pytest.raises(AssertionError, match="the file was opened"):
            save_checkpoint(str(path), Checkpoint({}, {}, {"y": np.ones(2)}))
        with pytest.raises(ValueError, match="could not convert"):
            save_checkpoint(str(path), bad)
        monkeypatch.undo()
        with pytest.raises(ValueError, match="could not convert"):
            save_checkpoint(str(path), bad)
        assert path.read_bytes() == before


@pytest.mark.parametrize("document", [conv_document, three_layer_document],
                         ids=["conv", "three-layer"])
def test_rebuild_draws_no_weights(monkeypatch, document):
    # every parameter is restored, so the rebuild has nothing to draw
    cfg = parse_runconfig(document())
    ckpt = checkpoint_from_network(build_network(cfg), cfg)

    def no_draw(*args, **kwargs):
        raise AssertionError("a weight was drawn")

    monkeypatch.setattr("tawq.runconfig.np.random.default_rng", no_draw)
    net, _ = network_from_checkpoint(ckpt)
    again = checkpoint_from_network(net, cfg).tensors
    assert again.keys() == ckpt.tensors.keys()
    for key, value in ckpt.tensors.items():
        if isinstance(value, PackedTernaryTensor):
            assert _payload(again[key]) == _payload(value)  # tag, shape and codes
        else:
            assert np.array_equal(again[key], value)


class TestConvNetwork:
    def test_traces_sops_and_round_trip(self, tmp_path):
        cfg = parse_runconfig(conv_document())
        net = build_network(cfg)
        x = (np.random.default_rng(3).random((4, 5, 2, 6, 6)) < 0.5).astype(float)
        net.forward(x, training=True)  # moves the BN running statistics
        logits = net.forward(x, training=False)

        traces = net.traces()
        assert [t["kind"] for t in traces] == [
            "conv", "bn", "lif", "pool", "qconv", "bn", "lif", "flatten", "linear"]
        assert traces[0]["weight_shape"] == (6, 2, 3, 3)
        assert traces[4]["w_q"].shape == (4, 4, 6, 3, 3)
        assert traces[4]["alpha"].shape == (4, 4)
        assert traces[4]["input"].shape == (4, 5, 6, 3, 3)
        assert traces[4]["output"].shape == (4, 5, 4, 3, 3)
        rows = count_sops(traces)
        assert [r.name for r in rows] == ["0.conv", "4.qconv", "8.linear"]
        assert [r.quantized for r in rows] == [False, True, False]
        assert rows[0].tops_per_t == 18 * 6 * 6 * 6
        assert rows[1].tops_per_t == 54 * 4 * 3 * 3
        assert [r.name for r in entropy_report(traces).rows] == ["4.qconv"]

        path = str(tmp_path / "conv.ckpt")
        save_checkpoint(path, checkpoint_from_network(net, cfg))
        net2, _ = network_from_checkpoint(load_checkpoint(path))
        assert np.array_equal(net2.forward(x, training=False), logits)


def _write_config(tmp_path, doc, name="run.yaml"):
    doc = dict(doc)
    doc["output"] = {"checkpoint": str(tmp_path / "run.ckpt"),
                     "metrics": str(tmp_path / "metrics.jsonl")}
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh)
    return path, doc["output"]


class TestCliTrain:
    def test_unknown_key_exits_2_naming_field(self, tmp_path, tiny_doc, capsys):
        doc = dict(tiny_doc)
        doc["quant"] = {"timesteps": 4, "lambduh": 0.5}
        path, _ = _write_config(tmp_path, doc)
        assert main(["train", path]) == 2
        assert "lambduh" in capsys.readouterr().err

    def test_missing_network_exits_2(self, tmp_path, tiny_doc, capsys):
        doc = {k: v for k, v in tiny_doc.items() if k != "network"}
        path, _ = _write_config(tmp_path, doc)
        assert main(["train", path]) == 2
        assert "network" in capsys.readouterr().err

    def test_train_writes_checkpoint_and_log(self, tmp_path, tiny_doc, capsys):
        path, out = _write_config(tmp_path, tiny_doc)
        assert main(["train", path]) == 0
        assert os.path.exists(out["checkpoint"])
        lines = Path(out["metrics"]).read_text().strip().split("\n")
        assert len(lines) == 2 * 3  # train + test per epoch
        record = json.loads(lines[0])
        assert set(record) == {"epoch", "split", "loss", "accuracy",
                               "entropy_mean", "grad_norm"}
        summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert summary["ablate_temporal"] is False

    def test_interrupted_save_leaves_a_file_every_reader_refuses(
            self, tmp_path, tiny_doc, capsys, monkeypatch):
        # the save fails after its first part, over a longer checkpoint: the
        # file is neither the old network nor the new one, and the CRC says so
        wide = default_xor_document(hidden=16)
        wide["train"], wide["dataset"] = tiny_doc["train"], tiny_doc["dataset"]
        path, out = _write_config(tmp_path, wide)
        assert main(["train", path]) == 0
        old = Path(out["checkpoint"]).read_bytes()

        def fail_after_the_first_part(i):
            if i:
                raise OSError(errno.ENOSPC, "No space left on device")

        spy_writes(monkeypatch, fail_after_the_first_part)
        path, out = _write_config(tmp_path, tiny_doc)
        capsys.readouterr()
        assert main(["train", path]) == 2
        assert "No space left on device" in capsys.readouterr().err
        monkeypatch.undo()
        blob = Path(out["checkpoint"]).read_bytes()
        assert len(blob) == len(old) and blob != old
        with pytest.raises(DataError, match="checksum mismatch"):
            load_checkpoint(out["checkpoint"])
        from tawq.data import build_dataset
        inputs = str(tmp_path / "inputs.npz")
        np.savez(inputs, inputs=build_dataset(parse_runconfig(tiny_doc).dataset).test_x)
        assert main(["report", out["checkpoint"]]) == 3
        assert "checksum mismatch" in capsys.readouterr().err
        assert main(["infer", out["checkpoint"], inputs]) == 3
        assert "checksum mismatch" in capsys.readouterr().err

    def test_metrics_log_deterministic(self, tmp_path, tiny_doc):
        p1, o1 = _write_config(tmp_path, tiny_doc, "a.yaml")
        main(["train", p1])
        first = Path(o1["metrics"]).read_bytes()
        main(["train", p1])
        assert Path(o1["metrics"]).read_bytes() == first

    def test_golden_final_loss(self, trained):
        _, _, metrics, _ = trained
        assert metrics["final_test_loss"] == GOLDEN_FINAL_LOSS

    def test_ablate_flag_echoed(self, tmp_path, tiny_doc, capsys):
        path, out = _write_config(tmp_path, tiny_doc)
        assert main(["train", path, "--ablate-temporal"]) == 0
        summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert summary["ablate_temporal"] is True
        ckpt = load_checkpoint(out["checkpoint"])
        assert ckpt.metrics["ablate_temporal"] is True


def _edit(section, key, value):
    def edit(doc):
        doc[section][key] = value
    return edit


def _edit_layer(i, key, value):
    def edit(doc):
        if value is None:
            del doc["network"][i][key]
        else:
            doc["network"][i][key] = value
    return edit


def _insert_layer(i, spec):
    return lambda doc: doc["network"].insert(i, spec)


def _full_precision(doc):
    """A copy of `doc` whose quantized head is a float linear layer."""
    doc = copy.deepcopy(doc)
    doc["network"][-1]["kind"] = "linear"
    return doc


class TestCliTrainRefusals:
    """Configs that used to end in a traceback exit 2 when the document
    alone is wrong, and 3, naming the layer, when the data does not fit."""

    @pytest.mark.parametrize("edit,code,message", [
        (_edit_layer(1, "channels", 16), 3, "layer 1 (bn): expected 16 channels"),
        (_edit_layer(0, "in", 0), 2, "network[0].in: must be an integer >= 1"),
        (_edit_layer(0, "in", None), 2, "network[0]: missing key(s) ['in']"),
        (_edit("train", "epochs", 0), 2, "epochs must be >= 1"),
        (_edit("train", "batch_size", 0), 2, "batch_size must be >= 1"),
        (_edit("dataset", "n_samples", 1), 2, "split empty"),
        (_insert_layer(1, {"kind": "pool", "kernel": 2}), 3,
         "layer 1 (pool): expected a (T, B, C, H, W) input"),
        (_insert_layer(1, {"kind": "conv", "in": 8, "out": 8, "kernel": 1}), 3,
         "layer 1 (conv): expected a (T, B, C, H, W) input"),
        (_edit_layer(3, "out", 1), 3, "narrower than the class count"),
        (_edit("dataset", "timesteps", 6), 2,
         "dataset.timesteps (6) must equal quant.timesteps (4)"),
        (_edit("train", "lr", 0.0), 2, "lr must be positive"),
        (_edit("train", "clip_norm", -1.0), 2, "clip_norm must be positive"),
        (_edit("train", "optimizer", "lion"), 2, "optimizer must be one of"),
        (_edit("train", "lr_schedule", "step"), 2, "lr_schedule must be one of"),
        (_edit("dataset", "encoder", "delta"), 2, "unknown encoder 'delta'"),
        (_edit("dataset", "timesteps", 1), 2, "temporal-xor needs at least 2 timesteps"),
        (lambda doc: doc["quant"].update({"lambda": 0.3, "lam": 0.4}), 2,
         "give 'lambda' or 'lam', not both"),
        pytest.param(
            lambda doc: doc["train"].update(optimizer="sgd", lr=1e308, clip_norm=1e308,
                                            epochs=2),
            4, "numeric error: non-finite gradient",
            marks=pytest.mark.filterwarnings("ignore:overflow|invalid:RuntimeWarning")),
        (_edit("train", "epochs", 1.5), 2, "train.epochs: must be of type int, got 1.5"),
        (_edit("train", "epochs", True), 2, "train.epochs: must be of type int, got True"),
        (_edit("dataset", "n_samples", 10.5), 2,
         "dataset.n_samples: must be of type int, got 10.5"),
        (_edit("train", "seed", -1), 2, "train: seed must be >= 0, got -1"),
        (_edit("dataset", "seed", -1), 2, "dataset: seed must be >= 0, got -1"),
        (_edit("dataset", "noise", "x"), 2, "dataset.noise: must be of type float, got 'x'"),
        (_edit("quant", "temporal", "no"), 2, "quant.temporal: must be of type bool"),
        (lambda doc: doc.update(quant=5), 2, "quant: must be a mapping, got 5"),
        (lambda doc: doc.update(lif=[["tau", 3.0]]), 2, "lif: must be a mapping"),
        (_edit_layer(0, "bias", "no"), 2, "network[0].bias: must be true or false, got 'no'"),
        (_edit("train", "adam_beta1", 1.5), 2, "adam_beta1 must lie in [0, 1), got 1.5"),
        (_edit("train", "adam_beta2", -0.1), 2, "adam_beta2 must lie in [0, 1), got -0.1"),
        (_edit("train", "adam_eps", 0.0), 2, "adam_eps must be positive, got 0.0"),
        (_edit("train", "weight_decay", -1.0), 2, "weight_decay must be >= 0, got -1.0"),
        (_edit("dataset", "encoder", "rate"), 2,
         "dataset: encoder is not read by dataset kind 'synthetic-temporal-xor'; got 'rate'"),
        (_edit("dataset", "path", "grid.bin"), 2,
         "dataset: path is not read by dataset kind 'synthetic-temporal-xor'; got 'grid.bin'"),
        (_edit("dataset", "n_classes", 7), 2,
         "dataset: n_classes is not read by dataset kind 'synthetic-temporal-xor'; got 7"),
        (lambda doc: doc["train"].update(optimizer="sgd", adam_beta1=0.8), 2,
         "train: adam_beta1 is not read by optimizer sgd; got 0.8"),
        (lambda doc: doc["quant"].update(n_level=2, c_th=0.3), 2,
         "quant: c_th is not read by the multi-bit emitter (n_level 2); got 0.3"),
        (lambda doc: doc["quant"].update(n_level=3, sg_chain_factor=True), 2,
         "quant: sg_chain_factor is not read by the multi-bit emitter (n_level 3); got True"),
    ], ids=["bn-channels", "zero-in", "missing-in", "zero-epochs", "zero-batch",
            "one-sample", "pool-after-linear", "conv-after-linear", "narrow-head",
            "timesteps-mismatch", "zero-lr", "negative-clip", "unknown-optimizer",
            "unknown-schedule", "unknown-encoder", "xor-one-timestep", "both-lambdas",
            "diverging-sgd", "float-epochs", "bool-epochs", "float-n-samples",
            "negative-train-seed", "negative-dataset-seed", "string-noise",
            "string-temporal", "quant-not-a-mapping", "lif-pair-list", "string-bias",
            "beta1-above-one", "negative-beta2", "zero-eps", "negative-weight-decay",
            "xor-rate-encoder", "xor-path", "xor-n-classes", "sgd-adam-beta1",
            "multibit-c-th", "multibit-chain-factor"])
    def test_exit_code_and_message(self, tmp_path, tiny_doc, capsys, edit, code, message):
        doc = copy.deepcopy(tiny_doc)
        edit(doc)
        path, _ = _write_config(tmp_path, doc)
        assert main(["train", path]) == code
        assert message in capsys.readouterr().err

    # An integer would be opened as a file descriptor, and 1 or 2 would be
    # the process's own stdout or stderr; the test uses numbers no open
    # descriptor has, so that a regression fails here without harm.
    @pytest.mark.parametrize("key,value", [("checkpoint", 987654), ("checkpoint", None),
                                           ("metrics", 987655)])
    def test_output_path_must_be_a_string(self, tmp_path, tiny_doc, capsys, key, value):
        path, out = _write_config(tmp_path, tiny_doc)
        with open(path) as fh:
            doc = yaml.safe_load(fh)
        doc["output"][key] = value
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh)
        assert main(["train", path]) == 2
        captured = capsys.readouterr()
        assert f"output.{key}: must be a file path, got {value!r}" in captured.err
        assert captured.out == "" and not os.path.exists(out["metrics"])

    @pytest.mark.parametrize("section,values", [
        ("train", {"optimizer": "sgd"}),
        ("quant", {"n_level": 2}),
        ("dataset", {"kind": "synthetic-rate-patterns"}),
    ], ids=["sgd", "multibit", "rate-patterns"])
    def test_echoed_defaults_of_unread_fields_accepted(self, tiny_doc, section, values):
        # a checkpoint echoes every field, unread ones at their defaults
        doc = copy.deepcopy(tiny_doc)
        doc[section].update(values)
        echo = parse_runconfig(doc).to_dict()
        assert parse_runconfig(echo).to_dict() == echo

    def test_negative_seed_flag_exits_2(self, tmp_path, tiny_doc, capsys):
        path, _ = _write_config(tmp_path, tiny_doc)
        assert main(["train", path, "--seed", "-1"]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("- linear\n- lif\n", "run configuration must be a mapping"),
        ("network: [{in: 2}]\n", "network[0]: each layer needs a 'kind'"),
        ("network: [{kind: dense}]\n", "network[0].kind: unknown layer kind 'dense'"),
        ("network: [\n", "cfg.yaml: while parsing a flow node"),
    ], ids=["not-a-mapping", "no-kind", "unknown-kind", "yaml-syntax"])
    def test_malformed_document_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        assert main(["train", str(path)]) == 2
        assert message in capsys.readouterr().err

    # Each value used to train with no effect, or to end in a traceback or a
    # numeric error (exit 4) that named no field.
    @pytest.mark.parametrize("section,key,value,rule", [
        ("dataset", "test_fraction", float("nan"), "be finite"),
        ("dataset", "test_fraction", 1.0, "be in (0, 1)"),
        ("dataset", "noise", float("nan"), "be finite"),
        ("dataset", "noise", -1, "be >= 0"),
        ("dataset", "noise", 2, "lie in [0, 1]"),
        ("quant", "c_th", float("nan"), "be finite"),
        ("quant", "c_th", float("inf"), "be finite"),
        ("quant", "epsilon", float("nan"), "be finite"),
        ("quant", "epsilon", float("inf"), "be finite"),
        ("quant", "sg_scale", float("nan"), "be finite"),
        ("quant", "sg_scale", 0, "be positive"),
        ("quant", "sg_scale", -4, "be positive"),
        ("lif", "tau", float("nan"), "be finite"),
        ("lif", "tau", float("inf"), "be finite"),
        ("lif", "v_threshold", float("nan"), "be finite"),
        ("lif", "v_reset", float("nan"), "be finite"),
        ("lif", "sg_scale_neuron", float("nan"), "be finite"),
        ("lif", "sg_scale_neuron", -1, "be positive"),
        ("train", "lr", float("nan"), "be finite"),
        ("train", "lr", float("inf"), "be finite"),
        ("train", "clip_norm", float("nan"), "be finite"),
        ("train", "clip_norm", float("inf"), "be finite"),
    ], ids=str)
    def test_float_out_of_range_exits_2(self, tmp_path, tiny_doc, capsys, section, key,
                                        value, rule):
        doc = copy.deepcopy(tiny_doc)
        doc[section][key] = value
        path, out = _write_config(tmp_path, doc)
        assert main(["train", path]) == 2
        captured = capsys.readouterr()
        assert f"config error: {section}: {key} must {rule}, got {value}" in captured.err
        assert captured.out == "" and not os.path.exists(out["metrics"])

    def test_lam_refused_when_temporal_is_off(self, tmp_path, tiny_doc, capsys):
        doc = copy.deepcopy(tiny_doc)
        doc["quant"].update(temporal=False, lam=0.3)
        path, _ = _write_config(tmp_path, doc)
        assert main(["train", path]) == 2
        assert ("lam is not read by the memoryless quantizer (quant.temporal false); "
                "got 0.3") in capsys.readouterr().err

    @pytest.mark.parametrize("kind,noise", [("synthetic-temporal-xor", 1.0),
                                            ("synthetic-rate-patterns", 2.0)])
    def test_noise_bound_follows_the_dataset_kind(self, tmp_path, tiny_doc, kind, noise):
        # an XOR flip probability stops at 1; a rate pattern's Gaussian spread does not
        doc = copy.deepcopy(tiny_doc)
        doc["dataset"].update(kind=kind, noise=noise)
        path, _ = _write_config(tmp_path, doc)
        assert main(["train", path]) == 0

    # Each value used to train a net with no qlinear or qconv to the same
    # metrics log as the default.
    @pytest.mark.parametrize("key,value", [
        ("lam", 0.3), ("c_th", 0.4), ("sg_scale", 2.0), ("epsilon", 1e-4),
        ("n_level", 2), ("sg_chain_factor", True), ("temporal", False)])
    def test_quant_field_refused_without_quantized_layer(self, tmp_path, tiny_doc, capsys,
                                                         key, value):
        doc = _full_precision(tiny_doc)
        doc["quant"][key] = value
        path, out = _write_config(tmp_path, doc)
        assert main(["train", path]) == 2
        assert (f"{key} is not read by a network with no qlinear or qconv layer; "
                f"got {value!r}") in capsys.readouterr().err
        assert not os.path.exists(out["metrics"])

    def test_ablate_temporal_refused_without_quantized_layer(self, tmp_path, tiny_doc,
                                                             capsys):
        path, out = _write_config(tmp_path, _full_precision(tiny_doc))
        assert main(["train", path, "--ablate-temporal"]) == 2
        assert ("temporal is not read by a network with no qlinear or qconv layer; "
                "got False") in capsys.readouterr().err
        assert not os.path.exists(out["metrics"])

    def test_ablated_run_of_a_lam_document_reports(self, tmp_path, tiny_doc):
        # the checkpoint echoes temporal false beside lam 0.3, and still loads
        doc = copy.deepcopy(tiny_doc)
        doc["quant"]["lam"] = 0.3
        path, out = _write_config(tmp_path, doc)
        assert main(["train", path, "--ablate-temporal"]) == 0
        echo = load_checkpoint(out["checkpoint"]).runconfig["quant"]
        assert echo["temporal"] is False and echo["lam"] == 0.3
        assert main(["report", out["checkpoint"]]) == 0


def _dense(kind, n_in, n_out):
    return {"kind": kind, "in": n_in, "out": n_out}


FOLLOW_RULE = ("config error: network[0]: quantized layer must feed a spiking "
               "nonlinearity (optionally through bn) unless it is the head\n")
BN4, LIF, HEAD = {"kind": "bn", "channels": 4}, {"kind": "lif"}, _dense("linear", 4, 2)


class TestParserJudgesTheRun:
    """Every document rule that needs no file is judged by the parser,
    before any data is generated or read and before any output is written."""

    @pytest.mark.parametrize("network", [
        [_dense("qlinear", 2, 4), HEAD],
        [_dense("qlinear", 2, 4), BN4, HEAD],
        [{"kind": "qconv", "in": 2, "out": 4, "kernel": 1}, {"kind": "pool", "kernel": 1},
         {"kind": "flatten"}, HEAD],
        [_dense("qlinear", 2, 4), BN4, BN4, LIF, HEAD],
    ], ids=["linear", "bn-linear", "pool", "bn-bn-lif"])
    def test_quantized_layer_must_feed_a_lif(self, tmp_path, tiny_doc, capsys, network):
        path, out = _write_config(tmp_path, dict(tiny_doc, network=network))
        assert main(["train", path]) == 2
        assert capsys.readouterr().err == FOLLOW_RULE
        assert not os.path.exists(out["metrics"])

    @pytest.mark.parametrize("network", [
        [_dense("linear", 2, 4), LIF, _dense("qlinear", 4, 2)],
        [_dense("qlinear", 2, 4), LIF, HEAD],
        [_dense("qlinear", 2, 4), BN4, LIF, HEAD],
    ], ids=["head", "lif", "bn-lif"])
    def test_quantized_layer_feeding_a_lif_trains(self, tmp_path, tiny_doc, network):
        path, _ = _write_config(tmp_path, dict(tiny_doc, network=network))
        assert main(["train", path]) == 0

    # The raster-grid file does not exist: the refusal must come first.
    @pytest.mark.parametrize("network,flags,message", [
        ([_dense("qlinear", 2, 4), HEAD], [], FOLLOW_RULE),
        ([_dense("linear", 2, 4), LIF, HEAD], ["--ablate-temporal"],
         "config error: temporal is not read by a network with no qlinear or qconv "
         "layer; got False\n"),
    ], ids=["follow-rule", "ablate-full-precision"])
    def test_refused_before_the_dataset_is_read(self, tmp_path, tiny_doc, capsys, network,
                                                flags, message):
        dataset = {"kind": "raster-grid", "path": str(tmp_path / "missing.bin"),
                   "timesteps": 4}
        path, _ = _write_config(tmp_path, dict(tiny_doc, network=network, dataset=dataset))
        assert main(["train", path, *flags]) == 2
        assert capsys.readouterr().err == message

    def test_gen_data_refuses_the_document(self, tmp_path, tiny_doc, capsys):
        path, _ = _write_config(tmp_path, dict(tiny_doc, network=[_dense("qlinear", 2, 4), HEAD]))
        out = tmp_path / "dataset.npz"
        assert main(["gen-data", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == FOLLOW_RULE
        assert not out.exists()

    @pytest.mark.parametrize("where,section", [
        (lambda doc: doc["network"][0], "network[0]"),
        (lambda doc: doc["train"], "train"),
        (lambda doc: doc, "document"),
    ], ids=["layer", "section", "top-level"])
    def test_unknown_keys_of_mixed_types(self, tmp_path, tiny_doc, capsys, where, section):
        doc = copy.deepcopy(tiny_doc)
        where(doc).update({1: 2, "x": 3})
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))  # its keys do not sort
        assert main(["train", str(path)]) == 2
        assert f"config error: {section}: unknown key(s) [1, 'x']" in capsys.readouterr().err

    def test_document_that_is_not_utf8(self, tmp_path, tiny_doc, capsys):
        path, out = _write_config(tmp_path, tiny_doc)
        with open(path, "ab") as fh:
            fh.write(b"# \xff\n")
        assert main(["train", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ") and "invalid start byte" in err
        assert not os.path.exists(out["metrics"])

    @pytest.mark.parametrize("name,text,key,line", [
        ("run.yaml", "quant: {timesteps: 4, c_th: 0.9, c_th: 0.25}\n{rest}", "c_th", 1),
        ("run.json", '{"train": {"epochs": 1,\n"epochs": 2}, {rest}', "epochs", 2),
        ("run.yaml", "train: {epochs: 1}\ntrain: {epochs: 2}\n{rest}", "train", 2),
    ], ids=["yaml", "json", "yaml-section"])
    def test_a_key_given_twice_exits_2_naming_it(self, tmp_path, tiny_doc, capsys, name,
                                                 text, key, line):
        doc = {k: v for k, v in tiny_doc.items() if k not in ("quant", "train")}
        doc["output"] = {"metrics": str(tmp_path / "metrics.jsonl")}
        rest = (yaml.safe_dump(doc, default_flow_style=False) if name.endswith("yaml")
                else json.dumps(doc)[1:])
        path = tmp_path / name
        path.write_text(text.replace("{rest}", rest))
        assert main(["train", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f'config error: {path}: found duplicate key {key!r}\n  in "{path}", line {line},')
        assert not (tmp_path / "metrics.jsonl").exists()

    def test_a_key_may_repeat_one_a_merge_brings_in(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("network:\n"
                        "  - &hidden {kind: linear, in: 2, out: 8}\n"
                        "  - {kind: lif}\n"
                        "  - {<<: *hidden, kind: qlinear, in: 8, out: 2}\n")
        assert load_runconfig(str(path)).network[2] == {"kind": "qlinear", "in": 8, "out": 2}

    def test_a_merged_mapping_with_its_own_merge_is_not_a_duplicate(self, tmp_path):
        # building the second item flattens &q before &q's own mapping is built
        path = tmp_path / "run.yaml"
        path.write_text("network:\n"
                        "  - &lin {kind: linear, in: 2, out: 8}\n"
                        "  - {kind: lif}\n"
                        "  - {<<: &q {<<: *lin, kind: qlinear, in: 8}, out: 8}\n"
                        "  - {kind: lif}\n"
                        "  - *q\n")
        network = load_runconfig(str(path)).network
        assert network[2] == network[4] == {"kind": "qlinear", "in": 8, "out": 8}


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory, tiny_doc):
    tmp = tmp_path_factory.mktemp("cli")
    path, out = _write_config(tmp, tiny_doc)
    assert main(["train", path]) == 0
    inputs = str(tmp / "inputs.npz")
    cfg = parse_runconfig(tiny_doc)
    from tawq.data import build_dataset
    ds = build_dataset(cfg.dataset)
    np.savez(inputs, inputs=ds.test_x)
    return {"tmp": tmp, "config": path, "ckpt": out["checkpoint"],
            "inputs": inputs}


class TestCliReportInferFold:
    def test_report_prints_tables_and_json(self, cli_artifacts, capsys):
        jpath = str(cli_artifacts["tmp"] / "report.jsonl")
        assert main(["report", cli_artifacts["ckpt"], "--json", jpath]) == 0
        text = capsys.readouterr().out
        assert "entropy" in text and "E_total" in text
        sections = [json.loads(l)["section"] for l in Path(jpath).read_text().splitlines()]
        assert set(sections) == {"entropy", "energy", "hardware", "firing"}

    def test_report_of_full_precision_checkpoint(self, tmp_path, tiny_doc, capsys):
        # the float baseline reports its energy, with an empty entropy section
        path, out = _write_config(tmp_path, _full_precision(tiny_doc))
        assert main(["train", path]) == 0
        jpath = str(tmp_path / "report.jsonl")
        assert main(["report", out["checkpoint"], "--json", jpath]) == 0
        assert "E_total" in capsys.readouterr().out
        records = {r["section"]: r for r in map(json.loads, Path(jpath).read_text().splitlines())}
        assert records["entropy"]["layers"] == [] and records["entropy"]["mean"] == 0.0
        assert records["energy"]["e_total_pj"] > 0

    def test_report_of_network_without_lif(self, tmp_path, tiny_doc, capsys):
        # no spiking layer: the firing section reports empty rates
        doc = copy.deepcopy(tiny_doc)
        doc["network"] = [{"kind": "linear", "in": 2, "out": 2}]
        path, out = _write_config(tmp_path, doc)
        assert main(["train", path]) == 0
        jpath = str(tmp_path / "report.jsonl")
        assert main(["report", out["checkpoint"], "--json", jpath]) == 0
        capsys.readouterr()
        records = {r["section"]: r for r in map(json.loads, Path(jpath).read_text().splitlines())}
        assert records["firing"]["rates"] == [] and records["firing"]["mean_rate"] == 0.0

    def test_report_missing_tensor_exits_3(self, cli_artifacts, capsys):
        ckpt = load_checkpoint(cli_artifacts["ckpt"])
        del ckpt.tensors["1.running_var"]
        path = str(cli_artifacts["tmp"] / "no_var.ckpt")
        save_checkpoint(path, ckpt)
        assert main(["report", path]) == 3
        assert "checkpoint missing tensor 1.running_var" in capsys.readouterr().err

    def test_report_corrupt_checkpoint_exits_3(self, cli_artifacts, capsys):
        bad = str(cli_artifacts["tmp"] / "bad.ckpt")
        blob = bytearray(Path(cli_artifacts["ckpt"]).read_bytes())
        blob[-10] ^= 0x55
        Path(bad).write_bytes(bytes(blob))
        assert main(["report", bad]) == 3
        assert "checksum" in capsys.readouterr().err

    def test_infer_folded_unfolded_agree(self, cli_artifacts, capsys):
        args = ["infer", cli_artifacts["ckpt"], cli_artifacts["inputs"]]
        assert main(args + ["--folded"]) == 0
        folded = capsys.readouterr().out
        assert main(args + ["--unfolded"]) == 0
        unfolded = capsys.readouterr().out
        assert folded == unfolded

    def test_infer_reports_fold_plan(self, cli_artifacts, capsys):
        # the XOR reference net's qlinear is the head, with no bn+lif after
        # it: nothing folds, and infer says so on stderr only
        args = ["infer", cli_artifacts["ckpt"], cli_artifacts["inputs"]]
        assert main(args + ["--unfolded"]) == 0
        unfolded = capsys.readouterr()
        assert unfolded.err == ""
        assert main(args) == 0
        folded = capsys.readouterr()
        assert folded.out == unfolded.out
        assert folded.err == ("folded blocks: none; float layers: 0 (linear), "
                              "1 (bn), 2 (lif), 3 (qlinear)\n")

    def test_infer_repeated_byte_identical(self, cli_artifacts):
        out1 = str(cli_artifacts["tmp"] / "p1.txt")
        out2 = str(cli_artifacts["tmp"] / "p2.txt")
        base = ["infer", cli_artifacts["ckpt"], cli_artifacts["inputs"]]
        assert main(base + ["--out", out1]) == 0
        assert main(base + ["--out", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_infer_empty_input_exits_2(self, cli_artifacts, capsys):
        empty = str(cli_artifacts["tmp"] / "empty.npz")
        open(empty, "w").close()
        assert main(["infer", cli_artifacts["ckpt"], empty]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("name,inputs,message", [
        ("inputs.npy", np.zeros((4, 5, 2)), "not an .npz archive"),
        ("flat.npz", np.zeros((4, 2)), "'inputs' must be (T, B, features...)"),
    ], ids=["npy-file", "2d-inputs"])
    def test_infer_unreadable_inputs_exit_3(self, cli_artifacts, capsys, name,
                                            inputs, message):
        path = str(cli_artifacts["tmp"] / name)
        if name.endswith(".npy"):
            np.save(path, inputs)
        else:
            np.savez(path, inputs=inputs)
        assert main(["infer", cli_artifacts["ckpt"], path]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["--folded", "--unfolded"])
    def test_infer_wrong_width_exits_3(self, cli_artifacts, capsys, mode):
        bad = str(cli_artifacts["tmp"] / "wide.npz")
        np.savez(bad, inputs=np.zeros((4, 5, 3)))
        assert main(["infer", cli_artifacts["ckpt"], bad, mode]) == 3
        assert "input width 3 != weight width 2" in capsys.readouterr().err

    def test_infer_folded_error_names_layer(self, cli_artifacts, capsys):
        bad = str(cli_artifacts["tmp"] / "wide.npz")
        np.savez(bad, inputs=np.zeros((4, 5, 3)))
        assert main(["infer", cli_artifacts["ckpt"], bad]) == 3
        assert "layer 0 (linear)" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["--folded", "--unfolded"])
    def test_infer_reads_a_gen_data_archive(self, cli_artifacts, capsys, mode):
        # with no 'inputs' array, infer reads the 'test_inputs' gen-data writes
        data = str(cli_artifacts["tmp"] / "generated.npz")
        assert main(["gen-data", cli_artifacts["config"], "--out", data]) == 0
        capsys.readouterr()
        assert main(["infer", cli_artifacts["ckpt"], data, mode]) == 0
        preds = capsys.readouterr().out
        with np.load(data) as npz:
            assert "inputs" not in npz.files
            n_test = npz["test_inputs"].shape[1]
        assert preds.splitlines() and set(preds.splitlines()) <= {"0", "1"}
        assert len(preds.splitlines()) == n_test
        assert main(["infer", cli_artifacts["ckpt"], cli_artifacts["inputs"], mode]) == 0
        assert capsys.readouterr().out == preds  # the same test samples

    def test_gen_data_raster_needs_square_features(self, cli_artifacts, capsys):
        out = str(cli_artifacts["tmp"] / "grid.bin")
        assert main(["gen-data", cli_artifacts["config"], "--raster",
                     "--out", out]) == 3
        assert "2 features" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_fold_emits_parameters(self, cli_artifacts, capsys):
        out = str(cli_artifacts["tmp"] / "folded.npz")
        # the tiny net's quantized layer is the head (no bn+lif after it),
        # so folding reports no foldable block
        code = main(["fold", cli_artifacts["ckpt"], "--out", out])
        capsys.readouterr()
        assert code == 3

    def test_gen_data_npz(self, cli_artifacts, capsys):
        out = str(cli_artifacts["tmp"] / "data.npz")
        assert main(["gen-data", cli_artifacts["config"], "--out", out]) == 0
        capsys.readouterr()
        with np.load(out) as npz:
            assert {"train_inputs", "train_labels",
                    "test_inputs", "test_labels"} <= set(npz.files)

    def test_gen_data_writes_exactly_out(self, cli_artifacts, capsys):
        out = cli_artifacts["tmp"] / "data.bin"
        assert main(["gen-data", cli_artifacts["config"], "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert not out.with_name("data.bin.npz").exists()
        with np.load(out) as npz:
            assert "train_inputs" in npz.files


def test_every_error_maps_to_an_exit_code():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.TawqError)
               and c is not errors.TawqError]
    assert errors.StateError in classes
    for cls in classes:
        assert issubclass(cls, (errors.ConfigError, errors.DataError,
                                errors.NumericError)), cls


class TestCliFileErrors:
    """A missing or unreadable file exits 2, naming the file, and an input
    archive that opens but holds neither an 'inputs' nor a 'test_inputs'
    array exits 3; neither
    ends in a traceback."""

    def test_missing_config(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.yaml")
        assert main(["train", missing]) == 2
        assert missing in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["report", "infer"])
    def test_missing_checkpoint(self, cli_artifacts, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.ckpt")
        inputs = [cli_artifacts["inputs"]] if command == "infer" else []
        assert main([command, missing, *inputs]) == 2
        assert missing in capsys.readouterr().err

    def test_checkpoint_is_a_directory(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_missing_raster_grid(self, tmp_path, tiny_doc, capsys):
        missing = str(tmp_path / "missing.bin")
        doc = dict(tiny_doc, dataset={"kind": "raster-grid", "path": missing,
                                      "timesteps": 4})
        path, _ = _write_config(tmp_path, doc)
        assert main(["train", path]) == 2
        assert missing in capsys.readouterr().err

    def test_metrics_in_missing_directory(self, tmp_path, tiny_doc, capsys):
        path, out = _write_config(tmp_path, tiny_doc)
        with open(path) as fh:
            doc = yaml.safe_load(fh)
        metrics = str(tmp_path / "absent" / "metrics.jsonl")
        doc["output"]["metrics"] = metrics
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh)
        assert main(["train", path]) == 2
        assert metrics in capsys.readouterr().err
        assert not os.path.exists(out["checkpoint"])

    @pytest.mark.parametrize("write,message", [
        (lambda path: path.write_bytes(b"PK\x03\x04 and no zip after it"),
         "cannot read 'inputs' array: File is not a zip file"),
        (lambda path: np.savez(path, x=np.zeros((4, 5, 2))),
         "cannot read 'inputs' array: the archive holds neither 'inputs' nor 'test_inputs'"),
    ], ids=["zip-magic-only", "no-inputs-key"])
    def test_unreadable_archive_exits_3(self, cli_artifacts, tmp_path, capsys,
                                        write, message):
        path = tmp_path / "inputs.npz"
        write(path)
        assert main(["infer", cli_artifacts["ckpt"], str(path)]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("mode", ["--folded", "--unfolded"])
    def test_non_finite_inputs_exit_3(self, cli_artifacts, tmp_path, capsys, mode, value):
        path = tmp_path / "inputs.npz"
        x = np.zeros((4, 3, 2))
        x[1, 2, 0] = value
        np.savez(path, inputs=x)
        assert main(["infer", cli_artifacts["ckpt"], str(path), mode]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"data error: {path}: 'inputs' holds non-finite values" in captured.err


class TestCliRunFlagsAndDatasets:
    def _train_log(self, tmp_path, doc, *flags) -> bytes:
        path, out = _write_config(tmp_path, doc)
        assert main(["train", path, *flags]) == 0
        with open(out["metrics"], "rb") as fh:
            return fh.read()

    def test_seed_flag_equals_config_seed(self, tmp_path, tiny_doc, capsys):
        doc = copy.deepcopy(tiny_doc)
        flagged = self._train_log(tmp_path, doc, "--seed", "3")
        assert self._train_log(tmp_path, doc) != flagged  # tiny_doc's seed is 0
        doc["train"]["seed"] = 3
        assert self._train_log(tmp_path, doc) == flagged
        capsys.readouterr()

    def test_lambda_alias(self, tmp_path, tiny_doc, capsys):
        doc = copy.deepcopy(tiny_doc)
        doc["quant"] = {"timesteps": 4, "lambda": 0.3}
        assert parse_runconfig(doc).quant.lam == 0.3
        aliased = self._train_log(tmp_path, doc)
        doc["quant"] = {"timesteps": 4, "lam": 0.3}
        assert self._train_log(tmp_path, doc) == aliased
        doc["quant"] = {"timesteps": 4}
        assert self._train_log(tmp_path, doc) != aliased
        capsys.readouterr()

    @pytest.fixture
    def raster(self, tmp_path, tiny_doc, capsys):
        """A raster-grid file written by `gen-data --raster` from a 4x4
        rate-pattern set, with that set's parsed config."""
        doc = dict(tiny_doc, dataset={"kind": "synthetic-rate-patterns", "n_samples": 64,
                                      "timesteps": 4, "n_features": 16, "seed": 5})
        path, _ = _write_config(tmp_path, doc)
        out = str(tmp_path / "grid.bin")
        assert main(["gen-data", path, "--raster", "--out", out]) == 0
        capsys.readouterr()
        return out, parse_runconfig(doc)

    def test_gen_data_raster_refuses_label_past_a_byte(self, tmp_path, tiny_doc, capsys):
        # 300 classes: a label of 256 or more would wrap in the u8 label field
        from tawq.data import build_dataset
        doc = dict(tiny_doc, dataset={"kind": "synthetic-rate-patterns", "n_samples": 600,
                                      "timesteps": 4, "n_classes": 300, "n_features": 16})
        path, _ = _write_config(tmp_path, doc)
        out = tmp_path / "grid.bin"
        labels = build_dataset(parse_runconfig(doc).dataset).train_y
        first = labels[labels > 255][0]
        assert main(["gen-data", path, "--raster", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"data error: label {first} does not fit a byte (0..255)\n")
        assert not out.exists()

    def test_gen_data_raster_reads_back(self, raster):
        from tawq.data import build_dataset
        out, cfg = raster
        ds = build_dataset(cfg.dataset)
        pixels, labels = load_raster_grid(out)
        assert pixels.shape == (ds.train_y.size, 4, 4)
        assert np.array_equal(labels, ds.train_y)
        rates = ds.train_x.mean(axis=0).reshape(-1, 4, 4)
        assert np.all(np.abs(pixels / 255.0 - rates) < 1 / 255)

    @pytest.mark.parametrize("encoder", ["direct", "latency"])
    def test_train_on_raster_grid(self, raster, tmp_path, tiny_doc, capsys, encoder):
        doc = copy.deepcopy(tiny_doc)
        doc["dataset"] = {"kind": "raster-grid", "path": raster[0], "timesteps": 4,
                          "encoder": encoder}
        doc["network"][0]["in"] = 16
        path, out = _write_config(tmp_path, doc)
        assert main(["train", path]) == 0
        summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert 0.0 <= summary["final_test_accuracy"] <= 1.0
        assert os.path.exists(out["checkpoint"])


class TestFoldCommandWithBlock:
    def test_fold_three_layer_net(self, tmp_path, capsys):
        from conftest import three_layer_document
        doc = three_layer_document(epochs=2)
        path, out = _write_config(tmp_path, doc)
        assert main(["train", path]) == 0
        capsys.readouterr()
        folded = str(tmp_path / "folded.npz")
        assert main(["fold", out["checkpoint"], "--out", folded]) == 0
        capsys.readouterr()
        with np.load(folded) as npz:
            assert "block0.rho" in npz.files and "block0.delta" in npz.files
            assert npz["block0.rho"].shape == (4, 16)

    def test_fold_writes_exactly_out(self, three_layer_artifacts, capsys):
        out = three_layer_artifacts["tmp"] / "folded.bin"
        assert main(["fold", three_layer_artifacts["ckpt"], "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"folded 1 block(s) -> {out}\n"
        assert not out.with_name("folded.bin.npz").exists()
        with np.load(out) as npz:
            assert npz["block0.rho"].shape == (4, 16)

    def test_fold_reports_fold_plan(self, tmp_path, capsys):
        from conftest import three_layer_document
        path, out = _write_config(tmp_path, three_layer_document(epochs=2))
        assert main(["train", path]) == 0
        capsys.readouterr()
        folded = str(tmp_path / "folded.npz")
        assert main(["fold", out["checkpoint"], "--out", folded]) == 0
        printed = capsys.readouterr()
        assert printed.out == f"folded 1 block(s) -> {folded}\n"
        assert printed.err == (
            "folded blocks: 3-5 (qlinear, bn, lif); "
            "float layers: 0 (linear), 1 (bn), 2 (lif), 6 (linear)\n")

    def test_infer_reports_folded_block(self, tmp_path, capsys):
        from conftest import three_layer_document
        from tawq.data import build_dataset
        doc = three_layer_document(epochs=2)
        path, out = _write_config(tmp_path, doc)
        assert main(["train", path]) == 0
        inputs = str(tmp_path / "inputs.npz")
        np.savez(inputs, inputs=build_dataset(parse_runconfig(doc).dataset).test_x)
        capsys.readouterr()
        assert main(["infer", out["checkpoint"], inputs]) == 0
        assert capsys.readouterr().err == (
            "folded blocks: 3-5 (qlinear, bn, lif); "
            "float layers: 0 (linear), 1 (bn), 2 (lif), 6 (linear)\n")


@pytest.fixture(scope="module")
def three_layer_artifacts(tmp_path_factory):
    from tawq.data import build_dataset
    tmp = tmp_path_factory.mktemp("three")
    doc = three_layer_document(epochs=2)
    path, out = _write_config(tmp, doc)
    assert main(["train", path]) == 0
    inputs = str(tmp / "inputs.npz")
    np.savez(inputs, inputs=build_dataset(parse_runconfig(doc).dataset).test_x)
    return {"tmp": tmp, "ckpt": out["checkpoint"], "inputs": inputs}


class TestInferModesAlike:
    def test_wrong_timestep_count_same_stderr(self, three_layer_artifacts, capsys):
        with np.load(three_layer_artifacts["inputs"]) as npz:
            x = npz["inputs"]
        seven = str(three_layer_artifacts["tmp"] / "seven.npz")
        np.savez(seven, inputs=np.concatenate([x, x[:3]]))
        errs = []
        for mode in ("--folded", "--unfolded"):
            assert main(["infer", three_layer_artifacts["ckpt"], seven, mode]) == 3
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == (
            "data error: layer 3 (qlinear): expected 4 timesteps, got input with 7\n")

    @pytest.mark.parametrize("mode", ["--folded", "--unfolded"])
    def test_zero_samples_write_nothing(self, three_layer_artifacts, capsys, mode):
        none = str(three_layer_artifacts["tmp"] / "none.npz")
        np.savez(none, inputs=np.zeros((4, 0, 2)))
        args = ["infer", three_layer_artifacts["ckpt"], none, mode]
        assert main(args) == 0
        assert capsys.readouterr().out == ""
        preds = three_layer_artifacts["tmp"] / f"none{mode}.txt"
        assert main(args + ["--out", str(preds)]) == 0
        assert preds.read_bytes() == b""


class TestBnStatisticsRefused:
    """Stored BN statistics that would make inference NaN are refused by the
    reader, in either inference mode, for the BN of the float input block
    (layer 1) and of the quantized block (layer 4)."""

    @pytest.mark.parametrize("mode", ["--folded", "--unfolded"])
    @pytest.mark.parametrize("layer", [1, 4], ids=["float-block", "quantized-block"])
    @pytest.mark.parametrize("buffer,value", [
        ("running_var", -1.0), ("running_var", -1e-5), ("running_var", np.inf),
        ("running_var", np.nan), ("running_mean", np.nan), ("running_mean", -np.inf),
    ], ids=["negative-var", "var-at-minus-eps", "infinite-var", "nan-var", "nan-mean",
            "infinite-mean"])
    def test_infer_exits_3_naming_the_layer(self, three_layer_artifacts, capsys, mode,
                                            layer, buffer, value):
        ckpt = load_checkpoint(three_layer_artifacts["ckpt"])
        ckpt.tensors[f"{layer}.{buffer}"][3] = value
        path = str(three_layer_artifacts["tmp"] / "bad_stats.ckpt")
        save_checkpoint(path, ckpt)
        capsys.readouterr()
        assert main(["infer", path, three_layer_artifacts["inputs"], mode]) == 3
        err = capsys.readouterr().err
        assert f"layer {layer} (bn): running statistics must be finite" in err, err

    def test_variance_just_above_minus_eps_accepted(self, three_layer_artifacts, capsys):
        ckpt = load_checkpoint(three_layer_artifacts["ckpt"])
        ckpt.tensors["4.running_var"][3] = -0.5e-5
        path = str(three_layer_artifacts["tmp"] / "small_var.ckpt")
        save_checkpoint(path, ckpt)
        network_from_checkpoint(load_checkpoint(path))
        args = ["infer", path, three_layer_artifacts["inputs"]]
        capsys.readouterr()
        assert main(args + ["--folded"]) == 0
        folded = capsys.readouterr().out
        assert main(args + ["--unfolded"]) == 0
        assert folded == capsys.readouterr().out


@pytest.mark.parametrize("command", ["report", "infer", "fold"])
@pytest.mark.parametrize("artifacts,key,stored", [
    ("cli_artifacts", "0.weight", "packed"),
    ("cli_artifacts", "1.running_var", "packed"),
    ("cli_artifacts", "3.stimulus", "packed"),
    ("three_layer_artifacts", "0.weight", (3, 2)),
    ("three_layer_artifacts", "6.weight", (2, 5)),
], ids=["xor-weight-packed", "xor-var-packed", "xor-stimulus-packed",
        "three-layer-weight-3x2", "three-layer-head-2x5"])
def test_tensor_stored_unlike_the_network_exits_3(request, tmp_path, capsys, command,
                                                  artifacts, key, stored):
    # CRC-valid files whose parameter or BN buffer has another tag or dims
    files = request.getfixturevalue(artifacts)
    ckpt = load_checkpoint(files["ckpt"])
    value = ckpt.tensors[key]
    ckpt.tensors[key] = (pack_ternary(np.sign(value)) if stored == "packed"
                         else value[tuple(slice(n) for n in stored)])
    path = str(tmp_path / "unlike.ckpt")
    save_checkpoint(path, ckpt)
    args = {"report": [], "infer": [files["inputs"]],
            "fold": ["--out", str(tmp_path / "folded.npz")]}[command]
    capsys.readouterr()
    assert main([command, path, *args]) == 3
    message = f"checkpoint tensor {key} is not float64 with dims {value.shape}"
    assert message in capsys.readouterr().err


class TestMultibitCheckpoint:
    def test_folded_and_unfolded_predictions_agree(self, tmp_path, capsys):
        from conftest import three_layer_document
        from tawq.data import build_dataset
        from tawq.runtime import FoldedBlock, fold_network
        doc = three_layer_document(epochs=2)
        doc["quant"] = {"timesteps": 4, "n_level": 2, "lam": 0.1}
        path, out = _write_config(tmp_path, doc)
        assert main(["train", path]) == 0
        net, cfg = network_from_checkpoint(load_checkpoint(out["checkpoint"]))
        # the multi-bit weights leave the ternary range, so the block stays float
        assert np.abs(net.layers[3].state.w_q).max() > 1
        assert not any(isinstance(item, FoldedBlock) for item in fold_network(net))
        inputs = str(tmp_path / "inputs.npz")
        np.savez(inputs, inputs=build_dataset(cfg.dataset).test_x)
        capsys.readouterr()
        args = ["infer", out["checkpoint"], inputs]
        assert main(args) == 0
        folded = capsys.readouterr().out
        assert main(args + ["--unfolded"]) == 0
        assert folded == capsys.readouterr().out


# frozen from the first verified seed-0 run of the tiny config above
GOLDEN_FINAL_LOSS = 0.730879638
