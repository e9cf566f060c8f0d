"""Command-line surface: train, report, infer, fold, gen-data.

Exit codes: 0 ok, 2 configuration error or a missing or unreadable file,
3 data error (a checkpoint missing a tensor among them), 4 numeric error;
no other code is used.
The BLAS thread pool reads OPENBLAS_NUM_THREADS (or OMP_NUM_THREADS) when
numpy loads, so set it in the environment that starts `tawq`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import zipfile

import numpy as np

from .analysis import (
    count_sops,
    energy_hardware,
    energy_total,
    entropy_report,
    firing_rate_stats,
    hardware_layers,
)
from .checkpoint import (
    checkpoint_from_network,
    load_checkpoint,
    network_from_checkpoint,
    save_checkpoint,
)
from .data import build_dataset, save_raster_grid
from .errors import ConfigError, DataError, NumericError
from .layers import Network
from .runconfig import build_network, load_runconfig, parse_runconfig
from .runtime import FoldedBlock, fold_network
from .trainer import train


def cmd_train(args) -> int:
    doc = load_runconfig(args.config).to_dict()
    if args.ablate_temporal:
        doc["quant"]["temporal"] = False
    if args.seed is not None:
        doc["train"]["seed"] = args.seed
    cfg = parse_runconfig(doc)  # judges the flags as if the document held them
    ds = build_dataset(cfg.dataset)
    net = build_network(cfg)
    metrics = train(net, (ds.train_x, ds.train_y), (ds.test_x, ds.test_y), cfg.train)
    with open(cfg.metrics_path, "w") as fh:
        for record in metrics["history"]:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    summary = {"final_test_loss": metrics["final_test_loss"],
               "final_test_accuracy": metrics["final_test_accuracy"],
               "final_entropy_mean": metrics["final_entropy_mean"],
               "ablate_temporal": not cfg.quant.temporal}
    save_checkpoint(cfg.checkpoint_path, checkpoint_from_network(net, cfg, summary))
    print(json.dumps(summary, sort_keys=True))
    return 0


def _table(title: str, header: list[str], rows: list[list]) -> str:
    cols = [header] + [[f"{v:.6g}" if isinstance(v, float) else str(v) for v in r]
                       for r in rows]
    widths = [max(len(r[i]) for r in cols) for i in range(len(header))]
    lines = [title, "  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in cols[1:]]
    return "\n".join(lines)


def cmd_report(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    net, cfg = network_from_checkpoint(ckpt)
    ds = build_dataset(cfg.dataset)
    net.forward(ds.test_x, training=False)
    traces = net.traces()

    ent = entropy_report(traces)
    ops = count_sops(traces)
    energy = energy_total(ops)
    hw = energy_hardware(hardware_layers(traces), cfg.quant.timesteps)
    firing = firing_rate_stats(traces)

    machine = {
        "entropy": {"mean": ent.mean_entropy,
                    "layers": [dataclasses.asdict(r) for r in ent.rows]},
        "energy": dataclasses.asdict(energy),
        "hardware": {**dataclasses.asdict(hw), "total": hw.total},
        "firing": dataclasses.asdict(firing),
    }
    if args.json:
        with open(args.json, "w") as fh:
            for section, payload in machine.items():
                fh.write(json.dumps({"section": section, **payload},
                                    sort_keys=True) + "\n")
    print(_table("weight entropy (nats)",
                 ["layer", "p_pos", "p_zero", "p_neg", "entropy"],
                 [[r.name, r.p_p, r.p_z, r.p_n, r.entropy] for r in ent.rows]))
    print()
    print(_table("energy model (per sample)",
                 ["layer", "quantized", "sops", "flops_float"],
                 [[l.name, l.quantized, l.sops, l.flops_float]
                  for l in energy.layers]))
    print(f"E_total = {energy.e_total_pj:.6g} pJ "
          f"(MAC {energy.e_mac_pj:.6g} + AC {energy.e_ac_pj:.6g})")
    print()
    print(f"hardware read/write energy (E_rd units): weight {hw.weight_read:.6g}, "
          f"activation {hw.activation_read:.6g}, write {hw.write:.6g}")
    print(f"mean firing rate: {firing.mean_rate:.6g}")
    return 0


def _load_inputs(path: str) -> np.ndarray:
    """The archive's `inputs` array or, if it has none, the `test_inputs`
    that `tawq gen-data` writes."""
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        raise ConfigError(f"input file {path!r} is missing or empty")
    name = "inputs"
    # np.load leaks the handle it opens when a zip archive proves unreadable
    try:
        with open(path, "rb") as fh:
            npz = np.load(fh)
            if not isinstance(npz, np.lib.npyio.NpzFile):
                raise DataError(f"{path}: not an .npz archive")
            with npz:
                if "inputs" not in npz.files:
                    name = "test_inputs"
                if name not in npz.files:
                    raise DataError(f"{path}: cannot read 'inputs' array: the archive "
                                    "holds neither 'inputs' nor 'test_inputs'")
                x = np.asarray(npz[name], dtype=np.float64)
    except (KeyError, ValueError, OSError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path}: cannot read {name!r} array: {exc}") from exc
    if x.ndim < 3:
        raise DataError(f"{path}: {name!r} must be (T, B, features...), got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError(f"{path}: {name!r} holds non-finite values")
    return x


def _fold_summary(plan: list) -> str:
    """Name the folded blocks and the float layers of a fold plan by their
    indices in the unfolded network."""
    folded, floats = [], []
    for idx, item in Network(plan).walk():
        if isinstance(item, FoldedBlock):
            folded.append(f"{idx[0]}-{idx[-1]} ({', '.join(item.replaces)})")
        else:
            floats.append(f"{idx[0]} ({item.kind})")
    return (f"folded blocks: {', '.join(folded) or 'none'}; "
            f"float layers: {', '.join(floats) or 'none'}")


def cmd_infer(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    net, cfg = network_from_checkpoint(ckpt)
    x = _load_inputs(args.input)
    plan = fold_network(net) if args.folded else net.layers
    preds = "".join(f"{int(p)}\n" for p in Network(plan).infer(x).argmax(axis=1))
    if args.folded:
        print(_fold_summary(plan), file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(preds)
    else:
        sys.stdout.write(preds)
    return 0


def cmd_fold(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    net, _ = network_from_checkpoint(ckpt)
    plan = fold_network(net)
    blocks = [b for b in plan if isinstance(b, FoldedBlock)]
    if not blocks:
        raise DataError("checkpoint has no foldable quantized blocks")
    arrays = {}
    for j, b in enumerate(blocks):
        arrays[f"block{j}.rho"] = b.rho
        arrays[f"block{j}.delta"] = b.delta
    with open(args.out, "wb") as fh:  # a path without .npz would get it appended
        np.savez(fh, **arrays)
    print(_fold_summary(plan), file=sys.stderr)
    print(f"folded {len(blocks)} block(s) -> {args.out}")
    return 0


def cmd_gen_data(args) -> int:
    cfg = load_runconfig(args.config)
    ds = build_dataset(cfg.dataset)
    if args.raster:
        n, features = ds.train_x.shape[1:]
        side = int(np.sqrt(features))
        if side * side != features:
            raise DataError(f"--raster needs a square feature count, "
                            f"got {features} features")
        save_raster_grid(args.out, ds.train_x.mean(axis=0).reshape(n, side, side) * 255,
                         ds.train_y)
    else:
        with open(args.out, "wb") as fh:
            np.savez(fh, train_inputs=ds.train_x, train_labels=ds.train_y,
                     test_inputs=ds.test_x, test_labels=ds.test_y)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tawq",
                                description="Temporal-adaptive weight quantization "
                                            "for spiking networks")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a network from a run configuration")
    t.add_argument("config")
    t.add_argument("--ablate-temporal", action="store_true",
                   help="memoryless WQ baseline: re-quantize the stimulus each step")
    t.add_argument("--seed", type=int, default=None)
    t.set_defaults(func=cmd_train)

    r = sub.add_parser("report", help="entropy / energy / firing-rate report")
    r.add_argument("checkpoint")
    r.add_argument("--json", default=None, help="also write line-delimited records")
    r.set_defaults(func=cmd_report)

    i = sub.add_parser("infer", help="run inference on an .npz input file")
    i.add_argument("checkpoint")
    i.add_argument("input")
    mode = i.add_mutually_exclusive_group()
    mode.add_argument("--folded", action="store_true", default=True)
    mode.add_argument("--unfolded", dest="folded", action="store_false")
    i.add_argument("--out", default=None)
    i.set_defaults(func=cmd_infer)

    f = sub.add_parser("fold", help="emit folded neuron parameters as .npz")
    f.add_argument("checkpoint")
    f.add_argument("--out", default="folded.npz")
    f.set_defaults(func=cmd_fold)

    g = sub.add_parser("gen-data", help="generate the configured dataset")
    g.add_argument("config")
    g.add_argument("--out", default="dataset.npz")
    g.add_argument("--raster", action="store_true",
                   help="write the raster-grid binary format instead of .npz")
    g.set_defaults(func=cmd_gen_data)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:  # OSError: a missing or unreadable file
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
