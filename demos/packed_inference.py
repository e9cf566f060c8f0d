"""
Deployment-style inference: pack ternary weights 2 bits each, fold the
scale and batch-norm parameters into the neuron charging path, and check
the accumulate-only pipeline against the training-time forward pass.
"""
import numpy as np

from tawq import build_dataset, build_network, fold_network, folded_forward, pack_ternary, train, unpack_ternary
from tawq.runconfig import parse_runconfig
from tawq.runtime import FoldedBlock

# Train a small net with a quantized hidden block so there is something
# to fold: linear -> bn -> lif -> qlinear -> bn -> lif -> linear.
doc = {
    "network": [
        {"kind": "linear", "in": 2, "out": 16},
        {"kind": "bn", "channels": 16},
        {"kind": "lif"},
        {"kind": "qlinear", "in": 16, "out": 16},
        {"kind": "bn", "channels": 16},
        {"kind": "lif"},
        {"kind": "linear", "in": 16, "out": 2},
    ],
    "quant": {"timesteps": 4},
    "train": {"lr": 0.05, "optimizer": "adamw", "lr_schedule": "cosine",
              "epochs": 20, "batch_size": 64, "seed": 0},
    "dataset": {"kind": "synthetic-temporal-xor", "n_samples": 512,
                "timesteps": 4, "noise": 0.0, "seed": 0},
}
cfg = parse_runconfig(doc)
ds = build_dataset(cfg.dataset)
net = build_network(cfg)
train(net, (ds.train_x, ds.train_y), (ds.test_x, ds.test_y), cfg.train)

# Packing: 4 ternary weights per byte, codes 00 -> 0, 01 -> +1, 10 -> -1.
w0 = net.layers[3].state.w_q[0]
packed = pack_ternary(w0)
print(f"timestep-0 weights: {w0.size} ternary values in {len(packed.codes)} bytes "
      f"({8.0 * len(packed.codes) / w0.size:.1f} bits per weight)")
assert np.array_equal(unpack_ternary(packed), w0)

# Folding absorbs alpha and the bn affine into the charging equation; the
# quantized block then needs only integer accumulation at run time.
plan = fold_network(net)
blocks = [b for b in plan if isinstance(b, FoldedBlock)]
print(f"folded {len(blocks)} block(s); rho table shape {blocks[0].rho.shape}")

x = ds.test_x
unfolded = net.forward(x, training=False)
folded, membranes = folded_forward(plan, x, record_membranes=True)

trace = net.layers[5].cache["u"]
print("max membrane deviation folded vs unfolded:",
      float(np.max(np.abs(membranes[0] - trace))))
agree = (folded.argmax(axis=1) == unfolded.argmax(axis=1)).mean()
print(f"argmax agreement on {x.shape[1]} test samples: {agree:.1%}")
