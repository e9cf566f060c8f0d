"""Top-level acceptance gate.

Each test covers one numbered release criterion and prints a one-line
verdict so the suite output doubles as a checklist.  Criteria:

  1. vectorized quantizer recurrence equals a scalar-loop oracle bitwise
  2. reverse-mode quantizer gradient equals the literal expansion; smooth
     paths match finite differences
  3. effective bit-width arithmetic
  4. entropy constants and trained-vs-init entropy increase
  5. theoretical + hardware energy models
  6. folded vs unfolded inference equivalence
  7. accumulate-only kernels and the packing codec
  8. end-to-end desk experiment: full precision vs temporal quantization
     vs the memoryless ablation
  9. randomized invariant suite
"""

import math
import statistics
import time

import numpy as np
import pytest

from conftest import random_simplex, run_document, three_layer_document
from tawq.analysis import HardwareLayer, LayerOps, energy_hardware, energy_total, weight_entropy
from tawq.layers import LIF
from tawq.quantizer import (
    QuantConfig,
    compute_scaling_all,
    normalize_stimulus,
    surrogate_grad,
    tawq_backward,
    tawq_forward,
)
from tawq.runconfig import build_network, default_xor_document, parse_runconfig
from tawq.runtime import ac_only_matmul, fold_network, folded_forward, pack_ternary, unpack_ternary
from test_gradients import _relaxed_loss, _relaxed_net, expansion_gradient
from test_quantizer import scalar_recurrence


def _verdict(num: int, label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num} failed: {label}"


@pytest.fixture(scope="module")
def three_layer_runs():
    """Five seed-paired runs of the quantized three-layer temporal-XOR net,
    with quantized-weight entropy measured at init and after training."""
    runs = []
    for seed in range(5):
        doc = three_layer_document(seed=seed)
        cfg = parse_runconfig(doc)
        init_net = build_network(cfg)
        init_net.layers[3].materialize()
        init_entropy = weight_entropy(init_net.layers[3].state.w_q).entropy
        net, ds, metrics = run_document(doc)
        trained_entropy = weight_entropy(net.layers[3].state.w_q).entropy
        runs.append({"net": net, "ds": ds, "metrics": metrics,
                     "init_entropy": init_entropy,
                     "trained_entropy": trained_entropy})
    return runs


def test_criterion_1_recurrence_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    checked = 0
    for T in (1, 2, 4, 8):
        for n in (1, 2, 4, 8):
            cfg = QuantConfig(timesteps=T, n_level=n)
            values = rng.uniform(-3.0, 3.0, size=625)
            for v in values:
                st = tawq_forward(np.array(v), cfg)
                cs, ws = scalar_recurrence(float(v), cfg)
                assert list(st.c_s) == cs
                assert list(st.w_q) == ws
                checked += 1
    assert checked == 10_000
    # pinned traces: accumulate-fire and constant-fire patterns
    st = tawq_forward(np.array(0.3), QuantConfig(timesteps=6))
    ok = (np.allclose(st.c_s[1:], [0.15, 0.225, 0.2625, 0.15, 0.225, 0.2625])
          and list(st.w_q) == [0, 0, 1, 0, 0, 1])
    st = tawq_forward(np.array(0.6), QuantConfig(timesteps=4))
    ok = ok and np.allclose(st.c_s[1:], 0.3) and list(st.w_q) == [1, 1, 1, 1]
    elapsed = time.monotonic() - start
    _verdict(1, f"recurrence matches scalar oracle bitwise ({elapsed:.1f}s)",
             ok and elapsed < 10.0)


def test_criterion_2_gradient_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(300):
        T = int(rng.integers(1, 5))
        n = int(rng.choice([1, 2]))
        cfg = QuantConfig(timesteps=T, n_level=n, lam=float(rng.uniform(0.2, 0.8)))
        st = tawq_forward(rng.uniform(-2, 2, size=(3, 4)), cfg)
        up = rng.standard_normal((T, 3, 4))
        got = tawq_backward(up, st)
        want = expansion_gradient(up, st)
        denom = np.maximum(np.abs(want), 1e-8)
        worst = max(worst, float(np.max(np.abs(got - want) / denom)))
    expansion_ok = worst <= 1e-10

    # finite differences through the relaxed forward on the smooth paths
    net = _relaxed_net()
    x = (rng.random((4, 6, 3)) < 0.5).astype(float)
    y = rng.integers(0, 2, size=6)
    _, gl = _relaxed_loss(net, x, y)
    net.backward(gl)
    from tawq.trainer import collect_gradients
    bundle = collect_gradients(net)
    h = 1e-5
    fd_worst = 0.0
    for name, layer, pname, param in net.named_params():
        if pname == "stimulus":
            continue
        flat = param.ravel()
        for k in np.linspace(0, flat.size - 1, min(4, flat.size)).astype(int):
            orig = flat[k]
            flat[k] = orig + h
            lp, _ = _relaxed_loss(net, x, y)
            flat[k] = orig - h
            lm, _ = _relaxed_loss(net, x, y)
            flat[k] = orig
            fd = (lp - lm) / (2 * h)
            a = bundle.tensors[name].ravel()[k]
            fd_worst = max(fd_worst, abs(a - fd) / max(abs(fd), abs(a), 1e-3))
    elapsed = time.monotonic() - start
    _verdict(2, f"gradients: expansion rel {worst:.1e}, fd rel {fd_worst:.1e} "
                f"({elapsed:.1f}s)",
             expansion_ok and fd_worst <= 1e-5 and elapsed < 30.0)


def test_criterion_3_bit_width_arithmetic():
    table = {1: 1.58, 2: 2.32, 4: 3.17, 8: 4.09}
    ok = all(round(QuantConfig(n_level=n).bit_width, 2) == bits
             for n, bits in table.items())
    _verdict(3, "bit widths log2(2n+1) = 1.58 / 2.32 / 3.17 / 4.09", ok)


def test_criterion_4_entropy(three_layer_runs):
    uniform = weight_entropy(np.array([1, 0, -1] * 50)).entropy
    constants_ok = (abs(uniform - 1.0986) <= 1e-4
                    and weight_entropy(np.ones(30)).entropy == 0.0)
    deltas = sorted(r["trained_entropy"] - r["init_entropy"]
                    for r in three_layer_runs)
    median_delta = statistics.median(deltas)
    # the init distribution deviates from uniform thirds (below maximum)
    init_below_max = all(r["init_entropy"] < math.log(3) - 1e-3
                         for r in three_layer_runs)
    _verdict(4, f"entropy constants ok, trained-minus-init median "
                f"{median_delta:+.4f} over 5 seeds",
             constants_ok and init_below_max and median_delta > 0.0)


def test_criterion_5_energy_models():
    # manual substitution oracle for a hand-specified two-layer network:
    # float 100->50 layer at fr=1, T=1; quantized 128->64 layer with
    # fr=0.5 and sr=0.75, T=2
    from tawq.analysis import E_AC_PJ, E_MAC_PJ, count_sops
    x_f = np.ones((1, 1, 100))
    t_float = {"kind": "linear", "input": x_f, "output": np.zeros((1, 1, 50))}
    x_q = np.zeros((2, 1, 128))
    x_q[:, :, :64] = 1.0
    w_q = np.zeros((2, 64, 128))
    w_q[:, :, :96] = 1.0
    t_quant = {"kind": "qlinear", "input": x_q,
               "output": np.zeros((2, 1, 64)), "w_q": w_q}
    report = energy_total(count_sops([t_float, t_quant]))
    flops = 100 * 50
    sops = 2 * (0.5 * (0.75 * 128 * 64) / 64.0)
    manual = E_MAC_PJ * flops + E_AC_PJ * sops
    model_ok = report.e_total_pj == manual

    layer = HardwareLayer("q", n_rd=1000, weight_bits=2)
    t1 = energy_hardware([layer], timesteps=1)
    t4 = energy_hardware([layer], timesteps=4)
    scale_ok = t4.weight_read == 4.0 * t1.weight_read
    r8 = energy_hardware([HardwareLayer("f", n_rd=1000, weight_bits=8)], 4)
    ratio_ok = t4.weight_read / r8.weight_read == 0.25
    _verdict(5, "energy substitution exact, weight reads x4 for T=1->4, "
                "2-bit/8-bit read ratio 0.25",
             model_ok and scale_ok and ratio_ok)


def test_criterion_6_folding_equivalence(three_layer_runs):
    net, ds = three_layer_runs[0]["net"], three_layer_runs[0]["ds"]
    x = ds.test_x[:, :100]
    unfolded = net.forward(x, training=False)
    lif_trace = net.layers[5].cache["u"]
    plan = fold_network(net)
    folded, membranes = folded_forward(plan, x, record_membranes=True)
    dev = float(np.max(np.abs(membranes[0] - lif_trace)))
    argmax_ok = np.array_equal(folded.argmax(axis=1), unfolded.argmax(axis=1))
    _verdict(6, f"folded membranes within {dev:.1e}, argmax identical "
                f"on {x.shape[1]} samples",
             dev <= 1e-5 and argmax_ok)


def test_criterion_7_ac_kernels_and_codec():
    rng = np.random.default_rng(107)
    kernel_ok = True
    for _ in range(1000):
        c_o = int(rng.integers(1, 10))
        c_i = int(rng.integers(1, 48))
        b = int(rng.integers(1, 5))
        w = rng.integers(-1, 2, size=(c_o, c_i)).astype(float)
        s = (rng.random((b, c_i)) < 0.5).astype(float)
        got = ac_only_matmul([pack_ternary(w)], s[None])[0]
        kernel_ok &= np.array_equal(got, (s @ w.T).astype(np.int64))
    codec_ok = True
    for _ in range(1000):
        shape = tuple(rng.integers(1, 6, size=rng.integers(1, 4)))
        w = rng.integers(-1, 2, size=shape).astype(float)
        codec_ok &= np.array_equal(unpack_ternary(pack_ternary(w)), w)
    _verdict(7, "integer kernel exact on 1000 shapes, codec round-trips",
             kernel_ok and codec_ok)


def test_criterion_8_desk_experiment():
    start = time.monotonic()
    results = {}
    for mode in ("full-precision", "temporal-quantized", "memoryless"):
        accs = []
        for seed in range(5):
            doc = default_xor_document(seed=seed,
                                       quantized=mode != "full-precision")
            if mode == "memoryless":
                doc["quant"]["temporal"] = False
            _, _, metrics = run_document(doc)
            accs.append(metrics["final_test_accuracy"])
        results[mode] = statistics.median(accs)
    elapsed = time.monotonic() - start
    fp, quant, ablate = (results["full-precision"],
                         results["temporal-quantized"], results["memoryless"])
    ok = (fp >= 0.95 and quant >= fp - 0.05 and ablate <= quant + 0.01
          and elapsed < 600.0)
    _verdict(8, f"5-seed medians fp={fp:.3f} quantized={quant:.3f} "
                f"ablation={ablate:.3f} ({elapsed:.0f}s)", ok)


def test_criterion_9_invariant_suite():
    rng = np.random.default_rng(109)
    # sign consistency and state boundedness, 2000 scalar cases each
    i = rng.uniform(-4, 4, size=2000)
    st = tawq_forward(i, QuantConfig(timesteps=8))
    sign_ok = bool(np.all(st.w_q * np.sign(i) >= 0.0))
    bound_ok = bool(np.all(np.abs(st.c_s) <= np.abs(i).max() + 1e-12))
    # binary spike purity over 1000 random temporal inputs
    out = LIF().forward(rng.standard_normal((4, 1000, 8)) * 2)
    binary_ok = bool(np.isin(out, (0.0, 1.0)).all())
    # alpha reciprocal law over 1000 channel rows
    alpha_ok = True
    for _ in range(25):
        stt = tawq_forward(rng.uniform(-3, 3, size=(40, 30)),
                           QuantConfig(timesteps=4))
        alpha = compute_scaling_all(stt)
        for t in range(4):
            mean_abs = np.abs(stt.w_q[t]).mean(axis=1)
            nz = mean_abs > 0
            alpha_ok &= bool(np.allclose(alpha[t][nz] * mean_abs[nz], 1.0))
            alpha_ok &= bool(np.all(alpha[t][~nz] == 0.0))
    # probability simplex closure over 1000 random ternary tensors
    simplex_ok = True
    for _ in range(1000):
        row = weight_entropy(rng.integers(-1, 2, size=60))
        simplex_ok &= abs(row.p_p + row.p_z + row.p_n - 1.0) <= 1e-12
        simplex_ok &= row.entropy <= math.log(3) + 1e-9
    # entropy maximum uniqueness on the simplex
    pts = random_simplex(rng, 1200)
    pts = pts[np.max(np.abs(pts - 1 / 3), axis=1) > 1e-3][:1000]
    unique_ok = all(-sum(q * math.log(q) for q in p if q > 0)
                    < math.log(3) for p in pts)
    _verdict(9, "sign / boundedness / spike purity / alpha reciprocal / "
                "simplex closure invariants",
             sign_ok and bound_ok and binary_ok and alpha_ok
             and simplex_ok and unique_ok)
