"""Spiking layers: LIF dynamics, batch norm, quantized layers, network
composition, and a pinned golden regression for a seed-fixed toy net."""

import copy
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import RelaxedLIF, lif_formula
from tawq.analysis import WEIGHTED_KINDS, count_sops, entropy_report, firing_rate_stats
from tawq.errors import ConfigError, NumericError, ShapeError, StateError
from tawq.layers import (
    LIF,
    AvgPool2d,
    BatchNorm,
    Conv2d,
    Flatten,
    LifConfig,
    Linear,
    Network,
    QuantConv2d,
    QuantLinear,
    lif_charge,
)
from tawq.quantizer import BLOCK, QuantConfig, normalize_backward, tawq_backward
from tawq.runconfig import build_network, default_xor_document, parse_runconfig
from tawq.runtime import FoldedBlock, pack_ternary


def eval_forward(layer, x):
    """The layer's output in an eval-mode `Network.forward` of it alone."""
    Network([layer]).forward(x, training=False)
    return layer.cache["y"]


class TestLifStep:
    def test_threshold_boundary_fires(self):
        us = np.array([1.0, 0.0])  # fires at equality, then starts from the reset
        spikes = lif_charge(us, LifConfig())
        assert np.array_equal(spikes, [1.0, 0.0])
        assert us[1] == 0.0

    def test_leak_arithmetic(self):
        us = np.array([0.8, 0.0])
        spikes = lif_charge(us, LifConfig())
        assert not spikes.any()
        assert abs(float(us[1]) - 0.4) < 1e-15

    def test_zero_input_never_spikes(self):
        assert not lif_charge(np.zeros((50, 5)), LifConfig()).any()

    def test_strided_membrane_written_in_place(self):
        us = (np.random.default_rng(2).random((6, 4, 3)) * 2).transpose(0, 2, 1)
        assert not us.flags.c_contiguous
        want_u = us.copy()
        want_s = lif_charge(want_u, LifConfig())
        assert np.array_equal(lif_charge(us, LifConfig()), want_s)
        assert np.array_equal(us, want_u)

    def test_config_invariants(self):
        with pytest.raises(ConfigError):
            LifConfig(tau=1.0)
        with pytest.raises(ConfigError):
            LifConfig(v_threshold=0.0, v_reset=0.0)


class TestLifLayer:
    def test_outputs_binary(self):
        rng = np.random.default_rng(2)
        out = LIF().forward(rng.standard_normal((6, 4, 10)) * 3)
        assert np.isin(out, (0.0, 1.0)).all()

    def test_membrane_resets_after_spike(self):
        layer = LIF()
        x = np.full((3, 1, 1), 2.5)  # charges over threshold every step
        out = layer.forward(x)
        assert out.all()
        # post-spike membrane re-enters the next step at v_reset: the trace
        # then shows u[t] = x/tau exactly
        assert np.allclose(layer.cache["u"], 2.5 / 2.0)

    def test_scales_input_by_tau(self):
        layer = LIF(LifConfig(tau=4.0))
        layer.forward(np.full((1, 1, 1), 0.8))
        assert abs(layer.cache["u"][0, 0, 0] - 0.2) < 1e-15


def _zero_and_threshold_inputs():
    """(4, 1296) currents, every sequence over T = 4 of +0, -0, -1, a
    subnormal whose decay rounds to -0, and the two inputs that put U exactly
    at v_threshold 1 (2.0 from a membrane of 0, 1.5 from one of 0.5) at tau 2."""
    values = np.array([0.0, -0.0, -1e-323, -1.0, 1.5, 2.0])
    grid = np.meshgrid(*[np.arange(len(values))] * 4, indexing="ij")
    return values[np.stack([g.ravel() for g in grid])]


class TestLifZeroReset:
    # a reset to +-0 adds nothing to the membrane; only the sign of a zero
    # membrane may differ from the formula's
    @pytest.mark.parametrize("v_reset", [0.0, -0.0, 0.5])
    @pytest.mark.parametrize("run", ["lif_charge", "forward", "infer", "folded"])
    def test_spikes_and_membranes_equal_the_formula(self, v_reset, run):
        cfg = LifConfig(v_reset=v_reset)
        x = _zero_and_threshold_inputs()
        want_s, want_u = lif_formula(x, cfg, relaxed=False)
        if run == "lif_charge":
            u = x / cfg.tau
            s = lif_charge(u, cfg)
        elif run == "forward":
            layer = LIF(cfg)
            s = layer.forward(x[:, None])[:, 0]
            u = layer.cache["u"][:, 0]
        elif run == "infer":
            u = x[:, None].copy()
            s = LIF(cfg).infer(u)[:, 0]
            u = u[:, 0]
        else:  # one spike through an identity accumulate charges rho[t] + (-0)
            n = x.shape[1]
            block = FoldedBlock(packed=[pack_ternary(np.eye(n))] * 4, rho=x / cfg.tau,
                                delta=np.full(n, -0.0), lif=cfg)
            s = block.infer(np.ones((4, 1, n)))[:, 0]
            u = block.cache["u"][:, 0]
        assert want_s.any() and (want_u == cfg.v_threshold).any() and np.signbit(u[u == 0]).any()
        assert np.array_equal(s, want_s)
        assert np.array_equal(u, want_u)


class TestQuantizedLayers:
    def test_identity_single_weight(self):
        w_q = np.array([[[1.0]]])  # (T, C_o, C_i)
        x = np.ones((1, 1, 1))
        y = np.einsum("tbi,toi->tbo", x, w_q) * 1.0
        assert y[0, 0, 0] == 1.0

    def test_cancellation(self):
        w_q = np.array([[[1.0, -1.0]]])  # (T, C_o, C_i)
        x = np.ones((1, 1, 2))
        y = np.einsum("tbi,toi->tbo", x, w_q)
        assert y[0, 0, 0] == 0.0

    def test_alpha_scaled_example(self):
        from tawq.quantizer import compute_scaling
        w_q = np.array([[1.0, 0.0, -1.0]])
        alpha = compute_scaling(w_q)
        assert alpha[0] == 1.5
        x = np.array([1.0, 1.0, 0.0])
        assert alpha[0] * (w_q[0] @ x) == 1.5

    def test_scale_order_associativity(self):
        # scaling the weights first or the products after agree tightly
        rng = np.random.default_rng(4)
        for _ in range(50):
            w = rng.integers(-1, 2, size=(8, 12)).astype(float)
            alpha = rng.uniform(0.5, 3.0, size=8)
            x = (rng.random((6, 12)) < 0.5).astype(float)
            a = (alpha[:, None] * w) @ x.T
            b = alpha[:, None] * (w @ x.T)
            denom = np.maximum(np.abs(b), 1.0)
            assert np.max(np.abs(a - b) / denom) <= 1e-12

    def test_qlinear_forward_matches_manual(self):
        quant = QuantConfig(timesteps=2)
        layer = QuantLinear(4, 3, quant, rng=np.random.default_rng(8))
        x = (np.random.default_rng(9).random((2, 5, 4)) < 0.5).astype(float)
        y = layer.forward(x)
        for t in range(2):
            manual = x[t] @ layer.state.w_q[t].T * layer.alpha[t]
            assert np.allclose(y[t], manual)

    def test_qconv_matches_integer_conv_oracle(self):
        # with the scale divided back out at T=1 the quantized convolution
        # must equal a plain integer convolution
        quant = QuantConfig(timesteps=1)
        layer = QuantConv2d(2, 3, 3, quant, rng=np.random.default_rng(12))
        x = (np.random.default_rng(13).random((1, 2, 2, 6, 6)) < 0.5).astype(float)
        got = layer.forward(x)
        w = layer.state.w_q[0].astype(np.int64)
        safe_alpha = np.where(layer.alpha[0] == 0, 1.0, layer.alpha[0])
        got = got[0] / safe_alpha[None, :, None, None]
        xi = x[0].astype(np.int64)
        ref = np.zeros((2, 3, 4, 4), dtype=np.int64)
        for b in range(2):
            for o in range(3):
                for i0 in range(4):
                    for j0 in range(4):
                        ref[b, o, i0, j0] = int(
                            (w[o] * xi[b, :, i0:i0 + 3, j0:j0 + 3]).sum())
        assert np.allclose(got, ref)

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0)])
    def test_qconv_equals_per_timestep_conv(self, stride, padding):
        # timestep t of a quantized convolution is a plain convolution with
        # weight alpha[t] * w_q[t]: forward, input gradient, and (through
        # the recurrence) stimulus gradient
        T = 4
        quant = QuantConfig(timesteps=T)
        rng = np.random.default_rng(21)
        layer = QuantConv2d(3, 5, 3, quant, stride=stride, padding=padding, rng=rng)
        x = (rng.random((T, 2, 3, 7, 7)) < 0.5).astype(float)
        y = layer.forward(x)
        gout = rng.standard_normal(y.shape)
        gx = layer.backward(gout)
        st = layer.state
        g_wq = np.empty_like(st.w_q)
        for t in range(T):
            scale = layer.alpha[t][:, None, None, None]
            conv = Conv2d(3, 5, 3, stride=stride, padding=padding)
            conv.params["weight"] = scale * st.w_q[t]
            assert np.allclose(y[t], conv.forward(x[t:t + 1])[0], rtol=1e-12, atol=1e-12)
            assert np.allclose(gx[t], conv.backward(gout[t:t + 1])[0],
                               rtol=1e-12, atol=1e-12)
            g_wq[t] = conv.grads["weight"] * scale
        want = normalize_backward(tawq_backward(g_wq, st), st.i_norm,
                                  layer.params["stimulus"], quant.epsilon)
        assert np.allclose(layer.grads["stimulus"], want, rtol=1e-10, atol=1e-12)

    def test_timestep_mismatch_rejected(self):
        layer = QuantLinear(2, 2, QuantConfig(timesteps=4))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((3, 1, 2)))

    def test_kernel_larger_than_padded_input_rejected(self):
        with pytest.raises(ShapeError, match=r"layer 0 \(conv\): kernel 5"):
            Network([Conv2d(1, 2, 5)]).forward(np.zeros((4, 1, 1, 3, 3)))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError, match=r"layer 0 \(conv\): input channels 3 != "
                                             "weight channels 2"):
            Network([Conv2d(2, 4, 3)]).forward(np.zeros((1, 1, 3, 5, 5)))

    def test_backward_before_forward_rejected(self):
        with pytest.raises(StateError, match="backward called before forward"):
            QuantLinear(2, 2, QuantConfig()).backward(np.zeros((4, 1, 2)))

    def test_qconv_patch_memory_is_per_timestep(self):
        # each pass may hold one timestep's patches, not all T of them
        T, B, C, H, W, k = 4, 64, 16, 14, 14, 3
        all_steps = T * B * C * k * k * H * W * 8  # bytes, at padding 1
        rng = np.random.default_rng(23)
        layer = QuantConv2d(C, 32, k, QuantConfig(timesteps=T), padding=1, rng=rng)
        x = (rng.random((T, B, C, H, W)) < 0.3).astype(float)
        gout = rng.standard_normal(layer.forward(x).shape)  # quantizes once
        peaks = []
        tracemalloc.start()
        try:
            for run in (lambda: layer.forward(x), lambda: layer.backward(gout)):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                run()
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert max(peaks) < all_steps, peaks


class TestMaterializeCache:
    """A quantized layer reruns the recurrence only when its stimulus (by
    value) or its config differs from the one its weights were made from."""

    @staticmethod
    def _count_recurrences(monkeypatch) -> list:
        import tawq.layers
        calls, real = [], tawq.layers.tawq_forward

        def counting(i_norm, cfg):
            calls.append(cfg)
            return real(i_norm, cfg)

        monkeypatch.setattr(tawq.layers, "tawq_forward", counting)
        return calls

    @pytest.mark.parametrize("edit,runs", [
        ("none", 0),
        ("equal_copy", 0),
        ("in_place", 1),
        ("replaced", 1),
        ("quant", 1),
    ])
    def test_reuse_only_while_unchanged(self, monkeypatch, edit, runs):
        layer = QuantLinear(6, 4, QuantConfig(), rng=np.random.default_rng(3))
        x = (np.random.default_rng(4).random((4, 2, 6)) < 0.5).astype(float)
        layer.forward(x)
        calls = self._count_recurrences(monkeypatch)
        stimulus = layer.params["stimulus"]
        if edit == "equal_copy":
            layer.params["stimulus"] = stimulus.copy()
        elif edit == "in_place":
            stimulus.ravel()[0] += 0.5  # a write through a view, as the gradient checks do
        elif edit == "replaced":
            layer.params["stimulus"] = stimulus - 0.1 * np.sign(stimulus)
        elif edit == "quant":
            layer.quant = QuantConfig(lam=0.3)
        y = layer.forward(x)
        assert len(calls) == runs
        fresh = QuantLinear(6, 4, layer.quant)
        fresh.params["stimulus"] = layer.params["stimulus"].copy()
        assert np.array_equal(y, fresh.forward(x))
        assert np.array_equal(layer.state.c_s, fresh.state.c_s)

    @pytest.mark.parametrize("bad", ["nan", "overflow"])
    def test_failed_stimulus_raises_again(self, bad):
        layer = QuantLinear(6, 4, QuantConfig(), rng=np.random.default_rng(3))
        x = np.ones((4, 2, 6))
        layer.forward(x)
        stimulus = layer.params["stimulus"].copy()
        if bad == "nan":
            stimulus[0, 0] = np.nan
        else:  # finite, but its mean overflows, so the normalized stimulus is not
            stimulus[:] = 1.7e308
            stimulus[0, 0] = -1.7e308
        layer.params["stimulus"] = stimulus
        for _ in range(2):
            with pytest.raises(NumericError), np.errstate(over="ignore", invalid="ignore"):
                layer.forward(x)


class TestBatchNorm:
    def test_training_normalizes_batch(self):
        rng = np.random.default_rng(14)
        bn = BatchNorm(6)
        x = rng.standard_normal((4, 32, 6)) * 3 + 1
        y = bn.forward(x)
        assert np.allclose(y.mean(axis=(0, 1)), 0.0, atol=1e-10)
        assert np.allclose(y.var(axis=(0, 1)), 1.0, atol=1e-3)

    def test_inference_is_affine(self):
        bn = BatchNorm(3)
        bn.running_mean = np.array([1.0, 2.0, 3.0])
        bn.running_var = np.array([4.0, 4.0, 4.0])
        bn.params["gamma"] = np.array([2.0, 2.0, 2.0])
        x = np.zeros((1, 1, 3))
        y = eval_forward(bn, x)
        want = 2.0 * (0.0 - bn.running_mean) / np.sqrt(4.0 + bn.eps)
        assert np.allclose(y[0, 0], want)

    def test_running_stats_update(self):
        bn = BatchNorm(2)
        x = np.ones((1, 8, 2)) * 5
        bn.forward(x)
        assert np.allclose(bn.running_mean, 0.9 * 0 + 0.1 * 5)

    def test_eval_forward_is_infer_of_a_copy(self):
        rng = np.random.default_rng(15)
        bn = BatchNorm(16)
        bn.params.update(gamma=rng.uniform(0.5, 2.0, 16), beta=rng.uniform(-1.0, 1.0, 16))
        bn.running_mean, bn.running_var = rng.uniform(-1.0, 1.0, 16), rng.uniform(0.5, 2.0, 16)
        stats = bn.running_mean.copy(), bn.running_var.copy()
        x = rng.standard_normal((4, 32, 16, 28, 28)) * 3 + 1
        x0 = x.copy()
        y = eval_forward(bn, x)
        assert np.array_equal(y, bn.infer(x0.copy()))
        assert np.array_equal(x, x0)
        assert np.array_equal(bn.running_mean, stats[0])
        assert np.array_equal(bn.running_var, stats[1])
        # it normalized the copy in place: its input is its output
        assert bn.cache.keys() == {"x", "y"} and bn.cache["x"] is not x
        assert np.shares_memory(bn.cache["x"], y)

    def test_backward_needs_a_training_forward(self):
        x = np.random.default_rng(16).standard_normal((4, 5, 3))
        fresh, evaluated, replaced = BatchNorm(3), BatchNorm(3), BatchNorm(3)
        eval_forward(evaluated, x)
        replaced.forward(x)
        eval_forward(replaced, x)  # the eval cache replaces the training one
        for bn in (fresh, evaluated, replaced):
            with pytest.raises(StateError, match="backward needs a training-mode forward"):
                bn.backward(x)
        net = build_network(parse_runconfig(default_xor_document(hidden=8)))
        net.forward(np.ones((4, 5, 2)), training=False)
        with pytest.raises(StateError, match="backward needs a training-mode forward"):
            net.backward(np.ones((5, 2)))


class TestPoolingAndFlatten:
    def test_avg_pool(self):
        x = np.arange(16.0).reshape(1, 1, 1, 4, 4)
        y = AvgPool2d(2).forward(x)
        assert np.allclose(y[0, 0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_pool_rejects_ragged(self):
        with pytest.raises(ShapeError):
            AvgPool2d(3).forward(np.zeros((1, 1, 1, 4, 4)))

    def test_flatten_round_trip(self):
        f = Flatten()
        x = np.arange(24.0).reshape(1, 2, 3, 2, 2)
        y = f.forward(x)
        assert y.shape == (1, 2, 12)
        assert np.array_equal(f.backward(y), x)


class TestNetwork:
    def test_zero_weights_give_zero_logits(self):
        quant = QuantConfig(timesteps=2)
        layer = QuantLinear(3, 2, quant)
        layer.params["stimulus"] = np.zeros((2, 3))
        net = Network([layer])
        logits = net.forward(np.ones((2, 4, 3)))
        assert not logits.any()

    def test_traces_before_forward_name_the_layer(self):
        net = Network([QuantLinear(3, 2, QuantConfig())])
        with pytest.raises(StateError, match=r"layer 0 \(qlinear\): no trace before"):
            net.traces()

    def test_numeric_error_names_the_layer(self):
        layer = QuantLinear(2, 2, QuantConfig())
        layer.params["stimulus"] = np.full((2, 2), np.inf)
        with pytest.raises(NumericError, match=r"^layer 0 \(qlinear\): non-finite "
                                               r"normalized stimulus$"), \
                np.errstate(invalid="ignore"):
            Network([layer]).forward(np.ones((4, 3, 2)))

    def test_backward_before_forward_raises_state_error(self):
        net = build_network(parse_runconfig(default_xor_document(hidden=8)))
        with pytest.raises(StateError, match="backward called before forward"):
            net.backward(np.ones((5, 2)))

    def test_backward_names_the_layer_that_raised(self):
        net = Network([Linear(3, 4), BatchNorm(4), LIF(), Linear(4, 2)])
        net.forward(np.ones((4, 5, 3)), training=False)
        with pytest.raises(StateError, match=r"^layer 1 \(bn\): backward needs a "
                                             r"training-mode forward$"):
            net.backward(np.ones((5, 2)))

    def test_a_forward_that_raises_leaves_no_traces(self):
        # the traces and the timestep count of a training forward must not
        # outlive a later forward that raised partway, or backward would
        # read two batches mixed
        net = build_network(parse_runconfig(default_xor_document(hidden=8)))
        net.forward(np.ones((4, 16, 2)), training=True)
        with pytest.raises(ShapeError, match=r"layer 3 \(qlinear\): expected 4 timesteps, "
                                             r"got input with 5"):
            net.forward(np.ones((5, 8, 2)))
        with pytest.raises(StateError, match=r"layer 0 \(linear\): no trace before"):
            net.traces()
        with pytest.raises(StateError, match="backward called before forward"):
            net.backward(np.ones((16, 2)))
        net.forward(np.ones((4, 8, 2)), training=True)
        net.backward(np.ones((8, 2)))
        assert len(net.traces()) == 4

    def test_time_constant_input_mean_over_t(self):
        lin = Linear(2, 2, bias=False)
        net = Network([lin])
        x1 = np.ones((1, 3, 2))
        x2 = np.ones((2, 3, 2))
        assert np.allclose(net.forward(x1), net.forward(x2))

    def test_golden_regression(self):
        # pinned output of a seed-fixed two-layer quantized toy net
        quant = QuantConfig(timesteps=4)
        net = Network([
            Linear(2, 8, rng=np.random.default_rng((0, 0))),
            BatchNorm(8),
            LIF(),
            QuantLinear(8, 2, quant, rng=np.random.default_rng((0, 3))),
        ])
        net.layers[1].params["gamma"][:] = 2.0  # enough drive to spike
        x = (np.random.default_rng(99).random((4, 5, 2)) < 0.5).astype(float)
        logits = net.forward(x, training=True)
        assert logits.shape == (5, 2)
        assert np.count_nonzero(logits) == 10
        assert np.allclose(logits, GOLDEN_LOGITS, atol=1e-12)


# Nets by the kind of their layer 0, each with its (T, B, ...) input shape
def _first_layer_nets():
    quant = QuantConfig(timesteps=3)
    rng = np.random.default_rng(61)
    head = [BatchNorm(4), LIF(), Flatten(), Linear(4 * 5 * 5, 2, rng=rng)]
    return {
        "linear": ([Linear(3, 4, rng=rng), BatchNorm(4), LIF(), Linear(4, 2, rng=rng)],
                   (3, 6, 3)),
        "qlinear": ([QuantLinear(3, 4, quant, rng=rng), LIF(), Linear(4, 2, rng=rng)],
                    (3, 6, 3)),
        "conv": ([Conv2d(2, 4, 3, padding=1, rng=rng), *head], (3, 6, 2, 5, 5)),
        "qconv": ([QuantConv2d(2, 4, 3, quant, padding=1, rng=rng), *head[1:]],
                  (3, 6, 2, 5, 5)),
        "bn": ([BatchNorm(3), LIF(), Linear(3, 2, rng=rng)], (3, 6, 3)),
        "lif": ([LIF(), Linear(3, 2, rng=rng)], (3, 6, 3)),
    }


class TestBackwardAtLayerZero:
    @pytest.mark.parametrize("kind", ["linear", "qlinear", "conv", "qconv", "bn", "lif"])
    def test_parameter_gradients_match_full_loop(self, kind, monkeypatch):
        layers, shape = _first_layer_nets()[kind]
        rng = np.random.default_rng(62)
        net = Network(layers)
        x = rng.standard_normal(shape) * 2
        logits = net.forward(x, training=True)
        glogits = rng.standard_normal(logits.shape)
        # the full per-layer loop, input gradient of layer 0 included
        ref = copy.deepcopy(net)
        g = np.broadcast_to(glogits / shape[0], (shape[0],) + glogits.shape).copy()
        for layer in reversed(ref.layers):
            g = layer.backward(g)
        first, calls = net.layers[0], []
        backward = first.backward
        def spy_backward(gout, **kwargs):
            calls.append((kwargs, backward(gout, **kwargs)))
            return calls[-1][1]
        monkeypatch.setattr(first, "backward", spy_backward)
        if hasattr(first, "_contract_grads"):
            contract = first._contract_grads
            def spy_contract(*args):
                gw, gx = contract(*args)
                calls.append(("contract", args[-1], gx))
                return gw, gx
            monkeypatch.setattr(first, "_contract_grads", spy_contract)
        assert net.backward(glogits) is None
        for layer, want in zip(net.layers, ref.layers):
            assert layer.grads.keys() == want.grads.keys()
            for name, grad in layer.grads.items():
                assert np.array_equal(grad, want.grads[name]), (kind, layer.kind, name)
        if kind == "lif":
            assert calls == []  # a layer 0 without parameters does not run
        elif kind == "bn":
            assert calls == [({"input_grad": False}, None)]
        else:
            assert calls == [("contract", False, None), ({"input_grad": False}, None)]


# frozen from the first verified run of the seed-fixed net above
GOLDEN_LOGITS = np.array([
    [-0.25, -0.06666666666666671],
    [0.25, -0.46666666666666673],
    [0.25, -0.46666666666666673],
    [0.75, -0.8],
    [1.0, -1.1333333333333333],
])


# The previous conv contraction, kept as the oracle: time folded into the
# im2col batch and one small product per image.  Forward and input
# gradient must equal it exactly; the weight gradient sums the batch in
# another order, so it agrees to rounding.

def ref_im2col(x, k, stride, padding):
    """(B, C, H, W) -> (B, C*k*k, H'*W') patch matrix."""
    b, c, h, w = x.shape
    x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out, w_out = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
    cols = np.empty((b, c, k * k, h_out * w_out))
    for idx in range(k * k):
        i, j = divmod(idx, k)
        patch = x[:, :, i:i + stride * h_out:stride, j:j + stride * w_out:stride]
        cols[:, :, idx, :] = patch.reshape(b, c, -1)
    return cols.reshape(b, c * k * k, h_out * w_out), (h_out, w_out)


def ref_col2im(gcols, x_shape, k, stride, padding, out_hw):
    b, c, h, w = x_shape
    h_out, w_out = out_hw
    gx = np.zeros((b, c, h + 2 * padding, w + 2 * padding))
    gcols = gcols.reshape(b, c, k * k, h_out * w_out)
    for idx in range(k * k):
        i, j = divmod(idx, k)
        g = gcols[:, :, idx, :].reshape(b, c, h_out, w_out)
        gx[:, :, i:i + stride * h_out:stride, j:j + stride * w_out:stride] += g
    return gx[:, :, padding:padding + h, padding:padding + w]


def ref_conv(x, gout, w, stride, padding):
    """Output, weight gradient and input gradient of the convolution of
    (T, B, C, H, W) with a shared (O, C, k, k) or per-timestep weight."""
    T, B = x.shape[:2]
    k = w.shape[-1]
    cols, out_hw = ref_im2col(x.reshape(T * B, *x.shape[2:]), k, stride, padding)
    cols = cols.reshape(T, B, *cols.shape[1:])
    flat_w = w.reshape(-1, 1, w.shape[-4], int(np.prod(w.shape[-3:])))
    y = (flat_w @ cols).reshape(*x.shape[:2], -1, *out_hw)
    g = gout.reshape(T, B, gout.shape[2], -1)
    gw = (g @ np.swapaxes(cols, -1, -2)).sum(axis=1)
    if w.ndim == 4:
        gw = gw.sum(axis=0)
    gcols = np.swapaxes(flat_w, -1, -2) @ g
    gx = ref_col2im(gcols.reshape(T * B, *gcols.shape[2:]), (T * B, *x.shape[2:]),
                    k, stride, padding, gout.shape[3:])
    return y, gw.reshape(w.shape), gx.reshape(x.shape)


# (id, (T, B, C, H, W), stride, padding); conv shares its weight over
# time, qconv has one per timestep
CONV_CASES = [
    pytest.param(quantized, shape, stride, padding,
                 id=f"{'qconv' if quantized else 'conv'}-{name}")
    for name, shape, stride, padding in [
        ("3ch", (4, 3, 3, 8, 8), 1, 1),
        ("1ch", (2, 4, 1, 9, 9), 1, 1),
        ("stride2-pad0", (3, 2, 3, 9, 9), 2, 0),
        ("T1", (1, 3, 2, 7, 7), 1, 1),
        ("B1", (4, 1, 3, 6, 6), 1, 1),
        ("non-square", (3, 2, 2, 5, 9), 2, 1),
        ("non-square-pad2", (2, 3, 2, 7, 4), 1, 2),
    ]
    for quantized in (False, True)
]


def conv_layer(quantized, shape, stride, padding, rng):
    T, C = shape[0], shape[2]
    if quantized:
        return QuantConv2d(C, 4, 3, QuantConfig(timesteps=T), stride=stride,
                           padding=padding, rng=rng)
    return Conv2d(C, 4, 3, stride=stride, padding=padding, rng=rng)


class TestConvContractionExact:
    @pytest.mark.parametrize("quantized,shape,stride,padding", CONV_CASES)
    def test_matches_im2col_oracle(self, quantized, shape, stride, padding):
        # dyadic data keep every sum exact, so equality does not depend on
        # the order in which a BLAS kernel accumulates
        rng = np.random.default_rng(41)
        layer = conv_layer(quantized, shape, stride, padding, rng)
        x = rng.integers(-4, 5, shape) / 4
        if quantized:
            layer.forward(x)
            w = layer.state.w_q  # per timestep
        else:
            w = layer.params["weight"] = rng.integers(-8, 9, layer.params["weight"].shape) / 8
        y = layer._contract(x, w, None)
        gout = rng.integers(-4, 5, y.shape) / 8
        gw, gx = layer._contract_grads(gout, x, w, None, True)
        want_y, want_gw, want_gx = ref_conv(x, gout, w, stride, padding)
        assert np.array_equal(y, want_y)
        assert np.array_equal(gx, want_gx)
        np.testing.assert_allclose(gw, want_gw, rtol=1e-13)

    @pytest.mark.parametrize("quantized,shape,stride,padding", CONV_CASES)
    def test_layer_gradients_match_oracle(self, quantized, shape, stride, padding):
        rng = np.random.default_rng(42)
        layer = conv_layer(quantized, shape, stride, padding, rng)
        x = rng.standard_normal(shape)
        y = layer.forward(x)
        gout = rng.standard_normal(y.shape)
        gx = layer.backward(gout)
        if quantized:
            st, scale = layer.state, layer._weight()[1]
            _, g_wq, want_gx = ref_conv(x, gout * scale, st.w_q, stride, padding)
            want_gw = normalize_backward(tawq_backward(g_wq, st), st.i_norm,
                                         layer.params["stimulus"], st.cfg.epsilon)
            got_gw = layer.grads["stimulus"]
        else:
            _, want_gw, want_gx = ref_conv(x, gout, layer.params["weight"], stride, padding)
            got_gw = layer.grads["weight"]
        # the batch is summed in another order; elements that cancel get an
        # absolute bound at the same relative level of the gradient's scale
        for got, want in ((gx, want_gx), (got_gw, want_gw)):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("quantized,shape,stride,padding",
                             [case for case in CONV_CASES if case.values[0]])
    def test_qconv_scales_like_scaled_gout(self, quantized, shape, stride, padding):
        # alpha is applied in the per-timestep transposing copy; the
        # products equal those of the full `gout * scale` copy
        rng = np.random.default_rng(43)
        layer = conv_layer(quantized, shape, stride, padding, rng)
        x = rng.standard_normal(shape)
        gout = rng.standard_normal(layer.forward(x).shape)
        gx = layer.backward(gout)
        st = layer.state
        g_wq, want_gx = layer._contract_grads(gout * layer._weight()[1], x, st.w_q,
                                              None, True)
        want_gw = normalize_backward(tawq_backward(g_wq, st), st.i_norm,
                                     layer.params["stimulus"], st.cfg.epsilon)
        assert np.array_equal(gx, want_gx)
        assert np.array_equal(layer.grads["stimulus"], want_gw)


@pytest.mark.parametrize("T", [1, 2, 4, 9])
def test_shared_linear_weight_gradient_sums_in_time_order(T):
    # one (O, I) buffer gives the sum over a (T, O, I) stack of products
    rng = np.random.default_rng(T)
    layer = Linear(7, 5, rng=rng)
    x, gout = rng.standard_normal((T, 6, 7)), rng.standard_normal((T, 6, 5))
    layer.forward(x)
    layer.backward(gout)
    want = (np.swapaxes(gout, -1, -2) @ x).sum(axis=0)
    assert np.array_equal(layer.grads["weight"], want)

# Exactness of the in-place kernels: each layer must reproduce, under
# np.array_equal, the plain formula it replaced.  forward and backward,
# like infer, may overwrite what they are handed, so the tests hand them
# copies; `Network` hands each layer an array nobody else reads
# (TestTrainingOwnership).


def _written_in(a, handed):
    """Whether `a` is the array `handed` (a fresh copy) or a view of it: a
    result left in the buffer it was handed, empty ones included."""
    return a is handed or a.base is handed

def ref_batchnorm(x, gout, gamma, beta, running_mean, running_var, training,
                  eps=1e-5, momentum=0.1):
    axes = tuple(i for i in range(x.ndim) if i != 2)
    cs = (1, 1, x.shape[2]) + (1,) * (x.ndim - 3)
    if training:
        mean, var = x.mean(axis=axes), x.var(axis=axes)
        running_mean = (1 - momentum) * running_mean + momentum * mean
        running_var = (1 - momentum) * running_var + momentum * var
    else:
        mean, var = running_mean, running_var
    std = np.sqrt(var + eps)
    xhat = (x - mean.reshape(cs)) / std.reshape(cs)
    y = gamma.reshape(cs) * xhat + beta.reshape(cs)
    if not training:  # gradients need a training-mode forward
        return {"y": y, "running_mean": running_mean, "running_var": running_var}
    g_scaled = gout * gamma.reshape(cs)
    gx = (g_scaled - g_scaled.mean(axis=axes).reshape(cs)
          - xhat * (g_scaled * xhat).mean(axis=axes).reshape(cs)) / std.reshape(cs)
    return {"y": y, "xhat": xhat, "std": std, "running_mean": running_mean,
            "running_var": running_var, "gamma": (gout * xhat).sum(axis=axes),
            "beta": gout.sum(axis=axes), "gx": gx}


def ref_lif(x, gout, cfg, relaxed):
    decay, k = 1.0 - 1.0 / cfg.tau, cfg.sg_scale_neuron
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    ss, us = lif_formula(x, cfg, relaxed)
    gx = np.empty_like(gout)
    gu_carry = np.zeros(gout.shape[1:])
    for t in range(x.shape[0] - 1, -1, -1):
        u, s = us[t], ss[t]
        ds = k * (sig(k * (u - cfg.v_threshold)) * (1.0 - sig(k * (u - cfg.v_threshold))))
        gu = gout[t] * ds + gu_carry * ((1.0 - s) + (cfg.v_reset - u) * ds)
        gx[t] = gu / cfg.tau
        gu_carry = gu * decay
    return ss, us, gx


def ref_avg_pool(x, gout, k):
    T, B, C, H, W = x.shape
    y = x.reshape(T, B, C, H // k, k, W // k, k).mean(axis=(4, 6))
    gx = np.repeat(np.repeat(gout, k, axis=3), k, axis=4) / (k * k)
    return y, gx


class TestInPlaceKernelsExact:
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", [(4, 9, 6), (3, 4, 5, 6, 6)])
    def test_batchnorm(self, shape, training):
        rng = np.random.default_rng(31)
        C = shape[2]
        x = rng.standard_normal(shape) * 3 + 1
        gout = rng.standard_normal(shape)
        bn = BatchNorm(C)
        bn.params["gamma"] = rng.uniform(0.5, 2.0, C)
        bn.params["beta"] = rng.uniform(-1.0, 1.0, C)
        bn.running_mean = rng.uniform(-1.0, 1.0, C)
        bn.running_var = rng.uniform(0.5, 2.0, C)
        want = ref_batchnorm(x, gout, bn.params["gamma"], bn.params["beta"],
                             bn.running_mean, bn.running_var, training)
        x0, g0 = x.copy(), gout.copy()
        if training:
            xin, gin = x.copy(), gout.copy()
            got = {"y": bn.forward(xin), "gx": bn.backward(gin)}
            got.update(xhat=bn.cache["xhat"], std=bn.cache["std"],
                       gamma=bn.grads["gamma"], beta=bn.grads["beta"])
            assert _written_in(got["xhat"], xin) and _written_in(got["gx"], gin)
        else:
            got = {"y": eval_forward(bn, x)}
            with pytest.raises(StateError, match="backward needs a training-mode forward"):
                bn.backward(gout)
        got.update(running_mean=bn.running_mean, running_var=bn.running_var)
        for name, value in want.items():
            assert np.array_equal(got[name], value), name
        assert np.array_equal(x, x0) and np.array_equal(gout, g0)

    # BatchNorm walks (T*B, C, S) rows in quantizer.blocks slabs of whole rows
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("case,shape,view", [pytest.param(*p, id=p[0]) for p in [
        ("slabs-ragged", (3, 30, 5, 9, 9), None),
        ("row-over-block", (2, 3, 3, 80, 80), None),
        ("3d-over-block", (4, 64, 100), None),
        ("one-channel", (3, 7, 1, 6, 6), None),
        ("one-channel-3d", (4, 9, 1), None),
        ("zero-samples", (4, 0, 5, 3, 3), None),
        ("zero-samples-3d", (4, 0, 6), None),
        ("zero-spatial", (4, 2, 3, 0, 5), None),
        ("batch-view", (3, 40, 4, 6, 6), slice(5, 33)),
        # numpy sums this view's one channel in T runs, not the one run of a copy
        ("batch-view-one-channel", (3, 40, 1, 10, 10), slice(5, 33)),
    ]])
    def test_batchnorm_row_slabs(self, case, shape, view, training):
        R, C, row = shape[0] * shape[1], shape[2], int(np.prod(shape[2:]))
        if case == "slabs-ragged":  # 405-element rows, 40 to a slab: 40, 40, 10
            assert R > BLOCK // row and R % (BLOCK // row)
        if case in ("row-over-block", "3d-over-block"):  # a slab of one row; of all rows
            assert row > BLOCK or R * row > BLOCK
        rng = np.random.default_rng(37)
        x = rng.standard_normal(shape) * 3 + 1
        if view is not None:  # as trainer.evaluate and the bench batch an input
            x = x[:, view]
            assert not x.flags.c_contiguous
        gout = rng.standard_normal(x.shape)
        bn = BatchNorm(C)
        bn.params["gamma"] = rng.uniform(0.5, 2.0, C)
        bn.params["beta"] = rng.uniform(-1.0, 1.0, C)
        bn.running_mean = rng.uniform(-1.0, 1.0, C)
        bn.running_var = rng.uniform(0.5, 2.0, C)
        x0, g0 = x.copy(), gout.copy()
        # a view is handed as it is: its rows are a copy, so it is not written
        xin, gin = (x if view is not None else x.copy()), gout.copy()
        with warnings.catch_warnings():
            if x.size == 0:  # its statistics are 0 / 0: NaN, as numpy's mean of nothing
                warnings.simplefilter("ignore", RuntimeWarning)
            want = ref_batchnorm(x, gout, bn.params["gamma"], bn.params["beta"],
                                 bn.running_mean, bn.running_var, training)
            got = {"y": bn.forward(xin) if training else eval_forward(bn, x)}
            if training:
                got["gx"] = bn.backward(gin)
                got.update(xhat=bn.cache["xhat"], std=bn.cache["std"],
                           gamma=bn.grads["gamma"], beta=bn.grads["beta"])
        got.update(running_mean=bn.running_mean, running_var=bn.running_var)
        for name, value in want.items():
            assert np.shape(got[name]) == np.shape(value), name
            assert np.array_equal(got[name], value, equal_nan=x.size == 0), name
        assert np.array_equal(x, x0) and np.array_equal(gout, g0)
        if training:
            assert _written_in(got["xhat"], xin) == (view is None)
            assert _written_in(got["gx"], gin)
            assert bn.backward(gout, input_grad=False) is None
            assert np.array_equal(bn.grads["gamma"], want["gamma"])
            assert np.array_equal(bn.grads["beta"], want["beta"])
        else:  # gradients need a training-mode forward
            for input_grad in (True, False):
                with pytest.raises(StateError, match="backward needs a training-mode forward"):
                    bn.backward(gout, input_grad=input_grad)
            # infer is the eval forward, on an input it may overwrite
            assert np.array_equal(bn.infer(x if view is not None else x.copy()), want["y"])

    @pytest.mark.parametrize("shape", [(4, 32, 16, 28, 28), (4, 32, 32, 14, 14), (3, 4, 5, 6, 6),
                                       (2, 3, 3, 100, 100), (5, 7, 3, 3, 1), (2, 2, 3, 9000, 1),
                                       (4, 9, 6), (4, 128, 512), (3, 2, 2, 1, 1)])
    def test_numpy_channel_sum_is_row_sums_in_row_order(self, shape):
        # BatchNorm's statistics rely on this order of numpy's own reduction:
        # each (T*B, C) row summed over the contiguous S axis, then the row
        # sums added in row order; a single channel is summed as one run
        rng = np.random.default_rng(38)
        x = rng.standard_normal(shape) * 3 + 1
        axes = (0, 1, *range(3, x.ndim))
        R, C, S = shape[0] * shape[1], shape[2], int(np.prod(shape[3:]))
        row_sums = x.reshape(R, C, S).sum(axis=2)
        by_rows = row_sums[0].copy()
        for r in range(1, R):
            by_rows += row_sums[r]
        assert np.array_equal(x.sum(axis=axes), by_rows)
        assert np.array_equal(x.mean(axis=axes), by_rows / (R * S))
        one = np.ascontiguousarray(x[:, :, :1])
        assert np.array_equal(one.sum(axis=axes), one.reshape(1, -1).sum(axis=1))

    # the "-blocks" cases span two full quantizer.BLOCKs per step and a ragged tail
    @pytest.mark.parametrize("cfg,relaxed,shape", [
        pytest.param(cfg, relaxed, shape, id=f"cfg{i}-{relaxed}{suffix}")
        for shape, suffix in [((5, 6, 4, 3, 3), ""), ((3, 5, 2 * BLOCK // 5 + 700), "-blocks")]
        for i, cfg in enumerate([LifConfig(), LifConfig(tau=3.0, v_threshold=0.7, v_reset=-0.2,
                                                         sg_scale_neuron=2.5)])
        for relaxed in (False, True)])
    def test_lif(self, cfg, relaxed, shape):
        rng = np.random.default_rng(32)
        x = rng.standard_normal(shape) * 2 + 0.5
        gout = rng.standard_normal(x.shape)
        lif = LIF(cfg)
        want_s, want_u, want_gx = ref_lif(x, gout, cfg, relaxed)
        xin, gin = x.copy(), gout.copy()
        if relaxed:  # the kernel fires hard spikes; its backward runs on graded ones
            lif.cache = {"x": xin, "y": want_s, "u": want_u}
        else:
            assert np.array_equal(lif.forward(xin), want_s)
            assert np.array_equal(lif.cache["u"], want_u)
            assert lif.cache["u"] is xin
        gx = lif.backward(gin)
        assert np.array_equal(gx, want_gx)
        assert _written_in(gx, gin)

    def test_relaxed_lif_is_ref_lif(self):
        # the smooth LIF the finite differences run through
        cfg = LifConfig(tau=3.0, v_threshold=0.7, v_reset=-0.2, sg_scale_neuron=2.5)
        x = np.random.default_rng(35).standard_normal((5, 6, 4)) * 2 + 0.5
        want_s, want_u, _ = ref_lif(x, np.zeros(x.shape), cfg, relaxed=True)
        lif = RelaxedLIF(cfg)
        y = lif.forward(x)
        assert np.array_equal(y, want_s) and np.array_equal(lif.cache["u"], want_u)
        assert lif.cache["x"] is x and lif.cache["y"] is y

    @pytest.mark.parametrize("k,hw", [(2, (8, 6)), (3, (9, 12)),
                                      (2, (4, 2)), (3, (3, 3)), (8, (16, 16))])
    def test_avg_pool(self, k, hw):
        # the last three shapes take numpy's own reduction (W == k, k >= 8)
        rng = np.random.default_rng(33)
        x = rng.standard_normal((3, 4, 5) + hw)
        gout = rng.standard_normal((3, 4, 5, hw[0] // k, hw[1] // k))
        want_y, want_gx = ref_avg_pool(x, gout, k)
        pool = AvgPool2d(k)
        x0 = x.copy()
        assert np.array_equal(pool.forward(x), want_y)
        assert np.array_equal(pool.backward(gout.copy()), want_gx)  # it may overwrite its gout
        assert np.array_equal(x, x0)

    def test_avg_pool_strided_view(self):
        # a transposed view is reduced in numpy's stride order
        x = np.random.default_rng(34).standard_normal((2, 3, 4, 6, 6)).transpose(0, 1, 2, 4, 3)
        want_y, _ = ref_avg_pool(x, np.zeros((2, 3, 4, 3, 3)), 2)
        assert np.array_equal(AvgPool2d(2).forward(x), want_y)


def _infer_case(kind: str):
    """A layer of `kind` with non-trivial parameters and statistics, and an
    input for it."""
    rng = np.random.default_rng(36)
    quant = QuantConfig(timesteps=4)
    layer, shape = {
        "linear": (Linear(6, 5, rng=rng), (4, 3, 6)),
        "qlinear": (QuantLinear(6, 5, quant, rng=rng), (4, 3, 6)),
        "conv": (Conv2d(2, 3, 3, padding=1, rng=rng), (4, 3, 2, 5, 5)),
        "qconv": (QuantConv2d(2, 3, 3, quant, stride=2, rng=rng), (4, 3, 2, 5, 5)),
        "bn-3d": (BatchNorm(6), (4, 3, 6)),
        "bn-5d": (BatchNorm(2), (4, 3, 2, 4, 4)),
        "lif": (LIF(LifConfig(tau=3.0, v_reset=-0.2)), (4, 3, 6)),
        "pool": (AvgPool2d(2), (4, 3, 2, 4, 6)),
        "flatten": (Flatten(), (4, 3, 2, 4, 4)),
    }[kind]
    if isinstance(layer, BatchNorm):
        c = layer.channels
        layer.params.update(gamma=rng.uniform(0.5, 2.0, c), beta=rng.uniform(-1.0, 1.0, c))
        layer.running_mean, layer.running_var = rng.uniform(-1.0, 1.0, c), rng.uniform(0.5, 2.0, c)
    return layer, rng.standard_normal(shape) * 2 + 0.5


INFER_KINDS = ["linear", "qlinear", "conv", "qconv", "bn-3d", "bn-5d", "lif", "pool", "flatten"]


class TestInfer:
    """`infer` is the eval forward without a cache: the same output, bit for
    bit, from an input it may overwrite, and every cache left as it was."""

    @pytest.mark.parametrize("kind", INFER_KINDS)
    def test_equals_eval_forward(self, kind):
        layer, x = _infer_case(kind)
        owned = x.copy()
        got = layer.infer(owned)
        assert np.array_equal(got, eval_forward(layer, x))
        if kind == "lif":  # the input it owned is left holding the membrane
            assert np.array_equal(owned, layer.cache["u"])

    @pytest.mark.parametrize("kind", INFER_KINDS)
    def test_leaves_the_cache(self, kind):
        layer, x = _infer_case(kind)
        eval_forward(layer, x)
        cache, items = layer.cache, dict(layer.cache)
        snapshot = {k: np.copy(v) for k, v in items.items() if isinstance(v, np.ndarray)}
        layer.infer(x[:, :2].copy())
        assert layer.cache is cache and cache.keys() == items.keys()
        assert all(cache[k] is v for k, v in items.items())
        assert all(np.array_equal(cache[k], v) for k, v in snapshot.items())


def _spikes_feed_a_writer(case: str):
    """A parsed network in which a LIF's spikes feed a BatchNorm or LIF,
    directly or through Flatten, with BN statistics that keep every LIF
    firing, and a graded input for it."""
    doc = default_xor_document()
    doc["network"] = {
        "lif-bn": [{"kind": "linear", "in": 2, "out": 8}, {"kind": "lif"},
                   {"kind": "bn", "channels": 8}, {"kind": "lif"},
                   {"kind": "qlinear", "in": 8, "out": 2}],
        "lif-lif": [{"kind": "linear", "in": 2, "out": 8}, {"kind": "bn", "channels": 8},
                    {"kind": "lif"}, {"kind": "lif"}, {"kind": "qlinear", "in": 8, "out": 2}],
        "lif-flatten-bn": [{"kind": "conv", "in": 2, "out": 4, "kernel": 3, "padding": 1},
                           {"kind": "bn", "channels": 4}, {"kind": "lif"}, {"kind": "flatten"},
                           {"kind": "bn", "channels": 144}, {"kind": "lif"},
                           {"kind": "qlinear", "in": 144, "out": 2}],
    }[case]
    doc["lif"] = {"v_threshold": 0.7}  # spikes alone can charge a LIF past it
    net = build_network(parse_runconfig(doc))
    rng = np.random.default_rng(39)
    for layer in net.layers:
        if isinstance(layer, BatchNorm):
            c = layer.channels
            layer.params.update(gamma=rng.uniform(1.0, 3.0, c), beta=rng.uniform(0.0, 1.0, c))
            layer.running_mean, layer.running_var = rng.uniform(0.0, 0.5, c), rng.uniform(0.2, 1.0, c)
    shape = (4, 6, 2, 6, 6) if case == "lif-flatten-bn" else (4, 6, 2)
    return net, rng.standard_normal(shape) * 2 + 0.5


def _private_copy_eval(net, x):
    """Every layer's `infer` on a private copy of its input: the logits,
    and per layer its input, its output and the copy it charged."""
    h, records = x, []
    for layer in net.layers:
        owned = np.array(h, dtype=np.float64)
        y = layer.infer(owned)
        records.append({"x": h, "y": y, "u": owned})
        h = y
    return h.mean(axis=0), records


class TestEvalForward:
    """An eval-mode `Network.forward` is `infer`'s in-place run; its traces
    keep, by value, what their readers read."""

    @pytest.mark.parametrize("case", ["lif-bn", "lif-lif", "lif-flatten-bn"])
    def test_traces_equal_a_private_copy_run(self, case):
        net, x = _spikes_feed_a_writer(case)
        x0 = x.copy()
        want, records = _private_copy_eval(net, x0.copy())
        logits = net.forward(x, training=False)
        assert np.array_equal(logits, want)
        assert np.array_equal(x, x0)
        lifs = [i for i, layer in enumerate(net.layers) if isinstance(layer, LIF)]
        for i in lifs:
            assert np.array_equal(net.layers[i].cache["y"], records[i]["y"]), i
            assert np.array_equal(net.layers[i].cache["u"], records[i]["u"]), i
        for i, layer in enumerate(net.layers):
            if layer.kind in WEIGHTED_KINDS:
                assert np.array_equal(layer.cache["x"], records[i]["x"]), i
        traces = net.traces()
        reference = [dict(t, input=r["x"], output=r["y"]) for t, r in zip(traces, records)]
        rates = firing_rate_stats(traces)
        assert rates == firing_rate_stats(reference)
        assert all(0.0 < np.mean(r) < 1.0 for r in rates.rates), rates
        assert count_sops(traces) == count_sops(reference)
        assert entropy_report(traces) == entropy_report(reference)

    def test_holds_one_array_per_in_place_run(self):
        # the bench conv stack: conv and qconv each hand one buffer to the
        # BN and LIF after them, which keep it; the LIFs' spikes, the pools
        # and the head allocate their outputs
        doc = default_xor_document()
        doc["network"] = [
            {"kind": "conv", "in": 1, "out": 16, "kernel": 3, "padding": 1},
            {"kind": "bn", "channels": 16}, {"kind": "lif"}, {"kind": "pool", "kernel": 2},
            {"kind": "qconv", "in": 16, "out": 32, "kernel": 3, "padding": 1},
            {"kind": "bn", "channels": 32}, {"kind": "lif"}, {"kind": "pool", "kernel": 2},
            {"kind": "flatten"}, {"kind": "qlinear", "in": 32 * 7 * 7, "out": 10}]
        net = build_network(parse_runconfig(doc))
        x = (np.random.default_rng(40).random((4, 8, 1, 28, 28)) < 0.3) * 1.0
        net.forward(x, training=False)  # materializes the quantized weights
        for layer in net.layers:
            layer.cache = {}
        tracemalloc.start()
        try:
            logits = net.forward(x, training=False)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        outputs = [t["output"].nbytes for t in net.traces() if t["kind"] not in ("bn", "flatten")]
        assert len(outputs) == 7  # conv, lif, pool, qconv, lif, pool, qlinear
        bound = sum(outputs) + logits.nbytes
        assert held <= 1.02 * bound + 65536, (held, bound)


BENCH_CONV = [  # bench/workloads.py's conv-train stack
    {"kind": "conv", "in": 1, "out": 16, "kernel": 3, "padding": 1},
    {"kind": "bn", "channels": 16}, {"kind": "lif"}, {"kind": "pool", "kernel": 2},
    {"kind": "qconv", "in": 16, "out": 32, "kernel": 3, "padding": 1},
    {"kind": "bn", "channels": 32}, {"kind": "lif"}, {"kind": "pool", "kernel": 2},
    {"kind": "flatten"}, {"kind": "qlinear", "in": 32 * 7 * 7, "out": 10}]


def _bench_conv(batch: int):
    """The bench conv stack, parsed, and a spike input of `batch` samples."""
    doc = default_xor_document()
    doc["network"] = BENCH_CONV
    net = build_network(parse_runconfig(doc))
    return net, (np.random.default_rng(40).random((4, batch, 1, 28, 28)) < 0.3) * 1.0


def _private_copy_step(net, x, glogits):
    """A training step in which every layer's `forward` runs on a private
    copy of its input and its `backward` on a private copy of its gout;
    returns the logits."""
    h = x
    for layer in net.layers:
        h = layer.forward(np.array(h, dtype=np.float64))
    g = np.broadcast_to(glogits / h.shape[0], h.shape).copy()
    for layer in reversed(net.layers[1:]):
        g = layer.backward(g.copy())
    net.layers[0].backward(g.copy(), input_grad=False)
    return h.mean(axis=0)


class TestTrainingOwnership:
    """A training step's forward and backward hand each layer an array no
    other layer reads: the in-place run equals a run on private copies."""

    @pytest.mark.parametrize("case", ["lif-bn", "lif-lif", "lif-flatten-bn", "bench-conv"])
    def test_equals_a_private_copy_step(self, case):
        def build():
            return _bench_conv(4) if case == "bench-conv" else _spikes_feed_a_writer(case)
        (net, x), (ref, _) = build(), build()
        x0 = x.copy()
        logits = net.forward(x, training=True)
        glogits = np.random.default_rng(41).standard_normal(logits.shape)
        assert np.array_equal(logits, _private_copy_step(ref, x0.copy(), glogits))
        assert np.array_equal(x, x0)
        lifs = [i for i, layer in enumerate(net.layers) if isinstance(layer, LIF)]

        def spikes_kept():  # each LIF's spikes, which its backward reads
            return all(np.array_equal(net.layers[i].cache["y"], ref.layers[i].cache["y"])
                       for i in lifs)
        assert spikes_kept()
        net.backward(glogits)
        assert spikes_kept()
        grads = [(layer, name, layer.grads[name].copy()) for _, layer, name, _ in net.named_params()]
        for (layer, name, g), (_, want, pname, _) in zip(grads, ref.named_params()):
            assert np.array_equal(g, want.grads[pname]), (layer.kind, name)
        for layer, want in zip(net.layers, ref.layers):
            if isinstance(layer, BatchNorm):
                assert np.array_equal(layer.running_mean, want.running_mean)
                assert np.array_equal(layer.running_var, want.running_var)
        net.backward(glogits)  # no backward wrote into what the next one reads
        for layer, name, g in grads:
            assert np.array_equal(layer.grads[name], g), (layer.kind, name)

    def test_holds_one_buffer_per_array_a_backward_reads(self):
        # per (weighted, bn, lif) run: the weighted output, which BN
        # normalizes into xhat; BN's output, which the LIF charges into
        # its membrane; and the spikes.  Then the pools and the head.
        net, x = _bench_conv(8)
        net.forward(x, training=False)  # materializes the quantized weights
        for layer in net.layers:
            layer.cache = {}
        tracemalloc.start()
        try:
            logits = net.forward(x, training=True)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        outputs = [t["output"].nbytes for t in net.traces() if t["kind"] != "flatten"]
        assert len(outputs) == 9  # conv, bn, lif, pool, qconv, bn, lif, pool, qlinear
        bound = sum(outputs) + logits.nbytes
        assert held <= 1.02 * bound + 65536, (held, bound)


def _conv_scratch(net) -> int:
    """Bytes of the largest per-timestep scratch of a convolution in the last
    forward: its patch matrix, padded images and product."""
    sizes = [0]
    for layer, t in zip(net.layers, net.traces()):
        if layer.kind in ("conv", "qconv"):
            _, B, C, H, W = t["input"].shape
            O, _, k, _ = next(iter(layer.params.values())).shape
            out, p = math.prod(t["output"].shape[3:]), layer.padding
            sizes.append(8 * B * (C * k * k * out + C * (H + 2 * p) * (W + 2 * p) + O * out))
    return max(sizes)


class TestTraceReuse:
    """A `Network.forward` of the last batch's shape writes each layer's
    output into the array its last trace holds, so one batch of
    activations is held, not two."""

    @pytest.mark.parametrize("training", [False, True])
    def test_equals_a_forward_with_no_traces(self, training):
        (net, x), (ref, _) = _bench_conv(4), _bench_conv(4)
        x2 = (np.random.default_rng(42).random(x.shape) < 0.3) * 1.0
        for n in (net, ref):
            n.forward(x, training=training)
        before = [layer.cache["y"] for layer in net.layers]
        for layer in ref.layers:
            layer.cache = {}
        logits = net.forward(x2, training=training)
        assert np.array_equal(logits, ref.forward(x2, training=training))
        reused = [layer.kind for layer, y in zip(net.layers, before) if layer.cache["y"] is y]
        # batch norm's eval output and flatten's are views, never reused
        assert reused == [k["kind"] for k in BENCH_CONV
                          if k["kind"] != "flatten" and (training or k["kind"] != "bn")]
        for layer, want in zip(net.layers, ref.layers):  # what the trace readers read
            keys = {"lif": ("y", "u"), "bn": ()}.get(layer.kind, ("x",))
            assert all(np.array_equal(layer.cache[k], want.cache[k]) for k in keys), layer.kind
        if training:
            glogits = np.random.default_rng(43).standard_normal(logits.shape)
            net.backward(glogits)
            ref.backward(glogits)
            for (_, layer, name, _), (_, want, _, _) in zip(net.named_params(),
                                                            ref.named_params()):
                assert np.array_equal(layer.grads[name], want.grads[name]), (layer.kind, name)

    @pytest.mark.parametrize("training,batch", [(False, 8), (True, 8), (False, 4)],
                             ids=["eval", "train", "smaller-batch"])
    def test_peaks_at_one_convolution_scratch(self, training, batch):
        # a forward after a training step peaks above the bytes held before
        # it by at most one convolution's scratch and 128 KiB of
        # per-channel vectors; a forward that allocated its outputs beside
        # the last batch's traces would add a whole batch's activations
        net, x = _bench_conv(8)
        tracemalloc.start()
        try:
            net.forward(x, training=True)
            net.backward(np.ones((8, 10)))
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            net.forward(x[:, :batch], training=training)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held <= _conv_scratch(net) + 131072, (peak - held, _conv_scratch(net))

    def test_earlier_logits_outlive_the_next_forward(self):
        net, x = _bench_conv(4)
        logits = net.forward(x, training=False)
        kept = logits.copy()
        net.forward(1.0 - x, training=False)
        assert np.array_equal(logits, kept)

    def test_never_writes_into_the_callers_input(self):
        # an input that is a trace's output drops the traces first, so the
        # layer that returned it does not write its next output over it
        net = Network([Linear(3, 3, rng=np.random.default_rng(44)), BatchNorm(3), LIF()])
        net.forward(np.random.default_rng(45).standard_normal((4, 5, 3)) * 3)
        spikes = net.layers[2].cache["y"]
        kept = spikes.copy()
        logits = net.forward(spikes)
        assert np.array_equal(spikes, kept)
        fresh = copy.deepcopy(net)
        fresh._drop_traces()
        assert np.array_equal(logits, fresh.forward(kept))
