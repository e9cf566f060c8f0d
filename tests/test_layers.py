"""Spiking layers: LIF dynamics, batch norm, quantized layers, network
composition, and a pinned golden regression for a seed-fixed toy net."""

import copy
import tracemalloc

import numpy as np
import pytest

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
        y = bn.forward(x, training=True)
        assert np.allclose(y.mean(axis=(0, 1)), 0.0, atol=1e-10)
        assert np.allclose(y.var(axis=(0, 1)), 1.0, atol=1e-3)

    def test_inference_is_affine(self):
        bn = BatchNorm(3)
        bn.running_mean = np.array([1.0, 2.0, 3.0])
        bn.running_var = np.array([4.0, 4.0, 4.0])
        bn.params["gamma"] = np.array([2.0, 2.0, 2.0])
        x = np.zeros((1, 1, 3))
        y = bn.forward(x, training=False)
        want = 2.0 * (0.0 - bn.running_mean) / np.sqrt(4.0 + bn.eps)
        assert np.allclose(y[0, 0], want)

    def test_running_stats_update(self):
        bn = BatchNorm(2)
        x = np.ones((1, 8, 2)) * 5
        bn.forward(x, training=True)
        assert np.allclose(bn.running_mean, 0.9 * 0 + 0.1 * 5)


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
        y = layer._contract(x, w)
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
# np.array_equal, the plain formula it replaced, and must leave its
# inputs untouched.

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
    g_scaled = gout * gamma.reshape(cs)
    if training:
        gx = (g_scaled - g_scaled.mean(axis=axes).reshape(cs)
              - xhat * (g_scaled * xhat).mean(axis=axes).reshape(cs)) / std.reshape(cs)
    else:
        gx = g_scaled / std.reshape(cs)
    return {"y": y, "xhat": xhat, "std": std, "running_mean": running_mean,
            "running_var": running_var, "gamma": (gout * xhat).sum(axis=axes),
            "beta": gout.sum(axis=axes), "gx": gx}


def ref_lif(x, gout, cfg, relaxed):
    decay, k = 1.0 - 1.0 / cfg.tau, cfg.sg_scale_neuron
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    u = np.zeros(x.shape[1:])
    us, ss = np.empty_like(x), np.empty_like(x)
    for t in range(x.shape[0]):
        u = decay * u + x[t] / cfg.tau
        if relaxed:
            s = sig(k * (u - cfg.v_threshold))
        else:
            s = (u >= cfg.v_threshold).astype(np.float64)
        us[t], ss[t] = u, s
        u = cfg.v_reset * s + u * (1.0 - s)
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
        got = {"y": bn.forward(x, training=training)}
        got["gx"] = bn.backward(gout)
        got.update(xhat=bn.cache["xhat"], std=bn.cache["std"],
                   running_mean=bn.running_mean, running_var=bn.running_var,
                   gamma=bn.grads["gamma"], beta=bn.grads["beta"])
        for name, value in want.items():
            assert np.array_equal(got[name], value), name
        assert np.array_equal(x, x0) and np.array_equal(gout, g0)

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
        x0, g0 = x.copy(), gout.copy()
        assert np.array_equal(lif.forward(x, relaxed=relaxed), want_s)
        assert np.array_equal(lif.cache["u"], want_u)
        assert np.array_equal(lif.backward(gout), want_gx)
        assert np.array_equal(x, x0) and np.array_equal(gout, g0)

    @pytest.mark.parametrize("k,hw", [(2, (8, 6)), (3, (9, 12)),
                                      (2, (4, 2)), (3, (3, 3)), (8, (16, 16))])
    def test_avg_pool(self, k, hw):
        # the last three shapes take numpy's own reduction (W == k, k >= 8)
        rng = np.random.default_rng(33)
        x = rng.standard_normal((3, 4, 5) + hw)
        gout = rng.standard_normal((3, 4, 5, hw[0] // k, hw[1] // k))
        want_y, want_gx = ref_avg_pool(x, gout, k)
        pool = AvgPool2d(k)
        x0, g0 = x.copy(), gout.copy()
        assert np.array_equal(pool.forward(x), want_y)
        assert np.array_equal(pool.backward(gout), want_gx)
        assert np.array_equal(x, x0) and np.array_equal(gout, g0)

    def test_avg_pool_strided_view(self):
        # a transposed view is reduced in numpy's stride order
        x = np.random.default_rng(34).standard_normal((2, 3, 4, 6, 6)).transpose(0, 1, 2, 4, 3)
        want_y, _ = ref_avg_pool(x, np.zeros((2, 3, 4, 3, 3)), 2)
        assert np.array_equal(AvgPool2d(2).forward(x), want_y)
