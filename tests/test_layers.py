"""Spiking layers: LIF dynamics, batch norm, quantized layers, network
composition, and a pinned golden regression for a seed-fixed toy net."""

import numpy as np
import pytest

from tawq.errors import ConfigError, ShapeError
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
    lif_step,
)
from tawq.quantizer import QuantConfig, normalize_backward, tawq_backward


class TestLifStep:
    def test_threshold_boundary_fires(self):
        spikes, u_next = lif_step(np.array(0.0), np.array(1.0), LifConfig())
        assert spikes == 1.0
        assert u_next == 0.0

    def test_leak_arithmetic(self):
        spikes, u_next = lif_step(np.array(0.8), np.array(0.0), LifConfig())
        assert spikes == 0.0
        assert abs(float(u_next) - 0.4) < 1e-15

    def test_zero_input_never_spikes(self):
        u = np.zeros(5)
        for _ in range(50):
            spikes, u = lif_step(u, np.zeros(5), LifConfig())
            assert not spikes.any()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            lif_step(np.zeros(2), np.zeros(3), LifConfig())

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
        alpha = compute_scaling(w_q, 1)
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


# frozen from the first verified run of the seed-fixed net above
GOLDEN_LOGITS = np.array([
    [-0.25, -0.06666666666666671],
    [0.25, -0.46666666666666673],
    [0.25, -0.46666666666666673],
    [0.75, -0.8],
    [1.0, -1.1333333333333333],
])
