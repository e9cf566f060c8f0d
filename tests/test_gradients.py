"""Backward-pass correctness.

Two independent oracles anchor the quantizer gradient: a literal
sum-over-paths expansion of the recurrence derivative (products of
per-step partials, written directly from the chain rule rather than as
reverse accumulation), and central finite differences through a relaxed
forward, in which `tests/conftest.py::RelaxedLIF` replaces the hard spike
by its surrogate sigmoid and keeps the library's `LIF.backward`.
"""

import numpy as np
import pytest

from conftest import RelaxedLIF, conv_document
from tawq.data import build_dataset
from tawq.errors import ConfigError, DataError, NumericError, ShapeError
from tawq.layers import LIF, BatchNorm, LifConfig, Linear, Network, QuantLinear
from tawq.quantizer import (
    BLOCK,
    QuantConfig,
    normalize_backward,
    normalize_stimulus,
    surrogate_grad,
    tawq_backward,
    tawq_forward,
)
from tawq.runconfig import build_network, default_xor_document, parse_runconfig
from tawq.trainer import (
    GradientBundle,
    Optimizer,
    TrainConfig,
    clip_and_step,
    collect_gradients,
    softmax_cross_entropy,
    train,
)


def expansion_gradient(upstream: np.ndarray, state) -> np.ndarray:
    """Literal sum-over-paths form of the stimulus gradient.

    d c[t] / d i = sum_{k=1..t} (1 - lam) * prod_{j=k..t-1} A[j]  with
    A[j] = lam * (1 - |w[j]|/n) - lam * c[j] * sign(w[j]) * sg(c[j]) / n,
    then  grad = sum_t upstream[t] * sg(c[t]) * dc[t]/di.
    """
    cfg = state.cfg
    lam, n = cfg.lam, cfg.n_level
    T = cfg.timesteps
    grad = np.zeros_like(state.i_norm)
    for t in range(1, T + 1):
        dc_di = np.zeros_like(state.i_norm)
        for k in range(1, t + 1):
            term = np.full_like(state.i_norm, 1.0 - lam)
            for j in range(k, t):
                c_j, w_j = state.c_s[j], state.w_q[j - 1]
                a_j = (lam * (1.0 - np.abs(w_j) / n)
                       - lam * c_j * np.sign(w_j) * surrogate_grad(c_j, cfg) / n)
                term = term * a_j
            dc_di += term
        grad += upstream[t - 1] * surrogate_grad(state.c_s[t], cfg) * dc_di
    return grad


class TestQuantizerBackward:
    def test_single_step_chain(self):
        cfg = QuantConfig(timesteps=1)
        st = tawq_forward(np.array([0.6, -0.1]), cfg)
        up = np.array([[2.0, -3.0]])
        got = tawq_backward(up, st)
        want = up[0] * surrogate_grad(st.c_s[1], cfg) * (1 - cfg.lam)
        assert np.allclose(got, want, rtol=1e-14)

    def test_zero_upstream_gives_zero(self):
        st = tawq_forward(np.linspace(-1, 1, 9), QuantConfig(timesteps=4))
        assert not tawq_backward(np.zeros((4, 9)), st).any()

    def test_matches_expansion_scalar_cases(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            T = int(rng.integers(1, 5))
            n = int(rng.choice([1, 2]))
            cfg = QuantConfig(timesteps=T, n_level=n,
                              lam=float(rng.uniform(0.2, 0.8)))
            st = tawq_forward(rng.uniform(-2, 2, size=()), cfg)
            up = rng.standard_normal((T,))
            got = tawq_backward(up, st)
            want = expansion_gradient(up, st)
            scale = max(abs(float(want)), 1e-8)
            assert abs(float(got) - float(want)) / scale <= 1e-10

    def test_matches_expansion_tensor_cases(self):
        rng = np.random.default_rng(6)
        for T in (1, 2, 3, 4):
            cfg = QuantConfig(timesteps=T)
            st = tawq_forward(rng.uniform(-2, 2, size=(4, 6)), cfg)
            up = rng.standard_normal((T, 4, 6))
            got = tawq_backward(up, st)
            want = expansion_gradient(up, st)
            denom = np.maximum(np.abs(want), 1e-8)
            assert np.max(np.abs(got - want) / denom) <= 1e-10

    def test_period_three_scalar_case(self):
        cfg = QuantConfig(timesteps=3)
        st = tawq_forward(np.array(0.3), cfg)
        up = np.ones((3,))
        got = tawq_backward(up, st)
        want = expansion_gradient(up, st)
        assert abs(float(got - want)) <= 1e-12

    def test_memoryless_mode_sums_steps(self):
        cfg = QuantConfig(timesteps=4, temporal=False)
        i = np.linspace(-1, 1, 7)
        st = tawq_forward(i, cfg)
        up = np.arange(28.0).reshape(4, 7)
        got = tawq_backward(up, st)
        assert np.allclose(got, up.sum(axis=0) * surrogate_grad(i, cfg))

    def test_shape_mismatch_rejected(self):
        st = tawq_forward(np.zeros(3), QuantConfig(timesteps=2))
        with pytest.raises(ShapeError):
            tawq_backward(np.zeros((3, 3)), st)


class TestNormalizationBackward:
    def test_finite_difference(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 4))
        up = rng.standard_normal((5, 4))
        eps = 1e-5
        got = normalize_backward(up, normalize_stimulus(x, eps), x, eps)
        h = 1e-6
        fd = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            xp, xm = x.copy(), x.copy()
            xp[idx] += h
            xm[idx] -= h
            fd[idx] = ((up * normalize_stimulus(xp, eps)).sum()
                       - (up * normalize_stimulus(xm, eps)).sum()) / (2 * h)
        assert np.allclose(got, fd, atol=1e-6)


def _relaxed_net(seed: int = 0):
    quant = QuantConfig(timesteps=4)
    rngs = [np.random.default_rng((seed, i)) for i in range(3)]
    return Network([
        Linear(3, 8, rng=rngs[0]),
        BatchNorm(8),
        RelaxedLIF(LifConfig()),
        QuantLinear(8, 4, quant, rng=rngs[1]),
        BatchNorm(4),
        RelaxedLIF(LifConfig()),
        Linear(4, 2, rng=rngs[2]),
    ])


def _relaxed_conv_net():
    net = build_network(parse_runconfig(conv_document()))
    net.layers = [RelaxedLIF(layer.cfg) if isinstance(layer, LIF) else layer
                  for layer in net.layers]
    return net


def _relaxed_loss(net, x, y):
    logits = net.forward(x, training=True)
    loss, grad = softmax_cross_entropy(logits, y)
    return loss, grad


class TestFiniteDifferences:
    """Central differences through the relaxed (everywhere-smooth) forward.

    The quantized weight stack is constant under these parameter
    perturbations, so the analytic path through bn / scaling / head is the
    true derivative of the relaxed forward.
    """

    def test_smooth_paths_match(self):
        for make_net, x_shape in ((_relaxed_net, (4, 6, 3)),
                                  (_relaxed_conv_net, (4, 6, 2, 6, 6))):
            self._check_smooth_paths(make_net(), x_shape)

    def _check_smooth_paths(self, net, x_shape):
        rng = np.random.default_rng(17)
        x = (rng.random(x_shape) < 0.5).astype(float)
        y = rng.integers(0, 2, size=x_shape[1])

        _, gl = _relaxed_loss(net, x, y)
        net.backward(gl)
        bundle = collect_gradients(net)

        h = 1e-5
        checked = 0
        for name, layer, pname, param in net.named_params():
            if pname == "stimulus":
                continue  # hard quantization path, not smooth
            flat = param.ravel()
            picks = np.linspace(0, flat.size - 1, min(5, flat.size)).astype(int)
            for k in picks:
                orig = flat[k]
                flat[k] = orig + h
                lp, _ = _relaxed_loss(net, x, y)
                flat[k] = orig - h
                lm, _ = _relaxed_loss(net, x, y)
                flat[k] = orig
                fd = (lp - lm) / (2 * h)
                analytic = bundle.tensors[name].ravel()[k]
                denom = max(abs(fd), abs(analytic), 1e-3)
                assert abs(analytic - fd) / denom <= 1e-5, (x_shape, name, k)
                checked += 1
        assert checked >= 30


class TestOptimizer:
    def test_sgd_step_bitwise(self):
        net = Network([Linear(2, 2, bias=False)])
        w0 = net.layers[0].params["weight"].copy()
        g = np.full((2, 2), 0.5)
        cfg = TrainConfig(lr=0.1, optimizer="sgd", clip_norm=1e9)
        Optimizer(net, cfg).step(GradientBundle({"0.weight": g}), cfg.lr)
        assert np.array_equal(net.layers[0].params["weight"], w0 - 0.1 * g)

    def test_sgd_rejects_weight_decay(self):
        # plain SGD applies no weight decay, so a nonzero value would be ignored
        with pytest.raises(ConfigError, match="weight_decay"):
            TrainConfig(optimizer="sgd", weight_decay=0.1)

    def test_clip_halves_at_double_norm(self):
        g = np.array([3.0, 4.0])  # norm 5
        bundle = GradientBundle({"p": g})
        clipped = bundle.clipped(2.5)
        assert np.allclose(clipped.tensors["p"], g / 2)
        assert abs(clipped.global_norm - 2.5) < 1e-12

    def test_overflowing_norm_raises(self):
        # every entry is finite, but 1e160 ** 2 overflows float64; the step
        # must not be scaled to zero with a recorded norm of 0
        with pytest.raises(NumericError, match="non-finite gradient norm"):
            GradientBundle({"p": np.array([1e160, 1.0])}).clipped(1.0)

    def test_global_norm_is_the_plain_sum_of_squares_bitwise(self):
        # the norm is the root of the plain sum of each tensor's summed
        # squares, in order, and leaves the tensors as they were
        rng = np.random.default_rng(39)
        shapes = [(), (1,), (7, 300), (2 * BLOCK + 37,), (4, 16, 8, 3, 3), (0, 5), (5,)]
        tensors = {str(i): rng.standard_normal(s) * 10.0 ** (i - 3) for i, s in enumerate(shapes)}
        before = {k: g.copy() for k, g in tensors.items()}
        want = float(np.sqrt(sum(float((g * g).sum()) for g in tensors.values())))
        assert GradientBundle(tensors).global_norm == want
        assert all(np.array_equal(tensors[k], g) for k, g in before.items())
        assert GradientBundle({}).global_norm == 0.0

    def test_empty_bundle_has_zero_norm_and_clips_to_itself(self):
        bundle = GradientBundle({})
        assert bundle.global_norm == 0.0
        assert bundle.clipped(1.0) is bundle

    def test_clip_is_identity_below_cap(self):
        bundle = GradientBundle({"p": np.array([0.3])})
        assert bundle.clipped(1.0) is bundle

    def test_adamw_first_step_closed_form(self):
        net = Network([Linear(1, 1, bias=False)])
        w0 = float(net.layers[0].params["weight"][0, 0])
        g = 0.7
        cfg = TrainConfig(lr=0.01, optimizer="adamw", weight_decay=0.1,
                          clip_norm=1e9)
        Optimizer(net, cfg).step(GradientBundle({"0.weight": np.array([[g]])}), cfg.lr)
        # bias-corrected first moments reduce to g and g^2 exactly
        want = w0 - cfg.lr * cfg.weight_decay * w0 - cfg.lr * g / (abs(g) + cfg.adam_eps)
        assert abs(float(net.layers[0].params["weight"][0, 0]) - want) < 1e-14

    @pytest.mark.parametrize("size", [1, BLOCK, 2 * BLOCK + 37])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_adamw_matches_plain_formula_bitwise(self, size, weight_decay):
        rng = np.random.default_rng(size)
        net = Network([Linear(size, 1, rng=rng)])  # a (1, size) weight and a (1,) bias
        cfg = TrainConfig(lr=0.01, optimizer="adamw", weight_decay=weight_decay)
        opt = Optimizer(net, cfg)
        want = {name: (param, np.zeros(param.shape), np.zeros(param.shape))
                for name, _, _, param in net.named_params()}
        for step in range(1, 6):
            lr = cfg.lr / step
            grads = {name: rng.standard_normal(p.shape) * 10.0 ** (step - 3)
                     for name, (p, _, _) in want.items()}
            old = {}
            for name, _, _, param in net.named_params():
                param.flags.writeable = False  # as a checkpoint's own array
                old[name] = (param, param.copy())
            opt.step(GradientBundle(grads), lr)
            for name, _, _, param in net.named_params():
                p, m, v = want[name]
                # the parent formula, one whole-array temporary per operator
                m = cfg.adam_beta1 * m + (1 - cfg.adam_beta1) * grads[name]
                v = cfg.adam_beta2 * v + (1 - cfg.adam_beta2) * grads[name] * grads[name]
                mhat = m / (1 - cfg.adam_beta1 ** step)
                vhat = v / (1 - cfg.adam_beta2 ** step)
                p = p - lr * cfg.weight_decay * p - lr * mhat / (np.sqrt(vhat) + cfg.adam_eps)
                want[name] = (p, m, v)
                assert param is not old[name][0]
                assert np.array_equal(old[name][0], old[name][1])
                assert np.array_equal(param, p), (name, step)
                assert np.array_equal(opt.m[name], m) and np.array_equal(opt.v[name], v)

    def test_clip_and_step_returns_clipped_bundle(self):
        net = Network([Linear(1, 1, bias=False)])
        g = GradientBundle({"0.weight": np.array([[10.0]])})
        cfg = TrainConfig(clip_norm=1.0)
        opt = Optimizer(net, cfg)
        out = clip_and_step(g, cfg, opt, cfg.lr)
        assert abs(out.global_norm - 1.0) < 1e-12
        assert opt.step_count == 1  # the caller's optimizer, not a fresh one

    def test_nonfinite_gradient_rejected(self):
        net = Network([Linear(1, 1, bias=False)])
        net.layers[0].grads = {"weight": np.array([[np.inf]])}
        with pytest.raises(NumericError):
            collect_gradients(net)

    def test_nan_gradient_is_named_not_blamed_on_an_overflow(self):
        with pytest.raises(NumericError, match=r"^non-finite gradient for parameter p$"):
            GradientBundle({"p": np.array([np.nan])})
        # the first tensor, in key order, that holds a non-finite entry
        tensors = {"q": np.ones(3), "p": np.array([1.0, -np.inf]), "r": np.array([np.nan])}
        with pytest.raises(NumericError, match=r"^non-finite gradient for parameter p$"):
            GradientBundle(tensors)

    def test_missing_gradient_is_reported_before_an_earlier_nonfinite_one(self):
        net = Network([Linear(1, 1, bias=False), Linear(1, 1, bias=False)])
        net.layers[0].grads = {"weight": np.array([[np.nan]])}
        with pytest.raises(NumericError, match="missing gradient for parameter 1.weight"):
            collect_gradients(net)

    def test_missing_gradient_rejected(self):
        net = Network([Linear(1, 1, bias=False)])  # no backward, so no gradient
        with pytest.raises(NumericError, match="missing gradient for parameter 0.weight"):
            collect_gradients(net)

    def test_nonfinite_loss_stops_training(self):
        net = Network([Linear(2, 2, rng=np.random.default_rng(0))])
        x, y = np.full((1, 4, 2), np.nan), np.zeros(4, dtype=np.int64)
        with pytest.raises(NumericError, match="non-finite loss at epoch 0"):
            train(net, (x, y), (x, y), TrainConfig(epochs=1, batch_size=4))


@pytest.mark.parametrize("bad,message", [
    (-1, "label -1 is negative"),
    (0.5, r"labels must be integer class indices, not float64: got \[.*\]"),
])
def test_train_refuses_labels_that_name_no_class(bad, message):
    # a negative label would read a column counted from the end, a
    # non-integer one would index nothing
    cfg = parse_runconfig(default_xor_document())
    ds = build_dataset(cfg.dataset)
    train_y = np.where(np.arange(ds.train_y.size) == 3, bad, ds.train_y)
    with pytest.raises(DataError, match=message):
        train(build_network(cfg), (ds.train_x, train_y), (ds.test_x, ds.test_y), cfg.train)


class TestManualChainRule:
    def test_two_by_two_head_gradient(self):
        """Single float linear + relaxed LIF, T=1: gradient of the summed
        output w.r.t. the weight is checked against the pencil-and-paper
        chain  d out / d W = sig'(k (u - v_th)) * (x / tau)."""
        lif_cfg = LifConfig()
        lin = Linear(2, 2, bias=False)
        lin.params["weight"] = np.array([[0.8, -0.4], [0.2, 0.6]])
        net = Network([lin, RelaxedLIF(lif_cfg)])
        x = np.array([[[1.0, 1.0]]])  # (T=1, B=1, 2)
        net.forward(x, training=True)
        net.backward(np.ones((1, 2)))

        u = x[0, 0] @ lin.params["weight"].T / lif_cfg.tau
        k = lif_cfg.sg_scale_neuron
        sig = 1 / (1 + np.exp(-k * (u - lif_cfg.v_threshold)))
        ds = k * sig * (1 - sig)
        want = np.outer(ds, x[0, 0] / lif_cfg.tau)
        assert np.allclose(lin.grads["weight"], want, rtol=1e-12)


class TestBoundedness:
    def test_states_and_gradients_stay_finite(self):
        rng = np.random.default_rng(31)
        cfg = QuantConfig(timesteps=4)
        i = rng.uniform(-np.sqrt(6 / 16), np.sqrt(6 / 16), size=(8, 16))
        for _ in range(1000):
            i_n = normalize_stimulus(i, cfg.epsilon)
            st = tawq_forward(i_n, cfg)
            assert np.all(np.abs(st.c_s) <= np.abs(i_n).max() + 1e-12)
            up = rng.standard_normal(st.w_q.shape) * 0.01
            g = normalize_backward(tawq_backward(up, st), i_n, i, cfg.epsilon)
            assert np.all(np.isfinite(g))
            bundle = GradientBundle({"i": g}).clipped(1.0)
            i = i - 0.01 * bundle.tensors["i"]
        assert np.all(np.isfinite(i))
