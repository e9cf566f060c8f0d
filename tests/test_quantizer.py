"""Quantizer recurrence, normalization, and scaling-factor behavior.

The scalar-loop reference below re-implements the recurrence one element
at a time with plain Python floats, in the same floating-point order as
the vectorized code, so comparisons can demand bitwise equality.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from tawq.errors import ConfigError, NumericError, ShapeError
from tawq.quantizer import (
    BLOCK,
    QuantConfig,
    compute_scaling,
    compute_scaling_all,
    normalize_stimulus,
    surrogate_grad,
    tawq_backward,
    tawq_forward,
)


def scalar_recurrence(i: float, cfg: QuantConfig):
    """Element-at-a-time reference for the quantizer recurrence."""
    c, w = 0.0, 0.0
    cs, ws = [0.0], []
    for _ in range(cfg.timesteps):
        if cfg.temporal:
            c = cfg.lam * c * (1.0 - abs(w) / cfg.n_level) + (1.0 - cfg.lam) * i
        else:
            c = i
        if cfg.n_level == 1:
            w = 1.0 if c > cfg.c_th else (-1.0 if c < -cfg.c_th else 0.0)
        else:
            clipped = min(max(c, -float(cfg.n_level)), float(cfg.n_level))
            w = math.copysign(math.floor(abs(clipped) + 0.5), clipped) if clipped else 0.0
        cs.append(c)
        ws.append(w)
    return cs, ws


def emit(c, c_th=0.25, n_level=1):
    """The recurrence's weight emitter applied to ``c``: one memoryless step."""
    cfg = QuantConfig(timesteps=1, temporal=False, c_th=c_th, n_level=n_level)
    return tawq_forward(np.asarray(c, dtype=np.float64), cfg).w_q[0]


class TestNormalization:
    def test_constant_input_collapses_to_zero(self):
        out = normalize_stimulus(np.array([1.0, 1.0, 1.0, 1.0]), 1e-5)
        assert np.allclose(out, 0.0)

    def test_symmetric_pair_is_fixed_point(self):
        out = normalize_stimulus(np.array([-1.0, 1.0]), 1e-12)
        assert np.allclose(out, [-1.0, 1.0], atol=1e-6)

    def test_arange_example(self):
        out = normalize_stimulus(np.array([0.0, 1.0, 2.0, 3.0]), 1e-5)
        expect = [-1.3416, -0.4472, 0.4472, 1.3416]
        assert np.allclose(out, expect, atol=1e-3)

    def test_population_std_convention(self):
        x = np.arange(10.0)
        out = normalize_stimulus(x, 1e-12)
        assert abs(out.var() - 1.0) < 1e-6

    def test_empty_tensor_rejected(self):
        with pytest.raises(ShapeError):
            normalize_stimulus(np.array([]), 1e-5)

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            normalize_stimulus(np.ones(3), 0.0)


class TestTernary:
    def test_upper_branch(self):
        assert emit(0.30) == 1.0

    def test_dead_zone(self):
        assert emit(0.0) == 0.0

    def test_lower_branch(self):
        assert emit(-0.50) == -1.0

    def test_boundary_maps_to_zero(self):
        # strict inequality at |c| == threshold
        assert emit(0.25) == 0.0
        assert emit(-0.25) == 0.0


class TestMultibit:
    def test_clamp_bound(self):
        assert emit(2.7, n_level=2) == 2.0

    def test_rounds_to_zero(self):
        assert emit(-0.4, n_level=4) == 0.0

    def test_tie_rounds_away_from_zero(self):
        assert emit(1.5, n_level=4) == 2.0
        assert emit(-1.5, n_level=4) == -2.0


class TestRecurrence:
    def test_constant_fire_trace(self):
        # i_norm = 0.6: fires every step, carry term vanishes while firing
        st = tawq_forward(np.array(0.6), QuantConfig(timesteps=4))
        assert np.allclose(st.c_s[1:], 0.3)
        assert np.array_equal(st.w_q, np.full((4,), 1.0).reshape(4))

    def test_period_three_accumulate_fire_trace(self):
        st = tawq_forward(np.array(0.3), QuantConfig(timesteps=6))
        assert np.allclose(st.c_s[1:], [0.15, 0.225, 0.2625, 0.15, 0.225, 0.2625])
        assert np.array_equal(st.w_q.ravel(), [0, 0, 1, 0, 0, 1])

    def test_zero_stimulus_fixed_point(self):
        st = tawq_forward(np.zeros((3, 3)), QuantConfig(timesteps=8))
        assert not st.c_s.any()
        assert not st.w_q.any()

    def test_initial_state_is_zero(self):
        st = tawq_forward(np.array(0.6), QuantConfig(timesteps=2))
        assert st.c_s[0] == 0.0
        assert st.c_s.shape == (3,)
        assert st.w_q.shape == (2,)

    def test_sign_property_on_grid(self):
        grid = np.linspace(-3.0, 3.0, 2001)
        for n in (1, 2, 4):
            st = tawq_forward(grid, QuantConfig(timesteps=8, n_level=n))
            assert np.all(st.w_q * grid >= 0.0)

    def test_reset_after_fire(self):
        # whenever a ternary weight fires, the next state restarts from (1-lam)*i
        rng = np.random.default_rng(7)
        i = rng.uniform(-2, 2, size=200)
        cfg = QuantConfig(timesteps=8)
        st = tawq_forward(i, cfg)
        for t in range(cfg.timesteps - 1):
            fired = st.w_q[t] != 0
            assert np.array_equal(st.c_s[t + 2][fired], ((1 - cfg.lam) * i)[fired])

    def test_non_finite_stimulus_rejected(self):
        with pytest.raises(NumericError):
            tawq_forward(np.array([np.nan]), QuantConfig())

    def test_memoryless_mode_repeats_first_decision(self):
        i = np.linspace(-2, 2, 101)
        st = tawq_forward(i, QuantConfig(timesteps=4, temporal=False))
        first = emit(i)
        for t in range(4):
            assert np.array_equal(st.w_q[t], first)

    def test_vectorized_matches_scalar_loop_bitwise(self):
        rng = np.random.default_rng(11)
        for T in (1, 2, 4, 8):
            for n in (1, 2, 4, 8):
                cfg = QuantConfig(timesteps=T, n_level=n)
                i = rng.uniform(-2.5, 2.5, size=(2, 3))
                st = tawq_forward(i, cfg)
                for idx in np.ndindex(i.shape):
                    cs, ws = scalar_recurrence(float(i[idx]), cfg)
                    for t in range(T + 1):
                        assert st.c_s[(t,) + idx] == cs[t]
                    for t in range(T):
                        assert st.w_q[(t,) + idx] == ws[t]


def _patterns(w_q: np.ndarray) -> list[str]:
    return ["".join(str(int(w)) for w in col) for col in w_q.reshape(len(w_q), -1).T]


class TestPeriodLaw:
    """Ternary temporal weights are a period code (the `quantizer` module
    docstring): w_q[t - 1] = sign(i) * [k divides t], k the first firing
    step, and k falls as |i| grows."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(lam=strategies.floats(1e-6, 1 - 1e-6), c_th=strategies.floats(1e-3, 10.0),
           timesteps=strategies.integers(1, 16),
           stimuli=strategies.lists(strategies.floats(-20.0, 20.0), max_size=8))
    def test_first_firing_step_sets_every_firing(self, lam, c_th, timesteps, stimuli):
        # each c_th / (1 - lam^k) and the two floats on either side of it, of both signs
        breaks = c_th / (1.0 - lam ** np.arange(1.0, timesteps + 1))
        near = (breaks.view(np.int64)[:, None] + np.arange(-2, 3)).view(np.float64).ravel()
        i = np.concatenate([near, -near, stimuli])
        w_q = tawq_forward(i, QuantConfig(lam=lam, c_th=c_th, timesteps=timesteps)).w_q
        fired = w_q != 0
        k = np.where(fired.any(axis=0), fired.argmax(axis=0) + 1, timesteps + 1)
        t = np.arange(1, timesteps + 1)[:, None]
        assert np.array_equal(w_q, np.sign(i) * (t % k == 0))
        assert np.all(np.diff(k[np.argsort(np.abs(i), kind="stable")]) <= 0)

    def test_default_breakpoints_and_patterns(self):
        # the least stimulus of each period k = 4, 3, 2, 1 at lam 0.5, c_th 0.25,
        # T 4: 1, 2, 2 and 1 ulps above c_th / (1 - lam^k), as the float recurrence
        # rounds; one ulp below, the next longer period
        breaks = np.array([0.2666666666666667, 0.2857142857142858, 0.3333333333333334,
                           0.5000000000000001])
        exact = 0.25 / (1 - 0.5 ** np.arange(4, 0, -1))
        assert (breaks.view(np.int64) - exact.view(np.int64)).tolist() == [1, 2, 2, 1]
        assert _patterns(tawq_forward(breaks, QuantConfig()).w_q) == [
            "0001", "0010", "0101", "1111"]
        assert _patterns(tawq_forward(np.nextafter(breaks, 0), QuantConfig()).w_q) == [
            "0000", "0001", "0010", "0101"]


class TestConfig:
    def test_bit_widths(self):
        for n, bits in ((1, 1.58), (2, 2.32), (4, 3.17), (8, 4.09)):
            assert round(QuantConfig(n_level=n).bit_width, 2) == bits

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ConfigError):
            QuantConfig(lam=1.0)
        with pytest.raises(ConfigError):
            QuantConfig(c_th=0.0)
        with pytest.raises(ConfigError):
            QuantConfig(n_level=0)
        with pytest.raises(ConfigError):
            QuantConfig(timesteps=0)
        with pytest.raises(ConfigError):
            QuantConfig(epsilon=-1.0)


class TestSurrogate:
    def test_value_at_origin(self):
        g = surrogate_grad(np.array(0.0), QuantConfig())
        # symmetric arguments collapse to a single sigmoid derivative
        s = 1 / (1 + math.exp(-1.0))
        assert abs(float(g) - s * (1 - s)) < 1e-12
        assert abs(float(g) - 0.19661) < 1e-5

    def test_value_at_threshold(self):
        g = float(surrogate_grad(np.array(0.25), QuantConfig()))
        s2 = 1 / (1 + math.exp(-2.0))
        assert abs(g - 0.5 * (s2 * (1 - s2) + 0.25)) < 1e-12
        assert abs(surrogate_grad(np.array(-0.25), QuantConfig()) - g) < 1e-15

    def test_below_one_everywhere(self):
        grid = np.linspace(-5, 5, 10001)
        assert np.all(surrogate_grad(grid, QuantConfig()) < 1.0)

    def test_chain_factor_flag_scales(self):
        base = surrogate_grad(np.array(0.1), QuantConfig())
        alt = surrogate_grad(np.array(0.1), QuantConfig(sg_chain_factor=True))
        assert abs(float(alt) - 4.0 * float(base)) < 1e-15

    def test_multibit_window_indicator(self):
        cfg = QuantConfig(n_level=2)
        assert surrogate_grad(np.array(0.5), cfg) == 1.0
        assert surrogate_grad(np.array(2.5), cfg) == 0.0


class TestScaling:
    def test_dense_channel_is_identity(self):
        assert compute_scaling(np.array([[1, -1, 1, -1]])) == [1.0]

    def test_half_sparse_channel_doubles(self):
        assert compute_scaling(np.array([[1, 0, -1, 0]])) == [2.0]

    def test_all_zero_channel_gets_zero(self):
        assert compute_scaling(np.zeros((1, 4))) == [0.0]

    def test_reciprocal_law(self):
        rng = np.random.default_rng(3)
        w = rng.integers(-1, 2, size=(16, 24)).astype(float)
        alpha = compute_scaling(w)
        mean_abs = np.abs(w).mean(axis=1)
        nz = mean_abs > 0
        assert np.allclose(alpha[nz] * mean_abs[nz], 1.0)

    def test_stacked_shape(self):
        st = tawq_forward(np.random.default_rng(0).uniform(-2, 2, (5, 7)),
                          QuantConfig(timesteps=4))
        assert compute_scaling_all(st).shape == (4, 5)


class TestInvariants:
    """Randomized property checks, >= 1e3 cases each."""

    N_CASES = 2000

    def test_ternary_range(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 4, 8):
            i = rng.uniform(-4, 4, size=(self.N_CASES,))
            st = tawq_forward(i, QuantConfig(timesteps=4, n_level=n))
            assert np.all(np.abs(st.w_q) <= n)
            assert np.array_equal(st.w_q, np.round(st.w_q))

    def test_sign_consistency(self):
        rng = np.random.default_rng(22)
        for n in (1, 3):
            i = rng.uniform(-4, 4, size=(self.N_CASES,))
            st = tawq_forward(i, QuantConfig(timesteps=8, n_level=n))
            assert np.all(st.w_q * np.sign(i) >= 0.0)

    def test_state_bounded_by_stimulus_magnitude(self):
        rng = np.random.default_rng(23)
        i = rng.uniform(-4, 4, size=(self.N_CASES,))
        st = tawq_forward(i, QuantConfig(timesteps=16))
        assert np.all(np.abs(st.c_s) <= np.abs(i).max() + 1e-12)

    @pytest.mark.parametrize("temporal", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_huge_finite_stimulus_keeps_state_finite_and_bounded(self, n, temporal):
        # tawq_forward checks only its input for finiteness: the carried
        # state can never leave [-max|i_norm|, max|i_norm|]
        rng = np.random.default_rng(25)
        i = rng.uniform(-4, 4, size=(self.N_CASES,))
        i[:6] = (1e300, -1e300, 1.7e300, -1.7e300, np.finfo(float).max, 0.5)
        st = tawq_forward(i, QuantConfig(timesteps=8, n_level=n, temporal=temporal))
        assert np.all(np.isfinite(st.c_s))
        assert np.all(np.abs(st.c_s) <= np.abs(i).max())

    def test_alpha_reciprocal_over_random_states(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            i = rng.uniform(-3, 3, size=(8, 25))
            st = tawq_forward(i, QuantConfig(timesteps=4))
            alpha = compute_scaling_all(st)
            for t in range(4):
                mean_abs = np.abs(st.w_q[t]).mean(axis=1)
                nz = mean_abs > 0
                assert np.allclose(alpha[t][nz] * mean_abs[nz], 1.0, atol=1e-12)
                assert np.all(alpha[t][~nz] == 0.0)


# Exactness of the in-place kernels: the recurrence, its surrogate and its
# reverse pass must reproduce, under np.array_equal, the plain vectorized
# formulas below, and must leave their inputs untouched.

def ref_sigmoid_deriv(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 - s)


def ref_surrogate(c_s, cfg):
    if cfg.n_level > 1:
        return np.where((c_s > -cfg.n_level) & (c_s < cfg.n_level), 1.0, 0.0)
    k = cfg.sg_scale
    g = 0.5 * (ref_sigmoid_deriv(k * (c_s + cfg.c_th)) + ref_sigmoid_deriv(k * (c_s - cfg.c_th)))
    return g * k if cfg.sg_chain_factor else g


def ref_forward(i_norm, cfg):
    T, n = cfg.timesteps, cfg.n_level
    c_s, w_q = np.zeros((T + 1,) + i_norm.shape), np.zeros((T,) + i_norm.shape)
    w_prev = np.zeros_like(i_norm)
    for t in range(T):
        if cfg.temporal:
            c = cfg.lam * c_s[t] * (1.0 - np.abs(w_prev) / n) + (1.0 - cfg.lam) * i_norm
        else:
            c = i_norm
        c_s[t + 1] = c
        if n == 1:
            w_prev = np.where(c > cfg.c_th, 1.0, np.where(c < -cfg.c_th, -1.0, 0.0))
        else:
            c = np.clip(c, -n, n)
            w_prev = np.sign(c) * np.floor(np.abs(c) + 0.5)
        w_q[t] = w_prev
    return c_s, w_q


def ref_backward(upstream, i_norm, c_s, w_q, cfg):
    if not cfg.temporal:
        return upstream.sum(axis=0) * ref_surrogate(i_norm, cfg)
    lam, n = cfg.lam, cfg.n_level
    grad_i, carry = np.zeros_like(i_norm), np.zeros_like(i_norm)
    for t in range(cfg.timesteps, 0, -1):
        g_c = upstream[t - 1] * ref_surrogate(c_s[t], cfg) + carry
        grad_i += g_c * (1.0 - lam)
        if t > 1:
            w_prev = w_q[t - 2]
            carry = g_c * (lam * (1.0 - np.abs(w_prev) / n)
                           - lam * c_s[t - 1] * np.sign(w_prev) / n
                           * ref_surrogate(c_s[t - 1], cfg))
    return grad_i


EXACT_CONFIGS = {
    "ternary": QuantConfig(),
    "ternary_lam_0.3": QuantConfig(lam=0.3, c_th=0.3, sg_scale=3.0, timesteps=6),
    "n_level_2": QuantConfig(n_level=2, lam=0.1),
    "n_level_3": QuantConfig(n_level=3, lam=0.3, timesteps=6),
    "memoryless": QuantConfig(temporal=False),
    "memoryless_n2": QuantConfig(temporal=False, n_level=2),
    "chain_factor": QuantConfig(sg_chain_factor=True, sg_scale=3.0, lam=0.7),
    "one_step": QuantConfig(timesteps=1),
}


class TestInPlaceKernelsExact:
    # one block, a 0-d stimulus, and stimuli spanning several blocks with a
    # ragged last one
    @pytest.mark.parametrize("shape", [(24, 16), (), (3 * BLOCK + 5,), (300, 170)])
    @pytest.mark.parametrize("name", sorted(EXACT_CONFIGS))
    def test_forward_backward_surrogate(self, name, shape):
        cfg = EXACT_CONFIGS[name]
        rng = np.random.default_rng(41)
        scale = 2.0 * cfg.n_level
        i = normalize_stimulus(rng.standard_normal(shape or (24, 16)), 1e-5) * scale
        if shape == ():
            i = np.array(i[0, 0])
        upstream = rng.standard_normal((cfg.timesteps,) + i.shape)
        i0, up0 = i.copy(), upstream.copy()
        st = tawq_forward(i, cfg)
        want_c, want_w = ref_forward(i0, cfg)
        assert np.array_equal(st.c_s, want_c) and np.array_equal(st.w_q, want_w)
        c0, w0 = st.c_s.copy(), st.w_q.copy()
        assert np.array_equal(surrogate_grad(st.c_s, cfg), ref_surrogate(want_c, cfg))
        got = tawq_backward(upstream, st)
        assert np.array_equal(got, ref_backward(up0, i0, want_c, want_w, cfg))
        for arr, orig in ((i, i0), (upstream, up0), (st.c_s, c0), (st.w_q, w0)):
            assert np.array_equal(arr, orig)

    def test_quantize_helpers_match_reference(self):
        c = np.random.default_rng(42).uniform(-4, 4, size=200)
        c[:4] = (0.25, -0.25, 2.5, -2.5)
        c0 = c.copy()
        assert np.array_equal(emit(c),
                              np.where(c > 0.25, 1.0, np.where(c < -0.25, -1.0, 0.0)))
        clipped = np.clip(c, -3, 3)
        assert np.array_equal(emit(c, n_level=3),
                              np.sign(clipped) * np.floor(np.abs(clipped) + 0.5))
        assert np.array_equal(c, c0)
