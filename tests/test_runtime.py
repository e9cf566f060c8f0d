"""Packed inference: ternary codec, accumulate-only kernels, parameter
folding, and folded-vs-unfolded equivalence on a trained toy network."""

import numpy as np
import pytest

from conftest import run_document, three_layer_document
from tawq.errors import ConfigError, DataError, ShapeError, StateError
from tawq.layers import LIF, BatchNorm, Flatten, LifConfig, Linear, Network, QuantLinear
from tawq.quantizer import QuantConfig
from tawq.runconfig import build_network, default_xor_document, parse_runconfig
from tawq.runtime import (
    FoldedBlock,
    PackedTernaryTensor,
    ac_only_matmul,
    fold_network,
    fold_parameters,
    folded_forward,
    pack_ternary,
    unpack_ternary,
)


class TestTernaryCodec:
    def test_single_byte_example(self):
        packed = pack_ternary(np.array([0, 1, -1, 0]))
        assert packed.codes == bytes([0x24])

    def test_all_zero_tensor(self):
        packed = pack_ternary(np.zeros(8))
        assert packed.codes == bytes([0x00, 0x00])

    def test_round_trip_many(self):
        rng = np.random.default_rng(41)
        for _ in range(1500):
            shape = tuple(rng.integers(1, 7, size=rng.integers(1, 4)))
            w = rng.integers(-1, 2, size=shape).astype(float)
            assert np.array_equal(unpack_ternary(pack_ternary(w)), w)

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            pack_ternary(np.array([0, 2]))

    def test_invalid_code_rejected(self):
        bad = PackedTernaryTensor(codes=bytes([0b11]), shape=(1,))
        with pytest.raises(DataError):
            unpack_ternary(bad)

    def test_padding_is_ignored(self):
        w = np.array([1.0, -1.0, 1.0])  # 3 weights, 1 padded lane
        assert np.array_equal(unpack_ternary(pack_ternary(w)), w)


class TestAcOnlyMatmul:
    def test_count_difference(self):
        packed = pack_ternary(np.array([[1, 1, -1]]))
        out = ac_only_matmul([packed], np.array([[[1, 1, 1]]]))
        assert out[0, 0, 0] == 1

    def test_zero_spikes(self):
        packed = pack_ternary(np.array([[1, -1, 0, 1]]))
        assert not ac_only_matmul([packed], np.zeros((1, 3, 4))).any()

    def test_matches_float_oracle_64_wide(self):
        rng = np.random.default_rng(43)
        w = rng.integers(-1, 2, size=(5, 64)).astype(float)
        s = (rng.random((7, 64)) < 0.4).astype(float)
        got = ac_only_matmul([pack_ternary(w)], s[None])[0]
        assert np.array_equal(got, (s @ w.T).astype(np.int64))

    def test_matches_float_oracle_random_shapes(self):
        rng = np.random.default_rng(44)
        for _ in range(1000):
            c_o = int(rng.integers(1, 9))
            c_i = int(rng.integers(1, 33))
            b = int(rng.integers(1, 5))
            w = rng.integers(-1, 2, size=(c_o, c_i)).astype(float)
            s = (rng.random((b, c_i)) < 0.5).astype(float)
            got = ac_only_matmul([pack_ternary(w)], s[None])[0]
            assert np.array_equal(got, (s @ w.T).astype(np.int64))

    def test_nonbinary_spikes_rejected(self):
        packed = pack_ternary(np.array([[1, 0]]))
        with pytest.raises(DataError):
            ac_only_matmul([packed], np.array([[[0.5, 1.0]]]))

    def test_width_mismatch_rejected(self):
        packed = pack_ternary(np.array([[1, 0]]))
        with pytest.raises(ShapeError):
            ac_only_matmul([packed], np.ones((1, 1, 3)))

    def test_non_matrix_rejected(self):
        with pytest.raises(ShapeError, match="expected a packed matrix"):
            ac_only_matmul([pack_ternary(np.zeros((2, 2, 2)))], np.zeros((1, 1, 2)))

    def test_wrong_rank_gets_its_own_message(self):
        packed = [pack_ternary(np.array([[1, 0]]))] * 4
        with pytest.raises(ShapeError, match=r"expected a \(T, B, C_i\) input, "
                                             r"got shape \(4, 1, 2, 1\)"):
            ac_only_matmul(packed, np.zeros((4, 1, 2, 1)))

    def test_timestep_message_is_the_quantized_layers(self):
        # the folded block and the layer it replaces refuse a wrong T alike
        q = QuantLinear(2, 1, QuantConfig(timesteps=4), rng=np.random.default_rng(0))
        with pytest.raises(ShapeError) as unfolded:
            q.infer(np.zeros((7, 1, 2)))
        with pytest.raises(ShapeError) as folded:
            ac_only_matmul([pack_ternary(np.array([[1, 0]]))] * 4, np.zeros((7, 1, 2)))
        assert str(folded.value) == str(unfolded.value) == (
            "expected 4 timesteps, got input with 7")

    def test_fan_in_beyond_float32_exactness_rejected(self):
        # refused from the shape alone, before the (empty) payload is decoded
        with pytest.raises(ShapeError, match="2\\^24"):
            ac_only_matmul([PackedTernaryTensor(b"", (1, 1 << 24))], np.zeros((1, 1, 1)))


class TestAcOnlyMatmulOverTime:
    """One call accumulates every timestep of a block, each against its own
    matrix; through `folded_forward` each refusal names the block's layer."""

    def test_equals_int64_oracle_per_timestep(self):
        rng = np.random.default_rng(46)
        w = rng.integers(-1, 2, size=(4, 7, 33))
        s = (rng.random((4, 5, 33)) < 0.4).astype(np.float64)
        assert all(not np.array_equal(w[0], w[t]) for t in range(1, 4))
        got = ac_only_matmul([pack_ternary(w[t]) for t in range(4)], s)
        want = np.stack([s[t].astype(np.int64) @ w[t].T for t in range(4)])
        assert got.dtype == np.float32 and got.shape == (4, 5, 7)
        assert np.array_equal(got, want)

    @staticmethod
    def _plan(rng):
        net = Network([QuantLinear(6, 8, QuantConfig(timesteps=4), rng=rng), BatchNorm(8),
                       LIF(), Linear(8, 2, rng=rng)])
        return fold_network(net)

    def test_graded_spikes_refused(self):
        rng = np.random.default_rng(47)
        x = (rng.random((4, 5, 6)) < 0.5) * 1.0
        x[2, 3, 1] = 0.5
        with pytest.raises(DataError, match=r"layer 0 \(qlinear\): spikes must be binary"):
            folded_forward(self._plan(rng), x)

    def test_packed_count_unlike_timesteps_refused(self):
        rng = np.random.default_rng(48)
        plan = self._plan(rng)
        del plan[0].packed[-1]
        with pytest.raises(ShapeError, match=r"layer 0 \(qlinear\): expected 3 timesteps"):
            folded_forward(plan, np.zeros((4, 5, 6)))

    def test_width_mismatch_refused(self):
        rng = np.random.default_rng(49)
        with pytest.raises(ShapeError, match=r"layer 0 \(qlinear\): spike width 5"):
            folded_forward(self._plan(rng), np.zeros((4, 3, 5)))

    @pytest.mark.parametrize("run", [folded_forward, lambda plan, x: Network(plan).infer(x)],
                             ids=["folded_forward", "Network.infer"])
    def test_float_layer_after_a_block_names_its_unfolded_index(self, run):
        rng = np.random.default_rng(51)
        plan = self._plan(rng)
        plan[-1] = Linear(9, 2, rng=rng)
        x = (rng.random((4, 5, 6)) < 0.5) * 1.0
        with pytest.raises(ShapeError,
                           match=r"layer 3 \(linear\): input width 8 != weight width 9"):
            run(plan, x)


def _leading_float_net(first: str):
    """A net whose folded plan starts with float layers that `infer` runs in
    place, then a foldable block and a float head, with a graded input."""
    rng = np.random.default_rng(50)
    quant = QuantConfig(timesteps=4)
    lead = {"bn": [BatchNorm(6), LIF()], "lif": [LIF()],
            "flatten": [Flatten(), BatchNorm(6), LIF()]}[first]
    net = Network([*lead, QuantLinear(6, 8, quant, rng=rng), BatchNorm(8), LIF(),
                   Linear(8, 2, rng=rng)])
    shape = (4, 5, 6, 1, 1) if first == "flatten" else (4, 5, 6)
    x = rng.standard_normal(shape) * 2 + 1
    for layer in net.layers:
        if isinstance(layer, BatchNorm):
            layer.running_mean = rng.uniform(-1.0, 1.0, layer.channels)
            layer.running_var = rng.uniform(0.5, 2.0, layer.channels)
    return net, x


class TestFoldedForwardOwnsItsBuffers:
    @pytest.mark.parametrize("first", ["bn", "lif", "flatten"])
    def test_caller_input_unchanged(self, first):
        net, x = _leading_float_net(first)
        x0 = x.copy()
        plan = fold_network(net)
        assert sum(isinstance(item, FoldedBlock) for item in plan) == 1
        logits, membranes = folded_forward(plan, x, record_membranes=True)
        assert np.array_equal(x, x0)
        unfolded = net.forward(x, training=False)
        lif = len(net.layers) - 2
        assert np.max(np.abs(membranes[0] - net.layers[lif].cache["u"])) <= 1e-12
        assert np.array_equal(logits.argmax(axis=1), unfolded.argmax(axis=1))

    @pytest.mark.parametrize("first", ["bn", "lif", "flatten"])
    def test_unfolded_plan_leaves_input_and_equals_forward(self, first):
        # `tawq infer --unfolded` runs the network's own layers through
        # the same cache-free interpreter as a folded plan
        net, x = _leading_float_net(first)
        x0 = x.copy()
        logits = Network(net.layers).infer(x)
        assert np.array_equal(x, x0)
        assert np.array_equal(logits, net.forward(x, training=False))

    @pytest.mark.parametrize("first", ["bn", "lif", "flatten"])
    def test_layer_caches_left_as_they_were(self, first):
        net, x = _leading_float_net(first)
        plan = fold_network(net)
        net.forward(x[:, :2], training=False)
        caches = [(layer.cache, dict(layer.cache)) for layer in net.layers]
        folded_forward(plan, x)
        for layer, (cache, items) in zip(net.layers, caches):
            assert layer.cache is cache
            assert all(cache[k] is v for k, v in items.items()) and cache.keys() == items.keys()


class TestFoldParameters:
    def test_direct_substitution(self):
        lif = LifConfig(tau=2.0)
        eps = 1e-5
        rho, delta = fold_parameters(alpha=np.ones((1, 3)), gamma=np.ones(3),
                                     beta=np.zeros(3), mu=np.zeros(3),
                                     sigma2=np.full(3, 1.0 - eps), eps=eps, lif=lif)
        assert np.allclose(rho, 0.5)
        assert np.allclose(delta, 0.0)

    def test_zero_alpha_propagates(self):
        lif = LifConfig()
        alpha = np.array([[0.0, 2.0]])
        rho, _ = fold_parameters(alpha, np.ones(2), np.zeros(2), np.zeros(2),
                                 np.ones(2), 1e-5, lif)
        assert rho[0, 0] == 0.0

    def test_negative_variance_rejected(self):
        with pytest.raises(ConfigError):
            fold_parameters(np.ones((1, 1)), np.ones(1), np.zeros(1),
                            np.zeros(1), np.array([-1.0]), 1e-6, LifConfig())

    @pytest.mark.parametrize("alpha,beta", [(np.inf, 0.0), (1.0, np.nan)],
                             ids=["infinite-alpha", "nan-beta"])
    def test_nonfinite_parameters_rejected(self, alpha, beta):
        with pytest.raises(ConfigError, match="non-finite folded parameters"):
            fold_parameters(np.full((1, 1), alpha), np.ones(1), np.full(1, beta),
                            np.zeros(1), np.ones(1), 1e-5, LifConfig())


@pytest.fixture(scope="module")
def trained():
    net, ds, _ = run_document(three_layer_document(seed=0, epochs=15))
    return net, ds


class TestFoldedForward:
    def test_membrane_traces_match(self, trained):
        net, ds = trained
        x = ds.test_x[:, :100]
        net.forward(x, training=False)
        lif_trace = net.layers[5].cache["u"]
        plan = fold_network(net)
        _, membranes = folded_forward(plan, x, record_membranes=True)
        assert len(membranes) == 1
        assert np.max(np.abs(membranes[0] - lif_trace)) <= 1e-5

    def test_argmax_predictions_identical(self, trained):
        net, ds = trained
        x = ds.test_x[:, :100]
        unfolded = net.forward(x, training=False)
        folded = folded_forward(fold_network(net), x)
        assert np.array_equal(folded.argmax(axis=1), unfolded.argmax(axis=1))

    def test_repeated_runs_identical(self, trained):
        net, ds = trained
        plan = fold_network(net)
        a = folded_forward(plan, ds.test_x)
        b = folded_forward(plan, ds.test_x)
        assert np.array_equal(a, b)

    def test_never_run_network_folds(self, trained):
        # fold_network materializes the weights itself, so a net that has
        # never run folds as a trained or reloaded one does
        _, ds = trained
        fresh = build_network(parse_runconfig(three_layer_document()))
        x = ds.test_x[:, :100]
        _, membranes = folded_forward(fold_network(fresh), x, record_membranes=True)
        fresh.forward(x, training=False)
        assert np.max(np.abs(membranes[0] - fresh.layers[5].cache["u"])) <= 1e-12

    def test_nonbinary_input_rejected(self):
        # a folded block accumulates spikes only; graded input must be refused,
        # not truncated to zero
        quant = QuantConfig(timesteps=4)
        net = Network([QuantLinear(6, 8, quant, rng=np.random.default_rng(1)),
                       BatchNorm(8), LIF(), Linear(8, 2, rng=np.random.default_rng(2))])
        x = np.where(np.random.default_rng(3).random((4, 5, 6)) < 0.5, 0.3, 0.9)
        net.forward(x, training=True)
        with pytest.raises(DataError, match="binary"):
            folded_forward(fold_network(net), x)

    def test_fold_follows_stimulus_update(self):
        # a stimulus replaced after the last forward pass, as an optimizer
        # step does, must be what the plan packs and folds
        rng = np.random.default_rng(5)
        net = Network([QuantLinear(6, 8, QuantConfig(), rng=rng), BatchNorm(8), LIF(),
                       Linear(8, 2, rng=rng)])
        x = (rng.random((4, 5, 6)) < 0.5).astype(float)
        net.forward(x, training=True)
        q = net.layers[0]
        q.params["stimulus"] = q.params["stimulus"] - 0.1 * np.sign(q.params["stimulus"])
        _, membranes = folded_forward(fold_network(net), x, record_membranes=True)
        net.forward(x, training=False)
        assert np.max(np.abs(membranes[0] - net.layers[2].cache["u"])) <= 1e-12

    def test_zero_input_closed_form(self):
        """With zero input the folded membrane is driven by delta alone:
        u[t] = delta * (1 - d^t) / (1 - d) with d the leak factor."""
        lif = LifConfig(tau=2.0)
        delta = np.array([0.3, -0.2])  # below threshold, never spikes
        rho, shift = fold_parameters(np.ones((4, 2)), np.ones(2), delta * lif.tau,
                                     np.zeros(2), np.full(2, 1.0 - 1e-5), 1e-5, lif)
        block = FoldedBlock(packed=[pack_ternary(np.zeros((2, 3)))] * 4,
                            rho=rho, delta=shift, lif=lif)
        x = np.zeros((4, 1, 3))
        _, membranes = folded_forward([block], x, record_membranes=True)
        d = 1.0 - 1.0 / lif.tau
        for t in range(4):
            want = delta * (1.0 - d ** (t + 1)) / (1.0 - d)
            assert np.allclose(membranes[0][t, 0], want, atol=1e-12)


class TestTracesNeedAForwardPass:
    """A layer traces only its last forward pass; one with none behind it
    refuses, so the analysis never reads a trace without input or output."""

    def test_fold_plan_refuses_at_its_block(self, trained):
        _, ds = trained
        x = ds.test_x[:, :8]
        net = build_network(parse_runconfig(three_layer_document()))
        net.forward(x)
        plan = Network(fold_network(net))
        plan.infer(x)
        with pytest.raises(StateError,
                           match=r"^layer 3 \(qlinear\): no trace before a forward pass$"):
            plan.traces()

    def test_unrun_float_network_refuses_at_layer_0(self):
        net = build_network(parse_runconfig(default_xor_document(quantized=False)))
        with pytest.raises(StateError,
                           match=r"^layer 0 \(linear\): no trace before a forward pass$"):
            net.traces()


class TestDecodeOnceKernel:
    """A packed tensor is decoded on first use and the decoded matrix is
    kept on that tensor, so a corrupted replacement is still decoded."""

    @staticmethod
    def _plan(net, x):
        net.forward(x, training=False)
        plan = fold_network(net)
        k = next(j for j, item in enumerate(plan) if isinstance(item, FoldedBlock))
        return plan, k

    def test_each_tensor_decoded_once(self, trained, monkeypatch):
        import tawq.quantizer
        _, ds = trained
        # a net of its own: the packed stacks live on the quantizer state,
        # so the trained net's were decoded by earlier tests
        net = build_network(parse_runconfig(three_layer_document(seed=1)))
        calls = []

        def counting(packed):
            calls.append(packed)
            return unpack_ternary(packed)

        # PackedTernaryTensor.matrix looks the decoder up in its own module
        monkeypatch.setattr(tawq.quantizer, "unpack_ternary", counting)
        plan, k = self._plan(net, ds.test_x[:, :50])
        assert not calls  # folding packs but does not decode
        first = folded_forward(plan, ds.test_x[:, :50])
        second = folded_forward(plan, ds.test_x[:, 50:100])
        assert len(calls) == len(plan[k].packed) == 4
        assert {id(p) for p in calls} == {id(p) for p in plan[k].packed}
        assert first.shape == second.shape == (50, 2)

    def test_decoded_matrix_is_read_only(self):
        packed = pack_ternary(np.array([[1, 0, -1]]))
        assert packed.matrix.dtype == np.float32
        with pytest.raises(ValueError):
            packed.matrix[0, 0] = 0.0
        assert np.array_equal(unpack_ternary(packed), [[1, 0, -1]])

    def test_sign_flipped_payload_changes_membranes(self, trained):
        net, ds = trained
        x = ds.test_x[:, :100]
        plan, k = self._plan(net, x)
        _, before = folded_forward(plan, x, record_membranes=True)
        plan[k].packed[0] = pack_ternary(-unpack_ternary(plan[k].packed[0]))
        _, after = folded_forward(plan, x, record_membranes=True)
        assert not np.array_equal(before[0][0], after[0][0])

    def test_invalid_code_payload_raises(self, trained):
        net, ds = trained
        x = ds.test_x[:, :20]
        plan, k = self._plan(net, x)
        folded_forward(plan, x)  # decode and cache the valid payloads
        good = plan[k].packed[0]
        codes = bytearray(good.codes)
        codes[0] |= 0b11
        plan[k].packed[0] = PackedTernaryTensor(codes=bytes(codes), shape=good.shape)
        with pytest.raises(DataError, match="0b11"):
            folded_forward(plan, x)

    @pytest.mark.parametrize("fan_in", [784, 512])
    def test_equals_int64_oracle_at_benchmark_fan_in(self, fan_in):
        rng = np.random.default_rng(fan_in)
        w = rng.integers(-1, 2, size=(512, fan_in))
        s = (rng.random((128, fan_in)) < 0.2).astype(np.float64)
        s[0] = 1.0  # one all-ones row: sums reach the row sums of w
        w[0] = 1    # and one all-+1 weight row: a sum equals the fan-in
        got = ac_only_matmul([pack_ternary(w)], s[None])[0]
        want = s.astype(np.int64) @ w.astype(np.int64).T
        assert got.dtype == np.float32  # exact integers, charged without a cast
        assert np.array_equal(got, want)
        assert got[0, 0] == fan_in

    def test_short_payload_rejected(self):
        with pytest.raises(DataError, match="needs 8"):
            unpack_ternary(PackedTernaryTensor(codes=bytes(1), shape=(2, 4)))

    @pytest.mark.parametrize("codes,shape,message", [
        (bytes(3), (2, 4), "holds 12 codes, shape \\(2, 4\\) needs 8"),
        (bytes([0b11 << 6]), (3,), "0b11"),
        (bytes([0b01 << 6]), (3,), "padding"),
    ], ids=["long-payload", "invalid-padding-lane", "set-padding-lane"])
    def test_payload_the_reader_refuses_is_refused(self, codes, shape, message):
        # the checkpoint reader refuses each of these, so decoding does too
        with pytest.raises(DataError, match=message):
            unpack_ternary(PackedTernaryTensor(codes=codes, shape=shape))

    def test_wrong_timestep_count_names_layer(self, trained):
        net, ds = trained
        plan, _ = self._plan(net, ds.test_x[:, :10])
        with pytest.raises(ShapeError, match=r"layer 3 \(qlinear\): expected 4 timesteps"):
            folded_forward(plan, ds.test_x[:3, :10])

    @pytest.mark.parametrize("shape", [(37, 11), (4, 9), (5, 5), (2, 3, 7), (), (4, 32, 16, 3, 3)],
                             ids=["size-mod4-3", "size-mod4-0", "size-mod4-1", "size-mod4-2",
                                  "0-d", "conv-stack"])
    def test_pack_matches_reference_encoding(self, shape):
        rng = np.random.default_rng(45)
        w = rng.integers(-1, 2, size=shape).astype(float)
        flat = w.ravel()
        codes = np.where(flat > 0, 0b01, np.where(flat < 0, 0b10, 0b00))
        codes = np.concatenate([codes, np.zeros(-flat.size % 4, dtype=codes.dtype)])
        lanes = codes.reshape(-1, 4)
        want = (lanes[:, 0] | lanes[:, 1] << 2 | lanes[:, 2] << 4 | lanes[:, 3] << 6)
        assert pack_ternary(w).codes == want.astype(np.uint8).tobytes()

    def test_out_of_range_error_names_first_bad_entry(self):
        with pytest.raises(DataError, match="0.5"):
            pack_ternary(np.array([1, 0, 0.5, 2]))
