"""Packed inference: ternary codec, accumulate-only kernels, parameter
folding, and folded-vs-unfolded equivalence on a trained toy network."""

import numpy as np
import pytest

from conftest import run_document, three_layer_document
from tawq.errors import ConfigError, DataError, ShapeError
from tawq.layers import LIF, BatchNorm, LifConfig, Linear, Network, QuantLinear
from tawq.quantizer import QuantConfig
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
        out = ac_only_matmul(packed, np.array([[1, 1, 1]]))
        assert out[0, 0] == 1

    def test_zero_spikes(self):
        packed = pack_ternary(np.array([[1, -1, 0, 1]]))
        assert not ac_only_matmul(packed, np.zeros((3, 4))).any()

    def test_matches_float_oracle_64_wide(self):
        rng = np.random.default_rng(43)
        w = rng.integers(-1, 2, size=(5, 64)).astype(float)
        s = (rng.random((7, 64)) < 0.4).astype(float)
        got = ac_only_matmul(pack_ternary(w), s)
        assert np.array_equal(got, (s @ w.T).astype(np.int64))

    def test_matches_float_oracle_random_shapes(self):
        rng = np.random.default_rng(44)
        for _ in range(1000):
            c_o = int(rng.integers(1, 9))
            c_i = int(rng.integers(1, 33))
            b = int(rng.integers(1, 5))
            w = rng.integers(-1, 2, size=(c_o, c_i)).astype(float)
            s = (rng.random((b, c_i)) < 0.5).astype(float)
            got = ac_only_matmul(pack_ternary(w), s)
            assert np.array_equal(got, (s @ w.T).astype(np.int64))

    def test_nonbinary_spikes_rejected(self):
        packed = pack_ternary(np.array([[1, 0]]))
        with pytest.raises(DataError):
            ac_only_matmul(packed, np.array([[0.5, 1.0]]))

    def test_width_mismatch_rejected(self):
        packed = pack_ternary(np.array([[1, 0]]))
        with pytest.raises(ShapeError):
            ac_only_matmul(packed, np.ones((1, 3)))

    def test_non_matrix_rejected(self):
        with pytest.raises(ShapeError, match="expected a packed matrix"):
            ac_only_matmul(pack_ternary(np.zeros((2, 2, 2))), np.zeros((1, 2)))

    def test_fan_in_beyond_float32_exactness_rejected(self):
        # refused from the shape alone, before the (empty) payload is decoded
        with pytest.raises(ShapeError, match="2\\^24"):
            ac_only_matmul(PackedTernaryTensor(b"", (1, 1 << 24)), np.zeros((1, 1)))


class TestFoldParameters:
    def test_direct_substitution(self):
        lif = LifConfig(tau=2.0)
        eps = 1e-5
        out = fold_parameters(alpha=np.ones((1, 3)), gamma=np.ones(3),
                              beta=np.zeros(3), mu=np.zeros(3),
                              sigma2=np.full(3, 1.0 - eps), eps=eps, lif=lif)
        assert np.allclose(out.rho, 0.5)
        assert np.allclose(out.delta, 0.0)

    def test_zero_alpha_propagates(self):
        lif = LifConfig()
        alpha = np.array([[0.0, 2.0]])
        out = fold_parameters(alpha, np.ones(2), np.zeros(2), np.zeros(2),
                              np.ones(2), 1e-5, lif)
        assert out.rho[0, 0] == 0.0

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

    def test_unmaterialized_network_rejected(self, trained):
        from tawq.runconfig import build_network, parse_runconfig
        cfg = parse_runconfig(three_layer_document())
        fresh = build_network(cfg)
        with pytest.raises(DataError):
            fold_network(fresh)

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
        folded = fold_parameters(np.ones((4, 2)), np.ones(2), delta * lif.tau,
                                 np.zeros(2), np.full(2, 1.0 - 1e-5), 1e-5, lif)
        block = FoldedBlock(packed=[pack_ternary(np.zeros((2, 3)))] * 4,
                            folded=folded)
        x = np.zeros((4, 1, 3))
        _, membranes = folded_forward([block], x, record_membranes=True)
        d = 1.0 - 1.0 / lif.tau
        for t in range(4):
            want = delta * (1.0 - d ** (t + 1)) / (1.0 - d)
            assert np.allclose(membranes[0][t, 0], want, atol=1e-12)


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
        import tawq.runtime
        net, ds = trained
        calls = []

        def counting(packed):
            calls.append(packed)
            return unpack_ternary(packed)

        monkeypatch.setattr(tawq.runtime, "unpack_ternary", counting)
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
        got = ac_only_matmul(pack_ternary(w), s)
        want = s.astype(np.int64) @ w.astype(np.int64).T
        assert got.dtype == np.int64
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

    def test_pack_matches_reference_encoding(self):
        rng = np.random.default_rng(45)
        w = rng.integers(-1, 2, size=(37, 11)).astype(float)
        flat = w.ravel()
        codes = np.where(flat > 0, 0b01, np.where(flat < 0, 0b10, 0b00))
        codes = np.concatenate([codes, np.zeros(-flat.size % 4, dtype=codes.dtype)])
        lanes = codes.reshape(-1, 4)
        want = (lanes[:, 0] | lanes[:, 1] << 2 | lanes[:, 2] << 4 | lanes[:, 3] << 6)
        assert pack_ternary(w).codes == want.astype(np.uint8).tobytes()

    def test_out_of_range_error_names_first_bad_entry(self):
        with pytest.raises(DataError, match="0.5"):
            pack_ternary(np.array([1, 0, 0.5, 2]))
