"""Synthetic datasets, spike encoders, and the raster-grid file format."""

import numpy as np
import pytest

from tawq.data import (
    Dataset,
    DatasetSpec,
    build_dataset,
    gen_rate_patterns,
    gen_temporal_xor,
    latency_encode,
    load_raster_grid,
    rate_encode,
    save_raster_grid,
)
from tawq.errors import ConfigError, DataError


def xor_rule_classifier(x: np.ndarray) -> np.ndarray:
    """Hand-coded rule: presence of channel-0 spikes in the first window
    XOR presence of channel-1 spikes in the second; 100% at zero noise."""
    half = x.shape[0] // 2
    a = x[:half, :, 0].max(axis=0) > 0
    b = x[half:, :, 1].max(axis=0) > 0
    return (a ^ b).astype(np.int64)


class TestTemporalXor:
    def test_rule_classifier_perfect_at_zero_noise(self):
        x, y = gen_temporal_xor(2000, 4, 0.0, seed=0)
        assert np.array_equal(xor_rule_classifier(x), y)

    def test_label_balance(self):
        _, y = gen_temporal_xor(10_000, 4, 0.0, seed=1)
        assert abs(y.mean() - 0.5) <= 0.02

    def test_deterministic(self):
        a = gen_temporal_xor(100, 4, 0.1, seed=7)
        b = gen_temporal_xor(100, 4, 0.1, seed=7)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_channel_windows(self):
        x, _ = gen_temporal_xor(500, 4, 0.0, seed=2)
        # channel 0 silent in second half, channel 1 silent in first half
        assert not x[2:, :, 0].any()
        assert not x[:2, :, 1].any()

    def test_binary_and_shape(self):
        x, y = gen_temporal_xor(64, 6, 0.2, seed=3)
        assert x.shape == (6, 64, 2)
        assert np.isin(x, (0.0, 1.0)).all()
        assert np.isin(y, (0, 1)).all()

    def test_too_few_timesteps_rejected(self):
        with pytest.raises(ConfigError):
            gen_temporal_xor(10, 1, 0.0, seed=0)

    def test_flip_probability_above_one_rejected(self):
        # noise flips each entry with that probability; above 1 it would act as 1
        with pytest.raises(ConfigError, match=r"noise must lie in \[0, 1\], got 2.0"):
            gen_temporal_xor(10, 4, 2.0, seed=0)


class TestRatePatterns:
    def test_shapes_and_determinism(self):
        a = gen_rate_patterns(50, 4, 3, 8, seed=5)
        b = gen_rate_patterns(50, 4, 3, 8, seed=5)
        assert a[0].shape == (4, 50, 8)
        assert np.array_equal(a[0], b[0])
        assert set(np.unique(a[1])) <= {0, 1, 2}


class TestEncoders:
    def test_rate_encode_extremes(self):
        assert not rate_encode(np.zeros(10), 20, seed=0).any()
        assert rate_encode(np.ones(10), 20, seed=0).all()

    def test_rate_encode_monte_carlo(self):
        spikes = rate_encode(np.full(50, 0.5), 1000, seed=1)
        assert abs(spikes.mean() - 0.5) <= 0.05

    def test_rate_encode_range_check(self):
        with pytest.raises(DataError):
            rate_encode(np.array([1.5]), 4, seed=0)

    def test_latency_encode_one_spike_per_element(self):
        x = np.array([0.9, 0.5, 0.1])
        out = latency_encode(x, 8)
        assert np.isin(out, (0.0, 1.0)).all()
        assert np.array_equal(out.sum(axis=0), [1, 1, 1])
        # stronger inputs fire earlier
        assert np.argmax(out[:, 0]) < np.argmax(out[:, 2])

    def test_latency_encode_zero_never_fires(self):
        assert not latency_encode(np.zeros(5), 4).any()

    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_latency_encode_range_check(self, value):
        with pytest.raises(DataError, match="must lie in"):
            latency_encode(np.array([0.5, value]), 4)


class TestRasterGrid:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        pixels = rng.integers(0, 256, size=(12, 5, 5)).astype(np.uint8)
        labels = rng.integers(0, 4, size=12).astype(np.uint8)
        path = str(tmp_path / "grid.bin")
        save_raster_grid(path, pixels, labels)
        p2, l2 = load_raster_grid(path)
        assert np.array_equal(p2, pixels)
        assert np.array_equal(l2, labels)

    @pytest.mark.parametrize("pixel_shape,n_labels,message", [
        ((4, 9), 4, "pixels must be \\(N, H, W\\)"),
        ((4, 3, 3), 3, "label count does not match"),
    ], ids=["flat-pixels", "label-count"])
    def test_malformed_grid_not_written(self, tmp_path, pixel_shape, n_labels, message):
        path = tmp_path / "grid.bin"
        with pytest.raises(DataError, match=message):
            save_raster_grid(str(path), np.zeros(pixel_shape, dtype=np.uint8),
                             np.zeros(n_labels, dtype=np.uint8))
        assert not path.exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(DataError):
            load_raster_grid(str(path))

    def test_truncation_rejected(self, tmp_path):
        rng = np.random.default_rng(9)
        path = str(tmp_path / "grid.bin")
        save_raster_grid(path, rng.integers(0, 2, (4, 3, 3)).astype(np.uint8),
                         np.zeros(4, dtype=np.uint8))
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[:-3])
        with pytest.raises(DataError):
            load_raster_grid(path)


class TestSplits:
    def test_split_determinism(self):
        spec = DatasetSpec(n_samples=200, seed=4)
        a = build_dataset(spec)
        b = build_dataset(spec)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.test_y, b.test_y)

    def test_split_proportions(self):
        ds = build_dataset(DatasetSpec(n_samples=400, test_fraction=0.25))
        assert ds.test_y.shape[0] == 100
        assert ds.train_y.shape[0] == 300

    def test_raster_dataset_via_spec(self, tmp_path):
        rng = np.random.default_rng(10)
        path = str(tmp_path / "grid.bin")
        save_raster_grid(path, rng.integers(0, 256, (40, 4, 4)).astype(np.uint8),
                         rng.integers(0, 2, 40).astype(np.uint8))
        spec = DatasetSpec(kind="raster-grid", path=path, timesteps=4,
                           encoder="rate", n_samples=40)
        ds = build_dataset(spec)
        assert isinstance(ds, Dataset)
        assert ds.train_x.shape[0] == 4
        assert np.isin(ds.train_x, (0.0, 1.0)).all()

    def test_raster_sample_count_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "grid.bin")
        save_raster_grid(path, np.zeros((40, 4, 4), dtype=np.uint8),
                         np.zeros(40, dtype=np.uint8))
        spec = DatasetSpec(kind="raster-grid", path=path, timesteps=4, n_samples=999)
        with pytest.raises(ConfigError, match=r"n_samples is 999, but .* holds 40 samples"):
            build_dataset(spec)

    def test_raster_without_path_rejected(self):
        with pytest.raises(ConfigError):
            build_dataset(DatasetSpec(kind="raster-grid"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            DatasetSpec(kind="imagenet")
