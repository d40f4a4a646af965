"""Unit tests for the §VIII quantization extension."""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.runtime.quantize import TRANSFER_BYTES, quantization_rmse
from repro.runtime.stage_pipeline import StagePipeline


def quantize(x, mode):
    """The transfer round trip an accelerator batch takes: the split
    transfer stage, which encodes ``x`` into its wire form and decodes
    it."""
    return StagePipeline(None, x, None, mode).transfer(x, "accel")


class TestQuantizeDequantize:
    """The transfer round trip,
    :meth:`~repro.runtime.stage_pipeline.StagePipeline.transfer`."""

    def test_fp32_is_identity(self):
        x = np.random.default_rng(0).standard_normal((8, 4))
        assert np.array_equal(quantize(x, "fp32"), x)

    def test_fp16_roundtrip_error_small(self):
        x = np.random.default_rng(1).standard_normal((64, 16))
        q = quantize(x, "fp16")
        # fp16 has ~3 decimal digits: relative error under 1e-3.
        assert np.max(np.abs(q - x) / np.maximum(np.abs(x), 1e-3)) \
            < 2e-3

    def test_int8_bounded_error(self):
        x = np.random.default_rng(2).standard_normal((32, 8))
        q = quantize(x, "int8")
        # Per-row symmetric: error bounded by scale/2 = absmax/254.
        absmax = np.abs(x).max(axis=1, keepdims=True)
        assert (np.abs(q - x) <= absmax / 127.0 + 1e-12).all()

    def test_int8_preserves_extremes(self):
        x = np.array([[-2.0, 0.0, 2.0]])
        q = quantize(x, "int8")
        assert q[0, 0] == pytest.approx(-2.0, rel=0.02)
        assert q[0, 2] == pytest.approx(2.0, rel=0.02)

    def test_int8_zero_row_safe(self):
        x = np.zeros((3, 4))
        assert not quantize(x, "int8").any()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            quantize(np.zeros((2, 2)), "int4")
        with pytest.raises(ConfigError):
            quantize(np.zeros(4), "fp16")

    def test_rmse_ordering(self):
        x = np.random.default_rng(3).standard_normal((64, 32))
        assert quantization_rmse(x, "fp32") == 0.0
        assert quantization_rmse(x, "fp16") < quantization_rmse(
            x, "int8")

    def test_transfer_bytes_table(self):
        assert TRANSFER_BYTES == {"fp32": 4, "fp16": 2, "int8": 1}

    def test_preserves_input_float_dtype(self):
        # A float32 batch must come back float32 — dtype inflation
        # here used to double downstream trainers' memory traffic.
        for dtype in (np.float32, np.float64):
            x = np.random.default_rng(5).standard_normal(
                (16, 8)).astype(dtype)
            for mode in ("fp32", "fp16", "int8"):
                assert quantize(x, mode).dtype == dtype

    def test_float32_int8_roundtrip_no_widening_error(self):
        # The float32 fast path (no float64 temp) must still land on
        # the same quantization grid the widened computation defines.
        x = np.random.default_rng(6).standard_normal(
            (32, 8)).astype(np.float32)
        q32 = quantize(x, "int8")
        q64 = quantize(x.astype(np.float64), "int8")
        np.testing.assert_allclose(q32, q64.astype(np.float32),
                                   rtol=1e-6, atol=1e-7)


class TestSystemConfigPrecision:
    def test_valid_modes(self):
        for mode in ("fp32", "fp16", "int8"):
            assert SystemConfig(
                transfer_precision=mode).transfer_precision == mode

    def test_invalid_mode(self):
        with pytest.raises(ConfigError):
            SystemConfig(transfer_precision="bf16")


class TestPerfModelPrecision:
    def test_transfer_time_scales_with_precision(self, tiny_ds,
                                                 fpga_platform):
        from repro.config import TrainingConfig
        from repro.runtime import TrainingSession
        cfg = TrainingConfig(model="gcn", minibatch_size=32,
                             fanouts=(4, 3), hidden_dim=16, seed=0)
        times = {}
        for mode in ("fp32", "fp16", "int8"):
            session = TrainingSession(
                tiny_ds, cfg, SystemConfig(transfer_precision=mode),
                fpga_platform, profile_probes=2)
            st = session.perfmodel.stage_times(session.split)
            times[mode] = st.t_transfer
        # Latency floor means not exactly 2x/4x, but strictly ordered.
        assert times["int8"] < times["fp16"] < times["fp32"]

    def test_invalid_elem_bytes(self, tiny_ds, fpga_platform):
        from repro.config import layer_dims
        from repro.errors import ConfigError
        from repro.perfmodel.model import PerformanceModel
        from repro.perfmodel.sampling_profile import SamplingProfile
        from repro.sampling.neighbor import NeighborSampler
        sampler = NeighborSampler(tiny_ds.graph, tiny_ds.train_ids,
                                  (4, 3), tiny_ds.spec.feature_dim,
                                  seed=0)
        profile = SamplingProfile.measure(sampler, 32, num_probes=2)
        dims = layer_dims(tiny_ds.spec.feature_dim, 16,
                          tiny_ds.spec.num_classes, 2)
        with pytest.raises(ConfigError):
            PerformanceModel(fpga_platform, dims, "gcn", profile,
                             transfer_elem_bytes=3)
