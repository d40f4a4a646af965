"""Unit tests for repro.config and error hierarchy."""

import pytest

from repro.config import (
    ABLATION_PRESETS,
    SystemConfig,
    TrainingConfig,
    layer_dims,
)
from repro.errors import (
    ConfigError,
    DeviceError,
    GraphError,
    ReproError,
)


class TestTrainingConfig:
    def test_defaults_match_paper(self):
        cfg = TrainingConfig()
        assert cfg.minibatch_size == 1024
        assert cfg.fanouts == (25, 10)
        assert cfg.hidden_dim == 256
        assert cfg.num_layers == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainingConfig(model="gat")
        with pytest.raises(ConfigError):
            TrainingConfig(minibatch_size=0)
        with pytest.raises(ConfigError):
            TrainingConfig(fanouts=())
        with pytest.raises(ConfigError):
            TrainingConfig(fanouts=(5, -1))
        with pytest.raises(ConfigError):
            TrainingConfig(hidden_dim=0)
        with pytest.raises(ConfigError):
            TrainingConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainingConfig(epochs=0)

    def test_with_updates(self):
        cfg = TrainingConfig().with_updates(hidden_dim=32)
        assert cfg.hidden_dim == 32
        assert cfg.minibatch_size == 1024


class TestSystemConfig:
    def test_drm_requires_hybrid(self):
        with pytest.raises(ConfigError):
            SystemConfig(hybrid=False, drm=True)

    def test_prefetch_depth_validation(self):
        with pytest.raises(ConfigError):
            SystemConfig(prefetch_depth=0)

    def test_work_step_bounds(self):
        with pytest.raises(ConfigError):
            SystemConfig(drm_work_step=0.0)
        with pytest.raises(ConfigError):
            SystemConfig(drm_work_step=0.6)

    def test_ablation_presets_ordering(self):
        names = list(ABLATION_PRESETS)
        assert names == ["baseline", "hybrid_static", "hybrid_drm",
                         "hybrid_drm_tfp"]
        assert not ABLATION_PRESETS["baseline"].hybrid
        assert ABLATION_PRESETS["hybrid_static"].hybrid
        assert not ABLATION_PRESETS["hybrid_static"].drm
        assert ABLATION_PRESETS["hybrid_drm"].drm
        assert not ABLATION_PRESETS["hybrid_drm"].prefetch
        assert ABLATION_PRESETS["hybrid_drm_tfp"].prefetch


class TestLayerDims:
    def test_two_layer(self):
        assert layer_dims(100, 256, 47, 2) == (100, 256, 47)

    def test_three_layer(self):
        assert layer_dims(100, 256, 47, 3) == (100, 256, 256, 47)

    def test_one_layer(self):
        assert layer_dims(100, 256, 47, 1) == (100, 47)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            layer_dims(100, 256, 47, 0)
        with pytest.raises(ConfigError):
            layer_dims(0, 256, 47, 2)


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ConfigError, ReproError)
        assert issubclass(GraphError, ReproError)
        assert issubclass(DeviceError, ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise DeviceError("no such link")
