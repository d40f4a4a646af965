"""Registry error paths: every lookup failure names the alternatives.

The registries (execution backends, sampler builders) are the
library's extension seams. Since the unification they are all
instances of one :class:`repro.registry.Registry`, so a
misspelled key fails eagerly with one uniform message shape — the
unknown name plus what *is* registered, so the fix is in the
traceback. These tests pin both the per-registry behavior and the
shared surface (``register`` / ``get`` / ``available()``).
"""

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
import repro.sampling as sampling
from repro.registry import Registry
from repro.runtime import (
    BACKENDS,
    ExecutionBackend,
    TrainingSession,
    available_backends,
    build_backend,
    get_backend,
    register_backend,
)
from repro.sampling import SAMPLER_REGISTRY, available_samplers


def _session(dataset, cfg):
    """A platform-less functional session (no backend is run)."""
    return TrainingSession(dataset, cfg, SystemConfig(drm=False),
                           profile_probes=2)


class TestBackendRegistryErrors:
    def test_register_backend_empty_name_rejected(self):
        class Nameless(ExecutionBackend):
            name = ""

            def run(self, iterations):
                raise NotImplementedError

        with pytest.raises(ConfigError) as exc:
            register_backend(Nameless)
        msg = str(exc.value)
        for registered in available_backends():
            assert registered in msg
        assert "" not in BACKENDS   # nothing was registered

    def test_register_backend_missing_name_attr_rejected(self):
        with pytest.raises(ConfigError):
            register_backend(object)

    def test_get_backend_unknown_key_lists_registered(self):
        with pytest.raises(ConfigError) as exc:
            get_backend("warp-drive")
        msg = str(exc.value)
        assert "warp-drive" in msg
        for registered in ("process", "threaded", "virtual"):
            assert registered in msg


class TestSamplerRegistryErrors:
    def test_get_unknown_sampler_lists_registered(self):
        with pytest.raises(ConfigError) as exc:
            sampling.get("ladies")
        msg = str(exc.value)
        assert "ladies" in msg
        for registered in ("neighbor", "saint-rw", "full"):
            assert registered in msg

    def test_build_sampler_unknown_name_uses_same_error(self, tiny_ds,
                                                        small_cfg):
        with pytest.raises(ConfigError) as exc:
            sampling.build_sampler("ladies", tiny_ds.graph,
                                   tiny_ds.train_ids, small_cfg,
                                   tiny_ds.spec.feature_dim)
        assert "neighbor" in str(exc.value)

    def test_get_known_sampler_returns_builder(self, tiny_ds, small_cfg):
        builder = sampling.get("neighbor")
        sampler = builder(tiny_ds.graph, tiny_ds.train_ids, small_cfg,
                          tiny_ds.spec.feature_dim)
        assert isinstance(sampler, sampling.NeighborSampler)

    def test_available_samplers_sorted_and_complete(self):
        names = available_samplers()
        assert names == tuple(sorted(names))
        assert {"full", "neighbor", "saint-rw"} <= set(names)


class TestUnifiedRegistrySurface:
    """The seams really are the one Registry class, with one error
    shape."""

    REGISTRIES = {
        "execution backend": lambda: BACKENDS,
        "sampler": lambda: SAMPLER_REGISTRY,
    }

    @pytest.mark.parametrize("kind", sorted(REGISTRIES))
    def test_shared_class_and_error_shape(self, kind):
        reg = self.REGISTRIES[kind]()
        assert isinstance(reg, Registry)
        assert reg.available() == tuple(sorted(reg))
        with pytest.raises(ConfigError) as exc:
            reg.get("definitely-not-registered")
        msg = str(exc.value)
        assert f"unknown {kind}" in msg
        assert "definitely-not-registered" in msg
        for name in reg.available():
            assert name in msg

    def test_get_with_default_does_not_raise(self):
        assert BACKENDS.get("definitely-not-registered", None) is None

    def test_getitem_keeps_mapping_semantics(self):
        with pytest.raises(KeyError):
            BACKENDS["definitely-not-registered"]


class TestBuildBackend:
    """``build_backend`` checks knobs against the constructor signature,
    so the signature is the only declaration a backend needs."""

    @pytest.mark.parametrize("name, knob", [
        ("threaded", "timeuot_s"),
        # The look-ahead presets hold the session's window: the depth
        # cap and the node allocator they once took are unknown.
        ("pipelined", "max_depth"), ("pipelined", "allocator"),
        ("process_pipelined", "max_depth"),
        ("process_pipelined", "allocator")])
    def test_unknown_option_names_backend_and_knobs(self, name, knob):
        with pytest.raises(ConfigError) as exc:
            build_backend(name, None, **{knob: 3})
        msg = str(exc.value)
        assert f"'{name}'" in msg
        assert knob in msg
        assert "timeout_s" in msg  # the fix is in the traceback

    def test_build_backend_unknown_option_rejected_before_construction(
            self, tiny_ds, small_cfg):
        # No session needed: validation fires before the constructor.
        with pytest.raises(ConfigError) as exc:
            build_backend("threaded", None, timeout=1.0)
        assert "'threaded'" in str(exc.value)
        assert "timeout_s" in str(exc.value)

    def test_other_backends_knob_rejected(self):
        with pytest.raises(ConfigError) as exc:
            build_backend("process", None, prefetch_depth=2)
        assert "'process'" in str(exc.value)

    def test_knobs_reach_constructor(self, tiny_ds, small_cfg):
        backend = build_backend("threaded", _session(tiny_ds, small_cfg),
                                timeout_s=5.0)
        assert backend.timeout_s == 5.0

    def test_unset_knobs_defer_to_constructor(self, tiny_ds, small_cfg):
        backend = build_backend("threaded", _session(tiny_ds, small_cfg))
        assert backend.timeout_s == 60.0

    def test_third_party_knob_needs_no_declaration(self, tiny_ds,
                                                   small_cfg):
        class Knobbed(ExecutionBackend):
            name = "knobbed"

            def __init__(self, session, flavour="plain"):
                super().__init__(session)
                self.flavour = flavour

            def run(self, iterations):
                raise NotImplementedError

        register_backend(Knobbed)
        try:
            backend = build_backend("knobbed",
                                    _session(tiny_ds, small_cfg),
                                    flavour="spicy")
            assert backend.flavour == "spicy"
            with pytest.raises(ConfigError) as exc:
                build_backend("knobbed", None, flavor="spicy")
            assert "flavour" in str(exc.value)
        finally:
            del BACKENDS["knobbed"]
