"""Unit + property tests for the kernel registry (:mod:`repro.kernels`).

Three layers of guarantee:

* **registry mechanics** — registration, tier resolution, the
  ``REPRO_KERNELS`` selection ladder and its fallback warning, loud
  errors on unknown ops/tiers;
* **exactness** (hypothesis) — the fast tier matches the reference
  oracle *bit for bit* for gather / quantize / fused gather_quantize
  (including empty batches, duplicate and negative indices,
  non-contiguous feature stores, float32 and float64 storage), and to
  floating-point tolerance for ``segment_sum`` (accumulation order
  differs by design);
* **accounting** — buffer-pool reuse (steady-state zero allocation)
  and the traffic counters the backends attach to their reports.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.errors import ConfigError
from repro.kernels import (
    BufferPool,
    COUNTERS,
    KernelCounters,
    fast,
    kernel_tier,
    merge_counts,
    payload_bytes,
    reference,
    register_kernel,
    set_kernel_tier,
)

common_settings = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

MODES = ("fp32", "fp16", "int8")


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def gather_cases(draw):
    """A feature store (possibly non-contiguous, f32 or f64) plus an
    index vector (possibly empty, with duplicates and negatives)."""
    n = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**16))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    layout = draw(st.sampled_from(["c", "rows", "cols"]))
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((2 * n, 2 * cols)).astype(dtype)
    if layout == "rows":
        feats = feats[::2, :cols]          # row-strided view
    elif layout == "cols":
        feats = feats[:n, ::2]             # column-strided view
    else:
        feats = np.ascontiguousarray(feats[:n, :cols])
    m = draw(st.integers(0, 30))
    idx = draw(st.lists(st.integers(-n, n - 1), min_size=m, max_size=m))
    return feats, np.array(idx, dtype=np.int64)


@st.composite
def quantize_inputs(draw):
    rows = draw(st.integers(0, 24))
    cols = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**16))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols)).astype(dtype)
    if draw(st.booleans()):
        x[rng.random(x.shape) < 0.3] = 0.0     # zero rows are likely
    return x


@st.composite
def segment_cases(draw):
    num_src = draw(st.integers(1, 20))
    num_dst = draw(st.integers(1, 20))
    cols = draw(st.integers(1, 8))
    m = draw(st.integers(0, 60))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_src, size=m)
    dst = rng.integers(0, num_dst, size=m)
    h = rng.standard_normal((num_src, cols))
    w = rng.random(m) if draw(st.booleans()) else None
    return src, dst, h, num_dst, w


# ---------------------------------------------------------------------------
# Registry mechanics
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_shipped_tiers_registered(self):
        for op in kernels.OPS:
            tiers = kernels.available_tiers(op)
            assert "reference" in tiers and "fast" in tiers

    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigError, match="unknown kernel op"):
            kernels.available_tiers("scatter")
        with pytest.raises(ConfigError, match="unknown kernel op"):
            register_kernel("scatter", "fast", lambda: None)

    def test_empty_tier_name_rejected(self):
        with pytest.raises(ConfigError):
            register_kernel("gather", "", lambda: None)

    def test_register_decorator_and_custom_tier_dispatch(self):
        @register_kernel("gather", "_test_tier")
        def my_gather(features, index, out=None, pool=None):
            return np.full((index.size, features.shape[1]), 7.0)

        try:
            assert "_test_tier" in kernels.available_tiers("gather")
            with kernel_tier("_test_tier"):
                assert kernels.active_tier("gather") == "_test_tier"
                got = kernels.gather_rows(np.zeros((3, 2)),
                                          np.array([0, 1]))
                assert (got == 7.0).all()
                # The custom tier ships no quantize: non-ladder tiers
                # never fall back silently.
                with pytest.raises(ConfigError,
                                   match="provides no 'quantize'"):
                    kernels.quantize(np.zeros((2, 2)), "int8")
        finally:
            kernels.KERNELS["gather"].pop("_test_tier")

    def test_unknown_tier_is_loud(self):
        with pytest.raises(ConfigError, match="unknown kernel tier"):
            set_kernel_tier("turbo")
        with pytest.raises(ConfigError, match="unknown kernel tier"):
            with kernel_tier("turbo"):
                pass

    def test_env_var_selects_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "reference")
        assert kernels.requested_tier() == "reference"
        assert kernels.active_tier("gather") == "reference"
        monkeypatch.setenv("REPRO_KERNELS", "")
        assert kernels.requested_tier() == kernels.DEFAULT_TIER

    def test_programmatic_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "reference")
        with kernel_tier("fast"):
            assert kernels.active_tier("gather") == "fast"
        assert kernels.active_tier("gather") == "reference"

    def test_numba_request_falls_down_ladder(self):
        if kernels.available_tiers("gather").count("numba"):
            pytest.skip("numba is installed; no fallback to observe")
        kernels._warned_fallbacks.clear()
        with kernel_tier("numba"):
            with pytest.warns(RuntimeWarning, match="falling back"):
                assert kernels.active_tier("gather") == "fast"
            # One-time warning per (requested, got) pair.
            assert kernels.active_tier("gather") == "fast"

    def test_validation_errors(self):
        with pytest.raises(ConfigError, match="2-D"):
            kernels.gather_rows(np.zeros(4), np.array([0]))
        with pytest.raises(ConfigError, match="transfer precision"):
            kernels.quantize(np.zeros((2, 2)), "int4")
        with pytest.raises(ConfigError, match="transfer precision"):
            kernels.gather_quantize(np.zeros((2, 2)), np.array([0]),
                                    "bf16")
        with pytest.raises(ConfigError, match="transfer precision"):
            payload_bytes("int4", 2, 2)

    def test_out_of_bounds_index_raises_on_both_tiers(self):
        feats = np.zeros((4, 3))
        for tier in ("reference", "fast"):
            with kernel_tier(tier):
                with pytest.raises(IndexError):
                    kernels.gather_rows(feats, np.array([0, 4]))
                with pytest.raises(IndexError):
                    kernels.gather_rows(feats, np.array([-5]))


# ---------------------------------------------------------------------------
# Exactness: fast tier vs the reference oracle
# ---------------------------------------------------------------------------

class TestGatherExactness:
    @common_settings
    @given(gather_cases())
    def test_fast_matches_reference_bitwise(self, case):
        feats, idx = case
        want = reference.gather(feats, idx)
        got = fast.gather(feats, idx)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(want, got)

    @common_settings
    @given(gather_cases())
    def test_pooled_and_out_paths_identical(self, case):
        feats, idx = case
        want = reference.gather(feats, idx)
        pool = BufferPool()
        np.testing.assert_array_equal(
            want, fast.gather(feats, idx, pool=pool))
        # Steady state: same answer out of the reused buffer.
        np.testing.assert_array_equal(
            want, fast.gather(feats, idx, pool=pool))
        out = np.empty((idx.size, feats.shape[1]), dtype=np.float64)
        got = fast.gather(feats, idx, out=out)
        assert got is out
        np.testing.assert_array_equal(want, got)


class TestQuantizeExactness:
    @common_settings
    @given(quantize_inputs(), st.sampled_from(MODES))
    def test_fast_matches_reference_bitwise(self, x, mode):
        want = reference.quantize(x, mode)
        got = fast.quantize(x, mode)
        assert got.dtype == x.dtype          # dtype preservation
        np.testing.assert_array_equal(want, got)

    def test_tie_rounding_and_clip_order(self):
        # 127.5/absmax boundaries: round-then-clip must match the
        # reference on exact ties (bankers' rounding at ±.5).
        x = np.array([[127.5, -127.5, 254.0, -254.0, 1.0]],
                     dtype=np.float64) / 254.0 * 2.0
        np.testing.assert_array_equal(reference.quantize(x, "int8"),
                                      fast.quantize(x, "int8"))

    def test_zero_and_nonfinite_rows(self):
        x = np.zeros((3, 4), dtype=np.float32)
        np.testing.assert_array_equal(reference.quantize(x, "int8"),
                                      fast.quantize(x, "int8"))
        assert not fast.quantize(x, "int8").any()


class TestFusedExactness:
    @common_settings
    @given(gather_cases(), st.sampled_from(MODES))
    def test_fused_matches_reference_composition(self, case, mode):
        feats, idx = case
        want = reference.gather_quantize(feats, idx, mode)
        got = fast.gather_quantize(feats, idx, mode)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(want, got)

    @common_settings
    @given(gather_cases(), st.sampled_from(MODES))
    def test_fused_pooled_matches(self, case, mode):
        feats, idx = case
        want = reference.gather_quantize(feats, idx, mode)
        pool = BufferPool()
        for _ in range(2):                    # cold + steady state
            np.testing.assert_array_equal(
                want, fast.gather_quantize(feats, idx, mode,
                                           pool=pool))

    @common_settings
    @given(gather_cases(), st.sampled_from(MODES))
    def test_dispatch_equals_direct_composition(self, case, mode):
        feats, idx = case
        with kernel_tier("fast"):
            fused = kernels.gather_quantize(feats, idx, mode)
            composed = kernels.quantize(
                kernels.gather_rows(feats, idx), mode)
        np.testing.assert_array_equal(fused, composed)


class TestSegmentSumTolerance:
    @common_settings
    @given(segment_cases())
    def test_fast_matches_reference_allclose(self, case):
        src, dst, h, num_dst, w = case
        want = reference.segment_sum(src, dst, h, num_dst,
                                     edge_weights=w)
        got = fast.segment_sum(src, dst, h, num_dst, edge_weights=w)
        assert got.shape == want.shape
        np.testing.assert_allclose(want, got, rtol=1e-12, atol=1e-12)
        # Destinations with no edges are exactly zero on both tiers.
        untouched = np.setdiff1d(np.arange(num_dst), dst)
        assert not got[untouched].any()


# ---------------------------------------------------------------------------
# Buffer pool
# ---------------------------------------------------------------------------

class TestBufferPool:
    def test_steady_state_reuses_memory(self):
        pool = BufferPool()
        a = pool.take(8, 4, np.float64)
        base = a.base
        assert base is not None
        b = pool.take(6, 4, np.float64)
        assert b.base is base                 # same backing buffer
        assert b.shape == (6, 4)
        assert pool.hits == 1 and pool.misses == 1

    def test_grow_reallocates_then_stabilizes(self):
        pool = BufferPool()
        pool.take(4, 4, np.float64)
        big = pool.take(16, 4, np.float64)    # grow: counted as miss
        assert pool.misses == 2
        again = pool.take(16, 4, np.float64)
        assert again.base is big.base
        assert pool.hits == 1

    def test_dtype_and_cols_are_distinct_classes(self):
        pool = BufferPool()
        a = pool.take(4, 4, np.float64)
        b = pool.take(4, 4, np.float32)
        c = pool.take(4, 8, np.float64)
        assert a.base is not b.base and a.base is not c.base
        assert pool.misses == 3

    def test_clear_releases(self):
        pool = BufferPool()
        pool.take(4, 4, np.float64)
        assert pool.nbytes > 0
        pool.clear()
        assert pool.nbytes == 0


# ---------------------------------------------------------------------------
# Counters & traffic accounting
# ---------------------------------------------------------------------------

class TestCounters:
    def test_gather_counts_bytes(self):
        feats = np.ones((50, 10), dtype=np.float32)
        idx = np.arange(20)
        before = COUNTERS.snapshot()
        kernels.gather_rows(feats, idx)
        d = COUNTERS.delta(before)
        assert d["gather_calls"] == 1
        assert d["gather_rows"] == 20
        assert d["gather_src_bytes"] == 20 * 10 * 4
        assert d["gather_out_bytes"] == 20 * 10 * 8

    def test_fused_counts_payload(self):
        feats = np.ones((50, 10), dtype=np.float32)
        idx = np.arange(20)
        before = COUNTERS.snapshot()
        kernels.gather_quantize(feats, idx, "int8")
        d = COUNTERS.delta(before)
        assert d["fused_calls"] == 1
        assert d["payload_bytes"] == 20 * 10 * 1 + 20 * 4

    def test_payload_bytes_table(self):
        assert payload_bytes("fp32", 3, 5) == 60
        assert payload_bytes("fp16", 3, 5) == 30
        assert payload_bytes("int8", 3, 5) == 15 + 12

    def test_delta_drops_zero_entries(self):
        c = KernelCounters()
        c.add(a=3, b=0)
        snap = c.snapshot()
        c.add(a=2)
        assert c.delta(snap) == {"a": 2}

    def test_merge_counts(self):
        into = {"a": 1}
        merge_counts(into, {"a": 2, "b": 3})
        assert into == {"a": 3, "b": 3}

    def test_gather_feature_rows_out_and_pool(self):
        from types import SimpleNamespace

        from repro.runtime.core import gather_feature_rows
        feats = np.random.default_rng(0).standard_normal(
            (30, 6)).astype(np.float32)
        mb = SimpleNamespace(input_nodes=np.arange(12))
        want = feats[np.arange(12)].astype(np.float64)
        out = np.empty((12, 6), dtype=np.float64)
        got = gather_feature_rows(feats, mb, out=out)
        assert got is out
        np.testing.assert_array_equal(want, got)
        pool = BufferPool()
        np.testing.assert_array_equal(
            want, gather_feature_rows(feats, mb, pool=pool))
        assert pool.misses > 0


# ---------------------------------------------------------------------------
# Tier invariance of the dispatch surface
# ---------------------------------------------------------------------------

class TestTierInvariance:
    """The chokepoints must produce bit-identical results whichever
    registered ladder tier serves them — this is what lets ``fast`` be
    the default without perturbing any backend trajectory."""

    @common_settings
    @given(gather_cases(), st.sampled_from(MODES))
    def test_gather_quantize_across_tiers(self, case, mode):
        feats, idx = case
        results = []
        for tier in ("reference", "fast"):
            with kernel_tier(tier):
                results.append(
                    kernels.gather_quantize(feats, idx, mode))
        np.testing.assert_array_equal(results[0], results[1])

    def test_quantize_dequantize_preserves_dtype(self):
        from repro.runtime.quantize import quantize_dequantize
        for dtype in (np.float32, np.float64):
            x = np.random.default_rng(3).standard_normal(
                (8, 5)).astype(dtype)
            for mode in MODES:
                for tier in ("reference", "fast"):
                    with kernel_tier(tier):
                        assert quantize_dequantize(
                            x, mode).dtype == dtype

    def test_segment_sum_aggregate_routes_through_registry(self):
        from repro.nn.aggregators import segment_sum_aggregate
        from repro.sampling.base import LayerBlock
        block = LayerBlock(np.array([0, 1, 2, 1]),
                           np.array([0, 0, 1, 1]), 3, 2)
        h = np.random.default_rng(4).standard_normal((3, 5))
        outs = []
        for tier in ("reference", "fast"):
            with kernel_tier(tier):
                outs.append(segment_sum_aggregate(block, h))
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-12,
                                   atol=1e-12)
