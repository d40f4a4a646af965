"""The wire table: each feature row quantized once (:mod:`repro.kernels`
``encode`` / ``gather_wire`` / ``decode``, and the
:class:`~repro.runtime.stage_pipeline.StagePipeline` loads that decode
from it).

* **exactness** (hypothesis) — a table-path ``load`` equals the
  reference gather → quantize composition bit for bit, for int8 and
  fp16, over negative and repeated ids, all-zero rows and rows whose
  int8 scale is subnormal; and the shared scale rule skips the clip
  only where it is the identity;
* **guards** — out-of-range ids raise ``IndexError``, non-finite rows
  cannot be encoded to int8, the table is read-only;
* **accounting** — the codes gather bills wire bytes, the decode bills
  the per-batch payload;
* **lifetime** — a session builds its table at most once, on its
  first accelerator load, and fp32, all-CPU and serving
  ``device="cpu"`` sessions build none; a process plane's parent
  builds it before the shared segment and then drops its own copy, and
  the workers decode from the segment's without encoding.
"""

import dataclasses
import sys
import threading
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SystemConfig, TrainingConfig, kernels
from repro.errors import ConfigError
from repro.kernels import KernelCounters, fast, reference, scoped_counters
from repro.runtime import SharedFeatureStore, TrainingSession, build_backend
from repro.runtime.stage_pipeline import StagePipeline
from repro.serving import ServingConfig, ServingSession

common_settings = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

LOSSY = ("fp16", "int8")

PROCESS_PRESETS = ("process", "process_sampling", "process_pipelined",
                   "sharded")


@st.composite
def table_cases(draw):
    """A feature store (f32 or f64, possibly non-contiguous) with some
    all-zero rows and some rows tiny enough that their int8 scale is
    subnormal, plus an index vector with duplicates and negatives."""
    n = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 12))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    feats = rng.standard_normal((n, 2 * cols)).astype(dtype)
    if draw(st.booleans()):
        feats = feats[:, ::2]                 # column-strided view
    else:
        feats = np.ascontiguousarray(feats[:, :cols])
    kind = rng.integers(0, 4, size=n)         # 0 zero, 1 subnormal
    feats[kind == 0] = 0.0
    tiny = np.finfo(dtype).tiny
    feats[kind == 1] *= tiny * 50              # absmax / 127 < tiny
    m = draw(st.integers(0, 30))
    idx = draw(st.lists(st.integers(-n, n - 1), min_size=m, max_size=m))
    return feats, np.array(idx, dtype=np.int64)


def _batch(idx):
    return SimpleNamespace(input_nodes=np.asarray(idx))


def _pipe(feats, mode):
    """A table-decoding pipeline whose sampler's batch for some
    targets reads exactly those rows."""
    return StagePipeline(SimpleNamespace(sample=_batch), feats, None,
                         mode)


class TestTableExactness:
    @pytest.mark.parametrize("mode", LOSSY)
    @common_settings
    @given(case=table_cases())
    def test_table_load_matches_reference_composition(self, case, mode):
        feats, idx = case
        want = reference.quantize(reference.gather(feats, idx), mode)
        pipe = _pipe(feats, mode)
        for _ in range(2):                    # cold + steady state
            got = pipe.load(_batch(idx), "accel")
            assert got.dtype == want.dtype == feats.dtype
            np.testing.assert_array_equal(want, got)
        assert pipe.wire_table is not None
        np.testing.assert_array_equal(
            want, pipe.prepare(idx, "accel", with_labels=False).x0)

    @pytest.mark.parametrize("mode", LOSSY)
    def test_table_load_returns_an_array_it_owns(self, mode):
        """A decoded load is a fresh, writable array, though the table
        it decodes from is read-only; successive loads share no
        memory."""
        feats = np.random.default_rng(4).standard_normal(
            (10, 3)).astype(np.float32)
        pipe = _pipe(feats, mode)
        idx = np.array([2, 2, -1])
        first = pipe.load(_batch(idx), "accel")
        second = pipe.load(_batch(idx), "accel")
        table = pipe.wire_table
        assert not table.codes.flags.writeable
        for got in (first, second):
            assert got.base is None and got.flags.writeable
            assert not np.shares_memory(got, table.codes)
            assert not np.shares_memory(got, feats)
        assert not np.shares_memory(first, second)
        want = second.copy()
        first[...] = 0.0
        np.testing.assert_array_equal(second, want)

    @common_settings
    @given(case=table_cases())
    def test_encode_with_subnormal_scales_matches_reference(self, case):
        feats, _ = case
        codes, scales = fast.encode(feats, "int8")
        want_codes, want_scales = reference.encode(feats, "int8")
        np.testing.assert_array_equal(want_codes, codes)
        np.testing.assert_array_equal(want_scales, scales)

    def test_clip_skipped_only_where_it_is_the_identity(self):
        normal = np.array([[1.0, -2.0], [0.0, 0.0]], dtype=np.float32)
        assert fast._row_scales(normal)[1] is False
        subnormal = normal * np.finfo(np.float32).tiny
        assert fast._row_scales(subnormal)[1] is True
        for bad in (np.nan, np.inf):
            assert fast._row_scales(
                np.array([[1.0, bad]], dtype=np.float32))[1] is True

    def test_cpu_and_fp32_loads_take_the_round_trip(self):
        feats = np.random.default_rng(0).standard_normal(
            (9, 4)).astype(np.float32)
        idx = np.array([3, 3, -1])
        for mode, kind in (("int8", "cpu"), ("fp32", "accel")):
            pipe = _pipe(feats, mode)
            np.testing.assert_array_equal(pipe.load(_batch(idx), kind),
                                          feats[idx])
            assert pipe.wire_table is None


class TestGuards:
    @pytest.mark.parametrize("mode", LOSSY)
    def test_out_of_range_id_raises_index_error(self, mode):
        pipe = _pipe(np.ones((4, 3), dtype=np.float32), mode)
        for bad in ([0, 4], [-5]):
            with pytest.raises(IndexError):
                pipe.load(_batch(bad), "accel")

    @pytest.mark.parametrize("mode", LOSSY)
    def test_table_is_read_only(self, mode):
        table = kernels.encode(np.ones((4, 3), dtype=np.float32), mode)
        for a in (table.codes, table.scales):
            if a is not None:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_row_cannot_be_encoded(self, bad):
        feats = np.ones((600, 3), dtype=np.float32)
        feats[517, 1] = bad                    # in the third block
        feats[590, 0] = bad
        with pytest.raises(ConfigError, match="row 517 "):
            kernels.encode(feats, "int8")
        with pytest.raises(ConfigError, match="row 517 "):
            _pipe(feats, "int8").load(_batch([0]), "accel")

    @pytest.mark.parametrize("backend", ["threaded", "process_sampling"])
    def test_non_finite_store_fails_before_the_segment(self, tiny_ds,
                                                        backend):
        """Every plane refuses an int8 store with a non-finite row with
        the same error; a process plane raises it before creating its
        segment, so no worker ever spawns."""
        feats = tiny_ds.features.copy()
        feats[5, 0] = np.nan
        session = _session(dataclasses.replace(tiny_ds, features=feats),
                           "int8")
        with mock.patch.object(SharedFeatureStore, "create",
                               side_effect=AssertionError), \
                pytest.raises(ConfigError, match="row 5 is not finite"):
            with build_backend(backend, session) as b:
                b.run(2)

    def test_fp32_has_no_wire_form(self):
        with pytest.raises(ConfigError, match="fp32"):
            kernels.encode(np.ones((2, 2)), "fp32")


def _counted(fn) -> dict[str, int]:
    """The kernel counters ``fn()`` records on this thread."""
    bag = KernelCounters()
    with scoped_counters(bag):
        fn()
    return bag.snapshot()


class TestCounters:
    def test_codes_gather_and_decode_bill_the_wire(self):
        feats = np.ones((50, 10), dtype=np.float32)
        table = kernels.encode(feats, "int8")
        d = _counted(lambda: kernels.decode(
            kernels.gather_wire(table, np.arange(20))))
        assert d["gather_calls"] == d["decode_calls"] == 1
        assert d["gather_rows"] == 20
        assert d["gather_src_bytes"] == d["gather_out_bytes"] == \
            20 * 10 * 1 + 20 * 4
        assert d["payload_bytes"] == kernels.payload_bytes("int8", 20, 10)
        assert "quantize_calls" not in d

    def test_fp16_decode_bills_half_width(self):
        table = kernels.encode(np.ones((8, 5), dtype=np.float32), "fp16")
        d = _counted(lambda: kernels.decode(
            kernels.gather_wire(table, np.arange(6))))
        assert d["gather_src_bytes"] == d["payload_bytes"] == 6 * 5 * 2


_TRAIN = TrainingConfig(model="sage", minibatch_size=32, fanouts=(4, 3),
                       hidden_dim=16, seed=3)


def _session(ds, precision, hybrid=False, num_trainers=2):
    return TrainingSession(
        ds, _TRAIN, SystemConfig(drm=False, hybrid=hybrid,
                                 transfer_precision=precision),
        num_trainers=num_trainers)


class TestTableLifetime:
    def test_built_once_across_epochs_and_backends(self, tiny_ds):
        session = _session(tiny_ds, "int8")
        assert session.pipeline.wire_table is None     # built lazily
        backend = build_backend("virtual", session)
        first = backend.run_epoch()
        table = session.pipeline.wire_table
        assert table is not None
        assert first.kernel_stats["encode_calls"] == 1
        assert first.kernel_stats["decode_calls"] > 0
        for again in (backend.run_epoch(),
                      build_backend("threaded", session).run_epoch()):
            assert session.pipeline.wire_table is table
            assert "encode_calls" not in again.kernel_stats
            assert again.kernel_stats["decode_calls"] > 0

    @pytest.mark.parametrize("precision, hybrid, trainers, backend", [
        ("fp32", False, 2, "virtual"),
        ("int8", True, 1, "virtual"),          # one CPU trainer
        ("int8", True, 1, "process"),
    ], ids=["fp32", "all-cpu", "process-all-cpu"])
    def test_sessions_that_build_none(self, tiny_ds, precision, hybrid,
                                      trainers, backend):
        session = _session(tiny_ds, precision, hybrid, trainers)
        with build_backend(backend, session) as b:
            report = b.run(2)
        assert session.pipeline.wire_table is None
        assert "encode_calls" not in report.kernel_stats
        assert "decode_calls" not in report.kernel_stats

    @pytest.mark.parametrize("precision", LOSSY)
    @pytest.mark.parametrize("backend", PROCESS_PRESETS)
    def test_process_workers_decode_from_the_segment(self, tiny_ds,
                                                     backend, precision):
        """The parent encodes the session's table once, before the
        segment, and keeps no copy of it; the workers decode from the
        segment's and never encode."""
        session = _session(tiny_ds, precision, hybrid=True,
                           num_trainers=3)
        with build_backend(backend, session) as b:
            stats = b.run(2).kernel_stats
            assert session.pipeline.wire_table is None
            stats_again = b.run(1).kernel_stats
        assert session.pipeline.wire_table is None
        for s in (stats, stats_again):
            assert "encode_calls" not in s
            assert s["decode_calls"] > 0

    @pytest.mark.parametrize("device", ["cpu", "accel"])
    def test_serving_builds_only_for_an_accelerator(self, tiny_ds,
                                                    device):
        serving = ServingSession(
            tiny_ds, _TRAIN, SystemConfig(transfer_precision="int8"),
            config=ServingConfig(device=device))
        serving.submit(tiny_ds.train_ids[:8])
        serving.drain()
        serving.close()
        assert (serving.pipeline.wire_table is None) == (device == "cpu")

    def test_concurrent_first_loads_build_one_table(self):
        feats = np.random.default_rng(5).standard_normal(
            (4096, 16)).astype(np.float32)
        pipe = _pipe(feats, "int8")
        idx = np.arange(0, 4096, 7)
        want = reference.quantize(feats[idx], "int8")
        results = []
        bag = KernelCounters()

        def first_load():
            with scoped_counters(bag):
                results.append(pipe.load(_batch(idx), "accel"))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_load)
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert bag.snapshot()["encode_calls"] == 1
        assert len(results) == 8
        for got in results:
            np.testing.assert_array_equal(want, got)
