"""SharedFeatureStore: layout, attach parity, and lifetime/cleanup.

The store backs the process-pool backend: the dataset's features,
labels, and CSR topology live once in a single shared-memory segment
that worker processes map zero-copy. These tests pin the manifest
round trip, array bit-parity, and — most importantly — the cleanup
contract (owner unlinks exactly once, no segment survives, no array
the store handed out is ever unmapped under its holder)."""

import gc
import glob
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.errors import ProtocolError
from repro.graph.datasets import tiny_dataset
from repro.nn.models import build_model
from repro.runtime.shm import SharedFeatureStore


def _segment_paths():
    return set(glob.glob("/dev/shm/" + SharedFeatureStore.NAME_PREFIX
                         + "*"))


@pytest.fixture()
def store(tiny_ds):
    s = SharedFeatureStore.create(tiny_ds)
    yield s
    s.close()
    try:
        s.unlink()
    except Exception:
        pass


class TestLayout:
    def test_shared_arrays_bit_equal_source(self, tiny_ds, store):
        np.testing.assert_array_equal(store.features, tiny_ds.features)
        np.testing.assert_array_equal(store.labels, tiny_ds.labels)
        np.testing.assert_array_equal(store.indptr,
                                      tiny_ds.graph.indptr)
        np.testing.assert_array_equal(store.indices,
                                      tiny_ds.graph.indices)

    def test_dtypes_preserved(self, tiny_ds, store):
        assert store.features.dtype == tiny_ds.features.dtype
        assert store.labels.dtype == tiny_ds.labels.dtype
        assert store.indptr.dtype == np.int64

    def test_degrees_match_graph(self, tiny_ds, store):
        np.testing.assert_array_equal(store.degrees,
                                      tiny_ds.graph.out_degrees)

    def test_offsets_aligned_and_disjoint(self, store):
        specs = store.manifest.arrays
        end = 0
        for spec in specs:
            assert spec.offset % 64 == 0
            assert spec.offset >= end
            end = spec.offset + spec.nbytes
        assert store.nbytes == end


class TestGradientSlab:
    def test_slab_is_one_more_array_in_the_one_segment(self, tiny_ds):
        """Same segment, same manifest, same unlink — not a second
        block with a second lifetime."""
        flat = build_model("gcn", (4, 3), seed=0).get_flat_params()
        before = _segment_paths()
        with SharedFeatureStore.create(
                tiny_ds, grad_slab=np.zeros_like(
                    flat, shape=(3, flat.size))) as s:
            assert len(_segment_paths()) == len(before) + 1
            assert s.manifest.arrays[-1].key == "grads"
            assert s.grads.shape == (3, flat.size)
            assert s.grads.dtype == flat.dtype == np.float32
            assert not s.grads.any()
            np.testing.assert_array_equal(s.features, tiny_ds.features)
        assert _segment_paths() == before

    def test_rows_written_by_one_mapping_are_read_by_the_other(
            self, tiny_ds):
        with SharedFeatureStore.create(
                tiny_ds, grad_slab=np.zeros((2, 4), np.float32)) as s:
            worker = SharedFeatureStore.attach(s.manifest)
            try:
                worker.grads[0] = [1.0, 2.0, 3.0, 4.0]
                np.testing.assert_array_equal(s.grads[0],
                                              [1.0, 2.0, 3.0, 4.0])
                s.grads[-1] = 0.5
                np.testing.assert_array_equal(worker.grads[-1],
                                              [0.5] * 4)
            finally:
                worker.close()

    def test_absent_unless_asked_for(self, store):
        assert "grads" not in {a.key for a in store.manifest.arrays}


class TestWireTable:
    @pytest.mark.parametrize("mode", ["int8", "fp16"])
    def test_attached_table_is_the_parents_read_only(self, tiny_ds,
                                                     mode):
        """A worker maps the parent's encoded table, bit for bit and
        read-only; the view raises once the mapping is closed."""
        table = kernels.encode(tiny_ds.features, mode)
        with SharedFeatureStore.create(tiny_ds, wire_table=table) as s:
            worker = SharedFeatureStore.attach(s.manifest)
            try:
                got = worker.wire_table
                assert (got.mode, got.dtype) == (mode, table.dtype)
                for want, have in ((table.codes, got.codes),
                                   (table.scales, got.scales)):
                    if want is None:
                        assert have is None
                        continue
                    np.testing.assert_array_equal(have, want)
                    assert have.dtype == want.dtype
                    assert not have.flags.writeable
                del got, have
            finally:
                worker.close()
            with pytest.raises(ProtocolError):
                worker.wire_table

    def test_absent_unless_asked_for(self, store):
        assert store.wire_table is None


class TestAttach:
    def test_attach_sees_same_bits(self, tiny_ds, store):
        attached = SharedFeatureStore.attach(store.manifest)
        try:
            np.testing.assert_array_equal(attached.features,
                                          tiny_ds.features)
            np.testing.assert_array_equal(attached.degrees,
                                          tiny_ds.graph.out_degrees)
            assert not attached.owner
        finally:
            attached.close()

    def test_attached_store_may_not_unlink(self, store):
        attached = SharedFeatureStore.attach(store.manifest)
        try:
            with pytest.raises(ProtocolError):
                attached.unlink()
        finally:
            attached.close()

    def test_csr_graph_is_validated_once_and_dropped_on_close(
            self, tiny_ds):
        """A reused worker rebuilds its sampler every run; the O(E)
        CSR validation is the store's, paid once."""
        s = SharedFeatureStore.create(tiny_ds)
        try:
            graph = s.csr_graph()
            assert s.csr_graph() is graph
            assert np.shares_memory(graph.indices, s.indices)
            del graph
        finally:
            s.close()
            s.unlink()
        with pytest.raises(ProtocolError):
            s.csr_graph()

    def test_manifest_is_picklable(self, store):
        import pickle
        manifest = pickle.loads(pickle.dumps(store.manifest))
        assert manifest == store.manifest


class TestLifetime:
    @pytest.fixture(autouse=True)
    def _needs_dev_shm(self):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")

    def test_create_then_unlink_leaves_no_segment(self, tiny_ds):
        before = _segment_paths()
        s = SharedFeatureStore.create(tiny_ds)
        assert len(_segment_paths()) == len(before) + 1
        s.close()
        s.unlink()
        assert _segment_paths() == before

    def test_context_manager_owner_unlinks(self, tiny_ds):
        before = _segment_paths()
        with SharedFeatureStore.create(tiny_ds) as s:
            assert s.owner
            assert len(_segment_paths()) == len(before) + 1
        assert _segment_paths() == before

    def test_unlink_is_idempotent(self, tiny_ds):
        s = SharedFeatureStore.create(tiny_ds)
        s.close()
        s.unlink()
        s.unlink()   # second unlink must not raise

    def test_close_invalidates_views(self, tiny_ds):
        s = SharedFeatureStore.create(tiny_ds)
        s.close()
        with pytest.raises(ProtocolError):
            s.features
        s.unlink()

    def test_gc_finalizer_unlinks_leaked_owner(self, tiny_ds):
        """Dropping the last reference without close/unlink must still
        destroy the segment (the last-resort guard)."""
        import gc
        before = _segment_paths()
        s = SharedFeatureStore.create(tiny_ds)
        name = s.manifest.segment
        del s
        gc.collect()
        assert _segment_paths() == before
        assert not os.path.exists("/dev/shm/" + name)


#: The ``tiny_ds`` dataset's arguments, for twins built per test.
TINY = dict(num_vertices=400, feature_dim=12, num_classes=4,
            avg_degree=8.0, seed=7)
DATASET_ARRAYS = ("features", "labels", "indptr", "indices")


def _dataset_arrays(ds) -> dict[str, np.ndarray]:
    return {"features": ds.features, "labels": ds.labels,
            "indptr": ds.graph.indptr, "indices": ds.graph.indices}


class TestViewsOutliveClose:
    """Every array the store hands out keeps the store's mapping
    alive: ``close()`` drops the store's views and never unmaps under a
    live one."""

    def test_view_held_past_close_and_unlink_reads_the_segment(self):
        """In a child interpreter, so an unmapped read shows as a
        signal (-11), not as this suite dying."""
        script = """
import gc
import numpy as np
from repro.graph.datasets import tiny_dataset
from repro.runtime.shm import SharedFeatureStore
ds = tiny_dataset(**%r)
store = SharedFeatureStore.create(ds)
held, slab = store.features, store.train_ids
store.close()
store.close()
store.unlink()
del store
gc.collect()
churn = [np.ones(1 << 16) for _ in range(64)]
assert np.array_equal(held, ds.features)
assert np.array_equal(slab, ds.train_ids)
print("read", held.shape)
""" % (TINY,)
        src = Path(__file__).parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
        assert "read" in proc.stdout
        assert "Exception ignored" not in proc.stderr


class TestAdopt:
    """``adopt`` moves a dataset into the segment: its features,
    labels and CSR become read-only views of it, the private arrays
    go, and the views stay readable after the store is gone."""

    def test_dataset_lives_once_in_the_segment(self):
        ds = tiny_dataset(**TINY)
        before = {k: weakref.ref(a)
                  for k, a in _dataset_arrays(ds).items()}
        s = SharedFeatureStore.create(ds)
        try:
            s.adopt(ds)
            gc.collect()
            for key, arr in _dataset_arrays(ds).items():
                assert np.shares_memory(arr, getattr(s, key)), key
                assert not arr.flags.writeable, key
                assert before[key]() is None, f"private {key} lives on"
            with pytest.raises(ValueError):
                ds.features[0, 0] = 1.0
        finally:
            s.close()
            s.unlink()
        twin = tiny_dataset(**TINY)
        for key, arr in _dataset_arrays(ds).items():
            np.testing.assert_array_equal(arr, _dataset_arrays(twin)[key])
            assert arr.dtype == _dataset_arrays(twin)[key].dtype

    def test_a_second_store_copies_from_the_adopted_views(self):
        """open → close → open: the next segment is filled from the
        unlinked one, which goes once the dataset adopts the next."""
        ds = tiny_dataset(**TINY)
        first = SharedFeatureStore.create(ds)
        first.adopt(ds)
        first.close()
        first.unlink()
        old = weakref.ref(ds.features)
        with SharedFeatureStore.create(ds) as second:
            second.adopt(ds)
            assert old() is None
            assert np.shares_memory(ds.features, second.features)
        twin = tiny_dataset(**TINY)
        np.testing.assert_array_equal(ds.features, twin.features)
        np.testing.assert_array_equal(ds.graph.indices,
                                      twin.graph.indices)
