"""Unit + property tests for the kernels (:mod:`repro.kernels`).

Three layers of guarantee:

* **dispatch** — input validation, bounds errors, and the dispatchers
  calling ``fast.<op>`` looked up at call time (no tier machinery);
* **exactness** (hypothesis) — the fast kernels match their reference
  twins *bit for bit* for gather, encode and decode, the decoded codes
  times their scales match the oracle's ``quantize`` round trip, and
  so does the one load path,
  :meth:`~repro.runtime.stage_pipeline.StagePipeline.load` (a
  wire-table decode for a lossy accelerator load, a plain gather
  otherwise), and the split transfer stage (gather, then encode and
  decode), including empty batches, duplicate and negative indices,
  non-contiguous feature stores, float32 and float64 storage;
* **accounting** — fresh load arrays and the traffic counters the
  backends attach to their reports.
"""

import importlib.util
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.errors import ConfigError
from repro.kernels import (
    KernelCounters,
    fast,
    merge_counts,
    payload_bytes,
    reference,
    scoped_counters,
)
from repro.runtime.stage_pipeline import StagePipeline

common_settings = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

MODES = ("fp32", "fp16", "int8")

LOSSY = ("fp16", "int8")


def _counted(fn) -> dict[str, int]:
    """The kernel counters ``fn()`` records on this thread."""
    bag = KernelCounters()
    with scoped_counters(bag):
        fn()
    return bag.snapshot()


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


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

#: Everything ``repro.kernels`` exports: the dispatchers and their
#: accounting, the two implementation modules — and no tier registry,
#: selection override, environment knob or fallback ladder.
_PUBLIC = {"TRANSFER_BYTES", "payload_bytes", "gather_rows",
           "WireRows", "encode", "gather_wire", "decode",
           "fast", "reference", "KernelCounters", "record",
           "scoped_counters", "merge_counts"}


class TestDispatch:
    def test_one_implementation_per_op(self, monkeypatch):
        assert set(kernels.__all__) == _PUBLIC
        assert importlib.util.find_spec("repro.kernels.numba_tier") \
            is None
        # No tier is resolved: the dispatcher calls whatever
        # ``fast.gather`` is when it runs.
        sentinel = np.full((2, 3), 7.0)
        monkeypatch.setattr(fast, "gather",
                            lambda features, index: sentinel)
        assert kernels.gather_rows(np.zeros((4, 3)),
                                   np.array([0, 1])) is sentinel

    @pytest.mark.parametrize("op, dispatch", [
        ("gather", lambda x: kernels.gather_rows(x, np.array([0, 1]))),
        ("encode", lambda x: kernels.encode(x, "int8").codes),
        ("decode", lambda x: kernels.decode(kernels.encode(x, "int8"))[0]),
    ])
    def test_dispatcher_looks_fast_up_at_call_time(self, monkeypatch, op,
                                                   dispatch):
        # The substitution the backend-level bit-identity tests rely on:
        # every dispatcher reaches ``fast.<op>`` through the module, so
        # patching the attribute reroutes it — arguments unchanged.
        x = np.arange(12.0).reshape(4, 3)
        seen = []

        def spy(*args, **kwargs):
            seen.append(args)
            return getattr(reference, op)(*args, **kwargs)

        monkeypatch.setattr(fast, op, spy)
        got = dispatch(x)
        assert len(seen) == 1
        monkeypatch.undo()
        np.testing.assert_array_equal(dispatch(x), got)

    def test_validation_errors(self):
        with pytest.raises(ConfigError, match="2-D"):
            kernels.gather_rows(np.zeros(4), np.array([0]))
        with pytest.raises(ConfigError, match="transfer precision"):
            kernels.encode(np.zeros((2, 2)), "int4")
        with pytest.raises(ConfigError, match="transfer precision"):
            payload_bytes("int4", 2, 2)

    def test_out_of_bounds_index_raises_on_both_tiers(self):
        feats = np.zeros((4, 3))
        for gather in (reference.gather, fast.gather):
            with pytest.raises(IndexError):
                gather(feats, np.array([0, 4]))
            with pytest.raises(IndexError):
                gather(feats, np.array([-5]))


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
        assert got.dtype == want.dtype == feats.dtype   # no widen
        np.testing.assert_array_equal(want, got)


def _assert_wire_twins(x, mode):
    """``fast`` and ``reference`` encode and decode ``x`` bit for bit
    alike, and the decoded codes times their scales are the oracle's
    round trip."""
    codes, scales = fast.encode(x, mode)
    want_codes, want_scales = reference.encode(x, mode)
    assert codes.dtype == want_codes.dtype
    np.testing.assert_array_equal(want_codes, codes)
    if mode == "fp16":
        assert scales is None and want_scales is None
    else:
        assert scales.dtype == want_scales.dtype == x.dtype
        np.testing.assert_array_equal(want_scales, scales)
    rows = fast.decode(codes, x.dtype)
    np.testing.assert_array_equal(reference.decode(codes, x.dtype), rows)
    if scales is not None:
        rows *= scales
    assert rows.dtype == x.dtype                 # dtype preservation
    np.testing.assert_array_equal(reference.quantize(x, mode), rows)


class TestWireExactness:
    @common_settings
    @given(quantize_inputs(), st.sampled_from(LOSSY))
    def test_fast_matches_reference_bitwise(self, x, mode):
        _assert_wire_twins(x, mode)

    def test_tie_rounding_and_clip_order(self):
        # 127.5/absmax boundaries: round-then-clip must match the
        # reference on exact ties (bankers' rounding at ±.5).
        x = np.array([[127.5, -127.5, 254.0, -254.0, 1.0]],
                     dtype=np.float64) / 254.0 * 2.0
        _assert_wire_twins(x, "int8")

    @pytest.mark.parametrize("mode", LOSSY)
    def test_zero_and_subnormal_scale_rows(self, mode):
        x = np.random.default_rng(7).standard_normal(
            (3, 4)).astype(np.float32)
        x[0] = 0.0
        x[2] *= np.finfo(np.float32).tiny * 50     # absmax / 127 < tiny
        _assert_wire_twins(x, mode)
        assert not fast.encode(x, mode)[0][0].any()

    @pytest.mark.parametrize("encode", [fast.encode, reference.encode],
                             ids=["fast", "reference"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_int8_row_raises_on_both_tiers(self, encode, bad):
        x = np.ones((4, 3), dtype=np.float32)
        x[2, 1] = bad
        with pytest.raises(ConfigError, match="row 2 is not finite"):
            encode(x, "int8")


def _load(feats, idx, mode, kind="accel"):
    """One batch through the single load path."""
    return StagePipeline(None, feats, None, mode).load(
        SimpleNamespace(input_nodes=idx), kind)


class TestLoadExactness:
    """``StagePipeline.load`` — the wire table's gathered codes,
    decoded, for a lossy accelerator load — is the reference gather →
    quantize composition, bit for bit, at every precision."""

    @pytest.mark.parametrize("mode", MODES)
    @common_settings
    @given(case=gather_cases())
    def test_load_matches_reference_composition(self, case, mode):
        feats, idx = case
        want = reference.quantize(reference.gather(feats, idx), mode)
        for _ in range(2):                    # cold + steady state
            got = _load(feats, idx, mode)
            assert got.dtype == want.dtype == feats.dtype   # no widen
            np.testing.assert_array_equal(want, got)

    @pytest.mark.parametrize("mode", MODES)
    def test_transfer_leaves_its_input(self, mode):
        """Lossy accelerator rows come back decoded into a fresh array
        and the rows handed over stay as they were; fp32 and the CPU
        trainer's rows pass through as they are."""
        rows = np.random.default_rng(1).standard_normal(
            (6, 5)).astype(np.float32)
        pipe = StagePipeline(None, rows, None, mode)
        x0 = rows.copy()
        got = pipe.transfer(x0, "accel")
        np.testing.assert_array_equal(got, reference.quantize(rows, mode))
        np.testing.assert_array_equal(x0, rows)
        assert (got is x0) == (mode == "fp32")
        assert pipe.wire_table is None            # no store table
        assert pipe.transfer(x0, "cpu") is x0


# ---------------------------------------------------------------------------
# Counters & traffic accounting
# ---------------------------------------------------------------------------

class TestCounters:
    def test_gather_counts_bytes(self):
        feats = np.ones((50, 10), dtype=np.float32)
        idx = np.arange(20)
        d = _counted(lambda: kernels.gather_rows(feats, idx))
        assert d["gather_calls"] == 1
        assert d["gather_rows"] == 20
        assert d["gather_src_bytes"] == 20 * 10 * 4
        assert d["gather_out_bytes"] == 20 * 10 * 4     # store dtype

    def test_load_counts_wire_gather_plus_decode_payload(self):
        feats = np.ones((50, 10), dtype=np.float32)
        idx = np.arange(20)
        d = _counted(lambda: _load(feats, idx, "int8"))
        assert d["encode_calls"] == d["gather_calls"] == \
            d["decode_calls"] == 1
        assert d["gather_rows"] == 20
        assert d["gather_src_bytes"] == d["payload_bytes"] == \
            20 * 10 * 1 + 20 * 4
        assert "quantize_calls" not in d

    def test_transfer_counts_an_encode_and_the_decoded_payload(self):
        x = np.ones((6, 5), dtype=np.float32)
        pipe = StagePipeline(None, x, None, "fp16")
        d = _counted(lambda: pipe.transfer(x, "accel"))
        assert d == {"encode_calls": 1, "decode_calls": 1,
                     "payload_bytes": 6 * 5 * 2}

    def test_scoped_counters_see_only_this_threads_dispatches(self):
        mine = KernelCounters()
        feats = np.ones((8, 2))
        other = threading.Thread(
            target=kernels.gather_rows, args=(feats, np.arange(5)))
        with scoped_counters(mine):
            kernels.gather_rows(feats, np.arange(3))
            other.start()
            other.join()
        kernels.gather_rows(feats, np.arange(4))      # after the scope
        assert mine.snapshot()["gather_calls"] == 1
        assert mine.snapshot()["gather_rows"] == 3

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

    def test_pipeline_gather_allocates_fresh_arrays(self):
        """``StagePipeline.gather`` returns a fresh array per call."""
        feats = np.random.default_rng(0).standard_normal(
            (30, 6)).astype(np.float32)
        pipe = StagePipeline(None, feats, None, "fp32")
        mb = SimpleNamespace(input_nodes=np.arange(12))
        a, b = pipe.gather(mb), pipe.gather(mb)
        assert a.base is None and b.base is None and a is not b


# ---------------------------------------------------------------------------
# Allocation: every load returns a fresh array that it owns
# ---------------------------------------------------------------------------

def _assert_owned(got, *others):
    """``got`` owns its memory, is writable, and shares none with
    ``others`` (the store it was read from, earlier results)."""
    assert got.base is None and got.flags.owndata
    assert got.flags.writeable
    for other in others:
        assert not np.shares_memory(got, other)


class TestFreshLoads:
    @pytest.mark.parametrize("kind", ["accel", "cpu"])
    @pytest.mark.parametrize("mode", MODES)
    def test_load_returns_an_array_it_owns(self, mode, kind):
        """Two loads of one batch are independent arrays: writing one
        leaves the store and the other load untouched."""
        feats = np.random.default_rng(2).standard_normal(
            (20, 5)).astype(np.float32)
        store = feats.copy()
        idx = np.array([4, 4, -1, 0, 7])
        first = _load(feats, idx, mode, kind)
        second = _load(feats, idx, mode, kind)
        _assert_owned(first, feats)
        _assert_owned(second, feats, first)
        want = second.copy()
        first[...] = np.nan
        np.testing.assert_array_equal(feats, store)
        np.testing.assert_array_equal(second, want)

    @pytest.mark.parametrize("op", ["gather_rows", "gather_wire",
                                    "decode"])
    def test_dispatched_loads_return_fresh_arrays(self, op):
        """The load kernels allocate their destination; none hands
        back a view of its input, and a read-only source yields a
        writable result."""
        feats = np.random.default_rng(3).standard_normal(
            (12, 4)).astype(np.float32)
        feats.flags.writeable = False
        idx = np.array([1, 1, 5, -2])
        table = kernels.encode(feats, "int8")
        if op == "gather_rows":
            src = feats
            results = [kernels.gather_rows(feats, idx) for _ in range(2)]
        elif op == "gather_wire":
            src = table.codes
            results = [kernels.gather_wire(table, idx).codes
                       for _ in range(2)]
        else:
            wire = kernels.gather_wire(table, idx)
            src = wire.codes
            results = [kernels.decode(wire)[0] for _ in range(2)]
        _assert_owned(results[0], src)
        _assert_owned(results[1], src, results[0])


# ---------------------------------------------------------------------------
# The dispatch surface against the reference oracle
# ---------------------------------------------------------------------------

class TestDispatchMatchesReference:
    """The chokepoints must produce bit-identical results to the
    reference composition — this is what lets the fast kernels serve
    every backend without perturbing any trajectory."""

    @common_settings
    @given(gather_cases(), st.sampled_from(MODES))
    def test_split_stages_across_tiers(self, case, mode):
        feats, idx = case
        pipe = StagePipeline(None, feats, None, mode)
        np.testing.assert_array_equal(
            reference.quantize(reference.gather(feats, idx), mode),
            pipe.transfer(kernels.gather_rows(feats, idx), "accel"))

    def test_round_trip_preserves_dtype(self):
        for dtype in (np.float32, np.float64):
            x = np.random.default_rng(3).standard_normal(
                (8, 5)).astype(dtype)
            for mode in MODES:
                pipe = StagePipeline(None, x, None, mode)
                assert reference.quantize(x, mode).dtype == dtype
                assert pipe.transfer(x, "accel").dtype == dtype
