"""Backend results are invariant to the kernel implementation.

The kernels' exactness contract (``docs/kernels.md``) says
:mod:`repro.kernels.fast` is bit-identical to the
:mod:`repro.kernels.reference` oracle on every training-path op. These
tests hold the *backends* to it: the same session run on either
implementation — on the flagship hybrid + DRM + int8 conformance case,
where the accelerator load encodes the wire table and gathers and
decodes its codes — must produce the same trajectory bit for bit. This is what licenses
shipping the fast kernels without perturbing any previously recorded
result.

The oracle is substituted test-side: the ``reference_kernels`` fixture
points each ``fast.<op>`` at its ``reference`` twin before the backend
is built. The dispatchers look the op up at call time, and forked
process-plane workers inherit the substitution.
"""

import numpy as np
import pytest

from backend_conformance import CONFORMANCE_CASES, run_backend
from repro.kernels import KernelCounters, fast, reference, scoped_counters

#: The flagship case: hybrid CPU+accel split, DRM, int8 PCIe transfer
#: — the row gather, the table's encode and the codes' gather and
#: decode on the hot path.
_FLAGSHIP = CONFORMANCE_CASES[0]

#: Lock-step backends owing bit-parity; the statistical-tier planes are
#: covered transitively (their conformance suite already runs on the
#: fast kernels against the virtual reference).
_STRICT_BACKENDS = ("virtual", "threaded", "process")

_OPS = ("gather", "encode", "decode")


@pytest.fixture()
def reference_kernels(monkeypatch):
    """Call to route every dispatcher to the reference oracle for the
    rest of the test."""
    def use():
        for op in _OPS:
            monkeypatch.setattr(fast, op, getattr(reference, op))
    return use


def _run(name, dataset):
    session, report = run_backend(name, _FLAGSHIP, dataset)
    params = [t.model.get_flat_params() for t in session.trainers]
    return report, params


@pytest.mark.parametrize("backend_name", _STRICT_BACKENDS)
def test_fast_tier_is_bit_identical_to_reference(backend_name, tiny_ds,
                                                 reference_kernels):
    cand, cand_params = _run(backend_name, tiny_ds)
    reference_kernels()
    ref, ref_params = _run(backend_name, tiny_ds)
    assert cand.iterations == ref.iterations
    np.testing.assert_array_equal(ref.losses, cand.losses)
    np.testing.assert_array_equal(ref.accuracies, cand.accuracies)
    assert cand.total_edges == ref.total_edges
    assert ref.split_history == cand.split_history
    for rp, cp in zip(ref_params, cand_params):
        np.testing.assert_array_equal(rp, cp)


def test_fast_tier_conformance_against_reference_tier_oracle(
        tiny_ds, reference_kernels):
    """Cross-kernel cross-backend: a process run on the fast kernels
    reproduces the virtual reference run on the reference oracle — the
    full conformance claim in one assertion path."""
    cand, cand_params = _run("process", tiny_ds)
    reference_kernels()
    ref, ref_params = _run("virtual", tiny_ds)
    np.testing.assert_array_equal(ref.losses, cand.losses)
    for rp, cp in zip(ref_params, cand_params):
        np.testing.assert_array_equal(rp, cp)


def test_kernel_stats_reported_across_planes(tiny_ds):
    """Every plane's report carries the kernel-traffic counts, and the
    process plane's totals come from the workers (nonzero gather
    traffic, while the parent thread gathered nothing itself)."""
    parent = KernelCounters()
    with scoped_counters(parent):
        _, report = run_backend("process", _FLAGSHIP, tiny_ds)
    # Every batch gathers; the accel replicas decode the segment's
    # wire table (int8) and never encode.
    assert report.kernel_stats.get("gather_rows", 0) > 0
    assert report.kernel_stats.get("decode_calls", 0) > 0    # int8 accel
    assert "encode_calls" not in report.kernel_stats
    assert report.kernel_stats.get("payload_bytes", 0) > 0
    # Stats crossed the pipe: the parent only encoded the table.
    assert parent.snapshot() == {"encode_calls": 1}
