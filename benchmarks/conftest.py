"""Shared helpers for the benchmark harness.

Every ``bench_*.py`` file regenerates one paper table or figure. The
rendered tables are printed through ``show``, which bypasses pytest
capture so they appear in ``pytest benchmarks/ --benchmark-only``
output.
"""

from __future__ import annotations

import pytest


@pytest.fixture()
def show(capsys):
    """Print a rendered table through the capture barrier."""

    def _show(text: str) -> None:
        with capsys.disabled():
            print("\n" + text)

    return _show
