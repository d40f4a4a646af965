"""``benchmarks/drm_readout.py --smoke``: one row per run, DRM on and
off alternating first, every number parsed, each split conserving the
per-iteration total, then a median row per side and the pair verdict."""

import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parents[2] / "benchmarks" / "drm_readout.py"
HEADER = ["pair", "drm", "epoch_ms", "minflt", "sys_ms", "split"]


def test_smoke_table_parses():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--smoke", "--pairs", "2"],
        capture_output=True, text=True, check=True,
        timeout=180).stdout.splitlines()
    assert out[0].split() == HEADER
    runs = [line.split() for line in out[1:5]]
    assert [(pair, drm) for pair, drm, *_ in runs] == [
        ("0", "on"), ("0", "off"), ("1", "off"), ("1", "on")]
    sides: dict[str, list[list[float]]] = {"on": [], "off": []}
    totals = set()
    for _, drm, *values, split in runs:
        numbers = [float(v) for v in values]
        assert numbers[0] > 0 and min(numbers) >= 0, values
        sides[drm].append(numbers)
        totals.add(sum(int(q) for q in split.split("/")))
    assert len(totals) == 1          # DRM moves quota, never the total
    for line, drm in zip(out[5:7], ("on", "off")):
        label, side, *values, split = line.split()
        assert (label, side, split) == ("median", drm, "-")
        for col, value in enumerate(values):
            assert float(value) == pytest.approx(statistics.median(
                run[col] for run in sides[drm]), abs=0.11)
    verdict = re.fullmatch(
        r"DRM on faster in (\d) of 2 pairs; median gain -?\d+\.\d %",
        out[7])
    assert verdict and int(verdict.group(1)) <= 2
    assert len(out) == 8
