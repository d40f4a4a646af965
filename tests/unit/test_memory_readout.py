"""``benchmarks/memory_readout.py --smoke``: per process preset, one
parent row, one row per worker and a ``sum`` row, each with a number
per column, the sums adding up."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parents[2] / "benchmarks" / "memory_readout.py"
PRESETS = {"process", "process_sampling", "process_pipelined", "sharded"}
COLUMNS = ["VmHWM", "RssAnon", "RssShmem", "Pss_Anon", "Pss_Shmem"]


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps_rollup"),
                    reason="needs /proc/<pid>/smaps_rollup")
def test_smoke_table_parses():
    out = subprocess.run([sys.executable, str(SCRIPT), "--smoke"],
                         capture_output=True, text=True, check=True,
                         timeout=180).stdout.splitlines()
    assert out[0].split() == ["backend", "role", "pid"] + COLUMNS
    table: dict[str, dict[str, list[float]]] = {}
    for line in out[1:]:
        backend, role, pid, *values = line.split()
        assert len(values) == len(COLUMNS), line
        assert pid.isdigit() or role == "sum", line
        table.setdefault(backend, {})[role] = [float(v) for v in values]
    assert set(table) == PRESETS
    for backend, rows in table.items():
        # The smoke fixture trains on two workers.
        assert set(rows) == {"parent", "worker0", "worker1", "sum"}
        procs = [v for role, v in rows.items() if role != "sum"]
        assert all(v[0] > 0 for v in procs), backend      # VmHWM
        for col, name in enumerate(COLUMNS):
            assert rows["sum"][col] == pytest.approx(
                sum(v[col] for v in procs), abs=0.2), (backend, name)
