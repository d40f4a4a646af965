"""Table IV — FPGA hardware parameters and resource utilization.

Reproduces the paper's design point (n=8, m=2048) and sweeps neighboring
configurations to show the DSP wall the paper's sizing sits against.
"""

import pytest

from repro.bench.harness import format_table
from repro.hw.cost_models import fpga_resource_utilization


def test_table4_fpga_resource_utilization(show, benchmark):
    points = [(4, 1024), (8, 1024), (8, 2048), (16, 2048), (8, 4096)]
    rows = []
    for n, m in points:
        u = fpga_resource_utilization(n, m)
        rows.append((f"({n}, {m})", f"{u.luts:.0%}", f"{u.dsps:.0%}",
                     f"{u.uram:.0%}", f"{u.bram:.0%}",
                     "yes" if u.feasible() else "NO"))
    show(format_table(
        "Table IV - FPGA parallelism and resource utilization (U250)",
        ["(n, m)", "LUTs", "DSPs", "URAM", "BRAM", "fits"], rows,
        notes=["paper design point (8, 2048): 72% / 90% / 48% / 40%"]))

    u = fpga_resource_utilization(8, 2048)
    assert abs(u.luts - 0.72) < 0.03
    assert abs(u.dsps - 0.90) < 0.03
    assert abs(u.uram - 0.48) < 0.03
    assert abs(u.bram - 0.40) < 0.03
    # Doubling the systolic array must blow the DSP budget.
    assert not fpga_resource_utilization(8, 4096).feasible()

    benchmark(lambda: fpga_resource_utilization(8, 2048))
