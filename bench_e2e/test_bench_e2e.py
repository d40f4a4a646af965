"""Self-test of the benchmark: every workload's smoke pass, in
process, against the declaration in ``BENCHMARK.json``."""

from __future__ import annotations

import json
import re

import pytest

from bench_e2e.run import ROOT, emit, load_spec, run_workload

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_declaration_shape():
    assert WORKLOADS == ["train-hybrid", "train-procs", "train-wide",
                         "serve-open"]
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        "setup_s", "op_p50_ms", "targets_per_s", "peak_rss_mb"]
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("lower", "higher")
    for path in SPEC["paths"]:
        assert (ROOT / path).is_dir()
    assert not any(part.startswith(("/", "..")) for part in
                   SPEC["command"])


@pytest.mark.parametrize("trace", [False, True],
                         ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_matches_declaration(workload, trace, tmp_path, capsys):
    spans = tmp_path / "spans.json"
    result = run_workload(workload, seed=1, seconds=0.0, trace=trace,
                          smoke=True, spans_path=str(spans))
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert got["value"] == got["value"]          # not NaN
    if trace:
        rows = json.loads(spans.read_text())
        assert rows and {"name", "start", "end", "parent", "op"} \
            <= set(rows[0])
        assert result["metrics"]["trace.closure_pct"]["value"] > 50
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert not spans.exists()

    # The printed form: every metric by name with its unit, and the
    # contract's result object as the last line.
    emit(workload, result, trace)
    lines = capsys.readouterr().out.splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    for m in declared:
        assert any(line.split()[:1] == [m["name"]] and
                   line.split()[-1] == m["unit"] for line in lines)
