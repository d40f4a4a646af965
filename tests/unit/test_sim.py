"""Unit tests for the sim package (pipeline engine, trace)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.engine import PipelineSimulator
from repro.sim.trace import Span, Timeline, render_gantt


def _stage_spans(sim, rows):
    """Per stage, in pipeline order: ``(start, finish)`` arrays indexed
    by iteration, read off the simulated timeline's spans."""
    spans = sim.run(rows).spans
    out = []
    for name in sim.stage_names:
        own = sorted((s for s in spans if s.stage == name),
                     key=lambda s: s.iteration)
        out.append((np.array([s.start for s in own]),
                    np.array([s.end for s in own])))
    return out


class TestSpansTimeline:
    def test_span_validation(self):
        with pytest.raises(SimulationError):
            Span("s", 0, 1.0, 0.5)

    def test_timeline_aggregates(self):
        t = Timeline([Span("a", 0, 0.0, 1.0), Span("b", 0, 1.0, 3.0),
                      Span("a", 1, 1.0, 2.0)])
        assert t.makespan == 3.0
        busy = t.stage_busy_time()
        assert busy == {"a": 2.0, "b": 2.0}
        assert t.bottleneck_stage() in ("a", "b")
        assert len(t.iteration_spans(0)) == 2
        assert t.stage_durations("a") == [1.0, 1.0]

    def test_empty_timeline(self):
        t = Timeline()
        assert t.makespan == 0.0
        assert t.bottleneck_stage() is None
        assert render_gantt(t) == "(empty timeline)"

    def test_render_gantt(self):
        t = Timeline([Span("sample", 0, 0.0, 0.001),
                      Span("train", 0, 0.001, 0.002)])
        text = render_gantt(t)
        assert "sample" in text and "train" in text and "#" in text


class TestPipelineSimulator:
    def test_serialized_is_sum(self):
        sim = PipelineSimulator(["a", "b"], prefetch_depth=0)
        rows = [[1.0, 2.0]] * 3
        assert sim.makespan(rows) == pytest.approx(9.0)

    def test_pipelined_steady_state_is_max(self):
        sim = PipelineSimulator(["a", "b", "c"], prefetch_depth=4)
        rows = [[1.0, 3.0, 2.0]] * 20
        # fill (1 + 3 + 2) + 19 * max(3) ≈ 63; exact: a and c hide
        # behind b after fill.
        makespan = sim.makespan(rows)
        assert makespan == pytest.approx(1.0 + 20 * 3.0 + 2.0)

    def test_pipelined_beats_serialized(self):
        rows = [[1.0, 1.5, 0.5]] * 10
        piped = PipelineSimulator(["a", "b", "c"], 2).makespan(rows)
        serial = PipelineSimulator(["a", "b", "c"], 0).makespan(rows)
        assert piped < serial

    def test_depth_one_limits_overlap(self):
        rows = [[1.0, 1.0]] * 10
        d1 = PipelineSimulator(["a", "b"], 1).makespan(rows)
        d4 = PipelineSimulator(["a", "b"], 4).makespan(rows)
        assert d4 <= d1

    def test_data_dependency_ordering(self):
        sim = PipelineSimulator(["a", "b"], 2)
        (a_start, a_finish), (b_start, _) = _stage_spans(
            sim, [[1.0, 1.0], [1.0, 1.0]])
        # b of iteration i starts only after a of iteration i finished.
        assert (b_start >= a_finish - 1e-12).all()
        # stage busy: no overlapping executions within one stage.
        assert (a_start[1:] >= a_finish[:-1] - 1e-12).all()

    def test_empty_and_invalid(self):
        sim = PipelineSimulator(["a"], 1)
        assert sim.makespan([]) == 0.0
        with pytest.raises(SimulationError):
            sim.run([[1.0, 2.0]])          # wrong width
        with pytest.raises(SimulationError):
            sim.run([[-1.0]])
        with pytest.raises(SimulationError):
            PipelineSimulator([], 1)
        with pytest.raises(SimulationError):
            PipelineSimulator(["a"], -1)

    def test_variable_durations_straggler(self):
        sim = PipelineSimulator(["a", "b"], 2)
        rows = [[0.1, 1.0], [0.1, 5.0], [0.1, 1.0]]
        # The straggler in iteration 1 delays iteration 2's b stage.
        tl = sim.run(rows)
        b_spans = sorted((s for s in tl.spans if s.stage == "b"),
                         key=lambda s: s.iteration)
        assert b_spans[2].start >= b_spans[1].end - 1e-12
