"""The schema codec's exceptions that the golden digests cannot see."""

from repro.graphs.digraph import DiGraph
from repro.obs.tracing import Span
from repro.patterns.framework import AnalysisTrace, StageTrace
from repro.patterns.result import TaskParallelism
from repro.patterns.schema import dataclass_from_dict, dataclass_to_dict


def test_key_order_dicts_are_written_sorted():
    # the golden digests leave out spans, and the registry and corpus
    # documents build most of these dicts in key order already
    tp = TaskParallelism(
        region=1, cus=[], graph=DiGraph(), marks={2: "worker", 1: "fork"},
        barrier_inputs={3: [2], 1: []}, parallel_barriers=[],
        total_instructions=0, critical_path_instructions=0,
        weights={2: 1.0, 1: 2.0},
    )
    doc = dataclass_to_dict(tp)
    assert doc["marks"] == [[1, "fork"], [2, "worker"]]
    assert doc["barrier_inputs"] == [[1, []], [3, [2]]]
    assert doc["weights"] == [[1, 2.0], [2, 1.0]]
    trace = AnalysisTrace(
        stages=[StageTrace("d", "s", counters={"b": 1, "a": 2})],
        spans=[Span("x", 1, attrs={"b": 1, "a": 2})],
    )
    doc = dataclass_to_dict(trace)
    assert doc["stages"][0]["counters"] == [["a", 2], ["b", 1]]
    assert doc["spans"][0]["attrs"] == [["a", 2], ["b", 1]]
    assert dataclass_from_dict(AnalysisTrace, doc) == trace
