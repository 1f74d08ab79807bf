import pytest

import ladder
from spans import Recorder, self_times, totals_by_name, unattributed


def span(name, sid, parent, start, end):
    return {"name": name, "id": sid, "parent": parent, "start": start, "end": end, "attrs": {}}


# pass 0..10
#   runtime.execute   0..1      (probe phase)
#   runtime.emit_run  1..3
#   program 3..10               (pipeline phase)
#     lang.parse        3..4
#     profiling.profile 4..8
#       profiling.finish  7..7.5
#     patterns.detect   8..9.5
#       patterns.detector.tasks 8..9
#   (program self time: 9.5..10)
TREE = [
    span("pass", 1, None, 0.0, 10.0),
    span("runtime.execute", 2, 1, 0.0, 1.0),
    span("runtime.emit_run", 3, 1, 1.0, 3.0),
    span("program", 4, 1, 3.0, 10.0),
    span("lang.parse", 5, 4, 3.0, 4.0),
    span("profiling.profile", 6, 4, 4.0, 8.0),
    span("profiling.finish", 7, 6, 7.0, 7.5),
    span("patterns.detect", 8, 4, 8.0, 9.5),
    span("patterns.detector.tasks", 9, 8, 8.0, 9.0),
]


def test_self_time_subtracts_children_coverage():
    own = self_times(TREE)
    assert own[1] == pytest.approx(0.0)
    assert own[4] == pytest.approx(0.5)
    assert own[6] == pytest.approx(3.5)
    assert own[8] == pytest.approx(0.5)
    assert own[9] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    tree = [span("a", 1, None, 0.0, 4.0), span("b", 2, 1, 0.0, 2.0), span("c", 3, 1, 1.0, 3.0)]
    assert self_times(tree)[1] == pytest.approx(1.0)


def test_ladder_rows_and_unattributed_row():
    layers = ladder.layer_ms(TREE)
    assert layers["lang.parse_ms"] == pytest.approx(1000.0)
    assert layers["runtime.execute_ms"] == pytest.approx(1000.0)
    assert layers["runtime.emit_ms"] == pytest.approx(1000.0)
    # profiled run 4 s - drop-sink run 2 s - finish 0.5 s
    assert layers["profiling.fold_ms"] == pytest.approx(1500.0)
    assert layers["profiling.finish_ms"] == pytest.approx(500.0)
    # run_detectors outside the detectors, beside the detectors' own rows
    assert layers["patterns.detect_ms"] == pytest.approx(500.0)
    assert layers["patterns.detector.tasks_ms"] == pytest.approx(1000.0)
    rows = {row: layers[row] for row in ladder.ROW_SPANS}
    # parse 1 + profile 4 + detect 1.5: the probes count only through the ladder
    assert sum(rows.values()) == pytest.approx(6500.0)
    # an untraced pass of 6.8 s leaves 0.3 s that no layer accounts for
    assert unattributed(6800.0, rows) == pytest.approx(300.0)
    assert totals_by_name(TREE)["program"]["calls"] == 1


def test_recorder_writes_the_span_record_shape():
    rec = Recorder()
    with rec.span("outer", name="x"):
        with rec.span("inner"):
            pass
    inner, outer = rec.spans
    assert set(outer) == {"name", "id", "parent", "start", "end", "attrs"}
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["attrs"] == {"name": "x"}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
