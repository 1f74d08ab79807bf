"""Reporting tests: tables, DOT emission, and the full analysis report."""

import numpy as np
import pytest

from repro.patterns.engine import analyze
from repro.profiling import profile_run
from repro.reporting import (
    analysis_report,
    cu_graph_dot,
    format_table,
    pet_dot,
    trace_report,
)

from conftest import parsed


class TestFormatTable:
    def test_basic_shape(self):
        text = format_table(["a", "bb"], [[1, "x"], [22, "yy"]])
        lines = text.splitlines()
        assert lines[0].startswith("+")
        assert "| a" in lines[1]
        assert text.endswith("\n")

    def test_numeric_right_alignment(self):
        text = format_table(["n"], [[1], [100]])
        rows = [l for l in text.splitlines() if l.startswith("| ")][1:]
        # right-aligned: the last digit of each value ends at the same column
        ends = [row[:-1].rstrip().__len__() for row in rows]
        assert ends[0] == ends[1]

    def test_floats_two_decimals(self):
        text = format_table(["v"], [[3.14159]])
        assert "3.14" in text and "3.142" not in text

    def test_title(self):
        text = format_table(["a"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows_ok(self):
        text = format_table(["a"], [])
        assert "| a" in text


class TestDot:
    def fib_task(self, fib_program):
        result = analyze(fib_program, "fib", [[10]])
        return result.tasks[fib_program.function("fib").region_id]

    def test_cu_graph_dot_structure(self, fib_program):
        task = self.fib_task(fib_program)
        dot = cu_graph_dot(task)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        for cu in task.cus:
            assert f"cu{cu.cu_id}" in dot
        assert "->" in dot

    def test_cu_graph_marks_in_labels(self, fib_program):
        dot = cu_graph_dot(self.fib_task(fib_program))
        assert "fork" in dot and "worker" in dot and "barrier" in dot

    def test_control_edges_dashed(self, fib_program):
        dot = cu_graph_dot(self.fib_task(fib_program))
        assert "style=dashed" in dot

    def test_pet_dot(self):
        prog = parsed(
            """\
void inner(float A[], int n) {
    for (int i = 0; i < n; i++) { A[i] = 1.0; }
}
void f(float A[], int n) {
    for (int t = 0; t < 2; t++) { inner(A, n); }
}
"""
        )
        profile, _ = profile_run(prog, "f", [np.zeros(4), 4])
        dot = pet_dot(profile.pet)
        assert dot.startswith("digraph")
        assert "trips=" in dot
        assert "calls=" in dot

    def test_pet_dot_marks_recursion(self, fib_program):
        profile, _ = profile_run(fib_program, "fib", [8])
        assert "(recursive)" in pet_dot(profile.pet)


class TestAnalysisReport:
    def test_report_sections(self, pipeline_program):
        result = analyze(
            pipeline_program, "kernel", [[np.ones(32), np.zeros(32), 32]]
        )
        text = analysis_report(result)
        assert "Primary pattern: Multi-loop pipeline" in text
        assert "Hotspots" in text
        assert "Eq. 1-2" in text
        assert "Annotated source" in text

    def test_report_without_source(self, pipeline_program):
        result = analyze(
            pipeline_program, "kernel", [[np.ones(32), np.zeros(32), 32]]
        )
        text = analysis_report(result, include_source=False)
        assert "Annotated source" not in text

    def test_report_task_section(self, fib_program):
        result = analyze(fib_program, "fib", [[10]])
        text = analysis_report(result)
        assert "Task parallelism in fib" in text
        assert "estimated speedup" in text

    def test_report_reduction_section(self, reduction_program):
        result = analyze(reduction_program, "total", [[np.ones(32), 32]])
        text = analysis_report(result)
        assert "Reduction in" in text
        assert "'sum'" in text

    def test_supporting_structure_shown(self, reduction_program):
        result = analyze(reduction_program, "total", [[np.ones(32), 32]])
        text = analysis_report(result)
        assert "SPMD" in text


class TestTraceReport:
    """Each rejected candidate states the relation its observed value
    actually has to the threshold."""

    # two sweeps both feed the accumulating loop: two pipeline sources
    NORMDOT = """\
float normdot(float A[], float B[], float SA[], float SB[], int n) {
    for (int i = 0; i < n; i++) {
        SA[i] = A[i] / (fabs(A[i]) + 1.0);
    }
    for (int j = 0; j < n; j++) {
        SB[j] = B[j] / (fabs(B[j]) + 1.0);
    }
    float dot = 0.0;
    for (int k = 0; k < n; k++) {
        dot += SA[k] * SB[k];
    }
    return dot;
}
"""

    @pytest.fixture(scope="class")
    def lines(self):
        n = 64
        result = analyze(
            parsed(self.NORMDOT),
            "normdot",
            [[np.ones(n), np.ones(n), np.zeros(n), np.zeros(n), n]],
        )
        return trace_report(result).splitlines()

    def test_multi_source_pipeline_rejection(self, lines):
        assert (
            "  rejected pipeline [for@2 -> for@9]: multi-source-consumer "
            "(2 > SINGLE_SOURCE=1) — loop 3 consumes [1, 2]"
        ) in lines

    def test_no_skew_wavefront_rejection(self, lines):
        assert (
            "  rejected wavefront [for@2 -> for@9]: no-skew-offset "
            "(0 == MAX_SKEW_INTERCEPT=0) — b=0.000 >= 0: plain pipeline, not skewed"
        ) in lines
