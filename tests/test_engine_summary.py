"""Engine precedence and label tests (Table III's 'Detected Pattern')."""

import numpy as np

from repro.patterns.engine import (
    analyze,
    primary_pattern,
    region_share,
    summarize_patterns,
)

from conftest import parsed


def label_of(src, entry, args, **kw):
    prog = parsed(src)
    result = analyze(prog, entry, [args], **kw)
    return result, summarize_patterns(result)


class TestPrecedence:
    def test_fusion_beats_pipeline(self):
        _, label = label_of(
            """\
void f(float A[], float B[], int n) {
    for (int i = 0; i < n; i++) { A[i] = i * 1.0 + sqrt(i + 1.0); }
    for (int j = 0; j < n; j++) { B[j] = A[j] * 2.0 + sqrt(A[j] + 1.0); }
}
""",
            "f",
            [np.zeros(32), np.zeros(32), 32],
        )
        assert label == "Fusion"

    def test_pipeline_when_stage2_sequential(self):
        _, label = label_of(
            """\
void f(float A[], float B[], int n) {
    for (int i = 0; i < n; i++) { A[i] = i * 1.0 + sqrt(i + 1.0); }
    for (int j = 1; j < n; j++) { B[j] = B[j - 1] * 0.5 + A[j]; }
}
""",
            "f",
            [np.zeros(32), np.zeros(32), 32],
        )
        assert label == "Multi-loop pipeline"

    def test_tasks_when_loops_independent(self):
        _, label = label_of(
            """\
void f(float A[], float B[], int n) {
    for (int i = 0; i < n; i++) { A[i] = i * 1.0 + sqrt(i + 2.0); }
    for (int j = 0; j < n; j++) { B[j] = j * 2.0 + sqrt(j + 3.0); }
}
""",
            "f",
            [np.zeros(32), np.zeros(32), 32],
        )
        assert label == "Task parallelism + Do-all"

    def test_reduction_for_single_accumulating_loop(self):
        _, label = label_of(
            """\
float f(float A[], int n) {
    float s = 0.0;
    for (int i = 0; i < n; i++) {
        s += A[i] * A[i];
    }
    return s;
}
""",
            "f",
            [np.ones(32), 32],
        )
        assert label == "Reduction"

    def test_doall_for_plain_parallel_loop(self):
        _, label = label_of(
            "void f(float A[], int n) { for (int i = 0; i < n; i++) { A[i] = i * 1.0; } }",
            "f",
            [np.zeros(32), 32],
        )
        assert label == "Do-all"

    def test_none_for_sequential_program(self):
        _, label = label_of(
            "void f(float A[], int n) { for (int i = 1; i < n; i++) { A[i] = A[i - 1] + 1.0; } }",
            "f",
            [np.zeros(32), 32],
        )
        assert label == "None"

    def test_low_efficiency_pipeline_not_primary(self):
        # loop y's first read needs ALL of loop x: e ~ 0 -> fall through
        result, label = label_of(
            """\
void f(float A[], float B[], int n) {
    for (int i = 0; i < n; i++) { A[i] = i * 1.0; }
    for (int j = 0; j < n; j++) { B[j] = B[j] + A[n - 1 - j]; }
}
""",
            "f",
            [np.zeros(32), np.zeros(32), 32],
        )
        assert result.pipelines  # detected and reported...
        assert label != "Multi-loop pipeline"  # ...but not the primary label


class TestGrainGuard:
    def test_statement_level_tasks_rejected(self):
        # two independent accumulations inside an innermost loop body are
        # below any sensible task grain (the bicg shape)
        _, label = label_of(
            """\
void f(float A[][], float s[], float q[], float p[], float r[], int nx, int ny) {
    for (int i = 0; i < nx; i++) {
        float acc = 0.0;
        for (int j = 0; j < ny; j++) {
            s[j] = s[j] + r[i] * A[i][j];
            acc += A[i][j] * p[j];
        }
        q[i] = acc;
    }
}
""",
            "f",
            [np.ones((20, 20)), np.zeros(20), np.zeros(20), np.ones(20), np.ones(20), 20, 20],
        )
        assert not label.startswith("Task parallelism")


class TestPrimaryShare:
    def test_share_of_detected_regions(self):
        result, label = label_of(
            """\
float f(float A[], int n) {
    float s = 0.0;
    for (int i = 0; i < n; i++) {
        s += A[i];
    }
    return s;
}
""",
            "f",
            [np.ones(32), 32],
        )
        regions = primary_pattern(result)[1]
        assert regions
        share = region_share(result.profile, regions)
        assert 0.5 < share <= 1.0

    def test_share_bounded(self):
        result, _ = label_of(
            "void f(float A[], int n) { for (int i = 0; i < n; i++) { A[i] = 1.0; } }",
            "f",
            [np.zeros(16), 16],
        )
        assert 0.0 <= region_share(result.profile, primary_pattern(result)[1]) <= 1.0


class TestCleanPipelines:
    def test_multi_source_consumer_not_clean(self):
        result, _ = label_of(
            """\
void f(float A[], float B[], float C[], int n) {
    for (int i = 0; i < n; i++) { A[i] = i * 1.0; }
    for (int j = 0; j < n; j++) { B[j] = j * 2.0; }
    for (int k = 0; k < n; k++) { C[k] = A[k] + B[n - 1 - k]; }
}
""",
            "f",
            [np.zeros(24), np.zeros(24), np.zeros(24), 24],
        )
        k_loop = max(r.region_id for r in result.program.regions.values() if r.kind == "loop")
        clean_ys = {p.loop_y for p in result.clean_pipelines()}
        assert k_loop not in clean_ys
