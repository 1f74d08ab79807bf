"""Geometric decomposition detection tests (Algorithm 2)."""

import numpy as np

from repro.patterns.geometric import detect_geometric_decomposition
from repro.profiling import profile_run

from conftest import parsed

GD_SRC = """\
void chunk_work(float A[], float out[], int n) {
    for (int i = 0; i < n; i++) {
        out[i] = A[i] * 2.0;
    }
    for (int i = 0; i < n; i++) {
        out[i] = out[i] + 1.0;
    }
}
void driver(float A[], float out[], int n, int chunks) {
    for (int c = 0; c < chunks; c++) {
        chunk_work(A, out, n);
    }
}
"""


def gd_of(src, entry, args, func):
    prog = parsed(src)
    profile, _ = profile_run(prog, entry, args)
    return detect_geometric_decomposition(prog, profile, prog.function(func).region_id)


class TestDetection:
    def test_multi_doall_function_detected(self):
        gd = gd_of(GD_SRC, "driver", [np.ones(8), np.zeros(8), 8, 4], "chunk_work")
        assert gd is not None
        assert gd.function == "chunk_work"
        assert len(gd.analyzed_loops) == 2
        assert all(lc.is_doall for lc in gd.analyzed_loops.values())

    def test_reduction_loops_also_allowed(self):
        src = """\
void stats(float A[], float &mean, int n) {
    float s = 0.0;
    for (int i = 0; i < n; i++) {
        s += A[i];
    }
    for (int i = 0; i < n; i++) {
        A[i] = A[i] - s / n;
    }
    mean = s / n;
}
void driver(float A[], float &m, int reps, int n) {
    for (int r = 0; r < reps; r++) {
        stats(A, m, n);
    }
}
"""
        gd = gd_of(src, "driver", [np.ones(8), 0.0, 3, 8], "stats")
        assert gd is not None
        assert any(lc.is_reduction for lc in gd.analyzed_loops.values())

    def test_sequential_loop_blocks(self):
        src = """\
void bad(float A[], int n) {
    for (int i = 1; i < n; i++) {
        A[i] = A[i - 1] + 1.0;
    }
    for (int i = 0; i < n; i++) {
        A[i] = A[i] * 2.0;
    }
}
void driver(float A[], int n, int reps) {
    for (int r = 0; r < reps; r++) {
        bad(A, n);
    }
}
"""
        assert gd_of(src, "driver", [np.zeros(8), 8, 3], "bad") is None

    def test_called_function_loops_examined(self):
        src = """\
void helper(float A[], int n) {
    for (int i = 1; i < n; i++) {
        A[i] = A[i - 1] * 0.5;
    }
}
void outer_fn(float A[], float B[], int n) {
    for (int i = 0; i < n; i++) {
        B[i] = A[i] + 1.0;
    }
    helper(A, n);
    for (int i = 0; i < n; i++) {
        B[i] = B[i] * 2.0;
    }
}
void driver(float A[], float B[], int n, int reps) {
    for (int r = 0; r < reps; r++) {
        outer_fn(A, B, n);
    }
}
"""
        # the directly-called helper has a sequential loop -> no GD
        assert gd_of(src, "driver", [np.ones(8), np.zeros(8), 8, 3], "outer_fn") is None


class TestGuards:
    def test_single_loop_function_rejected(self):
        src = """\
void one(float A[], int n) {
    for (int i = 0; i < n; i++) {
        A[i] = i * 1.0;
    }
}
void driver(float A[], int n, int reps) {
    for (int r = 0; r < reps; r++) {
        one(A, n);
    }
}
"""
        assert gd_of(src, "driver", [np.zeros(8), 8, 3], "one") is None

    def test_single_invocation_rejected(self):
        prog = parsed(GD_SRC)
        profile, _ = profile_run(prog, "chunk_work", [np.ones(8), np.zeros(8), 8])
        gd = detect_geometric_decomposition(
            prog, profile, prog.function("chunk_work").region_id
        )
        assert gd is None  # it is the entry / called once

    def test_loop_region_rejected(self):
        prog = parsed(GD_SRC)
        profile, _ = profile_run(prog, "driver", [np.ones(8), np.zeros(8), 8, 4])
        loop = next(r.region_id for r in prog.regions.values() if r.kind == "loop")
        assert detect_geometric_decomposition(prog, profile, loop) is None

    def test_unexecuted_function_rejected(self):
        prog = parsed(GD_SRC + "\nvoid never(float A[], int n) { }\n")
        profile, _ = profile_run(prog, "driver", [np.ones(8), np.zeros(8), 8, 4])
        assert (
            detect_geometric_decomposition(
                prog, profile, prog.function("never").region_id
            )
            is None
        )

    def test_called_function_names_recorded(self):
        src = """\
void inner_fn(float A[], int n) {
    for (int i = 0; i < n; i++) { A[i] = A[i] + 1.0; }
    for (int i = 0; i < n; i++) { A[i] = A[i] * 2.0; }
}
void mid(float A[], int n) {
    for (int i = 0; i < n; i++) { A[i] = A[i] - 1.0; }
    inner_fn(A, n);
}
void driver(float A[], int n, int reps) {
    for (int r = 0; r < reps; r++) {
        mid(A, n);
    }
}
"""
        gd = gd_of(src, "driver", [np.ones(8), 8, 3], "mid")
        assert gd is not None
        assert "inner_fn" in gd.called_functions
