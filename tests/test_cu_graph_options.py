"""CU-graph construction options: dependence kinds, control edges,
carried-dep exclusion, and weight accounting."""

import numpy as np
import pytest

from repro.bench_programs import get_benchmark
from repro.cu import build_cu_graph, cu_weight, detect_cus
from repro.cu.detect import region_body
from repro.errors import AnalysisError
from repro.profiling import profile_run
from repro.profiling.model import RAW, WAR, WAW

from conftest import parsed


def setup(src, entry, args, func=None):
    prog = parsed(src)
    profile, _ = profile_run(prog, entry, args)
    region = prog.function(func or entry).region_id
    cus = detect_cus(prog, region)
    return prog, profile, region, cus


class TestDepKinds:
    SRC = """\
void f(float A[], float B[], int n) {
    for (int i = 0; i < n; i++) {
        A[i] = i * 1.0;
    }
    for (int j = 0; j < n; j++) {
        B[j] = A[j];
    }
    for (int k = 0; k < n; k++) {
        A[k] = 9.0;
    }
}
"""

    def test_default_raw_only(self):
        prog, profile, region, cus = setup(
            self.SRC, "f", [np.zeros(8), np.zeros(8), 8]
        )
        graph = build_cu_graph(cus, profile, region)
        # RAW: loop1 -> loop2 only
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 2)

    def test_war_edges_optional(self):
        prog, profile, region, cus = setup(
            self.SRC, "f", [np.zeros(8), np.zeros(8), 8]
        )
        graph = build_cu_graph(
            cus, profile, region, dep_kinds=(RAW, WAR, WAW)
        )
        # WAR: loop2 reads A, loop3 rewrites it
        assert graph.has_edge(1, 2)
        # WAW: loop1 writes A, loop3 rewrites it
        assert graph.has_edge(0, 2)

    def test_edge_vars_recorded(self):
        prog, profile, region, cus = setup(
            self.SRC, "f", [np.zeros(8), np.zeros(8), 8]
        )
        graph = build_cu_graph(cus, profile, region)
        assert graph.edge_data(0, 1)["vars"] == {"A"}


class TestControlEdges:
    SRC = """\
int f(int n) {
    if (n < 0) {
        return 0;
    }
    int a = n * 2;
    return a + 1;
}
"""

    def test_control_edges_on(self):
        prog, profile, region, cus = setup(self.SRC, "f", [5])
        graph = build_cu_graph(cus, profile, region, include_control=True)
        guard = next(cu for cu in cus if cu.early_exit)
        later = [cu for cu in cus if cu is not guard]
        for cu in later:
            assert graph.has_edge(guard.cu_id, cu.cu_id)
            assert graph.edge_data(guard.cu_id, cu.cu_id)["kind"] == "control"

    def test_control_edges_off(self):
        prog, profile, region, cus = setup(self.SRC, "f", [5])
        graph = build_cu_graph(cus, profile, region, include_control=False)
        guard = next(cu for cu in cus if cu.early_exit)
        assert graph.out_degree(guard.cu_id) == 0


class TestCarriedExclusion:
    def test_loop_carried_deps_not_intra_edges(self):
        # within one iteration the two statements are independent; the
        # carried recurrence must not appear as a CU-graph edge
        src = """\
void f(float A[], float B[], int n) {
    for (int i = 1; i < n; i++) {
        A[i] = A[i - 1] * 0.5;
        B[i] = B[i - 1] + 1.0;
    }
}
"""
        prog = parsed(src)
        profile, _ = profile_run(prog, "f", [np.ones(8), np.zeros(8), 8])
        loop = next(r.region_id for r in prog.regions.values() if r.kind == "loop")
        cus = detect_cus(prog, loop)
        graph = build_cu_graph(cus, profile, loop)
        assert graph.num_edges() == 0


class TestWeights:
    def test_weights_cover_region_cost(self):
        src = """\
void f(float A[], float B[], int n) {
    for (int i = 0; i < n; i++) {
        A[i] = i * 1.0;
    }
    for (int j = 0; j < n; j++) {
        B[j] = A[j] * 2.0;
    }
}
"""
        prog, profile, region, cus = setup(src, "f", [np.zeros(16), np.zeros(16), 16])
        total_weight = sum(cu_weight(cu, profile) for cu in cus)
        region_cost = profile.region_cost(region)
        assert 0.9 * region_cost <= total_weight <= region_cost * 1.01

    def test_region_body_unknown_region(self):
        prog = parsed("void f() { }")
        with pytest.raises(AnalysisError):
            region_body(prog, 999)


class TestRegistryProgram:
    def test_2mm_graph_has_a_node_per_cu(self):
        spec = get_benchmark("2mm")
        profile, _ = profile_run(spec.program, spec.entry, spec.arg_sets()[0])
        region = spec.program.function(spec.entry).region_id
        cus = detect_cus(spec.program, region)
        assert len(build_cu_graph(cus, profile, region)) == len(cus)
