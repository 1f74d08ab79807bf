"""CU detection tests (Figure 1's read-compute-write grouping)."""

from repro.bench_programs import get_benchmark
from repro.cu import detect_cus

from conftest import parsed


def cus_of(src, func="f"):
    prog = parsed(src)
    return prog, detect_cus(prog, prog.function(func).region_id)


class TestBasicGrouping:
    def test_figure1_two_cus(self):
        _, cus = cus_of(
            """\
void f(float &x, float &y) {
    x = x + 0.5;
    y = y + 1.5;
    float a = x * 2.0;
    float b = a + 1.0;
    x = b * 3.0;
    float c = y + 5.0;
    float d = c * c;
    y = d - 1.0;
}
"""
        )
        assert len(cus) == 2
        assert cus[0].lines == {2, 4, 5, 6}
        assert cus[1].lines == {3, 7, 8, 9}

    def test_temp_chain_absorbed_into_single_consumer(self):
        _, cus = cus_of(
            """\
void f(float &out, float v) {
    float t1 = v * 2.0;
    float t2 = t1 + 1.0;
    out = t2;
}
"""
        )
        assert len(cus) == 1
        assert cus[0].lines == {2, 3, 4}

    def test_shared_prologue_becomes_own_cu(self):
        # the cilksort CU_0 pattern: a temp consumed by several anchors
        prog, cus = cus_of(
            """\
void g(float A[], int lo, int n) { A[lo] = n * 1.0; }
void f(float A[], int n) {
    int q = n / 4;
    g(A, 0, q);
    g(A, q, q);
}
""",
        )
        kinds = [cu.kind for cu in cus]
        assert kinds == ["plain", "call", "call"]
        assert "q" in cus[0].writes

    def test_independent_state_writes_stay_separate(self):
        _, cus = cus_of(
            """\
void f(float &x, float &y) {
    x = 1.0;
    y = 2.0;
}
"""
        )
        assert len(cus) == 2


class TestCompoundUnits:
    def test_loop_is_one_cu(self):
        _, cus = cus_of(
            """\
void f(float A[], int n) {
    for (int i = 0; i < n; i++) {
        A[i] = i * 1.0;
    }
}
"""
        )
        assert len(cus) == 1
        assert cus[0].kind == "loop"

    def test_three_loop_nests_three_cus(self):
        _, cus = cus_of(
            """\
void f(float A[], float B[], float C[], int n) {
    for (int i = 0; i < n; i++) { A[i] = i * 1.0; }
    for (int i = 0; i < n; i++) { B[i] = i * 2.0; }
    for (int i = 0; i < n; i++) { C[i] = A[i] + B[i]; }
}
"""
        )
        assert len(cus) == 3
        assert all(cu.kind == "loop" for cu in cus)

    def test_call_statement_is_own_cu(self):
        _, cus = cus_of(
            """\
void g(float A[]) { A[0] = 1.0; }
void f(float A[]) {
    g(A);
    A[1] = 2.0;
}
"""
        )
        assert len(cus) == 2
        assert cus[0].kind == "call"
        assert cus[0].callees == ["g"]


class TestIfHandling:
    def test_call_free_if_is_atomic(self):
        _, cus = cus_of(
            """\
int f(int n) {
    if (n < 2) {
        return n;
    }
    int x = n * 2;
    return x + 1;
}
"""
        )
        assert cus[0].kind == "return"
        assert cus[0].early_exit
        assert cus[0].lines == {2, 3}

    def test_if_with_call_is_transparent(self):
        _, cus = cus_of(
            """\
void g(float A[]) { A[0] = 1.0; }
void f(float A[], int n) {
    if (n < 4) {
        g(A);
    }
    int q = n / 2;
    g(A);
    A[q] = 1.0;
}
"""
        )
        # the guard folds into a unit; g(A) inside is its own call CU
        call_cus = [cu for cu in cus if cu.kind == "call"]
        assert len(call_cus) == 2

    def test_bare_decls_and_returns_skipped(self):
        _, cus = cus_of(
            """\
int f(int n) {
    int x;
    x = n + 1;
    return x;
}
"""
        )
        # decl is invisible; x is a temp consumed by the return anchor
        assert len(cus) == 1
        assert cus[0].kind == "return"


class TestCUMetadata:
    def test_reads_writes_state_only_anchoring(self):
        _, cus = cus_of(
            """\
void f(float &out, float v) {
    float t = v * 2.0;
    out = t + 1.0;
}
"""
        )
        (cu,) = cus
        assert "out" in cu.writes
        assert "v" in cu.reads

    def test_labels_sequential(self):
        _, cus = cus_of(
            """\
void f(float &x, float &y, float &z) {
    x = 1.0;
    y = 2.0;
    z = 3.0;
}
"""
        )
        assert [cu.label for cu in cus] == ["CU_0", "CU_1", "CU_2"]

    def test_first_line_ordering(self):
        _, cus = cus_of(
            """\
void f(float &x, float &y) {
    x = 1.0;
    y = 2.0;
}
"""
        )
        assert cus[0].first_line < cus[1].first_line

    def test_empty_region(self):
        prog = parsed("void f() { }")
        assert detect_cus(prog, prog.function("f").region_id) == []


class TestRegistryProgram:
    def test_cilksort_has_the_figure3_cus(self):
        # Figure 3: the quarter computation, four sorts and three merges.
        program = get_benchmark("sort").program
        assert len(detect_cus(program, program.function("cilksort").region_id)) >= 8
