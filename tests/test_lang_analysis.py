"""Static analysis helper tests (repro.lang.analysis)."""

from repro.lang.analysis import (
    array_names,
    called_functions,
    enclosing_loops,
    expr_reads,
    function_loops,
    is_recursive,
    loop_induction_vars,
    non_escaping_names,
    source_loc,
    stmt_calls,
    stmt_declares,
    stmt_lines,
    stmt_reads,
    stmt_writes,
)
from repro.lang.parser import parse_program

SRC = """\
int g;
float GA[4];

int helper(int v) {
    return v * 2;
}

int deep(int v) {
    return helper(v) + 1;
}

void work(float A[], int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        float t = A[i];
        if (t > 0.0) {
            acc += helper(i);
        }
        for (int j = 0; j < 2; j++) {
            A[i] = A[i] + j;
        }
    }
    g = acc;
}
"""


def prog():
    return parse_program(SRC)


class TestReadsWrites:
    def test_stmt_reads_recursive(self):
        p = prog()
        loop = p.function("work").body[1]
        reads = stmt_reads(loop)
        assert {"A", "n", "i", "t", "j", "acc"} <= reads

    def test_stmt_writes_recursive(self):
        p = prog()
        loop = p.function("work").body[1]
        assert {"acc", "t", "A", "i", "j"} <= stmt_writes(loop)

    def test_compound_assign_reads_target(self):
        p = parse_program("void f(int x) { x += 1; }")
        stmt = p.function("f").body[0]
        assert "x" in stmt_reads(stmt)

    def test_non_recursive_scope(self):
        p = prog()
        loop = p.function("work").body[1]
        assert stmt_writes(loop, recursive=False) == set()

    def test_expr_reads_arrays_by_base_name(self):
        p = parse_program("float f(float A[][]) { return A[1][2]; }")
        stmt = p.function("f").body[0]
        assert expr_reads(stmt.value) == {"A"}


class TestStructure:
    def test_function_loops_in_order(self):
        loops = function_loops(prog().function("work"))
        assert len(loops) == 2
        assert loops[0].line < loops[1].line

    def test_enclosing_loops_innermost_first(self):
        p = prog()
        outer, inner = (loop.region_id for loop in function_loops(p.function("work")))
        assert enclosing_loops(p, inner) == [outer]
        assert enclosing_loops(p, outer) == []
        assert enclosing_loops(p, p.function("work").region_id) == []
        assert enclosing_loops(p, 10_000) == []

    def test_enclosing_loops_three_deep(self):
        p = parse_program(
            "void f(int A[], int n) {\n"
            "  for (int i = 0; i < n; i++) {\n"
            "    if (i > 0) { for (int j = 0; j < n; j++) {\n"
            "      for (int k = 0; k < n; k++) { A[k] = j; } } }\n"
            "  }\n"
            "}\n"
        )
        i, j, k = (loop.region_id for loop in function_loops(p.function("f")))
        assert enclosing_loops(p, k) == [j, i]

    def test_loop_induction_vars_cover_nested_loops(self):
        p = prog()
        outer, inner = (loop.region_id for loop in function_loops(p.function("work")))
        assert loop_induction_vars(p, outer) == {"i", "j"}
        assert loop_induction_vars(p, inner) == {"j"}
        assert loop_induction_vars(p, p.function("helper").region_id) == set()
        assert loop_induction_vars(p, 10_000) == set()

    def test_non_escaping_names(self):
        p = prog()
        outer = function_loops(p.function("work"))[0].region_id
        # n is a by-value scalar; A (array parameter) and g (global) escape
        assert non_escaping_names(p, outer) == {"n", "acc", "i", "t", "j"}

    def test_stmt_lines_cover_nested(self):
        loop = prog().function("work").body[1]
        lines = stmt_lines(loop)
        assert {14, 15, 16, 17, 19, 20} <= lines

    def test_stmt_declares(self):
        loop = prog().function("work").body[1]
        assert {"i", "t", "j"} <= stmt_declares(loop)


class TestCallGraph:
    def test_stmt_calls(self):
        loop = prog().function("work").body[1]
        assert [c.name for c in stmt_calls(loop)] == ["helper"]

    def test_called_functions_direct_only(self):
        p = prog()
        names = [f.name for f in called_functions(p.function("deep"), p)]
        assert names == ["helper"]

    def test_is_recursive_direct(self):
        p = parse_program("int f(int n) { if (n < 1) { return 0; } return f(n - 1); }")
        assert is_recursive(p.function("f"), p)

    def test_is_recursive_mutual(self):
        p = parse_program(
            "int a(int n) { return b(n); }\nint b(int n) { return a(n); }"
        )
        assert is_recursive(p.function("a"), p)
        assert is_recursive(p.function("b"), p)

    def test_not_recursive(self):
        p = prog()
        assert not is_recursive(p.function("work"), p)


class TestMisc:
    def test_array_names(self):
        names = array_names(prog())
        assert names == {"GA", "A"}

    def test_source_loc_ignores_comments_and_blanks(self):
        src = "// header\n\nint f() {\n  /* block\n     comment */\n  return 1;\n}\n"
        assert source_loc(src) == 3  # signature, return, closing brace

    def test_source_loc_inline_block_comment(self):
        assert source_loc("/* x */ int g;\n") == 1

    def test_source_loc_block_comment_after_code(self):
        # the comment opens after code and spans lines that hold no token
        assert source_loc("int x; /* a\nb\n*/\nint y;\n") == 2

    def test_source_loc_two_block_comments_on_a_line(self):
        assert source_loc("/* a */ /* b */\nint x;\n") == 1
