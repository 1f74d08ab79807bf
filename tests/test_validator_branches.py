"""Validator branch coverage and profiler option tests."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.lang.parser import parse_program
from repro.lang.validate import validate_program
from repro.profiling import Profiler, profile_run
from repro.runtime import Interpreter


def reject(src):
    with pytest.raises(ValidationError):
        validate_program(parse_program(src))


def accept(src):
    validate_program(parse_program(src))


class TestValidatorBranches:
    def test_duplicate_function(self):
        reject("int f() { return 1; }\nint f() { return 2; }")

    def test_duplicate_global(self):
        reject("int g;\nint g;")

    def test_redeclaration_same_scope(self):
        reject("void f() { int x = 1; int x = 2; }")

    def test_shadowing_in_nested_scope_allowed(self):
        accept("void f() { int x = 1; if (x) { int y = 2; } int y = 3; }")

    def test_sibling_loops_same_induction_allowed(self):
        accept(
            "void f(int n) { for (int i = 0; i < n; i++) { } for (int i = 0; i < n; i++) { } }"
        )

    def test_intrinsic_arity(self):
        reject("float f() { return sqrt(1.0, 2.0); }")

    def test_whole_array_assignment(self):
        reject("void f(float A[], float B[]) { A = B; }")

    def test_array_dim_expression_checked(self):
        reject("void f() { float A[m]; }")

    def test_continue_outside_loop(self):
        reject("void f() { continue; }")

    def test_global_initializer_checked(self):
        reject("int g = h;")

    def test_global_init_referencing_earlier_global(self):
        accept("int a = 4;\nint b = a;\nint f() { return b; }")

    def test_param_redeclared_in_body(self):
        reject("void f(int n) { int n = 2; }")


class TestProfilerOptions:
    SRC = """\
void g(float A[], int n) {
    for (int i = 0; i < n; i++) { A[i] = A[i] + 1.0; }
}
void f(float A[], int n) {
    g(A, n);
    g(A, n);
}
"""

    def test_calltree_disabled(self):
        prog = parse_program(self.SRC)
        profiler = Profiler(max_calltree_nodes=0)
        Interpreter(prog, sink=profiler).run("f", [np.zeros(4), 4])
        profile = profiler.profile
        assert profile.calltree is None
        # everything else still works
        assert profile.deps
        assert profile.pet is not None

    def test_calltree_node_cap(self):
        prog = parse_program(self.SRC)
        profiler = Profiler(max_calltree_nodes=2)
        Interpreter(prog, sink=profiler).run("f", [np.zeros(4), 4])
        profile = profiler.profile
        assert profile.calltree is not None
        assert len(list(profile.calltree.walk())) <= 2
        # analyses unaffected by the cap
        assert profile.pet.inclusive_cost > 0

    def test_profile_runs_requires_inputs(self):
        from repro.profiling import profile_runs

        prog = parse_program(self.SRC)
        with pytest.raises(ValueError):
            profile_runs(prog, "f", [])


class TestMergeErrors:
    def test_mismatched_pet_roots(self):
        p1 = parse_program("int a() { return 1; }\nint b() { return 2; }")
        prof_a, _ = profile_run(p1, "a", [])
        prof_b, _ = profile_run(p1, "b", [])
        with pytest.raises(ValueError):
            prof_a.merge(prof_b)

    def test_merge_with_empty_calltree(self):
        p1 = parse_program("int a() { return 1; }")
        profiler = Profiler(max_calltree_nodes=0)
        Interpreter(p1, sink=profiler).run("a", [])
        prof1 = profiler.profile
        prof2, _ = profile_run(p1, "a", [])
        merged = prof1.merge(prof2)
        assert merged.calltree is not None
