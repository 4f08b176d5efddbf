"""Kernel-source lint rules (``repro.kernelc.lint``).

Each rule gets a crafted negative that must fire and a near-miss that
must stay silent; the shipped skeleton/baseline kernels are checked to
lint clean elsewhere (the CI sanitize job and tests/skelcl).
"""

import pytest

from repro.kernelc import compile_source, lint_program
from repro.kernelc.diagnostics import Severity


def lint(source):
    return lint_program(compile_source(source))


def messages(source):
    return [d.message for d in lint(source)]


def tagged(source, tag):
    return [d for d in lint(source) if tag in d.message]


class TestBarrierDivergence:
    def test_barrier_under_global_id_condition_fires(self):
        found = tagged(
            """
            __kernel void k(__global float* a, __local float* t) {
                if (get_global_id(0) < 4) { barrier(CLK_LOCAL_MEM_FENCE); }
                a[0] = t[0];
            }""",
            "[barrier-divergence]",
        )
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING

    def test_taint_flows_through_locals(self):
        assert tagged(
            """
            __kernel void k(__global float* a, __local float* t) {
                int g = (int)get_global_id(0);
                int h = g * 2;
                while (h > 0) { barrier(CLK_LOCAL_MEM_FENCE); h = h - 1; }
                a[0] = t[0];
            }""",
            "[barrier-divergence]",
        )

    def test_uniform_condition_is_silent(self):
        assert not tagged(
            """
            __kernel void k(__global float* a, __local float* t) {
                for (int i = 0; i < (int)get_global_size(0); ++i) {
                    barrier(CLK_LOCAL_MEM_FENCE);
                }
                if (get_group_id(0) == 0) { barrier(CLK_LOCAL_MEM_FENCE); }
                a[get_global_id(0)] = t[0];
            }""",
            "[barrier-divergence]",
        )

    def test_top_level_barrier_is_silent(self):
        assert not tagged(
            """
            __kernel void k(__global float* a, __local float* t) {
                t[get_local_id(0)] = a[get_global_id(0)];
                barrier(CLK_LOCAL_MEM_FENCE);
                a[get_global_id(0)] = t[0];
            }""",
            "[barrier-divergence]",
        )


    def test_id_flows_through_a_helper_call(self):
        assert tagged(
            """
            int myid() { return get_local_id(0); }
            __kernel void k(__global float* a, __local float* t) {
                int id = myid();
                if (id < 4) { barrier(CLK_LOCAL_MEM_FENCE); }
                a[0] = t[0];
            }""",
            "[barrier-divergence]",
        )

    def test_uniform_helper_call_is_silent(self):
        assert not tagged(
            """
            int four() { return 4; }
            int halve(int n) { return n / 2; }
            __kernel void k(__global float* a, __local float* t) {
                int id = get_local_id(0);
                t[id] = a[id];
                if (halve((int)get_local_size(0)) < four()) {
                    barrier(CLK_LOCAL_MEM_FENCE);
                }
                a[id] = t[0];
            }""",
            "[barrier-divergence]",
        )


class TestConstantIndexOob:
    def test_definite_oob_is_an_error(self):
        found = tagged(
            """
            __kernel void k(__global float* out) {
                float w[4];
                w[0] = 1.0f; w[1] = 2.0f; w[2] = 3.0f; w[3] = 4.0f;
                out[get_global_id(0)] = w[7];
            }""",
            "[constant-index-oob]",
        )
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR
        assert "length 4" in found[0].message

    def test_negative_index_is_an_error(self):
        assert tagged(
            """
            __kernel void k(__global float* out) {
                float w[4];
                w[-1] = 0.0f;
                out[0] = w[0];
            }""",
            "[constant-index-oob]",
        )

    def test_in_bounds_loop_is_silent(self):
        assert not tagged(
            """
            __kernel void k(__global float* out) {
                float w[4];
                float s = 0.0f;
                for (int i = 0; i < 4; ++i) { w[i] = (float)i; }
                for (int i = 0; i < 4; ++i) { s = s + w[i]; }
                out[0] = s;
            }""",
            "[constant-index-oob]",
        )

    def test_unknown_index_is_silent(self):
        # Possibly-OOB is not definitely-OOB: the rule only reports
        # accesses that are wrong on every execution.
        assert not tagged(
            """
            __kernel void k(__global float* out, int i) {
                float w[4];
                w[0] = 1.0f;
                out[0] = w[i];
            }""",
            "[constant-index-oob]",
        )


    def test_guarded_constant_through_a_helper_is_silent(self):
        # Walked in its caller's context the index is the constant 7,
        # but the helper's own guard excludes it.
        assert not tagged(
            """
            float pick(float* w, int i) {
                if (i < 4) { return w[i]; }
                return 0.0f;
            }
            __kernel void k(__global float* out) {
                float w[4];
                w[0] = 1.0f;
                out[0] = pick(w, 7);
            }""",
            "-oob]",
        )

    def test_constant_through_a_helper_is_an_error(self):
        found = tagged(
            """
            float pick(float* w, int i) { return w[i]; }
            __kernel void k(__global float* out) {
                float w[4];
                w[0] = 1.0f;
                out[0] = pick(w, 7);
            }""",
            "[constant-index-oob]",
        )
        assert len(found) == 1

    def test_guard_from_inside_a_switch_case_does_not_silence_it(self):
        # The early return only happens in case 0; w[7] is reached.
        assert tagged(
            """
            __kernel void k(__global float* out, int sel) {
                float w[4];
                int j = 7;
                w[0] = 1.0f;
                switch (sel) { case 0: if (j > 1) return; break; }
                out[0] = w[j];
            }""",
            "[constant-index-oob]",
        )

    def test_helper_no_kernel_calls_is_still_checked(self):
        assert tagged(
            """
            float stray() { float w[4]; w[0] = 1.0f; return w[4]; }
            __kernel void k(__global float* out) { out[0] = 1.0f; }
            """,
            "[constant-index-oob]",
        )


class TestUnusedBinding:
    def test_unused_parameter_and_local_warn(self):
        found = tagged(
            """
            float helper(float x, float spare) {
                float dead;
                return x;
            }
            __kernel void k(__global float* a) { a[0] = helper(a[0], 2.0f); }
            """,
            "[unused-binding]",
        )
        assert sorted("spare" in d.message or "dead" in d.message for d in found) == [True, True]

    def test_used_bindings_are_silent(self):
        assert not tagged(
            """
            __kernel void k(__global float* a, int n) {
                int gid = get_global_id(0);
                if (gid < n) { a[gid] = a[gid] + 1.0f; }
            }""",
            "[unused-binding]",
        )


class TestWriteToConstant:
    def test_store_through_constant_pointer_is_an_error(self):
        found = tagged(
            """
            __kernel void k(__constant float* c, __global float* a) {
                c[0] = 1.0f;
                a[0] = c[1];
            }""",
            "[write-to-constant]",
        )
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR

    def test_reads_from_constant_are_silent(self):
        assert not tagged(
            """
            __kernel void k(__constant float* c, __global float* a) {
                a[get_global_id(0)] = c[0] + c[1];
            }""",
            "[write-to-constant]",
        )


class TestMissingReturn:
    def test_fallthrough_branch_warns(self):
        found = tagged(
            """
            float f(float x) {
                if (x > 0.0f) { return x; }
            }
            __kernel void k(__global float* a) { a[0] = f(a[0]); }
            """,
            "[missing-return]",
        )
        assert len(found) == 1
        assert "f()" in found[0].message

    def test_both_branches_returning_is_silent(self):
        assert not tagged(
            """
            float f(float x) {
                if (x > 0.0f) { return x; } else { return -x; }
            }
            __kernel void k(__global float* a) { a[0] = f(a[0]); }
            """,
            "[missing-return]",
        )

    def test_void_and_kernel_functions_exempt(self):
        assert not tagged(
            """
            void side(__global float* a) { a[0] = 1.0f; }
            __kernel void k(__global float* a) {
                if (get_global_id(0) == 0) { side(a); }
            }""",
            "[missing-return]",
        )


class TestIntegration:
    def test_clean_kernel_has_no_findings(self):
        assert messages(
            """
            __kernel void scale(__global const float* a, __global float* out, int n) {
                int gid = get_global_id(0);
                if (gid < n) { out[gid] = 2.0f * a[gid]; }
            }"""
        ) == []

    def test_program_build_collects_lint(self):
        from repro import ocl

        program = ocl.Program(
            """
            float f(float x) {
                if (x > 0.0f) { return x; }
            }
            __kernel void k(__global float* a) { a[0] = f(a[0]); }
            """,
        ).build()
        assert any("[missing-return]" in d.message for d in program.lint_diagnostics)
        assert "missing-return" in program.build_log

    def test_strict_mode_promotes_lint_errors_to_build_failure(self, monkeypatch):
        from repro import ocl

        monkeypatch.setenv("SKELCL_SANITIZE", "strict")
        ocl.clear_build_cache()
        with pytest.raises(ocl.BuildError, match="write-to-constant"):
            ocl.Program(
                """
                __kernel void k(__constant float* c, __global float* a) {
                    c[0] = 1.0f;
                    a[0] = c[0];
                }"""
            ).build()
        ocl.clear_build_cache()

    def test_lint_warnings_do_not_fail_strict_builds(self, monkeypatch):
        from repro import ocl

        monkeypatch.setenv("SKELCL_SANITIZE", "strict")
        ocl.clear_build_cache()
        program = ocl.Program(
            """
            __kernel void k(__global float* a, int unused) {
                a[0] = 1.0f;
            }"""
        ).build()
        assert any("[unused-binding]" in d.message for d in program.lint_diagnostics)
        ocl.clear_build_cache()

    def test_shipped_baseline_kernels_lint_clean(self):
        from repro.baselines import dotproduct_cl, mandelbrot_cl

        for module in (dotproduct_cl, mandelbrot_cl):
            for value in vars(module).values():
                if isinstance(value, str) and "__kernel" in value and "{" in value:
                    assert lint(value) == [], f"lint findings in {module.__name__}"
