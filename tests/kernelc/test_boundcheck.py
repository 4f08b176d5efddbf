"""Static bounds analysis tests (the paper's §3.4 future work)."""

import pytest

from repro.kernelc.boundcheck import Interval, analyze_get_bounds
from repro.kernelc.parser import parse


def analyze(source: str, overlap: int):
    program = parse(source)
    return analyze_get_bounds(program.functions[-1], overlap)


class TestInterval:
    def test_join(self):
        assert Interval(-1, 0).join(Interval(2, 5)) == Interval(-1, 5)

    def test_within(self):
        assert Interval(-1, 1).within(-1, 1)
        assert not Interval(-2, 1).within(-1, 1)


class TestProofs:
    def test_constant_offsets_proven(self):
        proof = analyze("float f(float* m) { return get(m, -1, 1) + get(m, 0, 0); }", 1)
        assert proof.proven

    def test_constant_offset_too_large_rejected(self):
        proof = analyze("float f(float* m) { return get(m, 2, 0); }", 1)
        assert not proof.proven

    def test_negative_offset_too_large_rejected(self):
        assert not analyze("float f(float* m) { return get(m, -3, 0); }", 2).proven

    def test_vector_get_single_offset(self):
        assert analyze("float f(float* v) { return get(v, -1) + get(v, 1); }", 1).proven

    def test_for_loop_bounds_inclusive(self):
        source = """
        float f(float* m) {
            float s = 0.0f;
            for (int i = -1; i <= 1; ++i) s += get(m, i, 0);
            return s;
        }"""
        assert analyze(source, 1).proven
        assert not analyze(source, 0).proven

    def test_for_loop_strict_bound(self):
        source = """
        float f(float* m) {
            float s = 0.0f;
            for (int i = -1; i < 2; ++i) s += get(m, 0, i);
            return s;
        }"""
        assert analyze(source, 1).proven

    def test_nested_loops(self):
        source = """
        float f(float* m) {
            float s = 0.0f;
            for (int i = -1; i <= 1; ++i)
                for (int j = -1; j <= 1; ++j)
                    s += get(m, i, j);
            return s;
        }"""
        assert analyze(source, 1).proven

    def test_loop_with_step(self):
        source = """
        float f(float* m) {
            float s = 0.0f;
            for (int i = -2; i <= 2; i += 2) s += get(m, i, 0);
            return s;
        }"""
        assert analyze(source, 2).proven

    def test_arithmetic_on_induction_variable(self):
        source = """
        float f(float* m) {
            float s = 0.0f;
            for (int i = 0; i <= 2; ++i) s += get(m, i - 1, 0);
            return s;
        }"""
        assert analyze(source, 1).proven

    def test_unknown_variable_rejected(self):
        source = """
        float f(float* m, int k) { return get(m, k, 0); }"""
        assert not analyze(source, 1).proven

    def test_variable_reassigned_in_while_rejected(self):
        source = """
        float f(float* m) {
            int i = 0;
            while (i < 1) { ++i; }
            return get(m, i, 0);
        }"""
        assert not analyze(source, 1).proven

    def test_constant_propagation_through_locals(self):
        source = """
        float f(float* m) {
            int left = -1;
            int right = 1;
            return get(m, left, 0) + get(m, right, 0);
        }"""
        assert analyze(source, 1).proven

    def test_branch_join(self):
        source = """
        float f(float* m, int c) {
            int off = 0;
            if (c) { off = 1; } else { off = -1; }
            return get(m, off, 0);
        }"""
        assert analyze(source, 1).proven
        assert not analyze(source, 0).proven

    def test_reassignment_after_branch_uses_join(self):
        source = """
        float f(float* m, int c) {
            int off = 5;
            if (c) { off = 0; }
            return get(m, off, 0);
        }"""
        assert not analyze(source, 1).proven

    def test_no_get_calls_trivially_proven(self):
        assert analyze("float f(float x) { return x; }", 1).proven

    def test_descending_loop_not_matched_but_safe(self):
        # Descending loops are not pattern-matched: the analysis must
        # conservatively reject, never wrongly prove.
        source = """
        float f(float* m) {
            float s = 0.0f;
            for (int i = 1; i >= -1; --i) s += get(m, i, 0);
            return s;
        }"""
        assert not analyze(source, 1).proven

    def test_ternary_offset(self):
        source = "float f(float* m, int c) { return get(m, c ? 1 : -1, 0); }"
        assert analyze(source, 1).proven


class TestLoopCounterSoundness:
    """The counter's range comes from the loop header only while the
    header is the whole story."""

    def test_counter_reassigned_in_body_rejected(self):
        # i is reset to -5 once, so get(m, -4) executes: trusting the
        # header's [-1, 1] would compile the range check out.
        source = """
        float f(float* m) {
            float s = 0; int once = 0;
            for (int i = -1; i <= 1; ++i) {
                s += get(m, i);
                if (i == 0 && !once) { i = -5; once = 1; }
            }
            return s;
        }"""
        assert not analyze(source, 1).proven

    def test_bound_reassigned_in_body_rejected(self):
        source = """
        float f(float* m) {
            float s = 0; int n = 1;
            for (int i = 0; i <= n; ++i) { s += get(m, i); n = 5; }
            return s;
        }"""
        assert not analyze(source, 1).proven

    def test_zero_trip_loop_contributes_nothing(self):
        proof = analyze("""
        float f(float* m) {
            float s = 0;
            for (int i = 7; i < 0; ++i) s += get(m, i);
            return s + get(m, 1);
        }""", 1)
        assert proof.proven
        assert proof.accesses == [(Interval(1, 1),)]


class TestSwitchSoundness:
    """Cases fall through, break early or match nothing, and an early
    return inside one narrows that case only: nothing a ``switch`` does
    may tighten what comes after it."""

    def test_early_return_in_a_case_does_not_narrow_the_loop(self):
        # `if (i > 1) return` sits in case 0, where it never fires; a
        # guard leaking out of the case bounded i to [0, 1].
        proof = analyze("""
        float f(float* m) {
            float s = 0;
            for (int i = 0; i < 5; ++i) {
                switch (i) { case 0: if (i > 1) return s; break; }
                s += get(m, i);
            }
            return s;
        }""", 1)
        assert not proof.proven
        assert proof.accesses == [(Interval(0, 4),)]

    def test_early_return_in_a_case_does_not_hide_later_accesses(self):
        proof = analyze("""
        float f(float* m, int j, int k) {
            float s = 0;
            switch (k) { case 0: if (j > 1) return s; break; }
            return s + get(m, j);
        }""", 1)
        assert not proof.proven
        assert len(proof.accesses) == 1 and proof.accesses[0][0].is_top

    @pytest.mark.parametrize("body", [
        "int x = 5; switch (k) { case 0: x = 0; }",  # no case matches
        "int x = 0; int y = 0; switch (k) { case 0: y = 5; case 1: x = y; }",
        "int x = 0; switch (k) { case 0: x = 5; if (k) break; x = 0; break;"
        " default: x = 1; }",
    ], ids=["no-match", "fall-through", "early-break"])
    def test_assignments_in_a_switch_are_not_trusted(self, body):
        proof = analyze(
            "float f(float* m, int k) { %s return get(m, x); }" % body, 1)
        assert not proof.proven

    def test_switch_leaves_untouched_variables_alone(self):
        proof = analyze("""
        float f(float* m, int k) {
            int x = 1; float s = 0;
            switch (k) { case 0: s = 1; break; default: s = 2; }
            return s + get(m, x);
        }""", 1)
        assert proof.proven


class TestPointerEscape:
    """A proof is only as good as its view of the accesses: any use of
    the pointer parameter outside the recognized ``get()``/direct
    patterns (aliasing, helper calls) hides reads from the analysis and
    must poison the proof — a proven result would let MapOverlap shrink
    the staged halo below the kernel's actual reach."""

    def test_aliased_pointer_poisons_proof(self):
        proof = analyze("float f(float* v) { float* p = v; return p[3]; }", 1)
        assert not proof.proven
        assert "escapes" in proof.reason

    def test_pointer_passed_to_helper_poisons_proof(self):
        source = """
        float pick(float* q) { return q[3]; }
        float f(float* v) { return pick(v); }
        """
        assert not analyze(source, 1).proven

    def test_pointer_in_unmodelled_arithmetic_poisons_proof(self):
        assert not analyze(
            "float f(float* v) { return v[1] + (v + 2)[0]; }", 1).proven

    def test_recognized_patterns_do_not_escape(self):
        proof = analyze(
            "float f(float* v) { return v[1] + *(v + 1) + *v + get(v, -1); }",
            1)
        assert proof.proven
