"""SkelAccess unit tests: affine access summaries of kernel sources and
their enqueue-time resolution to concrete byte ranges."""

import pytest

from repro.analysis import affine
from repro.analysis.access import BufferAccess
from repro.kernelc.frontend import compile_source


def summarize(source):
    program = compile_source(source, "<test>")
    fn = program.kernels()[0]
    return affine.summarize_kernel(program, fn)


class TestSummaries:
    def test_map_kernel_is_affine(self):
        summary = summarize("""
            __kernel void k(__global const float* in, __global float* out,
                            unsigned int n, unsigned int off) {
                size_t i = get_global_id(0);
                if (i < n) out[i] = 2.0f * in[i + off];
            }""")
        assert summary.params["in"].affine
        assert summary.params["out"].affine
        (read,) = summary.params["in"].footprints
        assert read.mode == "r"
        assert read.index.format() == "get_global_id(0) + off"
        (write,) = summary.params["out"].footprints
        assert write.mode == "w"
        assert write.index.format() == "get_global_id(0)"
        # The bound guard rides along: i < n  ==>  i + 1 - n <= 0.
        assert any("n" in g.format() for g in write.guards)

    def test_local_pointer_params_are_not_summarized(self):
        summary = summarize("""
            __kernel void k(__global float* out, __local float* scratch) {
                size_t i = get_global_id(0);
                scratch[get_local_id(0)] = 1.0f;
                out[i] = scratch[0];
            }""")
        assert set(summary.params) == {"out"}

    def test_non_affine_index_falls_back_with_reason(self):
        summary = summarize("""
            __kernel void k(__global const int* table, __global int* out) {
                int i = get_global_id(0);
                out[i] = table[out[i] * i];
            }""")
        psum = summary.params["table"]
        assert not psum.affine
        assert psum.whole_buffer_reason

    def test_pointer_escaping_to_helper_is_tracked_through_call(self):
        summary = summarize("""
            float pick(__global const float* p, int i) { return p[i + 1]; }
            __kernel void k(__global const float* in, __global float* out) {
                int i = get_global_id(0);
                out[i] = pick(in, i);
            }""")
        assert summary.params["in"].affine
        (read,) = summary.params["in"].footprints
        assert read.index.format() == "get_global_id(0) + 1"

    def test_callee_early_return_guard_does_not_leak_into_caller(self):
        # `f` early-returns under i >= n; the negated guard (i < n)
        # covers only the callee's remaining statements.  The caller's
        # unconditional out[i] write must not inherit it, or the write
        # footprint under-approximates and races go unreported.
        summary = summarize("""
            int f(int i, int n) {
                if (i >= n) return 0;
                return i;
            }
            __kernel void k(__global int* out, unsigned int n) {
                int i = get_global_id(0);
                int t = f(i, n);
                out[i] = t;
            }""")
        (write,) = summary.params["out"].footprints
        assert not write.guards
        env = affine.make_eval_env((16,), (4,), {"n": 4})
        resolved = affine.resolve_footprint(write, env, 4, 16 * 4)
        # All 16 work-items write, regardless of the callee's guard.
        assert (resolved.start, resolved.stop) == (0, 16 * 4)

    def test_early_return_in_a_switch_case_guards_that_case_only(self):
        summary = summarize("""
            __kernel void k(__global int* out, int sel) {
                int i = get_global_id(0);
                switch (sel) { case 0: if (i > 1) return; break; }
                out[i] = 1;
            }""")
        (write,) = summary.params["out"].footprints
        assert not write.guards

    def test_switch_assignments_are_unknown_afterwards(self):
        # sel == 0 falls through to case 1: j is 5 there, not 0.
        summary = summarize("""
            __kernel void k(__global int* out, int sel) {
                int j = 0; int x = 0;
                switch (sel) { case 0: j = 5; case 1: x = j; }
                out[x] = 1;
            }""")
        assert not summary.params["out"].affine

    def test_reqd_work_group_size_attribute_parsed(self):
        summary = summarize("""
            __attribute__((reqd_work_group_size(64, 1, 1)))
            __kernel void k(__global float* out) {
                out[get_global_id(0)] = 0.0f;
            }""")
        assert summary.reqd_wg == (64, 1, 1)


class TestEscapeDemotesTheRoot:
    """Whatever name a pointer travels under, losing track of it demotes
    the *parameter it is rooted at* — never nothing."""

    def test_callee_parameter_reaching_an_unmodelled_builtin(self):
        summary = summarize("""
            void put(__global float* q, int i) {
                vstore4((float4)(0.0f), i, q);
            }
            __kernel void k(__global float* out) {
                put(out, (int)get_global_id(0));
            }""")
        assert not summary.params["out"].affine
        assert summary.modes["out"] == "rw"

    def test_local_aliases_joined_from_different_roots(self):
        summary = summarize("""
            __kernel void k(__global float* a, __global float* b, int c) {
                __global float* p = a;
                if (c) { p = b; }
                p[get_global_id(0)] = 1.0f;
            }""")
        assert summary.fallback_params == ["a", "b"]
        assert summary.modes["a"] == summary.modes["b"] == "rw"

    def test_pointer_walked_by_a_loop(self):
        summary = summarize("""
            __kernel void k(__global const float* in, __global float* out,
                            int n) {
                __global const float* p = in + get_global_id(0);
                float s = 0.0f;
                for (int i = 0; i < n; ++i) { s += *p; p += 4; }
                out[get_global_id(0)] = s;
            }""")
        assert not summary.params["in"].affine
        assert summary.params["out"].affine
        assert summary.modes["in"] == "r"  # const pointee

    def test_straight_line_pointer_bumps_stay_affine(self):
        summary = summarize("""
            __kernel void k(__global float* out) {
                __global float* p = out + get_global_id(0);
                p++;
                p += 2;
                *p = 1.0f;
            }""")
        (write,) = summary.params["out"].footprints
        assert write.index.format() == "get_global_id(0) + 3"


class TestEveryAccessIsRecorded:
    def test_load_inside_a_float_comparison(self):
        summary = summarize("""
            __kernel void k(__global const float* in, __global float* out) {
                size_t i = get_global_id(0);
                if (in[i + 1] > 0.5f) out[i] = 1.0f;
            }""")
        (read,) = summary.params["in"].footprints
        assert read.index.format() == "get_global_id(0) + 1"

    def test_increment_through_memory_reads_and_writes(self):
        summary = summarize("""
            __kernel void k(__global int* hist) {
                hist[get_global_id(0)]++;
            }""")
        assert sorted(f.mode for f in summary.params["hist"].footprints) == ["r", "w"]
        assert summary.modes["hist"] == "rw"


class TestResolution:
    def test_map_footprint_resolves_to_exact_bytes(self):
        summary = summarize("""
            __kernel void k(__global const float* in, __global float* out,
                            unsigned int n, unsigned int off) {
                size_t i = get_global_id(0);
                if (i < n) out[i] = in[i + off];
            }""")
        env = affine.make_eval_env((1024,), (256,), {"n": 1000, "off": 5})
        (read,) = summary.params["in"].footprints
        resolved = affine.resolve_footprint(read, env, 4, 8192)
        # gid in [0, 999] (narrowed by the guard), +5 offset, 4 bytes each.
        assert (resolved.start, resolved.stop) == (5 * 4, (1000 + 5) * 4)
        assert resolved.stride == 0
        (write,) = summary.params["out"].footprints
        resolved = affine.resolve_footprint(write, env, 4, 8192)
        assert (resolved.start, resolved.stop) == (0, 1000 * 4)

    def test_grid_stride_loop_resolves_exactly(self):
        summary = summarize("""
            __kernel void k(__global const float* in, __global float* out,
                            unsigned int n) {
                for (size_t i = get_global_id(0); i < n;
                     i += get_global_size(0)) {
                    out[i] = in[i];
                }
            }""")
        env = affine.make_eval_env((256,), (64,), {"n": 5000})
        (read,) = summary.params["in"].footprints
        resolved = affine.resolve_footprint(read, env, 4, 4 * 5000)
        assert (resolved.start, resolved.stop) == (0, 4 * 5000)

    def test_strided_store_resolves_with_stride(self):
        summary = summarize("""
            __kernel void k(__global float* out, unsigned int n) {
                size_t i = get_global_id(0);
                if (i < n) out[2 * i + 1] = 0.0f;
            }""")
        env = affine.make_eval_env((512,), (64,), {"n": 512})
        (write,) = summary.params["out"].footprints
        resolved = affine.resolve_footprint(write, env, 4, 4 * 1024)
        assert resolved.start == 4  # element 1
        assert resolved.stride == 8  # every other float
        assert resolved.width == 4

    def test_infeasible_guards_resolve_to_none(self):
        summary = summarize("""
            __kernel void k(__global float* out, unsigned int n) {
                size_t i = get_global_id(0);
                if (i < n) out[i] = 0.0f;
            }""")
        env = affine.make_eval_env((256,), (64,), {"n": 0})
        (write,) = summary.params["out"].footprints
        assert affine.resolve_footprint(write, env, 4, 1024) is None

    def test_missing_scalar_raises_unresolvable(self):
        summary = summarize("""
            __kernel void k(__global float* out, unsigned int off) {
                out[get_global_id(0) + off] = 0.0f;
            }""")
        env = affine.make_eval_env((256,), (64,), {})
        (write,) = summary.params["out"].footprints
        with pytest.raises(affine.Unresolvable):
            affine.resolve_footprint(write, env, 4, 4096)


class TestResidueDisjointness:
    def access(self, start, stop, stride, width, mode="w"):
        return BufferAccess(1, "buf", start, stop, mode,
                            stride=stride, width=width)

    def test_even_odd_strided_writes_do_not_conflict(self):
        even = self.access(0, 4096, 8, 4)
        odd = self.access(4, 4100, 8, 4)
        assert not even.conflicts_with(odd)
        assert not odd.conflicts_with(even)

    def test_same_phase_strided_writes_conflict(self):
        a = self.access(0, 4096, 8, 4)
        b = self.access(0, 4096, 8, 4)
        assert a.conflicts_with(b)

    def test_mixed_width_overlapping_windows_conflict(self):
        # a covers residues {0,1,2,3} mod 8; b writes single bytes at
        # residue 2 — inside a's window, so they share bytes.
        a = self.access(0, 4096, 8, 4)
        b = self.access(2, 4099, 8, 1)
        assert a.conflicts_with(b)
        assert b.conflicts_with(a)

    def test_mixed_width_disjoint_windows_do_not_conflict(self):
        # a covers residues {0,1,2,3} mod 8; b touches residue 6 only.
        a = self.access(0, 4096, 8, 4)
        b = self.access(6, 4103, 8, 1)
        assert not a.conflicts_with(b)
        assert not b.conflicts_with(a)

    def test_dense_range_conflicts_with_overlapping_stride(self):
        dense = self.access(0, 4096, 0, 0)
        strided = self.access(4, 4100, 8, 4)
        assert dense.conflicts_with(strided)

    def test_reads_never_conflict(self):
        a = self.access(0, 4096, 0, 0, mode="r")
        b = self.access(0, 4096, 0, 0, mode="r")
        assert not a.conflicts_with(b)

    def test_describe_carries_provenance(self):
        access = BufferAccess(7, "out", 0, 64, "w", stride=8, width=4,
                              provenance="arg out, index 2*get_global_id(0)")
        text = access.describe()
        assert "out#7[0:64:8]" in text
        assert "arg out" in text
