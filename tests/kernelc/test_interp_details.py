"""Interpreter-specific behaviours and fault paths, held on every engine."""

import numpy as np
import pytest

from repro.kernelc import compile_source
from repro.kernelc.ctypes_ import FLOAT, INT
from repro.kernelc.execmodel import local_memory_bytes
from repro.kernelc.memory import KernelFault

from .helpers import run_kernel
from .interp import Machine


def run(source, arrays, args, backend, n=1, local=None):
    return run_kernel(source, "k", arrays, args, n, local, backend=backend)


@pytest.fixture(params=["compiler", "interp", "vector"])
def backend(request):
    return request.param


class TestGlobals:
    def test_constant_scalar_global(self, backend):
        src = """
        __constant float SCALE = 2.5f;
        __kernel void k(__global float* o) { o[0] = SCALE * 2.0f; }
        """
        out, _ = run(src, {"o": np.zeros(1, np.float32)}, ["o"], backend)
        assert out["o"][0] == 5.0

    def test_constant_expression_global(self, backend):
        src = """
        __constant int N = 4 * 4 + 2;
        __kernel void k(__global int* o) { o[0] = N; }
        """
        out, _ = run(src, {"o": np.zeros(1, np.int32)}, ["o"], backend)
        assert out["o"][0] == 18

    def test_machine_materializes_global_arrays(self):
        program = compile_source(
            "__constant int W[4] = {1, 2, 3, 4};\nvoid unused() { }"
        )
        machine = Machine(program)
        ref = machine.globals["W"]
        assert [ref.pointer.load(i) for i in range(4)] == [1, 2, 3, 4]

    def test_negative_initializer_elements(self, backend):
        src = """
        __constant int W[2] = {-7, 3};
        __kernel void k(__global int* o) { o[0] = W[0] + W[1]; }
        """
        out, _ = run(src, {"o": np.zeros(1, np.int32)}, ["o"], backend)
        assert out["o"][0] == -4


class TestFaults:
    def test_uninitialized_pointer_faults(self, backend):
        src = """__kernel void k(__global int* o) {
            __global int* p;
            o[0] = p[0];
        }"""
        with pytest.raises(KernelFault):
            run(src, {"o": np.zeros(1, np.int32)}, ["o"], backend)

    def test_helper_without_return_faults(self, backend):
        src = """
        int helper(int x) { if (x > 0) return x; }
        __kernel void k(__global int* o) { o[0] = helper(-1); }
        """
        with pytest.raises(KernelFault):
            run(src, {"o": np.zeros(1, np.int32)}, ["o"], backend)

    def test_trap_builtin_faults(self, backend):
        src = "__kernel void k(__global int* o) { __scl_trap(3); o[0] = 1; }"
        with pytest.raises(KernelFault) as excinfo:
            run(src, {"o": np.zeros(1, np.int32)}, ["o"], backend)
        assert "code 3" in str(excinfo.value)

    def test_too_many_array_initializers_fault(self, backend):
        # Parse-time size vs initializer mismatch is a checker error;
        # this exercises the checker, not the runtime.
        from repro.kernelc.diagnostics import CompileError

        with pytest.raises(CompileError):
            compile_source("void f() { int a[2] = {1, 2, 3}; }")


class TestSwitchDefaults:
    def test_default_in_middle_falls_through(self, backend):
        src = """__kernel void k(__global int* o, int x) {
            int r = 0;
            switch (x) {
                case 1: r += 1; break;
                default: r += 10;
                case 2: r += 2; break;
                case 3: r += 3;
            }
            o[0] = r;
        }"""
        cases = {1: 1, 2: 2, 3: 3, 9: 12}  # default falls into case 2
        for x, expected in cases.items():
            out, _ = run(src, {"o": np.zeros(1, np.int32)}, ["o", x], backend)
            assert out["o"][0] == expected, x


class TestVectorDetails:
    def test_vector_param_value_semantics(self, backend):
        src = """
        float mangle(float2 v) { v.x = 99.0f; return v.x; }
        __kernel void k(__global float* o) {
            float2 original = (float2)(1.0f, 2.0f);
            float inside = mangle(original);
            o[0] = original.x;
            o[1] = inside;
        }"""
        out, _ = run(src, {"o": np.zeros(2, np.float32)}, ["o"], backend)
        assert list(out["o"]) == [1.0, 99.0]

    def test_component_store_through_memory(self, backend):
        src = """__kernel void k(__global float4* v) {
            v[0].y = 42.0f;
        }"""
        arrays = {"v": np.array([1, 2, 3, 4], np.float32)}
        out, _ = run(src, arrays, ["v"], backend)
        assert list(out["v"]) == [1.0, 42.0, 3.0, 4.0]

    def test_swizzle_store_through_memory(self, backend):
        src = """__kernel void k(__global float4* v) {
            v[0].xw = (float2)(9.0f, 8.0f);
        }"""
        arrays = {"v": np.array([1, 2, 3, 4], np.float32)}
        out, _ = run(src, arrays, ["v"], backend)
        assert list(out["v"]) == [9.0, 2.0, 3.0, 8.0]


class TestLocalMemoryMetadata:
    def test_local_memory_bytes(self):
        program = compile_source("""
        __kernel void k(__global int* o) {
            __local float tile[16][18];
            __local int flags[32];
            tile[0][0] = 0.0f;
            flags[0] = 0;
            barrier(CLK_LOCAL_MEM_FENCE);
            o[0] = flags[0];
        }""")
        assert local_memory_bytes(program.function("k")) == 16 * 18 * 4 + 32 * 4
