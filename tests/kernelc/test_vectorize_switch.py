"""Differential coverage for masked ``switch`` dispatch on the lockstep
engine.

Same oracle as ``test_vectorize_differential``: bit-exact buffers and
equal ExecutionCounters against the per-item oracle, faults included.
"""

import numpy as np

from repro.kernelc import compile_source
from repro.kernelc.compiler import compile_program
from repro.kernelc import vectorize

from .test_vectorize_differential import assert_backends_agree


def _ints(n, lo, hi, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(lo, hi, size=n, dtype=np.int32)


def test_switch_is_lowered_to_masked_dispatch():
    source = """
    __kernel void k(__global int* out) {
        int v = 0;
        switch ((int)get_global_id(0) % 2) {
            case 0: v = 1; break;
            default: v = 2; break;
        }
        out[get_global_id(0)] = v;
    }
    """
    compiled = compile_program(compile_source(source)).kernel("k")
    assert "_switch_start(" in vectorize.plan_for(compiled).source


def test_switch_basic_dispatch():
    source = """
    __kernel void k(__global const int* in, __global int* out) {
        size_t gid = get_global_id(0);
        int v;
        switch (in[gid]) {
            case 0: v = 10; break;
            case 1: v = 20; break;
            case 2: v = 30; break;
            default: v = -1; break;
        }
        out[gid] = v;
    }
    """
    arrays = {"in": _ints(64, 0, 5, 1), "out": np.zeros(64, dtype=np.int32)}
    assert_backends_agree(source, "k", arrays, ["in", "out"], (64,), (16,))


def test_switch_fallthrough_accumulates():
    source = """
    __kernel void k(__global const int* in, __global int* out) {
        size_t gid = get_global_id(0);
        int v = 0;
        switch (in[gid]) {
            case 0: v += 1;
            case 1: v += 10;
            case 2: v += 100; break;
            case 3: v += 1000;
            default: v += 10000;
        }
        out[gid] = v;
    }
    """
    arrays = {"in": _ints(96, 0, 6, 2), "out": np.zeros(96, dtype=np.int32)}
    assert_backends_agree(source, "k", arrays, ["in", "out"], (96,), (32,))


def test_switch_default_in_middle():
    source = """
    __kernel void k(__global const int* in, __global int* out) {
        size_t gid = get_global_id(0);
        int v = 0;
        switch (in[gid]) {
            case 7: v = 1; break;
            default: v = 50;
            case 8: v += 2; break;
            case 9: v = 3; break;
        }
        out[gid] = v;
    }
    """
    arrays = {"in": _ints(64, 5, 12, 3), "out": np.zeros(64, dtype=np.int32)}
    assert_backends_agree(source, "k", arrays, ["in", "out"], (64,), (8,))


def test_switch_without_default_passes_through():
    source = """
    __kernel void k(__global const int* in, __global int* out) {
        size_t gid = get_global_id(0);
        int v = -5;
        switch (in[gid]) {
            case 1: v = 100; break;
            case 3: v = 300;
        }
        out[gid] = v + 1;
    }
    """
    arrays = {"in": _ints(80, 0, 6, 4), "out": np.zeros(80, dtype=np.int32)}
    assert_backends_agree(source, "k", arrays, ["in", "out"], (80,), (16,))


def test_switch_inside_loop_with_continue_and_break():
    source = """
    __kernel void k(__global const int* in, __global int* out) {
        size_t gid = get_global_id(0);
        int acc = 0;
        for (int i = 0; i < 8; ++i) {
            switch ((in[gid] + i) % 4) {
                case 0: acc += 1; break;
                case 1: continue;
                case 2: acc += 7;
                default: acc -= 2; break;
            }
            acc += 100;
        }
        out[gid] = acc;
    }
    """
    arrays = {"in": _ints(64, 0, 9, 5), "out": np.zeros(64, dtype=np.int32)}
    assert_backends_agree(source, "k", arrays, ["in", "out"], (64,), (16,))


def test_switch_nested_in_switch():
    source = """
    __kernel void k(__global const int* in, __global int* out) {
        size_t gid = get_global_id(0);
        int v = 0;
        switch (in[gid] / 3) {
            case 0:
                switch (in[gid] % 3) {
                    case 0: v = 1; break;
                    case 1: v = 2;
                    default: v += 4; break;
                }
                break;
            case 1: v = 10; break;
            default: v = 99; break;
        }
        out[gid] = v;
    }
    """
    arrays = {"in": _ints(128, 0, 9, 6), "out": np.zeros(128, dtype=np.int32)}
    assert_backends_agree(source, "k", arrays, ["in", "out"], (128,), (32,))


def test_switch_on_long_subject_and_negative_cases():
    source = """
    __kernel void k(__global const long* in, __global long* out) {
        size_t gid = get_global_id(0);
        long v = 0;
        switch (in[gid]) {
            case -2: v = 111; break;
            case 0: v = 222; break;
            case 4611686018427387904: v = 333; break;
            default: v = -1; break;
        }
        out[gid] = v;
    }
    """
    values = np.array([-2, 0, 4611686018427387904, 5, -2, 7, 0, 1] * 8,
                      dtype=np.int64)
    arrays = {"in": values, "out": np.zeros(values.size, dtype=np.int64)}
    assert_backends_agree(source, "k", arrays, ["in", "out"], (values.size,), (8,))


def test_switch_in_helper_function():
    source = """
    int classify(int x) {
        switch (x % 3) {
            case 0: return 7;
            case 1: return 8;
        }
        return 9;
    }
    __kernel void k(__global const int* in, __global int* out) {
        size_t gid = get_global_id(0);
        out[gid] = classify(in[gid]);
    }
    """
    arrays = {"in": _ints(64, 0, 30, 7), "out": np.zeros(64, dtype=np.int32)}
    assert_backends_agree(source, "k", arrays, ["in", "out"], (64,), (16,))


def test_switch_divergent_subject_expression():
    source = """
    __kernel void k(__global const int* in, __global float* out) {
        size_t gid = get_global_id(0);
        float v = 0.0f;
        int sel = (in[gid] * 13 + (int)gid) % 5;
        switch (sel) {
            case 0: v = 1.5f; break;
            case 1: v = 2.5f;
            case 2: v += 0.25f; break;
            case 3: v = -7.0f; break;
            default: v = 42.0f; break;
        }
        out[gid] = v;
    }
    """
    arrays = {"in": _ints(100, 0, 50, 8),
              "out": np.zeros(100, dtype=np.float32)}
    assert_backends_agree(source, "k", arrays, ["in", "out"], (100,), (4,))
