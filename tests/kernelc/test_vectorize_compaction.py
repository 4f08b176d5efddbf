"""Compacted regions of the lockstep engine.

A branch of an ``if`` or a loop body under a lane-varying condition that
holds no barrier, lets nothing escape and does real work is bracketed by
``vectorize._region``: when at most half the current lanes are active
(and there are at least ``_COMPACT_MIN_LANES`` of them) it runs on those
lanes alone.  Nothing observable may change: every test here holds the
lockstep engine against the per-item one — bit-exact buffers, equal
``ExecutionCounters``, the same exception type and message — and reads
``skelcl_lockstep_regions_total{path}`` to prove which path ran.

The launches are small, so most tests lower the lane floor to zero: the
rule under test is the region machinery, which does not depend on how
many lanes there are.  ``test_the_lane_floor_holds_at_launch_size``
runs at the default floor.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernelc import ExecutionCounters, compile_source, vectorize
from repro.kernelc.compiler import compile_program
from repro.kernelc.ctypes_ import ctype_from_numpy
from repro.kernelc.execmodel import convert_value
from repro.kernelc.memory import Pointer
from repro.ocl.ndrange import NDRange
from repro.scope.metrics import MetricsRegistry

from .test_vectorize_differential import _ENGINES

_PATHS = ("compacted", "full")


def _kernel(source, name="k"):
    return compile_program(compile_source(source, "<compaction>")).kernel(name)


def _launch(kernel, arrays, scalars, global_size, local_size, engine):
    """``(buffers, counters, {path: region entries})``, or what it raised."""
    counters = ExecutionCounters()
    pointers = {name: Pointer(array.copy(), ctype_from_numpy(array.dtype), "global", 0,
                              counters.memory) for name, array in arrays.items()}
    args = [pointers[a] if isinstance(a, str) else a for a in scalars]
    args = [convert_value(value, param.declared_type)
            for value, param in zip(args, kernel.definition.params)]
    registry = MetricsRegistry()
    try:
        _ENGINES[engine](kernel, NDRange.create(global_size, local_size), args,
                         counters=counters, metrics=registry)
    except Exception as exc:  # compared by type and message below
        return exc
    regions = {path: registry.value("skelcl_lockstep_regions_total", path=path)
               for path in _PATHS}
    return {name: pointer.array for name, pointer in pointers.items()}, counters, regions


def assert_engines_agree(kernel, arrays, scalars, global_size, local_size):
    """Run both engines; the region tallies of the lockstep run (None
    when both raised — then with one exception type and message)."""
    per_item = _launch(kernel, arrays, scalars, global_size, local_size, "peritem")
    lockstep = _launch(kernel, arrays, scalars, global_size, local_size, "lockstep")
    if isinstance(per_item, Exception) or isinstance(lockstep, Exception):
        assert (type(lockstep), str(lockstep)) == (type(per_item), str(per_item))
        return None
    (expected, expected_counters, _), (buffers, counters, regions) = per_item, lockstep
    for name in arrays:
        assert buffers[name].tobytes() == expected[name].tobytes(), name
    assert counters == expected_counters
    return regions


def _no_floor():
    return mock.patch.object(vectorize, "_COMPACT_MIN_LANES", 0)


# ---------------------------------------------------------------------------
# Generated kernels whose branch density is set by the data.
# ---------------------------------------------------------------------------

_TYPES = [("int", np.int32), ("uint", np.uint32), ("long", np.int64),
          ("float", np.float32), ("double", np.float64)]

_WG = 16

#: Region shapes over the per-lane flags ``s0``/``s1`` and count ``cnt``
#: (all drawn from ``sel``); ``T`` is the element type.
_SHAPES = {
    "if_else": "if (s0) { acc = acc + in[(gid * 5 + 3) % n]; }"
               " else { acc = acc - in[(gid + 7) % n]; }",
    "nested": "if (s0) { acc = acc * (T)2 + in[(gid + 1) % n];"
              " if (s1) { acc = acc - in[(gid + 2) % n]; } }",
    "for": "for (int i = 0; i < cnt; ++i) { acc = acc + in[(gid + i) % n]; }",
    "while_call": "{ int w = 0; while (w < cnt) { acc = combine(acc, in[(gid * 3 + w) % n]);"
                  " ++w; } }",
    "private": "priv[gid % 4] = acc; if (s1) { priv[(gid + 1) % 4] = in[gid];"
               " acc = acc + priv[gid % 4] + priv[(gid + 1) % 4]; }",
    "local_pointer": "if (s0) { acc = acc + lp[0] + tile[(lid + 1) % WG]; }",
    "local_decl": "if (s1) { __local T own[WG]; own[lid] = acc + in[(gid + 5) % n];"
                  " acc = own[lid] - (T)1; }",
    "int_to_float": "if (s1) { f = (int)in[gid] / 3; acc = acc + (T)f; }",
    "tree": "for (int s = WG / 2; s > 0; s >>= 1) { if (lid < s) {"
            " tree[lid] = tree[lid] + tree[lid + s]; } barrier(CLK_LOCAL_MEM_FENCE); }"
            " acc = acc + tree[0]; barrier(CLK_LOCAL_MEM_FENCE);",
}


def _source(cname, shapes):
    body = "\n        ".join(_SHAPES[shape] for shape in shapes).replace("WG", str(_WG))
    return f"""
    #define T {cname}
    T combine(T a, T b) {{ return a > b ? a - b : b + a; }}
    __kernel void k(__global T* out, __global const T* in, __global const int* sel,
                    __global float* fout, int n) {{
        __local T tile[{_WG}];
        __local T tree[{_WG}];
        int gid = get_global_id(0);
        int lid = get_local_id(0);
        int s0 = sel[gid] & 1;
        int s1 = (sel[gid] >> 1) & 1;
        int cnt = (sel[gid] >> 2) & 3;
        T acc = in[gid];
        T priv[4] = {{1, 2, 3, 4}};
        float f = 0.25f;
        tile[lid] = in[(gid + 3) % n];
        tree[lid] = in[gid];
        barrier(CLK_LOCAL_MEM_FENCE);
        const T* lp = tile + lid;  /* a pointer into __local memory */
        {body}
        out[gid] = acc;
        fout[gid] = f;
    }}"""


def _flags(rng, n, share):
    """``sel`` with exactly ``share`` of the lanes setting each field."""
    sel = np.zeros(n, np.int32)
    for bit in (1, 2, 4, 8):
        sel[rng.permutation(n)[:int(round(share * n))]] |= bit
    return sel


@st.composite
def _branchy_kernels(draw):
    cname, dtype = draw(st.sampled_from(_TYPES))
    shapes = draw(st.lists(st.sampled_from(sorted(_SHAPES)), min_size=1, max_size=3))
    if set(shapes) <= {"tree"}:
        shapes.append("if_else")  # at least one region whose density is the data's
    groups = draw(st.integers(1, 4))
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    return cname, dtype, shapes, groups, rng


class TestDataDensity:
    @settings(deadline=None)  # example budget: the hypothesis profile
    @given(case=_branchy_kernels())
    def test_sparse_and_dense_runs_agree_and_take_both_paths(self, case):
        cname, dtype, shapes, groups, rng = case
        kernel = _kernel(_source(cname, shapes))
        n = _WG * groups
        if np.issubdtype(dtype, np.floating):
            data = rng.uniform(-8, 8, n).astype(dtype)
        else:
            data = rng.randint(0, 40, n).astype(dtype)
        tallies = {}
        with _no_floor():
            for density, share in (("sparse", 0.25), ("dense", 0.75)):
                arrays = {"out": np.zeros(n, dtype), "in": data, "sel": _flags(rng, n, share),
                          "fout": np.zeros(n, np.float32)}
                tallies[density] = assert_engines_agree(
                    kernel, arrays, ["out", "in", "sel", "fout", n], (n,), (_WG,))
        assert tallies["sparse"]["compacted"] > 0, tallies
        assert tallies["dense"]["full"] > 0, tallies


# ---------------------------------------------------------------------------
# Hand-written cases.
# ---------------------------------------------------------------------------


class TestShapes:
    def test_every_shape_compacts_when_sparse(self):
        rng = np.random.RandomState(7)
        for shape in sorted(_SHAPES):
            kernel = _kernel(_source("int", [shape]))
            n = 4 * _WG
            arrays = {"out": np.zeros(n, np.int32), "in": rng.randint(0, 40, n).astype(np.int32),
                      "sel": _flags(rng, n, 0.25), "fout": np.zeros(n, np.float32)}
            with _no_floor():
                regions = assert_engines_agree(
                    kernel, arrays, ["out", "in", "sel", "fout", n], (n,), (_WG,))
            assert regions["compacted"] > 0, (shape, regions)

    def test_nested_regions_compose(self):
        """A region inside a compacted region compacts again, on the
        compacted lanes (its density is taken among those)."""
        kernel = _kernel(_source("int", ["nested"]))
        source = vectorize.plan_for(kernel).source
        assert source.count("= _region(R, ") == 2
        n = 8 * _WG
        sel = np.zeros(n, np.int32)
        sel[::4] = 1        # s0 on a quarter of the lanes
        sel[::16] |= 2      # s1 on a quarter of those
        arrays = {"out": np.zeros(n, np.int32), "in": np.arange(n, dtype=np.int32),
                  "sel": sel, "fout": np.zeros(n, np.float32)}
        with _no_floor():
            regions = assert_engines_agree(
                kernel, arrays, ["out", "in", "sel", "fout", n], (n,), (_WG,))
        assert regions == {"compacted": 2, "full": 0}

    def test_outer_variable_changing_int_to_float(self):
        """The widened value is ``_merge``'s, domain included: int lanes
        written float inside the region come back float on every lane."""
        chain = np.array([True, False, True, False, False, False])
        ix = chain.nonzero()[0]
        old = np.arange(6, dtype=np.int64) * 3
        new = np.array([0.5, -1.25])
        full_new = np.zeros(6)
        full_new[ix] = new
        widened = vectorize._widen(old, new, ix, chain)
        expected = vectorize._merge(old, full_new, chain)
        assert widened.dtype == expected.dtype == np.float64
        assert widened.tobytes() == expected.tobytes()
        # scalar before, lanes after; lanes before, an equal scalar after
        assert vectorize._widen(7, np.array([1, 2]), ix, chain).tolist() == [1, 7, 2, 7, 7, 7]
        assert vectorize._widen(old, 5, ix, chain).tolist() == [5, 3, 5, 9, 12, 15]

    def test_the_lane_floor_holds_at_launch_size(self):
        """With the default floor a launch of fewer lanes runs every
        region full, a launch of as many compacts."""
        source = """__kernel void k(__global int* out, __global const int* in, int n) {
            int gid = get_global_id(0);
            if (gid % 8 == 0) { out[gid] = in[gid] * 2 + in[(gid + 1) % n]; }
        }"""
        kernel = _kernel(source)
        floor = vectorize._COMPACT_MIN_LANES
        for n, path in ((floor // 2, "full"), (floor, "compacted")):
            arrays = {"out": np.zeros(n, np.int32), "in": np.arange(n, dtype=np.int32)}
            regions = _launch(kernel, arrays, ["out", "in", n], (n,), (64,), "lockstep")[2]
            assert regions == {p: int(p == path) for p in _PATHS}, (n, regions)


class TestFaultParity:
    """Inside a compacted region a fault is the per-item engine's: the
    same exception, the same message — the first faulting lane in lane
    order, since the region keeps its lanes sorted."""

    def _assert_fault(self, source, arrays, faulting, scalars, n, message):
        """``arrays`` run clean and compact; ``faulting`` (the same, with
        some entries replaced) fault alike on both engines."""
        kernel = _kernel(source)
        with _no_floor():
            assert assert_engines_agree(kernel, arrays, scalars, (n,), (_WG,))["compacted"] > 0
            arrays = dict(arrays, **faulting)
            per_item = _launch(kernel, arrays, scalars, (n,), (_WG,), "peritem")
            lockstep = _launch(kernel, arrays, scalars, (n,), (_WG,), "lockstep")
        assert (type(lockstep), str(lockstep)) == (type(per_item), message)

    def test_out_of_bounds_gather(self):
        source = """__kernel void k(__global int* out, __global const int* in,
                                    __global const int* idx) {
            int gid = get_global_id(0);
            if (gid % 4 == 1) { out[gid] = in[idx[gid]] + 1; }
        }"""
        n = 4 * _WG
        idx = np.arange(n, dtype=np.int32)
        bad = idx.copy()
        bad[13], bad[37] = 500, 900     # two active lanes out of bounds
        bad[2] = 700                    # an inactive one, which must not fault
        arrays = {"out": np.zeros(n, np.int32), "in": np.arange(n, dtype=np.int32), "idx": idx}
        self._assert_fault(source, arrays, {"idx": bad}, ["out", "in", "idx"], n,
                           f"out-of-bounds global access: element 500 of {n}")

    def test_integer_division_by_zero(self):
        source = """__kernel void k(__global int* out, __global const int* in) {
            int gid = get_global_id(0);
            if (gid % 4 == 3) { out[gid] = out[gid] + 100 / in[gid]; }
        }"""
        n = 4 * _WG
        data = np.arange(1, n + 1, dtype=np.int32)
        bad = data.copy()
        bad[19] = 0                     # active
        bad[4] = 0                      # inactive
        self._assert_fault(source, {"out": np.zeros(n, np.int32), "in": data}, {"in": bad},
                           ["out", "in"], n, "integer division by zero")


class TestStaticExclusions:
    """What may not run compacted is never bracketed at all."""

    @pytest.mark.parametrize("body", [
        # a barrier inside the branch
        "if (lid < 4) { tile[lid] = in[gid]; barrier(CLK_LOCAL_MEM_FENCE); }",
        # break leaves the loop body
        "for (int i = 0; i < lid; ++i) { out[gid] = in[i]; if (in[i] > 3) break; }",
        # return leaves the branch
        "if (lid < 4) { out[gid] = in[gid]; return; }",
        # continue leaves the loop body
        "for (int i = 0; i < lid; ++i) { if (in[i] > 3) continue; out[gid] += in[i]; }",
        # a pointer variable assigned under divergence
        "__global const int* p = in; if (lid < 4) { p = in + 1; out[gid] = p[0]; }",
        # nothing but a merge
        "int v = 1; if (lid < 4) { v = lid * 3; } out[gid] = v;",
    ])
    def test_never_compacted(self, body):
        source = f"""__kernel void k(__global int* out, __global const int* in) {{
            __local int tile[{_WG}];
            int gid = get_global_id(0);
            int lid = get_local_id(0);
            {body}
        }}"""
        kernel = _kernel(source)
        plan = vectorize.plan_for(kernel)
        assert "_region(" not in plan.source
        n = 2 * _WG
        arrays = {"out": np.zeros(n, np.int32), "in": np.arange(n, dtype=np.int32) % 7}
        with _no_floor():
            regions = assert_engines_agree(kernel, arrays, ["out", "in"], (n,), (_WG,))
        assert regions is None or regions == {"compacted": 0, "full": 0}

    def test_divergent_barrier_keeps_its_message(self):
        source = """__kernel void k(__global int* out) {
            int lid = get_local_id(0);
            if (lid < 2) { out[lid] = lid; barrier(CLK_LOCAL_MEM_FENCE); }
        }"""
        kernel = _kernel(source)
        with _no_floor():
            per_item = _launch(kernel, {"out": np.zeros(8, np.int32)}, ["out"], (8,), (4,),
                               "peritem")
            lockstep = _launch(kernel, {"out": np.zeros(8, np.int32)}, ["out"], (8,), (4,),
                               "lockstep")
        message = ("barrier divergence: some work-items of a group reached a barrier "
                   "other items skipped")
        assert (type(lockstep), str(lockstep)) == (type(per_item), message)


def test_restored_plans_carry_the_compaction_code(tmp_path, monkeypatch):
    """A plan taken from the program cache is the generated one: it
    brackets its regions and compacts without any generator running."""
    from repro.kernelc import compiler, lint_program, progcache
    from repro.kernelc.compiler import restore_program

    monkeypatch.setenv("SKELCL_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("SKELCL_CACHE", raising=False)
    source = _source("float", ["nested", "for"])
    checked = compile_source(source, "<compaction>")
    cold = compile_program(checked)
    entry = progcache.entry_path(source)
    assert progcache.store(entry, checked, lint_program(checked))
    cold.kernel("k").plan_path = progcache.plan_path(entry, "k")
    generated = vectorize.plan_for(cold.kernel("k")).source

    def forbidden(*args, **kwargs):
        raise AssertionError("a generator ran for a restored program")

    restored = progcache.load(entry, lambda program, lint: restore_program(program))
    kernel = restored.kernel("k")
    kernel.plan_path = progcache.plan_path(entry, "k")
    monkeypatch.setattr(compiler, "compile_program", forbidden)
    monkeypatch.setattr(compiler._ProgramCompiler, "lower", forbidden)
    monkeypatch.setattr(vectorize, "_generate", forbidden)
    monkeypatch.setattr(vectorize, "_functions", forbidden)
    plan = vectorize.plan_for(kernel)
    assert plan.source == generated and "_region(R, " in plan.source
    n = 4 * _WG
    arrays = {"out": np.zeros(n, np.float32), "in": np.linspace(-3, 3, n).astype(np.float32),
              "sel": _flags(np.random.RandomState(3), n, 0.25), "fout": np.zeros(n, np.float32)}
    with _no_floor():
        regions = _launch(kernel, arrays, ["out", "in", "sel", "fout", n], (n,), (_WG,),
                          "lockstep")[2]
    assert regions["compacted"] > 0
