"""The lockstep engine's run-level books: op charges and span checks.

A run keeps its op charges as cheaply as what reads them allows
(:meth:`vectorize._Run.ops`): a *counted* run — one launch of a kernel
with a barrier, whose ops only count as one total — adds ``k *
count_nonzero(m)`` to one Python int, in its compacted regions too;
every other run keeps per-lane ops for the warp accounting and the
per-sibling split, and from ``_PROBE_MIN_LANES`` lanes on folds a charge
whose mask holds every lane into ``base``.  A pointer with lane offsets
checks an access at a uniform index once against its offsets' span
(:meth:`vectorize.VPtr._rows`), and every lane only when that fails.

Every test holds the engine against the per-item oracle: bit-exact
buffers, equal ``ExecutionCounters`` (``ops``, ``warp_ops``,
``barriers``, every memory counter) and equal launch results, or the
same exception type and message.  Most launches are small, so both lane
floors — compaction's and the probes' — are lowered to zero; a few run
at 4,096 lanes and more with the floors as they are, and
``TestFloors`` checks that below the probe floor nothing is probed.
"""

import functools
from contextlib import ExitStack, contextmanager
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

_WG = 64

#: A barrier kernel: a __local tile read through a pointer with lane
#: offsets at constant indices (span checks on __local row bases), and
#: nested compactable regions under data-dependent conditions.
TILED = """
int smooth(__local const int* t) { return t[-1] + 2 * t[0] + t[1]; }
__kernel void k(__global const int* in, __global const int* sel, __global int* out, const int n) {
    __local int tile[66];
    int lid = get_local_id(0);
    int gid = get_global_id(0);
    tile[lid + 1] = in[gid];
    if (lid == 0) {
        tile[0] = gid > 0 ? in[gid - 1] : 0;
        tile[65] = gid + 64 < n ? in[gid + 64] : 0;
    }
    barrier(CLK_LOCAL_MEM_FENCE);
    int acc = smooth(tile + lid + 1);
    if (sel[gid] > 0) {
        for (int i = 0; i < sel[gid]; ++i) {
            if ((acc + i) % 3 == 0) {
                acc += tile[lid] * i + in[gid];
            }
        }
    }
    out[gid] = acc;
}
"""

#: Barrier-free: charges on every lane in a helper, data-dependent loop
#: trips (the warp maxima differ per warp) and a float4 pointer with lane
#: offsets read at constant indices.
WARPED = """
int work(int x, int r) {
    int s = x;
    for (int i = 0; i < r; ++i) { s += x * i; }
    return s;
}
__kernel void k(__global const float4* in, __global const int* reps, __global float4* out,
                const int n) {
    int gid = get_global_id(0);
    __global const float4* p = in + gid;
    float w = (float)work(gid, reps[gid]);
    if (gid < n) {
        out[gid] = p[0] * w + p[1];
    }
}
"""

#: An offset out of range on idle lanes only, then on an active lane.
IDLE_GARBAGE = """
__kernel void k(__global const int* in, __global int* out, const int n, const int far) {
    int gid = get_global_id(0);
    __global const int* p = in + (gid < n ? gid : far);
    if (gid < n) { out[gid] = p[0] + p[1]; }
}
"""


@functools.lru_cache(maxsize=None)
def _kernel(source):
    return compile_program(compile_source(source, "<charges>")).kernel("k")


def _no_floors():
    stack = ExitStack()
    stack.enter_context(mock.patch.object(vectorize, "_COMPACT_MIN_LANES", 0))
    stack.enter_context(mock.patch.object(vectorize, "_PROBE_MIN_LANES", 0))
    return stack


@contextmanager
def _runs():
    """Every run (and compacted region's sub-run) made meanwhile."""
    runs, init = [], vectorize._Run.__init__

    def recording(run, *args, **kwargs):
        init(run, *args, **kwargs)
        runs.append(run)

    with mock.patch.object(vectorize._Run, "__init__", recording):
        yield runs


def _launch(kernel, siblings, scalars, global_size, engine, sample=None):
    """Run ``siblings`` (one dict of arrays each) as one call of
    ``engine``: ``[(buffers, counters)]`` and the region entries, or what
    it raised."""
    counters = [ExecutionCounters() for _ in siblings]
    pointers = [{name: Pointer(array.copy(), ctype_from_numpy(array.dtype), "global", 0,
                               counter.memory) for name, array in arrays.items()}
                for arrays, counter in zip(siblings, counters)]
    args = [[convert_value(mine[a] if isinstance(a, str) else a, param.declared_type)
             for a, param in zip(scalars, kernel.definition.params)] for mine in pointers]
    registry = MetricsRegistry()
    try:
        ndrange = NDRange.create(global_size, (_WG,))
        selected = None if sample is None else ndrange.sample_groups(sample)
        list(_ENGINES[engine](kernel, ndrange, args, selected, counters, metrics=registry))
    except Exception as exc:  # compared by type and message below
        return exc
    regions = registry.value("skelcl_lockstep_regions_total", path="compacted")
    return [({name: p.array for name, p in mine.items()}, counter)
            for mine, counter in zip(pointers, counters)], regions


def assert_engines_agree(kernel, siblings, scalars, global_size, sample=None):
    """Both engines on one call; the lockstep run's compacted region
    entries (None when both raised alike)."""
    per_item = _launch(kernel, siblings, scalars, global_size, "peritem", sample)
    lockstep = _launch(kernel, siblings, scalars, global_size, "lockstep", sample)
    if isinstance(per_item, Exception) or isinstance(lockstep, Exception):
        assert (type(lockstep), str(lockstep)) == (type(per_item), str(per_item))
        return None
    for (expected, expected_counters), (buffers, counters) in zip(per_item[0], lockstep[0]):
        for name in expected:
            assert buffers[name].tobytes() == expected[name].tobytes(), name
        assert counters == expected_counters
        assert type(counters.ops) is int  # the trace export writes it as JSON
    return lockstep[1]


def _tiled(rng, lanes, density):
    return {"in": rng.randint(-50, 50, lanes).astype(np.int32),
            "sel": np.where(rng.rand(lanes) < density, rng.randint(1, 6, lanes), 0)
            .astype(np.int32),
            "out": np.zeros(lanes, np.int32)}


def _warped(rng, lanes, loaded):
    reps = np.where(rng.rand(lanes) < loaded, rng.randint(0, 9, lanes), 0).astype(np.int32)
    return {"in": (rng.randint(-64, 64, 4 * (lanes + 1)) / 8).astype(np.float32),
            "reps": reps, "out": np.zeros(4 * lanes, np.float32)}


class TestAgainstTheOracle:
    @settings(deadline=None)  # example budget: the hypothesis profile
    @given(seed=st.integers(0, 2 ** 16), groups=st.integers(1, 4),
           density=st.sampled_from([0.0, 0.2, 0.6, 1.0]), copies=st.integers(1, 2),
           tail=st.integers(0, _WG - 1), sample=st.sampled_from([None, None, 0.5]))
    def test_runs_agree(self, seed, groups, density, copies, tail, sample):
        """Counted runs (one barrier launch), merged barrier siblings on
        the lane path, barrier-free runs for warps, sampled launches —
        every charge folded or probed, every region compacted it can."""
        rng, lanes = np.random.RandomState(seed), groups * _WG
        with _no_floors():
            assert_engines_agree(_kernel(TILED), [_tiled(rng, lanes, density)
                                                  for _ in range(copies)],
                                 ["in", "sel", "out", lanes], (lanes,), sample)
            assert_engines_agree(_kernel(WARPED), [_warped(rng, lanes, density)
                                                   for _ in range(copies)],
                                 ["in", "reps", "out", lanes - tail], (lanes,), sample)

    def test_nested_regions_of_a_counted_run_allocate_no_lane_ops(self):
        """A lone barrier launch counts: neither its run nor any compacted
        region's sub-run has per-lane ops, and the totals are exact."""
        rng, lanes = np.random.RandomState(3), 4 * _WG
        with _no_floors(), _runs() as runs:
            compacted = assert_engines_agree(_kernel(TILED), [_tiled(rng, lanes, 0.2)],
                                             ["in", "sel", "out", lanes], (lanes,))
        assert compacted >= 2 and len(runs) == 1 + compacted
        assert all(run.lane_ops is None for run in runs)

    def test_merged_siblings_keep_lane_ops(self):
        rng, lanes = np.random.RandomState(4), 2 * _WG
        with _no_floors(), _runs() as runs:
            assert_engines_agree(_kernel(TILED), [_tiled(rng, lanes, 0.3) for _ in range(3)],
                                 ["in", "sel", "out", lanes], (lanes,))
        assert runs and all(run.lane_ops is not None for run in runs)

    @pytest.mark.parametrize("lanes, copies", [(4096, 1), (2048, 2)])
    def test_at_launch_size(self, lanes, copies):
        """Runs of 4,096 lanes, the floors as they are."""
        rng = np.random.RandomState(copies)
        assert assert_engines_agree(_kernel(TILED), [_tiled(rng, lanes, 0.1)] * copies,
                                    ["in", "sel", "out", lanes], (lanes,)) > 0
        assert_engines_agree(_kernel(WARPED), [_warped(rng, lanes, 0.5)] * copies,
                             ["in", "reps", "out", lanes - 5], (lanes,))


class TestSpans:
    @pytest.mark.parametrize("lanes", [2 * _WG, 4096])
    def test_offsets_out_of_range_on_idle_lanes_do_not_fault(self, lanes):
        arrays = {"in": np.arange(lanes + 1, dtype=np.int32), "out": np.zeros(lanes, np.int32)}
        with _no_floors():
            for far in (10 ** 6, -10 ** 6):
                assert assert_engines_agree(_kernel(IDLE_GARBAGE), [arrays],
                                            ["in", "out", lanes - 3, far], (lanes,)) == 0

    @pytest.mark.parametrize("lanes", [2 * _WG, 4096])
    def test_an_active_lane_out_of_range_faults_as_one_item_does(self, lanes):
        """``p[1]`` of the last active lane is one past the buffer."""
        arrays = {"in": np.arange(lanes - 3, dtype=np.int32), "out": np.zeros(lanes, np.int32)}
        with _no_floors():
            assert assert_engines_agree(_kernel(IDLE_GARBAGE), [arrays],
                                        ["in", "out", lanes - 3, 0], (lanes,)) is None
        assert str(_launch(_kernel(IDLE_GARBAGE), [arrays], ["in", "out", lanes - 3, 0],
                           (lanes,), "lockstep")) == \
            f"out-of-bounds global access: element {lanes - 3} of {lanes - 3}"

    def test_a_float4_tile_past_its_end_faults_as_one_item_does(self):
        lanes = 2 * _WG
        arrays = _warped(np.random.RandomState(5), lanes, 1.0)
        arrays["in"] = arrays["in"][:4 * lanes]  # p[1] of the last lane is past it
        with _no_floors():
            assert assert_engines_agree(_kernel(WARPED), [arrays], ["in", "reps", "out", lanes],
                                        (lanes,)) is None


class TestFloors:
    def _probes(self, lanes, copies=1):
        """(mask ``all()`` calls, pointers that took a span) of one run."""
        alls, spans = [], []

        class Counting(np.ndarray):
            def all(self, *args, **kwargs):
                alls.append(self.size)
                return np.ndarray.all(self, *args, **kwargs)

        ops, rows = vectorize._Run.ops, vectorize.VPtr._rows

        def counting_ops(run, k, m):
            ops(run, k, m.view(Counting))

        def recording_rows(pointer, index, mask):
            found = rows(pointer, index, mask)
            if pointer.span is not None:
                spans.append(pointer.offset.size)
            return found

        rng = np.random.RandomState(6)
        with mock.patch.object(vectorize._Run, "ops", counting_ops), \
                mock.patch.object(vectorize.VPtr, "_rows", recording_rows):
            _launch(_kernel(WARPED), [_warped(rng, lanes, 0.5)] * copies,
                    ["in", "reps", "out", lanes], (lanes,), "lockstep")
            _launch(_kernel(TILED), [_tiled(rng, lanes, 0.5)] * copies,
                    ["in", "sel", "out", lanes], (lanes,), "lockstep")
        return alls, spans

    def test_nothing_is_probed_below_the_floor(self):
        floor = vectorize._PROBE_MIN_LANES
        assert self._probes(floor // 2) == ([], [])
        assert self._probes(floor // 4, copies=2) == ([], [])
        alls, spans = self._probes(floor)
        assert alls and spans and min(alls + spans) >= floor
