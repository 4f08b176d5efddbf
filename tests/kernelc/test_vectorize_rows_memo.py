"""What a lockstep run asks of a lane array once, and the primitives it
asks with.

:meth:`vectorize.VPtr._rows` remembers the rows of the last lane index
it found in range on *every* lane, idle ones too (``VPtr.memo``, which
holds the index), and hands them back unchecked at a later access at
that same index object, whatever the mask: a loop's ``SCRATCH[LID]``
and a Map's ``OUT[ID]`` after ``IN[ID]`` are bounds-checked once.  An
index of ``_PROBE_MIN_LANES`` elements or more is never remembered.

* The family below reads and writes a global array and a ``__local``
  one at loop-invariant lane indices under a per-iteration mask, with
  lengths drawn so that idle lanes only, or an active lane, fall out of
  range; it holds the engine against the per-item oracle
  (:mod:`.peritem`): bit-exact buffers, equal ``ExecutionCounters``, the
  same exception type and message.
* ``TestRememberedIndicesAreNeverWritten`` runs the lockstep families of
  the other suites with every remembered index made read-only, so an
  in-place write to a lane array raises instead of leaving a memo stale.
* ``_any`` (the generated code's "any lane active?" test) and the
  spelling of unsigned 64-bit operations (the lanes' ``uint64`` view
  beside a uniform operand as a Python int) are held against what they
  replace.
"""

import inspect
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.kernelc import ExecutionCounters, compile_source, vectorize
from repro.kernelc.compiler import compile_program
from repro.kernelc.ctypes_ import VectorType, ctype_from_numpy
from repro.kernelc.execmodel import convert_value
from repro.kernelc.memory import KernelFault, Pointer
from repro.ocl.ndrange import NDRange

from tests.skelcl import test_sibling_runs as sibling_runs

from . import test_vectorize_compaction as compaction
from . import test_vectorize_differential as differential
from . import test_vectorize_vectors as vectors
from .test_vectorize_differential import _ENGINES

_INT = ctype_from_numpy(np.dtype(np.int32))

# ---------------------------------------------------------------------------
# The family: loop-invariant lane indices under per-iteration masks.
# ---------------------------------------------------------------------------

_LOOPS = {
    # a Reduce tree: the active lanes shrink, lid < s
    "tree": ("for (int s = {wg} / 2; s > 0; s >>= 1)", "lid < s", "s"),
    # a residue per iteration: the active lanes move, gid % k == it % k
    "modulo": ("for (int it = 0; it < {trips}; ++it)", "gid % {k} == it % {k}", "it"),
}

_SOURCE = """
__kernel void k(__global int* data, __global const int* src, __global int* out,
                const int nd, const int ns) {{
    __local int scratch[{local}];
    int gid = get_global_id(0);
    int lid = get_local_id(0);
    int idx = gid + {gshift};
    int lix = lid + {lshift};
    __global int* row = data + {off};
    for (int j = lid; j < {local}; j += {wg}) {{ scratch[j] = j * 7; }}
    barrier(CLK_LOCAL_MEM_FENCE);
    {loop} {{
        if ({cond}) {{
            int v = src[idx];
            row[idx] = row[idx] * 3 + v + {step};
            scratch[lix] = scratch[lix] + v;
        }}
        barrier(CLK_LOCAL_MEM_FENCE);
    }}
    int r = 0;
    if (idx + {off} < nd) {{ r = row[idx]; }}
    if (idx < ns) {{ r += src[idx]; }}
    if (lix < {local}) {{ r += scratch[lix]; }}
    out[gid] = r;
}}
"""


def _ever_active(shape, wg, n, k, trips):
    """The gids the loop's mask lets in on some iteration."""
    if shape == "tree":
        return [gid for gid in range(n) if gid % wg < wg // 2]
    return [gid for gid in range(n) if gid % k in {it % k for it in range(trips)}]


def _length(draw, need, full, faulty):
    """A length every ever-active lane fits (idle lanes may not), or,
    when ``faulty``, one an active lane falls out of."""
    if faulty:
        return draw(st.integers(1, need - 1))
    return draw(st.integers(need, full))


@st.composite
def _memo_kernels(draw):
    wg, groups, siblings = draw(st.sampled_from([8, 16])), draw(st.integers(1, 2)), \
        draw(st.integers(1, 2))
    shape = draw(st.sampled_from(sorted(_LOOPS)))
    k, trips = draw(st.integers(2, 3)), draw(st.integers(1, 4))
    gshift, lshift, off = (draw(st.integers(0, 2)) for _ in range(3))
    n = wg * groups
    ever = _ever_active(shape, wg, n, k, trips)
    needs = {"src": max(ever) + gshift + 1, "row": max(ever) + gshift + off + 1,
             "scratch": max(gid % wg for gid in ever) + lshift + 1}
    # A fault in a global array is raised at the same lane by both engines
    # only in one group: the oracle runs group 0 to its end first.
    choices = ["scratch"] + (["src", "row"] if groups == 1 else [])
    faulty = draw(st.sampled_from([None] + [name for name in choices if needs[name] > 1]))
    ns = _length(draw, needs["src"], n + gshift, faulty == "src")
    nd = _length(draw, needs["row"], n + gshift + off, faulty == "row")
    local = _length(draw, needs["scratch"], wg + lshift, faulty == "scratch")
    loop, cond, step = _LOOPS[shape]
    source = _SOURCE.format(local=local, gshift=gshift, lshift=lshift, off=off, wg=wg,
                            loop=loop.format(wg=wg, trips=trips), cond=cond.format(k=k),
                            step=step)
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    sibling_arrays = [{"data": rng.randint(-20, 20, nd).astype(np.int32),
                       "src": rng.randint(-20, 20, ns).astype(np.int32),
                       "out": np.zeros(n, np.int32)} for _ in range(siblings)]
    return source, sibling_arrays, [nd, ns], n, wg


def _launch(kernel, siblings, scalars, n, wg, engine):
    """``[(buffers, counters)]`` of one call of ``engine`` on every
    sibling, or what it raised."""
    counters = [ExecutionCounters() for _ in siblings]
    pointers = [{name: Pointer(array.copy(), ctype_from_numpy(array.dtype), "global", 0,
                               counter.memory) for name, array in arrays.items()}
                for arrays, counter in zip(siblings, counters)]
    args = [[convert_value(value, param.declared_type)
             for value, param in zip([mine["data"], mine["src"], mine["out"], *scalars],
                                     kernel.definition.params)] for mine in pointers]
    try:
        list(_ENGINES[engine](kernel, NDRange.create((n,), (wg,)), args, None, counters))
    except Exception as exc:  # compared by type and message below
        return exc
    return [({name: p.array for name, p in mine.items()}, counter)
            for mine, counter in zip(pointers, counters)]


def assert_engines_agree(kernel, siblings, scalars, n, wg):
    per_item = _launch(kernel, siblings, scalars, n, wg, "peritem")
    lockstep = _launch(kernel, siblings, scalars, n, wg, "lockstep")
    if isinstance(per_item, Exception) or isinstance(lockstep, Exception):
        assert (type(lockstep), str(lockstep)) == (type(per_item), str(per_item))
        return
    for (expected, expected_counters), (buffers, counters) in zip(per_item, lockstep):
        for name in expected:
            assert buffers[name].tobytes() == expected[name].tobytes(), name
        assert counters == expected_counters


def _kernel(source):
    return compile_program(compile_source(source, "<rows-memo>")).kernel("k")


class TestLoopInvariantIndices:
    @settings(deadline=None)  # example budget: the hypothesis profile
    @given(case=_memo_kernels())
    def test_masked_loops_agree_with_the_oracle(self, case):
        source, siblings, scalars, n, wg = case
        kernel = _kernel(source)
        assert_engines_agree(kernel, siblings, scalars, n, wg)
        with mock.patch.object(vectorize, "_COMPACT_MIN_LANES", 0):  # regions' sub-runs too
            assert_engines_agree(kernel, siblings, scalars, n, wg)

    def test_the_loop_asks_each_pointer_once(self):
        """A tree of 16 lanes makes 26 accesses: two of the init loop's
        ``scratch[j]`` (lane 0 takes a second trip, to ``j`` = 16), five
        per iteration of four and four after the loop.  Bounds are checked
        at each new index object — ``scratch`` at both ``j`` and at ``lix``,
        ``src`` and ``row`` at ``idx``, ``out`` at ``gid`` — and every
        other access is answered by the memo."""
        source = _SOURCE.format(local=17, gshift=0, lshift=1, off=1, wg=16,
                                loop=_LOOPS["tree"][0].format(wg=16), cond="lid < s", step="s")
        siblings = [{"data": np.arange(17, dtype=np.int32), "src": np.arange(16, dtype=np.int32),
                     "out": np.zeros(16, np.int32)}]
        checked, rows = [], vectorize.VPtr._rows

        def counting(ptr, index, mask):
            checked.append(ptr.memo is None or ptr.memo[0] is not index)
            return rows(ptr, index, mask)

        with mock.patch.object(vectorize.VPtr, "_rows", counting):
            assert_engines_agree(_kernel(source), siblings, [17, 16], 16, 16)
        assert len(checked) == 26 and sum(checked) == 6, checked


    def test_vector_accesses_store_nothing_and_keep_the_scalar_entry(self):
        """``vload``/``vstore`` index with a ``(width, lanes)`` array built
        afresh at each access, so remembering it could never pay: the
        vector accesses store nothing, and ``src[gid]`` is checked once,
        its entry outliving the two ``vload4`` between its accesses."""
        source = """
        __kernel void k(__global int* data, __global const int* src, __global int* out) {
            int gid = get_global_id(0);
            int s = src[gid];
            int4 a = vload4(gid, src);
            int4 b = vload4(gid, src);
            int t = src[gid];
            vstore4(a + b + (int4)(s + t), gid, out);
        }"""
        n = 256
        siblings = [{"data": np.zeros(1, np.int32), "src": np.arange(4 * n, dtype=np.int32),
                     "out": np.zeros(4 * n, np.int32)}]
        calls, rows = [], vectorize.VPtr._rows

        def spying(ptr, index, mask):
            before = ptr.memo
            found = rows(ptr, index, mask)
            hit = before is not None and before[0] is index
            stored = ptr.memo is not before
            calls.append((ptr.array.size, index, hit, stored))
            return found

        with mock.patch.object(vectorize.VPtr, "_rows", spying):
            assert_engines_agree(_kernel(source), siblings, [], n, 64)
        shapes = [(size, index.shape, hit, stored) for size, index, hit, stored in calls]
        assert shapes == [(4 * n, (n,), False, True), (4 * n, (4, n), False, False),
                          (4 * n, (4, n), False, False), (4 * n, (n,), True, False),
                          (4 * n, (4, n), False, False)], shapes
        for at, (_, index, _, stored) in enumerate(calls):
            if stored:  # a later access at the same index hits it
                assert any(hit and later is index for _, later, hit, _ in calls[at + 1:])


# ---------------------------------------------------------------------------
# The memo's rules, on one pointer.
# ---------------------------------------------------------------------------


def _pointer(length=8, offset=0, base=None):
    return vectorize.VPtr(np.arange(length, dtype=np.int32), _INT, "global", None, length,
                          offset, base)


class TestTheMemo:
    def test_an_index_in_range_on_every_lane_is_remembered_whatever_the_mask(self):
        ptr, index = _pointer(offset=1), np.array([0, 2, 4, 6])
        rows = ptr._rows(index, np.ones(4, bool))
        assert ptr.memo[0] is index and ptr.memo[1] is rows
        assert ptr._rows(index, np.array([False, True, False, False])) is rows
        np.testing.assert_array_equal(rows, index + 1)

    @pytest.mark.parametrize("active", [False, True])
    def test_nothing_is_remembered_once_any_lane_was_out_of_range(self, active):
        ptr, index = _pointer(), np.array([0, 1, 8])
        mask = np.array([True, True, active])
        if active:
            with pytest.raises(KernelFault, match="element 8 of 8"):
                ptr._rows(index, mask)
        else:
            ptr._rows(index, mask)
        assert ptr.memo is None
        with pytest.raises(KernelFault, match="element 8 of 8"):
            ptr._rows(index, np.ones(3, bool))  # the idle lane, now active, still faults

    def test_an_earlier_entry_survives_an_index_out_of_range_on_idle_lanes(self):
        ptr, index = _pointer(), np.array([1, 2])
        rows = ptr._rows(index, np.ones(2, bool))
        ptr._rows(np.array([3, 9]), np.array([True, False]))
        assert ptr._rows(index, np.ones(2, bool)) is rows

    def test_a_fresh_array_with_equal_values_is_a_miss(self):
        ptr, index = _pointer(offset=2), np.array([0, 1, 2])
        rows = ptr._rows(index, np.ones(3, bool))
        again = index.copy()
        found = ptr._rows(again, np.ones(3, bool))
        assert found is not rows and ptr.memo[0] is again
        np.testing.assert_array_equal(found, rows)

    def test_rows_carry_the_row_bases_and_the_vector_width(self):
        base = np.array([0, 32, 64])  # three rows of eight int4
        ptr = vectorize.VPtr(np.zeros(96, np.int32), VectorType(_INT, 4), "local", None, 8,
                             np.array([1, 2, 3]), base)
        index = np.array([0, 1, 2])
        rows = ptr._rows(index, np.ones(3, bool))
        np.testing.assert_array_equal(rows, [4, 44, 84])
        assert ptr._rows(index, np.zeros(3, bool)) is rows

    @pytest.mark.parametrize("shape", [(vectorize._PROBE_MIN_LANES,),
                                       (4, vectorize._PROBE_MIN_LANES // 4)])
    def test_an_index_of_probe_min_lanes_elements_is_never_remembered(self, shape):
        lanes = shape[-1]
        ptr = _pointer(length=vectorize._PROBE_MIN_LANES)
        ptr._rows(np.zeros(shape, np.int64), np.ones(lanes, bool))
        assert ptr.memo is None
        smaller = np.zeros(vectorize._PROBE_MIN_LANES - 1, np.int64)
        ptr._rows(smaller, np.ones(smaller.size, bool))
        assert ptr.memo[0] is smaller


# ---------------------------------------------------------------------------
# No lockstep family writes a remembered index in place.
# ---------------------------------------------------------------------------


def _read_only_memo(monkeypatch):
    """Make every index ``_rows`` remembers read-only from then on."""
    rows = vectorize.VPtr._rows

    def guarded(ptr, index, mask):
        found = rows(ptr, index, mask)
        if ptr.memo is not None and ptr.memo[0] is index:
            index.flags.writeable = False
        return found

    monkeypatch.setattr(vectorize.VPtr, "_rows", guarded)


#: ``(owner, test, strategies)`` of each family, run again under the guard.
_FAMILIES = {
    "differential-int": (differential.TestGeneratedIntKernels,
                         "test_bitexact_with_equal_counters",
                         {"case": differential._int_kernels()}),
    "differential-float": (differential.TestGeneratedFloatKernels,
                           "test_bitexact_with_equal_counters",
                           {"case": differential._float_kernels()}),
    "differential-barrier": (differential.TestGeneratedBarrierKernels,
                             "test_bitexact_with_equal_counters",
                             {"case": differential._barrier_kernels()}),
    "differential-gather": (differential.TestGeneratedGatherKernels,
                            "test_bitexact_with_equal_counters",
                            {"case": differential._gather_kernels()}),
    "compaction": (compaction.TestDataDensity,
                   "test_sparse_and_dense_runs_agree_and_take_both_paths",
                   {"case": compaction._branchy_kernels()}),
    "vectors": (None, vectors.test_vector_kernels_agree,
                {"program": vectors._programs(), "sparse": st.booleans(),
                 "seed": st.integers(0, 2**16), "data": st.data()}),
    "sibling-runs": (sibling_runs.TestMergedAgainstSequential,
                     "test_merged_runs_equal_the_oracles_sequential_loop",
                     {"case": sibling_runs._cases()}),
    "rows-memo": (TestLoopInvariantIndices, "test_masked_loops_agree_with_the_oracle",
                  {"case": _memo_kernels()}),
}


class TestRememberedIndicesAreNeverWritten:
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_under_the_guard(self, family, monkeypatch):
        """Each family again, on a fifth of the profile's example budget."""
        owner, test, strategies = _FAMILIES[family]
        inner = (getattr(owner, test) if owner else test).hypothesis.inner_test

        def plain(*args, **kwargs):  # without the settings the family carries
            return inner(*args, **kwargs)

        plain.__signature__ = inspect.signature(inner)
        budget = max(10, settings.default.max_examples // 5)
        run = settings(max_examples=budget, deadline=None)(given(**strategies)(plain))
        _read_only_memo(monkeypatch)
        run(owner()) if owner else run()

    def test_the_guard_catches_an_in_place_write(self, monkeypatch):
        _read_only_memo(monkeypatch)
        ptr, index = _pointer(), np.array([1, 2])
        ptr._rows(index, np.ones(2, bool))
        with pytest.raises(ValueError, match="read-only"):
            index += 1


# ---------------------------------------------------------------------------
# The primitives, against what they replace.
# ---------------------------------------------------------------------------

_MASKS = st.one_of(
    hnp.arrays(np.bool_, st.integers(0, 70)),
    hnp.arrays(np.bool_, st.tuples(st.sampled_from([2, 3, 4, 8, 16]), st.integers(0, 40))))


class TestAny:
    @given(mask=_MASKS)
    def test_equals_numpy_any(self, mask):
        assert vectorize._any(mask) is bool(mask.any())
        assert vectorize._any(mask.T) is bool(mask.any())  # a transposed view: strided
        if mask.ndim == 2:
            column = mask[:, -1:] if mask.shape[1] else mask
            assert vectorize._any(column) is bool(column.any())

    @pytest.mark.parametrize("mask", [
        np.zeros(0, bool), np.zeros((4, 0), bool), np.zeros(9, bool), np.zeros((3, 5), bool),
        np.arange(9) == 8, (np.arange(15) == 14).reshape(3, 5), np.ones(1, bool),
        np.broadcast_to(np.arange(6) == 5, (4, 6)),
    ])
    def test_corners(self, mask):
        assert vectorize._any(mask) is bool(mask.any())


_OPERANDS = [0, 1, 2**31, 2**63 - 1, 2**63, 2**64 - 1, -1, -2, -(2**31), -(2**63),
             -(2**63) - 1, -(2**64) + 1, 2**64, 2**70 + 5]
_SCALARS = st.one_of(st.sampled_from(_OPERANDS), st.integers(-(2**70), 2**70))
_LANES = hnp.arrays(np.int64, st.integers(1, 20),
                    elements=st.integers(-(2**63), 2**63 - 1))


def _old_u64(v):
    """The coercion the unsigned spelling replaced."""
    if isinstance(v, np.ndarray):
        return v.view(np.uint64)
    return np.int64(vectorize._wrap_to_i64(v)).view(np.uint64)


def _u64(v: int) -> int:
    return int(v) % 2**64


def _i64(v: int) -> int:
    return vectorize._wrap_to_i64(v)


class TestUnsignedOperands:
    @given(lanes=_LANES, scalar=_SCALARS, op=st.sampled_from(sorted(vectorize._ARITH)))
    def test_every_unsigned_spelling_matches_the_old_coercion(self, lanes, scalar, op):
        """An operation in the unsigned 64-bit type as the lane spelling
        writes it — a comparison on the lanes' ``uint64`` view, the others
        on their int64 patterns — over lanes and a uniform operand the
        lowering masked to 64 bits (a Python int)."""
        spelling = vectorize._LaneSpelling(None)
        compare = op in vectorize._CMP_OPS
        reference = getattr(operator, vectorize._ARITH[op])
        scalar = _u64(scalar)
        for left, right in ((lanes, scalar), (scalar, lanes), (lanes, lanes[::-1].copy())):
            codes = [vectorize._Code(name, "I" if isinstance(value, np.ndarray) else "j")
                     for name, value in (("a", left), ("b", right))]
            code = spelling._operation(op, *codes, "u" if compare else "i")
            found = eval(code, dict(vectorize._LIBRARY, a=left, b=right))  # noqa: S307
            expected = reference(_old_u64(left), _old_u64(right))
            assert found.dtype == (np.bool_ if compare else np.int64), (code, left, right)
            np.testing.assert_array_equal(found if compare else found.view(np.uint64), expected)

    @given(lanes=_LANES, scalar=_SCALARS, remainder=st.booleans(), data=st.data())
    def test_u64_division_is_unsigned(self, lanes, scalar, remainder, data):
        mask = data.draw(hnp.arrays(np.bool_, lanes.shape))
        for left, right in ((lanes, scalar), (scalar, lanes)):
            rights = np.broadcast_to(np.asarray(_i64(right) if not isinstance(right, np.ndarray)
                                                else right, np.int64), lanes.shape)
            if (mask & (rights == 0)).any():
                with pytest.raises(KernelFault):
                    vectorize._divide_l(left, right, mask, True, remainder)
                continue
            found = vectorize._divide_l(left, right, mask, True, remainder)
            lefts = np.broadcast_to(np.asarray(_i64(left) if not isinstance(left, np.ndarray)
                                               else left, np.int64), lanes.shape)
            for lane in np.flatnonzero(mask):
                a, b = _u64(lefts[lane]), _u64(rights[lane])
                assert found[lane] == _i64(a % b if remainder else a // b)

    @given(lanes=_LANES, scalar=_SCALARS, mode=st.sampled_from(["<<", ">>", "u>>"]))
    def test_shifts(self, lanes, scalar, mode):
        for left, right in ((lanes, scalar), (scalar, lanes)):
            found = vectorize._shift_l(left, right, 64, mode)
            for lane in range(lanes.size):
                a = _i64(left[lane] if isinstance(left, np.ndarray) else left)
                b = _i64(right[lane] if isinstance(right, np.ndarray) else right) % 64
                expected = a << b if mode == "<<" else _u64(a) >> b if mode == "u>>" else a >> b
                assert found[lane] == _i64(expected)
