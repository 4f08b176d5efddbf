"""Pointer casts on the lockstep engine.

A cast pointer is a view of the same storage at the new element type
(``VPtr.retyped``): the offset and each lane's row origin are rescaled,
and a cast misaligned on an active lane faults.  Every test holds the
lockstep engine against the per-item oracle: bit-exact buffers, equal
``ExecutionCounters`` on every field, and on a fault the same exception
type and message.

Hypothesis draws the storage (a ``__global`` buffer, a ``__local`` array,
a private array), the pair of element types (int and float, char and
int, float and ``floatN``), a uniform or lane-varying offset, and what
the view is used for: a read, a write, a read guarded so that only
aligned lanes cast, or a pointer cast again on a divergent branch and
merged with the first.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernelc import vectorize
from repro.kernelc.ctypes_ import CHAR, FLOAT, INT
from repro.kernelc.memory import KernelFault
from repro.kernelc.vectorize import VPtr

from tests.kernelc.test_vectorize_compaction import _kernel, _launch, _no_floor
from tests.kernelc.test_vectorize_differential import assert_backends_agree

_WG = 8
_N = 32
_LEN = 64       # elements of the source type in a __local or private array
_GLEN = 512     # ... and in the __global buffer, a slot for every lane's write
_DTYPES = {"char": np.int8, "uchar": np.uint8, "int": np.int32, "float": np.float32,
           "float2": np.float32, "float4": np.float32}
_WIDTH = {"float2": 2, "float4": 4}
#: (source, target) element types
_PAIRS = [("int", "float"), ("float", "int"), ("char", "int"), ("int", "char"),
          ("uchar", "int"), ("float", "float4"), ("float4", "float"), ("float", "float2"),
          ("float2", "float4")]
#: space -> (pointer qualifier, storage); a pointer into __local memory is
#: declared unqualified (generic), as customizing functions do
_SPACES = {"global": ("__global ", "g"), "local": ("", "tile"), "private": ("", "priv")}
_FILL = {
    "global": "",
    "local": "for (int i = lid; i < {len}; i += {wg}) tile[i] = g[(i + get_group_id(0)) % {len}];\n"
             "    barrier(CLK_LOCAL_MEM_FENCE);",
    "private": "S priv[{len}];\n"
               "    for (int i = 0; i < {len}; ++i) priv[i] = g[(i + gid) % {len}];",
}


def _size(ctype):
    return np.dtype(_DTYPES[ctype]).itemsize * _WIDTH.get(ctype, 1)


def _scalar(code, ctype):
    """``code`` (of type ``ctype``) as one float."""
    if ctype in _WIDTH:
        return f"(float)(({code}).x + ({code}).y)"
    return f"(float)({code})"


def _source(source_type, target_type, space, offset, use):
    qualifier, storage = _SPACES[space]
    value = f"(T)(gid * 3 + 1)"
    slot = {"global": "gid", "local": "lid", "private": "1"}[space]
    body = {
        "read": f"out[gid] = {_scalar('view[lid % 2]', target_type)};",
        # each lane writes a slot of its own and reads it back
        "write": f"view[{slot}] = {value};\n"
                 f"    barrier(CLK_LOCAL_MEM_FENCE);\n"
                 f"    out[gid] = {_scalar(f'view[{slot}]', target_type)};",
        "guarded": f"if (s % {max(1, _size(target_type) // _size(source_type))} == 0) "
                   f"{{ out[gid] = {_scalar(f'(({qualifier}T*)base)[1]', target_type)}; }}",
        "merge": f"{qualifier}T* q = view;\n"
                 f"    if (s & 1) {{ q = ({qualifier}T*)(base + 4); }}\n"
                 f"    out[gid] = {_scalar('q[1]', target_type)};",
    }[use]
    return f"""
    #define S {source_type}
    #define T {target_type}
    __kernel void k(__global S* g, __global float* out, __global const int* sel, int u) {{
        int gid = get_global_id(0);
        int lid = get_local_id(0);
        int s = sel[gid];
        __local S tile[{_LEN}];
        {_FILL[space].format(len=_LEN, wg=_WG)}
        int off = {offset};
        {qualifier}S* base = {storage} + off;
        {qualifier}T* view = ({qualifier}T*)base;
        {body}
    }}"""


def _arrays(source_type, seed, aligned):
    """``g`` holds the bytes of finite floats; ``sel`` the per-lane
    offsets (multiples of ``aligned`` on every lane when it is set)."""
    rng = np.random.RandomState(seed)
    nbytes = _GLEN * _size(source_type)
    data = (rng.randint(-64, 64, nbytes // 4) / 8).astype(np.float32)
    sel = rng.randint(0, 8, _N).astype(np.int32)
    if aligned:
        sel -= sel % aligned
    return {"g": data.view(_DTYPES[source_type]).copy(), "out": np.zeros(_N, np.float32),
            "sel": sel}


@st.composite
def _casts(draw):
    source_type, target_type = draw(st.sampled_from(_PAIRS))
    space = draw(st.sampled_from(sorted(_SPACES)))
    use = draw(st.sampled_from(["read", "write", "guarded", "merge"]))
    # lanes writing at different offsets could write one another's slots
    lanes = draw(st.booleans()) and (use != "write" or space == "private")
    ratio = max(1, _size(target_type) // _size(source_type))
    aligned = draw(st.sampled_from([ratio, 0]))  # 0: some lanes may be misaligned
    offset = "s" if lanes else f"u * {ratio}"
    u = draw(st.integers(0, 3))
    return source_type, target_type, space, offset, use, u, aligned, draw(st.integers(0, 2**16))


@settings(deadline=None)  # example budget: the hypothesis profile
@given(case=_casts())
def test_casts_agree_with_the_oracle(case):
    source_type, target_type, space, offset, use, u, aligned, seed = case
    source = _source(source_type, target_type, space, offset, use)
    arrays = _arrays(source_type, seed, aligned)
    assert_backends_agree(source, "k", arrays, ["g", "out", "sel", u], (_N,), (_WG,))


@pytest.mark.parametrize("space", sorted(_SPACES))
@pytest.mark.parametrize("source_type, target_type", _PAIRS)
@pytest.mark.parametrize("use", ["read", "write", "merge"])
def test_every_pair_space_and_use_runs_clean(source_type, target_type, space, use):
    """Each menu entry at least once, aligned on every lane: no fault, and
    the oracle's results."""
    ratio = max(1, _size(target_type) // _size(source_type))
    offset = "u" if use == "write" and space != "private" else "s"
    source = _source(source_type, target_type, space, offset, use)
    arrays = _arrays(source_type, 7, ratio)
    assert assert_backends_agree(source, "k", arrays, ["g", "out", "sel", 0], (_N,), (_WG,)) \
        is not None


class TestMisalignedFaults:
    """A cast misaligned on an active lane faults on both engines with one
    message; misaligned lanes that do not run the cast fault on neither."""

    SOURCE = """__kernel void k(__global char* g, __global int* out, __global const int* sel) {
        int gid = get_global_id(0);
        int s = sel[gid];
        if (s >= 0) { out[gid] = ((__global int*)(g + s))[0]; }
    }"""

    def _run(self, source, sel, arrays=None):
        kernel = _kernel(source)
        arrays = arrays or {"g": np.arange(64, dtype=np.int8), "out": np.zeros(8, np.int32),
                            "sel": np.asarray(sel, np.int32)}
        names = [param.name for param in kernel.definition.params]
        with _no_floor():
            return (_launch(kernel, arrays, names, (8,), (8,), "peritem"),
                    _launch(kernel, arrays, names, (8,), (8,), "lockstep"))

    @pytest.mark.parametrize("sel", [[0, 4, 8, 12, 16, 20, 24, 2],  # last lane misaligned
                                     [0, 1, 8, 12, 16, 20, 24, 28]])
    def test_an_active_misaligned_lane_faults(self, sel):
        per_item, lockstep = self._run(self.SOURCE, sel)
        assert (type(lockstep), str(lockstep)) == (type(per_item), "misaligned pointer cast")

    def test_a_misaligned_lane_that_skips_the_cast_does_not(self):
        per_item, lockstep = self._run(self.SOURCE, [0, -3, 8, -1, 16, -2, 24, 28])
        assert not isinstance(lockstep, Exception)
        assert lockstep[0]["out"].tobytes() == per_item[0]["out"].tobytes()
        assert lockstep[1] == per_item[1]

    def test_a_row_the_new_scalar_does_not_divide(self):
        source = """__kernel void k(__global int* out) {
            __local char tile[6];
            out[get_global_id(0)] = ((__local int*)tile)[0];
        }"""
        per_item, lockstep = self._run(source, None, {"out": np.zeros(8, np.int32)})
        assert (type(lockstep), str(lockstep)) == (type(per_item), "misaligned pointer cast")


def test_views_of_one_storage_at_one_dtype_are_one_object():
    """What lets ``_merge`` join pointers cast on different branches: the
    same view, and the same rescaled row origins, each time."""
    storage = np.zeros(4 * 16, np.float32)
    rows = np.arange(4, dtype=np.int64) * 16
    pointer = VPtr(storage, FLOAT, "private", None, 16, 0, rows)
    views, mask = {}, np.ones(4, bool)
    first = pointer.retyped(INT, mask, views)
    again = pointer.add(2).retyped(INT, mask, views)
    assert first.array is again.array and first.base is again.base
    assert first.array.base is storage and first.array.dtype == np.int32
    back = again.retyped(FLOAT, mask, views)
    assert back.array is storage and back.base is rows and back.offset == 2
    merged = vectorize._merge(first, again, np.array([True, False, True, False]))
    assert merged.offset.tolist() == [2, 0, 2, 0]
    with pytest.raises(KernelFault, match="misaligned pointer cast"):
        VPtr(np.zeros(64, np.int8), CHAR, "global", None, 64, 3, None).retyped(INT, mask, {})
