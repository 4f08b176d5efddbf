"""What an event keeps, and the views it builds on read.

An ``Event`` keeps a compact record — a kernel its ``LaunchCounters``
and its ``KernelAccesses`` stamp, a transfer the uid, name, offset, byte
count and mode of each buffer — and builds ``info`` and ``accesses`` at
every read.  Each command kind's views are held against the values the
eagerly built records held (a lone launch, a merged sibling run, a
sampled launch, write, read, copy, marker and barrier), and
``TestViewsEqualFreshStamps`` holds the kernel view against a fresh
resolution over random launch sequences::

    PYTHONPATH=src python -m pytest -q tests/ocl/test_event_records.py \\
        --hypothesis-profile=analysis-ci
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ocl
from repro.analysis import BufferAccess, affine
from repro.analysis.access import kernel_buffer_accesses
from repro.ocl.event import Event
from repro.scope.trace import ENGINE_TIDS, trace_events

SPREAD = """
__kernel void spread(__global const float* in, __global float* out, const int n) {
    int i = get_global_id(0);
    if (i < n) { out[2 * i] = in[i]; out[2 * i + 1] = -in[i]; }
}"""


def scenario():
    """One command of each kind on a two-device context: the events by
    kind and the buffers by name (``c`` and ``ob1`` have no name)."""
    ctx = ocl.Context.create(ocl.TEST_DEVICE, 2, detect_races="off")
    q0, q1 = ctx.queues
    d0, d1 = ctx.devices
    bufs = {name: ctx.create_buffer(nbytes, device, "" if name in ("c", "ob1") else name)
            for name, nbytes, device in (("a", 256, d0), ("o", 512, d0), ("s", 256, d0),
                                         ("so", 512, d0), ("c", 256, d0), ("b1", 256, d1),
                                         ("ob1", 512, d1))}
    program = ctx.create_program(SPREAD).build()
    events = {}
    events["write"] = q0.enqueue_write_buffer(bufs["a"], np.arange(56, dtype=np.float32), 32)
    q1.enqueue_write_buffer(bufs["b1"], np.arange(64, dtype=np.float32))
    kernel = program.create_kernel("spread").set_args(bufs["a"], bufs["o"], 60)
    events["kernel"] = q0.enqueue_nd_range_kernel(kernel, (64,), (16,))
    sampled = program.create_kernel("spread").set_args(bufs["s"], bufs["so"], 64)
    events["sampled"] = q0.enqueue_nd_range_kernel(sampled, (64,), (16,), sample_fraction=0.5)
    launches = [(index, program.create_kernel("spread").set_args(a, out, 64), (64,), (16,))
                for index, (a, out) in enumerate(((bufs["a"], bufs["o"]),
                                                  (bufs["b1"], bufs["ob1"])))]
    events["sibling0"], events["sibling1"] = ocl.SiblingPlan(ctx.devices, launches).enqueue(
        ctx.queues, [(bufs["a"], bufs["o"]), (bufs["b1"], bufs["ob1"])], [None, None])
    _, events["read"] = q0.enqueue_read_buffer(bufs["o"], np.float32, 16, 64)
    events["copy"] = q0.enqueue_copy_buffer(bufs["a"], bufs["c"], 128, 32, 64)
    events["marker"] = q0.enqueue_marker()
    events["barrier"] = q0.enqueue_barrier([events["copy"]])
    return ctx, events, bufs


def _counters(ops, loads, groups_executed=4):
    return {"ops": ops, "warp_ops": 1664, "global_loads": loads, "global_stores": loads,
            "global_bytes": 8 * loads, "local_loads": 0, "local_stores": 0, "barriers": 0,
            "work_items": 64, "groups_total": 4, "groups_executed": groups_executed}


_IN, _EVEN, _ODD = ("arg in, index get_global_id(0)", "arg out, index 2*get_global_id(0)",
                    "arg out, index 2*get_global_id(0) + 1")


def _spread(a, a_name, out, out_name, n):
    """The access rows of ``spread`` with ``n`` items in range."""
    return [(a, a_name, 0, 4 * n, "r", 0, 0, _IN),
            (out, out_name, 0, 8 * n - 4, "w", 8, 4, _EVEN),
            (out, out_name, 4, 8 * n, "w", 8, 4, _ODD)]


#: Per kind: command type, name, ``info`` (kernels' ``run`` aside),
#: access rows (buffer key, name, then the fields after them) and the
#: kinds of the wait list — what the eagerly built records held.
EXPECTED = {
    "write": ("write_buffer", "a", {"bytes": 224},
              [("a", "a", 32, 256, "w", 0, 0, "")], []),
    "kernel": ("ndrange_kernel", "spread", _counters(792, 120),
               _spread("a", "a", "o", "o", 60), ["write"]),
    "sampled": ("ndrange_kernel", "spread", _counters(832, 128, groups_executed=2),
                _spread("s", "s", "so", "so", 64), ["kernel"]),
    "sibling0": ("ndrange_kernel", "spread", _counters(832, 128),
                 _spread("a", "a", "o", "o", 64), ["sampled"]),
    "sibling1": ("ndrange_kernel", "spread", _counters(832, 128),
                 _spread("b1", "b1", "ob1", "out", 64), [None]),
    "read": ("read_buffer", "o", {"bytes": 64}, [("o", "o", 64, 128, "r", 0, 0, "")],
             ["sibling0"]),
    "copy": ("copy_buffer", "buffer", {"bytes": 128},
             [("a", "a", 32, 160, "r", 0, 0, ""), ("c", "buffer", 64, 192, "w", 0, 0, "")],
             ["read"]),
    "marker": ("marker", "marker", {}, [], ["sibling0", "copy"]),
    "barrier": ("barrier", "barrier", {}, [], ["copy"]),
}


@pytest.fixture(scope="module")
def recorded():
    ctx, events, bufs = scenario()
    yield events, bufs
    ctx.release()


@pytest.mark.parametrize("kind", sorted(EXPECTED))
class TestEveryCommandKind:
    def test_views_equal_the_eager_records(self, recorded, kind):
        events, bufs = recorded
        event = events[kind]
        command_type, name, info, rows, waits = EXPECTED[kind]
        assert (event.command_type, event.name) == (command_type, name)
        got = event.info
        if command_type == "ndrange_kernel":
            assert list(got) == [*info, "run"]
            assert isinstance(got.pop("run"), int)
        assert got == info and list(got) == list(info)
        assert event.accesses == [BufferAccess(bufs[key].uid, *fields)
                                  for key, *fields in rows]
        assert all(type(access) is BufferAccess for access in event.accesses)
        assert isinstance(event.wait_for, tuple)
        named = {id(other): other_kind for other_kind, other in events.items()}
        assert [named.get(id(dep)) for dep in event.wait_for] == waits

    def test_info_and_accesses_are_fresh_on_every_read(self, recorded, kind):
        event = recorded[0][kind]
        info, accesses = event.info, event.accesses
        assert event.info is not info and event.accesses is not accesses
        before = dict(info)
        info["bytes"] = info["ops"] = -1
        info.clear()
        accesses.clear()
        assert event.info == before
        assert len(event.accesses) == len(EXPECTED[kind][3])


def test_a_merged_run_shares_its_id_and_the_others_do_not(recorded):
    runs = {kind: recorded[0][kind].info["run"]
            for kind in ("kernel", "sampled", "sibling0", "sibling1")}
    assert runs["sibling0"] == runs["sibling1"]
    assert len({runs["kernel"], runs["sampled"], runs["sibling0"]}) == 3


class TestAnnotations:
    def test_tags_follow_the_info_keys_persist_and_merge(self):
        ctx, events, _ = scenario()
        kernel, write = events["kernel"], events["write"]
        tags = {"tenant": "t", "tenant_track": 2}
        kernel.annotate(tags)
        write.annotate(tags)
        assert kernel.annotations is tags  # held, not copied
        assert list(kernel.info)[-3:] == ["run", "tenant", "tenant_track"]
        assert kernel.info == kernel.info and kernel.annotations is tags
        assert write.info == {"bytes": 224, "tenant": "t", "tenant_track": 2}
        write.annotate({"tenant_track": 3, "job": 7})
        assert write.info == {"bytes": 224, "tenant": "t", "tenant_track": 3, "job": 7}
        assert kernel.info["tenant_track"] == 2  # the shared mapping is untouched
        assert events["read"].info == {"bytes": 64} and not events["read"].annotations
        ctx.release()

    def test_tags_show_in_the_chrome_trace(self):
        ctx, events, _ = scenario()
        tagged = events["kernel"]
        tagged.annotate({"tenant": "t", "tenant_track": 2})
        trace = trace_events(ctx)
        slices = {entry["args"]["seq"]: entry for entry in trace if entry["ph"] in "Xi"}
        mine = slices[tagged.seq]
        assert mine["tid"] == ENGINE_TIDS["compute"] + 3 * 2
        assert mine["args"]["tenant"] == "t" and mine["args"]["tenant_track"] == 2
        assert mine["args"]["ops"] == 792
        assert {"ph": "M", "name": "thread_name", "pid": 0, "tid": mine["tid"],
                "args": {"name": "compute [t]"}} in trace
        untagged = slices[events["sibling0"].seq]
        assert untagged["tid"] == ENGINE_TIDS["compute"] and "tenant" not in untagged["args"]
        ctx.release()


def test_the_constructor_takes_info_accesses_and_a_wait_list():
    first = Event("marker", "marker")
    access = BufferAccess(7, "x", 0, 16, "w")
    given = {"bytes": 16}
    event = Event("write_buffer", "x", info=given, accesses=[access], wait_for=[first],
                  engine="transfer", device_index=1, label="upload")
    given["bytes"] = 0  # kept as given, copied
    assert event.info == {"bytes": 16} and event.accesses == [access]
    assert event.wait_for == (first,) and event.seq > first.seq
    assert (event.engine, event.device_index, event.label) == ("transfer", 1, "upload")
    assert first.info == {} and first.accesses == [] and first.wait_for == ()
    assert not hasattr(event, "__dict__")


# -- the kernel view against a fresh resolution ------------------------------


def fresh_stamp(kernel, ndrange):
    """The launch's access set resolved with nothing remembered; leaves
    the memo as it found it."""
    memo = affine.cached_kernel_summary(kernel.program.compiled.program,
                                        kernel.compiled.definition).launch_shapes
    saved = OrderedDict(memo)
    memo.clear()
    try:
        return list(kernel_buffer_accesses(kernel, ndrange))
    finally:
        memo.clear()
        memo.update(saved)


_LAUNCHES = st.lists(st.tuples(
    st.sampled_from([(32, 8), (32, 16), (64, 16)]),  # global and local size
    st.integers(0, 64),                               # n
    st.sampled_from(["", "x", "y"]),                  # the output's name
    st.booleans(),                                    # through a sibling plan
    st.booleans()), min_size=1, max_size=12)          # a new input buffer


class TestViewsEqualFreshStamps:
    @settings(deadline=None)  # example budget: the hypothesis profile
    @given(launches=_LAUNCHES)
    def test_over_repeated_and_new_shapes(self, launches):
        ctx = ocl.Context.create(ocl.TEST_DEVICE, 1, detect_races="off")
        queue, device = ctx.queues[0], ctx.devices[0]
        program = ctx.create_program(SPREAD).build()
        source = ctx.create_buffer(256, device, "in")
        plans, seen = {}, []
        for (sizes, n, name, planned, new_input) in launches:
            if new_input:
                source = ctx.create_buffer(256, device, name[::-1])
            out = ctx.create_buffer(512, device, name)
            kernel = program.create_kernel("spread").set_args(source, out, n)
            if planned:
                plan = plans.get((sizes, n))
                if plan is None:
                    plan = plans[sizes, n] = ocl.SiblingPlan(ctx.devices, [(0, kernel, *sizes)])
                (event,) = plan.enqueue(ctx.queues, [(source, out)], [None])
                kernel = plan.plans[0].bind((source, out))
            else:
                event = queue.enqueue_nd_range_kernel(kernel, *sizes)
            expected = fresh_stamp(kernel, ocl.NDRange.create(*sizes))
            assert event.accesses == expected
            seen.append((event, expected))
        # Read again after every later launch: a view does not drift.
        assert all(event.accesses == expected for event, expected in seen)
        ctx.release()
