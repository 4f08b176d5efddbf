"""SkelSan is exact: over random command graphs the race detector finds
exactly the races a brute-force reference finds.

The reference knows nothing of the detector's bookkeeping: it keeps
every access ever recorded, in enqueue order, and decides "is ``p`` an
ancestor of ``e``" by walking ``wait_for`` edges from ``e``.  The
detector keeps offset ancestor sets and forgets the records of buffers
that were garbage collected; neither may change a verdict::

    PYTHONPATH=src python -m pytest -q tests/ocl/test_race_property.py \
        --hypothesis-profile=analysis-ci
"""

import gc
import warnings
import weakref

import numpy as np
from hypothesis import event, given, strategies as st

from repro import ocl
from repro.analysis import RaceError, RaceWarning

KERNELS = """
__kernel void shift(__global const float* src, __global float* dst, int off) {
    int gid = get_global_id(0);
    dst[gid + off] = src[gid];
}
__kernel void bump(__global float* a, int off) {
    int gid = get_global_id(0);
    a[gid + off] += 1.0f;
}
"""

FLOATS = 16  # every buffer holds 16 floats
KINDS = ("write", "read", "copy", "shift", "bump", "marker", "barrier",
         "new", "release", "drop")


def _ancestors(event):
    """Every event reachable from ``event`` over ``wait_for`` edges."""
    seen, stack = set(), list(event.wait_for)
    while stack:
        dep = stack.pop()
        if id(dep) not in seen:
            seen.add(id(dep))
            stack.extend(dep.wait_for)
    return seen


class _Reference:
    """Brute-force happens-before checking over the whole history."""

    def __init__(self):
        self.records = []  # (event, access), in enqueue order
        self.races = []

    def observe(self, event):
        ancestors = _ancestors(event)
        found, reported = [], set()
        for access in event.accesses:
            for prior, prior_access in self.records:
                if (id(prior) in reported or prior_access.buffer_uid != access.buffer_uid
                        or not access.conflicts_with(prior_access)
                        or id(prior) in ancestors):
                    continue
                reported.add(id(prior))
                found.append((prior.seq, event.seq, prior_access, access))
        self.records.extend((event, access) for access in event.accesses)
        self.races.extend(found)
        return found


def _span(draw, label):
    """``(offset, count)`` in floats, inside one buffer."""
    count = draw(st.integers(1, FLOATS), label=f"{label} count")
    return draw(st.integers(0, FLOATS - count), label=f"{label} offset"), count


class TestDetectorMatchesReference:
    @given(st.data())
    def test_races_equal_brute_force_reference(self, data):
        num_queues = data.draw(st.integers(1, 3), label="queues")
        mode = data.draw(st.sampled_from(["report", "strict"]), label="mode")
        # What exists before the example is frozen: each drop's collection
        # walks the example's own objects, not every one the suite made.
        gc.freeze()
        ctx = ocl.Context.create(ocl.TEST_DEVICE, num_queues, detect_races=mode)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RaceWarning)
                self._check(ctx, mode, data)
        finally:
            ctx.release()
            gc.unfreeze()

    def _check(self, ctx, mode, data):
        detector = ctx.race_detector
        program = ctx.create_program(KERNELS).build()
        reference, events = _Reference(), []
        # Per queue, the buffers this test still references.
        buffers = [[ctx.create_buffer(4 * FLOATS, device) for _ in range(2)]
                   for device in ctx.devices]
        refs = {b.uid: weakref.ref(b) for pool in buffers for b in pool}
        draw = data.draw
        for _ in range(draw(st.integers(1, 24), label="steps")):
            q = draw(st.integers(0, len(ctx.queues) - 1), label="queue")
            queue, pool = ctx.queues[q], buffers[q]
            kind = draw(st.sampled_from(KINDS), label="kind")
            if kind == "new" or not pool:
                buffer = ctx.create_buffer(4 * FLOATS, ctx.devices[q])
                refs[buffer.uid] = weakref.ref(buffer)
                pool.append(buffer)
                continue
            if kind in ("release", "drop"):
                victim = draw(st.integers(0, len(pool) - 1), label="victim")
                if kind == "release":
                    # Released but still referenced: it can still be
                    # named in a command, so its records must stay.
                    pool[victim].release()
                else:
                    uid = pool.pop(victim).uid
                    gc.collect()
                    event("drop: buffer collected" if refs[uid]() is None
                          else "drop: buffer still referenced")
                continue
            wait_list = draw(st.one_of(
                st.none(), st.lists(st.sampled_from(events), max_size=3)
                if events else st.just([])), label="wait list")
            raised = self._enqueue(program, queue, pool, kind, wait_list, draw)
            command = queue.events[-1]
            assert command not in events  # every enqueue records its command
            found = reference.observe(command)
            events.append(command)
            if mode == "strict":
                assert raised == bool(found)
            else:
                assert not raised
            # The records of a buffer outlive it by nothing, and those of
            # a live one are all kept.
            alive = {uid for uid, ref in refs.items() if ref() is not None}
            touched = {access.buffer_uid for _, access in reference.records}
            assert set(detector._by_buffer) == alive & touched
        if mode == "report":
            assert [(race.earlier.seq, race.later.seq, race.earlier_access,
                     race.later_access) for race in detector.races] == reference.races

    @staticmethod
    def _enqueue(program, queue, pool, kind, wait_list, draw):
        """Enqueue one drawn command; True if strict SkelSan raised.  Its
        buffers and kernel are locals of this frame, so a buffer later
        dropped from ``pool`` is garbage once this returns."""
        pick = st.integers(0, len(pool) - 1)
        a = pool[draw(pick, label="buffer")]
        raised = False
        try:
            if kind == "write":
                offset, count = _span(draw, "write")
                queue.enqueue_write_buffer(a, np.ones(count, np.float32),
                                           offset_bytes=4 * offset,
                                           event_wait_list=wait_list)
            elif kind == "read":
                offset, count = _span(draw, "read")
                queue.enqueue_read_buffer(a, np.float32, count, offset_bytes=4 * offset,
                                          event_wait_list=wait_list)
            elif kind == "copy":
                b = pool[draw(pick, label="destination")]
                src_offset, count = _span(draw, "copy")
                dst_offset = draw(st.integers(0, FLOATS - count), label="copy to")
                queue.enqueue_copy_buffer(a, b, 4 * count, 4 * src_offset,
                                          4 * dst_offset, event_wait_list=wait_list)
            elif kind == "shift":
                b = pool[draw(pick, label="destination")]
                offset, count = _span(draw, "shift")
                kernel = program.create_kernel("shift").set_args(a, b, offset)
                queue.enqueue_nd_range_kernel(kernel, (count,), (1,),
                                              event_wait_list=wait_list)
            elif kind == "bump":
                offset, count = _span(draw, "bump")
                kernel = program.create_kernel("bump").set_args(a, offset)
                queue.enqueue_nd_range_kernel(kernel, (count,), (1,),
                                              event_wait_list=wait_list)
            elif kind == "marker":
                queue.enqueue_marker(event_wait_list=wait_list)
            else:
                queue.enqueue_barrier(event_wait_list=wait_list)
        except RaceError:
            raised = True
        return raised
