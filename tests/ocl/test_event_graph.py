"""The asynchronous command graph: event wait lists, the event
lifecycle, engine overlap, markers/barriers, and critical-path elapsed
time (``Context.finish_all``).  ``TestTimelineProperty`` restates the
placement rule over random command graphs of up to three queues::

    PYTHONPATH=src python -m pytest -q tests/ocl/test_event_graph.py \
        --hypothesis-profile=analysis-ci
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import ocl
from repro.kernelc.execmodel import ExecutionCounters
from repro.kernelc.memory import MemoryCounters
from repro.ocl.event import COMPUTE_ENGINE, SYNC_ENGINE, TRANSFER_ENGINE
from repro.ocl.timing import copy_time_ns, kernel_time_ns, simd_utilization, transfer_time_ns

SCALE = """
__kernel void scale(__global const float* a, __global float* out, int n) {
    int gid = get_global_id(0);
    if (gid < n) out[gid] = 2.0f * a[gid];
}
"""

N = 4096


@pytest.fixture
def ctx():
    context = ocl.Context.create(ocl.TEST_DEVICE, 2)
    yield context
    context.release()


def make_kernel(ctx):
    program = ctx.create_program(SCALE).build()
    return program.create_kernel("scale")


def launch(ctx, queue, wait_for=None):
    """Upload data and launch one scale kernel on ``queue``; returns the
    (write, kernel) events."""
    data = np.arange(N, dtype=np.float32)
    a = ctx.create_buffer(data.nbytes, queue.device)
    out = ctx.create_buffer(data.nbytes, queue.device)
    write = queue.enqueue_write_buffer(a, data)
    kernel = make_kernel(ctx)
    kernel.set_args(a, out, N)
    event = queue.enqueue_nd_range_kernel(
        kernel, (N,), (256,), event_wait_list=wait_for if wait_for is not None else [write]
    )
    return write, event


class TestLifecycle:
    def test_enqueued_command_is_complete_with_final_timestamps(self, ctx):
        queue = ctx.queues[0]
        buffer = ctx.create_buffer(64)
        first = queue.enqueue_write_buffer(buffer, np.zeros(16, np.float32))
        event = queue.enqueue_write_buffer(buffer, np.zeros(16, np.float32))
        # Placed when enqueue returns: behind the first write, on the
        # same transfer engine, for the timing model's duration.
        assert event.status is ocl.EventStatus.COMPLETE and event.is_complete
        stamps = _stamps(event)
        duration = transfer_time_ns(ctx.devices[0].spec, 64)
        assert stamps == (first.end_ns, first.end_ns, first.end_ns, first.end_ns + duration)
        # Waiting reads the end and changes nothing.
        assert event.wait() == event.end_ns
        assert _stamps(event) == stamps
        assert event.status is ocl.EventStatus.COMPLETE

    def test_wait_returns_end_timestamp(self, ctx):
        queue = ctx.queues[0]
        buffer = ctx.create_buffer(64)
        event = queue.enqueue_write_buffer(buffer, np.zeros(16, np.float32))
        assert event.wait() == event.end_ns
        assert event.end_ns > 0

    def test_duration_fixed_at_enqueue(self, ctx):
        # The analytic timing model fixes the duration at enqueue time;
        # waiting leaves it alone.
        queue = ctx.queues[0]
        buffer = ctx.create_buffer(64)
        event = queue.enqueue_write_buffer(buffer, np.zeros(16, np.float32))
        planned = event.duration_ns
        assert planned > 0
        event.wait()
        assert event.duration_ns == planned

    def test_status_at_walks_the_lifecycle(self, ctx):
        queue = ctx.queues[0]
        write, kernel = launch(ctx, queue)
        kernel.wait()
        # The kernel waits on the upload: before the upload completes it
        # is at best submitted, afterwards running, then complete.
        assert kernel.status_at(kernel.submit_ns - 1) is ocl.EventStatus.QUEUED
        assert kernel.status_at(kernel.start_ns) is ocl.EventStatus.RUNNING
        assert kernel.status_at(kernel.end_ns) is ocl.EventStatus.COMPLETE

    def test_wait_for_events_resolves_all(self, ctx):
        queue = ctx.queues[0]
        events = [
            queue.enqueue_write_buffer(ctx.create_buffer(64), np.zeros(16, np.float32))
            for _ in range(3)
        ]
        latest = ocl.wait_for_events(events)
        assert all(e.is_complete for e in events)
        assert latest == max(e.end_ns for e in events)


class TestDependencies:
    def test_dependent_kernel_starts_exactly_at_dependency_end(self, ctx):
        # The acceptance criterion: a kernel whose wait list completes
        # *after* its engine is free starts exactly at the last
        # dependency's end_ns.
        queue = ctx.queues[0]
        write, kernel = launch(ctx, queue)
        kernel.wait()
        assert write.is_complete
        assert kernel.start_ns == write.end_ns

    def test_implicit_in_order_serialization(self, ctx):
        # event_wait_list=None preserves the classic in-order queue:
        # every command waits for the previously enqueued one, even
        # across engines.
        queue = ctx.queues[0]
        data = np.arange(N, dtype=np.float32)
        a = ctx.create_buffer(data.nbytes)
        out = ctx.create_buffer(data.nbytes)
        write = queue.enqueue_write_buffer(a, data)
        kernel = make_kernel(ctx)
        kernel.set_args(a, out, N)
        launch_event = queue.enqueue_nd_range_kernel(kernel, (N,), (256,))
        _, read = queue.enqueue_read_buffer(out, np.float32, N)
        queue.finish()
        assert launch_event.start_ns == write.end_ns
        assert read.start_ns >= launch_event.end_ns

    def test_command_never_starts_before_wait_list(self, ctx):
        queue = ctx.queues[0]
        events = []
        for _ in range(4):
            events.append(launch(ctx, queue)[1])
        queue.finish()
        for event in events:
            for dep in event.wait_for:
                assert event.start_ns >= dep.end_ns

    def test_explicit_empty_wait_list_allows_overlap(self, ctx):
        # Two uploads to *different* devices with explicit empty wait
        # lists are independent: both start at time 0.
        data = np.zeros(1 << 16, np.float32)
        e0 = ctx.queues[0].enqueue_write_buffer(
            ctx.create_buffer(data.nbytes, ctx.devices[0]), data, event_wait_list=[]
        )
        e1 = ctx.queues[1].enqueue_write_buffer(
            ctx.create_buffer(data.nbytes, ctx.devices[1]), data, event_wait_list=[]
        )
        ctx.finish_all()
        assert e0.start_ns == 0
        assert e1.start_ns == 0

    def test_cross_queue_dependency_edge(self, ctx):
        # A write on device 1 waiting on a read from device 0 — the halo
        # exchange pattern: the consumer starts after the producer on
        # the other queue.
        data = np.arange(256, dtype=np.float32)
        src = ctx.create_buffer(data.nbytes, ctx.devices[0])
        dst = ctx.create_buffer(data.nbytes, ctx.devices[1])
        up = ctx.queues[0].enqueue_write_buffer(src, data)
        staged, down = ctx.queues[0].enqueue_read_buffer(
            src, np.float32, 256, event_wait_list=[up]
        )
        over = ctx.queues[1].enqueue_write_buffer(dst, staged, event_wait_list=[down])
        assert over.wait() >= down.end_ns
        assert down.is_complete
        assert over.start_ns >= down.end_ns
        assert down.start_ns >= up.end_ns


class TestEngines:
    def test_timestamps_monotone_per_engine(self, ctx):
        queue = ctx.queues[0]
        for _ in range(5):
            launch(ctx, queue)
        queue.finish()
        for engine in (COMPUTE_ENGINE, TRANSFER_ENGINE):
            events = queue.engine_events(engine)
            assert events, f"no events on the {engine} engine"
            for earlier, later in zip(events, events[1:]):
                # An engine runs one command at a time, in enqueue order.
                assert later.start_ns >= earlier.end_ns
                assert earlier.end_ns >= earlier.start_ns

    def test_transfer_overlaps_compute(self, ctx):
        # Kernel 1's input is uploaded, then while kernel 1 runs on the
        # compute engine the transfer engine uploads kernel 2's input:
        # upload B must start before kernel 1 ends.
        queue = ctx.queues[0]
        data = np.arange(N, dtype=np.float32)
        a, out_a = ctx.create_buffer(data.nbytes), ctx.create_buffer(data.nbytes)
        b, out_b = ctx.create_buffer(data.nbytes), ctx.create_buffer(data.nbytes)
        up_a = queue.enqueue_write_buffer(a, data, event_wait_list=[])
        k1 = make_kernel(ctx)
        k1.set_args(a, out_a, N)
        run_a = queue.enqueue_nd_range_kernel(k1, (N,), (256,), event_wait_list=[up_a])
        up_b = queue.enqueue_write_buffer(b, data, event_wait_list=[])  # independent
        k2 = make_kernel(ctx)
        k2.set_args(b, out_b, N)
        run_b = queue.enqueue_nd_range_kernel(k2, (N,), (256,), event_wait_list=[up_b])
        elapsed = queue.finish()
        assert up_b.start_ns < run_a.end_ns  # the overlap
        assert run_b.start_ns >= up_b.end_ns
        serialized = sum(e.duration_ns for e in (up_a, run_a, up_b, run_b))
        assert elapsed < serialized

    def test_serialized_queue_matches_sum_of_durations(self, ctx):
        # With implicit dependencies only, the old serialized-clock model
        # is reproduced exactly: the queue clock is the sum of durations.
        queue = ctx.queues[0]
        data = np.arange(N, dtype=np.float32)
        buffers = [ctx.create_buffer(data.nbytes) for _ in range(4)]
        events = [queue.enqueue_write_buffer(buffer, data) for buffer in buffers]
        assert queue.finish() == sum(e.duration_ns for e in events)


class TestMarkersAndBarriers:
    def test_marker_completes_with_all_prior_work(self, ctx):
        queue = ctx.queues[0]
        write, kernel = launch(ctx, queue)
        marker = queue.enqueue_marker()
        assert marker.wait() == max(write.end_ns, kernel.end_ns)
        assert marker.engine is SYNC_ENGINE
        assert marker.duration_ns == 0

    def test_marker_with_explicit_wait_list(self, ctx):
        queue = ctx.queues[0]
        write, kernel = launch(ctx, queue)
        marker = queue.enqueue_marker(event_wait_list=[write])
        assert marker.wait() == write.end_ns

    def test_barrier_gates_later_commands(self, ctx):
        queue = ctx.queues[0]
        _, kernel = launch(ctx, queue)
        barrier = queue.enqueue_barrier()
        # An upload with an *explicit empty* wait list would normally be
        # free to run at time 0; the barrier still gates it.
        late = queue.enqueue_write_buffer(
            ctx.create_buffer(64), np.zeros(16, np.float32), event_wait_list=[]
        )
        queue.finish()
        assert barrier.end_ns >= kernel.end_ns
        assert late.start_ns >= barrier.end_ns


class TestFinishAll:
    def test_finish_all_is_critical_path_of_hand_built_graph(self, ctx):
        # A two-device diamond: upload on each device, a kernel on each,
        # then device 1's kernel also waits on device 0's kernel (via a
        # staged read).  finish_all() must equal the end of the longest
        # chain — computed here by hand from the event timestamps.
        q0, q1 = ctx.queues
        data = np.arange(N, dtype=np.float32)
        a0 = ctx.create_buffer(data.nbytes, ctx.devices[0])
        o0 = ctx.create_buffer(data.nbytes, ctx.devices[0])
        a1 = ctx.create_buffer(data.nbytes, ctx.devices[1])
        o1 = ctx.create_buffer(data.nbytes, ctx.devices[1])
        up0 = q0.enqueue_write_buffer(a0, data, event_wait_list=[])
        up1 = q1.enqueue_write_buffer(a1, data, event_wait_list=[])
        k0 = make_kernel(ctx)
        k0.set_args(a0, o0, N)
        run0 = q0.enqueue_nd_range_kernel(k0, (N,), (256,), event_wait_list=[up0])
        staged, read0 = q0.enqueue_read_buffer(o0, np.float32, N, event_wait_list=[run0])
        feed1 = q1.enqueue_write_buffer(a1, staged, event_wait_list=[read0, up1])
        k1 = make_kernel(ctx)
        k1.set_args(a1, o1, N)
        run1 = q1.enqueue_nd_range_kernel(k1, (N,), (256,), event_wait_list=[feed1])
        elapsed = ctx.finish_all()
        all_events = [up0, up1, run0, read0, feed1, run1]
        assert all(e.is_complete for e in all_events)
        assert elapsed == max(e.end_ns for e in all_events)
        assert elapsed == run1.end_ns  # the cross-device chain is longest
        # ... and the chain's links are tight: each step starts at its
        # gating dependency's completion.
        assert run0.start_ns == up0.end_ns
        assert read0.start_ns == run0.end_ns
        assert feed1.start_ns == max(read0.end_ns, up1.end_ns)
        assert run1.start_ns == feed1.end_ns
        # Strictly shorter than serializing everything on one clock.
        assert elapsed < sum(e.duration_ns for e in all_events)

    def test_finish_all_idempotent(self, ctx):
        launch(ctx, ctx.queues[0])
        launch(ctx, ctx.queues[1])
        first = ctx.finish_all()
        assert ctx.finish_all() == first

    def test_reset_timelines_clears_scheduler_state(self, ctx):
        queue = ctx.queues[0]
        launch(ctx, queue)
        assert queue.finish() > 0
        ctx.reset_timelines()
        assert queue.finish() == 0
        assert queue.events == []
        # A fresh command starts the timeline from zero again.
        event = queue.enqueue_write_buffer(ctx.create_buffer(64), np.zeros(16, np.float32))
        assert event.wait() == event.duration_ns


class TestCounters:
    def test_copy_buffer_counts_into_transfer_totals(self, ctx):
        queue = ctx.queues[0]
        src = ctx.create_buffer(256)
        dst = ctx.create_buffer(256)
        ns_before = queue.total_transfer_ns
        bytes_before = queue.total_transfer_bytes
        event = queue.enqueue_copy_buffer(src, dst, 256)
        assert queue.total_transfer_bytes == bytes_before + 256
        assert queue.total_transfer_ns == ns_before + event.duration_ns

    @pytest.mark.parametrize("src_offset, dst_offset", [(0, 16), (16, 0)],
                             ids=["forward", "backward"])
    def test_copy_within_one_buffer_moves_overlapping_ranges_like_memmove(
            self, ctx, src_offset, dst_offset):
        queue = ctx.queues[0]
        data = np.arange(64, dtype=np.uint8)
        buffer = ctx.create_buffer(64)
        queue.enqueue_write_buffer(buffer, data)
        event = queue.enqueue_copy_buffer(buffer, buffer, 48, src_offset, dst_offset)
        expected = data.copy()
        expected[dst_offset:dst_offset + 48] = data[src_offset:src_offset + 48]
        out, _ = queue.enqueue_read_buffer(buffer, np.uint8)
        np.testing.assert_array_equal(out, expected)
        assert [(a.reads, a.writes, a.start, a.stop) for a in event.accesses] == [
            (True, False, src_offset, src_offset + 48),
            (False, True, dst_offset, dst_offset + 48)]

    def test_copy_buffer_bounds_are_checked_before_anything_moves(self, ctx):
        queue = ctx.queues[0]
        src, dst = ctx.create_buffer(64), ctx.create_buffer(32)
        queue.enqueue_write_buffer(src, np.full(64, 7, np.uint8))
        with pytest.raises(ocl.InvalidValue, match="read overflows buffer"):
            queue.enqueue_copy_buffer(src, dst, 32, src_offset_bytes=48)
        with pytest.raises(ocl.InvalidValue,
                           match="write of 32 bytes at offset 8 overflows buffer of 32"):
            queue.enqueue_copy_buffer(src, dst, 32, dst_offset_bytes=8)
        out, _ = queue.enqueue_read_buffer(dst, np.uint8)
        assert not out.any()


# -- the timeline rule over random command graphs --------------------------------

KINDS = ("write", "read", "copy", "marker", "barrier", "kernel")
ELEMENTS = 256  # floats per buffer


def _stamps(event):
    return event.queued_ns, event.submit_ns, event.start_ns, event.end_ns


class _Timeline:
    """The placement rule restated, per queue: a command starts at the
    latest of its engine's previous end (markers and barriers occupy no
    engine) and its wait list's ends.  ``None`` waits for the queue's
    previous command — for a marker or barrier, each engine's last
    command — and an explicit list also waits for an active barrier."""

    def __init__(self, queues):
        self.ready = {(q, engine): 0 for q in range(queues)
                      for engine in (COMPUTE_ENGINE, TRANSFER_ENGINE)}
        self.tail = dict.fromkeys(self.ready)
        self.last = [None] * queues
        self.barrier = [None] * queues

    def expect(self, q, engine, wait_list):
        """The (queued, submit, start) of the next command of queue
        ``q`` on ``engine``."""
        if wait_list is None and engine is SYNC_ENGINE:
            wait_list = [tail for (at, _), tail in self.tail.items()
                         if at == q and tail is not None]
        if wait_list is None:
            deps = [] if self.last[q] is None else [self.last[q]]
        else:
            deps = list(wait_list)
            if self.barrier[q] is not None:
                deps.append(self.barrier[q])
        deps_end = max([dep.end_ns for dep in deps], default=0)
        if engine is SYNC_ENGINE:
            return deps_end, deps_end, deps_end
        ready = self.ready[q, engine]
        return ready, max(ready, deps_end), max(ready, deps_end)

    def record(self, q, event, kind):
        if event.engine is not SYNC_ENGINE:
            self.ready[q, event.engine] = event.end_ns
            self.tail[q, event.engine] = event
        self.last[q] = event
        if kind == "barrier":
            self.barrier[q] = event


class TestTimelineProperty:
    @given(st.data())
    def test_every_command_is_placed_once_when_enqueued(self, data):
        num_queues = data.draw(st.integers(1, 3), label="queues")
        ctx = ocl.Context.create(ocl.TEST_DEVICE, num_queues, detect_races="off")
        try:
            self._check(ctx, data)
        finally:
            ctx.release()

    def _check(self, ctx, data):
        spec = ctx.devices[0].spec
        program = ctx.create_program(SCALE).build()
        buffers = [[ctx.create_buffer(4 * ELEMENTS, device) for _ in range(2)]
                   for device in ctx.devices]
        model, events = _Timeline(len(ctx.queues)), []
        for _ in range(data.draw(st.integers(1, 12), label="commands")):
            q = data.draw(st.integers(0, len(ctx.queues) - 1), label="queue")
            queue, (a, b) = ctx.queues[q], buffers[q]
            kind = data.draw(st.sampled_from(KINDS), label="kind")
            wait_list = data.draw(st.one_of(
                st.none(), st.lists(st.sampled_from(events), max_size=3)
                if events else st.just([])), label="wait list")
            count = data.draw(st.sampled_from([16, 64, ELEMENTS]), label="count")
            engine = SYNC_ENGINE if kind in ("marker", "barrier") \
                else COMPUTE_ENGINE if kind == "kernel" else TRANSFER_ENGINE
            expected = model.expect(q, engine, wait_list)
            before = [_stamps(event) for event in events]
            if kind == "write":
                event = queue.enqueue_write_buffer(
                    a, np.ones(count, np.float32), event_wait_list=wait_list)
                duration = transfer_time_ns(spec, 4 * count)
            elif kind == "read":
                _, event = queue.enqueue_read_buffer(
                    a, np.float32, count, event_wait_list=wait_list)
                duration = transfer_time_ns(spec, 4 * count)
            elif kind == "copy":
                event = queue.enqueue_copy_buffer(a, b, 4 * count, event_wait_list=wait_list)
                duration = copy_time_ns(spec, 4 * count)
            elif kind == "kernel":
                kernel = program.create_kernel("scale").set_args(a, b, count)
                event = queue.enqueue_nd_range_kernel(
                    kernel, (ELEMENTS,), (64,), event_wait_list=wait_list)
                info = event.info
                duration = kernel_time_ns(spec, ExecutionCounters(
                    ops=info["ops"], warp_ops=info["warp_ops"], memory=MemoryCounters(
                        global_loads=info["global_loads"],
                        global_stores=info["global_stores"],
                        global_bytes=info["global_bytes"])), simd_utilization(64))
            else:
                enqueue = queue.enqueue_marker if kind == "marker" else queue.enqueue_barrier
                event = enqueue(event_wait_list=wait_list)
                duration = 0
            assert event.status is ocl.EventStatus.COMPLETE
            assert event.engine == engine
            assert _stamps(event)[:3] == expected
            assert event.end_ns - event.start_ns == duration
            assert [_stamps(earlier) for earlier in events] == before
            model.record(q, event, kind)
            events.append(event)
        final = [_stamps(event) for event in events]
        waited = data.draw(st.sampled_from(events), label="waited")
        assert waited.wait() == waited.end_ns
        assert ctx.finish_all() == max(event.end_ns for event in events)
        assert [_stamps(event) for event in events] == final
