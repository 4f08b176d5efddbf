"""SkelSan race detection over the asynchronous command graph.

The detector observes every submitted command's buffer access set and
reports command pairs that conflict (>= 1 write, overlapping byte
ranges) without a wait-list path ordering them — see docs/analysis.md.
"""

import copy

import numpy as np
import pytest

from repro import ocl
from repro.analysis import (
    BufferAccess,
    RaceDetector,
    RaceError,
    RaceWarning,
    SanitizeMode,
    resolve_sanitize_mode,
)

SCALE = """
__kernel void scale(__global const float* a, __global float* out, int n) {
    int gid = get_global_id(0);
    if (gid < n) out[gid] = 2.0f * a[gid];
}
"""

N = 1024


@pytest.fixture
def ctx():
    context = ocl.Context.create(ocl.TEST_DEVICE, 2, detect_races="strict")
    yield context
    context.release()


@pytest.fixture
def reporting_ctx():
    context = ocl.Context.create(ocl.TEST_DEVICE, 2, detect_races="report")
    yield context
    context.release()


def scale_kernel(ctx, a, out):
    program = ctx.create_program(SCALE).build()
    kernel = program.create_kernel("scale")
    kernel.set_args(a, out, N)
    return kernel


class TestMode:
    def test_explicit_modes(self):
        assert resolve_sanitize_mode("strict") is SanitizeMode.STRICT
        assert resolve_sanitize_mode("report") is SanitizeMode.REPORT
        assert resolve_sanitize_mode("off") is SanitizeMode.OFF
        assert resolve_sanitize_mode(True) is SanitizeMode.STRICT
        assert resolve_sanitize_mode(False) is SanitizeMode.OFF

    def test_env_wiring(self, monkeypatch):
        monkeypatch.setenv("SKELCL_SANITIZE", "strict")
        assert resolve_sanitize_mode(None) is SanitizeMode.STRICT
        monkeypatch.setenv("SKELCL_SANITIZE", "report")
        assert resolve_sanitize_mode(None) is SanitizeMode.REPORT
        monkeypatch.delenv("SKELCL_SANITIZE")
        assert resolve_sanitize_mode(None) is SanitizeMode.OFF

    def test_unknown_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("SKELCL_SANITIZE", "sometimes")
        with pytest.raises(ValueError):
            resolve_sanitize_mode(None)

    def test_env_enables_detector_on_context(self, monkeypatch):
        monkeypatch.setenv("SKELCL_SANITIZE", "strict")
        context = ocl.Context.create(ocl.TEST_DEVICE, 1)
        try:
            assert context.race_detector is not None
            assert context.race_detector.mode is SanitizeMode.STRICT
        finally:
            context.release()

    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("SKELCL_SANITIZE", raising=False)
        context = ocl.Context.create(ocl.TEST_DEVICE, 1)
        try:
            assert context.race_detector is None
        finally:
            context.release()


class TestAccessSets:
    def test_transfers_carry_byte_ranges(self, ctx):
        queue = ctx.queues[0]
        buffer = ctx.create_buffer(4 * N, queue.device)
        event = queue.enqueue_write_buffer(
            buffer, np.zeros(16, np.float32), offset_bytes=64
        )
        (access,) = event.accesses
        assert access.buffer_uid == buffer.uid
        assert (access.start, access.stop) == (64, 128)
        assert access.writes and not access.reads

    def test_kernel_access_modes_from_static_analysis(self, ctx):
        queue = ctx.queues[0]
        a = ctx.create_buffer(4 * N, queue.device)
        out = ctx.create_buffer(4 * N, queue.device)
        w = queue.enqueue_write_buffer(a, np.zeros(N, np.float32))
        event = queue.enqueue_nd_range_kernel(
            scale_kernel(ctx, a, out), (N,), (256,), event_wait_list=[w]
        )
        modes = {access.buffer_uid: access.mode for access in event.accesses}
        assert modes[a.uid] == "r"  # const pointer, only loaded
        assert modes[out.uid] == "w"  # only stored

    def test_marker_and_barrier_are_pure_ordering_edges(self, ctx):
        queue = ctx.queues[0]
        buffer = ctx.create_buffer(256, queue.device)
        w = queue.enqueue_write_buffer(buffer, np.zeros(64, np.float32))
        marker = queue.enqueue_marker([w])
        barrier = queue.enqueue_barrier([marker])
        assert marker.accesses == [] and barrier.accesses == []
        # Ordering through the (accessless) barrier suffices: a second
        # write that waits only on the barrier must not race the first.
        queue.enqueue_write_buffer(buffer, np.ones(64, np.float32),
                                   event_wait_list=[barrier])
        assert ctx.check_races() == []


class TestDetection:
    def test_unordered_writes_race(self, ctx):
        queue = ctx.queues[0]
        buffer = ctx.create_buffer(256, queue.device)
        first = queue.enqueue_write_buffer(buffer, np.zeros(64, np.float32))
        marker = queue.enqueue_marker([first])  # unrelated ordering point
        with pytest.raises(RaceError, match="data race"):
            queue.enqueue_write_buffer(buffer, np.ones(64, np.float32),
                                       event_wait_list=[])
        assert marker is not None

    def test_disjoint_ranges_do_not_race(self, ctx):
        queue = ctx.queues[0]
        buffer = ctx.create_buffer(512, queue.device)
        queue.enqueue_write_buffer(buffer, np.zeros(64, np.float32),
                                   event_wait_list=[])
        queue.enqueue_write_buffer(buffer, np.zeros(64, np.float32),
                                   offset_bytes=256, event_wait_list=[])
        assert ctx.check_races() == []

    def test_concurrent_reads_do_not_race(self, ctx):
        queue = ctx.queues[0]
        buffer = ctx.create_buffer(256, queue.device)
        w = queue.enqueue_write_buffer(buffer, np.zeros(64, np.float32))
        queue.enqueue_read_buffer(buffer, np.float32, 64, event_wait_list=[w])
        queue.enqueue_read_buffer(buffer, np.float32, 64, event_wait_list=[w])
        assert ctx.check_races() == []

    def test_transitive_ordering_recognized(self, ctx):
        queue = ctx.queues[0]
        buffer = ctx.create_buffer(256, queue.device)
        w = queue.enqueue_write_buffer(buffer, np.zeros(64, np.float32))
        mid = queue.enqueue_marker([w])
        queue.enqueue_write_buffer(buffer, np.ones(64, np.float32),
                                   event_wait_list=[mid])
        assert ctx.check_races() == []

    def test_report_mode_warns_and_records(self, reporting_ctx):
        ctx = reporting_ctx
        queue = ctx.queues[0]
        buffer = ctx.create_buffer(256, queue.device)
        queue.enqueue_write_buffer(buffer, np.zeros(64, np.float32))
        with pytest.warns(RaceWarning, match="data race"):
            queue.enqueue_write_buffer(buffer, np.ones(64, np.float32),
                                       event_wait_list=[])
        races = ctx.check_races()
        assert len(races) == 1
        assert races[0].earlier.command_type == "write_buffer"
        assert races[0].later.command_type == "write_buffer"

    def test_race_message_carries_provenance(self, reporting_ctx):
        ctx = reporting_ctx
        queue = ctx.queues[0]
        buffer = ctx.create_buffer(256, queue.device, name="halo")
        queue.enqueue_write_buffer(buffer, np.zeros(64, np.float32))
        with pytest.warns(RaceWarning):
            queue.enqueue_write_buffer(buffer, np.ones(64, np.float32),
                                       event_wait_list=[])
        message = str(ctx.check_races()[0])
        assert "halo" in message
        assert "write_buffer" in message
        assert "test_race_detector.py" in message  # enqueue site

    def test_racy_event_stays_recorded_after_strict_error(self, ctx):
        # Strict mode raises *after* recording the racy command (its
        # data effects have already executed), so later commands must
        # order after it too.
        queue = ctx.queues[0]
        buffer = ctx.create_buffer(256, queue.device)
        first = queue.enqueue_write_buffer(buffer, np.zeros(64, np.float32))
        with pytest.raises(RaceError):
            queue.enqueue_write_buffer(buffer, np.ones(64, np.float32),
                                       event_wait_list=[])
        # Waiting only on the first write still races with the recorded
        # second one.
        with pytest.raises(RaceError):
            queue.enqueue_write_buffer(buffer, np.ones(64, np.float32),
                                       event_wait_list=[first])

    def test_reset_timelines_clears_detector(self, ctx):
        queue = ctx.queues[0]
        buffer = ctx.create_buffer(256, queue.device)
        queue.enqueue_write_buffer(buffer, np.zeros(64, np.float32))
        ctx.finish_all()
        ctx.reset_timelines()
        # A fresh epoch: the old write is forgotten, no stale race.
        queue.enqueue_write_buffer(buffer, np.ones(64, np.float32),
                                   event_wait_list=[])
        assert ctx.check_races() == []


class TestEventIdentity:
    """Events are handles: equal fields do not make two commands one."""

    def test_value_equal_event_does_not_stand_in_for_the_barrier(self, ctx):
        queue = ctx.queues[0]
        buffer = ctx.create_buffer(256, queue.device)
        first = queue.enqueue_write_buffer(buffer, np.zeros(64, np.float32))
        barrier = queue.enqueue_barrier([first])
        twin = copy.copy(barrier)  # same fields, another event
        assert twin is not barrier and twin != barrier
        # The active barrier gates the write even though a value-equal
        # copy is in its wait list, so the write is ordered after the
        # first one and does not race it.
        second = queue.enqueue_write_buffer(buffer, np.ones(64, np.float32),
                                            event_wait_list=[twin])
        assert [dep is barrier for dep in second.wait_for] == [False, True]
        assert ctx.check_races() == []

    def test_events_are_hashable_by_identity(self, ctx):
        queue = ctx.queues[0]
        marker = queue.enqueue_marker([])
        twin = copy.copy(marker)
        assert {marker} == {marker} and marker in {marker}
        assert len({marker, twin}) == 2
        assert {marker: 1, twin: 2}[marker] == 1


class TestHaloPipeline:
    """A two-device stencil-style pipeline whose halo exchange is the
    classic place to lose a wait-list edge."""

    def _pipeline(self, ctx, forget_edge):
        dev0, dev1 = ctx.queues[0], ctx.queues[1]
        data = np.arange(N, dtype=np.float32)
        src0 = ctx.create_buffer(data.nbytes, dev0.device, name="chunk0")
        dst0 = ctx.create_buffer(data.nbytes, dev0.device, name="out0")
        dst1 = ctx.create_buffer(data.nbytes, dev1.device, name="out1")
        upload = dev0.enqueue_write_buffer(src0, data)
        compute = dev0.enqueue_nd_range_kernel(
            scale_kernel(ctx, src0, dst0), (N,), (256,), event_wait_list=[upload]
        )
        # Halo exchange: device 1 needs the edge of device 0's freshly
        # computed chunk — download it, then upload into dst1's halo.
        exchange_deps = [] if forget_edge else [compute]
        halo, read = dev0.enqueue_read_buffer(
            dst0, np.float32, 64, offset_bytes=data.nbytes - 256,
            event_wait_list=exchange_deps,
        )
        dev1.enqueue_write_buffer(dst1, halo, event_wait_list=[read])
        ctx.finish_all()

    def test_missing_halo_edge_is_caught(self, ctx):
        with pytest.raises(RaceError, match="out0"):
            self._pipeline(ctx, forget_edge=True)

    def test_corrected_pipeline_is_clean(self, ctx):
        self._pipeline(ctx, forget_edge=False)
        assert ctx.check_races() == []


class TestDetectorUnit:
    def test_conflicts_require_overlap_and_a_write(self):
        a = BufferAccess(buffer_uid=1, buffer_name="b", start=0, stop=64, mode="w")
        b = BufferAccess(buffer_uid=1, buffer_name="b", start=32, stop=96, mode="r")
        c = BufferAccess(buffer_uid=1, buffer_name="b", start=64, stop=96, mode="w")
        d = BufferAccess(buffer_uid=2, buffer_name="o", start=0, stop=64, mode="w")
        assert a.conflicts_with(b)
        assert not a.conflicts_with(c)  # ranges touch but do not overlap
        assert not a.conflicts_with(d)  # different buffers
        assert not b.conflicts_with(b)  # read/read

    def test_disabled_detector_observes_nothing(self):
        detector = RaceDetector(SanitizeMode.OFF)
        assert not detector.enabled
        detector.observe(object())  # must not touch the event at all
        assert detector.races == []
