"""Simulated OpenCL runtime tests: buffers, queues, programs, events."""

import numpy as np
import pytest

from repro import ocl
from repro.kernelc.memory import KernelFault
from repro.ocl import queue as ocl_queue

from ..kernelc import peritem

VEC_ADD = """
__kernel void vec_add(__global const float* a, __global const float* b,
                      __global float* out, int n) {
    int gid = get_global_id(0);
    if (gid < n) out[gid] = a[gid] + b[gid];
}
"""


DIVIDES = """
__kernel void divides(__global const int* a, __global int* out, int n) {
    int i = get_global_id(0);
    if (i < n) out[i] = 100 / (a[i] - 7);
}
"""


@pytest.fixture
def ctx():
    context = ocl.Context.create(ocl.TEST_DEVICE, 2)
    yield context
    context.release()


class TestBuffers:
    def test_allocation_tracked(self, ctx):
        device = ctx.devices[0]
        before = device.allocated_bytes
        buffer = ctx.create_buffer(1024, device)
        assert device.allocated_bytes == before + 1024
        buffer.release()
        assert device.allocated_bytes == before

    def test_double_release_is_safe(self, ctx):
        buffer = ctx.create_buffer(64)
        buffer.release()
        buffer.release()

    def test_out_of_memory(self, ctx):
        with pytest.raises(ocl.OutOfResources):
            ctx.create_buffer(ctx.devices[0].global_mem_size + 1)

    def test_zero_size_rejected(self, ctx):
        with pytest.raises(ocl.InvalidValue):
            ctx.create_buffer(0)

    def test_write_read_roundtrip(self, ctx):
        queue = ctx.queues[0]
        data = np.arange(16, dtype=np.float32)
        buffer = ctx.create_buffer(data.nbytes)
        queue.enqueue_write_buffer(buffer, data)
        out, _event = queue.enqueue_read_buffer(buffer, np.float32, 16)
        np.testing.assert_array_equal(out, data)

    def test_write_overflow_rejected(self, ctx):
        buffer = ctx.create_buffer(8)
        with pytest.raises(ocl.InvalidValue):
            ctx.queues[0].enqueue_write_buffer(buffer, np.zeros(100, np.float32))

    def test_partial_read_with_offset(self, ctx):
        queue = ctx.queues[0]
        data = np.arange(8, dtype=np.int32)
        buffer = ctx.create_buffer(data.nbytes)
        queue.enqueue_write_buffer(buffer, data)
        out, _ = queue.enqueue_read_buffer(buffer, np.int32, 2, offset_bytes=8)
        assert list(out) == [2, 3]

    def test_queue_rejects_foreign_buffer(self, ctx):
        buffer = ctx.create_buffer(64, ctx.devices[1])
        with pytest.raises(ocl.InvalidValue):
            ctx.queues[0].enqueue_write_buffer(buffer, np.zeros(16, np.float32))


class TestPrograms:
    def test_build_and_kernel_names(self, ctx):
        program = ctx.create_program(VEC_ADD).build()
        assert program.kernel_names() == ["vec_add"]

    def test_build_error_carries_log(self, ctx):
        with pytest.raises(ocl.BuildError) as excinfo:
            ctx.create_program("__kernel void k() { undeclared_fn(); }").build()
        assert "undeclared" in str(excinfo.value)

    def test_build_cache_hits_for_same_source(self, ctx):
        ocl.clear_build_cache()
        ctx.create_program(VEC_ADD).build()
        size_after_first = ocl.build_cache_size()
        ctx.create_program(VEC_ADD).build()
        assert ocl.build_cache_size() == size_after_first

    def test_defines_affect_cache_key(self, ctx):
        ocl.clear_build_cache()
        src = "__kernel void k(__global int* o) { o[0] = N; }"
        ctx.create_program(src, defines={"N": "1"}).build()
        ctx.create_program(src, defines={"N": "2"}).build()
        assert ocl.build_cache_size() == 2

    def test_unknown_kernel_name(self, ctx):
        program = ctx.create_program(VEC_ADD).build()
        with pytest.raises(KeyError):
            program.create_kernel("missing")

    LINT_ERROR = ("__kernel void k(__global float* o) { float a[2]; a[0] = 1.0f; "
                  "if (o[0] < -1.0f) { o[1] = a[3]; } }")

    @pytest.mark.parametrize("cached", [False, True], ids=["cold", "memory-cache"])
    @pytest.mark.parametrize("environment, explicit, fails", [
        ("strict", "off", False), (None, "strict", True),
        ("strict", None, True), (None, None, False),
    ], ids=["off-beats-env", "strict-without-env", "env-alone", "neither"])
    def test_lint_errors_fail_the_build_under_the_contexts_own_mode(
            self, environment, explicit, fails, cached, monkeypatch):
        """``create_program`` hands the program the mode its context
        resolved — explicit ``detect_races`` first — on the cold and the
        cached path alike; a bare ``Program`` knows the chain only."""
        if environment is None:
            monkeypatch.delenv("SKELCL_SANITIZE", raising=False)
        else:
            monkeypatch.setenv("SKELCL_SANITIZE", environment)
        ocl.clear_build_cache()
        if cached:
            lenient = ocl.Context.create(ocl.TEST_DEVICE, detect_races="off")
            lenient.create_program(self.LINT_ERROR).build()
            lenient.release()
        context = ocl.Context.create(ocl.TEST_DEVICE, detect_races=explicit)
        program = context.create_program(self.LINT_ERROR)
        if fails:
            with pytest.raises(ocl.BuildError, match="constant-index-oob"):
                program.build()
        else:
            assert program.build().is_built
        bare = ocl.Program(self.LINT_ERROR)
        if environment == "strict":
            with pytest.raises(ocl.BuildError, match="constant-index-oob"):
                bare.build()
        else:
            assert bare.build().is_built
        context.release()


class TestKernelLaunch:
    def test_correct_result(self, ctx):
        queue = ctx.queues[0]
        n = 256
        a = np.random.RandomState(0).rand(n).astype(np.float32)
        b = np.random.RandomState(1).rand(n).astype(np.float32)
        buf_a = ctx.create_buffer(a.nbytes)
        buf_b = ctx.create_buffer(b.nbytes)
        buf_o = ctx.create_buffer(a.nbytes)
        queue.enqueue_write_buffer(buf_a, a)
        queue.enqueue_write_buffer(buf_b, b)
        kernel = ctx.create_program(VEC_ADD).build().create_kernel("vec_add")
        kernel.set_args(buf_a, buf_b, buf_o, n)
        queue.enqueue_nd_range_kernel(kernel, (n,), (64,))
        out, _ = queue.enqueue_read_buffer(buf_o, np.float32, n)
        np.testing.assert_allclose(out, a + b, rtol=1e-6)

    def test_unset_args_rejected(self, ctx):
        kernel = ctx.create_program(VEC_ADD).build().create_kernel("vec_add")
        kernel.set_arg(0, ctx.create_buffer(16))
        with pytest.raises(ocl.InvalidKernelArgs):
            ctx.queues[0].enqueue_nd_range_kernel(kernel, (4,), (4,))

    def test_wrong_arg_count_rejected(self, ctx):
        kernel = ctx.create_program(VEC_ADD).build().create_kernel("vec_add")
        with pytest.raises(ocl.InvalidKernelArgs):
            kernel.set_args(ctx.create_buffer(16), 4)

    def test_scalar_for_pointer_rejected(self, ctx):
        kernel = ctx.create_program(VEC_ADD).build().create_kernel("vec_add")
        with pytest.raises(ocl.InvalidKernelArgs):
            kernel.set_args(1, 2, 3, 4)
            ctx.queues[0].enqueue_nd_range_kernel(kernel, (4,), (4,))

    def test_buffer_on_wrong_device_rejected(self, ctx):
        kernel = ctx.create_program(VEC_ADD).build().create_kernel("vec_add")
        b0 = ctx.create_buffer(16, ctx.devices[0])
        b1 = ctx.create_buffer(16, ctx.devices[1])
        kernel.set_args(b0, b1, b0, 4)
        with pytest.raises(ocl.InvalidKernelArgs):
            ctx.queues[0].enqueue_nd_range_kernel(kernel, (4,), (4,))

    def test_event_statistics(self, ctx):
        queue = ctx.queues[0]
        n = 64
        buf = ctx.create_buffer(n * 4)
        kernel = ctx.create_program(VEC_ADD).build().create_kernel("vec_add")
        kernel.set_args(buf, buf, buf, n)
        event = queue.enqueue_nd_range_kernel(kernel, (n,), (32,))
        assert event.info["global_loads"] == 2 * n
        assert event.info["global_stores"] == n
        assert event.info["work_items"] == n
        assert event.duration_ns > 0

    def _lone_fault(self, ctx):
        queue = ctx.queues[0]
        a, out = ctx.create_buffer(4 * 256), ctx.create_buffer(4 * 256)
        queue.enqueue_write_buffer(a, np.arange(256, dtype=np.int32))
        kernel = ctx.create_program(DIVIDES).build().create_kernel("divides")
        with pytest.raises(KernelFault) as raised:
            queue.enqueue_nd_range_kernel(kernel.set_args(a, out, 256), (256,), (64,))
        return str(raised.value), queue.kernel_events()

    def test_a_lone_launch_that_faults_raises_as_the_oracle_and_records_nothing(
            self, ctx, monkeypatch):
        """A user's launch is a run of one: its fault is raised as the
        oracle's, no event is recorded, and no sibling run is counted."""
        message, events = self._lone_fault(ctx)
        with monkeypatch.context() as patch:
            patch.setattr(ocl_queue, "execute_ndrange", peritem.execute_ndrange)
            oracle = ocl.Context.create(ocl.TEST_DEVICE, 2)
            oracle_message, _ = self._lone_fault(oracle)
            oracle.release()
        assert "division by zero" in message and message == oracle_message
        assert events == []
        assert "skelcl_sibling_runs_total" not in ctx.metrics.snapshot()["counters"]


class TestTimelines:
    def test_queue_time_advances(self, ctx):
        queue = ctx.queues[0]
        assert queue.time_ns == 0
        buffer = ctx.create_buffer(1024)
        event = queue.enqueue_write_buffer(buffer, np.zeros(256, np.float32))
        assert queue.time_ns == event.end_ns > 0

    def test_events_are_ordered_in_order(self, ctx):
        queue = ctx.queues[0]
        buffer = ctx.create_buffer(1024)
        e1 = queue.enqueue_write_buffer(buffer, np.zeros(256, np.float32))
        e2 = queue.enqueue_write_buffer(buffer, np.zeros(256, np.float32))
        assert e2.start_ns == e1.end_ns

    def test_devices_advance_independently(self, ctx):
        b0 = ctx.create_buffer(1024, ctx.devices[0])
        ctx.queues[0].enqueue_write_buffer(b0, np.zeros(256, np.float32))
        assert ctx.queues[1].time_ns == 0
        assert ctx.elapsed_ns() == ctx.queues[0].time_ns

    def test_reset_timelines(self, ctx):
        buffer = ctx.create_buffer(64)
        ctx.queues[0].enqueue_write_buffer(buffer, np.zeros(16, np.float32))
        ctx.reset_timelines()
        assert ctx.elapsed_ns() == 0
        assert ctx.queues[0].events == []


class TestSampledExecution:
    def test_sampled_counters_match_full(self, ctx):
        queue = ctx.queues[0]
        n = 1024
        buf = ctx.create_buffer(n * 4)
        kernel = ctx.create_program(VEC_ADD).build().create_kernel("vec_add")
        kernel.set_args(buf, buf, buf, n)
        full = queue.enqueue_nd_range_kernel(kernel, (n,), (64,))
        sampled = queue.enqueue_nd_range_kernel(kernel, (n,), (64,), sample_fraction=0.25)
        assert sampled.info["groups_executed"] == 4
        assert sampled.info["ops"] == full.info["ops"]
        assert sampled.info["global_bytes"] == full.info["global_bytes"]
        assert sampled.duration_ns == full.duration_ns
        # Lone launches, sampled or not, are runs of one: no sibling run counts.
        assert "skelcl_sibling_runs_total" not in ctx.metrics.snapshot()["counters"]

    def test_sample_fraction_one_runs_everything(self, ctx):
        queue = ctx.queues[0]
        n = 128
        buf = ctx.create_buffer(n * 4)
        kernel = ctx.create_program(VEC_ADD).build().create_kernel("vec_add")
        kernel.set_args(buf, buf, buf, n)
        event = queue.enqueue_nd_range_kernel(kernel, (n,), (32,), sample_fraction=1.0)
        assert event.info["groups_executed"] == event.info["groups_total"]
