"""Executor tests: sampling, warp-divergence accounting, group phasing."""

import numpy as np
import pytest

from repro import ocl
from repro.ocl.executor import WARP_SIZE, select_sample_groups


@pytest.fixture
def ctx():
    context = ocl.Context.create(ocl.TEST_DEVICE)
    yield context
    context.release()


def launch(ctx, source, kernel_name, args, global_size, local_size, sample=None):
    kernel = ocl.Program(source).build().create_kernel(kernel_name)
    kernel.set_args(*args)
    return ctx.queues[0].enqueue_nd_range_kernel(kernel, global_size, local_size, sample)


class TestSampling:
    def test_selection_deterministic_and_spread(self):
        groups = [(i,) for i in range(100)]
        first = select_sample_groups(groups, 0.1)
        second = select_sample_groups(groups, 0.1)
        assert first == second
        assert len(first) == 10
        # Spread over the whole range, not clustered at the front.
        assert first[0][0] < 10 and first[-1][0] >= 90

    def test_fraction_one_selects_all(self):
        groups = [(i,) for i in range(8)]
        assert select_sample_groups(groups, 1.0) == groups

    def test_tiny_fraction_selects_at_least_one(self):
        groups = [(i,) for i in range(1000)]
        assert len(select_sample_groups(groups, 1e-9)) == 1

    def test_sampled_output_partially_written_and_quarantined(self, ctx):
        source = """__kernel void k(__global int* o, int n) {
            int gid = get_global_id(0);
            if (gid < n) o[gid] = 1;
        }"""
        buf = ctx.create_buffer(256 * 4)
        event = launch(ctx, source, "k", [buf, 256], (256,), (32,), sample=0.25)
        assert event.info["groups_executed"] == 2
        # Only the sampled groups wrote (white-box: host reads of sampled
        # buffers are forbidden, so inspect the raw storage directly).
        written = int(buf._storage.view(np.int32).sum())
        assert written == 2 * 32
        # The partial contents are quarantined from every correctness path.
        with pytest.raises(ocl.SampledBufferRead):
            ctx.queues[0].enqueue_read_buffer(buf, np.int32, 256)
        # A full host rewrite replaces the partial contents entirely and
        # lifts the quarantine.
        ctx.queues[0].enqueue_write_buffer(buf, np.ones(256, dtype=np.int32))
        data, _ = ctx.queues[0].enqueue_read_buffer(buf, np.int32, 256)
        assert int(data.sum()) == 256


class TestWarpAccounting:
    def test_uniform_kernel_warp_ops_close_to_raw(self, ctx):
        source = """__kernel void k(__global int* o, int n) {
            int gid = get_global_id(0);
            if (gid < n) o[gid] = gid * 2;
        }"""
        buf = ctx.create_buffer(64 * 4)
        event = launch(ctx, source, "k", [buf, 64], (64,), (32,))
        # Uniform work: warp-adjusted == raw (each warp's max == each lane).
        assert event.info["warp_ops"] == event.info["ops"]

    def test_divergent_kernel_charged_at_warp_max(self, ctx):
        # One lane per warp loops 100x; the whole warp pays for it.
        source = """__kernel void k(__global int* o) {
            int gid = get_global_id(0);
            int s = 0;
            if (gid % 32 == 0) {
                for (int i = 0; i < 100; ++i) s += i;
            }
            o[gid] = s;
        }"""
        buf = ctx.create_buffer(64 * 4)
        event = launch(ctx, source, "k", [buf], (64,), (32,))
        assert event.info["warp_ops"] > 3 * event.info["ops"]

    def test_partial_warp_padded_to_full(self, ctx):
        source = """__kernel void k(__global int* o) {
            o[get_global_id(0)] = 1;
        }"""
        buf = ctx.create_buffer(8 * 4)
        event = launch(ctx, source, "k", [buf], (8,), (8,))
        # 8 lanes in a 32-wide warp: charged for 32 lanes of the max.
        per_item = event.info["ops"] / 8
        assert event.info["warp_ops"] == pytest.approx(per_item * WARP_SIZE, rel=0.01)

    def test_barrier_kernels_skip_warp_accounting(self, ctx):
        source = """__kernel void k(__global int* o) {
            __local int t[8];
            t[get_local_id(0)] = 1;
            barrier(CLK_LOCAL_MEM_FENCE);
            o[get_global_id(0)] = t[7 - get_local_id(0)];
        }"""
        buf = ctx.create_buffer(8 * 4)
        event = launch(ctx, source, "k", [buf], (8,), (8,))
        assert event.info["warp_ops"] == 0  # falls back to raw ops

    def test_divergence_affects_simulated_time(self, ctx):
        uniform = """__kernel void k(__global int* o) {
            int s = 0;
            for (int i = 0; i < 50; ++i) s += i;
            o[get_global_id(0)] = s;
        }"""
        divergent = """__kernel void k(__global int* o) {
            int s = 0;
            int n = (get_global_id(0) % 32 == 0) ? 1600 : 0;
            for (int i = 0; i < n; ++i) s += i;
            o[get_global_id(0)] = s;
        }"""
        buf = ctx.create_buffer(256 * 4)
        uniform_event = launch(ctx, uniform, "k", [buf], (256,), (32,))
        divergent_event = launch(ctx, divergent, "k", [buf], (256,), (32,))
        # Both kernels perform the same useful lane-iterations per warp
        # (32 lanes x 50 vs 1 lane x 1600), but the divergent warp stalls
        # 31 idle lanes for 1600 iterations — the warp-divergence model
        # must price it several times slower, while a naive per-item op
        # count would call them equal.
        assert divergent_event.info["ops"] == pytest.approx(uniform_event.info["ops"], rel=0.25)
        ratio = divergent_event.duration_ns / uniform_event.duration_ns
        assert ratio > 4.0


class TestBackendReporting:
    """Which engine ran a launch — and why the vector engine declined it —
    is counted and shows on the kernel's trace slice."""

    FALLBACK = """__kernel void k(__global float* o) {
        __local float z;
        z = 3.0f;
        barrier(CLK_LOCAL_MEM_FENCE);
        o[get_global_id(0)] = z;
    }"""
    LOCKSTEP = """__kernel void k(__global float* o) {
        o[get_global_id(0)] = 3.0f;
    }"""

    @pytest.fixture
    def vector_ctx(self):
        context = ocl.Context.create(ocl.TEST_DEVICE, backend="vector")
        yield context
        context.release()

    def test_fallback_launch_is_counted_with_its_reason(self, vector_ctx):
        buf = vector_ctx.create_buffer(64 * 4)
        for _ in range(3):
            event = launch(vector_ctx, self.FALLBACK, "k", [buf], (64,), (32,))
        assert event.info["backend"] == "interp"
        assert event.info["fallback_reason"] == "__local scalar variable"
        assert vector_ctx.metrics.value("skelcl_vector_fallback_total",
                                        reason="__local scalar variable") == 3
        slices = [e for e in vector_ctx.trace_events() if e.get("name") == "k"]
        assert slices and all(s["args"]["fallback_reason"] == "__local scalar variable"
                              for s in slices)

    def test_lockstep_launch_adds_no_series(self, vector_ctx):
        buf = vector_ctx.create_buffer(64 * 4)
        event = launch(vector_ctx, self.LOCKSTEP, "k", [buf], (64,), (32,))
        assert event.info["backend"] == "vector"
        assert "fallback_reason" not in event.info
        assert "skelcl_vector_fallback_total" not in vector_ctx.metrics_snapshot()["counters"]

    def test_requested_per_item_backend_is_not_a_fallback(self):
        context = ocl.Context.create(ocl.TEST_DEVICE, backend="interp")
        event = launch(context, self.LOCKSTEP, "k", [context.create_buffer(256)], (64,), (32,))
        assert event.info["backend"] == "interp" and "fallback_reason" not in event.info
        assert "skelcl_vector_fallback_total" not in context.metrics_snapshot()["counters"]
        context.release()
