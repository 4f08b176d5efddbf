"""Executor tests: sampling, warp-divergence accounting, group phasing."""

import numpy as np
import pytest

from repro import ocl
from repro.kernelc.execmodel import WARP_SIZE
from repro.ocl.executor import select_sample_groups

from tests.kernelc.helpers import run_kernel


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


class TestLocalScalar:
    """A ``__local`` scalar is shared by its work-group: what lane 0
    writes before a barrier every lane reads after it — on the lockstep
    engine, the per-item oracle and the interpreter alike, one store per
    group and one load per item."""

    SOURCE = """__kernel void k(__global int* o) {
        __local int z;
        __local float4 v;
        int lid = get_local_id(0);
        if (lid == 0) {
            z = 40;
            z += get_group_id(0);
            z++;
            v = (float4)(0.5f);
            v.y = 2.0f;
        }
        barrier(CLK_LOCAL_MEM_FENCE);
        o[get_global_id(0)] = z * 10 + (int)(v.x + v.y) + lid;
    }"""

    @pytest.mark.parametrize("engine", ["vector", "compiler", "interp"])
    def test_every_lane_reads_what_lane_0_wrote(self, engine):
        out, counters = run_kernel(self.SOURCE, "k", {"o": np.zeros(64, np.int32)}, ["o"],
                                   64, 32, backend=engine)
        lids = np.arange(32)
        assert out["o"].tolist() == (410 + 2 + lids).tolist() + (420 + 2 + lids).tolist()
        # Per group, lane 0: z = (1 store), z += (1 load, 1 store), z++ (1
        # load, 1 store), v = (1 store), v.y = (1 load, 1 store of v);
        # then every item loads z, v and v.
        memory = counters.memory
        assert (memory.local_stores, memory.local_loads) == (2 * 5, 2 * 3 + 64 * 3)
        assert memory.local_bytes == 2 * (5 * 4 + 3 * 16) + 64 * (4 + 2 * 16)

    def test_a_launch_reports_no_engine(self, ctx):
        buf = ctx.create_buffer(64 * 4)
        event = launch(ctx, self.SOURCE, "k", [buf], (64,), (32,))
        assert (event.info["local_stores"], event.info["local_loads"]) == (10, 198)
        assert not {"backend", "fallback_reason"} & set(event.info)
        codegen = ctx.metrics_snapshot()["counters"]["skelcl_program_codegen_total"]
        assert codegen and all("engine=lockstep" in series for series in codegen)
