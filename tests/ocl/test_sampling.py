"""Sampled launches: which work-groups run is decided once, by the launch
plan (``NDRange.sample_groups``, kept as ``LaunchPlan.selected``), and the
queue scales the counters of the groups that ran to the whole NDRange.

The oracle parity tests hold the per-item oracle, handed the plan's
selection, to the lockstep engine on sampled lone launches: equal event
counters, modeled duration, raw buffer storage and read-back quarantine.
"""

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import ocl
from repro.ocl import queue as ocl_queue
from repro.ocl.ndrange import NDRange

from ..kernelc import peritem

_INFO = ("ops", "warp_ops", "global_loads", "global_stores", "global_bytes", "local_loads",
         "local_stores", "barriers", "work_items", "groups_total", "groups_executed")

#: A barrier-free kernel whose lanes diverge (warp accounting) and one that
#: stages through ``__local`` memory behind a barrier (a counted run).
DIVERGENT = """__kernel void k(__global const float* in, __global float* out, int w) {
    int x = get_global_id(0), y = get_global_id(1);
    float acc = in[y * w + x];
    for (int i = 0; i < x % 5; ++i) acc = acc * 0.5f + 1.0f;
    out[y * w + x] = acc;
}"""
STAGED = """__kernel void k(__global const float* in, __global float* out, int w) {
    __local float tile[64];
    int x = get_global_id(0), y = get_global_id(1);
    int lid = get_local_id(1) * get_local_size(0) + get_local_id(0);
    tile[lid] = in[y * w + x];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[y * w + x] = tile[lid] + tile[(lid + 1) % (get_local_size(0) * get_local_size(1))];
}"""


@pytest.fixture
def ctx():
    context = ocl.Context.create(ocl.TEST_DEVICE)
    yield context
    context.release()


@pytest.fixture
def selections(monkeypatch):
    """Every call of the selection rule, as ``(ndrange, fraction)``."""
    calls = []
    rule = NDRange.sample_groups

    def counting(ndrange, fraction):
        calls.append((ndrange, fraction))
        return rule(ndrange, fraction)

    monkeypatch.setattr(NDRange, "sample_groups", counting)
    return calls


def _kernel(ctx, source, args):
    return ctx.create_program(source).build().create_kernel("k").set_args(*args)


class TestSelectionRule:
    def test_deterministic_and_spread(self):
        ndrange = NDRange.create((100 * 8,), (8,))
        first = ndrange.sample_groups(0.1)
        assert first == ndrange.sample_groups(0.1)
        assert isinstance(first, tuple) and len(first) == 10
        # Spread over the whole range, not clustered at the front.
        assert first[0][0] < 10 and first[-1][0] >= 90

    def test_fraction_one_selects_every_group(self):
        ndrange = NDRange.create((64,), (8,))
        assert ndrange.sample_groups(1.0) is None

    def test_tiny_fraction_selects_one_group(self):
        ndrange = NDRange.create((1000 * 4,), (4,))
        assert len(ndrange.sample_groups(1e-9)) == 1

    def test_two_dimensional_groups_in_row_major_order(self):
        ndrange = NDRange.create((64, 32), (8, 8))
        selected = ndrange.sample_groups(0.25)
        assert len(selected) == ndrange.total_groups // 4
        assert set(selected) <= set(ndrange.group_ids())
        assert list(selected) == sorted(selected, key=lambda group: (group[1], group[0]))


class TestDecidedOnce:
    def test_a_repeated_sampled_map_selects_once_per_plan(self, selections):
        """Two devices make two plans at the first call; the repeat reuses
        the call's launch recipe, plans and selections included."""
        double = skelcl.Map("float f(float x) { return x * 2.0f; }")
        data = np.arange(4096, dtype=np.float32)
        with skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE) as session:
            source = skelcl.Vector(data=data)
            for _ in range(2):
                double(source, sample_fraction=0.25)
            events = [event for queue in session.queues for event in queue.kernel_events()]
        assert len(events) == 4
        assert all(e.info["groups_executed"] * 4 == e.info["groups_total"] for e in events)
        assert [fraction for _, fraction in selections] == [0.25, 0.25]

    def test_a_sampled_user_launch_selects_once(self, ctx, selections):
        buf = ctx.create_buffer(4 * 256)
        kernel = _kernel(ctx, DIVERGENT, [buf, buf, 256])
        for launch in range(1, 4):
            ctx.queues[0].enqueue_nd_range_kernel(kernel, (256,), (32,), sample_fraction=0.25)
            assert len(selections) == launch

    def test_an_unsampled_call_never_selects(self, ctx, selections):
        double = skelcl.Map("float f(float x) { return x * 2.0f; }")
        with skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE):
            double(skelcl.Vector(data=np.ones(1024, np.float32))).to_numpy()
        buf = ctx.create_buffer(4 * 256)
        ctx.queues[0].enqueue_nd_range_kernel(_kernel(ctx, DIVERGENT, [buf, buf, 256]),
                                              (256,), (32,))
        assert selections == []


class TestQuarantine:
    def test_sampled_output_partially_written_and_quarantined(self, ctx):
        source = """__kernel void k(__global int* o, int n) {
            int gid = get_global_id(0);
            if (gid < n) o[gid] = 1;
        }"""
        buf = ctx.create_buffer(256 * 4)
        event = ctx.queues[0].enqueue_nd_range_kernel(_kernel(ctx, source, [buf, 256]),
                                                      (256,), (32,), sample_fraction=0.25)
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


def _sampled_launch(source, global_size, local_size, fraction):
    """One sampled lone launch on a fresh context: the event's counters and
    duration, the output's raw storage, and whether reading it back is
    refused."""
    context = ocl.Context.create(ocl.TEST_DEVICE)
    try:
        queue, width = context.queues[0], global_size[0]
        items = int(np.prod(global_size))
        data = (np.arange(items, dtype=np.float32) % 13) - 6
        source_buffer, out = context.create_buffer(4 * items), context.create_buffer(4 * items)
        queue.enqueue_write_buffer(source_buffer, data)
        queue.enqueue_write_buffer(out, np.full(items, 1000, np.float32))
        kernel = _kernel(context, source, [source_buffer, out, width])
        event = queue.enqueue_nd_range_kernel(kernel, global_size, local_size, fraction)
        try:
            queue.enqueue_read_buffer(out, np.float32, items)
            refused = False
        except ocl.SampledBufferRead:
            refused = True
        return ({key: event.info[key] for key in _INFO}, event.duration_ns,
                out._storage.tobytes(), refused)
    finally:
        context.release()


@pytest.mark.parametrize("fraction", [1e-9, 0.25, 1.0])
@pytest.mark.parametrize("global_size,local_size", [((512,), (64,)), ((32, 16), (8, 8))])
@pytest.mark.parametrize("source", [DIVERGENT, STAGED], ids=["divergent", "staged"])
def test_the_oracle_runs_the_plans_groups(monkeypatch, source, global_size, local_size,
                                          fraction):
    """The per-item oracle, handed the plan's selection, leaves what the
    lockstep engine leaves: event counters, modeled duration, the raw
    storage of the groups that ran (and the untouched rest), taint."""
    lockstep = _sampled_launch(source, global_size, local_size, fraction)
    monkeypatch.setattr(ocl_queue, "execute_ndrange", peritem.execute_ndrange)
    oracle = _sampled_launch(source, global_size, local_size, fraction)
    assert oracle == lockstep
    info, _, storage, refused = lockstep
    total = info["groups_total"]
    assert info["groups_executed"] == (1 if fraction < 0.01 else total // 4 if fraction < 1
                                       else total)
    assert refused == (fraction < 1)
    unwritten = np.frombuffer(storage, np.float32) == 1000
    group_items = int(np.prod(local_size))
    assert int(np.count_nonzero(~unwritten)) == info["groups_executed"] * group_items
