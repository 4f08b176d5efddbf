"""Sibling runs: a skeleton call's launches of one kernel on different
devices share one lockstep run when their scalar arguments, buffer sizes
and NDRange are equal (``ocl.SiblingPlan``).

The differential family holds merged runs against the per-item oracle,
whose sibling form runs the devices one after another: output bytes,
every event's counters, the modeled finish time and the race detector's
access sets must be equal, over 1–4 devices, all six skeletons plus a
Map over an ``IndexVector``, and even, uneven and zero-weight
partitions.  The parity tests hold a run that faults or a recording
that raises a strict ``RaceError`` against launches made one at a time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.skelcl as skelcl
from repro import ocl
from repro.kernelc.memory import KernelFault
from repro.ocl import queue as ocl_queue

from ..kernelc import peritem

_INFO = ("ops", "warp_ops", "global_loads", "global_stores", "global_bytes", "local_loads",
         "local_stores", "barriers", "work_items", "groups_total", "groups_executed", "bytes")


_execute = ocl_queue.execute_ndrange


def _one_at_a_time(kernel, ndrange, args, selected, counters, metrics=None):
    """The lockstep engine, one launch at a time: sequential launches."""
    for one, counter in zip(args, counters):
        yield from _execute(kernel, ndrange, [one], selected, [counter], metrics)


def _calls(kind: str, n: int, rng):
    """``(skeleton call, host reference)`` of one of the patterns."""
    data = rng.randint(-64, 64, n).astype(np.float32)
    other = rng.randint(1, 16, n).astype(np.float32)
    vector = skelcl.Vector
    if kind == "map":
        return (lambda: skelcl.Map("float f(float x) { return x * 2.0f + 1.0f; }")(
            vector(data=data)).to_numpy()), data * 2 + 1
    if kind == "map_scalar":
        return (lambda: skelcl.Map("float f(float x, float s) { return x * s; }")(
            vector(data=data), 3.0).to_numpy()), data * 3
    if kind == "index":
        return (lambda: skelcl.Map("int f(int i) { return i * 3 - 7; }")(
            skelcl.IndexVector(n)).to_numpy()), np.arange(n, dtype=np.int32) * 3 - 7
    if kind == "zip":
        return (lambda: skelcl.Zip("float f(float x, float y) { return x * y + 1.0f; }")(
            vector(data=data), vector(data=other)).to_numpy()), data * other + 1
    if kind == "reduce":
        return (lambda: np.float32(skelcl.Reduce("float f(float x, float y) { return x + y; }")(
            vector(data=data)).get_value())), np.float32(data.sum())
    if kind == "scan":
        return (lambda: skelcl.Scan("float f(float x, float y) { return x + y; }")(
            vector(data=data)).to_numpy()), np.cumsum(data, dtype=np.float32)
    if kind == "mapoverlap":
        padded = np.concatenate([data[:1], data, data[-1:]])
        return (lambda: skelcl.MapOverlap(
            "float f(const float* v) { return get(v, -1) + 2.0f * get(v, 0) + get(v, 1); }",
            1, skelcl.BoundaryMode.NEAREST)(vector(data=data)).to_numpy()), \
            padded[:-2] + 2 * padded[1:-1] + padded[2:]
    rows = max(1, n // 8)
    a = rng.randint(0, 8, (rows, 5)).astype(np.float32)
    b = rng.randint(0, 8, (7, 5)).astype(np.float32)
    pairs = skelcl.AllPairs(skelcl.Reduce("float f(float x, float y) { return x + y; }"),
                            skelcl.Zip("float g(float x, float y) { return x * y; }"))
    return (lambda: pairs(skelcl.Matrix(data=a), skelcl.Matrix(data=b)).to_numpy()), a @ b.T


_KINDS = ("map", "map_scalar", "index", "zip", "reduce", "scan", "mapoverlap", "allpairs")


def _observed(session):
    """Per queue, what each command recorded: kind, name, counters,
    accesses (buffers named by first appearance, not by uid) and
    modeled start and end."""
    session.context.finish_all()
    names = {}
    out = []
    for q in session.queues:
        rows = []
        for event in q.events:
            accesses = sorted((names.setdefault(a.buffer_uid, len(names)), a.start, a.stop,
                               a.mode, a.stride, a.width) for a in event.accesses)
            rows.append((event.command_type, event.name,
                         {key: event.info.get(key) for key in _INFO}, accesses,
                         event.start_ns, event.end_ns))
        out.append(rows)
    return out


def _run(kind, devices, weights, n, seed, execute=None):
    """Output, per-queue commands, finish ns and run ids of one call."""
    with pytest.MonkeyPatch.context() as patch:
        if execute is not None:
            patch.setattr(ocl_queue, "execute_ndrange", execute)
        with skelcl.init(num_devices=devices, spec=ocl.TEST_DEVICE,
                         partition=skelcl.Partition.of(*weights)) as session:
            call, expected = _calls(kind, n, np.random.RandomState(seed))
            result = call()
            np.testing.assert_array_equal(result, expected)
            runs = [[e.info["run"] for e in q.kernel_events()] for q in session.queues]
            return (np.asarray(result).tobytes(), _observed(session),
                    session.context.finish_all(), runs)


@st.composite
def _cases(draw):
    devices = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["even", "uneven", "zero"]))
    if shape == "even":
        weights = [1] * devices
    else:
        low = 0 if shape == "zero" else 1
        weights = draw(st.lists(st.integers(low, 3), min_size=devices, max_size=devices))
        if not any(weights):
            weights[draw(st.integers(0, devices - 1))] = 1
    return (draw(st.sampled_from(_KINDS)), devices, weights, draw(st.integers(1, 700)),
            draw(st.integers(0, 2 ** 16)))


class TestMergedAgainstSequential:
    @given(case=_cases())
    @settings(deadline=None)  # example budget: the hypothesis profile
    def test_merged_runs_equal_the_oracles_sequential_loop(self, case):
        kind, devices, weights, n, seed = case
        merged = _run(kind, devices, weights, n, seed)
        oracle = _run(kind, devices, weights, n, seed, peritem.execute_ndrange)
        assert merged[:3] == oracle[:3]

    @pytest.mark.parametrize("kind", _KINDS)
    def test_even_siblings_share_a_run(self, kind):
        """On an even split a skeleton's first launch on every device
        runs in one run — but MapOverlap's and the IndexVector Map's,
        whose scalar arguments name the chunk's position; the launches of
        one device never share one."""
        *_, runs = _run(kind, 4, [1, 1, 1, 1], 4 * 256, 7)
        first = runs[0]
        for other in runs[1:]:
            assert (first[0] == other[0]) is (kind not in ("mapoverlap", "index"))
        for device in runs:
            assert len(set(device)) == len(device)


# -- failures: a merged run behaves as its launches made one at a time -------

_FAULTS_ON_DEVICE_1 = "float f(float x) { return x / (float)(100 / ((int)x < 512)); }"


def _fault_state(devices, execute=None):
    with pytest.MonkeyPatch.context() as patch:
        if execute is not None:
            patch.setattr(ocl_queue, "execute_ndrange", execute)
        with skelcl.init(num_devices=devices, spec=ocl.TEST_DEVICE) as session:
            source = skelcl.Vector(data=np.arange(1024, dtype=np.float32))
            out = skelcl.Vector(1024)
            with pytest.raises(KernelFault) as raised:
                skelcl.Map(_FAULTS_ON_DEVICE_1)(source, out=out)
            buffers = [buffer.read_to_host(np.uint8).tobytes()
                       for _chunk, buffer in out.chunk_buffers()]
            metrics = session.metrics
            replays = metrics.value("skelcl_sibling_runs_total", result="separate",
                                    reason="fault")
            return str(raised.value), buffers, _observed(session), replays


@pytest.mark.parametrize("devices", [1, 2])
def test_a_fault_on_one_devices_lanes_is_raised_as_by_sequential_launches(devices):
    message, buffers, observed, replays = _fault_state(devices)
    seq_message, seq_buffers, seq_observed, _ = _fault_state(devices, _one_at_a_time)
    assert "division by zero" in message and message == seq_message
    assert buffers == seq_buffers
    assert observed == seq_observed
    # On two devices the merged run raised and both launches were
    # replayed alone; on one, the run of one raised and nothing replays.
    assert replays == (2 if devices == 2 else 0)
    assert [len(q) for q in observed] == [len(q) for q in seq_observed]


def test_every_run_is_one_execute_call(monkeypatch):
    """One launch path: a wrapper over the queue's ``execute_ndrange``
    sees each run once, with one argument list per member — a user's
    launch, a one-device call, a merged run, and each member of the
    replay of a run that raised."""
    members = []

    def counting(kernel, ndrange, args, *rest, **options):
        members.append(len(args))
        return _execute(kernel, ndrange, args, *rest, **options)

    monkeypatch.setattr(ocl_queue, "execute_ndrange", counting)
    double = skelcl.Map("float f(float x) { return x * 2.0f; }")
    data = np.arange(1024, dtype=np.float32)
    with skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE) as session:
        np.testing.assert_array_equal(double(skelcl.Vector(data=data)).to_numpy(), data * 2)
        queue = session.queues[0]
        a, out = session.context.create_buffer(4 * 64), session.context.create_buffer(4 * 64)
        queue.enqueue_write_buffer(a, np.arange(64, dtype=np.float32))
        kernel = session.context.create_program(
            "__kernel void twice(__global const float* a, __global float* out) {"
            " size_t i = get_global_id(0); out[i] = 2.0f * a[i]; }").build()
        queue.enqueue_nd_range_kernel(kernel.create_kernel("twice").set_args(a, out), (64,))
        assert [len(q.kernel_events()) for q in session.queues] == [2]
    assert members == [1, 1]
    members.clear()
    with skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE) as session:
        np.testing.assert_array_equal(double(skelcl.Vector(data=data)).to_numpy(), data * 2)
        assert members == [2]
        with pytest.raises(KernelFault):
            skelcl.Map(_FAULTS_ON_DEVICE_1)(skelcl.Vector(data=data)).to_numpy()
        assert [len(q.kernel_events()) for q in session.queues] == [2, 1]
    assert members == [2, 2, 1, 1]


def test_a_strict_race_at_device_0s_submit_leaves_device_1s_output_untouched():
    """Device 0's launch races an unordered write; its recording raises
    before device 1's results leave the run's arena."""
    ctx = ocl.Context.create(ocl.TEST_DEVICE, num_devices=2, detect_races="strict")
    program = ctx.create_program(
        "__kernel void twice(__global const float* a, __global float* out) {"
        " size_t i = get_global_id(0); out[i] = 2.0f * a[i]; }").build()
    launches, buffers = [], []
    for q in ctx.queues:
        a = ctx.create_buffer(4 * 64, q.device)
        out = ctx.create_buffer(4 * 64, q.device)
        q.enqueue_write_buffer(a, np.arange(64, dtype=np.float32))
        q.enqueue_write_buffer(out, np.full(64, 5.0, np.float32))
        kernel = program.create_kernel("twice").set_args(a, out)
        launches.append((q.device.index, kernel, (64,), (64,)))
        buffers.append((a, out))
    outs = [out for _, out in buffers]
    events = ocl.SiblingPlan(ctx.devices, launches).enqueue(ctx.queues, buffers, [[], []])
    with pytest.raises(ocl.RaceError):
        next(events)
    np.testing.assert_array_equal(outs[1].read_to_host(np.float32), np.full(64, 5.0))
    assert [len(q.kernel_events()) for q in ctx.queues] == [1, 0]


def test_sibling_launches_that_share_a_buffer_run_alone():
    ctx = ocl.Context.create(ocl.TEST_DEVICE, num_devices=2)
    program = ctx.create_program(
        "__kernel void inc(__global float* a, __global float* b) {"
        " size_t i = get_global_id(0); a[i] = b[i] + 1.0f; }").build()
    launches, buffers = [], []
    for q in ctx.queues:
        a = ctx.create_buffer(4 * 32, q.device)
        q.enqueue_write_buffer(a, np.arange(32, dtype=np.float32))
        launches.append((q.device.index, program.create_kernel("inc").set_args(a, a), (32,),
                         (32,)))
        buffers.append(a)
    events = list(ocl.SiblingPlan(ctx.devices, launches).enqueue(
        ctx.queues, [(a, a) for a in buffers], [None, None]))
    assert events[0].info["run"] != events[1].info["run"]
    for a in buffers:
        np.testing.assert_array_equal(a.read_to_host(np.float32), np.arange(32) + 1)
