"""Lazy-mode force points that describe an *executed* call: asking for
a skeleton's events or kernel time, a result's placement, a Scalar's
repr, or leaving a profiled region must run the deferred call first —
and a session whose closing flush faults must still tear down."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import ocl
from repro.jit import JitFunction
from repro.kernelc.memory import KernelFault

DOUBLE = "float f(float x) { return 2.0f * x; }"
SQUARE = "float g(float x) { return x * x; }"
ADD = "float s(float x, float y) { return x + y; }"

_DATA = np.arange(64, dtype=np.float32)


@skelcl.jit
def j_double(x):  # types come from each call's container
    return x + x


@pytest.fixture
def lazy():
    session = skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE, lazy=True)
    yield session
    skelcl.terminate()


def _launches(session):
    return session.metrics.value("skelcl_commands_total", kind="ndrange_kernel")


def test_last_events_forces_the_call_it_describes(lazy):
    double = skelcl.Map(DOUBLE)
    out = double(skelcl.Vector(data=_DATA))
    assert _launches(lazy) == 0
    events = double.last_events
    assert [e.command_type for e in events] == ["ndrange_kernel"] * 2
    assert double.last_kernel_time_ns > 0
    assert _launches(lazy) == 2  # forced once, not per accessor
    np.testing.assert_array_equal(out.to_numpy(), 2 * _DATA)


def test_last_events_describes_the_latest_call_not_the_latest_to_run(lazy):
    double = skelcl.Map(DOUBLE)
    first = double(skelcl.Vector(data=_DATA))
    second = double(skelcl.Vector(data=_DATA + 1))
    latest = double.last_events  # forces the second call only
    assert _launches(lazy) == 2
    first.to_numpy()  # now the *older* call runs
    assert double.last_events is latest
    # An eager-branch call (out= is a force point) supersedes the deferred one.
    double(skelcl.Vector(data=_DATA), out=second)
    assert double.last_events is not latest
    assert len(double.last_events) == 2


def test_fused_away_call_reports_the_fused_launch(lazy):
    double, square = skelcl.Map(DOUBLE), skelcl.Map(SQUARE)
    out = square(double(skelcl.Vector(data=_DATA)))
    events = square.last_events  # forces the chain: one fused launch per device
    assert lazy.metrics.value("skelcl_fusion_total", rule="map_map") == 1
    assert double.last_events is events
    assert all(e.label.startswith("Fused[Map g∘f]") for e in events)
    assert lazy.metrics.value("skelcl_plan_recompute_total", op="map") == 0
    np.testing.assert_array_equal(out.to_numpy(), (2 * _DATA) ** 2)


def test_a_jit_call_at_a_new_dtype_is_not_a_force_point(lazy, monkeypatch):
    lowered = []
    lower_source = JitFunction.lower_source
    monkeypatch.setattr(JitFunction, "lower_source",
                        lambda self, hints=None: lowered.append(hints) or lower_source(self, hints))
    double = skelcl.Map(j_double)
    inputs = [_DATA, _DATA.astype(np.int32), _DATA + 1]
    outs = [double(skelcl.Vector(data=data)) for data in inputs]
    assert _launches(lazy) == 0  # each deferred call keeps its own specialization
    assert len(lowered) == 2
    for out, data in zip(outs, inputs):
        result = out.to_numpy()
        assert result.dtype == data.dtype
        np.testing.assert_array_equal(result, 2 * data)
    assert _launches(lazy) == 6 and len(lowered) == 2


@pytest.mark.parametrize("lazy_session", [False, True], ids=["eager", "lazy"])
def test_the_latest_call_of_a_skeleton_pins_events_but_no_containers(lazy_session):
    """A finished node lets go of its containers, a fused-away one when
    the container it could still be asked to fill is gone — by reference
    counting, with the cycle collector off."""
    double, square = skelcl.Map(DOUBLE), skelcl.Map(SQUARE)
    with skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE, lazy=lazy_session):
        gc.collect()
        gc.disable()
        try:
            x = skelcl.Vector(data=_DATA)
            mid = double(x)
            out = square(mid)
            np.testing.assert_array_equal(out.to_numpy(), (2 * _DATA) ** 2)
            containers = [weakref.ref(container) for container in (x, mid, out)]
            del x, mid, out
            assert [container() for container in containers] == [None] * 3
        finally:
            gc.enable()
        for skeleton in (double, square):
            assert [e.command_type for e in skeleton.last_events] == ["ndrange_kernel"] * 2


def test_distribution_of_a_deferred_result_is_a_force_point(lazy):
    vector = skelcl.Vector(data=_DATA)
    vector.set_distribution(skelcl.Single(1))
    out = skelcl.Map(DOUBLE)(vector)
    assert out.distribution == skelcl.Single(1)
    assert _launches(lazy) == 1


def test_pending_scalar_repr_shows_the_value(lazy):
    with lazy.planner.record():
        total = skelcl.Reduce(ADD)(skelcl.Vector(data=_DATA))
    assert total._pending is not None
    assert repr(total) == f"Scalar({np.float32(_DATA.sum())!r})"
    assert total._pending is None


def test_profile_exit_flushes_the_region(lazy):
    with lazy.profile() as prof:
        skelcl.Map(DOUBLE)(skelcl.Vector(data=_DATA), label="in-region")
    assert prof.kernel_ns_by_skeleton()["in-region"] > 0
    assert prof.critical_path().total_ns == lazy.finish_all() > 0


def test_close_tears_down_even_if_the_closing_flush_faults():
    session = skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE, lazy=True)
    violating = skelcl.MapOverlap("float func(float* m){ return get(m, 2, 0); }",
                                  1, skelcl.BoundaryMode.NEUTRAL, 0.0)
    violating(skelcl.Matrix(data=np.zeros((8, 8), np.float32)))
    with pytest.raises(KernelFault):
        skelcl.terminate()
    assert session.closed
    assert not skelcl.is_initialized()
    with pytest.raises(skelcl.SkelCLError):
        skelcl.Map(DOUBLE)(skelcl.Vector(data=_DATA))
    with skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE) as fresh:
        out = skelcl.Map(DOUBLE)(skelcl.Vector(data=_DATA))
        np.testing.assert_array_equal(out.to_numpy(), 2 * _DATA)
        assert fresh.finish_all() > 0


TRAP = "float bad(float x) { int z = (int)x - (int)x; return (float)(1 / z); }"
TRAP_ADD = "float bad(float x, float y) { int z = (int)x - (int)x; return y + (float)(1 / z); }"

_FORCE_POINTS_OF_A_CONTAINER = {
    "ensure_host": lambda r: r.to_numpy(),
    "ensure_on_devices": lambda r: r.ensure_on_devices(),
    "distribution": lambda r: r.distribution,
    "_before_write": lambda r: r.__setitem__(0, 1.0),
    "_record": lambda r: skelcl.Map(DOUBLE)(r),
    "reduce_now": lambda r: skelcl.Reduce(ADD)(r),
}


@pytest.mark.parametrize("hook", sorted(_FORCE_POINTS_OF_A_CONTAINER))
def test_every_force_point_of_a_failed_producer_raises_its_error_and_launches_nothing(lazy, hook):
    """The first force runs the call and it faults; from then on the
    result is poisoned and each force point raises that error again —
    naming the failed call — without running anything."""
    force = _FORCE_POINTS_OF_A_CONTAINER[hook]
    r = skelcl.Map(TRAP)(skelcl.Vector(data=_DATA), label="the-failed-call")
    with pytest.raises(KernelFault, match=r"\[in the-failed-call\]"):
        r.to_numpy()
    for _ in range(2):
        with pytest.raises(KernelFault, match=r"integer division by zero \[in the-failed-call\]$"):
            force(r)
    assert _launches(lazy) == 0 and lazy.planner.pending == []
    lazy.finish_all()  # _flush_plan: nothing is left to run, or to report


def test_a_failed_reduce_poisons_its_scalar_and_last_events(lazy):
    trapping = skelcl.Reduce(TRAP_ADD)
    with lazy.planner.record() as nodes:
        total = trapping(skelcl.Vector(data=_DATA), label="the-failed-reduce")
    for read in (total.to_numpy, total.get_value, lambda: float(total), lambda: repr(total),
                 lambda: trapping.last_events, lambda: lazy.planner.flush_subset(nodes) or total.value):
        with pytest.raises(KernelFault, match=r"\[in the-failed-reduce\]$"):
            read()
    assert _launches(lazy) == 0 and nodes[0].state == "failed"
