"""How a call ends when it raises: the node ends ``failed`` with the
error, stays the producer of its output — which is thereby *poisoned*:
every later read, use as an input or force of a dependent raises that
error again, carrying the failing call's label, and launches nothing —
and the session goes on.  One completion point (``PlanNode.finish``),
eager and lazy, kernel faults, strict-SkelSan races and build errors
alike."""

from __future__ import annotations

import gc
import glob
import os
import sys
import weakref
from contextlib import contextmanager

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import ocl
from repro.analysis import RaceError
from repro.kernelc.memory import KernelFault
from repro.plan.ir import PlanNode
from repro.skelcl.container import Container

# Traps on every element / on the element 5 only (device 1 of 2 below).
BAD = "float bad(float x) { int z = (int)x - (int)x; return (float)(1 / z); }"
BAD_AT_5 = "float m(float x) { int z = (int)x - 5; return (float)(10 / z); }"
INC = "float h(float x) { return x + 1.0f; }"
DOUBLE = "float m2(float x) { return 2.0f * x; }"


@skelcl.jit
def j_bad(v: skelcl.READ[np.float32]):  # reads beyond the overlap of 1 it is given below
    return skelcl.get(v, 2)


@skelcl.jit
def j_inc(x):
    return x + 1


_ONE_TO_EIGHT = np.arange(1, 9, dtype=np.float32)


@contextmanager
def _session(**kwargs):
    """A session that must leave a race-free command graph behind —
    also when SkelSan is on (``SKELCL_SANITIZE=strict`` in CI)."""
    kwargs.setdefault("spec", ocl.TEST_DEVICE)
    session = skelcl.init(**kwargs)
    try:
        yield session
        if session.context.race_detector is not None:
            session.context.finish_all()
            assert session.context.check_races() == []
    finally:
        skelcl.terminate()


def _launches(session):
    return session.metrics.value("skelcl_commands_total", kind="ndrange_kernel")


def _raises_again(read, error, times=9):
    """``read()`` raises ``error`` again — type, message (which names the
    failed call) and attributes — every time."""
    for _ in range(times):
        with pytest.raises(type(error)) as again:
            read()
        assert str(again.value) == str(error) and "[in " in str(error)
        assert again.value.call_label == error.call_label


# -- (a) lazy ------------------------------------------------------------------


@pytest.mark.parametrize("make_bad, inc, kind", [
    (lambda: skelcl.Map(BAD), INC, "Map"),
    (lambda: skelcl.MapOverlap(j_bad, 1, skelcl.SCL_NEUTRAL, 0.0), j_inc, "MapOverlap"),
], ids=["string", "jit"])
def test_a_failed_deferred_call_poisons_its_result_and_cancels_its_dependents(
        make_bad, inc, kind):
    data, dtype = np.array([1, 2, 3], np.float32), np.float32
    with _session(num_devices=1, lazy=True) as session:
        bad_map, inc_map = make_bad(), skelcl.Map(inc)
        r = bad_map(skelcl.Vector(data=data)); site = sys._getframe().f_lineno
        d = inc_map(r)
        r_node, d_node = r._pending, d._pending
        with pytest.raises(KernelFault) as first:
            r.to_numpy()
        error = first.value
        assert f"[in {kind}({bad_map.user.name})@test_failure.py:{site}]" in str(error)
        assert (r_node.state, d_node.state) == (PlanNode.FAILED, PlanNode.FAILED)
        assert r_node.error is d_node.error and str(r_node.error) == str(error)
        _raises_again(r.to_numpy, error)
        _raises_again(d.to_numpy, error)
        _raises_again(lambda: inc_map.last_events, error, times=2)
        assert _launches(session) == 0  # bad trapped, h was never launched
        assert session.planner.pending == []
        assert sum(session.metrics.value("skelcl_calls_failed_total", skeleton=name,
                                         error="KernelFault")
                   for name in {kind, "Map"}) == 2
        # Nobody is left half-run: the session runs a fresh pipeline bit-exactly.
        fresh = inc_map(inc_map(skelcl.Vector(data=data)))
        np.testing.assert_array_equal(fresh.to_numpy(), data + dtype(2))
        assert session.finish_all() > 0


def test_a_failed_fused_step_poisons_its_root_and_keeps_the_inlined_call_recomputable():
    with _session(num_devices=1, lazy=True) as session:
        f, g = skelcl.Map(INC), skelcl.Map(BAD)
        mid = f(skelcl.Vector(data=np.array([0, 1, 2], np.float32)))
        r = g(mid)
        with pytest.raises(KernelFault, match=r"\[in Fused\[Map bad∘h\]@test_failure\.py") as first:
            r.to_numpy()
        assert session.metrics.value("skelcl_fusion_total", rule="map_map") == 1
        _raises_again(r.to_numpy, first.value)
        assert session.planner.pending == []
        np.testing.assert_array_equal(mid.to_numpy(), [1.0, 2.0, 3.0])
        assert session.metrics.value("skelcl_plan_recompute_total", op="map") == 1


def test_a_call_on_a_poisoned_input_is_refused_when_it_is_recorded():
    with _session(num_devices=1, lazy=True) as session:
        r = skelcl.Map(BAD)(skelcl.Vector(data=_ONE_TO_EIGHT))
        with pytest.raises(KernelFault) as first:
            r.to_numpy()
        _raises_again(lambda: skelcl.Map(INC)(r), first.value, times=2)
        _raises_again(lambda: skelcl.Reduce("float s(float x, float y) { return x + y; }")(r),
                      first.value, times=2)
        assert session.planner.pending == [] and _launches(session) == 0


def test_flush_reports_a_fault_once_and_runs_the_rest():
    with _session(num_devices=1, lazy=True) as session:
        vector = skelcl.Vector(data=_ONE_TO_EIGHT)
        inc = skelcl.Map(INC)
        before, r, after = inc(vector), skelcl.Map(BAD)(vector), inc(vector)
        doomed = inc(r)
        with pytest.raises(KernelFault) as first:
            session.finish_all()
        assert session.finish_all() > 0  # the rest of the batch, without a second report
        assert session.planner.pending == []
        for result in (before, after):
            np.testing.assert_array_equal(result.to_numpy(), _ONE_TO_EIGHT + 1)
        _raises_again(doomed.to_numpy, first.value, times=2)


# -- (b) eager -----------------------------------------------------------------


def test_a_failed_eager_call_poisons_out_until_it_is_written_whole():
    with _session(num_devices=2, lazy=False) as session:
        vector = skelcl.Vector(data=_ONE_TO_EIGHT)
        double, trapping = skelcl.Map(DOUBLE), skelcl.Map(BAD_AT_5)
        unrelated = double(vector)  # staged before the fault
        out = skelcl.Vector(8)
        with pytest.raises(KernelFault, match=r"\[in Map\(m\)@test_failure\.py") as first:
            trapping(vector, out=out)
        node = trapping._latest
        assert node.state == PlanNode.FAILED and str(node.error) == str(first.value)
        assert [e.device_index for e in node.events] == [0]  # device 1 trapped
        assert not out.is_on_devices
        _raises_again(out.to_numpy, first.value)
        _raises_again(lambda: trapping.last_events, first.value, times=2)
        np.testing.assert_array_equal(unrelated.to_numpy(), 2 * _ONE_TO_EIGHT)
        # A later successful call with out= replaces the failed producer ...
        double(vector, out=out)
        np.testing.assert_array_equal(out.to_numpy(), 2 * _ONE_TO_EIGHT)
        # ... and so does a whole-content host write.
        with pytest.raises(KernelFault):
            trapping(vector, out=out)
        np.testing.assert_array_equal(out.fill(0).to_numpy(), np.zeros(8, np.float32))
        assert session.metrics.value("skelcl_calls_failed_total",
                                     skeleton="Map", error="KernelFault") == 2


def _poisoned(kind):
    data = _ONE_TO_EIGHT.reshape(2, 4) if kind is skelcl.Matrix else _ONE_TO_EIGHT
    container = kind(data=np.zeros_like(data))
    with pytest.raises(KernelFault) as first:
        skelcl.Map(BAD)(kind(data=data), out=container)
    return container, data, first.value


_RAISES = {
    "to_numpy": lambda c: c.to_numpy(),
    "getitem": lambda c: c[0],
    "setitem": lambda c: c.__setitem__(0, 1.0),
    "set_distribution": lambda c: c.set_distribution(skelcl.Copy()),
    "distribution": lambda c: c.distribution,
    "input": lambda c: skelcl.Map(INC)(c),
    "in_place": lambda c: skelcl.Map(INC)(c, out=c),
}
_REPLACES = {
    "fill": lambda c, data: c.fill(3.0) and np.full_like(data, 3.0),
    "assign": lambda c, data: c.assign(data) and data,
    "out": lambda c, data: skelcl.Map(INC)(type(c)(data=data), out=c) and data + 1,
}


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("kind", [skelcl.Vector, skelcl.Matrix], ids=["vector", "matrix"])
@pytest.mark.parametrize("use", sorted(_RAISES) + sorted(_REPLACES))
def test_how_a_poisoned_container_is_reused(use, kind, lazy):
    """Reads, partial writes, redistribution and use as an input raise
    the failed producer's error; ``out=`` and whole-content host writes
    replace it (docs/skelcl_api.md, "When a call fails")."""
    with _session(num_devices=2, lazy=lazy):
        container, data, error = _poisoned(kind)
        _raises_again(lambda: _RAISES.get(use, _RAISES["to_numpy"])(container), error, times=2)
        if use in _RAISES:
            return
        expected = _REPLACES[use](container, data)
        np.testing.assert_array_equal(container.to_numpy(), expected)
        np.testing.assert_array_equal(skelcl.Map(INC)(container).to_numpy(), expected + 1)


def test_a_failed_call_lets_go_of_its_inputs_and_its_error_of_the_frames():
    """What a poisoned container keeps alive is the node and its error —
    not the call's inputs or buffers (reference counting alone)."""
    with _session(num_devices=2, lazy=False) as session:
        gc.collect()
        gc.disable()
        try:
            vector, out = skelcl.Vector(data=_ONE_TO_EIGHT), skelcl.Vector(8)
            with pytest.raises(KernelFault):
                skelcl.Map(BAD_AT_5)(vector, out=out)
            dropped = weakref.ref(vector)
            del vector
            assert dropped() is None
            assert sum(device.allocated_bytes for device in session.devices) == 0
        finally:
            gc.enable()


# -- (e) one completion point -----------------------------------------------------

_ADD = "float s(float x, float y) { return x + y; }"
_TRAP_ADD = "float s(float x, float y) { int z = (int)x - 5; return y + (float)(10 / z); }"


def _six_skeletons(fault):
    """name -> zero-argument call, each of the six patterns; the
    ``fault`` variants trap on device 1 of 2 (the element 5)."""
    unary = BAD_AT_5 if fault else DOUBLE
    binary = _TRAP_ADD if fault else _ADD
    stencil = ("float func(float* v) { int z = (int)get(v, 0) - 5; return (float)(10 / z); }"
               if fault else "float func(float* v) { return get(v, -1) + get(v, 1); }")
    vector = lambda: skelcl.Vector(data=_ONE_TO_EIGHT)  # noqa: E731
    matrix = lambda: skelcl.Matrix(data=_ONE_TO_EIGHT.reshape(4, 2))  # noqa: E731
    return {
        "map": lambda: skelcl.Map(unary)(vector()),
        "zip": lambda: skelcl.Zip(binary)(vector(), vector()),
        "reduce": lambda: skelcl.Reduce(binary)(vector()),
        "scan": lambda: skelcl.Scan(binary)(vector()),
        "mapoverlap": lambda: skelcl.MapOverlap(stencil, 1, skelcl.SCL_NEUTRAL, 0.0)(vector()),
        "allpairs": lambda: skelcl.AllPairs(skelcl.Reduce(_ADD), zip=skelcl.Zip(binary))(
            matrix(), matrix()),
    }


_MAY_FLIP = {"finish", "_upload", "_host_for_write", "_move_to", "__init__"}


@pytest.mark.parametrize("fault", [False, True], ids=["ok", "fault"])
@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("name", ["map", "zip", "reduce", "scan", "mapoverlap", "allpairs"])
def test_device_validity_changes_only_where_a_call_ends_or_the_host_writes(
        name, lazy, fault, monkeypatch):
    flips = []

    def spy(self, attribute, value):
        if attribute == "_device_valid" and getattr(self, attribute, None) != value:
            frame, callers = sys._getframe(1), set()
            while frame is not None:
                callers.add(frame.f_code.co_name)
                frame = frame.f_back
            flips.append(callers)
        object.__setattr__(self, attribute, value)

    monkeypatch.setattr(Container, "__setattr__", spy, raising=False)
    with _session(num_devices=2, lazy=lazy):
        call = _six_skeletons(fault)[name]
        if fault:
            with pytest.raises(KernelFault):
                call().to_numpy()
        else:
            call().to_numpy()
    assert flips and all(callers & _MAY_FLIP for callers in flips)
    assert not any("prepare_as_output" in callers and "finish" not in callers
                   for callers in flips)


def test_nothing_guesses_who_is_writing():
    root = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")
    sources = glob.glob(os.path.join(root, "**", "*.py"), recursive=True)
    assert len(sources) > 50
    for path in sources:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        assert "_executing" not in text and "planner.executing" not in text, path
        if not path.endswith(os.path.join("plan", "ir.py")):
            assert "PlanNode.DONE" not in text and "PlanNode.FAILED =" not in text, path


# -- (f) strict SkelSan -----------------------------------------------------------


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
def test_a_strict_race_fails_the_call_like_any_other_error(lazy):
    session = skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE, lazy=lazy, detect_races="strict")
    try:
        inc = skelcl.Map(INC)
        vector = skelcl.Vector(data=_ONE_TO_EIGHT)
        out = inc(vector)
        out.to_numpy()
        # Sabotage the coherence bookkeeping: the overwrite below no
        # longer waits for the kernel that wrote `out`.
        out._chunk_events, out._chunk_readers = {}, {}
        with pytest.raises(RaceError, match=r"\[in Map\(h\)@test_failure\.py") as first:
            inc(vector, out=out)
        assert inc._latest.state == PlanNode.FAILED
        _raises_again(out.to_numpy, first.value, times=2)
        assert session.finish_all() > 0  # the timeline still resolves
        assert len(session.context.check_races()) == 1
        np.testing.assert_array_equal(inc(out.fill(1)).to_numpy(), np.full(8, 2, np.float32))
    finally:
        skelcl.terminate()
