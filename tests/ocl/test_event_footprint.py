"""The host memory a retained command costs.

A queue keeps every event it ran, so what one event keeps is what a
long run grows by.  Over a stretch of warm Map / Zip / Reduce calls
(their results dropped) nearly all that stays allocated is the new
events; the bytes ``tracemalloc`` sees retained, and the objects the
cyclic collector tracks, are bounded per event.  The bounds sit above
the compact record's measurement — 651 B and 2.9 tracked objects per
event on CPython 3.11, where the eagerly built ``info`` dict and
``accesses`` list took 1,147 B and 4.6 — so they hold the record
without timing anything."""

import gc
import tracemalloc

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import ocl

#: Retained bytes per event: the compact record measured 651.
MAX_BYTES_PER_EVENT = 760
#: Objects the cyclic collector tracks, per event: the record measured 2.9.
MAX_TRACKED_PER_EVENT = 3.5


@pytest.fixture
def session():
    session = skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE, detect_races="off", lazy=False)
    yield session
    skelcl.terminate()


def test_a_retained_event_stays_small(session):
    square = skelcl.Map("float func(float x) { return x * 2.0f + 1.0f; }")
    add = skelcl.Zip("float func(float x, float y) { return x + y; }")
    total = skelcl.Reduce("float func(float x, float y) { return x + y; }")
    a = skelcl.Vector(data=np.arange(1024, dtype=np.float32))
    b = skelcl.Vector(data=np.ones(1024, dtype=np.float32))

    def calls(count):
        for _ in range(count):
            square(a).to_numpy()
            add(a, b).to_numpy()
            total(a).to_numpy()

    def retained():
        return sum(len(queue.events) for queue in session.queues)

    calls(20)  # programs, plans and the memo warm
    gc.collect()
    tracemalloc.start()
    try:
        events, tracked = retained(), len(gc.get_objects())
        held = tracemalloc.get_traced_memory()[0]
        calls(60)
        gc.collect()
        events = retained() - events
        held = tracemalloc.get_traced_memory()[0] - held
        tracked = len(gc.get_objects()) - tracked
    finally:
        tracemalloc.stop()
    assert events >= 600
    assert held / events < MAX_BYTES_PER_EVENT, (held / events, events)
    assert tracked / events < MAX_TRACKED_PER_EVENT, (tracked / events, events)
