"""A long-running server's bookkeeping grows with what is live, not with
its history.  Sixty rounds of graph and map jobs under strict SkelSan,
every ``Job`` handle kept (as a load generator's job log keeps them):

* each command's ancestor set spans a bounded range of enqueue indices,
  however many commands came before it;
* the race detector keeps access records only for buffers still alive;
* a finished job holds its outcome, not its graph or its input.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np

import repro.skelcl as skelcl
from repro import serve

ROUNDS = 60
N = 256
#: Widest ancestry a command of this mix may have, in enqueue indices.
MAX_SPAN = 32

GRADIENT = skelcl.MapOverlap(
    "int f(const int* v) { int g = get(v, 1) - get(v, -1);"
    " return g < 0 ? -g : g; }", 1, skelcl.BoundaryMode.NEUTRAL, 0)
EDGES = skelcl.Map("int t(int x) { return x > 16 ? 1 : 0; }")
SQUARE = skelcl.Map("int s(int x) { return x * x; }")
MULTIPLY = skelcl.Zip("float m(float x, float y) { return x * y; }")
TOTAL = skelcl.Reduce("float s(float x, float y) { return x + y; }")


def test_serve_state_is_bounded_by_what_is_live():
    signal = np.arange(N, dtype=np.int32) % 64
    x = np.ones(N, np.float32)
    with serve.Server(["test", "test"], detect_races="strict") as server:
        imaging, linalg, squares = (server.client(name)
                                    for name in ("imaging", "linalg", "squares"))
        detector = server.session.context.race_detector
        jobs, inputs = [], []
        for _ in range(ROUNDS):
            image = skelcl.Vector(data=signal)
            a, b = skelcl.Vector(data=x), skelcl.Vector(data=2 * x)
            points = signal.copy()
            inputs += [weakref.ref(image), weakref.ref(a), weakref.ref(points)]
            jobs.append(imaging.submit(lambda: EDGES(GRADIENT(image))))
            jobs.append(linalg.submit(lambda: TOTAL(MULTIPLY(a, b))))
            jobs.append(squares.submit_map(SQUARE, points))
            del image, a, b, points
            server.drain()
        assert all(job.done for job in jobs)
        assert jobs[-1].result()[:4].tolist() == [0, 1, 4, 9]
        assert jobs[-2].result().get_value() == 2.0 * N

        spans = [bits.bit_length() for bits in detector._ancestor_bits]
        assert len(spans) > 20 * MAX_SPAN
        assert max(spans) < MAX_SPAN

        gc.collect()
        alive = {buffer.uid for buffer in server.session.context._buffers}
        assert set(detector._by_buffer) == alive

        for job in jobs:
            assert job.nodes == [] and job.payload is None
        assert all(ref() is None for ref in inputs)
