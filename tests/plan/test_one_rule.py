"""The planner's one fusion rule.

* Composed-source snapshots (``golden/*.cl``) for the three admitted
  shapes — map chain, map chains → zip → map chain, map chain → reduce —
  with additional arguments on every stage and a helper-name collision
  between stages.  They were captured from the tree *before* the rule
  was unified and must stay byte-identical::

      PYTHONPATH=src python -m tests.plan.test_one_rule   # regenerate

* A recorded ``total(g(f(x)))`` (``planner.record()`` / ``client.submit``)
  takes the same map∘reduce rule as an unrecorded one.
* A hypothesis family of random map/zip/reduce DAGs with shared
  intermediates: lazy is bit-exact against eager with no more launches,
  clean under strict SkelSan, and every elided intermediate is still
  readable afterwards.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.skelcl as skelcl
from repro import ocl, serve
from repro.skelcl.skeleton import Skeleton

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# Every stage defines a helper called ``helper``: the composed source
# must keep them apart.  Every stage takes additional arguments.
HALVE = ("float helper(float v) { return v * 0.5f; }\n"
         "float halve(float x, float a) { return helper(x) + a; }")
TRUNC = ("float helper(float v) { return v - 1.0f; }\n"
         "int trunc_scale(float x, int k) { return (int)helper(x) * k; }")
AFFINE = ("float helper(int v) { return v + 0.25f; }\n"
          "float affine(int x, float s, float t) { return helper(x) * s + t; }")
WEIGH = ("float helper(float v) { return v * v; }\n"
         "float weigh(float x, float w) { return helper(x) * w; }")
BLEND = ("float helper(float v) { return v + 2.0f; }\n"
         "float blend(int x, float y, float m) { return helper(y) * m + x; }")
TOTAL = "float total(float x, float y) { return x + y; }"

_X = np.random.RandomState(3).randint(-64, 64, 300).astype(np.float32) / 8
_Y = np.random.RandomState(4).randint(-64, 64, 300).astype(np.float32) / 8


def _map_chain():
    halve, trunc, affine = skelcl.Map(HALVE), skelcl.Map(TRUNC), skelcl.Map(AFFINE)
    return affine(trunc(halve(skelcl.Vector(data=_X), 0.5), 3), 1.5, -2.0).to_numpy()


def _zip_tree():
    halve, trunc, weigh = skelcl.Map(HALVE), skelcl.Map(TRUNC), skelcl.Map(WEIGH)
    blend, post = skelcl.Zip(BLEND), skelcl.Map(WEIGH)
    left = trunc(halve(skelcl.Vector(data=_X), 0.5), 3)
    right = weigh(skelcl.Vector(data=_Y), 0.75)
    return halve(post(blend(left, right, 1.25), 0.5), 4.0).to_numpy()


def _map_reduce():
    halve, weigh = skelcl.Map(HALVE), skelcl.Map(WEIGH)
    total = skelcl.Reduce(TOTAL)
    return total(weigh(halve(skelcl.Vector(data=_X), 0.5), 2.0)).to_numpy()


SHAPES = {"map_chain": _map_chain, "zip_tree": _zip_tree, "map_reduce": _map_reduce}


def _run(pipeline, *, lazy, sanitize=None):
    """``pipeline()`` in a fresh one-device session: (result bytes,
    kernel launches, metrics registry)."""
    session = skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE, lazy=lazy,
                          detect_races=sanitize)
    try:
        result = np.asarray(pipeline()).tobytes()
        session.finish_all()
        launches = session.metrics.value("skelcl_commands_total", kind="ndrange_kernel")
        return result, launches, session.metrics
    finally:
        skelcl.terminate()


def _composed_source(pipeline, monkeypatch_setattr):
    """The one generated source ``pipeline`` launches that contains a
    composed wrapper, as handed to the program table."""
    seen = []
    original = Skeleton._program

    def spy(self, source, name, *session):
        if ("SCL_FUSED" in source or "SCL_PREMAP" in source) and source not in seen:
            seen.append(source)
        return original(self, source, name, *session)

    monkeypatch_setattr(Skeleton, "_program", spy)
    lazy = _run(pipeline, lazy=True)
    monkeypatch_setattr(Skeleton, "_program", original)
    (source,) = seen
    return source, lazy


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_composed_source_matches_snapshot(shape, monkeypatch):
    source, (lazy_bytes, lazy_launches, _) = _composed_source(
        SHAPES[shape], monkeypatch.setattr)
    with open(os.path.join(GOLDEN, f"{shape}.cl")) as handle:
        assert source == handle.read()
    eager_bytes, eager_launches, _ = _run(SHAPES[shape], lazy=False)
    assert lazy_bytes == eager_bytes
    assert lazy_launches == (2 if shape == "map_reduce" else 1) < eager_launches


# -- a recorded Reduce is a node like any other -----------------------------

SCALE = "float f(float x) { return x * 2.0f; }"
SHIFT = "float g(float x) { return x + 3.25f; }"
MULTIPLY = "float m(float x, float y) { return x * y; }"


def _eager_reference(build):
    return _run(lambda: build().to_numpy(), lazy=False)[0]


def _chain_total():
    f, g, total = skelcl.Map(SCALE), skelcl.Map(SHIFT), skelcl.Reduce(TOTAL)
    return total(g(f(skelcl.Vector(data=_X))))


def _dot():
    multiply, total = skelcl.Zip(MULTIPLY), skelcl.Reduce(TOTAL)
    return total(multiply(skelcl.Vector(data=_X), skelcl.Vector(data=_Y)))


def test_recorded_map_chain_into_reduce_fuses():
    reference = _eager_reference(_chain_total)
    session = skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE, lazy=True)
    try:
        with session.planner.record() as nodes:
            result = _chain_total()
        assert [node.op for node in nodes] == ["map", "map", "reduce"]
        assert session.metrics.value("skelcl_commands_total", kind="ndrange_kernel") == 0
        session.planner.flush_subset(nodes)
        assert session.metrics.value("skelcl_commands_total", kind="ndrange_kernel") == 2
        assert session.metrics.value("skelcl_fusion_total", rule="map_reduce") == 1
        assert result.to_numpy().tobytes() == reference
    finally:
        skelcl.terminate()


def test_submitted_jobs_take_the_same_rule():
    chain_reference = _eager_reference(_chain_total)
    dot_reference = _eager_reference(_dot)
    with serve.Server(["test"]) as server:
        client = server.client("tenant")
        metrics = server.session.metrics
        chain = client.submit(_chain_total)
        server.drain()
        assert metrics.value("skelcl_commands_total", kind="ndrange_kernel") == 2
        assert metrics.value("skelcl_fusion_total", rule="map_reduce") == 1
        assert chain.result().to_numpy().tobytes() == chain_reference
        # A Zip feeding a Reduce has two leaves: over the reduce's budget,
        # so it stays unfused — and that is not a fallback.
        dot = client.submit(_dot)
        server.drain()
        assert metrics.value("skelcl_commands_total", kind="ndrange_kernel") == 2 + 3
        assert metrics.value("skelcl_fusion_total", rule="map_reduce") == 1
        counters = server.session.metrics_snapshot()["counters"]
        assert "skelcl_plan_fallback_total" not in counters
        assert dot.result().to_numpy().tobytes() == dot_reference


# -- random DAGs ------------------------------------------------------------

_MAPS = ["float a(float x) { return x * 0.5f + 1.0f; }",
         "float b(float x) { return x - 0.75f; }",
         "float c(float x, float k) { return x * k; }"]
_ZIPS = ["float p(float x, float y) { return x + y; }",
         "float q(float x, float y, float k) { return x * k - y; }"]

_INPUTS = [np.random.RandomState(seed).randint(-32, 32, 192).astype(np.float32) / 4
           for seed in range(3)]

_op = st.one_of(
    st.tuples(st.just("map"), st.integers(0, 2), st.integers(0, 99)),
    st.tuples(st.just("zip"), st.integers(0, 1), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("reduce"), st.integers(0, 99)),
)


def _build_dag(ops):
    """Apply ``ops`` over the value pool (the three inputs, then every
    vector result — so intermediates are shared freely).  Returns
    (every vector result, every scalar result)."""
    maps = [skelcl.Map(source) for source in _MAPS]
    zips = [skelcl.Zip(source) for source in _ZIPS]
    total = skelcl.Reduce(TOTAL)
    pool = [skelcl.Vector(data=data) for data in _INPUTS]
    vectors, scalars = [], []
    for kind, *args in ops:
        if kind == "map":
            which, source = args
            extras = (1.5,) if which == 2 else ()
            vectors.append(maps[which](pool[source % len(pool)], *extras))
            pool.append(vectors[-1])
        elif kind == "zip":
            which, left, right = args
            extras = (0.25,) if which == 1 else ()
            vectors.append(zips[which](pool[left % len(pool)],
                                       pool[right % len(pool)], *extras))
            pool.append(vectors[-1])
        else:
            scalars.append(total(pool[args[0] % len(pool)]))
    return vectors, scalars


@settings(max_examples=40, deadline=None)
@given(st.lists(_op, min_size=1, max_size=9))
def test_random_dags_bit_exact_and_never_more_launches(ops):
    def pipeline():
        vectors, scalars = _build_dag(ops)
        # Scalars first, then the sinks, then everything: the late reads
        # hit intermediates that fusion elided.
        out = [np.atleast_1d(s.to_numpy()) for s in scalars]
        out += [v.to_numpy() for v in reversed(vectors)]
        return np.concatenate(out) if out else np.zeros(0, np.float32)

    eager_bytes, eager_launches, _ = _run(pipeline, lazy=False)
    lazy_bytes, lazy_launches, _ = _run(pipeline, lazy=True, sanitize="strict")
    assert lazy_bytes == eager_bytes
    assert lazy_launches <= eager_launches


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, pipeline in SHAPES.items():
        text, _ = _composed_source(pipeline, setattr)
        with open(os.path.join(GOLDEN, f"{name}.cl"), "w") as handle:
            handle.write(text)
