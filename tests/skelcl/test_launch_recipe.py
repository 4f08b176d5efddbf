"""Launch recipes: what a skeleton call derives from its shape — programs,
per-chunk arguments, NDRanges, sibling grouping, access rows — is made
once per shape and kept on the bound skeleton (``skeleton._RecipeCall``),
so a call that hits one must be indistinguishable from a call that
derives everything afresh.

The differential family plays a Hypothesis-drawn sequence of calls — all
six skeletons plus Maps over an ``IndexVector`` and an ``IndexMatrix``
and a ``@skelcl.jit`` Map specialized at two element types; additional
arguments that vary; ``set_distribution``, ``Overlap``, aliased operands,
``out=`` (the input itself included) and partition changes between calls
— on 1–4 devices under even, uneven and zero-weight partitions, with the
strict race detector on.  A first, discarded play on other
data builds every program, plan, specialization and recipe; then the
sequence plays once with the recipes it finds (made by the first play's
session, or by its own earlier calls) and once with every recipe dropped
before every call.  A call in place (``out=`` its input) must succeed.
Output bytes, every event's counters, access sets, wait-list edges and
modeled start and end, the finish time and the metrics snapshot must be
equal — lockstep runs compared by which launches share one, not by id.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
from hypothesis import example, given, settings, strategies as st

import repro.skelcl as skelcl
from repro import ocl
from repro.plan import compose
from repro.skelcl import skeleton as skeleton_module

NEAREST, NEUTRAL = skelcl.BoundaryMode.NEAREST, skelcl.BoundaryMode.NEUTRAL


@skelcl.jit
def _shift(x, s):
    return x * s + 2


SKELETONS = {
    "map": skelcl.Map("float f(float x) { return x * 2.0f + 1.0f; }"),
    "map_scalar": skelcl.Map("float f(float x, float s) { return x * s; }"),
    "inplace": skelcl.Map("float f(float x) { return x - 3.0f; }"),
    "jit": skelcl.Map(_shift),
    "zip": skelcl.Zip("float f(float x, float y) { return x * y + 1.0f; }"),
    "reduce": skelcl.Reduce("float f(float x, float y) { return x + y; }"),
    "scan": skelcl.Scan("float f(float x, float y) { return x + y; }"),
    "overlap": skelcl.MapOverlap(
        "float f(const float* v) { return get(v, -1) + 2.0f * get(v, 0) + get(v, 1); }",
        1, NEAREST),
    "overlap_m": skelcl.MapOverlap(
        "float f(const float* m) { return get(m, -1, 0) + 2.0f * get(m, 0, 0)"
        " + get(m, 0, 1); }", 1, NEUTRAL),
    "allpairs": skelcl.AllPairs(skelcl.Reduce("float f(float x, float y) { return x + y; }"),
                                skelcl.Zip("float g(float x, float y) { return x * y; }")),
    "index": skelcl.Map("int f(int i) { return i * 3 - 7; }"),
    "index_m": skelcl.Map("float f(int row, int col, float s) { return s * (row * 10 + col); }"),
}
_SIZES = (1, 5, 64, 300)
_SHAPES = ((1, 3), (6, 4), (17, 8))
_EXTRAS = (2.0, 3.0, -0.0, 0.5)
_DISTRIBUTIONS = (None, "block", "copy", "single", "overlap1", "overlap2")


def _all_skeletons():
    """Every skeleton a play may launch through: the pool, its jit
    specializations and whatever the planner composed."""
    for skeleton in (*SKELETONS.values(), *compose._COMPOSED.values()):
        if isinstance(skeleton, skeleton_module.Skeleton):
            yield skeleton
            yield from (skeleton._bound or {}).values()


def _drop_recipes():
    for skeleton in _all_skeletons():
        skeleton._recipes.clear()


def _distribution(name, devices):
    return {"block": skelcl.Block(), "copy": skelcl.Copy(),
            "single": skelcl.Single(devices - 1), "overlap1": skelcl.Overlap(1),
            "overlap2": skelcl.Overlap(2)}.get(name)


def _weights(draw, devices):
    shape = draw(st.sampled_from(["even", "uneven", "zero"]))
    if shape == "even":
        return [1] * devices
    weights = draw(st.lists(st.integers(0 if shape == "zero" else 1, 3),
                            min_size=devices, max_size=devices))
    if not any(weights):
        weights[draw(st.integers(0, devices - 1))] = 1
    return weights


@st.composite
def _plays(draw):
    """``(devices, weights, seed, ops)``: an op is ``("partition",
    weights)`` or ``(kind, size index, distribution, reuse, extra,
    flag)`` — ``flag`` picks the int specialization of the jit Map, a
    Matrix for Map/Zip/Reduce and the in-place Map, and ``out=`` for the
    Maps."""
    devices = draw(st.integers(1, 4))
    ops = []
    for _ in range(draw(st.integers(2, 6))):
        if draw(st.integers(0, 5)) == 0:
            ops.append(("partition", _weights(draw, devices)))
            continue
        ops.append((draw(st.sampled_from(sorted(SKELETONS))), draw(st.integers(0, 2)),
                    draw(st.sampled_from(_DISTRIBUTIONS)), draw(st.booleans()),
                    draw(st.sampled_from(_EXTRAS)), draw(st.booleans())))
    return devices, _weights(draw, devices), draw(st.integers(0, 2 ** 16)), ops


def _call(op, session, rng, pool):
    """Make one call of ``op``; returns its result."""
    kind, size, distribution, reuse, extra, flag = op
    devices = len(session.devices)
    skeleton = SKELETONS[kind]

    def container(key, make):
        if reuse and key in pool:
            found = pool[key]
        else:
            found = pool[key] = make()
        if distribution is not None and hasattr(found, "set_distribution"):
            found.set_distribution(_distribution(distribution, devices))
        return found

    def vector(n=_SIZES[size], dtype=np.float32):
        return container(("v", n, np.dtype(dtype).str), lambda: skelcl.Vector(
            data=rng.randint(-40, 40, n).astype(dtype)))

    def matrix(shape=_SHAPES[size]):
        return container(("m", shape), lambda: skelcl.Matrix(
            data=rng.randint(-8, 8, shape).astype(np.float32)))

    matrices = flag and kind in ("map", "map_scalar", "inplace", "zip", "reduce")
    first = matrix() if matrices or kind in ("overlap_m", "allpairs") else vector()
    if kind == "jit":
        if flag:
            return skeleton(vector(dtype=np.int32), int(extra) + 1)
        return skeleton(first, extra)
    if kind == "inplace":
        return skeleton(first, out=first)
    if kind == "index":
        return skeleton(skelcl.IndexVector(_SIZES[size] + 1))
    if kind == "index_m":
        return skeleton(skelcl.IndexMatrix(_SHAPES[size]), extra)
    if kind == "zip":
        second = first if reuse else (matrix() if matrices else vector())
        return skeleton(first, second)
    if kind == "allpairs":
        return skeleton(first, first if reuse else skelcl.Matrix(
            data=rng.randint(-8, 8, (7, _SHAPES[size][1])).astype(np.float32)))
    extras = (extra,) if kind == "map_scalar" else ()
    if flag and kind in ("map", "map_scalar"):
        return skeleton(first, *extras, out=first if reuse else matrix())
    return skeleton(first, *extras)


def _observed(session):
    """Per queue, every command: kind, name, label, counters (run ids
    replaced by their first appearance), accesses (buffers likewise),
    wait-list edges as (queue, index) and modeled start and end."""
    finish = session.context.finish_all()
    place = {id(event): (at, index) for at, queue in enumerate(session.queues)
             for index, event in enumerate(queue.events)}
    buffers, runs = {}, {}
    out = []
    for queue in session.queues:
        rows = []
        for event in queue.events:
            info = dict(event.info)
            if "run" in info:
                info["run"] = runs.setdefault(info["run"], len(runs))
            accesses = [(buffers.setdefault(a.buffer_uid, len(buffers)), a.buffer_name,
                         a.start, a.stop, a.mode, a.stride, a.width, a.provenance)
                        for a in event.accesses]
            rows.append((event.command_type, event.name, event.label, info, accesses,
                         [place[id(dep)] for dep in event.wait_for],
                         event.start_ns, event.end_ns))
        out.append(rows)
    return finish, out


def _snapshot(session):
    """The metrics snapshot without what a recipe hit is allowed to
    change (its own counter) and what the process, not the session,
    owns."""
    snapshot = session.metrics_snapshot()
    snapshot["counters"].pop("skelcl_launch_recipes_total", None)
    for process_wide in ("skelcl_host_minor_faults", "skelcl_host_peak_rss_bytes"):
        snapshot["gauges"].pop(process_wide, None)
    return snapshot


def _recipes_counted(session):
    return tuple(session.metrics.value("skelcl_launch_recipes_total", result=result)
                 for result in ("hit", "miss"))


def _play(case, cold):
    """Play ``case``; with ``cold`` every recipe is dropped before every
    call.  Returns what is compared, and the recipe hits and misses."""
    devices, weights, seed, ops = case
    rng = np.random.RandomState(seed)
    with skelcl.init(num_devices=devices, spec=ocl.TEST_DEVICE, detect_races="strict",
                     partition=skelcl.Partition.of(*weights)) as session:
        results, pool = [], {}
        for op in ops:
            if op[0] == "partition":
                session.partition = skelcl.Partition.of(*op[1])
                continue
            if cold:
                _drop_recipes()
            try:
                result = _call(op, session, rng, pool)
                value = result.get_value() if isinstance(result, skelcl.Scalar) \
                    else result.to_numpy()
                results.append(np.asarray(value).tobytes())
            except Exception as error:  # a call that fails fails alike, hit or miss
                if op[0] == "inplace":
                    raise  # its wait lists order it after what staged its input
                results.append(type(error).__name__)
        return (results, _observed(session), _snapshot(session)), _recipes_counted(session)


class TestHitEqualsMiss:
    @given(case=_plays())
    @example(case=(2, [1, 1], 0, [("inplace", 1, "overlap1", False, 2.0, False)]))
    @settings(deadline=None, max_examples=max(1, settings.default.max_examples // 4))
    def test_a_sequence_of_calls_plays_the_same_with_and_without_recipes(self, case):
        # Builds every program, plan and specialization — and every recipe
        # of the sequence, from other data: what a recipe keeps must not
        # depend on the data.
        devices, weights, seed, ops = case
        _play((devices, weights, seed + 1, ops), cold=False)
        warm, (hits, _misses) = _play(case, cold=False)
        cold, (cold_hits, cold_misses) = _play(case, cold=True)
        assert warm == cold
        # Every call that ran counted its recipe; one that failed before
        # it ran (an input a failed call poisoned) counted none.
        calls = sum(isinstance(result, bytes) for result in cold[0])
        assert cold_hits == 0 and cold_misses >= calls and (hits > 0 or not calls)


def test_a_partition_change_misses_and_the_old_split_still_hits():
    scale = skelcl.Map("float f(float x, float s) { return x * s; }")
    data = np.arange(100, dtype=np.float32)
    with skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE) as session:
        counts = []
        for partition in (None, None, (3, 1), (3, 1), (1, 1)):
            if partition is not None:
                session.partition = skelcl.Partition.of(*partition)
            out = scale(skelcl.Vector(data=data), 2.0).to_numpy()
            np.testing.assert_array_equal(out, data * 2)
            counts.append(_recipes_counted(session))
    # miss, hit, miss (a new layout), hit, hit (the even split's recipe
    # is still there): one key, two layouts.
    assert counts == [(0, 1), (1, 1), (1, 2), (2, 2), (3, 2)]
    ((_programs, layouts),) = scale._recipes.values()
    assert len(layouts) == 2


def test_other_extras_miss():
    scale = skelcl.Map("float f(float x, float s) { return x * s; }")
    data = np.arange(-8, 8, dtype=np.float32)
    with skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE) as session:
        for extra in (2.0, 0.0, -0.0, 2.0):
            out = scale(skelcl.Vector(data=data), extra).to_numpy()
            assert out.tobytes() == (data * np.float32(extra)).tobytes()
        assert _recipes_counted(session) == (1, 3)  # -0.0 is not 0.0


def test_a_launch_the_device_refuses_keeps_no_recipe():
    """A work-group size above the device's limit fails when the call's
    step is made: the layout keeps no recipe, so every such call is a
    miss and fails alike."""
    wide = skelcl.Map("float f(float x) { return x + 1.0f; }", work_group_size=512)
    data = np.arange(600, dtype=np.float32)
    with skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE) as session:
        for calls in (1, 2):
            try:
                wide(skelcl.Vector(data=data)).to_numpy()
            except ocl.InvalidWorkGroupSize:
                pass
            else:  # pragma: no cover
                raise AssertionError("a work-group of 512 launched on a 256-limit device")
            assert _recipes_counted(session) == (0, calls)
        ((_programs, layouts),) = wide._recipes.values()
        assert not layouts


def test_scans_device_offsets_come_from_each_calls_data():
    """The folds of Scan's per-device totals take their scalar from the
    data: planned per call, never kept in the recipe."""
    prefix = skelcl.Scan("float f(float x, float y) { return x + y; }")
    rng = np.random.RandomState(3)
    with skelcl.init(num_devices=3, spec=ocl.TEST_DEVICE) as session:
        for _ in range(3):
            data = rng.randint(-9, 9, 700).astype(np.float32)
            np.testing.assert_array_equal(prefix(skelcl.Vector(data=data)).to_numpy(),
                                          np.cumsum(data, dtype=np.float32))
        assert _recipes_counted(session) == (2, 1)


def test_two_sessions_share_one_skeleton():
    """A recipe belongs to the skeleton, not to a session: a session of
    the same devices hits the other's; one of other devices makes its
    own.  Interleaved calls answer as each session's own would."""
    shift = skelcl.Map("float f(float x, float s) { return x + s; }")
    data = np.arange(64, dtype=np.float32)
    first = skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE)
    second = skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE)
    third = skelcl.init(num_devices=3, spec=ocl.TEST_DEVICE)
    try:
        for round_ in range(3):
            for session in (first, second, third):
                with session.activate():
                    out = shift(skelcl.Vector(data=data), float(round_)).to_numpy()
                np.testing.assert_array_equal(out, data + round_)
        # Per round one recipe per device count: first misses, second
        # hits it, third (three devices) misses its own.
        assert _recipes_counted(first) == (0, 3)
        assert _recipes_counted(second) == (3, 0)
        assert _recipes_counted(third) == (0, 3)
    finally:
        for session in (first, second, third):
            session.close()


def test_threads_share_one_skeleton():
    """More threads than cores, switching often, each on its own session
    and the same skeleton: every result is its own call's."""
    scale = skelcl.Map("float f(float x, float s) { return x * s; }")
    data = np.arange(256, dtype=np.float32)
    done, failures = [], []

    def work(factor):
        with skelcl.init(num_devices=1 + int(factor) % 2, spec=ocl.TEST_DEVICE):
            for _ in range(20):
                out = scale(skelcl.Vector(data=data), factor).to_numpy()
                if not np.array_equal(out, data * factor):
                    failures.append(factor)
        done.append(factor)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(float(k),)) for k in range(1, 5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(done) == [1.0, 2.0, 3.0, 4.0] and failures == []


def test_the_memo_stays_at_its_bound_and_keeps_the_recent_shapes():
    bound = skeleton_module.MAX_LAUNCH_RECIPES
    double = skelcl.Map("float f(float x) { return x * 2.0f; }")
    with skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE) as session:
        def call(n):
            data = np.arange(n, dtype=np.float32)
            np.testing.assert_array_equal(double(skelcl.Vector(data=data)).to_numpy(), data * 2)

        for n in range(1, bound + 6):
            call(n)
            assert len(double._recipes) == min(n, bound)
        assert _recipes_counted(session) == (0, bound + 5)
        call(bound + 5)  # the most recent shape stayed
        assert _recipes_counted(session) == (1, bound + 5)
        call(1)  # the oldest went
        assert _recipes_counted(session) == (1, bound + 6)
        assert len(double._recipes) == bound


def test_the_planners_runs_use_the_recipes():
    """A lazy session runs its nodes through ``PlanNode.run`` — fused
    steps on their composed skeletons, opaque nodes on their own — and
    those runs hit recipes like eager calls do."""
    data = np.arange(512, dtype=np.float32)
    results = []
    with skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE, lazy=True) as session:
        for _ in range(3):
            doubled = SKELETONS["map"](skelcl.Vector(data=data))
            total = SKELETONS["reduce"](SKELETONS["map_scalar"](doubled, 0.5))
            smoothed = SKELETONS["overlap"](SKELETONS["zip"](doubled, doubled))
            results.append((total.get_value(), smoothed.to_numpy().tobytes()))
        hits, misses = _recipes_counted(session)
    assert results[0] == results[1] == results[2]
    assert hits >= 2 * misses > 0


def test_a_recipe_holds_no_buffer():
    """Recipes outlive the calls that made them: they keep the shape of
    a launch, never its storage."""
    double = skelcl.Map("float f(float x) { return x * 2.0f; }")
    with skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE):
        double(skelcl.Vector(data=np.arange(64, dtype=np.float32))).to_numpy()
    ((_programs, layouts),) = double._recipes.values()
    ((_positions, plan),) = [step for steps in layouts.values() for step in steps.values()]
    for launch in plan.plans:
        assert not any(isinstance(arg, ocl.Buffer) for arg in launch.args)

