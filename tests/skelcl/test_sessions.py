"""Sessions and ownership: the current session is one context variable,
a container keeps the session that staged it, and a ``serve.Server``
owns a session instead of replacing the caller's.

(a) two sessions driven call by call from one thread, (b) containers
crossing sessions, (c) two servers at once, (d) a server beside a user
session, (e) threads and ``contextvars`` contexts, (f) one skeleton
object shared by sessions and threads: a call is one record, a skeleton
is not assigned to by its calls, a build is counted where it was asked
for.
"""

from __future__ import annotations

import contextvars
import sys
import threading

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import ocl, serve
from repro.skelcl import SkelCLError

DOUBLE = "float f(float x) { return 2.0f * x; }"
SQUARE = "float g(float x) { return x * x; }"


@skelcl.jit
def j_double(x):  # types come from each call's container
    return x + x


@skelcl.jit
def j_add(x, y):
    return x + y


@skelcl.jit
def j_add32(x: np.float32, y: np.float32) -> np.float32:
    return x + y


@skelcl.jit
def j_mul32(x: np.float32, y: np.float32) -> np.float32:
    return x * y


@skelcl.jit
def j_blur(v: skelcl.READ[np.float32]) -> np.float32:
    return (get(v, -1) + get(v, 0) + get(v, 1)) / 3.0  # noqa: F821


EAGER_2GPU = dict(num_devices=2, spec=ocl.TEST_DEVICE, lazy=False)
LAZY_3DEV = dict(devices=["test", "test", "test"], lazy=True)


@pytest.fixture(autouse=True)
def _no_session_left_behind():
    yield
    skelcl.terminate()
    assert not skelcl.is_initialized()


def _commands(session, kind: str) -> int:
    return session.metrics.value("skelcl_commands_total", kind=kind)


# -- (a) two sessions, interleaved call by call ------------------------------

def _skeletons():
    add = "float f(float x, float y) { return x + y; }"
    return {
        "map": skelcl.Map("float f(float x) { return -x; }"),
        "zip": skelcl.Zip("float f(float x, float y) { return x * y; }"),
        "reduce": skelcl.Reduce(add),
        "scan": skelcl.Scan(add),
        "overlap": skelcl.MapOverlap(
            "float func(float* v) { return get(v, -1) + get(v, 1); }",
            1, skelcl.SCL_NEUTRAL, 0.0),
        "allpairs": skelcl.AllPairs(
            skelcl.Reduce(add),
            zip=skelcl.Zip("float f(float x, float y) { return x * y; }")),
    }


def _program(sk, seed: int, out: dict):
    """All six skeletons, chained where the types allow; yields after
    every call so a driver can interleave two programs."""
    rng = np.random.RandomState(seed)
    va = skelcl.Vector(data=rng.rand(300).astype(np.float32))
    vb = skelcl.Vector(data=rng.rand(300).astype(np.float32))
    m = skelcl.Matrix(data=rng.rand(9, 8).astype(np.float32))
    out["map"] = sk["map"](va)
    yield
    out["zip"] = sk["zip"](out["map"], vb)
    yield
    out["reduce"] = sk["reduce"](out["zip"])
    yield
    out["scan"] = sk["scan"](vb)
    yield
    out["overlap"] = sk["overlap"](out["scan"])
    yield
    out["allpairs"] = sk["allpairs"](m, m)
    yield


def _observe(session, out: dict):
    """What must not depend on who else ran in the process: every
    result's bytes, the session's command counts and its modeled time."""
    results = {name: np.asarray(value.to_numpy()).tobytes()
               for name, value in out.items()}
    elapsed = session.finish_all()
    assert session.context.check_races() == []
    return results, session.metrics_snapshot()["counters"]["skelcl_commands_total"], elapsed


def _solo(config: dict, seed: int):
    with skelcl.init(detect_races="strict", **config) as session:
        out: dict = {}
        for _ in _program(_skeletons(), seed, out):
            pass
        return _observe(session, out)


def test_two_sessions_interleaved_call_by_call_match_their_solo_runs():
    solo_a, solo_b = _solo(EAGER_2GPU, 1), _solo(LAZY_3DEV, 2)
    a = skelcl.init(detect_races="strict", **EAGER_2GPU)
    b = skelcl.init(detect_races="strict", **LAZY_3DEV)  # `a` stays open
    sk = _skeletons()  # one set of skeleton objects serves both sessions
    out_a, out_b = {}, {}
    steps_a, steps_b = _program(sk, 1, out_a), _program(sk, 2, out_b)
    for _ in range(6):
        with a.activate():
            next(steps_a)
        with b.activate():
            assert skelcl.get_runtime() is b
            next(steps_b)
    assert skelcl.get_runtime() is b  # activate() restored init()'s choice
    # Read back with *neither* session's activation in force for the
    # other's containers: a container knows where it lives.
    with b.activate():
        assert _observe(a, out_a) == solo_a
    with a.activate():
        assert _observe(b, out_b) == solo_b
    a.close()
    b.close()


def test_activate_scopes_the_current_session_and_restores_the_previous():
    outer = skelcl.init(**EAGER_2GPU)
    inner = skelcl.init(**EAGER_2GPU)
    skelcl.terminate()  # closes `inner`, the current one: none is current now
    assert inner.closed and not skelcl.is_initialized()
    with outer.activate() as session:
        assert session is outer and skelcl.get_runtime() is outer
        result = skelcl.Map(DOUBLE)(skelcl.Vector(data=np.ones(4, np.float32)))
    with pytest.raises(SkelCLError, match="not initialized"):
        skelcl.get_runtime()
    assert result.to_numpy().tolist() == [2.0] * 4  # read through `outer`
    outer.close()


# -- (b) containers crossing sessions ----------------------------------------

@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
def test_host_valid_input_is_reused_across_init(lazy):
    double = skelcl.Map(DOUBLE)
    data = np.arange(16, dtype=np.float32)
    x = skelcl.Vector(data=data)
    first = skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE, lazy=lazy)
    assert np.array_equal(double(x).to_numpy(), 2 * data)
    second = skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE, lazy=lazy)
    assert np.array_equal(double(x).to_numpy(), 2 * data)
    # The second use uploaded to the second session; nothing was fetched
    # from the first (the host copy was valid).
    assert _commands(second, "write_buffer") == 2
    assert _commands(first, "read_buffer") == 1  # its own result, earlier
    first.close()


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
def test_result_of_one_session_migrates_as_input_of_another(lazy):
    double = skelcl.Map(DOUBLE)
    data = np.arange(30, dtype=np.float32)
    a = skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE, lazy=lazy)
    b = skelcl.init(devices=["test"] * 3, lazy=lazy)
    with a.activate():
        intermediate = double(skelcl.Vector(data=data))
        a.finish_all()  # device-only on a's two GPUs
    reads_a, writes_a = _commands(a, "read_buffer"), _commands(a, "write_buffer")
    assert (_commands(b, "write_buffer"), _commands(b, "read_buffer")) == (0, 0)
    result = double(intermediate).to_numpy()  # b is current
    assert np.array_equal(result, 4 * data)
    # Downloaded through its owner, uploaded here.
    assert _commands(a, "read_buffer") - reads_a == 2
    assert _commands(a, "write_buffer") == writes_a
    assert _commands(b, "write_buffer") == 3
    assert _commands(b, "read_buffer") == 3  # the result read-back only
    assert _commands(b, "ndrange_kernel") == 3
    # It lives on b now: reading it again costs nothing on either side.
    assert np.array_equal(intermediate.to_numpy(), 2 * data)
    assert _commands(a, "read_buffer") - reads_a == 2
    a.close()


def test_pending_result_of_one_lazy_session_runs_there_when_another_uses_it():
    double = skelcl.Map(DOUBLE)
    data = np.arange(12, dtype=np.float32)
    a = skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE, lazy=True)
    b = skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE, lazy=True)
    with a.activate():
        pending = double(skelcl.Vector(data=data))
    assert _commands(a, "ndrange_kernel") == 0
    result = double(pending)  # recorded on b; a's node is forced, on a
    assert _commands(a, "ndrange_kernel") == 1
    assert a.planner.pending == [] and len(b.planner.pending) == 1
    assert np.array_equal(result.to_numpy(), 4 * data)
    assert (_commands(a, "ndrange_kernel"), _commands(b, "ndrange_kernel")) == (1, 1)
    a.close()


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
def test_device_only_result_of_a_closed_session_is_an_error(lazy):
    double = skelcl.Map(DOUBLE)
    with skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE, lazy=lazy):
        lost = double(skelcl.Vector(data=np.ones(8, np.float32)))
        lost.name = "lost"
        kept = double(skelcl.Vector(data=np.ones(8, np.float32)))
        kept.to_numpy()  # host copy refreshed while the session is open
    with pytest.raises(SkelCLError, match="lost.*closed before the result was read"):
        lost.to_numpy()
    with skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE, lazy=lazy) as later:
        with pytest.raises(SkelCLError, match="lost.*closed before the result was read"):
            double(lost).to_numpy()
        if not lazy:  # a lazy call fails where it is forced, above
            assert sum(len(queue.events) for queue in later.queues) == 0
        assert double(kept).to_numpy().tolist() == [4.0] * 8
    assert kept.to_numpy().tolist() == [2.0] * 8


THROUGHPUT_2 = dict(devices=["tesla", "fermi"], partition="throughput")
EVEN_3 = dict(num_devices=3, spec=ocl.TEST_DEVICE)
EVEN_POLICY_3 = dict(num_devices=3, spec=ocl.TEST_DEVICE, partition="even")
PLAIN_2 = dict(num_devices=2, spec=ocl.TEST_DEVICE)


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("first, second", [
    (THROUGHPUT_2, EVEN_3), (EVEN_3, THROUGHPUT_2), (EVEN_POLICY_3, PLAIN_2),
    (THROUGHPUT_2, PLAIN_2), (PLAIN_2, THROUGHPUT_2),
], ids=["throughput2-to-3", "3-to-throughput2", "even3-to-2",
        "throughput2-to-2", "2-to-throughput2"])
def test_result_split_by_one_sessions_partition_is_reblocked_where_it_migrates(
        first, second, lazy):
    """A partition is one session's split of its devices: a result
    staged under it restages under the adopting session's own split —
    the same number of devices or not, policy or none — as the input of
    every skeleton that keeps its input's distribution (Map, Zip,
    MapOverlap, Scan), and so do their outputs."""
    double = skelcl.Map(DOUBLE)
    add = skelcl.Zip("float f(float x, float y) { return x + y; }")
    around = skelcl.MapOverlap(
        "float func(float* v) { return get(v, -1) + get(v, 1); }",
        1, skelcl.SCL_NEUTRAL, 0.0)
    prefix = skelcl.Scan("float f(float x, float y) { return x + y; }")
    data = np.arange(1, 101, dtype=np.float32)
    a = skelcl.init(detect_races="strict", lazy=lazy, **first)
    b = skelcl.init(detect_races="strict", lazy=lazy, **second)
    with a.activate():
        moved = [double(skelcl.Vector(data=data)) for _ in range(4)]
        assert all(len(v.distribution.chunks(100, a.partition)) == a.num_devices
                   for v in moved)
    with b.activate():
        results = [double(moved[0]), add(moved[1], skelcl.Vector(data=data)),
                   around(moved[2]), prefix(moved[3])]
        arrays = [r.to_numpy() for r in results]
    padded = np.concatenate([[0], 2 * data, [0]]).astype(np.float32)
    expected = [4 * data, 3 * data, padded[:-2] + padded[2:],
                np.cumsum(2 * data, dtype=np.float32)]
    for got, want in zip(arrays, expected):
        assert np.array_equal(got, want)
    split = b.partition.ranges(100)
    for container in moved + results:
        assert container._session is b
        assert [(c.owned_start, c.owned_end) for c in container._chunks] == split
    assert a.context.check_races() == [] and b.context.check_races() == []
    a.close()


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
def test_single_distribution_beyond_the_adopting_pool_still_raises(lazy):
    double = skelcl.Map(DOUBLE)
    a = skelcl.init(lazy=lazy, **EVEN_3)
    skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE, lazy=lazy)
    with a.activate():
        pinned = skelcl.Vector(data=np.ones(8, np.float32))
        pinned.set_distribution(skelcl.Single(2))
        pinned = double(pinned)
    with pytest.raises(ValueError, match="single distribution on device 2"):
        double(pinned).to_numpy()  # on the 1-device session, now current
    a.close()


# -- (c) two servers at once -------------------------------------------------

def _tenant_jobs(client, seed: int):
    rng = np.random.RandomState(seed)
    left, right = (rng.rand(128).astype(np.float32) for _ in range(2))
    mult = skelcl.Zip("float m(float x, float y) { return x * y; }")
    total = skelcl.Reduce("float s(float x, float y) { return x + y; }")
    double = skelcl.Map(DOUBLE)
    yield client.submit(lambda: total(mult(skelcl.Vector(data=left),
                                           skelcl.Vector(data=right))))
    yield client.submit_map(double, left)
    yield client.submit(lambda: double(skelcl.Vector(data=right)))


def _job_bytes(jobs):
    return [np.asarray(value if isinstance(value, np.ndarray) else value.to_numpy())
            .tobytes() for value in (job.result() for job in jobs)]


def _commands_of(server):
    return server.session.metrics_snapshot()["counters"]["skelcl_commands_total"]


def _solo_server(devices, seed: int):
    with serve.Server(devices, detect_races="strict") as server:
        jobs = list(_tenant_jobs(server.client(f"tenant-{seed}"), seed))
        server.drain()
        return _job_bytes(jobs), _commands_of(server)


def test_two_servers_open_at_once_serve_their_tenants_independently():
    pools = (["test"], ["test", "test"])
    solo = [_solo_server(devices, seed) for seed, devices in enumerate(pools)]
    with serve.Server(pools[0], detect_races="strict") as first, \
            serve.Server(pools[1], detect_races="strict") as second:
        assert first.session is not second.session
        assert not skelcl.is_initialized()  # neither made itself current
        submitting = [_tenant_jobs(server.client(f"tenant-{seed}"), seed)
                      for seed, server in enumerate((first, second))]
        jobs = [[], []]
        for _ in range(3):  # interleave the submissions
            for seed in (0, 1):
                jobs[seed].append(next(submitting[seed]))
        second.drain()
        first.drain()
        for seed, server in enumerate((first, second)):
            assert (_job_bytes(jobs[seed]), _commands_of(server)) == solo[seed]
            counted = server.session.metrics_snapshot()["counters"]["skelcl_serve_jobs_total"]
            assert counted and all(f"tenant-{seed}" in labels for labels in counted)
            assert server.session.context.check_races() == []


# -- (d) a server beside a user session --------------------------------------

def test_user_session_stays_current_across_a_server_lifetime():
    double = skelcl.Map(DOUBLE)
    data = np.arange(20, dtype=np.float32)
    with skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE) as session:
        mine = double(skelcl.Vector(data=data))
        with serve.Server(["test"]) as server:
            assert skelcl.get_runtime() is session
            job = server.client("tenant").submit_map(double, data)
            graph = server.client("other").submit(lambda: double(mine))
            assert skelcl.get_runtime() is session
            server.drain()
            assert skelcl.get_runtime() is session
            assert np.array_equal(job.result(), 2 * data)
            assert np.array_equal(graph.result().to_numpy(), 4 * data)
            assert np.array_equal(double(mine).to_numpy(), 4 * data)  # on `session`
        assert skelcl.get_runtime() is session and session.closed is False
        assert np.array_equal(mine.to_numpy(), 2 * data)
        assert np.array_equal(double(mine).to_numpy(), 4 * data)
    assert not skelcl.is_initialized()


def test_rejected_server_arguments_open_no_session():
    with pytest.raises(serve.ServeError, match="drr, fifo"):
        serve.Server(["test"], policy="magic")
    with pytest.raises(SkelCLError, match="unknown device preset"):
        serve.Server(["no-such-device"])
    assert not skelcl.is_initialized()


# -- (e) threads and contexts ------------------------------------------------

def _init_use_and_terminate(seen: list) -> None:
    session = skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE)
    result = skelcl.Map(DOUBLE)(skelcl.Vector(data=np.ones(4, np.float32)))
    seen.append((skelcl.get_runtime() is session, result.to_numpy().tolist()))
    skelcl.terminate()


@pytest.mark.parametrize("with_main_session", [True, False])
def test_init_elsewhere_does_not_change_this_contexts_session(with_main_session):
    main = skelcl.init(**EAGER_2GPU) if with_main_session else None
    seen: list = []
    worker = threading.Thread(target=_init_use_and_terminate, args=(seen,))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    contextvars.copy_context().run(_init_use_and_terminate, seen)
    assert seen == [(True, [2.0] * 4)] * 2
    if main is None:
        assert not skelcl.is_initialized()
    else:
        assert skelcl.get_runtime() is main and not main.closed


# -- (f) one skeleton object, several sessions and threads -------------------

def _kernel_events(session):
    return [event for queue in session.queues for event in queue.events
            if event.command_type == "ndrange_kernel"]


def _before_first_launch_on_device_0(session, action) -> None:
    """Run ``action`` once, inside the next skeleton call on ``session``:
    after the call was made, before its first kernel event is recorded
    on device 0."""
    queue = session.queue(0)
    record = queue._record_kernel

    def hooked(*args, **kwargs):
        queue._record_kernel = record
        action()
        return record(*args, **kwargs)

    queue._record_kernel = hooked


def _shared_call(kind: str):
    """(call(vector, label) -> result, the skeleton to ask for events,
    lazy?, B's dtype).  Labels keep their ``@site`` through fusion."""
    if kind == "fused":
        double, square = skelcl.Map(DOUBLE), skelcl.Map(SQUARE)
        return (lambda v, label: square(double(v), label=label)), square, True, np.float32
    shared = skelcl.Map(DOUBLE if kind == "string" else j_double)
    return (lambda v, label: shared(v, label=label), shared, False,
            np.float32 if kind == "string" else np.int32)


def _expected(kind: str, data):
    return (2 * data) ** 2 if kind == "fused" else 2 * data


@pytest.mark.parametrize("kind", ["string", "jit", "fused"])
def test_call_made_inside_another_sessions_call_keeps_label_and_events_apart(kind):
    call, observed, lazy, dtype_b = _shared_call(kind)
    config = dict(num_devices=2, spec=ocl.TEST_DEVICE, lazy=lazy)
    a, b = skelcl.init(**config), skelcl.init(**config)
    data_a = np.arange(64, dtype=np.float32)
    data_b = np.arange(100, 164).astype(dtype_b)
    seen = {}

    def b_calls_the_same_skeleton():
        seen["a"] = observed.last_events  # the list A's running call reports
        with b.activate():
            result = call(skelcl.Vector(data=data_b), "call@B")
            seen["b"] = list(observed.last_events)
            seen["result"] = result.to_numpy()

    _before_first_launch_on_device_0(a, b_calls_the_same_skeleton)
    with a.activate():
        result_a = call(skelcl.Vector(data=data_a), "call@A").to_numpy()
    assert np.array_equal(result_a, _expected(kind, data_a))
    assert np.array_equal(seen["result"], _expected(kind, data_b))
    assert seen["result"].dtype == dtype_b
    for name, session in (("a", a), ("b", b)):
        events = _kernel_events(session)
        assert [event.label.rpartition("@")[2] for event in events] == [name.upper()] * 2
        assert len(seen[name]) == 2 and all(
            mine is event for mine, event in zip(seen[name], events))
    a.close()


@pytest.mark.parametrize("kind", ["string", "jit"])
def test_two_threads_calling_one_skeleton_each_on_its_own_session(kind):
    shared = skelcl.Map(DOUBLE if kind == "string" else j_double)
    dtypes = {"A": np.float32, "B": np.float32 if kind == "string" else np.int32}
    failures, done = [], []

    def worker(name: str) -> None:
        with skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE) as session:
            for step in range(200):
                data = (np.arange(48) + step).astype(dtypes[name])
                result = shared(skelcl.Vector(data=data), label=name).to_numpy()
                if result.dtype != data.dtype or not np.array_equal(result, 2 * data):
                    failures.append((name, step, "result"))
            labels = [event.label for event in _kernel_events(session)]
            if labels != [name] * 400:
                failures.append((name, len(labels), sorted(set(labels))))
        done.append(name)

    threads = [threading.Thread(target=worker, args=(name,)) for name in "AB"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == [] and sorted(done) == ["A", "B"]


def _six_skeletons(customizer: str):
    if customizer == "string":
        return _skeletons()
    return {
        "map": skelcl.Map(j_double),
        "zip": skelcl.Zip(j_add),
        "reduce": skelcl.Reduce(j_add),
        "scan": skelcl.Scan(j_add),
        "overlap": skelcl.MapOverlap(j_blur, 1, skelcl.SCL_NEUTRAL, 0.0),
        "allpairs": skelcl.AllPairs(skelcl.Reduce(j_add32), zip=skelcl.Zip(j_mul32)),
    }


def _call_all(sk, dtype) -> None:
    """Every skeleton once, Map twice in a chain (fused when lazy), all
    read back, events asked for."""
    v = skelcl.Vector(data=np.arange(40).astype(dtype))
    f = skelcl.Vector(data=np.arange(40, dtype=np.float32))
    m = skelcl.Matrix(data=np.ones((6, 4), np.float32))
    results = [sk["map"](sk["map"](v)), sk["zip"](v, v), sk["reduce"](v),
               sk["scan"](v), sk["overlap"](f), sk["allpairs"](m, m)]
    for result in results:
        result.to_numpy()
    for skeleton in sk.values():
        assert skeleton.last_events and skeleton.last_kernel_time_ns > 0


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("customizer", ["string", "jit"])
def test_calls_assign_nothing_on_a_skeleton_but_its_latest_record(customizer, lazy,
                                                                   monkeypatch):
    sk = _six_skeletons(customizer)
    dtypes = [np.float32] if customizer == "string" else [np.float32, np.int32, np.float32]
    assigned = []

    def recording(self, name, value):
        assigned.append((type(self).__name__, name))
        object.__setattr__(self, name, value)

    with skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE, lazy=lazy):
        for dtype in dtypes:  # first use: programs, specializations, fused skeletons
            _call_all(sk, dtype)
        # From here on every skeleton in the process is watched —
        # the composed ones fusion memoized included.
        monkeypatch.setattr(skelcl.Skeleton, "__setattr__", recording, raising=False)
        for dtype in dtypes:
            _call_all(sk, dtype)
    assert {name for _, name in assigned} == {"_latest"}
    assert {kind for kind, _ in assigned} == {
        "Map", "Zip", "Reduce", "Scan", "MapOverlap", "AllPairs"}


def test_a_build_is_counted_on_the_session_it_was_made_for():
    def builds(session):
        return sum(session.metrics.value("skelcl_program_builds_total", result=result)
                   for result in ("memory", "disk", "compiled"))

    idle = skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE)
    busy = skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE)  # `idle` stays open
    double = skelcl.Map("float only_busy_builds_this(float x) { return 2.0f * x; }")
    assert double(skelcl.Vector(data=np.ones(8, np.float32))).to_numpy().tolist() == [2.0] * 8
    assert (builds(busy), builds(idle)) == (1, 0)
    idle.close()
