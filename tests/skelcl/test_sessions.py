"""Sessions and ownership: the current session is one context variable,
a container keeps the session that staged it, and a ``serve.Server``
owns a session instead of replacing the caller's.

(a) two sessions driven call by call from one thread, (b) containers
crossing sessions, (c) two servers at once, (d) a server beside a user
session, (e) threads and ``contextvars`` contexts.
"""

from __future__ import annotations

import contextvars
import threading

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import ocl, serve
from repro.skelcl import SkelCLError

DOUBLE = "float f(float x) { return 2.0f * x; }"

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
