"""Tenant isolation under strict SkelSan: N interleaved tenants running
all six skeletons on the shared pool must be race-free and bit-exact
against each tenant running solo."""

from __future__ import annotations

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import scope, serve
from repro.analysis import RaceError


@skelcl.jit
def j_double(x):  # types come from each call's container
    return x + x


@pytest.fixture(autouse=True)
def _teardown():
    yield
    skelcl.terminate()


def _skeletons():
    return {
        "map": skelcl.Map("float f(float x) { return -x; }"),
        "zip": skelcl.Zip("float f(float x, float y) { return x * y; }"),
        "reduce": skelcl.Reduce("float f(float x, float y) { return x + y; }"),
        "scan": skelcl.Scan("float f(float x, float y) { return x + y; }"),
        "overlap": skelcl.MapOverlap(
            "float func(float* v) { return get(v, -1) + get(v, 1); }",
            1, skelcl.SCL_NEUTRAL, 0.0),
        "allpairs": skelcl.AllPairs(
            skelcl.Reduce("float f(float x, float y) { return x + y; }"),
            zip=skelcl.Zip("float f(float x, float y) { return x * y; }")),
    }


def _tenant_data(seed: int):
    rng = np.random.RandomState(seed)
    return {
        "vec_a": rng.rand(256).astype(np.float32),
        "vec_b": rng.rand(256).astype(np.float32),
        "mat": rng.rand(12, 8).astype(np.float32),
    }


def _run_workload(sk, data):
    """All six skeletons over one tenant's data; returns the output
    containers (forced to numpy by the caller, *after* drain)."""
    va = skelcl.Vector(data=data["vec_a"])
    vb = skelcl.Vector(data=data["vec_b"])
    m = skelcl.Matrix(data=data["mat"])
    return {
        "map": sk["map"](va),
        "zip": sk["zip"](va, vb),
        "reduce": sk["reduce"](va),
        "scan": sk["scan"](vb),
        "overlap": sk["overlap"](skelcl.Vector(data=data["vec_a"])),
        "allpairs": sk["allpairs"](m, m),
    }


def _to_numpy(results):
    out = {}
    for name, container in results.items():
        if hasattr(container, "get_value"):
            out[name] = np.float32(container.get_value())
        else:
            out[name] = container.to_numpy()
    return out


def _solo_results(n_tenants: int):
    """Each tenant's workload run alone on an eager private session —
    the isolation baseline."""
    solo = []
    for seed in range(n_tenants):
        with skelcl.init(num_devices=2, spec=None, detect_races="strict"):
            sk = _skeletons()
            solo.append(_to_numpy(_run_workload(sk, _tenant_data(seed))))
        skelcl.terminate()
    return solo


N_TENANTS = 3


class TestInterleavedTenants:
    def test_six_skeletons_interleaved_bit_exact_and_race_free(self):
        solo = _solo_results(N_TENANTS)
        with serve.Server(devices=["test", "test"],
                          detect_races="strict") as server:
            sk = _skeletons()
            clients = [server.client(f"tenant-{i}", weight=1.0 + i)
                       for i in range(N_TENANTS)]
            jobs = []
            # Interleave: every tenant submits its whole workload before
            # any of it runs, so the drained command graph mixes all
            # tenants on the shared queues.
            for i, client in enumerate(clients):
                data = _tenant_data(i)
                jobs.append(client.submit(
                    lambda sk=sk, data=data: _run_workload(sk, data)))
            server.drain()  # strict SkelSan: any cross-tenant race raises
            for i, job in enumerate(jobs):
                got = _to_numpy(job.result())
                for name, expect in solo[i].items():
                    assert np.array_equal(got[name], expect), \
                        f"tenant {i} skeleton {name} diverged from solo run"

    def test_interleaved_trace_validates_with_tenant_tracks(self):
        with serve.Server(devices=["test", "test"],
                          detect_races="strict") as server:
            sk = _skeletons()
            for i in range(N_TENANTS):
                data = _tenant_data(i)
                server.client(f"tenant-{i}").submit(
                    lambda sk=sk, data=data: _run_workload(sk, data))
            server.drain()
            trace = scope.chrome_trace(server.session.context)
            assert scope.validate_trace(trace) == []
            track_names = {
                event["args"]["name"]
                for event in trace["traceEvents"]
                if event.get("ph") == "M" and event.get("name") == "thread_name"
            }
            for i in range(N_TENANTS):
                assert f"compute [tenant-{i}]" in track_names

    def test_fairness_gauges_populate_after_drain(self):
        with serve.Server(devices=["test"]) as server:
            sk = {"map": skelcl.Map("float f(float x) { return -x; }")}
            for i in range(2):
                data = _tenant_data(i)
                server.client(f"t{i}").submit(
                    lambda sk=sk, data=data: {"map": sk["map"](
                        skelcl.Vector(data=data["vec_a"]))})
            server.drain()
            jain = server.metrics.value("skelcl_serve_weighted_fairness")
            assert 0.0 < jain <= 1.0
            shares = [server.metrics.value("skelcl_serve_tenant_share",
                                           tenant=f"t{i}") for i in range(2)]
            assert abs(sum(shares) - 1.0) < 1e-6

    def test_quota_paths_under_strict_sanitizer(self):
        """Admission-control rejections interact safely with strict
        mode: rejected work leaves no pending nodes, accepted work still
        verifies race-free."""
        with serve.Server(devices=["test"],
                          detect_races="strict") as server:
            quota = serve.TenantQuota(max_queue_depth=2)
            client = server.client("t", quota=quota)
            double = skelcl.Map("float f(float x) { return 2.0f * x; }")
            data = np.arange(32, dtype=np.float32)
            jobs = [client.submit_map(double, data) for _ in range(2)]
            with pytest.raises(serve.Backpressure):
                client.submit_map(double, data)
            server.drain()
            for job in jobs:
                assert np.array_equal(job.result(), 2.0 * data)

    def test_strict_mode_verifies_interleaved_graphs_race_free(self):
        """The interleaved multi-tenant command graph passes strict
        SkelSan with *zero* recorded races — the coherence protocol
        keeps even shared-container submissions ordered."""
        double = skelcl.Map("float f(float x) { return 2.0f * x; }")
        with serve.Server(devices=["test", "test"],
                          detect_races="strict") as server:
            a = server.client("a")
            b = server.client("b")
            shared = skelcl.Vector(data=np.arange(64, dtype=np.float32))
            ja = a.submit(lambda: double(shared))
            jb = b.submit(lambda: double(shared))
            server.drain()
            assert server.session.context.check_races() == []
            expect = 2.0 * np.arange(64, dtype=np.float32)
            assert np.array_equal(ja.result().to_numpy(), expect)
            assert np.array_equal(jb.result().to_numpy(), expect)

    def test_sanitizer_is_armed_on_the_serve_context(self):
        """Strict mode on the server really raises for a genuine race:
        unordered raw writes to one buffer on the shared context."""
        with serve.Server(devices=["test"],
                          detect_races="strict") as server:
            ctx = server.session.context
            queue = ctx.queues[0]
            buffer = ctx.create_buffer(256, queue.device)
            queue.enqueue_write_buffer(buffer, np.zeros(64, np.float32))
            with pytest.raises(RaceError, match="data race"):
                queue.enqueue_write_buffer(buffer, np.ones(64, np.float32),
                                           event_wait_list=[])

    def test_shared_jit_skeleton_at_a_new_dtype_runs_nobody_elses_job(self):
        """Tenant b's submit of a shared jit skeleton at a dtype it has
        not seen is a recording like any other: tenant a's queued job
        stays queued, and the scheduler — not b's submit — runs and
        charges it."""
        shared = skelcl.Map(j_double)
        floats = np.arange(64, dtype=np.float32)
        ints = np.arange(64, dtype=np.int32)
        with serve.Server(devices=["test", "test"], detect_races="strict") as server:
            job_a = server.client("a").submit(lambda: shared(skelcl.Vector(data=floats)))
            job_b = server.client("b").submit(lambda: shared(skelcl.Vector(data=ints)))
            assert server.metrics.value("skelcl_commands_total", kind="ndrange_kernel") == 0
            assert (job_a.state, job_b.state) == (serve.Job.QUEUED, serve.Job.QUEUED)
            stats = server.drain()
            assert stats["a"]["device_ns"] > 0 and stats["b"]["device_ns"] > 0
            for job, data in ((job_a, floats), (job_b, ints)):
                result = job.result().to_numpy()
                assert result.dtype == data.dtype and np.array_equal(result, 2 * data)
