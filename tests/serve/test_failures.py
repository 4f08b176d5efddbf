"""When a job fails: the launch's error is the job's outcome — ``failed``
with the error attached, bytes released, the kernel-ns it did spend
charged — never the scheduler's: one ``drain()`` returns normally and
every other tenant's job runs as if the failing tenant had not been
there.  A submit that raises leaves nothing behind."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import ocl, serve
from repro.kernelc.memory import KernelFault

_DATA = np.arange(1, 17, dtype=np.float32)
INC = skelcl.Map("float f(float x) { return x + 1.0f; }")
# Traps at the element 9, which device 1 of 2 owns: device 0's launch runs.
TRAPPING = ("float func(float* v) { int z = (int)get(v, 0) - 9; "
            "return get(v, 1) + (float)(10 / z); }")
# 16 KiB per device: the third 8 KiB vector of a graph no longer fits.
_SMALL = dataclasses.replace(ocl.TEST_DEVICE, name="small", global_mem_bytes=16 << 10)


def _trapping_graph():
    stencil = skelcl.MapOverlap(TRAPPING, 1, skelcl.SCL_NEUTRAL, 0.0)
    return stencil(skelcl.Vector(data=_DATA))


def _oom_graph():
    """Three 8 KiB vectors (and the scans' scratch) alive at once on one
    16 KiB device."""
    scan = skelcl.Scan("float s(float x, float y) { return x + y; }")
    return scan(scan(skelcl.Vector(data=np.ones(2048, np.float32))))


def _kernel_ns_of(server, tenant):
    return sum(event.duration_ns for queue in server.session.queues for event in queue.events
               if event.command_type == "ndrange_kernel" and event.info.get("tenant") == tenant)


def _solo_b(devices, policy):
    """Tenant b's job on a server that never saw tenant a."""
    with serve.Server(devices=devices, policy=policy) as server:
        job = server.client("b").submit_map(INC, _DATA)
        server.drain()
        return job.result(), job.cost_ns


@pytest.mark.parametrize("policy", ["drr", "fifo"])
@pytest.mark.parametrize("graph, devices, error", [
    (_trapping_graph, ["test", "test"], KernelFault),
    (_oom_graph, [_SMALL], ocl.OutOfResources),
], ids=["kernel-fault", "out-of-resources"])
def test_a_failing_job_fails_alone(graph, devices, error, policy):
    expected, solo_cost = _solo_b(devices, policy)
    with serve.Server(devices=devices, policy=policy) as server:
        a, b = server.client("a"), server.client("b")
        job_a = a.submit(graph, label="doomed")
        job_b = b.submit_map(INC, _DATA)
        assert server.tenants["a"].inflight_bytes == job_a.input_bytes > 0
        stats = server.drain()  # one drain, returning normally
        tenant_a = server.tenants["a"]
        assert (job_a.state, job_b.state) == (serve.Job.FAILED, serve.Job.DONE)
        assert isinstance(job_a.error, error) and job_a.error.__traceback__ is None
        assert "[in " in str(job_a.error)  # names the call that failed
        with pytest.raises(serve.JobFailed, match="doomed") as failed:
            job_a.result()
        assert failed.value.__cause__ is job_a.error
        assert tenant_a.inflight_bytes == 0 and not tenant_a.queue
        assert tenant_a.device_ns_total == _kernel_ns_of(server, "a") == job_a.cost_ns
        if error is KernelFault:
            assert tenant_a.device_ns_total > 0  # device 0's launch ran and is paid for
        assert np.array_equal(job_b.result(), expected) and job_b.cost_ns == solo_cost
        assert (stats["a"]["failed"], stats["a"]["completed"]) == (1, 0)
        assert (stats["b"]["failed"], stats["b"]["completed"]) == (0, 1)
        metrics = server.metrics
        assert metrics.value("skelcl_serve_jobs_total", tenant="a", outcome="failed") == 1
        assert metrics.value("skelcl_serve_jobs_total", tenant="a", outcome="completed") == 0
        assert metrics.value("skelcl_serve_jobs_total", tenant="b", outcome="completed") == 1
        assert server.planner.pending == []
        # Service goes on, for the tenant that failed too.
        again = a.submit_map(INC, _DATA)
        server.drain()
        assert np.array_equal(again.result(), expected)


def test_a_faulting_batch_fails_every_job_of_the_launch():
    trapping = skelcl.Map("float f(float x) { int z = (int)x - 9; return (float)(10 / z); }")
    with serve.Server(devices=["test"]) as server:
        a, b = server.client("a"), server.client("b")
        batch = [a.submit_map(trapping, _DATA[i:i + 4]) for i in range(0, 16, 4)]
        fine = b.submit_map(INC, _DATA)
        server.drain()
        assert [job.state for job in batch] == [serve.Job.FAILED] * 4
        assert all(job.batched and job.error is batch[0].error for job in batch)
        assert server.metrics.value("skelcl_serve_batches_total", tenant="a") == 1
        assert server.metrics.value("skelcl_serve_jobs_total", tenant="a", outcome="failed") == 4
        assert server.tenants["a"].inflight_bytes == 0
        assert np.array_equal(fine.result(), _DATA + 1)


def test_the_rest_of_a_failed_graph_never_runs():
    def graph():
        doomed = _trapping_graph()
        return doomed, INC(skelcl.Vector(data=_DATA))  # independent of the fault

    with serve.Server(devices=["test", "test"]) as server:
        job = server.client("a").submit(graph)
        server.drain()
        assert job.state == serve.Job.FAILED and server.planner.pending == []
        assert server.metrics.value("skelcl_plan_discarded_total", op="map") == 1
        for container in job.value:  # both poisoned with the job's error
            with pytest.raises(KernelFault, match=r"\[in MapOverlap\(func\)@"):
                container.to_numpy()


def test_a_submit_that_raises_leaves_nothing_behind():
    def raising():
        INC(skelcl.Vector(data=_DATA))
        raise ValueError("midway")

    with serve.Server(devices=["test"]) as server:
        client = server.client("a")
        with pytest.raises(ValueError, match="midway"):
            client.submit(raising)
        assert server.planner.pending == []
        assert server.metrics.value("skelcl_plan_discarded_total", op="map") == 1
        assert server.tenants["a"].jobs_submitted == 0
        assert server.drain()["a"]["queued"] == 0
    assert server.metrics.value("skelcl_commands_total", kind="ndrange_kernel") == 0
