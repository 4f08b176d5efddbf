"""One process of the two-process program-cache tests (run as a script).

Builds and launches one program of every skeleton kind plus four raw
kernels — a ``__constant`` global, a barrier, ``float2`` locals and a
pointer cast — and prints one JSON object: per launch the kernel name
and *every* ``ExecutionCounters`` field, per result a digest, the
session's modeled clock and its metrics.

``PROGCACHE_CHILD_GENERATORS=forbid`` makes every code-generator entry
point raise first: the process must then be served from the cache
alone.  ``PROGCACHE_CHILD_GENERATORS=lockstep`` lets the lockstep
generator run and nothing else.
"""

import dataclasses
import hashlib
import json
import os

import numpy as np

import repro.skelcl as skelcl
from repro import ocl
from repro.kernelc import compiler, vectorize
from repro.ocl import program as ocl_program
from repro.ocl import queue as ocl_queue

CONSTANT_GLOBAL = """
__constant float weights[4] = {0.5f, 1.5f, 2.5f, 3.5f};
__constant int shift = 3;
__kernel void weigh(__global const float* in, __global float* out) {
    int gid = get_global_id(0);
    out[gid] = in[gid] * weights[gid % 4] + sqrt((float)(gid + shift));
}
"""

BARRIER = """
__kernel void reverse_tiles(__global const int* in, __global int* out) {
    __local int tile[16];
    int lid = get_local_id(0);
    tile[lid] = in[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = tile[15 - lid] + min(lid, 7);
}
"""

FLOAT2 = """
__kernel void swap_pairs(__global const float* in, __global float* out) {
    int gid = get_global_id(0);
    float2 pair = (float2)(in[2 * gid], in[2 * gid + 1]);
    out[2 * gid] = pair.y + fabs(pair.x);
    out[2 * gid + 1] = pair.x;
}
"""

BITS = """
__kernel void float_bits(__global const float* in, __global float* out) {
    __global const int* bits = (__global const int*)in;
    out[get_global_id(0)] = (float)(bits[get_global_id(0)] >> 20);
}
"""

SOBEL = """
uchar func(const uchar* img) {
    short h = -1*get(img,-1,-1) +1*get(img,+1,-1) -2*get(img,-1, 0)
              +2*get(img,+1, 0) -1*get(img,-1,+1) +1*get(img,+1,+1);
    short v = -1*get(img,-1,-1) -2*get(img, 0,-1) -1*get(img,+1,-1)
              +1*get(img,-1,+1) +2*get(img, 0,+1) +1*get(img,+1,+1);
    return (uchar)sqrt((float)(h*h + v*v));
}
"""


def _forbidden(*args, **kwargs):
    raise AssertionError("a code generator ran in a process that must not generate")


def _forbid(including_lockstep: bool) -> None:
    """Make the lowering raise first, and with ``including_lockstep`` the
    lockstep generator too."""
    for module in (compiler, ocl_program):
        module.compile_program = _forbidden
    compiler._ProgramCompiler.lower = _forbidden
    if including_lockstep:
        vectorize._generate = vectorize._functions = _forbidden


def main() -> None:
    generators = os.environ.get("PROGCACHE_CHILD_GENERATORS")
    if generators in ("forbid", "lockstep"):
        _forbid(including_lockstep=generators == "forbid")

    launches = []
    execute = ocl_queue.execute_ndrange

    def recorded(compiled, *args, **kwargs):
        result = execute(compiled, *args, **kwargs)
        counters = dataclasses.asdict(result.counters)
        del counters["memory"]["trace"]
        launches.append([compiled.name, counters])
        return result

    ocl_queue.execute_ndrange = recorded

    session = skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE)
    vector, matrix = skelcl.Vector, skelcl.Matrix
    rng = np.random.RandomState(11)
    a = rng.randint(-64, 64, 192).astype(np.float32)
    b = rng.randint(1, 32, 192).astype(np.float32)
    image = rng.randint(0, 255, (12, 20)).astype(np.uint8)
    left = rng.randint(0, 8, (6, 5)).astype(np.float32)
    right = rng.randint(0, 8, (7, 5)).astype(np.float32)
    results = [
        skelcl.Map("float f(float x) { return x * 2.0f + 1.0f; }")(vector(data=a)).to_numpy(),
        skelcl.Zip("float f(float x, float y) { return x / y; }")(
            vector(data=a), vector(data=b)).to_numpy(),
        skelcl.Reduce("float f(float x, float y) { return x + y; }")(
            vector(data=a)).to_numpy(),
        skelcl.Scan("float f(float x, float y) { return x + y; }")(vector(data=a)).to_numpy(),
        skelcl.MapOverlap("float f(const float* v) { return get(v, -1) + get(v, 1); }", 1,
                          skelcl.BoundaryMode.NEAREST)(vector(data=a)).to_numpy(),
        skelcl.MapOverlap(SOBEL, 1, skelcl.BoundaryMode.NEUTRAL, 0)(
            matrix(data=image)).to_numpy(),
        skelcl.AllPairs(skelcl.Reduce("float f(float x, float y) { return x + y; }"),
                        skelcl.Zip("float g(float x, float y) { return x * y; }"))(
            matrix(data=left), matrix(data=right)).to_numpy(),
    ]

    context, queue = session.context, session.queues[0]
    for source, data in ((CONSTANT_GLOBAL, a[:64]), (BARRIER, np.arange(64, dtype=np.int32)),
                         (FLOAT2, a[:64]), (BITS, a[:64])):
        program = context.create_program(source).build()
        (name,) = program.kernel_names()
        source_buffer = context.create_buffer(data.nbytes)
        out_buffer = context.create_buffer(data.nbytes)
        queue.enqueue_write_buffer(source_buffer, data)
        kernel = program.create_kernel(name).set_args(source_buffer, out_buffer)
        items = len(data) // 2 if source is FLOAT2 else len(data)
        queue.enqueue_nd_range_kernel(kernel, (items,), (16,))
        results.append(queue.enqueue_read_buffer(out_buffer, data.dtype, len(data))[0])

    session.finish_all()
    print(json.dumps({
        "launches": launches,
        "results": [hashlib.sha256(np.ascontiguousarray(r).tobytes()).hexdigest()
                    for r in results],
        "modeled_ns": [q.time_ns for q in session.queues],
        "metrics": {name: series
                    for name, series in session.metrics.snapshot()["counters"].items()
                    if name.startswith("skelcl_program_")},
    }))
    skelcl.terminate()


if __name__ == "__main__":
    main()
