"""The host allocator policy (:mod:`repro.ocl.hostmem`): applied by the
first ``Context`` of a process, once, harmless where it cannot be — and
the page-fault tax of large lane temporaries it removes, as a number."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro import ocl
from repro.ocl import hostmem

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _run_child(code: str, tmp_path) -> dict:
    """``code`` in a fresh interpreter with no ``SKELCL_*`` setting and
    its own ``SKELCL_DIR``; its last output line, parsed."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("SKELCL_")}
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), SKELCL_DIR=str(tmp_path / "skelcl"))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- (a) the fault tax --------------------------------------------------------

# The pipeline of bench/workloads.py::StencilFrames: 256x256 over four
# devices is 16,384 lanes per launch, so every int64/float64 lane
# temporary is 128 KiB — glibc's default mmap and trim threshold.
_FRAMES = """
    import json, resource
    import numpy as np
    import repro.skelcl as skelcl
    from repro import ocl
    from repro.ocl import hostmem

    WARMUP, MEASURED, THRESHOLD = 3, 6, 40
    rng = np.random.RandomState(0)
    frames = [rng.randint(0, 256, (256, 256)).astype(np.uint8)
              for _ in range(WARMUP + MEASURED)]
    session = skelcl.init(num_devices=4, spec=ocl.TESLA_T10)
    blur = skelcl.MapOverlap('''
        uchar func(const uchar* img) {
            int sum = 1 * get(img, -1, -1) + 2 * get(img, 0, -1) + 1 * get(img, +1, -1)
                    + 2 * get(img, -1,  0) + 4 * get(img, 0,  0) + 2 * get(img, +1,  0)
                    + 1 * get(img, -1, +1) + 2 * get(img, 0, +1) + 1 * get(img, +1, +1);
            return (uchar)(sum / 16);
        }''', 1, skelcl.BoundaryMode.NEAREST)
    sobel = skelcl.MapOverlap('''
        uchar func(const uchar* img) {
            short h = -1*get(img,-1,-1) +1*get(img,+1,-1)
                      -2*get(img,-1, 0) +2*get(img,+1, 0)
                      -1*get(img,-1,+1) +1*get(img,+1,+1);
            short v = -1*get(img,-1,-1) -2*get(img, 0,-1) -1*get(img,+1,-1)
                      +1*get(img,-1,+1) +2*get(img, 0,+1) +1*get(img,+1,+1);
            return (uchar)sqrt((float)(h*h + v*v));
        }''', 1, skelcl.BoundaryMode.NEUTRAL, 0)
    binarize = skelcl.Map("uchar func(uchar x, int t) { return x > t ? 1 : 0; }")
    widen = skelcl.Map("int func(uchar x) { return x; }")
    count = skelcl.Reduce("int func(int a, int b) { return a + b; }")

    def step(frame):
        edges = sobel(blur(skelcl.Matrix(data=frame)))
        return count(widen(binarize(edges, THRESHOLD))).get_value()

    counts = [step(frame) for frame in frames[:WARMUP]]
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    counts += [step(frame) for frame in frames[WARMUP:]]
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    gauges = session.metrics_snapshot()["gauges"]
    print(json.dumps({
        "policy": hostmem.policy(),
        "faults_per_frame": faults / MEASURED,
        "edge_pixels": [int(c) for c in counts],
        "info": gauges["skelcl_host_allocator_info"],
        "minor_faults": gauges["skelcl_host_minor_faults"]["_"],
    }))
"""


def test_a_warm_stencil_frame_takes_no_fresh_pages(tmp_path):
    # This process's policy tells whether a child's can take effect.
    ocl.Context.create(ocl.TEST_DEVICE)
    if hostmem.policy() != hostmem.PINNED:
        pytest.skip(f"host allocator policy is {hostmem.policy()!r}: no glibc "
                    "mallopt here, so large temporaries still fault in fresh pages")
    child = _run_child(_FRAMES, tmp_path)
    assert child["policy"] == "glibc-thresholds"
    assert child["info"] == {"{policy=glibc-thresholds}": 1}
    assert all(0 < pixels < 256 * 256 for pixels in child["edge_pixels"])
    # ~8,000 per frame at glibc's defaults, ~13 with both thresholds pinned.
    assert child["faults_per_frame"] < 500
    assert child["minor_faults"] > 0


# -- (b) once, by the first context, and harmless where it cannot apply -------

class _Libc:
    """A stand-in for ``ctypes.CDLL(None)`` whose ``mallopt`` records its
    calls (a plain function: like a ctypes one it takes ``argtypes``)."""

    def __init__(self, returns: int = 1):
        self.calls = calls = []

        def mallopt(param: int, value: int) -> int:
            calls.append((param, value))
            return returns
        self.mallopt = mallopt


@pytest.fixture
def fresh_process(monkeypatch):
    """``hostmem`` as in a process that has built no context yet."""
    monkeypatch.setattr(hostmem, "_policy", None)

    def install(loader):
        loads = []

        def spy():
            loads.append(1)
            return loader()
        monkeypatch.setattr(hostmem, "_libc", spy)
        return loads
    return install


def test_the_first_context_applies_the_policy_and_no_later_one_does(fresh_process):
    libc = _Libc()
    loads = fresh_process(lambda: libc)
    assert hostmem.policy() == "default"  # nothing applied yet
    ocl.Context.create(ocl.TEST_DEVICE)
    assert loads == [1]
    # Both thresholds, the one glibc can refuse first.
    assert libc.calls == [(hostmem.M_MMAP_THRESHOLD, 32 << 20),
                          (hostmem.M_TRIM_THRESHOLD, 64 << 20)]
    assert hostmem.policy() == "glibc-thresholds"
    ocl.Context.create(ocl.TEST_DEVICE, 2)
    hostmem.keep_heap_mapped()
    assert hostmem.policy() == "glibc-thresholds"
    assert loads == [1] and len(libc.calls) == 2


def _raises_oserror():
    raise OSError("no handle on the C library")


@pytest.mark.parametrize("case", ["oserror", "no-mallopt", "refused"])
def test_where_mallopt_is_unusable_the_default_stays_and_contexts_work(
        fresh_process, case):
    refusing = _Libc(returns=0)
    loads = fresh_process({"oserror": _raises_oserror, "no-mallopt": object,
                           "refused": lambda: refusing}[case])
    context = ocl.Context.create(ocl.TEST_DEVICE)
    assert hostmem.policy() == "default"
    # Both or neither: a refused mmap threshold leaves trim alone.
    assert refusing.calls == ([(hostmem.M_MMAP_THRESHOLD, 32 << 20)]
                              if case == "refused" else [])
    gauges = context.metrics_snapshot()["gauges"]
    assert gauges["skelcl_host_allocator_info"] == {"{policy=default}": 1}
    ocl.Context.create(ocl.TEST_DEVICE)
    assert loads == [1]  # decided once, not retried per context


# -- (c) importing is not enough ----------------------------------------------

def test_importing_the_package_does_not_touch_the_allocator(tmp_path):
    child = _run_child("""
        import json
        import repro, repro.skelcl, repro.serve
        from repro import ocl
        from repro.ocl import hostmem
        imported = hostmem._policy
        ocl.Context.create(ocl.TEST_DEVICE)
        print(json.dumps({"imported": imported, "after_context": hostmem._policy}))
    """, tmp_path)
    assert child["imported"] is None
    assert child["after_context"] in ("glibc-thresholds", "default")
