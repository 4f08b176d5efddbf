"""The persistent compiled-program cache: disk hits across build-cache
clears and across processes, env switches, and corruption tolerance."""

from __future__ import annotations

import glob
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import ocl
from repro.kernelc import progcache
from repro.ocl import Program, clear_build_cache

SOURCE = """
__kernel void triple(__global const float* in, __global float* out) {
    size_t gid = get_global_id(0);
    out[gid] = in[gid] * 3.0f;
}
"""


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    path = tmp_path / "progcache"
    monkeypatch.setenv("SKELCL_CACHE_DIR", str(path))
    monkeypatch.delenv("SKELCL_CACHE", raising=False)
    # The in-memory build cache is process-wide; start each test cold so
    # a build here actually exercises the persistent level.
    clear_build_cache()
    yield path
    clear_build_cache()


def _entries(path):
    return glob.glob(os.path.join(str(path), "*", "*.pkl"))


def test_disk_hit_after_memory_cache_clear(cache_dir, runtime_1gpu):
    # A build is counted on the metrics of the context it was made for.
    metrics, create = runtime_1gpu.metrics, runtime_1gpu.context.create_program
    create(SOURCE).build()
    assert metrics.value("skelcl_program_builds_total", result="compiled") == 1
    assert len(_entries(cache_dir)) == 1

    clear_build_cache()  # simulate a fresh process: in-memory level gone
    program = create(SOURCE).build()
    assert metrics.value("skelcl_program_builds_total", result="disk") == 1
    assert metrics.value("skelcl_program_builds_total", result="compiled") == 1
    assert "disk cache" in program.build_log
    assert program.kernel_names() == ["triple"]


def test_disk_entry_produces_identical_results(cache_dir, runtime_1gpu):
    data = np.random.RandomState(3).rand(256).astype(np.float32)
    source = "float func(float x) { return -x * 1.5f; }"
    cold = skelcl.Map(source)(skelcl.Vector(data=data)).to_numpy()

    clear_build_cache()
    # A fresh skeleton instance: the first one holds its built kernel.
    warm = skelcl.Map(source)(skelcl.Vector(data=data)).to_numpy()
    assert runtime_1gpu.metrics.value("skelcl_program_builds_total", result="disk") >= 1
    assert cold.tobytes() == warm.tobytes()


def test_skelcl_cache_off_disables_persistence(cache_dir, monkeypatch, runtime_1gpu):
    monkeypatch.setenv("SKELCL_CACHE", "off")
    metrics, create = runtime_1gpu.metrics, runtime_1gpu.context.create_program
    create(SOURCE).build()
    assert not _entries(cache_dir)

    clear_build_cache()
    create(SOURCE).build()
    assert metrics.value("skelcl_program_builds_total", result="compiled") == 2
    assert metrics.value("skelcl_program_builds_total", result="disk") == 0


def test_corrupt_entry_falls_back_to_cold_compile(cache_dir, runtime_1gpu):
    metrics, create = runtime_1gpu.metrics, runtime_1gpu.context.create_program
    create(SOURCE).build()
    (entry,) = _entries(cache_dir)
    with open(entry, "wb") as handle:
        handle.write(b"not a pickle")

    clear_build_cache()
    program = create(SOURCE).build()
    assert metrics.value("skelcl_program_builds_total", result="compiled") == 2
    assert metrics.value("skelcl_program_builds_total", result="disk") == 0
    assert program.kernel_names() == ["triple"]
    # The cold compile repaired the entry in place.
    clear_build_cache()
    create(SOURCE).build()
    assert metrics.value("skelcl_program_builds_total", result="disk") == 1


def test_distinct_defines_with_same_expansion_share_an_entry(cache_dir):
    plain = "__kernel void k(__global int* out) { out[get_global_id(0)] = 7; }"
    defined = "__kernel void k(__global int* out) { out[get_global_id(0)] = N; }"
    Program(plain).build()
    Program(defined, defines={"N": "7"}).build()
    assert len(_entries(cache_dir)) == 1


def test_entry_path_depends_on_toolchain_fingerprint(cache_dir, monkeypatch):
    before = progcache.entry_path(SOURCE)
    monkeypatch.setattr(progcache, "_fingerprint_cache", "different-toolchain")
    assert progcache.entry_path(SOURCE) != before


_CHILD = textwrap.dedent("""
    import json
    import numpy as np
    import repro.skelcl as skelcl
    from repro import ocl

    runtime = skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE)
    data = np.arange(64, dtype=np.float32)
    result = skelcl.Map(
        "float func(float x) { return x * 5.0f + 1.0f; }"
    )(skelcl.Vector(data=data)).to_numpy()
    metrics = runtime.metrics
    print(json.dumps({
        "compiled": metrics.value("skelcl_program_builds_total", result="compiled"),
        "disk": metrics.value("skelcl_program_builds_total", result="disk"),
        "checksum": float(result.sum()),
    }))
    skelcl.terminate()
""")


def test_second_process_builds_from_disk(cache_dir, tmp_path):
    import json

    env = dict(os.environ, SKELCL_CACHE_DIR=str(cache_dir),
               PYTHONPATH="src")
    runs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                              capture_output=True, text=True, cwd="/root/repo",
                              check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    first, second = runs
    assert first["compiled"] >= 1
    assert second["compiled"] == 0
    assert second["disk"] >= 1
    assert first["checksum"] == second["checksum"]
