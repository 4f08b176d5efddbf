"""The persistent compiled-program cache: disk hits across build-cache
clears and across processes, env switches, and corruption tolerance —
and that a disk hit runs no code generator: an entry holds the checked
AST with the charges on its nodes, a plan file per launched kernel its
lockstep plan as a code object."""

from __future__ import annotations

import contextlib
import glob
import io
import json
import marshal
import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
import repro.skelcl as skelcl
from repro import ocl
from repro.kernelc import (ast, builtins, compile_source, compiler, lint_program, progcache,
                           vectorize)
from repro.kernelc.compiler import compile_program, restore_program
from repro.ocl import Program, clear_build_cache
from repro.ocl import program as ocl_program

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SOURCE = """
__kernel void triple(__global const float* in, __global float* out) {
    size_t gid = get_global_id(0);
    out[gid] = in[gid] * 3.0f;
}
"""


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    path = tmp_path / "programs"  # the program cache under SKELCL_DIR
    monkeypatch.setenv("SKELCL_DIR", str(tmp_path))
    monkeypatch.delenv("SKELCL_CACHE", raising=False)
    # The in-memory build cache is process-wide; start each test cold so
    # a build here actually exercises the persistent level.
    clear_build_cache()
    yield path
    clear_build_cache()


def _entries(path):
    return glob.glob(os.path.join(str(path), "*", "*.pkl"))


def _plans(path):
    return glob.glob(os.path.join(str(path), "*", "*.plan"))


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
    _launch(runtime_1gpu, create(SOURCE).build(), "triple")
    assert not os.path.exists(cache_dir)  # no entry, no plan, no directory

    clear_build_cache()
    _launch(runtime_1gpu, create(SOURCE).build(), "triple")
    assert metrics.value("skelcl_program_builds_total", result="compiled") == 2
    assert metrics.value("skelcl_program_builds_total", result="disk") == 0
    assert metrics.value("skelcl_program_codegen_total", engine="lockstep",
                         result="generated") == 2
    assert "skelcl_program_cache_total" not in metrics.snapshot()["counters"]


def test_cache_switched_off_after_the_build_reads_and_writes_no_plan(
        cache_dir, monkeypatch, runtime_1gpu):
    program = runtime_1gpu.context.create_program(SOURCE).build()
    monkeypatch.setenv("SKELCL_CACHE", "off")
    _launch(runtime_1gpu, program, "triple")
    assert len(_entries(cache_dir)) == 1 and not _plans(cache_dir)


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
    env = dict(os.environ, SKELCL_DIR=os.path.dirname(cache_dir), PYTHONPATH=SRC)
    runs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                              capture_output=True, text=True, check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    first, second = runs
    assert first["compiled"] >= 1
    assert second["compiled"] == 0
    assert second["disk"] >= 1
    assert first["checksum"] == second["checksum"]


# -- a disk hit runs no code generator ------------------------------------------


def _launch(runtime, program, name, n=64):
    """Launch kernel ``name`` (``in``, ``out`` buffers) of ``program``
    over ``n`` items; returns (output, event info but the run id)."""
    context, queue = runtime.context, runtime.queues[0]
    data = np.arange(n, dtype=np.float32)
    source, out = context.create_buffer(data.nbytes), context.create_buffer(data.nbytes)
    queue.enqueue_write_buffer(source, data)
    event = queue.enqueue_nd_range_kernel(
        program.create_kernel(name).set_args(source, out), (n,), (16,))
    info = {key: value for key, value in event.info.items() if key != "run"}
    return queue.enqueue_read_buffer(out, np.float32, n)[0], info


def _child(cache_dir, generators="allow"):
    """Run ``progcache_child.py`` in a fresh process on ``cache_dir``
    (``<SKELCL_DIR>/programs``)."""
    env = dict(os.environ, SKELCL_DIR=os.path.dirname(cache_dir), PYTHONPATH=SRC,
               PROGCACHE_CHILD_GENERATORS=generators)
    env.pop("SKELCL_CACHE", None)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "progcache_child.py")], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _generated(run):
    codegen = run["metrics"].get("skelcl_program_codegen_total", {})
    return {series: n for series, n in codegen.items() if "result=generated" in series}


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """Process A: every skeleton kind, a ``__constant``-global kernel, a
    barrier kernel, a ``float2`` one and a pointer cast, built and
    launched on an empty cache.  Returns (its report, the cache it
    filled)."""
    cache = tmp_path_factory.mktemp("two-process") / "programs"
    return _child(cache), cache


def test_warm_process_runs_no_generator_and_counts_the_same(cold_run, tmp_path):
    cold, cache = cold_run
    assert set(_generated(cold)) == {"{engine=lockstep,result=generated}"}
    assert not cold["metrics"]["skelcl_program_builds_total"].get("{result=disk}")
    # Process B: the lowering, vectorize._generate and ._functions raise.
    warm = _child(cache, generators="forbid")
    for field in ("launches", "results", "modeled_ns"):  # every ExecutionCounters field
        assert warm[field] == cold[field], field
    builds = warm["metrics"]["skelcl_program_builds_total"]
    assert builds == {"{result=disk}": len(_entries(cache))}
    assert _generated(warm) == {}
    assert set(warm["metrics"]["skelcl_program_cache_total"]) == {
        "{op=load,result=hit,what=plan}", "{op=load,result=hit,what=program}"}


def test_lost_plan_files_are_regenerated_from_the_charges_on_the_ast(cold_run, tmp_path):
    """A restored program carries its charges on its nodes: without its
    plan files the lockstep generator runs, and nothing lowers again."""
    import shutil

    cold, cache = cold_run
    copy = tmp_path / "programs"
    shutil.copytree(cache, copy)
    plans = _plans(copy)
    assert plans
    for plan in plans:
        os.unlink(plan)
    # The lowering raises.
    run = _child(copy, generators="lockstep")
    for field in ("launches", "results", "modeled_ns"):
        assert run[field] == cold[field], field
    assert run["metrics"]["skelcl_program_builds_total"] == {"{result=disk}": len(_entries(copy))}
    assert _generated(run) == {"{engine=lockstep,result=generated}": len(plans)}
    assert sorted(map(os.path.basename, _plans(copy))) == sorted(map(os.path.basename, plans))


def _rewrite(path, edit):
    with open(path, "rb") as handle:
        payload = list(pickle.load(handle))
    edit(payload)
    with open(path, "wb") as handle:
        pickle.dump(tuple(payload), handle)


def _truncate(path):
    with open(path, "rb") as handle:
        blob = handle.read()
    with open(path, "wb") as handle:
        handle.write(blob[:len(blob) // 2])


class _Unmarshalled:
    """Unpickles as ``marshal.loads(blob)``."""

    def __init__(self, blob):
        self.blob = blob

    def __reduce__(self):
        return marshal.loads, (self.blob,)


class _StaleProgram:
    """Unpickles fine; restoring it raises, as a program kept in a format
    this build no longer reads would."""

    @property
    def functions(self):
        raise RuntimeError("stale program")


def _garbage_code(path):
    """A plan's code (an entry's checked AST) no longer unmarshals."""
    def edit(payload):
        if isinstance(payload[-1], compiler.GeneratedModule):
            module = payload[-1]
            state = module.__getstate__()
            module.__getstate__ = lambda: (b"\x00garbage",) + state[1:]
        else:
            payload[1] = _Unmarshalled(b"\x00garbage")
    _rewrite(path, edit)


def _exec_raises(path):
    """A plan's code (an entry's checked AST) loads, and raises when run
    (restored)."""
    def edit(payload):
        if isinstance(payload[-1], compiler.GeneratedModule):
            payload[-1].code = compile("raise RuntimeError('stale module')", "<stale>", "exec")
        else:
            payload[1] = _StaleProgram()
    _rewrite(path, edit)


SQRT_SOURCE = """
__kernel void root(__global const float* in, __global float* out) {
    size_t gid = get_global_id(0);
    out[gid] = sqrt(in[gid]) + in[0];
}
"""


@pytest.mark.parametrize("damage", [_truncate, _garbage_code, _exec_raises])
@pytest.mark.parametrize("target", ["entry", "plan"])
def test_damaged_code_is_a_silent_miss_and_is_repaired(cache_dir, runtime_1gpu, damage, target):
    metrics, create = runtime_1gpu.metrics, runtime_1gpu.context.create_program
    expected, info = _launch(runtime_1gpu, create(SQRT_SOURCE).build(), "root")
    (path,) = _entries(cache_dir) if target == "entry" else _plans(cache_dir)
    damage(path)

    clear_build_cache()
    got, got_info = _launch(runtime_1gpu, create(SQRT_SOURCE).build(), "root")
    assert got.tobytes() == expected.tobytes() and got_info == info
    what = "program" if target == "entry" else "plan"
    assert sum(metrics.value("skelcl_program_cache_total", op="load", what=what,
                             result="error", reason=reason)
               for reason in ("UnpicklingError", "EOFError", "ValueError", "RuntimeError")) == 1
    if target == "entry":
        assert metrics.value("skelcl_program_builds_total", result="compiled") == 2
    else:
        assert metrics.value("skelcl_program_builds_total", result="disk") == 1
        assert metrics.value("skelcl_program_codegen_total", engine="lockstep",
                             result="generated") == 2
    # ... and repaired: the next fresh build is served from disk whole.
    clear_build_cache()
    before = metrics.value("skelcl_program_codegen_total", engine="lockstep", result="restored")
    again, again_info = _launch(runtime_1gpu, create(SQRT_SOURCE).build(), "root")
    assert again.tobytes() == expected.tobytes() and again_info == info
    assert metrics.value("skelcl_program_builds_total", result="disk") == \
        (1 if target == "entry" else 2)
    assert metrics.value("skelcl_program_codegen_total", engine="lockstep",
                         result="restored") == before + 1


def test_entry_of_another_interpreter_is_never_opened(cache_dir, monkeypatch, runtime_1gpu):
    """``marshal`` is version-specific: the interpreter's cache tag is
    part of the key, so a foreign entry is a plain miss."""
    metrics, create = runtime_1gpu.metrics, runtime_1gpu.context.create_program
    _launch(runtime_1gpu, create(SOURCE).build(), "triple")
    (entry,) = _entries(cache_dir)
    monkeypatch.setattr(sys.implementation, "cache_tag", "cpython-00")
    assert progcache.entry_path(preprocessed_source()) != entry

    clear_build_cache()
    out, _ = _launch(runtime_1gpu, create(SOURCE).build(), "triple")
    assert out[5] == 15.0
    assert metrics.value("skelcl_program_builds_total", result="compiled") == 2
    assert metrics.value("skelcl_program_cache_total", op="load", what="program",
                         result="miss") == 2
    assert len(_entries(cache_dir)) == 2 and len(_plans(cache_dir)) == 2


def preprocessed_source():
    return ocl_program.preprocess_source(SOURCE, "<kernel>", {})


def test_pool_builtin_that_no_longer_resolves_is_a_counted_miss(
        cache_dir, monkeypatch, runtime_1gpu):
    metrics, create = runtime_1gpu.metrics, runtime_1gpu.context.create_program
    expected, info = _launch(runtime_1gpu, create(SQRT_SOURCE).build(), "root")

    def gone(name, arg_types, resolve=builtins.resolve_builtin):
        return None if name == "sqrt" else resolve(name, arg_types)

    clear_build_cache()
    with monkeypatch.context() as patch:
        patch.setattr(builtins, "resolve_builtin", gone)
        (entry,), (plan,) = _entries(cache_dir), _plans(cache_dir)
        assert progcache.load(entry, lambda *payload: payload) is None
        assert progcache.load_plan(plan, lambda *payload: payload, metrics) is None
    assert metrics.value("skelcl_program_cache_total", op="load", what="plan", result="error",
                         reason="UnpicklingError") == 1
    got, got_info = _launch(runtime_1gpu, create(SQRT_SOURCE).build(), "root")
    assert got.tobytes() == expected.tobytes() and got_info == info
    assert metrics.value("skelcl_program_builds_total", result="disk") == 1


def test_failed_store_is_silent_to_the_build_and_counted(cache_dir, monkeypatch, runtime_1gpu):
    metrics = runtime_1gpu.metrics

    def unpicklable(self):
        raise pickle.PicklingError("a node or a pool entry that does not pickle")

    monkeypatch.setattr(ast.Program, "__getstate__", unpicklable, raising=False)
    monkeypatch.setattr(compiler.GeneratedModule, "__getstate__", unpicklable)
    program = runtime_1gpu.context.create_program(SOURCE).build()
    out, _ = _launch(runtime_1gpu, program, "triple")
    assert out[5] == 15.0 and not _entries(cache_dir) and not _plans(cache_dir)
    for what in ("program", "plan"):
        assert metrics.value("skelcl_program_cache_total", op="store", what=what,
                             result="error", reason="PicklingError") == 1


TWO_KERNELS = """
__kernel void used(__global const float* in, __global float* out) {
    out[get_global_id(0)] = in[get_global_id(0)] + 1.0f;
}
__kernel void unused(__global const float* in, __global float* out) {
    out[get_global_id(0)] = sqrt(in[get_global_id(0)]);
}
"""


def test_a_kernel_nobody_launches_costs_no_plan(cache_dir, monkeypatch, runtime_1gpu):
    generated = []
    generate = vectorize._generate
    monkeypatch.setattr(vectorize, "_generate",
                        lambda kernel, functions: generated.append(kernel.name)
                        or generate(kernel, functions))
    program = runtime_1gpu.context.create_program(TWO_KERNELS).build()
    assert generated == [] and not _plans(cache_dir)  # nothing at build
    for _ in range(2):
        _launch(runtime_1gpu, program, "used")
    assert generated == ["used"]
    assert [os.path.basename(p).split(".")[1:] for p in _plans(cache_dir)] == [["used", "plan"]]

    # A later process launches the other one: its plan is not on disk, so
    # it is generated — from the charges on the restored AST — and joins
    # the entry.
    clear_build_cache()
    program = runtime_1gpu.context.create_program(TWO_KERNELS).build()
    cold = compile_program(compile_source(TWO_KERNELS, "<cold>")).kernel("unused")
    out, info = _launch(runtime_1gpu, program, "unused")
    assert generated == ["used", "unused"] and len(_plans(cache_dir)) == 2
    assert vectorize.plan_for(program.compiled.kernel("unused")).source == \
        vectorize.plan_for(cold).source
    assert info["ops"] > 0 and out[4] == 2.0


BITS = """
__kernel void float_bits(__global const float* in, __global float* out) {
    __global const int* bits = (__global const int*)in;
    out[get_global_id(0)] = (float)(bits[get_global_id(0)] >> 20);
}
"""
BITS_OUT = (np.arange(64, dtype=np.float32).view(np.int32) >> 20).astype(np.float32)


def test_a_pointer_cast_is_planned_once_and_restored_from_disk(cache_dir, runtime_1gpu):
    metrics, create = runtime_1gpu.metrics, runtime_1gpu.context.create_program
    program = create(BITS).build()
    first, info = _launch(runtime_1gpu, program, "float_bits")
    second, again = _launch(runtime_1gpu, program, "float_bits")
    assert first.tobytes() == second.tobytes() == BITS_OUT.tobytes() and info == again
    clear_build_cache()
    restored, restored_info = _launch(runtime_1gpu, create(BITS).build(), "float_bits")
    assert restored.tobytes() == BITS_OUT.tobytes() and restored_info == info
    codegen = metrics.snapshot()["counters"]["skelcl_program_codegen_total"]
    assert codegen == {"{engine=lockstep,result=generated}": 1,
                       "{engine=lockstep,result=restored}": 1}


#: The plan-file format before the reject-reason slot went: ``(tag,
#: reason, module)``, one of the two None.
PREVIOUS_FORMAT = "skelcl-progcache-v3"


@pytest.mark.parametrize("recorded", ["reject", "module"])
def test_a_plan_file_of_the_previous_format_is_never_trusted(cache_dir, runtime_1gpu, recorded):
    """A plan file in the previous format — one recording that the kernel
    was rejected, or one holding its module — is a miss (a load error
    with its reason) and the plan is generated and stored again."""
    metrics, create = runtime_1gpu.metrics, runtime_1gpu.context.create_program
    _launch(runtime_1gpu, create(BITS).build(), "float_bits")
    (plan,) = _plans(cache_dir)
    module = progcache.load_plan(plan, lambda module: module)
    with open(plan, "wb") as handle:
        pickle.dump((PREVIOUS_FORMAT, "pointer cast", None) if recorded == "reject"
                    else (PREVIOUS_FORMAT, None, module), handle)

    clear_build_cache()
    out, _ = _launch(runtime_1gpu, create(BITS).build(), "float_bits")
    assert out.tobytes() == BITS_OUT.tobytes()
    assert metrics.value("skelcl_program_cache_total", op="load", what="plan",
                         result="error", reason="UnpicklingError") == 1
    assert metrics.value("skelcl_program_codegen_total", engine="lockstep",
                         result="generated") == 2
    assert progcache.load_plan(plan, lambda module: module).source == module.source


CONSTANT_GLOBALS = """
__constant float weights[4] = {0.5f, 1.5f, 2.5f, 3.5f};
__constant float root2 = sqrt(2.0f);
__kernel void weigh(__global const float* in, __global float* out) {
    int gid = get_global_id(0);
    out[gid] = in[gid] * weights[gid % 4] + root2;
}
"""


def test_materializing_a_module_leaves_its_constant_pool_alone(cache_dir, runtime_1gpu):
    """Running a module sets up its ``__constant`` globals, and a scalar
    initializer may take pool slots of its own: they go to a copy of the
    pool, so a module restored again and again keeps the pool it was
    generated with."""
    expected, _ = _launch(runtime_1gpu, runtime_1gpu.context.create_program(
        CONSTANT_GLOBALS).build(), "weigh")
    program = compile_program(compile_source(CONSTANT_GLOBALS))
    kernel = program.kernel("weigh")
    generated = vectorize._generate(kernel, vectorize._functions(kernel))
    (plan,) = _plans(cache_dir)
    restored = progcache.load_plan(plan, lambda module: module)
    lowering = compiler._ProgramCompiler(program.program)
    per_item = lowering.module(lowering.lower(), "<per-item>")
    sizes = len(generated.constants), len(per_item.constants)
    assert len(restored.constants) == sizes[0]
    for _ in range(3):
        vectorize._materialize(kernel, restored)
        compiler._ProgramCompiler(program.program, per_item).namespace()
    assert (len(restored.constants), len(per_item.constants)) == sizes
    clear_build_cache()
    got, _ = _launch(runtime_1gpu, runtime_1gpu.context.create_program(
        CONSTANT_GLOBALS).build(), "weigh")
    assert got.tobytes() == expected.tobytes()


def _restored(source, defines=None):
    """``source`` built cold, stored, loaded back and restored, with a
    plan per kernel taken through the cache the same way; returns (cold
    CompiledProgram, restored CompiledProgram)."""
    checked = compile_source(source, "<parity>", defines)
    cold = compile_program(checked)
    entry = progcache.entry_path(source + repr(defines))
    assert progcache.store(entry, checked, lint_program(checked)), \
        "progcache.store refused the entry"
    restored = progcache.load(entry, lambda program, lint: restore_program(program))
    for name, kernel in cold.kernels.items():
        kernel.plan_path = restored.kernels[name].plan_path = progcache.plan_path(entry, name)
        vectorize.plan_for(kernel)  # plans the cold kernel: writes the plan file
        assert os.path.exists(kernel.plan_path), f"no plan stored for kernel {name}"
    return cold, restored


def test_every_corpus_program_stores_and_restores_to_the_golden_code(cache_dir, monkeypatch):
    """Every program of ``repro.apps``, the skeleton templates, the jit
    and fusion corpora and the ``tests/kernelc`` differential corpus
    pickles (a silent ``False`` from ``store`` is how an unpicklable pool
    entry hides), and what comes back carries the cold charges and load
    CSE on its nodes and is, hash for hash, the code-generation golden —
    lowered again for the per-item hash, and with the generators switched
    off for the lockstep plans."""
    from tests.analysis import workloads
    from tests.analysis.test_verdict_parity import _digest
    from tests.kernelc import peritem
    from tests.kernelc import test_codegen_parity as parity
    from tests.kernelc.test_vectorize_differential import _corpus_cases

    with open(parity.GOLDEN) as handle:
        golden = json.load(handle)
    corpus = [("+".join(sorted(k.name for k in compile_source(s, "<p>", dict(d)).kernels()))
               + "#" + _digest(s + repr(d)), s, dict(d)) for s, d in workloads.built_programs()]
    corpus += [(label, s, None) for label, s in workloads.kernel_strings()]
    corpus += [("seed:" + case.id, case.values[0], None) for case in _corpus_cases()]
    assert sorted(label for label, _, _ in corpus) == sorted(golden)

    pairs = [(label, *_restored(source, defines)) for label, source, defines in corpus]
    for label, cold, restored in pairs:
        assert _records(restored.program) == _records(cold.program), label
    per_item = {label: parity._sha(peritem.source(restored.program))
                for label, _, restored in pairs}

    def forbidden(*args, **kwargs):
        raise AssertionError("a generator ran for a restored program")

    monkeypatch.setattr(compiler, "compile_program", forbidden)
    monkeypatch.setattr(compiler._ProgramCompiler, "lower", forbidden)
    monkeypatch.setattr(vectorize, "_generate", forbidden)
    monkeypatch.setattr(vectorize, "_functions", forbidden)
    for label, cold, restored in pairs:
        lockstep = {name: parity._sha(vectorize.plan_for(kernel).source)
                    for name, kernel in restored.kernels.items()}
        assert {"per_item": per_item[label], "lockstep": lockstep} == golden[label], label


def _records(program):
    """What the lowering recorded on ``program``, node by node in walk
    order: the charge, and where a load's CSE source sits in that order."""
    nodes = [node for function in program.functions for node in ast.walk(function)]
    position = {id(node): index for index, node in enumerate(nodes)}
    return [(node.charge, getattr(node, "cse_origin", False),
             position.get(id(getattr(node, "cse_source", None)))) for node in nodes]


def test_cli_prints_for_a_restored_program_what_it_prints_cold(cache_dir, capsys):
    """``python -m repro.kernelc --python`` shows each kernel's lockstep
    source; a restored program carries the same text."""
    from repro.kernelc.__main__ import _print_python

    source = TWO_KERNELS + (
        "__kernel void pairs(__global float2* v) { v[0].x = 1.0f; }\n"
        "__kernel void bits(__global float* v) { ((__global int*)v)[0] = 1; }\n")
    _print_python(compile_source(source, "<cli>"), "<cli>")
    printed = capsys.readouterr().out
    _cold, restored = _restored(source)
    text = "".join(f"# <cli>: kernel {kernel.name}: lockstep source\n"
                   + vectorize.plan_for(kernel).source for kernel in restored.kernels.values())
    assert text == printed
    assert "kernel pairs: lockstep source" in printed and "kernel bits: lockstep source" in printed
