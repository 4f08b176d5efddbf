"""Differential validation of SkelAccess: for every executed kernel, the
resolved affine footprints must cover every byte the interpreter's
memory trace records — zero under-approximation, ever.  Exactness
(affine rather than whole-buffer) is measured but only soundness is
asserted per-access.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import affine
from repro.kernelc import ExecutionCounters
from repro.kernelc.frontend import compile_source

from ..kernelc.helpers import interpret, make_buffers, run_kernel


def traced_run(source, kernel_name, arrays, args, global_size,
               local_size=None):
    """Execute through the interpreter with the memory trace enabled;
    returns (program, trace, {array_id: buffer name}, scalar args)."""
    program = compile_source(source)
    counters = ExecutionCounters()
    counters.memory.trace = []
    pointers = make_buffers(arrays, counters)
    id_to_name = {id(p.array): name for name, p in pointers.items()}

    if isinstance(global_size, int):
        global_size = (global_size,)
    if local_size is None:
        local_size = global_size
    elif isinstance(local_size, int):
        local_size = (local_size,)

    # run_kernel would build fresh buffers and counters: ours carry the
    # trace, so the interpreter runs on them directly.
    from repro.kernelc.execmodel import convert_value

    definition = program.function(kernel_name)
    runtime_args = [pointers[a] if isinstance(a, str) else a for a in args]
    runtime_args = [convert_value(v, p.declared_type)
                    for v, p in zip(runtime_args, definition.params)]
    interpret(program, definition, runtime_args, counters, global_size, local_size)
    return program, counters.memory.trace, id_to_name, global_size, local_size


def check_coverage(source, kernel_name, arrays, args, global_size,
                   local_size=None):
    """Assert the affine footprints cover the full traced byte set.
    Returns True when every traced global access was covered by an
    *affine* (not fallback) range."""
    program, trace, id_to_name, global_size, local_size = traced_run(
        source, kernel_name, arrays, args, global_size, local_size)
    fn = program.function(kernel_name)
    summary = affine.summarize_kernel(program, fn)

    definition_params = {p.name for p in fn.params}
    scalar_args = {}
    for value, param in zip(args, fn.params):
        if not isinstance(value, str) and isinstance(value, (int, np.integer)):
            scalar_args[param.name] = int(value)
    env = affine.make_eval_env(global_size, local_size, scalar_args)

    # Resolve each summarized parameter to concrete byte windows.
    resolved = {}
    all_affine = True
    for name, psum in summary.params.items():
        if name not in arrays:
            continue
        nbytes = arrays[name].nbytes
        if not psum.affine:
            resolved[name] = [affine.ResolvedAccess(0, nbytes, 0, 0, "rw")]
            all_affine = False
            continue
        windows = []
        for fp in psum.footprints:
            try:
                window = affine.resolve_footprint(fp, env, psum.elem_size, nbytes)
            except affine.Unresolvable:
                window = affine.ResolvedAccess(0, nbytes, 0, 0, "rw")
                all_affine = False
            if window is not None:
                windows.append(window)
        resolved[name] = windows

    def covered(windows, byte_start, nbytes, mode):
        for w in windows:
            if mode not in w.mode and w.mode != "rw":
                continue
            if not (w.start <= byte_start and byte_start + nbytes <= w.stop):
                continue
            if w.stride:
                if (byte_start - w.start) % w.stride + nbytes > w.width:
                    continue
            return True
        return False

    for array_id, space, byte_start, nbytes, mode in trace:
        if space not in ("global", "constant"):
            continue
        name = id_to_name[array_id]
        assert name in resolved, f"traced access to unsummarized param {name}"
        assert covered(resolved[name], byte_start, nbytes, mode), (
            f"{kernel_name}: traced {mode} of {name} bytes "
            f"[{byte_start}, {byte_start + nbytes}) not covered by "
            f"{resolved[name]}"
        )
    assert definition_params  # sanity: the kernel has parameters
    return all_affine


class TestKnownKernels:
    def test_map_kernel_exact(self):
        assert check_coverage("""
            __kernel void k(__global const float* in, __global float* out,
                            int n, int off) {
                int i = get_global_id(0);
                if (i < n) out[i] = in[i + off];
            }""", "k",
            {"in": np.zeros(80, np.float32), "out": np.zeros(64, np.float32)},
            ["in", "out", 60, 3], 64, 16)

    def test_strided_kernel_exact(self):
        assert check_coverage("""
            __kernel void k(__global float* out, int n) {
                int i = get_global_id(0);
                if (i < n) out[2 * i] = 1.0f;
            }""", "k",
            {"out": np.zeros(128, np.float32)}, ["out", 60], 64, 16)

    def test_grid_stride_loop_exact(self):
        assert check_coverage("""
            __kernel void k(__global const float* in, __global float* out,
                            int n) {
                for (int i = get_global_id(0); i < n;
                     i += (int)get_global_size(0)) {
                    out[i] = in[i] * 2.0f;
                }
            }""", "k",
            {"in": np.ones(100, np.float32), "out": np.zeros(100, np.float32)},
            ["in", "out", 100], 16, 8)

    def test_data_dependent_fallback_is_still_sound(self):
        # Index depends on loaded data: analysis must fall back to the
        # whole buffer, which still covers the trace.
        table = np.arange(16, dtype=np.int32) % 7
        assert not check_coverage("""
            __kernel void k(__global const int* t, __global int* out, int n) {
                int i = get_global_id(0);
                if (i < n) out[t[i]] = i;
            }""", "k",
            {"t": table, "out": np.zeros(16, np.int32)}, ["t", "out", 16],
            16, 4)


_OFFSETS = st.integers(min_value=0, max_value=3)
_STRIDES = st.sampled_from([1, 2, 3])
_SCALES = st.sampled_from(["i", "2 * i", "3 * i + 1", "i + off"])


class TestPropertyCoverage:
    @settings(max_examples=40, deadline=None)
    @given(expr=_SCALES, off=_OFFSETS, n=st.integers(min_value=1, max_value=48))
    def test_affine_index_families_always_covered(self, expr, off, n):
        source = f"""
            __kernel void k(__global const float* in, __global float* out,
                            int n, int off) {{
                int i = get_global_id(0);
                if (i < n) out[{expr}] = in[{expr}];
            }}"""
        size = 4 * 48 + 16  # room for every generated index
        check_coverage(source, "k",
                       {"in": np.zeros(size, np.float32),
                        "out": np.zeros(size, np.float32)},
                       ["in", "out", n, off], 48, 16)

    @settings(max_examples=25, deadline=None)
    @given(start=_OFFSETS, step=_STRIDES,
           bound=st.integers(min_value=1, max_value=40))
    def test_loop_families_always_covered(self, start, step, bound):
        source = f"""
            __kernel void k(__global float* out, int n) {{
                int g = get_global_id(0);
                for (int i = g + {start}; i < n; i += {step * 8}) {{
                    out[i] = (float)g;
                }}
            }}"""
        check_coverage(source, "k", {"out": np.zeros(64, np.float32)},
                       ["out", bound], 8, 8)


# -- the generated corpus ------------------------------------------------------
#
# The same two checks, on every kernel launch of tests/analysis/workloads.py
# (all six skeletons, the planner's fused kernels, the @skelcl.jit corpus,
# repro.apps, examples/): the per-item engine records the byte-accurate
# trace of each launch and the access set SkelSan computed for that very
# launch has to cover it; and whenever SkelSan declares two launches on
# one buffer conflict-free, their traces must be disjoint too — so a
# join/scope bug in the analysis core shows up as a failed assertion here,
# in either direction.


class LaunchAudit:
    """Observes ``CommandQueue.enqueue_nd_range_kernel`` from outside by
    wrapping the two names it resolves in ``repro.ocl.queue``; launches
    run on the per-item oracle, whose pointers record the trace."""

    def __init__(self, monkeypatch):
        from repro.ocl import queue

        from ..kernelc import peritem

        self.kernels = set()      # distinct kernel definitions launched
        self.launches = 0
        self.affine = self.fallback = 0
        self.disjoint_pairs = 0   # conflict-free launch pairs cross-checked
        self.history = {}         # buffer uid -> [(accesses, reads, writes)]
        self._pending = None
        self._execute = peritem.execute_ndrange
        self._accesses = queue.kernel_buffer_accesses
        monkeypatch.setattr(queue, "execute_ndrange", self.execute)
        monkeypatch.setattr(queue, "kernel_buffer_accesses", self.accesses)

    def execute(self, compiled, ndrange, args, selected, counters,
                **options):
        """The oracle's sibling launches, one at a time: each one's
        counters are taken just before its event records its access set."""
        for counter in counters:
            counter.memory.trace = []
        for one, counter in zip(args, self._execute(compiled, ndrange, args, selected,
                                                    counters, **options)):
            self._pending = (one, counter.memory.trace, selected is not None)
            yield counter

    def accesses(self, kernel, ndrange, metrics=None, plan=None):
        declared = self._accesses(kernel, ndrange, metrics, plan)
        args, trace, sampled = self._pending
        self._pending = None
        if not sampled:
            self.audit(kernel, declared, args, trace)
        return declared

    def audit(self, kernel, declared, args, trace):
        self.kernels.add(id(kernel.compiled.definition))
        self.launches += 1
        uid_of = {id(pointer.array): buffer.uid
                  for pointer, buffer in zip(args, kernel._args)
                  if getattr(buffer, "uid", None) is not None}
        touched = {}
        for array_id, space, start, nbytes, mode in trace:
            if space not in ("global", "constant"):
                continue
            uid = uid_of[array_id]
            assert any(
                a.buffer_uid == uid and mode in a.mode
                and a.start <= start and start + nbytes <= a.stop
                and (not a.stride
                     or (start - a.start) % a.stride + nbytes <= a.width)
                for a in declared), (
                f"{kernel.name}: traced {mode} of bytes [{start}, "
                f"{start + nbytes}) of buffer #{uid} is outside "
                f"{[a.describe() for a in declared if a.buffer_uid == uid]}")
            reads, writes = touched.setdefault(uid, (set(), set()))
            (writes if mode == "w" else reads).update(
                range(start, start + nbytes))
        for access in declared:  # whole-buffer fallbacks name no index
            if ", " in access.provenance:
                self.affine += 1
            else:
                self.fallback += 1
        for uid, (reads, writes) in touched.items():
            mine = [a for a in declared if a.buffer_uid == uid]
            for theirs, their_reads, their_writes in self.history.get(uid, ()):
                if any(a.conflicts_with(b) for a in mine for b in theirs):
                    continue
                self.disjoint_pairs += 1
                clash = (writes & (their_reads | their_writes)) | (
                    their_writes & reads)
                assert not clash, (
                    f"{kernel.name}: declared conflict-free with an earlier "
                    f"launch on buffer #{uid}, but both touch bytes "
                    f"{sorted(clash)[:8]}")
            self.history.setdefault(uid, []).append((mine, reads, writes))


class TestGeneratedCorpus:
    def test_every_launch_is_covered_and_disjointness_holds(
            self, monkeypatch):
        from . import workloads

        audit = LaunchAudit(monkeypatch)
        workloads.string_skeletons()
        workloads.fused_pipelines()
        workloads.jit_corpus()
        workloads.apps()
        # 4 hand kernels + 2 hypothesis families were all this file
        # checked before; the gate asks for ten times that.
        assert len(audit.kernels) >= 60, len(audit.kernels)
        assert audit.launches > len(audit.kernels)
        assert audit.affine > 10 * audit.fallback
        assert audit.disjoint_pairs > 0

    @pytest.mark.skipif(
        settings.default.max_examples <= 100,
        reason="15 s on the per-item engine: runs under the analysis-ci "
               "hypothesis profile")
    def test_example_scripts_are_covered(self, monkeypatch, tmp_path, capsys):
        from . import workloads

        audit = LaunchAudit(monkeypatch)
        workloads.examples(str(tmp_path))
        capsys.readouterr()
        assert audit.launches > len(audit.kernels) > 0


_PROGRESSIONS = st.tuples(st.sampled_from([1, 2, 3, 4, 6]),
                          st.integers(min_value=0, max_value=5))


class TestDeclaredDisjointIsDisjoint:
    """The converse of coverage, on the residue-class reasoning SkelSan
    uses for strided writers: ``out[a*i + b]`` against ``out[c*i + d]``."""

    @staticmethod
    def launch(stride, offset, n):
        source = f"""
            __kernel void k(__global float* out, int n) {{
                int i = get_global_id(0);
                if (i < n) out[{stride} * i + {offset}] = 1.0f;
            }}"""
        array = np.zeros(6 * 16 + 8, np.float32)
        program, trace, _names, gsize, lsize = traced_run(
            source, "k", {"out": array}, ["out", n], 16, 8)
        summary = affine.summarize_kernel(program, program.function("k"))
        env = affine.make_eval_env(gsize, lsize, {"n": n})
        windows = [affine.resolve_footprint(fp, env, 4, array.nbytes)
                   for fp in summary.params["out"].footprints]
        touched = {byte for _id, _space, start, nbytes, _mode in trace
                   for byte in range(start, start + nbytes)}
        return [w for w in windows if w is not None], touched

    @settings(deadline=None)  # example budget: the hypothesis profile
    @given(first=_PROGRESSIONS, second=_PROGRESSIONS,
           n=st.integers(min_value=1, max_value=16))
    def test_strided_writers(self, first, second, n):
        from repro.analysis.access import BufferAccess

        windows_a, touched_a = self.launch(*first, n)
        windows_b, touched_b = self.launch(*second, n)
        declared = [[BufferAccess(1, "out", w.start, w.stop, w.mode,
                                  w.stride, w.width) for w in windows]
                    for windows in (windows_a, windows_b)]
        if not any(a.conflicts_with(b)
                   for a in declared[0] for b in declared[1]):
            assert not touched_a & touched_b, (first, second, n)
        elif first == second:
            assert touched_a & touched_b
