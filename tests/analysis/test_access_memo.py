"""The launch-shape memo of ``kernel_buffer_accesses``: a stale entry is
a missed race, so a hit must be indistinguishable from resolving the
launch afresh — on the whole kernel corpus, under the race detector,
under the launch audit, at the memo's bound and in the counters.
"""

from collections import OrderedDict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ocl
from repro.analysis import RaceError, access, affine
from repro.analysis.access import kernel_buffer_accesses
from repro.kernelc.ctypes_ import PointerType, ScalarType
from repro.ocl import program as ocl_program
from repro.scope.metrics import MetricsRegistry

from ..ocl import test_race_detector as halo
from . import test_sanitizer_footprints as residues
from . import workloads
from .test_differential import LaunchAudit

FIELDS = ("start", "stop", "mode", "stride", "width", "provenance")


def summary_of(kernel):
    return affine.cached_kernel_summary(kernel.program.compiled.program,
                                        kernel.compiled.definition)


def fresh_accesses(kernel, ndrange):
    """What the launch resolves to with nothing remembered — the answer
    every launch computed before the memo existed.  Leaves the memo as
    it found it."""
    memo = summary_of(kernel).launch_shapes
    saved = OrderedDict(memo)
    memo.clear()
    try:
        return kernel_buffer_accesses(kernel, ndrange)
    finally:
        memo.clear()
        memo.update(saved)


def memo_counts(metrics):
    return (metrics.value("skelcl_access_memo_total", result="hit"),
            metrics.value("skelcl_access_memo_total", result="miss"))


# -- (a) differential over the corpus ------------------------------------------


@pytest.fixture(scope="module")
def device():
    return ocl.Context.create(ocl.TEST_DEVICE, 1).devices[0]


@pytest.fixture(scope="module")
def corpus_kernels():
    """One unbound Kernel per ``__kernel`` function the corpus of
    ``workloads.py`` builds or ships (minus what a strict session
    refuses to build)."""
    workloads.string_skeletons()
    workloads.fused_pipelines()
    workloads.jit_corpus()
    workloads.apps()
    sources = [(source, dict(defines)) for source, defines in sorted(ocl_program._BUILD_CACHE)]
    sources += [(source, {}) for _label, source in workloads.kernel_strings()]
    kernels = []
    for source, defines in sources:
        try:
            program = ocl.Program(source, "<memo corpus>", defines).build()
        except ocl.BuildError:
            continue
        kernels += [program.create_kernel(name) for name in program.kernel_names()]
    assert len(kernels) >= 60, len(kernels)
    return kernels


_SIZES = (1, 2, 4, 6, 8, 16, 48, 64, 100)
_NBYTES = (4, 36, 256, 400, 1024, 4096)
_SCALARS = st.one_of(st.integers(-3, 120), st.just(2.5))  # 2.5: an int parameter left unbound


@st.composite
def launches(draw, kernel):
    """A launch of ``kernel``: geometry plus one drawn value per
    parameter — a byte size for a pointer, a number for a scalar."""
    dims = draw(st.integers(1, 2))
    global_size = tuple(draw(st.sampled_from(_SIZES)) for _ in range(dims))
    local_size = tuple(draw(st.sampled_from([d for d in _SIZES if g % d == 0]))
                       for g in global_size)
    values = []
    for param in kernel.params:
        ctype = param.declared_type
        if isinstance(ctype, PointerType):
            values.append(draw(st.sampled_from(_NBYTES)))
        elif isinstance(ctype, ScalarType) and ctype.is_integer():
            values.append(draw(_SCALARS))
        else:
            values.append(1.5)
    return global_size, local_size, values


@st.composite
def varied(draw, kernel, launch):
    """``launch`` with one thing changed: the geometry, or the value of
    one parameter (a scalar between two otherwise identical launches, a
    buffer of another size)."""
    global_size, local_size, values = launch
    other = draw(launches(kernel))
    which = draw(st.one_of(st.just(-1), st.integers(-1, len(values) - 1)))
    if which < 0:
        return other[0], other[1], values
    return global_size, local_size, values[:which] + [other[2][which]] + values[which + 1:]


def bind(kernel, device, launch, alias, tag):
    """Bind new buffers (new uids, names carrying ``tag``) and the
    scalars of ``launch``; with ``alias`` the second pointer parameter
    shares the first one's buffer."""
    global_size, local_size, values = launch
    buffers, args = [], []
    for index, (param, value) in enumerate(zip(kernel.params, values)):
        if not isinstance(param.declared_type, PointerType):
            args.append(value)
            continue
        if alias and len(buffers) == 1:
            args.append(buffers[0])
            continue
        # Every other buffer unnamed: its accesses take the parameter's name.
        name = f"{tag}{index}" if index % 2 else ""
        buffers.append(ocl.Buffer(device, value, name))
        args.append(buffers[-1])
    kernel.set_args(*args)
    return ocl.NDRange.create(global_size, local_size, max(_SIZES) ** 2), buffers


class TestHitEqualsFreshResolution:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_across_the_corpus(self, corpus_kernels, device, data):
        kernel = data.draw(st.sampled_from(corpus_kernels))
        first = data.draw(launches(kernel))
        second = data.draw(varied(kernel, first))
        alias = data.draw(st.booleans())
        metrics = MetricsRegistry()
        summary_of(kernel).launch_shapes.clear()
        for round_, launch in enumerate((first, second, first, second)):
            ndrange, buffers = bind(kernel, device, launch, alias, f"r{round_}b")
            declared = kernel_buffer_accesses(kernel, ndrange, metrics)
            # Field for field, identity included: the fresh resolution
            # runs on this launch's buffers.
            assert declared == fresh_accesses(kernel, ndrange)
            by_uid = {buffer.uid: buffer for buffer in buffers}
            params = {param.name for param in kernel.params}
            for declared_access in declared:
                buffer = by_uid[declared_access.buffer_uid]
                assert declared_access.buffer_name == buffer.name or (
                    not buffer.name and declared_access.buffer_name in params)
        hits, misses = memo_counts(metrics)
        assert hits + misses == 4
        assert hits >= 2  # the second visit of each launch

    def test_only_scalars_a_form_names_are_in_the_key(self, device):
        kernel = ocl.Program("""
            __kernel void k(__global const float* in, __global float* out,
                            int n, int bias, float s) {
                int i = get_global_id(0);
                if (i < n) out[i] = s * in[i] + bias;
            }""").build().create_kernel("k")
        assert summary_of(kernel).footprint_scalars == {"n"}
        summary_of(kernel).launch_shapes.clear()
        metrics = MetricsRegistry()
        ndrange = ocl.NDRange.create(64, 16)
        a, b = ocl.Buffer(device, 256, "a"), ocl.Buffer(device, 256, "b")
        stops = []
        for n, bias, s in ((40, 1, 1.0), (40, 2, 3.0), (50, 2, 3.0), (40, 7, 0.5)):
            kernel.set_args(a, b, n, bias, s)
            declared = kernel_buffer_accesses(kernel, ndrange, metrics)
            assert declared == fresh_accesses(kernel, ndrange)
            stops.append(max(access_.stop for access_ in declared))
        assert stops == [160, 160, 200, 160]
        assert memo_counts(metrics) == (2, 2)  # bias and s never miss; n does

    def test_geometry_is_in_the_key(self, device):
        kernel = ocl.Program("""
            __kernel void k(__global float* out, __global float* firsts) {
                out[get_global_id(0)] = 1.0f;
                firsts[get_group_id(0)] = 2.0f;
            }""").build().create_kernel("k")
        summary_of(kernel).launch_shapes.clear()
        kernel.set_args(ocl.Buffer(device, 4096, "out"), ocl.Buffer(device, 4096, "firsts"))
        stops = []
        for global_size, local_size in ((64, 16), (32, 16), (64, 8), (64, 16)):
            ndrange = ocl.NDRange.create(global_size, local_size)
            declared = kernel_buffer_accesses(kernel, ndrange)
            assert declared == fresh_accesses(kernel, ndrange)
            stops.append([a.stop for a in declared])
        assert stops == [[256, 16], [128, 8], [256, 32], [256, 16]]

    def test_one_buffer_bound_to_two_parameters(self, device):
        kernel = ocl.Program(halo.SCALE).build().create_kernel("scale")
        summary_of(kernel).launch_shapes.clear()
        ndrange = ocl.NDRange.create(halo.N, 256)
        separate = [ocl.Buffer(device, 4 * halo.N, name) for name in ("a", "out")]
        kernel.set_args(*separate, halo.N)
        miss = kernel_buffer_accesses(kernel, ndrange)
        shared = ocl.Buffer(device, 4 * halo.N, "both")
        kernel.set_args(shared, shared, halo.N)
        hit = kernel_buffer_accesses(kernel, ndrange)
        assert [tuple(getattr(a, f) for f in FIELDS) for a in hit] == \
               [tuple(getattr(a, f) for f in FIELDS) for a in miss]
        assert {(a.buffer_uid, a.buffer_name) for a in hit} == {(shared.uid, "both")}
        assert {a.mode for a in hit} == {"r", "w"}
        assert hit == fresh_accesses(kernel, ndrange)


# -- (b) the race detector on hits ---------------------------------------------


def launches_and_hits(ctx):
    hits, misses = memo_counts(ctx.metrics)
    launches_ = ctx.metrics.value("skelcl_commands_total", kind="ndrange_kernel")
    assert hits + misses == launches_
    return launches_, hits


class TestSameVerdictOnHits:
    def test_racy_halo_pipeline_races_again(self):
        ctx = ocl.Context.create(ocl.TEST_DEVICE, 2, detect_races="strict")
        pipeline = halo.TestHaloPipeline()._pipeline
        messages = []
        for _pass in range(2):
            before = launches_and_hits(ctx)
            with pytest.raises(RaceError, match="out0") as raised:
                pipeline(ctx, forget_edge=True)
            messages.append(str(raised.value))
        after = launches_and_hits(ctx)
        assert after[0] - before[0] == after[1] - before[1] == 1  # second pass: all hits
        strip = str.maketrans("", "", "0123456789")  # uids and timestamps differ
        assert messages[0].translate(strip) == messages[1].translate(strip)
        ctx.release()

    def test_corrected_halo_pipeline_stays_clean(self):
        ctx = ocl.Context.create(ocl.TEST_DEVICE, 2, detect_races="strict")
        for _pass in range(2):
            before = launches_and_hits(ctx)
            halo.TestHaloPipeline()._pipeline(ctx, forget_edge=False)
        after = launches_and_hits(ctx)
        assert after[0] - before[0] == after[1] - before[1] == 1
        assert ctx.check_races() == []
        ctx.release()

    def test_residue_pair_silent_then_same_phase_races(self):
        ctx = ocl.Context.create(ocl.TEST_DEVICE, 1, detect_races="strict")
        queue = ctx.queues[0]
        for _pass in range(2):
            before = launches_and_hits(ctx)
            known = len(ctx.check_races())
            out = ctx.create_buffer(4 * 2 * residues.N, queue.device)
            residues.launch(ctx, queue, residues.EVENS, "evens", out)
            residues.launch(ctx, queue, residues.ODDS, "odds", out)  # disjoint residues
            ctx.finish_all()
            assert len(ctx.check_races()) == known
            with pytest.raises(RaceError, match="arg out"):
                residues.launch(ctx, queue, residues.SAME, "same", out)
            assert len(ctx.check_races()) == known + 1
        after = launches_and_hits(ctx)
        assert after[0] - before[0] == after[1] - before[1] == 3
        ctx.release()


# -- (c) the launch audit covers hits ------------------------------------------


class HitCountingAudit(LaunchAudit):
    hits = 0

    def accesses(self, kernel, ndrange, metrics=None, plan=None):
        counter = metrics.counter("skelcl_access_memo_total", result="hit")
        before = counter.value
        declared = super().accesses(kernel, ndrange, metrics, plan)
        self.hits += counter.value - before
        return declared


def test_every_hit_is_covered_by_the_byte_trace(monkeypatch):
    audit = HitCountingAudit(monkeypatch)
    workloads.string_skeletons()
    first_launches, first_hits = audit.launches, audit.hits
    workloads.string_skeletons()  # the same shapes again, on new buffers
    assert audit.launches == 2 * first_launches
    assert audit.hits - first_hits == first_launches  # the second run: all hits
    assert audit.affine > 10 * audit.fallback


# -- (d) the bound -------------------------------------------------------------


def test_memo_stays_at_its_bound_and_right(device):
    bound = access._MAX_LAUNCH_SHAPES
    kernel = ocl.Program(halo.SCALE).build().create_kernel("scale")
    memo = summary_of(kernel).launch_shapes
    memo.clear()
    metrics = MetricsRegistry()
    ndrange = ocl.NDRange.create(halo.N, 256)
    buffers = [ocl.Buffer(device, 16 * bound * 10, name) for name in ("a", "out")]
    for n in range(1, 10 * bound + 1):  # n bounds the footprint: every n is a shape
        kernel.set_args(*buffers, n)
        declared = kernel_buffer_accesses(kernel, ndrange, metrics)
        assert declared == fresh_accesses(kernel, ndrange)
        assert {a.stop for a in declared} == {4 * min(n, halo.N)}
        assert len(memo) == min(n, bound)
    assert memo_counts(metrics) == (0, 10 * bound)
    for n in range(9 * bound + 1, 10 * bound + 1):  # the most recent shapes stayed
        kernel.set_args(*buffers, n)
        kernel_buffer_accesses(kernel, ndrange, metrics)
    assert memo_counts(metrics) == (bound, 10 * bound)
    kernel.set_args(*buffers, 1)  # the oldest went
    kernel_buffer_accesses(kernel, ndrange, metrics)
    assert memo_counts(metrics) == (bound, 10 * bound + 1)
    assert len(memo) == bound


# -- (e) the counters ----------------------------------------------------------


def test_summary_counters_do_not_depend_on_hit_or_miss():
    ctx = ocl.Context.create(ocl.TEST_DEVICE, 1)
    queue = ctx.queues[0]
    kernel = ctx.create_program("""
        __kernel void k(__global const int* t, __global int* out,
                        __global int* copy, int n) {
            int i = get_global_id(0);
            if (i < n) { out[t[i]] = i; copy[i] = t[i]; }
        }""").build().create_kernel("k")
    summary_of(kernel).launch_shapes.clear()
    per_launch = []
    for _launch in range(3):
        before = {kind: ctx.metrics.value("skelcl_access_summary_total", kind=kind)
                  for kind in ("affine", "fallback")}
        kernel.set_args(*(ctx.create_buffer(64, queue.device) for _ in range(3)), 16)
        queue.enqueue_nd_range_kernel(kernel, (16,), (4,))
        per_launch.append({kind: ctx.metrics.value("skelcl_access_summary_total", kind=kind)
                           - count for kind, count in before.items()})
    assert per_launch == [{"affine": 2, "fallback": 1}] * 3  # out[t[i]] is data dependent
    assert memo_counts(ctx.metrics) == (2, 1)
    assert launches_and_hits(ctx) == (3, 2)
    ctx.release()
