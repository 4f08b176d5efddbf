"""A kernel runs on the lockstep engine or fails to build with a
diagnostic: there is no engine to fall back on.

OpenCL C has no recursion, and a called function must be defined: the
type checker rejects both with a caret diagnostic.  Control flow nested
deeper than Python allows blocks (20 loops; an ``if`` takes one of the
100 indentation levels, and the function body another) fails when the
kernel's plan is generated, with a ``CompileError`` naming the kernel —
on the per-item oracle the same depth is a ``SyntaxError``.  The last
test holds the property for everything the ``tests/kernelc`` generators
draw.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernelc import compile_source, vectorize
from repro.kernelc.compiler import compile_program
from repro.kernelc.diagnostics import CompileError

from . import peritem, test_vectorize_casts as casts
from . import test_vectorize_compaction as compaction
from . import test_vectorize_differential as differential
from . import test_vectorize_vectors as vectors
from .helpers import run_kernel


def _diagnostic(source):
    with pytest.raises(CompileError) as failure:
        compile_source(source, "<probe>")
    return str(failure.value)


class TestTypeCheckerRejects:
    def test_direct_recursion(self):
        assert _diagnostic("""int f(int n) { return n < 2 ? 1 : f(n - 1); }
__kernel void k(__global int* o) { o[0] = f(3); }""") == (
            "<probe>:1:35: error: recursive call to 'f' (f -> f): OpenCL C forbids recursion\n"
            "int f(int n) { return n < 2 ? 1 : f(n - 1); }\n"
            "                                  ^^^^^^^^")

    def test_mutual_recursion(self):
        assert _diagnostic("""int odd(int n);
int even(int n) { return n == 0 ? 1 : odd(n - 1); }
int odd(int n) { return n == 0 ? 0 : even(n - 1); }
__kernel void k(__global int* o) { o[0] = even(4); }""") == (
            "<probe>:3:38: error: recursive call to 'even' (even -> odd -> even): "
            "OpenCL C forbids recursion\n"
            "int odd(int n) { return n == 0 ? 0 : even(n - 1); }\n"
            "                                     ^^^^^^^^^^^")

    def test_each_cycle_is_reported_once(self):
        message = _diagnostic("""int a(int n);
int b(int n) { return a(n) + b(n); }
int a(int n) { return b(n); }
__kernel void k(__global int* o) { o[0] = a(1); }""")
        assert message.count("error:") == 2
        assert "(b -> a -> b)" in message and "(b -> b)" in message

    def test_undefined_callee(self):
        assert _diagnostic("""float scale(float x);
__kernel void k(__global float* o) { o[0] = scale(2.0f); }""") == (
            "<probe>:2:45: error: call to 'scale', which is declared but never defined\n"
            "__kernel void k(__global float* o) { o[0] = scale(2.0f); }\n"
            "                                            ^^^^^^^^^^^")

    def test_a_prototype_followed_by_its_definition_is_fine(self):
        program = compile_source("""int twice(int x);
__kernel void k(__global int* o) { o[0] = twice(21); }
int twice(int x) { return 2 * x; }""")
        assert [fn.name for fn in program.functions] == ["k", "twice"]


def _nested_loops(depth):
    head = "".join(f"for (int i{d} = 0; i{d} < n; ++i{d}) " for d in range(depth))
    return f"__kernel void k(__global int* o, int n) {{ {head}o[get_global_id(0)] += 1; }}"


def _nested_ifs(depth):
    head = "".join(f"if (get_global_id(0) > {d}) " for d in range(depth))
    return f"__kernel void k(__global int* o, int n) {{ {head}o[get_global_id(0)] += 1; }}"


class TestNestingLimits:
    @pytest.mark.parametrize("make, limit", [(_nested_loops, 20), (_nested_ifs, 98)],
                             ids=["loops", "ifs"])
    def test_at_the_limit_the_kernel_runs_lockstep(self, make, limit):
        n = 1 if make is _nested_loops else 0
        arrays = {"o": np.zeros(128, np.int32)}
        out, _ = run_kernel(make(limit), "k", arrays, ["o", n], 128, 32, backend="vector")
        expected = [1] * 128 if make is _nested_loops else [0] * limit + [1] * (128 - limit)
        assert out["o"].tolist() == expected

    @pytest.mark.parametrize("make, depth, python_error",
                             [(_nested_loops, 21, "too many statically nested blocks"),
                              (_nested_ifs, 99, "too many levels of indentation"),
                              (_nested_ifs, 100, "too many levels of indentation")],
                             ids=["loops-21", "ifs-99", "ifs-100"])
    def test_one_past_it_the_kernel_fails_to_build(self, make, depth, python_error):
        compiled = compile_program(compile_source(make(depth), "<deep>"))
        with pytest.raises(CompileError) as failure:
            vectorize.plan_for(compiled.kernel("k"))
        message = str(failure.value)
        assert message.startswith(f"<deep>:1:1: error: kernel 'k': control flow nested too "
                                  f"deeply for the lockstep engine ({python_error})\n")
        assert not hasattr(compiled.kernel("k"), "_vector_plan")  # nothing cached
        with pytest.raises(SyntaxError):  # the oracle fails at the same depth
            peritem.functions(compiled)


# -- the property ---------------------------------------------------------------


@st.composite
def _call_graphs(draw):
    """Helpers calling one another — sometimes in a cycle, sometimes one
    that is declared and never defined — called from a kernel."""
    count = draw(st.integers(1, 4))
    names = [f"h{i}" for i in range(count)]
    calls = {name: draw(st.lists(st.sampled_from(names), max_size=2)) for name in names}
    undefined = draw(st.sets(st.sampled_from(names), max_size=1))
    prototypes = "".join(f"int {name}(int x);\n" for name in names)
    bodies = "".join(
        f"int {name}(int x) {{ return x + 1{''.join(f' + {c}(x - 1)' for c in calls[name])}; }}\n"
        for name in names if name not in undefined)
    kernel = f"__kernel void k(__global int* o) {{ o[get_global_id(0)] = {names[0]}(2); }}"
    return prototypes + bodies + kernel


@st.composite
def _nesting(draw):
    make = draw(st.sampled_from([_nested_loops, _nested_ifs]))
    limit = 20 if make is _nested_loops else 98
    return make(draw(st.integers(limit - 2, limit + 2)))


def _first(strategy):
    return strategy.map(lambda case: case[0])


_GENERATED = st.one_of(
    _first(differential._int_kernels()), _first(differential._float_kernels()),
    _first(differential._barrier_kernels()), _first(differential._gather_kernels()),
    compaction._branchy_kernels().map(lambda case: compaction._source(case[0], case[2])),
    vectors._programs().map(lambda p: vectors._SOURCE.format(t=p[0], w=p[1], body=p[2])),
    casts._casts().map(lambda case: casts._source(*case[:5])),
    _call_graphs(), _nesting())


@settings(deadline=None)  # example budget: the hypothesis profile
@given(source=_GENERATED)
def test_every_generated_kernel_runs_lockstep_or_fails_to_build(source):
    """Every kernel the generators of ``tests/kernelc`` draw either has a
    lockstep plan or fails to build with an error diagnostic."""
    try:
        compiled = compile_program(compile_source(source, "<generated>"))
        plans = [vectorize.plan_for(kernel) for kernel in compiled.kernels.values()]
    except CompileError as failure:
        assert failure.diagnostics and all(d.span is not None for d in failure.diagnostics)
        assert str(failure).startswith("<generated>:")
        return
    assert plans and all(callable(plan.run) for plan in plans)
