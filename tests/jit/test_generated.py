"""The jit differential harness, generated half.

Hypothesis draws random Python functions from the supported subset,
writes each one to a real file (``inspect`` needs the source on disk),
jits it, runs it through a skeleton on the simulated device, and
compares the result bit-for-bit against the same function run as plain
Python over NumPy scalars.  Any counterexample fails the test, so the
pass criterion is 100% of the generated corpus — stricter than the 95%
acceptance bar.  The map sweep runs on the per-item oracle and the zip
sweep on the lockstep engine; the hand-written corpus in
``test_differential.py`` already runs every construct on both.

Grammar notes (each restriction mirrors a documented jit rule, see
docs/jit.md):

* ``min``/``max`` and ternary arms come from a *dtype-preserving*
  sub-grammar over a single variable (negation, ``abs``, +/-/* with
  small int constants).  Python's ``min(np.int8(3), 0.5)`` returns
  ``0.5`` with its own type; a statically-typed kernel cannot
  reproduce a value-dependent result type, and the jit rejects arms of
  different strong types — so the generator keeps both arms at the
  variable's dtype.
* Weak integer constants stay tiny (|c| <= 5).  NEP 50 makes NumPy
  raise ``OverflowError`` for unrepresentable Python ints next to a
  small-int array, where a kernel would wrap.
* ``int(...)`` only appears range-clamped through ``math.fmod`` so the
  truncated value fits every tested dtype.
* Division denominators are ``abs(d) + 3`` — never zero, including
  after int8 wraparound (``abs(-128) + 3 == -125``).
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

try:
    from hypothesis import HealthCheck, given, settings, strategies as st
except ImportError:  # pragma: no cover - hypothesis is in the CI image
    pytest.skip("hypothesis not installed", allow_module_level=True)

import repro.ocl as ocl
import repro.skelcl as skelcl
from repro.ocl import queue
from repro.skelcl import Map, Vector, Zip

from tests.kernelc import peritem

from . import corpus
from .corpus import host_map, host_zip
from .test_differential import assert_bitexact

# How many functions each @given test draws; the corpus-size floor test
# below counts these toward the >= 200 total.
MAP_EXAMPLES = 80
ZIP_EXAMPLES = 60

DTYPES = ["int8", "int16", "int32", "int64", "float32", "float64"]

_INT_CONSTS = ["1", "2", "3", "5", "-2", "-4"]
_FLOAT_CONSTS = ["0.5", "1.5", "2.0", "-0.25", "-3.5"]


def _pure(var):
    """Expressions guaranteed to have the dtype of ``var``: closed
    under negation, abs, +/-/* with small int constants, min/max and
    ternaries between two such expressions."""
    def build(child):
        rhs = st.one_of(child, st.sampled_from(_INT_CONSTS))
        return st.one_of(
            st.tuples(child, st.sampled_from(["+", "-", "*"]), rhs).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"),
            child.map(lambda e: f"(-{e})"),
            child.map(lambda e: f"abs({e})"),
            st.tuples(st.sampled_from(["min", "max"]), child, child).map(
                lambda t: f"{t[0]}({t[1]}, {t[2]})"),
            st.tuples(child, st.sampled_from(["0", "1"]), child).map(
                lambda t: f"({t[0]} if {var} > {t[1]} else {t[2]})"),
        )
    return st.recursive(st.just(var), build, max_leaves=5)


def _anchored(varnames, pure_vars):
    """Expressions guaranteed to reference a variable (hence strongly
    typed and lint-clean for parameter usage); arbitrary promotions are
    fine everywhere except min/max/ternary, which embed only via the
    dtype-preserving sub-grammar."""
    variables = st.sampled_from(list(varnames))
    pure = st.sampled_from(list(pure_vars)).flatmap(_pure)

    def build(child):
        loose = st.one_of(
            child,
            st.sampled_from(_INT_CONSTS + _FLOAT_CONSTS),
            child.map(lambda e: f"math.sin({e})"),
            child.map(lambda e: f"math.sqrt(max({e}, 0) + 1.5)"),
            child.map(lambda e: f"float({e})"),
            child.map(lambda e: f"int(math.fmod({e}, 16.0))"),
        )
        return st.one_of(
            st.tuples(child, st.sampled_from(["+", "-", "*"]), loose).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"),
            child.map(lambda e: f"(-{e})"),
            child.map(lambda e: f"abs({e})"),
            st.tuples(child, loose).map(
                lambda t: f"({t[0]} / (abs({t[1]}) + 3))"),
        )

    return st.recursive(st.one_of(variables, pure), build, max_leaves=6)


@st.composite
def map_programs(draw):
    """A unary function body in one of three statement shapes."""
    shape = draw(st.sampled_from(["expr", "local", "loop"]))
    if shape == "expr":
        body = f"    return {draw(_anchored(('x',), ('x',)))}\n"
    elif shape == "local":
        # `t` may have any strong type, so it is anchored-only.
        body = (f"    t = {draw(_anchored(('x',), ('x',)))}\n"
                f"    return ({draw(_anchored(('x', 't'), ('x',)))}) + (t - t)\n")
    else:
        # `acc = acc * c + x` keeps acc at x's dtype, so acc is pure.
        k = draw(st.integers(min_value=1, max_value=4))
        c = draw(st.sampled_from(_INT_CONSTS))
        body = (f"    acc = x\n"
                f"    for i in range({k}):\n"
                f"        acc = acc * {c} + x\n"
                f"    return ({draw(_anchored(('acc', 'x'), ('acc', 'x')))})"
                f" + (x - x)\n")
    return f"def gen(x):\n{body}"


@st.composite
def zip_programs(draw):
    # x and y may have different dtypes, so each pure island sticks to
    # one variable; the surrounding expression mixes them freely.
    expr = draw(_anchored(("x", "y"), ("x", "y")))
    return f"def gen(x, y):\n    return ({expr}) + (x - x) + (y - y)\n"


_GENDIR = Path(tempfile.mkdtemp(prefix="skelcl_jit_gen_"))
_counter = [0]


def _jit_from_source(source):
    """Write the drawn program to a real file and jit it (inspect and
    the diagnostics machinery both read source from disk)."""
    _counter[0] += 1
    path = _GENDIR / f"gen_{_counter[0]}.py"
    path.write_text(source)
    namespace = {"math": math}
    exec(compile(source, str(path), "exec"), namespace)
    return skelcl.jit(namespace["gen"])


def _make_data(dtype, seed, n=33):
    r = np.random.RandomState(seed)
    if np.dtype(dtype).kind == "f":
        return r.uniform(-4.0, 4.0, n).astype(dtype)
    return r.randint(-4, 5, n).astype(dtype)


@pytest.fixture
def peritem_session(monkeypatch):
    monkeypatch.setattr(queue, "execute_ndrange", peritem.execute_ndrange)
    runtime = skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE)
    yield runtime
    skelcl.terminate()


@pytest.fixture
def lockstep_session():
    runtime = skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE)
    yield runtime
    skelcl.terminate()


@settings(max_examples=MAP_EXAMPLES, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(source=map_programs(), dtype=st.sampled_from(DTYPES),
       seed=st.integers(min_value=0, max_value=2**16))
def test_generated_map_bitexact(peritem_session, source, dtype, seed):
    fn = _jit_from_source(source)
    data = _make_data(dtype, seed)
    result = Map(fn)(Vector(data=data))
    expected = host_map(fn, data)
    assert_bitexact(result.to_numpy(), expected, source)


@settings(max_examples=ZIP_EXAMPLES, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(source=zip_programs(),
       dtypes=st.tuples(st.sampled_from(DTYPES), st.sampled_from(DTYPES)),
       seed=st.integers(min_value=0, max_value=2**16))
def test_generated_zip_bitexact(lockstep_session, source, dtypes, seed):
    fn = _jit_from_source(source)
    left = _make_data(dtypes[0], seed)
    right = _make_data(dtypes[1], seed + 1)
    result = Zip(fn)(Vector(data=left), Vector(data=right))
    expected = host_zip(fn, left, right)
    assert_bitexact(result.to_numpy(), expected, source)


def test_corpus_meets_size_floor():
    """Hand-written + generated functions together clear the >= 200
    function acceptance bar."""
    hand = [v for v in vars(corpus).values()
            if isinstance(v, skelcl.JitFunction)]
    components = sum(len(fn.outputs) for fn in hand
                     if fn.n_outputs is not None)
    total = len(hand) + components + MAP_EXAMPLES + ZIP_EXAMPLES
    assert total >= 200, total
