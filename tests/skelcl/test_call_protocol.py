"""The call protocol itself (``Skeleton.__call__``): every skeleton, in
eager and lazy sessions, rejects a bad call with the same exception
before anything is enqueued, labels a good one with its call site, and
specializes a jit customizer once."""

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import ocl
from repro.jit import JitFunction
from repro.skelcl import (AllPairs, Map, MapOverlap, Matrix, Reduce, Scalar,
                          Scan, Skeleton, Vector, Zip)
from repro.skelcl.runtime import SkelCLError

N = 1024
ADD = "float func(float x, float y) { return x + y; }"
MUL = "float func(float x, float y) { return x * y; }"


@skelcl.jit
def j_neg(x):
    return -x


@skelcl.jit
def j_add(x, y):
    return x + y


@skelcl.jit
def j_blur(v: skelcl.READ[np.float32]) -> np.float32:
    return (get(v, -1) + get(v, 0) + get(v, 1)) / 3.0  # noqa: F821


def _vec(n=N):
    return np.arange(n, dtype=np.float32) % 7


def _mat():
    return (np.arange(32 * 8, dtype=np.float32) % 5).reshape(32, 8)


# name -> (make skeleton, make good inputs, numpy oracle over the inputs)
STRING = {
    "Map": (lambda: Map("float func(float x) { return -x; }"),
            lambda: (Vector(data=_vec()),), lambda a: -a),
    "Zip": (lambda: Zip(ADD),
            lambda: (Vector(data=_vec()), Vector(data=_vec())), lambda a, b: a + b),
    "Reduce": (lambda: Reduce(ADD),
               lambda: (Vector(data=_vec()),), lambda a: a.sum()),
    "Scan": (lambda: Scan(ADD),
             lambda: (Vector(data=_vec()),), lambda a: np.cumsum(a)),
    "MapOverlap": (lambda: MapOverlap("float func(float* m) { return get(m, 0); }", 1),
                   lambda: (Vector(data=_vec()),), lambda a: a),
    "AllPairs": (lambda: AllPairs(Reduce(ADD), Zip(MUL)),
                 lambda: (Matrix(data=_mat()), Matrix(data=_mat())),
                 lambda a, b: a @ b.T),
}
JIT = {
    "Map": (lambda: Map(j_neg), STRING["Map"][1], STRING["Map"][2]),
    "Zip": (lambda: Zip(j_add), STRING["Zip"][1], STRING["Zip"][2]),
    "Reduce": (lambda: Reduce(j_add), STRING["Reduce"][1], STRING["Reduce"][2]),
    "Scan": (lambda: Scan(j_add), STRING["Scan"][1], STRING["Scan"][2]),
    "MapOverlap": (lambda: MapOverlap(j_blur, 1), STRING["MapOverlap"][1], None),
}
SKELETONS = sorted(STRING)
CUSTOMIZERS = [("string", name) for name in SKELETONS] + [("jit", name) for name in sorted(JIT)]


def _case(customizer, name):
    return (STRING if customizer == "string" else JIT)[name]


@pytest.fixture(params=[False, True], ids=["eager", "lazy"])
def session(request):
    with skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE, lazy=request.param) as s:
        yield s


def _events(session):
    return sum(len(queue.events) for queue in session.queues)


def _value(result):
    return result.to_numpy()


def _rejected(session, call, exc_type):
    """``call`` raises ``exc_type`` without enqueueing anything; returns
    the message so eager and lazy texts can be compared."""
    before = _events(session)
    with pytest.raises(exc_type) as info:
        call()
    session.finish_all()
    assert _events(session) == before
    return str(info.value)


# The message each bad call must produce — identical in eager and lazy
# sessions because one code path raises it.
@pytest.mark.parametrize("customizer,name", CUSTOMIZERS)
def test_non_container_input_is_a_skelcl_error(session, customizer, name):
    make, inputs, _ = _case(customizer, name)
    skeleton = make()
    bad = [np.asarray(c.to_numpy()) for c in inputs()]
    message = _rejected(session, lambda: skeleton(*bad), SkelCLError)
    accepted = "Vector containers" if name == "Scan" else \
        "Matrix containers" if name == "AllPairs" else "Vector, Matrix"
    assert message.startswith(f"{name} operates on {accepted}")
    assert message.endswith("got ndarray")
    message = _rejected(session, lambda: skeleton(*[[1.0, 2.0]] * len(bad)), SkelCLError)
    assert message.endswith("got list")


@pytest.mark.parametrize("name", SKELETONS)
def test_wrong_dtype_is_rejected_before_any_command(session, name):
    make, inputs, _ = STRING[name]
    wrong = [type(c)(data=c.to_numpy().astype(np.int32)) for c in inputs()]
    message = _rejected(session, lambda: make()(*wrong), SkelCLError)
    assert "int32" in message or name == "AllPairs"


@pytest.mark.parametrize("name", ["Map", "Zip"])
@pytest.mark.parametrize("extras,text", [
    ((), "customized with 1 additional argument(s), called with 0"),
    ((1.0, 2.0), "customized with 1 additional argument(s), called with 2"),
    (("x",), "additional arguments must be scalars, got str"),
])
def test_wrong_additional_arguments(session, name, extras, text):
    if name == "Map":
        skeleton = Map("float func(float x, float s) { return x * s; }")
    else:
        skeleton = Zip("float func(float x, float y, float s) { return x + y * s; }")
    inputs = STRING[name][1]()
    assert text in _rejected(session, lambda: skeleton(*inputs, *extras), SkelCLError)


@pytest.mark.parametrize("name", ["Reduce", "Scan", "MapOverlap", "AllPairs"])
def test_positional_out_is_a_type_error(session, name):
    make, inputs, _ = STRING[name]
    message = _rejected(session, lambda: make()(*inputs(), Vector(N)), TypeError)
    assert message.startswith(f"{name}() no longer accepts a positional output")
    assert "out=..." in message


def test_unknown_call_keyword_is_a_type_error(session):
    make, inputs, _ = STRING["Zip"]
    message = _rejected(session, lambda: make()(*inputs(), sample_fraction=0.5), TypeError)
    assert "sample_fraction" in message


@pytest.mark.parametrize("name", ["Map", "Zip", "Scan", "MapOverlap"])
@pytest.mark.parametrize("size", [8, 2 * N], ids=["undersized", "oversized"])
def test_mismatched_out_shape(session, name, size):
    """An undersized ``out=`` used to fault inside the kernel and an
    oversized one silently scrambled the result (it was block-split by
    its own size)."""
    make, inputs, oracle = STRING[name]
    skeleton, good = make(), inputs()
    message = _rejected(session, lambda: skeleton(*good, out=Vector(size)), SkelCLError)
    assert message == f"output container has shape ({size},), expected ({N},)"
    expected = oracle(*(c.to_numpy() for c in good))
    np.testing.assert_allclose(_value(skeleton(*good, out=Vector(N))), expected)


def test_mismatched_out_kind_and_dtype(session):
    make, inputs, _ = STRING["AllPairs"]
    good = inputs()
    assert _rejected(session, lambda: make()(*good, out=Matrix((32, 31))), SkelCLError) \
        == "output container has shape (32, 31), expected (32, 32)"
    assert _rejected(session, lambda: make()(*good, out=Vector(32 * 32)), SkelCLError) \
        == "AllPairs out= must be a Matrix, got Vector"
    for name in ("Scan", "MapOverlap", "AllPairs"):
        make, inputs, _ = STRING[name]
        shape = (32, 32) if name == "AllPairs" else None
        out = Matrix(shape, dtype=np.int32) if shape else Vector(N, dtype=np.int32)
        assert _rejected(session, lambda: make()(*inputs(), out=out), SkelCLError) \
            == "output container dtype int32 does not match float"
    make, inputs, _ = STRING["Reduce"]
    assert _rejected(session, lambda: make()(*inputs(), out=Vector(1)), SkelCLError) \
        == "Reduce out= must be a Scalar, got Vector"
    assert make()(*inputs(), out=Scalar(0)).get_value() == _vec().sum()


@pytest.mark.parametrize("customizer,name", CUSTOMIZERS)
def test_default_label_names_skeleton_function_and_call_site(session, customizer, name):
    make, inputs, _ = _case(customizer, name)
    skeleton, good = make(), inputs()
    import inspect
    result = skeleton(*good); line = inspect.currentframe().f_lineno  # noqa: E702
    _value(result)
    func = "func∘func" if name == "AllPairs" else skeleton.user.name
    labels = {event.label for queue in session.queues for event in queue.events
              if event.command_type == "ndrange_kernel"}
    assert labels == {f"{name}({func})@test_call_protocol.py:{line}"}


@pytest.mark.parametrize("name", sorted(JIT))
def test_jit_customizer_is_lowered_once_per_specialization(session, name, monkeypatch):
    calls = []
    original = JitFunction.lower_source

    def counting(self, hints=None):
        calls.append(self.__name__)
        return original(self, hints)

    monkeypatch.setattr(JitFunction, "lower_source", counting)
    make, inputs, _ = JIT[name]
    skeleton = make()  # MapOverlap's annotated stencil specializes here
    _value(skeleton(*inputs()))
    assert len(calls) == 1
    _value(skeleton(*inputs()))
    assert len(calls) == 1
    if name != "MapOverlap":  # a new element type is a new specialization
        ints = [Vector(data=c.to_numpy().astype(np.int32)) for c in inputs()]
        _value(skeleton(*ints))
        assert len(calls) == 2


@pytest.mark.parametrize("name", SKELETONS)
def test_events_and_kernel_time_after_an_eager_call(name):
    make, inputs, oracle = STRING[name]
    skeleton = make()
    assert isinstance(skeleton, Skeleton)
    with skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE, lazy=False):
        result = skeleton(*inputs())
        assert skeleton.last_events
        assert all(event.label.startswith(f"{name}(") for event in skeleton.last_events)
        assert skeleton.last_kernel_time_ns > 0
        np.testing.assert_allclose(_value(result), oracle(*(c.to_numpy() for c in inputs())),
                                   rtol=1e-5)
