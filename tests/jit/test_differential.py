"""The jit differential harness, hand-written half.

Every corpus function runs twice: lowered through a skeleton (OpenCL-C,
on the lockstep engine and on the per-item oracle) and directly as
Python on NumPy scalars
(the host oracle).  The results must agree **bit-exactly** — same
dtype, same shape, same bytes.  See ``tests/jit/corpus.py`` for the
corpus and the oracle's NEP 50 dtype rules.
"""

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro.skelcl import (BoundaryMode, IndexMatrix, IndexVector, Map,
                          MapOverlap, Matrix, Reduce, Scan, Vector, Zip)

from . import corpus
from .corpus import (host_map, host_mapoverlap, host_reduce, host_scan,
                     host_zip, make_data)


def assert_bitexact(result, expected, context=""):
    result = np.asarray(result)
    expected = np.asarray(expected)
    assert result.dtype == expected.dtype, \
        f"{context}: dtype {result.dtype} != oracle {expected.dtype}"
    assert result.shape == expected.shape, \
        f"{context}: shape {result.shape} != oracle {expected.shape}"
    if result.tobytes() != expected.tobytes():
        np.testing.assert_array_equal(result, expected, err_msg=context)
        raise AssertionError(f"{context}: results differ bitwise (NaN/-0.0?)")


def _params(cases):
    out = []
    for index, case in enumerate(cases):
        for dt in case.dtypes:
            suffix = f"-x{len(case.extras)}" if case.extras else ""
            out.append(pytest.param(
                case, dt, id=f"{index}-{case.fn.__name__}-{dt}{suffix}"))
    return out


class TestMapCorpus:
    @pytest.mark.parametrize("case,dtype", _params(corpus.MAP_CASES))
    def test_map_vs_host_oracle(self, runtime_backend, rng, case, dtype):
        data = make_data(dtype, case.domain, rng)
        result = Map(case.fn)(Vector(data=data), *case.extras)
        expected = host_map(case.fn, data, case.extras)
        assert_bitexact(result.to_numpy(), expected, case.fn.__name__)

    def test_map_on_matrix(self, runtime_backend, rng):
        data = make_data("float32", "any", rng, n=6 * 9).reshape(6, 9)
        result = Map(corpus.m_scale_shift)(Matrix(data=data))
        assert_bitexact(result.to_numpy(), host_map(corpus.m_scale_shift, data))

    def test_map_multi_device(self, runtime_2gpu, rng):
        data = make_data("float32", "any", rng, n=517)
        result = Map(corpus.m_locals)(Vector(data=data))
        assert_bitexact(result.to_numpy(), host_map(corpus.m_locals, data))

    def test_same_jit_object_respecializes_across_dtypes(self, runtime_1gpu, rng):
        square = Map(corpus.m_square)
        for dtype in ("float32", "int32", "float64"):
            data = make_data(dtype, "any", rng)
            assert_bitexact(square(Vector(data=data)).to_numpy(),
                            host_map(corpus.m_square, data), dtype)


class TestZipCorpus:
    @pytest.mark.parametrize("case,dtype_pair", [
        pytest.param(case, case.dtypes,
                     id=f"{i}-{case.fn.__name__}-{'-'.join(case.dtypes)}")
        for i, case in enumerate(corpus.ZIP_CASES)
    ])
    def test_zip_vs_host_oracle(self, runtime_backend, rng, case, dtype_pair):
        left = make_data(dtype_pair[0], case.domain, rng)
        right = make_data(dtype_pair[1], case.domain, rng)
        result = Zip(case.fn)(Vector(data=left), Vector(data=right), *case.extras)
        expected = host_zip(case.fn, left, right, case.extras)
        assert_bitexact(result.to_numpy(), expected, case.fn.__name__)


class TestReduceCorpus:
    @pytest.mark.parametrize("fn,identity,dtype,domain", [
        pytest.param(*case, id=f"{case[0].__name__}-{case[2]}")
        for case in corpus.REDUCE_CASES
    ])
    def test_reduce_vs_host_oracle(self, runtime_backend, rng, fn, identity,
                                   dtype, domain):
        data = make_data(dtype, domain, rng, n=301)
        result = Reduce(fn, identity)(Vector(data=data)).to_numpy()
        assert_bitexact(result, host_reduce(fn, data), fn.__name__)


class TestScanCorpus:
    @pytest.mark.parametrize("fn,identity,dtype,domain", [
        pytest.param(*case, id=f"{case[0].__name__}-{case[2]}")
        for case in corpus.SCAN_CASES
    ])
    def test_scan_vs_host_oracle(self, runtime_backend, rng, fn, identity,
                                 dtype, domain):
        data = make_data(dtype, domain, rng, n=300)
        result = Scan(fn, identity)(Vector(data=data))
        assert_bitexact(result.to_numpy(), host_scan(fn, data), fn.__name__)


class TestMapOverlapCorpus:
    @pytest.mark.parametrize("fn,overlap,two_d,dtype", [
        pytest.param(*case, id=f"{case[0].__name__}")
        for case in corpus.STENCIL_CASES
    ])
    @pytest.mark.parametrize("boundary", [BoundaryMode.NEUTRAL, BoundaryMode.NEAREST],
                             ids=["neutral", "nearest"])
    def test_stencil_vs_host_oracle(self, runtime_backend, rng, fn, overlap,
                                    two_d, dtype, boundary):
        neutral = 3 if np.dtype(dtype).kind != "f" else 0.25
        if boundary is BoundaryMode.NEUTRAL:
            stencil = MapOverlap(fn, overlap, boundary, neutral)
            oracle_neutral = neutral
        else:
            stencil = MapOverlap(fn, overlap, boundary)
            oracle_neutral = None
        if two_d:
            data = make_data(dtype, "any", rng, n=12 * 17).reshape(12, 17)
            result = stencil(Matrix(data=data))
        else:
            data = make_data(dtype, "any", rng, n=97)
            result = stencil(Vector(data=data))
        expected = host_mapoverlap(fn, data, neutral=oracle_neutral)
        assert_bitexact(result.to_numpy(), expected, fn.__name__)


class TestIndexContainers:
    def test_jit_over_index_vector(self, runtime_backend):
        result = Map(corpus.m_int_arith)(IndexVector(41))
        expected = corpus.host_map(corpus.m_int_arith,
                                   np.arange(41, dtype=np.int64))
        assert_bitexact(result.to_numpy(), expected)

    def test_jit_over_index_matrix(self, runtime_1gpu):
        @skelcl.jit
        def rowcol(i, j):
            return i * 100 + j

        result = Map(rowcol)(IndexMatrix((7, 9)))
        rows, cols = np.meshgrid(np.arange(7, dtype=np.int64),
                                 np.arange(9, dtype=np.int64), indexing="ij")
        assert_bitexact(result.to_numpy(), rows * 100 + cols)


class TestMultiOutput:
    def test_tuple_return_components_via_zip(self, runtime_backend, rng):
        left = make_data("float32", "any", rng)
        right = make_data("float32", "any", rng)
        total = Zip(corpus.t_sumdiff.outputs[0])(Vector(data=left), Vector(data=right))
        delta = Zip(corpus.t_sumdiff.outputs[1])(Vector(data=left), Vector(data=right))
        assert_bitexact(total.to_numpy(),
                        host_zip(corpus.t_sumdiff.outputs[0], left, right))
        assert_bitexact(delta.to_numpy(),
                        host_zip(corpus.t_sumdiff.outputs[1], left, right))

    def test_tuple_return_components_via_map(self, runtime_backend, rng):
        data = make_data("float32", "any", rng)
        for component in corpus.t_polar.outputs:
            result = Map(component)(Vector(data=data))
            assert_bitexact(result.to_numpy(), host_map(component, data),
                            f"component {component.component}")

    def test_whole_multi_output_function_is_rejected(self, runtime_1gpu, rng):
        data = make_data("float32", "any", rng)
        with pytest.raises(skelcl.JitError, match="outputs"):
            Map(corpus.t_polar)(Vector(data=data))


class TestPlannerIntegration:
    """Jitted functions under the lazy planner: fusion still fires and
    stays bit-exact with the host oracle."""

    @pytest.fixture
    def lazy_runtime(self):
        import repro.ocl as ocl
        runtime = skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE, lazy=True)
        yield runtime
        skelcl.terminate()

    def test_jitted_map_map_fusion_fires(self, lazy_runtime, rng):
        data = make_data("float32", "any", rng)
        first = Map(corpus.m_scale_shift)
        second = Map(corpus.m_square)
        out = second(first(Vector(data=data))).to_numpy()
        expected = host_map(corpus.m_square, host_map(corpus.m_scale_shift, data))
        assert_bitexact(out, expected)
        assert lazy_runtime.metrics.value(
            "skelcl_fusion_total", rule="map_map") >= 1

    def test_jitted_map_reduce_fusion(self, lazy_runtime, rng):
        data = make_data("int32", "any", rng, n=200)
        doubled = Map(corpus.m_int_arith)(Vector(data=data))
        total = Reduce(corpus.r_add, "0")(doubled).to_numpy()
        expected = host_reduce(corpus.r_add,
                               host_map(corpus.m_int_arith, data))
        assert_bitexact(total, expected)
        assert lazy_runtime.metrics.value(
            "skelcl_fusion_total", rule="map_reduce") >= 1


class TestStringJitMixing:
    def test_jit_zip_feeds_string_reduce(self, runtime_backend, rng):
        # The paper's dot product with a jitted Zip and a string Reduce.
        left = make_data("float32", "intlike", rng, n=256)
        right = make_data("float32", "intlike", rng, n=256)
        mult = Zip(corpus.z_mult)
        sum_up = Reduce("float func(float x, float y) { return x + y; }")
        result = sum_up(mult(Vector(data=left), Vector(data=right))).to_numpy()
        expected = host_reduce(corpus.r_add,
                               host_zip(corpus.z_mult, left, right))
        assert_bitexact(result, expected)
