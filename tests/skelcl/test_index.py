"""IndexVector/IndexMatrix tests: virtual containers, zero transfers."""

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro.skelcl import Block, Copy, IndexMatrix, IndexVector, Map, Single, Vector
from repro.skelcl.runtime import SkelCLError


class TestIndexVectorBasics:
    def test_elements_are_indices(self, runtime_1gpu):
        iv = IndexVector(5)
        assert list(iv) == [0, 1, 2, 3, 4]
        assert iv[3] == 3
        assert len(iv) == 5

    def test_out_of_range(self, runtime_1gpu):
        with pytest.raises(IndexError):
            IndexVector(4)[4]

    def test_invalid_size(self, runtime_1gpu):
        with pytest.raises(ValueError):
            IndexVector(0)

    def test_chunks_follow_distribution(self, runtime_4gpu):
        iv = IndexVector(100)
        split = runtime_4gpu.partition
        chunks = iv.chunks(split)
        assert [c.owned_size for c in chunks] == [25, 25, 25, 25]
        iv.set_distribution(Single(2))
        assert len(iv.chunks(split)) == 1
        assert iv.chunks(split)[0].device_index == 2

    def test_index_matrix(self, runtime_1gpu):
        im = IndexMatrix((3, 4))
        assert im[1, 2] == 6
        assert im.size == 12
        with pytest.raises(IndexError):
            im[3, 0]


class TestMapOverIndexVector:
    def test_identity_map(self, runtime_2gpu):
        ident = Map("int func(int i) { return i; }")
        out = ident(IndexVector(100))
        np.testing.assert_array_equal(out.to_numpy(), np.arange(100, dtype=np.int32))

    def test_computation_from_index(self, runtime_2gpu):
        squares = Map("long func(int i) { return (long)i * i; }")
        out = squares(IndexVector(50))
        np.testing.assert_array_equal(out.to_numpy(), (np.arange(50, dtype=np.int64)) ** 2)

    def test_with_extra_args(self, runtime_2gpu):
        linear = Map("float func(int i, float a, float b) { return a * i + b; }")
        out = linear(IndexVector(20), 2.0, 1.0)
        np.testing.assert_allclose(out.to_numpy(), 2.0 * np.arange(20) + 1.0, rtol=1e-6)

    def test_no_transfers_for_input(self, runtime_2gpu):
        runtime = runtime_2gpu
        ident = Map("int func(int i) { return i; }")
        before = sum(q.total_transfer_bytes for q in runtime.queues)
        ident(IndexVector(10000))
        after = sum(q.total_transfer_bytes for q in runtime.queues)
        assert after == before  # nothing uploaded (output stays on device)

    def test_float_parameter_rejected(self, runtime_1gpu):
        scale = Map("float func(float x) { return x; }")
        with pytest.raises(SkelCLError):
            scale(IndexVector(4))

    def test_multi_gpu_identical(self):
        from repro import ocl

        results = []
        for devices in (1, 3):
            skelcl.init(devices, ocl.TEST_DEVICE)
            cubes = Map("int func(int i) { return i * i * i; }")
            results.append(cubes(IndexVector(64)).to_numpy())
            skelcl.terminate()
        np.testing.assert_array_equal(results[0], results[1])

    def test_matches_materialized_index_vector(self, runtime_2gpu):
        func = "int func(int i) { return 7 * i - 3; }"
        virtual = Map(func)(IndexVector(40)).to_numpy()
        materialized = Map(func)(Vector(data=np.arange(40, dtype=np.int32))).to_numpy()
        np.testing.assert_array_equal(virtual, materialized)


class TestMandelbrotUsesIndexVector:
    def test_index_and_materialized_agree(self, runtime_2gpu):
        from repro.apps.mandelbrot import Mandelbrot

        fast = Mandelbrot(max_iterations=25, use_index_vector=True)
        slow = Mandelbrot(max_iterations=25, use_index_vector=False)
        np.testing.assert_array_equal(fast.render_image(48, 32), slow.render_image(48, 32))

    def test_index_vector_saves_the_upload(self, runtime_1gpu):
        from repro.apps.mandelbrot import Mandelbrot

        runtime = runtime_1gpu
        Mandelbrot(max_iterations=5, use_index_vector=True).render(64, 32)
        runtime.finish_all()  # raw queue counters below: no SkelCL-level read
        virtual_bytes = sum(q.total_transfer_bytes for q in runtime.queues)
        Mandelbrot(max_iterations=5, use_index_vector=False).render(64, 32)
        runtime.finish_all()
        total = sum(q.total_transfer_bytes for q in runtime.queues)
        materialized_bytes = total - virtual_bytes
        assert virtual_bytes == 0
        assert materialized_bytes == 64 * 32 * 4  # the int index upload


class TestMapOverIndexMatrix:
    def test_row_col_function(self, runtime_2gpu):
        table = Map("int func(int row, int col) { return row * 100 + col; }")
        out = table(IndexMatrix((5, 7)))
        expected = np.arange(5)[:, None] * 100 + np.arange(7)[None, :]
        np.testing.assert_array_equal(out.to_numpy(), expected.astype(np.int32))

    def test_with_extra_args(self, runtime_2gpu):
        scaled = Map("float func(int row, int col, float s) { return s * (row + col); }")
        out = scaled(IndexMatrix((4, 4)), 0.5)
        expected = 0.5 * (np.arange(4)[:, None] + np.arange(4)[None, :])
        np.testing.assert_allclose(out.to_numpy(), expected, rtol=1e-6)

    def test_requires_two_integer_params(self, runtime_1gpu):
        single = Map("int func(int i) { return i; }")
        with pytest.raises(SkelCLError):
            single(IndexMatrix((2, 2)))
        floaty = Map("float func(float r, float c) { return r + c; }")
        with pytest.raises(SkelCLError):
            floaty(IndexMatrix((2, 2)))

    def test_multi_gpu_identical(self):
        from repro import ocl

        results = []
        for devices in (1, 3):
            skelcl.init(devices, ocl.TEST_DEVICE)
            fn = Map("int func(int row, int col) { return row * col; }")
            results.append(fn(IndexMatrix((9, 6))).to_numpy())
            skelcl.terminate()
        np.testing.assert_array_equal(results[0], results[1])

    def test_no_input_transfers(self, runtime_2gpu):
        runtime = runtime_2gpu
        fn = Map("int func(int row, int col) { return row - col; }")
        before = sum(q.total_transfer_bytes for q in runtime.queues)
        fn(IndexMatrix((16, 16)))
        assert sum(q.total_transfer_bytes for q in runtime.queues) == before
