"""Skeleton correctness tests against numpy references, across 1-4 GPUs."""

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro.skelcl import (
    AllPairs,
    Block,
    Copy,
    Map,
    MapOverlap,
    Matrix,
    Overlap,
    Reduce,
    SCL_NEAREST,
    SCL_NEUTRAL,
    Scan,
    Single,
    Vector,
    Zip,
)
from repro.skelcl.runtime import SkelCLError

ADD = "float func(float x, float y) { return x + y; }"
MUL = "float func(float x, float y) { return x * y; }"


class TestMap:
    def test_negation_as_in_paper(self, runtime_multi, rng):
        neg = Map("float func(float x) { return -x; }")
        data = rng.rand(117).astype(np.float32)
        result = neg(Vector(data=data))
        np.testing.assert_allclose(result.to_numpy(), -data, rtol=1e-6)

    def test_int_map(self, runtime_2gpu):
        double = Map("int func(int x) { return 2 * x; }")
        data = np.arange(33, dtype=np.int32)
        assert list(double(Vector(data=data)).to_numpy()) == list(2 * data)

    def test_type_changing_map(self, runtime_2gpu, rng):
        to_int = Map("int func(float x) { return (int)(x * 10.0f); }")
        data = rng.rand(20).astype(np.float32)
        out = to_int(Vector(data=data))
        assert out.dtype == np.int32
        np.testing.assert_array_equal(out.to_numpy(), (data * 10).astype(np.int32))

    def test_map_on_matrix(self, runtime_2gpu, rng):
        sq = Map("float func(float x) { return x * x; }")
        data = rng.rand(9, 7).astype(np.float32)
        result = sq(Matrix(data=data))
        assert isinstance(result, Matrix)
        np.testing.assert_allclose(result.to_numpy(), data * data, rtol=1e-6)

    def test_additional_scalar_argument(self, runtime_2gpu, rng):
        scale = Map("float func(float x, float s) { return x * s; }")
        data = rng.rand(40).astype(np.float32)
        np.testing.assert_allclose(scale(Vector(data=data), 2.5).to_numpy(), data * 2.5, rtol=1e-6)

    def test_missing_additional_argument_rejected(self, runtime_1gpu):
        scale = Map("float func(float x, float s) { return x * s; }")
        with pytest.raises(SkelCLError):
            scale(Vector(4))

    def test_dtype_mismatch_rejected(self, runtime_1gpu):
        neg = Map("float func(float x) { return -x; }")
        with pytest.raises(SkelCLError):
            neg(Vector(4, dtype=np.int32))

    def test_uses_builtin_math(self, runtime_2gpu, rng):
        # The paper's SkePU comparison: sin/cos must work in user code.
        wave = Map("float func(float x) { return sin(x) * cos(x); }")
        data = rng.rand(25).astype(np.float32)
        np.testing.assert_allclose(
            wave(Vector(data=data)).to_numpy(), np.sin(data) * np.cos(data), rtol=1e-4, atol=1e-6
        )

    def test_respects_single_distribution(self, runtime_2gpu, rng):
        neg = Map("float func(float x) { return -x; }")
        data = rng.rand(16).astype(np.float32)
        vec = Vector(data=data)
        vec.set_distribution(Single(1))
        result = neg(vec)
        assert result.distribution == Single(1)
        np.testing.assert_allclose(result.to_numpy(), -data, rtol=1e-6)

    def test_copy_distribution_computes_everywhere(self, runtime_2gpu, rng):
        neg = Map("float func(float x) { return -x; }")
        data = rng.rand(16).astype(np.float32)
        vec = Vector(data=data)
        vec.set_distribution(Copy())
        result = neg(vec)
        np.testing.assert_allclose(result.to_numpy(), -data, rtol=1e-6)

    def test_preallocated_output(self, runtime_2gpu, rng):
        neg = Map("float func(float x) { return -x; }")
        data = rng.rand(16).astype(np.float32)
        out = Vector(16)
        returned = neg(Vector(data=data), out=out)
        assert returned is out
        np.testing.assert_allclose(out.to_numpy(), -data, rtol=1e-6)


class TestZip:
    def test_vector_addition(self, runtime_multi, rng):
        add = Zip(ADD)
        a = rng.rand(101).astype(np.float32)
        b = rng.rand(101).astype(np.float32)
        np.testing.assert_allclose(
            add(Vector(data=a), Vector(data=b)).to_numpy(), a + b, rtol=1e-6
        )

    def test_matrix_zip(self, runtime_2gpu, rng):
        add = Zip(ADD)
        a = rng.rand(5, 8).astype(np.float32)
        b = rng.rand(5, 8).astype(np.float32)
        np.testing.assert_allclose(
            add(Matrix(data=a), Matrix(data=b)).to_numpy(), a + b, rtol=1e-6
        )

    def test_size_mismatch_rejected(self, runtime_1gpu):
        add = Zip(ADD)
        with pytest.raises(SkelCLError):
            add(Vector(4), Vector(5))

    def test_mixed_container_kinds_rejected(self, runtime_1gpu):
        add = Zip(ADD)
        with pytest.raises(SkelCLError):
            add(Vector(4), Matrix((2, 2)))

    def test_zip_with_extra_argument(self, runtime_2gpu, rng):
        axpy = Zip("float func(float x, float y, float a) { return a * x + y; }")
        x = rng.rand(30).astype(np.float32)
        y = rng.rand(30).astype(np.float32)
        np.testing.assert_allclose(
            axpy(Vector(data=x), Vector(data=y), 3.0).to_numpy(), 3 * x + y, rtol=1e-5
        )

    def test_needs_two_params(self, runtime_1gpu):
        with pytest.raises(SkelCLError):
            Zip("float func(float x) { return x; }")


class TestReduce:
    def test_sum(self, runtime_multi, rng):
        total = Reduce(ADD)
        data = rng.rand(1000).astype(np.float32)
        assert total(Vector(data=data)).get_value() == pytest.approx(float(data.sum()), rel=1e-4)

    def test_max_with_identity(self, runtime_2gpu, rng):
        peak = Reduce("float func(float x, float y) { return x > y ? x : y; }",
                      identity="-3.402823466e38f")
        data = (rng.rand(500) * 100).astype(np.float32)
        assert peak(Vector(data=data)).get_value() == pytest.approx(float(data.max()))

    def test_int_product_small(self, runtime_1gpu):
        prod = Reduce("int func(int x, int y) { return x * y; }", identity="1")
        data = np.array([1, 2, 3, 4, 5], dtype=np.int32)
        assert prod(Vector(data=data)).get_value() == 120

    def test_single_element(self, runtime_2gpu):
        total = Reduce(ADD)
        assert total(Vector(data=np.array([42.0], np.float32))).get_value() == 42.0

    def test_matrix_reduce(self, runtime_2gpu, rng):
        total = Reduce(ADD)
        data = rng.rand(13, 7).astype(np.float32)
        assert total(Matrix(data=data)).get_value() == pytest.approx(float(data.sum()), rel=1e-4)

    def test_large_input_multiple_groups(self, runtime_2gpu, rng):
        total = Reduce(ADD)
        data = rng.rand(100_000).astype(np.float32)
        assert total(Vector(data=data)).get_value() == pytest.approx(float(data.sum()), rel=1e-3)

    def test_wrong_arity_rejected(self, runtime_1gpu):
        with pytest.raises(SkelCLError):
            Reduce("float func(float x) { return x; }")

    def test_dot_product_composition_as_in_listing_1_1(self, runtime_2gpu, rng):
        # Listing 1.1: C = sum( mult( A, B ) )
        sum_up = Reduce("float sum(float x, float y) { return x + y; }")
        mult = Zip("float mult(float x, float y) { return x * y; }")
        a = rng.rand(512).astype(np.float32)
        b = rng.rand(512).astype(np.float32)
        c = sum_up(mult(Vector(data=a), Vector(data=b)))
        assert c.get_value() == pytest.approx(float(np.dot(a, b)), rel=1e-4)


class TestScan:
    def test_prefix_sum(self, runtime_multi, rng):
        prefix = Scan(ADD)
        data = rng.rand(777).astype(np.float32)
        np.testing.assert_allclose(
            prefix(Vector(data=data)).to_numpy(), np.cumsum(data).astype(np.float32), rtol=1e-3
        )

    def test_int_prefix_sum_exact(self, runtime_2gpu):
        prefix = Scan("int func(int x, int y) { return x + y; }")
        data = np.arange(1, 600, dtype=np.int32)
        np.testing.assert_array_equal(prefix(Vector(data=data)).to_numpy(), np.cumsum(data))

    def test_prefix_max(self, runtime_2gpu, rng):
        prefix = Scan("int func(int x, int y) { return x > y ? x : y; }",
                      identity="-2147483648")
        data = rng.randint(-100, 100, 300).astype(np.int32)
        np.testing.assert_array_equal(
            prefix(Vector(data=data)).to_numpy(), np.maximum.accumulate(data)
        )

    def test_small_input(self, runtime_2gpu):
        prefix = Scan("int func(int x, int y) { return x + y; }")
        data = np.array([5, 1, 2], dtype=np.int32)
        assert list(prefix(Vector(data=data)).to_numpy()) == [5, 6, 8]

    def test_exactly_one_block(self, runtime_1gpu):
        prefix = Scan("int func(int x, int y) { return x + y; }")
        data = np.ones(256, dtype=np.int32)
        np.testing.assert_array_equal(prefix(Vector(data=data)).to_numpy(), np.arange(1, 257))

    def test_multiple_blocks_per_device(self, runtime_1gpu):
        prefix = Scan("int func(int x, int y) { return x + y; }")
        data = np.ones(2000, dtype=np.int32)
        np.testing.assert_array_equal(prefix(Vector(data=data)).to_numpy(), np.arange(1, 2001))

    def test_matrix_rejected(self, runtime_1gpu):
        prefix = Scan(ADD)
        with pytest.raises(SkelCLError):
            prefix(Matrix((2, 2)))


class TestMapOverlap:
    SUM9 = """
    float func(float* m) {
        float sum = 0.0f;
        for (int i = -1; i <= 1; ++i)
            for (int j = -1; j <= 1; ++j)
                sum += get(m, i, j);
        return sum;
    }"""

    @staticmethod
    def _neighbor_sum(image, neutral=0.0):
        padded = np.pad(image, 1, constant_values=neutral)
        return sum(
            padded[1 + di : 1 + di + image.shape[0], 1 + dj : 1 + dj + image.shape[1]]
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
        ).astype(np.float32)

    def test_matrix_neutral(self, runtime_multi, rng):
        stencil = MapOverlap(self.SUM9, 1, SCL_NEUTRAL, 0.0)
        image = rng.rand(12, 9).astype(np.float32)
        result = stencil(Matrix(data=image)).to_numpy()
        np.testing.assert_allclose(result, self._neighbor_sum(image), rtol=1e-5)

    def test_matrix_nearest(self, runtime_2gpu, rng):
        stencil = MapOverlap(self.SUM9, 1, SCL_NEAREST)
        image = rng.rand(8, 8).astype(np.float32)
        padded = np.pad(image, 1, mode="edge")
        expected = sum(
            padded[1 + di : 9 + di, 1 + dj : 9 + dj] for di in (-1, 0, 1) for dj in (-1, 0, 1)
        ).astype(np.float32)
        np.testing.assert_allclose(stencil(Matrix(data=image)).to_numpy(), expected, rtol=1e-5)

    def test_vector_stencil(self, runtime_multi, rng):
        blur = MapOverlap(
            "float func(float* v) { return (get(v, -1) + get(v, 0) + get(v, 1)) / 3.0f; }",
            1,
            SCL_NEUTRAL,
            0.0,
        )
        data = rng.rand(50).astype(np.float32)
        padded = np.pad(data, 1)
        expected = ((padded[:-2] + padded[1:-1] + padded[2:]) / 3.0).astype(np.float32)
        np.testing.assert_allclose(blur(Vector(data=data)).to_numpy(), expected, rtol=1e-5)

    def test_nonzero_neutral_value(self, runtime_2gpu):
        stencil = MapOverlap(self.SUM9, 1, SCL_NEUTRAL, 7.0)
        image = np.zeros((4, 4), np.float32)
        result = stencil(Matrix(data=image)).to_numpy()
        # Corner touches 5 out-of-bounds neighbours, each contributing 7.
        assert result[0, 0] == pytest.approx(5 * 7.0)
        assert result[1, 1] == 0.0

    def test_larger_overlap_range(self, runtime_2gpu, rng):
        stencil = MapOverlap(
            """float func(float* m) {
                float s = 0.0f;
                for (int i = -2; i <= 2; ++i) s += get(m, 0, i);
                return s;
            }""",
            2,
            SCL_NEUTRAL,
            0.0,
        )
        image = rng.rand(10, 6).astype(np.float32)
        padded = np.pad(image, ((2, 2), (0, 0)))
        expected = sum(padded[2 + d : 12 + d, :] for d in (-2, -1, 0, 1, 2)).astype(np.float32)
        np.testing.assert_allclose(stencil(Matrix(data=image)).to_numpy(), expected, rtol=1e-5)

    def test_access_beyond_declared_overlap_faults(self, runtime_1gpu):
        from repro.kernelc.memory import KernelFault

        bad = MapOverlap("float func(float* m) { return get(m, 0, 5); }", 1, SCL_NEUTRAL, 0.0)
        image = np.zeros((16, 16), np.float32)
        with pytest.raises(KernelFault):
            bad(Matrix(data=image)).to_numpy()  # the read is the force point

    @pytest.mark.parametrize("static_bounds", [True, False])
    def test_counter_reassigned_in_loop_keeps_the_checked_accessor(
            self, runtime_1gpu, static_bounds):
        # The body resets the counter once, so get(v, -4) executes.  A
        # proof that trusted the loop header elided the range check and
        # the launch died on a raw tile index instead of the trap.
        from repro.kernelc.memory import KernelFault

        sneaky = MapOverlap(
            """float func(float* v) {
                float s = 0.0f; int once = 0;
                for (int i = -1; i <= 1; ++i) {
                    s += get(v, i);
                    if (i == 0 && !once) { i = -5; once = 1; }
                }
                return s;
            }""", 1, SCL_NEUTRAL, 0.0, static_bounds=static_bounds)
        assert not sneaky.checks_elided
        with pytest.raises(KernelFault, match="runtime check failed"):
            sneaky(Vector(data=np.ones(300, np.float32))).to_numpy()

    @pytest.mark.parametrize("static_bounds", [True, False])
    def test_early_return_in_a_switch_case_keeps_the_checked_accessor(
            self, runtime_1gpu, static_bounds):
        # The `if (i > 1) return` never fires (it sits in case 0), so
        # get(v, 4) executes.  A guard leaking out of the case bounded
        # i to [0, 1], elided the check and read past the tile.
        from repro.kernelc.memory import KernelFault

        sneaky = MapOverlap(
            """float func(float* v) {
                float s = 0.0f;
                for (int i = 0; i < 5; ++i) {
                    switch (i) { case 0: if (i > 1) return s; break; }
                    s += get(v, i);
                }
                return s;
            }""", 1, SCL_NEUTRAL, 0.0, static_bounds=static_bounds)
        assert not sneaky.checks_elided
        with pytest.raises(KernelFault, match="runtime check failed"):
            sneaky(Vector(data=np.ones(300, np.float32))).to_numpy()

    def test_multi_gpu_matches_single_gpu(self, rng):
        image = rng.rand(32, 16).astype(np.float32)
        results = {}
        for devices in (1, 3):
            skelcl.init(num_devices=devices, spec=__import__("repro.ocl", fromlist=["TEST_DEVICE"]).TEST_DEVICE)
            stencil = MapOverlap(self.SUM9, 1, SCL_NEUTRAL, 0.0)
            results[devices] = stencil(Matrix(data=image)).to_numpy()
            skelcl.terminate()
        np.testing.assert_allclose(results[1], results[3], rtol=1e-6)


class TestAllPairs:
    def test_matrix_multiplication(self, runtime_multi, rng):
        a = rng.rand(9, 6).astype(np.float32)
        b = rng.rand(7, 6).astype(np.float32)  # B^T rows
        matmul = AllPairs(Reduce(ADD), Zip(MUL))
        result = matmul(Matrix(data=a), Matrix(data=b)).to_numpy()
        np.testing.assert_allclose(result, a @ b.T, rtol=1e-4)

    def test_manhattan_distance_raw_form(self, runtime_2gpu, rng):
        source = """
        float func(const float* a, const float* b, int d) {
            float sum = 0.0f;
            for (int k = 0; k < d; ++k) sum += fabs(a[k] - b[k]);
            return sum;
        }"""
        a = rng.rand(5, 4).astype(np.float32)
        b = rng.rand(6, 4).astype(np.float32)
        allpairs = AllPairs(source=source)
        result = allpairs(Matrix(data=a), Matrix(data=b)).to_numpy()
        expected = np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)
        np.testing.assert_allclose(result, expected, rtol=1e-4)

    def test_dimension_mismatch_rejected(self, runtime_1gpu):
        matmul = AllPairs(Reduce(ADD), Zip(MUL))
        with pytest.raises(SkelCLError):
            matmul(Matrix((2, 3)), Matrix((2, 4)))

    def test_incompatible_operators_rejected(self, runtime_1gpu):
        int_add = Reduce("int func(int x, int y) { return x + y; }")
        with pytest.raises(SkelCLError):
            AllPairs(int_add, Zip(MUL))

    def test_raw_form_needs_three_params(self, runtime_1gpu):
        with pytest.raises(SkelCLError):
            AllPairs(source="float func(const float* a, const float* b) { return 0.0f; }")


class TestMultiGpuConsistency:
    """The same computation must produce identical results on any number
    of GPUs — the scalability contract of §3.2."""

    @pytest.mark.parametrize("devices", [1, 2, 3, 4])
    def test_pipeline_consistency(self, devices, rng):
        from repro.ocl import TEST_DEVICE

        data = rng.rand(333).astype(np.float32)
        skelcl.init(num_devices=devices, spec=TEST_DEVICE)
        try:
            double = Map("float func(float x) { return 2.0f * x; }")
            add = Zip(ADD)
            total = Reduce(ADD)
            doubled = double(Vector(data=data))
            combined = add(doubled, Vector(data=data))
            result = total(combined).get_value()
        finally:
            skelcl.terminate()
        assert result == pytest.approx(float(3 * data.sum()), rel=1e-4)


class TestReduceDistributions:
    def test_reduce_over_copy_distribution_counts_once(self, runtime_2gpu, rng):
        data = rng.rand(500).astype(np.float32)
        vec = Vector(data=data)
        vec.set_distribution(skelcl.Copy())
        total = Reduce(ADD)
        assert total(vec).get_value() == pytest.approx(float(data.sum()), rel=1e-4)

    def test_reduce_over_single_distribution(self, runtime_2gpu, rng):
        data = rng.rand(300).astype(np.float32)
        vec = Vector(data=data)
        vec.set_distribution(Single(1))
        total = Reduce(ADD)
        assert total(vec).get_value() == pytest.approx(float(data.sum()), rel=1e-4)

    def test_reduce_over_overlap_ignores_halos(self, runtime_2gpu, rng):
        data = rng.rand(256).astype(np.float32)
        vec = Vector(data=data)
        vec.set_distribution(skelcl.Overlap(8))
        total = Reduce(ADD)
        # Halo elements are replicated on devices but owned once; the
        # reduction must not double-count them.
        assert total(vec).get_value() == pytest.approx(float(data.sum()), rel=1e-4)


class TestOverlapInputsToElementwise:
    def test_map_over_overlap_distributed_input(self, runtime_2gpu, rng):
        # A Map after a stencil reuses the overlap-distributed data
        # without redistribution; the halo offset must be skipped.
        data = rng.rand(96).astype(np.float32)
        vec = Vector(data=data)
        vec.set_distribution(Overlap(4))
        neg = Map("float func(float x) { return -x; }")
        np.testing.assert_allclose(neg(vec).to_numpy(), -data, rtol=1e-6)

    def test_zip_with_mismatched_halo_widths(self, runtime_2gpu, rng):
        a = rng.rand(64).astype(np.float32)
        b = rng.rand(64).astype(np.float32)
        va = Vector(data=a)
        vb = Vector(data=b)
        va.set_distribution(Overlap(2))
        add = Zip(ADD)
        result = add(va, vb).to_numpy()
        np.testing.assert_allclose(result, a + b, rtol=1e-6)
