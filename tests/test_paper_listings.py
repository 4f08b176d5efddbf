"""The paper's listings, executed.

Each test runs one of the paper's code listings (§3/§4) through this
reproduction — the customizing functions verbatim where the paper is
correct, and with the paper's (acknowledged) typos fixed where not:

* Listing 1.2 increments ``i`` in its inner loop and iterates ``< 1``
  where the text says "all direct neighboring values" — we run the
  intended ``<= 1`` double loop;
* Listing 1.3's boundary check ``i > width`` admits one out-of-bounds
  row/column — we use ``>=``.
"""

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import ocl
from repro.skelcl import MapOverlap, Matrix, Reduce, SCL_NEUTRAL, Scalar, Vector, Zip


@pytest.fixture
def runtime():
    yield skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE)
    skelcl.terminate()


class TestListing11DotProduct:
    """Listing 1.1: the dot-product main program."""

    def test_listing_runs(self, runtime):
        SIZE = 1024
        # create skeletons
        sum_ = Reduce("float sum(float x, float y){return x+y;}")
        mult = Zip("float mult(float x, float y){return x*y;}")
        # create input vectors
        a = Vector(SIZE)
        b = Vector(SIZE)
        # fill vectors with data
        a.assign(np.linspace(0, 1, SIZE, dtype=np.float32))
        b.assign(np.linspace(1, 2, SIZE, dtype=np.float32))
        # execute skeleton
        c = sum_(mult(a, b))
        # fetch result
        value = c.get_value()
        assert isinstance(c, Scalar)
        expected = float(np.dot(a.to_numpy(), b.to_numpy()))
        assert value == pytest.approx(expected, rel=1e-4)


class TestListing12NeighbourSum:
    """Listing 1.2: MapOverlap summing all direct neighbours."""

    SOURCE = """float func(float* m_in){
        float sum = 0.0f;
        for (int i = -1; i <= 1; ++i)
            for (int j = -1; j <= 1; ++j)
                sum += get(m_in, i, j);
        return sum;
    }"""

    def test_neutral_boundary_sum(self, runtime):
        stencil = MapOverlap(self.SOURCE, 1, SCL_NEUTRAL, 0.0)
        data = np.arange(48, dtype=np.float32).reshape(6, 8)
        result = stencil(Matrix(data=data)).to_numpy()
        padded = np.pad(data, 1)
        expected = sum(
            padded[1 + di : 7 + di, 1 + dj : 9 + dj]
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
        )
        np.testing.assert_allclose(result, expected, rtol=1e-5)

    def test_get_accesses_bounded_by_d(self, runtime):
        # "The application developer must ensure that only elements in
        # the range specified by ... d ... are accessed.  To enforce this
        # property, boundary checks are performed at runtime."
        from repro.kernelc.memory import KernelFault

        violating = MapOverlap("float func(float* m){ return get(m, 2, 0); }",
                               1, SCL_NEUTRAL, 0.0)
        assert not violating.checks_elided  # the static proof refuses
        with pytest.raises(KernelFault):
            violating(Matrix(data=np.zeros((8, 8), np.float32))).to_numpy()


class TestListing13OpenCLSum:
    """Listing 1.3: the hand-written OpenCL equivalent of Listing 1.2."""

    KERNEL = """
    __kernel void sum_up(__global float* m_in,
                         __global float* m_out,
                         int width, int height) {
        int i_off = get_global_id(0);
        int j_off = get_global_id(1);
        float sum = 0.0f;
        for (int i = i_off - 1; i <= i_off + 1; ++i)
            for (int j = j_off - 1; j <= j_off + 1; ++j) {
                // perform boundary checks
                if ( i < 0 || i >= width || j < 0 || j >= height )
                    continue;
                sum += m_in[ j * width + i ]; }
        m_out[ j_off * width + i_off ] = sum; }
    """

    def test_matches_the_skelcl_version(self, runtime):
        data = np.arange(64, dtype=np.float32).reshape(8, 8)

        # SkelCL version (Listing 1.2).
        stencil = MapOverlap(TestListing12NeighbourSum.SOURCE, 1, SCL_NEUTRAL, 0.0)
        skelcl_result = stencil(Matrix(data=data)).to_numpy()

        # Raw OpenCL version (Listing 1.3).
        ctx = ocl.Context.create(ocl.TEST_DEVICE)
        queue = ctx.queues[0]
        in_buf = ctx.create_buffer(data.nbytes)
        out_buf = ctx.create_buffer(data.nbytes)
        queue.enqueue_write_buffer(in_buf, data)
        kernel = ocl.Program(self.KERNEL).build().create_kernel("sum_up")
        kernel.set_args(in_buf, out_buf, 8, 8)
        queue.enqueue_nd_range_kernel(kernel, (8, 8), (8, 8))
        raw, _ = queue.enqueue_read_buffer(out_buf, np.float32, 64)
        ctx.release()

        np.testing.assert_allclose(skelcl_result, raw.reshape(8, 8), rtol=1e-5)


class TestListing15Sobel:
    """Listings 1.4/1.5: the Sobel edge detector."""

    def test_skelcl_matches_sequential_listing_14(self, runtime):
        from repro.apps.images import sobel_reference_uchar, synthetic_image
        from repro.apps.sobel import SobelEdgeDetection

        image = synthetic_image(40, 40)
        # Listing 1.4's sequential pseudo-code is our numpy reference.
        np.testing.assert_array_equal(
            SobelEdgeDetection().detect(image), sobel_reference_uchar(image)
        )

    def test_listing_16_amd_kernel_matches_interior(self, runtime):
        from repro.apps.images import sobel_reference_uchar, synthetic_image
        from repro.baselines.sobel_amd import SobelAmd

        image = synthetic_image(32, 32)
        ctx = ocl.Context.create(ocl.TEST_DEVICE)
        edges, _ = SobelAmd(ctx).run(image)
        reference = sobel_reference_uchar(image)
        np.testing.assert_array_equal(edges[1:-1, 1:-1], reference[1:-1, 1:-1])
        ctx.release()


class TestSection35MatrixMultiplication:
    """§3.5 Example 1: A × B = allpairs(dotProduct)(A, Bᵀ)."""

    def test_equation_2(self, runtime):
        rng = np.random.RandomState(11)
        a = rng.rand(12, 7).astype(np.float32)  # n x d
        b = rng.rand(7, 9).astype(np.float32)  # d x m
        dot_product = skelcl.AllPairs(
            Reduce("float add(float x, float y){return x+y;}"),
            Zip("float mul(float x, float y){return x*y;}"),
        )
        b_transposed = Matrix(data=np.ascontiguousarray(b.T))
        c = dot_product(Matrix(data=a), b_transposed).to_numpy()
        np.testing.assert_allclose(c, a @ b, rtol=1e-4)
