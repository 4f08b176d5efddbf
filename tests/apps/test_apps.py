"""Application correctness tests (the paper's evaluation programs)."""

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import ocl
from repro.apps.dotproduct import DotProduct, dot_product
from repro.apps.gaussian import GaussianBlur, gaussian_reference
from repro.apps.images import checkerboard, sobel_reference_uchar, synthetic_image
from repro.apps.mandelbrot import Mandelbrot, MandelbrotView, mandelbrot_reference
from repro.apps.manhattan import ManhattanDistance
from repro.apps.matmul import MatrixMultiplication
from repro.apps.sobel import SobelEdgeDetection
from repro.ocl import queue
from repro.skelcl import Matrix, Vector

from tests.kernelc import peritem


class TestImages:
    def test_test_image_deterministic(self):
        a = synthetic_image(64, 64)
        b = synthetic_image(64, 64)
        np.testing.assert_array_equal(a, b)
        assert a.dtype == np.uint8
        assert a.shape == (64, 64)

    def test_test_image_has_structure(self):
        image = synthetic_image(128, 128)
        assert image.std() > 20  # edges and shapes, not flat

    def test_checkerboard(self):
        board = checkerboard(16, 16, tile=4)
        assert board[0, 0] == 0
        assert board[0, 4] == 255
        assert board[4, 0] == 255

    def test_sobel_reference_flat_image_is_zero(self):
        flat = np.full((16, 16), 100, np.uint8)
        assert sobel_reference_uchar(flat)[1:-1, 1:-1].max() == 0


class TestMandelbrot:
    def test_matches_reference(self, runtime_2gpu):
        app = Mandelbrot(max_iterations=40)
        image = app.render_image(64, 48)
        reference = mandelbrot_reference(64, 48, 40)
        # float32 rounding at the set boundary may flip a few pixels.
        mismatch = np.count_nonzero(image != reference) / image.size
        assert mismatch < 0.02

    def test_interior_pixels_hit_max_iterations(self, runtime_1gpu):
        app = Mandelbrot(max_iterations=30)
        view = MandelbrotView(-0.1, 0.1, -0.1, 0.1)  # deep interior
        image = app.render_image(16, 16, view)
        assert (image == 30 % 256).all()

    def test_exterior_escapes_quickly(self, runtime_1gpu):
        app = Mandelbrot(max_iterations=50)
        view = MandelbrotView(10.0, 11.0, 10.0, 11.0)  # far outside
        image = app.render_image(8, 8, view)
        assert (image <= 1).all()

    def test_multi_gpu_identical(self, rng):
        results = []
        for devices in (1, 2):
            skelcl.init(devices, ocl.TEST_DEVICE)
            results.append(Mandelbrot(max_iterations=25).render_image(64, 32))
            skelcl.terminate()
        np.testing.assert_array_equal(results[0], results[1])

    def test_sampled_render_returns(self, runtime_1gpu):
        app = Mandelbrot(max_iterations=20)
        app.render(128, 64, sample_fraction=0.1)
        event = app.last_events[-1]
        assert event.info["groups_executed"] < event.info["groups_total"]


class TestSobel:
    def test_matches_numpy_reference(self, runtime_2gpu):
        image = synthetic_image(64, 48)
        edges = SobelEdgeDetection().detect(image)
        np.testing.assert_array_equal(edges, sobel_reference_uchar(image))

    def test_detects_checkerboard_edges(self, runtime_1gpu):
        board = checkerboard(32, 32, tile=8)
        edges = SobelEdgeDetection().detect(board)
        # Tile interiors are flat -> zero response.
        assert edges[4, 4] == 0
        # Tile borders respond.
        assert edges[4, 7] > 0 or edges[4, 8] > 0

    def test_static_bounds_proof_succeeds_for_sobel(self, runtime_1gpu):
        app = SobelEdgeDetection()
        assert app.map_overlap.bounds_proof.proven
        assert app.map_overlap.checks_elided

    def test_multi_gpu_identical(self):
        image = synthetic_image(48, 40)
        results = []
        for devices in (1, 3):
            skelcl.init(devices, ocl.TEST_DEVICE)
            results.append(SobelEdgeDetection().detect(image))
            skelcl.terminate()
        np.testing.assert_array_equal(results[0], results[1])


class TestDotProduct:
    def test_matches_numpy(self, runtime_2gpu, rng):
        a = rng.rand(4096).astype(np.float32)
        b = rng.rand(4096).astype(np.float32)
        result = DotProduct().compute(a, b)
        assert result == pytest.approx(float(np.dot(a, b)), rel=1e-4)

    def test_one_shot_helper(self, runtime_1gpu):
        a = np.array([1.0, 2.0, 3.0], np.float32)
        b = np.array([4.0, 5.0, 6.0], np.float32)
        assert dot_product(a, b) == pytest.approx(32.0)

    def test_reusable_object(self, runtime_1gpu, rng):
        dot = DotProduct()
        for _ in range(3):
            a = rng.rand(128).astype(np.float32)
            b = rng.rand(128).astype(np.float32)
            assert dot.compute(a, b) == pytest.approx(float(a @ b), rel=1e-4)


class TestMatmul:
    def test_matches_numpy(self, runtime_2gpu, rng):
        a = rng.rand(17, 9).astype(np.float32)
        b = rng.rand(9, 13).astype(np.float32)
        result = MatrixMultiplication().compute(a, b)
        np.testing.assert_allclose(result, a @ b, rtol=1e-4)

    def test_identity(self, runtime_1gpu):
        eye = np.eye(8, dtype=np.float32)
        a = np.arange(64, dtype=np.float32).reshape(8, 8)
        np.testing.assert_allclose(MatrixMultiplication().compute(a, eye), a, rtol=1e-5)

    def test_multi_gpu_identical(self, rng):
        a = rng.rand(12, 6).astype(np.float32)
        b = rng.rand(6, 10).astype(np.float32)
        results = []
        for devices in (1, 4):
            skelcl.init(devices, ocl.TEST_DEVICE)
            results.append(MatrixMultiplication().compute(a, b))
            skelcl.terminate()
        np.testing.assert_allclose(results[0], results[1], rtol=1e-6)


class TestManhattan:
    def test_matches_numpy(self, runtime_2gpu, rng):
        a = rng.rand(11, 5).astype(np.float32)
        b = rng.rand(7, 5).astype(np.float32)
        result = ManhattanDistance().compute(a, b)
        expected = np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)
        np.testing.assert_allclose(result, expected, rtol=1e-4)

    def test_distance_to_self_is_zero_diagonal(self, runtime_1gpu, rng):
        a = rng.rand(6, 4).astype(np.float32)
        result = ManhattanDistance().compute(a, a)
        np.testing.assert_allclose(np.diag(result), 0.0, atol=1e-6)


class TestGaussian:
    def test_matches_reference(self, runtime_2gpu):
        image = synthetic_image(48, 64)
        blurred = GaussianBlur().blur(image)
        np.testing.assert_array_equal(blurred, gaussian_reference(image))

    def test_flat_image_unchanged(self, runtime_1gpu):
        flat = np.full((16, 16), 77, np.uint8)
        np.testing.assert_array_equal(GaussianBlur().blur(flat), flat)

    def test_reduces_variance(self, runtime_1gpu, rng):
        noisy = rng.randint(0, 255, (32, 32)).astype(np.uint8)
        blurred = GaussianBlur().blur(noisy)
        assert blurred.astype(float).std() < noisy.astype(float).std()


class TestBackendsAgreeOnApps:
    """Result correctness on the lockstep engine and on the per-item
    oracle: each app must produce the right answer on both, and the two
    must agree bit-for-bit."""

    def test_gaussian_correct_on_both_backends(self, runtime_backend, rng):
        image = synthetic_image(32, 48)
        blurred = GaussianBlur().blur(image)
        np.testing.assert_array_equal(blurred, gaussian_reference(image))

    def test_manhattan_correct_on_both_backends(self, runtime_backend, rng):
        a = rng.rand(9, 6).astype(np.float32)
        b = rng.rand(5, 6).astype(np.float32)
        result = ManhattanDistance().compute(a, b)
        expected = np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)
        np.testing.assert_allclose(result, expected, rtol=1e-4)
        np.testing.assert_allclose(np.diag(ManhattanDistance().compute(a, a)), 0.0,
                                   atol=1e-6)

    @staticmethod
    def on_both_engines(monkeypatch, run):
        """``run()`` on the per-item oracle, then on the lockstep engine."""
        outputs = []
        with monkeypatch.context() as patch:
            patch.setattr(queue, "execute_ndrange", peritem.execute_ndrange)
            with skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE):
                outputs.append(run())
        with skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE):
            outputs.append(run())
        return outputs

    def test_gaussian_bitexact_across_backends(self, rng, monkeypatch):
        image = synthetic_image(32, 32)
        outputs = self.on_both_engines(monkeypatch, lambda: GaussianBlur().blur(image))
        np.testing.assert_array_equal(outputs[0], outputs[1])

    def test_manhattan_bitexact_across_backends(self, rng, monkeypatch):
        a = rng.rand(8, 4).astype(np.float32)
        b = rng.rand(6, 4).astype(np.float32)
        outputs = self.on_both_engines(monkeypatch,
                                       lambda: ManhattanDistance().compute(a, b))
        assert outputs[0].tobytes() == outputs[1].tobytes()
