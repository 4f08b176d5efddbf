"""Golden-output pins for the paper's evaluation applications.

Each test runs one of the paper's applications end-to-end through the
full SkelCL stack (skeleton → kernel source → compile → execute →
read-back) and pins a SHA-256 of the exact output bytes.  The pins
serve two purposes:

* **Regression tripwire** — any change anywhere in the stack that
  perturbs a single output byte (compiler folding, evaluator rounding,
  distribution arithmetic, read-back paths) fails loudly here.
* **Engine invariance proof** — each pin is checked with every launch on
  the lockstep engine and with every launch on the per-item oracle
  (the ``runtime_backend`` fixture): the lockstep engine is bit-exact
  against it, so one hash holds for both.

If an intentional semantic change lands, re-derive the pins with the
snippet in each comment.
"""

import hashlib

import numpy as np

from repro.apps.dotproduct import dot_product
from repro.apps.images import synthetic_image
from repro.apps.mandelbrot import Mandelbrot, mandelbrot_reference
from repro.apps.sobel import SobelEdgeDetection


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Derived via: Mandelbrot(max_iterations=40).render_image(64, 48)
_MANDELBROT_GOLDEN = "f8aecf11eaee4e25bb493243cd499a741b624c24a82126e86047277b379b6fe2"

# Derived via: SobelEdgeDetection().detect(synthetic_image(64, 64))
_SOBEL_GOLDEN = "f1c9e8fcb4830cca6c3f8d2a8095589ae2b8cf4f0972f0bdb7f5dcf89b73db0b"

# Derived via: dot_product over RandomState(2013) float32 vectors of 1024.
_DOT_GOLDEN = "3bb446c29242f223a6854d1c0130c65b2ec80aed5d8949621bec569a897e7ebe"


class TestMandelbrotGolden:
    """Fig. 4 application: the Mandelbrot Map skeleton."""

    def test_image_hash_pinned(self, runtime_backend):
        image = Mandelbrot(max_iterations=40).render_image(64, 48)
        assert image.dtype == np.uint8 and image.shape == (48, 64)
        assert _sha(image.tobytes()) == _MANDELBROT_GOLDEN

    def test_pinned_image_still_resembles_reference(self, runtime_backend):
        # Guard against pinning a wrong-but-stable image: the pinned
        # output must stay close to the numpy escape-time oracle.
        image = Mandelbrot(max_iterations=40).render_image(64, 48)
        reference = mandelbrot_reference(64, 48, 40)
        mismatch = np.count_nonzero(image != reference) / image.size
        assert mismatch < 0.02


class TestSobelGolden:
    """Fig. 5 application: Sobel via MapOverlap."""

    def test_edges_hash_pinned(self, runtime_backend):
        edges = SobelEdgeDetection().detect(synthetic_image(64, 64))
        assert edges.dtype == np.uint8 and edges.shape == (64, 64)
        assert _sha(edges.tobytes()) == _SOBEL_GOLDEN


class TestDotProductGolden:
    """Listing 1.1 application: Zip ∘ Reduce dot product."""

    def test_scalar_hash_pinned(self, runtime_backend):
        rng = np.random.RandomState(2013)
        a = rng.uniform(-1, 1, 1024).astype(np.float32)
        b = rng.uniform(-1, 1, 1024).astype(np.float32)
        result = dot_product(a, b)
        assert _sha(np.float64(result).tobytes()) == _DOT_GOLDEN
        # And the value itself is right (tree-reduction order differs
        # from numpy's pairwise sum, hence the tolerance).
        assert abs(result - float(np.dot(a.astype(np.float64), b))) < 1e-3
