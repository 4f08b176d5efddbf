"""NumPy references for every benchmark workload, and the comparison rules.

Nothing here imports ``repro``: an oracle that called the code under
test would agree with whatever it computes.  Two rules, fixed before any
run:

* integer, ``uchar`` and elementwise floating-point results must be
  *equal*.  Elementwise float inputs and constants are dyadic rationals
  chosen so that every intermediate value is exactly representable in
  the element type; the result is then the same whether an engine
  rounds per operation or keeps a chain in double precision.
* floating-point reductions and scans combine in tree order, which
  differs from ``np.sum``; they are compared within
  :func:`reduction_tolerance`, derived from the element type alone.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

import numpy as np

#: Summation-order slack, in units of eps * sum(|x|).  A tree over
#: 2**15 elements needs ~15; sequential per-work-item partial sums
#: before the tree need more.  At the largest size used (n = 2**15,
#: float32) this is a quarter of the mean |x|, so dropping or doubling
#: an element of average weight is still detected.
_REDUCTION_SLACK = 64


def reduction_tolerance(dtype, abs_sum) -> float:
    """Largest accepted |result - reference| for a reduction whose
    operands' absolute values sum to ``abs_sum`` (scalar or array)."""
    return _REDUCTION_SLACK * float(np.finfo(dtype).eps) * np.asarray(abs_sum, np.float64)


def equal(result, reference) -> bool:
    result, reference = np.asarray(result), np.asarray(reference)
    return (result.shape == reference.shape and result.dtype == reference.dtype
            and bool(np.array_equal(result, reference)))


def close(result, reference, tolerance) -> bool:
    result = np.asarray(result, np.float64)
    reference = np.asarray(reference, np.float64)
    return (result.shape == reference.shape
            and bool(np.all(np.abs(result - reference) <= tolerance)))


def compare(result, reference, tolerance=None) -> bool:
    """The one comparison every workload uses: exact unless the oracle
    supplied a reduction tolerance."""
    if tolerance is None:
        return equal(result, reference)
    return close(result, reference, tolerance)


def _is_float(dtype) -> bool:
    return np.issubdtype(np.dtype(dtype), np.floating)


def _wide(x: np.ndarray) -> np.ndarray:
    """Operands widened so that no intermediate wraps or rounds."""
    return x.astype(np.float64 if _is_float(x.dtype) else np.int64)


def _narrow(x: np.ndarray, dtype) -> np.ndarray:
    """Store into the element type: floats round, integers wrap."""
    return x.astype(dtype)


# -- stencils ---------------------------------------------------------------


def _shift1d(x: np.ndarray, offset: int, mode: str) -> np.ndarray:
    pad = abs(offset)
    padded = np.pad(x, pad, mode="edge" if mode == "nearest" else "constant")
    return padded[pad + offset: pad + offset + x.size]


def stencil3_1d(x: np.ndarray, left, centre, right, mode: str = "nearest") -> np.ndarray:
    """``left*x[i-1] + centre*x[i] + right*x[i+1]`` with nearest (edge
    replicated) or neutral (zero) boundaries."""
    w = _wide(x)
    out = (left * _shift1d(w, -1, mode) + centre * w + right * _shift1d(w, 1, mode))
    return _narrow(out, x.dtype)


def _neighbourhood(image: np.ndarray, mode: str):
    padded = np.pad(image.astype(np.int64), 1,
                    mode="edge" if mode == "nearest" else "constant")
    h, w = image.shape
    return lambda dx, dy: padded[1 + dy: 1 + dy + h, 1 + dx: 1 + dx + w]


def gaussian3x3(image: np.ndarray, centre: int = 4) -> np.ndarray:
    """3x3 binomial blur (1 2 1; 2 c 2; 1 2 1) / (12 + c), edge
    replicated; ``centre=4`` is the paper pipeline's kernel."""
    at = _neighbourhood(image, "nearest")
    total = (at(-1, -1) + 2 * at(0, -1) + at(1, -1)
             + 2 * at(-1, 0) + centre * at(0, 0) + 2 * at(1, 0)
             + at(-1, 1) + 2 * at(0, 1) + at(1, 1))
    return (total // (12 + centre)).astype(np.uint8)


def sobel3x3(image: np.ndarray) -> np.ndarray:
    """Listing 1.5: gradient magnitude with zero boundaries, truncated
    and stored through a ``uchar`` (so values above 255 wrap)."""
    at = _neighbourhood(image, "neutral")
    h = (-at(-1, -1) + at(1, -1) - 2 * at(-1, 0) + 2 * at(1, 0)
         - at(-1, 1) + at(1, 1))
    v = (-at(-1, -1) - 2 * at(0, -1) - at(1, -1)
         + at(-1, 1) + 2 * at(0, 1) + at(1, 1))
    magnitude = np.sqrt((h * h + v * v).astype(np.float64))
    return (magnitude.astype(np.int64) % 256).astype(np.uint8)


def edge_pixel_count(image: np.ndarray, threshold: int) -> int:
    """blur -> Sobel -> threshold -> count: the image pipeline's result."""
    return int(np.count_nonzero(sobel3x3(gaussian3x3(image)) > threshold))


# -- dispatch_small ---------------------------------------------------------


def dispatch_small(a, b, image_a, image_b, scale):
    """References for the eight calls of one cycle, as ``(reference,
    tolerance)`` pairs in call order."""
    a64, b64 = a.astype(np.float64), b.astype(np.float64)
    abs_prefix = np.cumsum(np.abs(a64))
    pair_abs = np.abs(image_a.astype(np.float64)) @ np.abs(image_b.astype(np.float64)).T
    return [
        ((a64 * 2.0 + 1.0).astype(np.float32), None),
        ((a64 * b64 + 1.0).astype(np.float32), None),
        (a64.sum(), reduction_tolerance(np.float32, abs_prefix[-1])),
        (np.cumsum(a64), reduction_tolerance(np.float32, abs_prefix)),
        (stencil3_1d(a, 0.25, 0.5, 0.25), None),
        (image_a.astype(np.float64) @ image_b.astype(np.float64).T,
         reduction_tolerance(np.float32, pair_abs)),
        ((a64 * scale).astype(np.float32), None),
        ((a64 * 1.5 + 2.0).astype(np.float32), None),
    ]


# -- fallback_peritem -------------------------------------------------------


def complex_recurrence(x: np.ndarray, iterations: int) -> np.ndarray:
    """``z <- z*w + c`` with ``w = (0.5, 0.5)``, ``c = (x, 0.25)``,
    ``z0 = 0``; returns ``z.x + z.y``.  Halving keeps every iterate a
    dyadic rational well inside float32's 24 bits."""
    c_re, c_im = x.astype(np.float64), 0.25
    z_re = np.zeros_like(c_re)
    z_im = np.zeros_like(c_re)
    for _ in range(iterations):
        z_re, z_im = (0.5 * z_re - 0.5 * z_im + c_re,
                      0.5 * z_re + 0.5 * z_im + c_im)
    return (z_re + z_im).astype(np.float32)


# -- build_lifecycle templates ---------------------------------------------
#
# One entry per body shape of bench/corpus.py; ``k`` holds the constants
# drawn for that program, ``xs`` its input arrays.  Each returns
# ``(reference, tolerance)``.


def _exact(value, dtype):
    return _narrow(value, dtype), None


def _fold(x: np.ndarray, op: str):
    if op == "add":
        total = _wide(x).sum()
        if _is_float(x.dtype):
            return total, reduction_tolerance(x.dtype, np.abs(_wide(x)).sum())
        return _narrow(np.asarray(total), x.dtype)[()], None
    return x.max(), None


def _prefix(x: np.ndarray, op: str):
    if op == "add":
        sums = np.cumsum(_wide(x))
        if _is_float(x.dtype):
            return sums, reduction_tolerance(x.dtype, np.cumsum(np.abs(_wide(x))))
        return _narrow(sums, x.dtype), None
    return np.maximum.accumulate(x), None


def _all_pairs(a: np.ndarray, b: np.ndarray, zip_op: str, scale):
    wa, wb = _wide(a)[:, None, :], _wide(b)[None, :, :]
    if zip_op == "mul":
        terms = wa * wb * scale
    else:  # manhattan: |x - y| * scale
        terms = np.abs(wa - wb) * scale
    total = terms.sum(axis=2)
    if _is_float(a.dtype):
        return total, reduction_tolerance(a.dtype, np.abs(terms).sum(axis=2))
    # Integer zip results are stored through the element type before
    # the (wrapping) sum.
    return _narrow(_narrow(terms, a.dtype).astype(np.int64).sum(axis=2), a.dtype), None


def _escape_time(c: np.ndarray, limit: int, bound: int) -> np.ndarray:
    """Integer escape-time map: iterate ``z <- (z*z + c) & 1023`` from 0
    until ``z >= bound`` or ``limit`` iterations; returns the count."""
    z = np.zeros(c.shape, np.int64)
    count = np.zeros(c.shape, np.int64)
    c = c.astype(np.int64)
    for _ in range(limit):
        live = z < bound
        z = np.where(live, (z * z + c) & 1023, z)
        count += live
    return count.astype(np.int32)


def _mandelbrot_grid(indices: np.ndarray, width: int, max_iter: int) -> np.ndarray:
    """§4.1's escape-time kernel on the grid ``c = (-2 + px/4, -2 +
    py/4)``.  Quarter steps and ``max_iter <= 4`` keep every iterate
    exactly representable in float32."""
    px, py = indices % width, indices // width
    c_re, c_im = -2.0 + px * 0.25, -2.0 + py * 0.25
    z_re = np.zeros(indices.shape, np.float64)
    z_im = np.zeros(indices.shape, np.float64)
    count = np.zeros(indices.shape, np.int64)
    for _ in range(max_iter):
        live = z_re * z_re + z_im * z_im <= 4.0
        z_re, z_im = (np.where(live, z_re * z_re - z_im * z_im + c_re, z_re),
                      np.where(live, 2.0 * z_re * z_im + c_im, z_im))
        count += live
    return (count % 256).astype(np.uint8)


BODY_ORACLES: Dict[str, Callable] = {
    # Map
    "map_affine": lambda k, x: _exact(_wide(x) * k["a"] + k["b"], x.dtype),
    "map_poly": lambda k, x: _exact((_wide(x) * k["a"] + k["b"]) * _wide(x) + k["c"],
                                    x.dtype),
    "map_clamp": lambda k, x: _exact(np.clip(_wide(x), k["a"], k["b"]), x.dtype),
    "map_loop": lambda k, x: _exact(_wide(x) * k["n"] + k["b"], x.dtype),
    "map_scalar": lambda k, x: _exact(_wide(x) * k["s"] + k["b"], x.dtype),
    # Zip
    "zip_axpy": lambda k, x, y: _exact(_wide(x) * k["a"] + _wide(y), x.dtype),
    "zip_diff": lambda k, x, y: _exact((_wide(x) - _wide(y)) * k["a"] + k["b"], x.dtype),
    "zip_max": lambda k, x, y: _exact(np.maximum(_wide(x), _wide(y)) + k["b"], x.dtype),
    # Reduce / Scan
    "reduce_add": lambda k, x: _fold(x, "add"),
    "reduce_max": lambda k, x: _fold(x, "max"),
    "scan_add": lambda k, x: _prefix(x, "add"),
    "scan_max": lambda k, x: _prefix(x, "max"),
    # MapOverlap
    "overlap_blur": lambda k, x: (stencil3_1d(x, k["a"], k["b"], k["a"], "nearest"), None),
    "overlap_diff": lambda k, x: (stencil3_1d(x, -k["a"], k["b"], k["a"], "neutral"), None),
    # AllPairs
    "pairs_dot": lambda k, a, b: _all_pairs(a, b, "mul", k["a"]),
    "pairs_manhattan": lambda k, a, b: _all_pairs(a, b, "absdiff", k["a"]),
    # The paper's kernels, with one drawn constant each
    "paper_sobel": lambda k, image: (
        np.where(sobel3x3(image) > k["t"], 255, 0).astype(np.uint8), None),
    "paper_gaussian": lambda k, image: (gaussian3x3(image, k["c"]), None),
    "paper_mandelbrot": lambda k, indices: (
        _mandelbrot_grid(indices, int(k["w"]), int(k["n"])), None),
    "paper_matmul": lambda k, a, b: _all_pairs(a, b, "mul", k["a"]),
    # @skelcl.jit functions
    "jit_affine": lambda k, x: _exact(_wide(x) * k["a"] + k["b"], x.dtype),
    "jit_branch": lambda k, x: _exact(
        np.where(_wide(x) > k["a"], _wide(x) - k["a"], k["b"] - _wide(x)), x.dtype),
    "jit_loop": lambda k, x: _exact(_wide(x) * k["n"] + k["b"], x.dtype),
    "jit_zip": lambda k, x, y: _exact(_wide(x) * k["a"] - _wide(y) + k["b"], x.dtype),
}


def build_program(shape: str, constants: dict, inputs: Sequence[np.ndarray]):
    """``(reference, tolerance)`` for one build_lifecycle program."""
    return BODY_ORACLES[shape](constants, *inputs)


# -- fused_pipeline ---------------------------------------------------------


def fused_pipelines(a: np.ndarray, b: np.ndarray, c: float):
    """The three pipeline results for customizing constant ``c``:
    ``sum(g(f(a)))``, ``sum(f(a) * g(b))`` and ``sum(laplace(f(a)))``
    with ``f(x) = x*c + 1``, ``g(x) = x - (c + 0.5)``."""
    a64, b64 = a.astype(np.float64), b.astype(np.float64)
    fa, gb = a64 * c + 1.0, b64 - (c + 0.5)
    gfa = fa - (c + 0.5)
    prod = fa * gb
    left, right = _shift1d(fa, -1, "nearest"), _shift1d(fa, 1, "nearest")
    lap = left + right - 2.0 * fa
    lap_abs = np.abs(left) + np.abs(right) + 2.0 * np.abs(fa)
    return [
        (gfa.sum(), reduction_tolerance(np.float32, np.abs(gfa).sum())),
        (prod.sum(), reduction_tolerance(np.float32, np.abs(prod).sum())),
        (lap.sum(), reduction_tolerance(np.float32, lap_abs.sum())),
    ]


# -- serve_mixed ------------------------------------------------------------


def serve_edges(signal: np.ndarray, threshold: int) -> np.ndarray:
    """1-D Sobel graph job: ``|x[i+1] - x[i-1]| > threshold`` with zero
    boundaries, as int 0/1."""
    w = signal.astype(np.int64)
    gradient = np.abs(_shift1d(w, 1, "neutral") - _shift1d(w, -1, "neutral"))
    return (gradient > threshold).astype(np.int32)


def serve_escape(points: np.ndarray, limit: int, bound: int) -> np.ndarray:
    """Mandelbrot-style map job (data-dependent trip counts, in
    integers so the counts are exact)."""
    return _escape_time(points, limit, bound)


def serve_dot(x: np.ndarray, y: np.ndarray):
    x64, y64 = x.astype(np.float64), y.astype(np.float64)
    return float(x64 @ y64), reduction_tolerance(np.float32, np.abs(x64 * y64).sum())
