"""The build_lifecycle corpus: an endless, seeded sequence of distinct
kernel sources.

Program ``i`` instantiates template ``i % len(TEMPLATES)`` in round
``r = i // len(TEMPLATES)``: the element type cycles with the round, the
constant ``a`` is a function of the round (so no two programs of one
template and type share a source, even where a skeleton renames the
user function), and the remaining constants and the input data are
drawn from ``RandomState([seed, i])``.  Every template appears once per
round, so any prefix of whole rounds has the same mix of skeleton kinds.

Floating-point constants and inputs are dyadic rationals small enough
that every elementwise intermediate is exactly representable (see
``oracles.py``).  Nothing here imports ``repro``; ``workloads.py`` turns
a :class:`Program` into skeletons and launches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

DTYPES = {"float": np.float32, "double": np.float64, "int": np.int32,
          "uchar": np.uint8}
_NUMPY_NAMES = {"float": "np.float32", "double": "np.float64", "int": "np.int32"}

VECTOR_ELEMENTS = 256
MATRIX_SIDE = 16


@dataclass(frozen=True)
class Template:
    shape: str                 # key into oracles.BODY_ORACLES
    kind: str                  # how workloads.py launches it
    ctypes: Tuple[str, ...]    # element types it cycles through
    render: Callable           # (name, ctype, constants) -> tuple of sources
    extra: Tuple[str, ...] = ()  # constants passed as additional arguments


@dataclass(frozen=True)
class Program:
    index: int
    shape: str
    kind: str
    ctype: str
    constants: Dict[str, float]
    sources: Tuple[str, ...]
    extra: Tuple[float, ...]
    inputs: Tuple[np.ndarray, ...]


def _lit(value, ctype: str) -> str:
    """An OpenCL-C literal of ``value`` in element type ``ctype``."""
    if ctype == "float":
        return f"{float(value)!r}f"
    if ctype == "double":
        return repr(float(value))
    return str(int(value))


def _render(body: str):
    """A template renderer: ``{T}`` is the element type, ``{f}`` the
    unique function name, ``{a}``/``{b}``/... the typed literals."""
    def render(name: str, ctype: str, constants: dict) -> Tuple[str, ...]:
        literals = {key: _lit(value, ctype) for key, value in constants.items()}
        raw = {f"{key}_raw": int(value) for key, value in constants.items()
               if float(value).is_integer()}
        return (body.format(T=ctype, f=name, **literals, **raw),)
    return render


def _render_pair(zip_body: str):
    """AllPairs customizers: ``(zip source, reduce source)``."""
    zip_render = _render(zip_body)

    def render(name: str, ctype: str, constants: dict) -> Tuple[str, ...]:
        plus = f"{ctype} {name}_sum({ctype} x, {ctype} y) {{ return x + y; }}"
        return zip_render(name, ctype, constants) + (plus,)
    return render


def _render_jit(body: str):
    def render(name: str, ctype: str, constants: dict) -> Tuple[str, ...]:
        is_float = ctype in ("float", "double")
        values = {key: (float(value) if is_float and key != "n" else int(value))
                  for key, value in constants.items()}
        return (body.format(T=_NUMPY_NAMES[ctype], f=name, **values),)
    return render


_SOBEL = """\
uchar {f}(const uchar* img) {{
    short h = -1*get(img,-1,-1) +1*get(img,+1,-1)
              -2*get(img,-1, 0) +2*get(img,+1, 0)
              -1*get(img,-1,+1) +1*get(img,+1,+1);
    short v = -1*get(img,-1,-1) -2*get(img, 0,-1) -1*get(img,+1,-1)
              +1*get(img,-1,+1) +2*get(img, 0,+1) +1*get(img,+1,+1);
    uchar m = (uchar)sqrt((float)(h*h + v*v));
    return m > {t} ? 255 : 0;
}}
"""

_GAUSSIAN = """\
uchar {f}(const uchar* img) {{
    int sum = 1 * get(img, -1, -1) + 2 * get(img, 0, -1) + 1 * get(img, +1, -1)
            + 2 * get(img, -1,  0) + {c} * get(img, 0,  0) + 2 * get(img, +1,  0)
            + 1 * get(img, -1, +1) + 2 * get(img, 0, +1) + 1 * get(img, +1, +1);
    return (uchar)(sum / (12 + {c}));
}}
"""

_MANDELBROT = """\
uchar {f}(int idx) {{
    int px = idx % {w};
    int py = idx / {w};
    float c_re = -2.0f + px * 0.25f;
    float c_im = -2.0f + py * 0.25f;
    float z_re = 0.0f;
    float z_im = 0.0f;
    int iter = 0;
    while (z_re * z_re + z_im * z_im <= 4.0f && iter < {n}) {{
        float t = z_re * z_re - z_im * z_im + c_re;
        z_im = 2.0f * z_re * z_im + c_im;
        z_re = t;
        ++iter;
    }}
    return (uchar)(iter % 256);
}}
"""

_MATMUL_ROW = """\
float {f}(const float* a, const float* b, int d) {{
    float sum = 0.0f;
    for (int k = 0; k < d; ++k) {{
        sum += a[k] * b[k];
    }}
    return sum * {a};
}}
"""

_ALL = ("float", "int", "uchar", "double")
_SIGNED = ("float", "int", "double")

TEMPLATES: Tuple[Template, ...] = (
    Template("map_affine", "map", _ALL, _render(
        "{T} {f}({T} x) {{ return x * {a} + {b}; }}")),
    Template("zip_axpy", "zip", _ALL, _render(
        "{T} {f}({T} x, {T} y) {{ return x * {a} + y; }}")),
    Template("reduce_add", "reduce", _ALL, _render(
        "{T} {f}({T} x, {T} y) {{ return x + y; }}")),
    Template("paper_sobel", "mapoverlap2d", ("uchar",), _render(_SOBEL)),
    Template("map_poly", "map", _ALL, _render(
        "{T} {f}({T} x) {{ return (x * {a} + {b}) * x + {c}; }}")),
    Template("scan_add", "scan", _ALL, _render(
        "{T} {f}({T} x, {T} y) {{ return x + y; }}")),
    Template("jit_affine", "jit_map", _SIGNED, _render_jit(
        "def {f}(x: {T}) -> {T}:\n    return x * {a} + {b}\n")),
    Template("overlap_blur", "mapoverlap", _ALL, _render(
        "{T} {f}(const {T}* v) {{ return {a} * get(v, -1) + {b} * get(v, 0)"
        " + {a} * get(v, 1); }}")),
    Template("pairs_dot", "allpairs", _ALL, _render_pair(
        "{T} {f}({T} x, {T} y) {{ return x * y * {a}; }}")),
    Template("map_clamp", "map", _ALL, _render(
        "{T} {f}({T} x) {{ return x < {a} ? {a} : (x > {b} ? {b} : x); }}")),
    Template("paper_gaussian", "mapoverlap2d_nearest", ("uchar",), _render(_GAUSSIAN)),
    Template("zip_diff", "zip", _ALL, _render(
        "{T} {f}({T} x, {T} y) {{ return (x - y) * {a} + {b}; }}")),
    Template("jit_branch", "jit_map", _SIGNED, _render_jit(
        "def {f}(x: {T}) -> {T}:\n    return x - {a} if x > {a} else {b} - x\n")),
    Template("reduce_max", "reduce_max", _ALL, _render(
        "{T} {f}({T} x, {T} y) {{ return x > y ? x : y; }}")),
    Template("map_loop", "map", _ALL, _render(
        "{T} {f}({T} x) {{ {T} acc = {b}; for (int i = 0; i < {n_raw}; ++i)"
        " {{ acc = acc + x; }} return acc; }}")),
    Template("paper_mandelbrot", "map_index", ("uchar",), _render(_MANDELBROT)),
    Template("overlap_diff", "mapoverlap_neutral", _ALL, _render(
        "{T} {f}(const {T}* v) {{ return {b} * get(v, 0) + {a} * get(v, 1)"
        " - {a} * get(v, -1); }}")),
    Template("jit_loop", "jit_map", _SIGNED, _render_jit(
        "def {f}(x: {T}) -> {T}:\n    acc = x\n    for i in range({n} - 1):\n"
        "        acc = acc + x\n    return acc + {b}\n")),
    Template("scan_max", "scan_max", _ALL, _render(
        "{T} {f}({T} x, {T} y) {{ return x > y ? x : y; }}")),
    Template("map_scalar", "map", _ALL, _render(
        "{T} {f}({T} x, {T} s) {{ return x * s + {b}; }}"), extra=("s",)),
    Template("pairs_manhattan", "allpairs", _ALL, _render_pair(
        "{T} {f}({T} x, {T} y) {{ return (x > y ? x - y : y - x) * {a}; }}")),
    Template("paper_matmul", "allpairs_raw", ("float",), _render(_MATMUL_ROW)),
    Template("zip_max", "zip", _ALL, _render(
        "{T} {f}({T} x, {T} y) {{ return (x > y ? x : y) + {b}; }}")),
    Template("jit_zip", "jit_zip", _SIGNED, _render_jit(
        "def {f}(x: {T}, y: {T}) -> {T}:\n    return x * {a} - y + {b}\n")),
)

#: The default corpus size (programs 0..159) used by the tests and by
#: fixed-length reports; a timed run simply keeps drawing.
DEFAULT_PROGRAMS = 160


def _constants(shape: str, ctype: str, round_: int, rng) -> Dict[str, float]:
    is_float = ctype in ("float", "double")
    unit = 0.25 if is_float else 1
    low = 0 if ctype == "uchar" else -8
    draw = lambda: float(rng.randint(low, 9)) * unit  # noqa: E731
    if shape == "paper_sobel":
        return {"t": float(1 + round_ % 254)}
    if shape == "paper_gaussian":
        return {"c": float(1 + round_ % 240)}
    if shape == "paper_mandelbrot":
        # (max iterations, row width): every round a different pair.
        return {"n": float(1 + round_ % 4), "w": float(MATRIX_SIDE + round_ // 4)}
    if shape == "map_clamp":
        lo = draw()
        return {"a": lo, "b": lo + (1 + round_) * unit}
    if shape in ("map_loop", "jit_loop"):
        return {"n": float(2 + round_ % 6), "b": draw() + round_ // 6}
    if shape == "map_scalar":
        return {"s": draw(), "b": (round_ + 1) * unit}
    if shape == "zip_max":
        return {"b": (round_ + 1) * unit}
    return {"a": (round_ + 1) * unit, "b": draw(), "c": draw()}


def _data(ctype: str, rng, shape: Tuple[int, ...], small: bool = False) -> np.ndarray:
    """Seeded inputs: sixteenths in [-4, 4] for floats, [-8, 8] for int,
    the full range for uchar; ``small`` (AllPairs rows, whose products
    are summed) narrows them to quarters in [-2, 2] and [0, 15]."""
    dtype = DTYPES[ctype]
    if ctype in ("float", "double"):
        if small:
            return (rng.randint(-8, 9, shape) / 4.0).astype(dtype)
        return (rng.randint(-64, 65, shape) / 16.0).astype(dtype)
    if ctype == "uchar":
        return rng.randint(0, 16 if small else 256, shape).astype(dtype)
    return rng.randint(-8, 9, shape).astype(dtype)


def _inputs(template: Template, ctype: str, rng) -> Tuple[np.ndarray, ...]:
    kind = template.kind
    if kind.startswith("allpairs"):
        side = (MATRIX_SIDE, MATRIX_SIDE)
        return (_data(ctype, rng, side, small=True), _data(ctype, rng, side, small=True))
    if kind.startswith("mapoverlap2d"):
        return (_data("uchar", rng, (MATRIX_SIDE, MATRIX_SIDE)),)
    if kind == "map_index":
        return (np.arange(VECTOR_ELEMENTS, dtype=np.int32),)
    arity = 2 if kind in ("zip", "jit_zip") else 1
    return tuple(_data(ctype, rng, (VECTOR_ELEMENTS,)) for _ in range(arity))


def program(seed: int, index: int) -> Program:
    """Program ``index`` of the corpus for ``seed`` (pure function)."""
    template = TEMPLATES[index % len(TEMPLATES)]
    round_ = index // len(TEMPLATES)
    ctype = template.ctypes[round_ % len(template.ctypes)]
    rng = np.random.RandomState([seed & 0x7FFFFFFF, index])
    constants = _constants(template.shape, ctype, round_, rng)
    sources = template.render(f"{template.shape}_{index}", ctype, constants)
    return Program(
        index=index, shape=template.shape, kind=template.kind, ctype=ctype,
        constants=constants, sources=sources,
        extra=tuple(constants[name] for name in template.extra),
        inputs=_inputs(template, ctype, rng),
    )


def sources(seed: int, count: int = DEFAULT_PROGRAMS) -> List[str]:
    """The first ``count`` programs' source texts, flattened."""
    return [text for index in range(count) for text in program(seed, index).sources]
