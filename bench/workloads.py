"""The six benchmark workloads.

Each drives only the stable user surface — ``skelcl.init`` /
``terminate``, containers, the six skeletons, ``@skelcl.jit``,
``serve.Server``, ``ocl.clear_build_cache`` — so that refactors below
that surface cannot break the end-to-end numbers.  All are closed-loop
with one caller: the library and ``repro.serve`` are synchronous on the
host (serve's arrival process lives on the modeled clock).

The runner (``child.py``) calls, per step ``i``::

    payload = workload.prepare(i)     # untimed: inputs and references
    result = workload.step(payload)   # timed; results reach the host
    failed = workload.check(payload, result)   # untimed, after the clock

``--seed`` feeds the input generators only; the program under test sees
just the generated arrays and sources.
"""

from __future__ import annotations

import linecache
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

import corpus
import oracles
import stats
import repro.skelcl as skelcl
from repro import ocl, serve


def _dyadic(rng, shape, denominator: int, bound: int) -> np.ndarray:
    """float32 multiples of ``1/denominator`` in ``[-bound, bound] /
    denominator`` — exactly representable, see ``oracles.py``."""
    return (rng.randint(-bound, bound + 1, shape) / float(denominator)).astype(np.float32)


class Workload:
    name = ""
    why = ""
    #: Operations completed by one step (serve_mixed submits a round).
    ops_per_step = 1
    #: Steps in the fixed window over which counts and per-layer times
    #: are taken; identical work in every run, whatever ``--seconds`` is.
    window_steps = 0
    #: Untimed steps run during set-up to fill the build and plan caches.
    warmup_steps = 1
    #: Steps after which the mix of operations repeats; the window is a
    #: whole number of periods.
    period = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.session = None

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int):
        return index

    def step(self, payload):
        raise NotImplementedError

    def check(self, payload, result) -> int:
        """Number of this step's operations whose result is wrong."""
        raise NotImplementedError

    def latencies(self, started: float, ended: float, result) -> List[float]:
        """Per-operation host latencies of one step."""
        return [ended - started]

    def modeled_ns(self) -> int:
        return self.session.finish_all()

    def modeled_latencies(self) -> Dict[str, float]:
        """Per-job latency on the modeled clock (serve_mixed only)."""
        return {"serve.modeled_latency_p50_ns": 0.0, "serve.modeled_latency_p99_ns": 0.0}

    def close(self) -> None:
        skelcl.terminate()


def _all_match(results: Sequence, references: Sequence[Tuple]) -> bool:
    return len(results) == len(references) and all(
        oracles.compare(result, reference, tolerance)
        for result, (reference, tolerance) in zip(results, references))


class DispatchSmall(Workload):
    name = "dispatch_small"
    why = ("eight tiny eager skeleton calls per op: arithmetic is negligible, "
           "so host time is per-launch fixed cost (kernel re-walk, geometry, "
           "footprints, call path, queue bookkeeping)")
    window_steps = 100
    elements = 1024
    side = 16

    def setup(self) -> None:
        rng = np.random.RandomState(self.seed)
        self.a = _dyadic(rng, self.elements, 64, 512)
        self.b = _dyadic(rng, self.elements, 64, 512)
        self.image_a = _dyadic(rng, (self.side, self.side), 8, 16)
        self.image_b = _dyadic(rng, (self.side, self.side), 8, 16)
        self.scale = 3.0
        self.references = oracles.dispatch_small(
            self.a, self.b, self.image_a, self.image_b, self.scale)
        self.session = skelcl.init(devices=["tesla", "tesla"])

        @skelcl.jit
        def scale_shift(x: np.float32) -> np.float32:
            return x * 1.5 + 2.0

        self.map = skelcl.Map("float f(float x) { return x * 2.0f + 1.0f; }")
        self.zip = skelcl.Zip("float f(float x, float y) { return x * y + 1.0f; }")
        self.reduce = skelcl.Reduce("float f(float x, float y) { return x + y; }")
        self.scan = skelcl.Scan("float f(float x, float y) { return x + y; }")
        self.overlap = skelcl.MapOverlap(
            "float f(const float* v) { return 0.25f * get(v, -1) + 0.5f * get(v, 0)"
            " + 0.25f * get(v, 1); }", 1, skelcl.BoundaryMode.NEAREST)
        self.pairs = skelcl.AllPairs(
            skelcl.Reduce("float f(float x, float y) { return x + y; }"),
            skelcl.Zip("float g(float x, float y) { return x * y; }"))
        self.map_scalar = skelcl.Map("float f(float x, float s) { return x * s; }")
        self.map_jit = skelcl.Map(scale_shift)

    def step(self, payload):
        vector, matrix = skelcl.Vector, skelcl.Matrix
        a, b = self.a, self.b
        return [
            self.map(vector(data=a)).to_numpy(),
            self.zip(vector(data=a), vector(data=b)).to_numpy(),
            self.reduce(vector(data=a)).get_value(),
            self.scan(vector(data=a)).to_numpy(),
            self.overlap(vector(data=a)).to_numpy(),
            self.pairs(matrix(data=self.image_a), matrix(data=self.image_b)).to_numpy(),
            self.map_scalar(vector(data=a), self.scale).to_numpy(),
            self.map_jit(vector(data=a)).to_numpy(),
        ]

    def check(self, payload, result) -> int:
        return 0 if _all_match(result, self.references) else 1


def synthetic_frame(size: int, rng) -> np.ndarray:
    """A uchar test image: gradient, a bright rectangle and a dark disk
    at seeded positions, light noise — smooth areas and sharp edges."""
    ys, xs = np.mgrid[0:size, 0:size]
    image = 60.0 + 80.0 * xs / (size - 1) + 40.0 * ys / (size - 1)
    top, left = rng.randint(0, size // 2, 2)
    image[top: top + size // 4, left: left + size // 3] = 220.0
    cy, cx = rng.randint(size // 4, 3 * size // 4, 2)
    image[(ys - cy) ** 2 + (xs - cx) ** 2 <= (size // 6) ** 2] = 25.0
    image += rng.normal(0.0, 2.0, image.shape)
    return np.clip(image, 0, 255).astype(np.uint8)


class StencilFrames(Workload):
    name = "stencil_frames"
    why = ("the paper's image pipeline on 256x256 frames over 4 devices: ~2e7 "
           "simulated kernel ops per op, so per-lane NumPy execution and halo "
           "exchange dominate and per-launch cost is amortized")
    window_steps = 64
    size = 256
    frames = period = 16
    threshold = 40

    def setup(self) -> None:
        rng = np.random.RandomState(self.seed)
        self.pool = [synthetic_frame(self.size, rng) for _ in range(self.frames)]
        self.references = [oracles.edge_pixel_count(image, self.threshold)
                           for image in self.pool]
        self.session = skelcl.init(num_devices=4, spec=ocl.TESLA_T10)
        self.blur = skelcl.MapOverlap("""
            uchar func(const uchar* img) {
                int sum = 1 * get(img, -1, -1) + 2 * get(img, 0, -1) + 1 * get(img, +1, -1)
                        + 2 * get(img, -1,  0) + 4 * get(img, 0,  0) + 2 * get(img, +1,  0)
                        + 1 * get(img, -1, +1) + 2 * get(img, 0, +1) + 1 * get(img, +1, +1);
                return (uchar)(sum / 16);
            }""", 1, skelcl.BoundaryMode.NEAREST)
        self.sobel = skelcl.MapOverlap("""
            uchar func(const uchar* img) {
                short h = -1*get(img,-1,-1) +1*get(img,+1,-1)
                          -2*get(img,-1, 0) +2*get(img,+1, 0)
                          -1*get(img,-1,+1) +1*get(img,+1,+1);
                short v = -1*get(img,-1,-1) -2*get(img, 0,-1) -1*get(img,+1,-1)
                          +1*get(img,-1,+1) +2*get(img, 0,+1) +1*get(img,+1,+1);
                return (uchar)sqrt((float)(h*h + v*v));
            }""", 1, skelcl.BoundaryMode.NEUTRAL, 0)
        self.binarize = skelcl.Map("uchar func(uchar x, int t) { return x > t ? 1 : 0; }")
        self.widen = skelcl.Map("int func(uchar x) { return x; }")
        self.count = skelcl.Reduce("int func(int a, int b) { return a + b; }")

    def prepare(self, index: int):
        return index % self.frames

    def step(self, frame: int):
        image = skelcl.Matrix(data=self.pool[frame])
        edges = self.sobel(self.blur(image))
        binary = self.binarize(edges, self.threshold)
        return self.count(self.widen(binary)).get_value()

    def check(self, frame: int, result) -> int:
        return 0 if result == self.references[frame] else 1


class FallbackPeritem(Workload):
    name = "fallback_peritem"
    why = ("a Map whose float2 locals the vectorizer rejects: every launch "
           "takes the per-item compiled engine, the path the vector engine's "
           "gains must not be paid for with")
    window_steps = 48
    elements = 2048
    iterations = 2

    def setup(self) -> None:
        rng = np.random.RandomState(self.seed)
        self.x = _dyadic(rng, self.elements, 64, 64)
        self.reference = oracles.complex_recurrence(self.x, self.iterations)
        self.session = skelcl.init(num_devices=1)
        self.map = skelcl.Map(f"""
            float func(float x) {{
                float2 z = (float2)(0.0f, 0.0f);
                float2 c = (float2)(x, 0.25f);
                for (int i = 0; i < {self.iterations}; ++i) {{
                    float2 t = (float2)(0.5f * z.x - 0.5f * z.y + c.x,
                                        0.5f * z.x + 0.5f * z.y + c.y);
                    z = t;
                }}
                return z.x + z.y;
            }}""")

    def step(self, payload):
        return self.map(skelcl.Vector(data=self.x)).to_numpy()

    def check(self, payload, result) -> int:
        return 0 if oracles.equal(result, self.reference) else 1


def _define_python(source: str, filename: str):
    """Define the single function in ``source`` so that
    ``inspect.getsource`` (which ``@skelcl.jit`` relies on) can find its
    text: the lines are registered in ``linecache`` under ``filename``."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"np": np}
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102 - own generated text
    (function,) = [value for key, value in namespace.items()
                   if callable(value) and key not in ("np", "__builtins__")]
    return function


_MAX_IDENTITY = {"uchar": "0", "int": "-100", "float": "-100.0f", "double": "-100.0"}


def _launch(program: corpus.Program, customizer=None):
    """Instantiate fresh skeletons for ``program`` and run them once,
    from host data through read-back."""
    kind, sources, inputs = program.kind, program.sources, program.inputs
    vector, matrix = skelcl.Vector, skelcl.Matrix
    nearest, neutral = skelcl.BoundaryMode.NEAREST, skelcl.BoundaryMode.NEUTRAL
    scalar = float if program.ctype in ("float", "double") else int
    extra = [scalar(value) for value in program.extra]
    identity = _MAX_IDENTITY[program.ctype]
    if kind == "map":
        return skelcl.Map(sources[0])(vector(data=inputs[0]), *extra).to_numpy()
    if kind == "jit_map":
        return skelcl.Map(customizer)(vector(data=inputs[0])).to_numpy()
    if kind == "map_index":
        return skelcl.Map(sources[0])(skelcl.IndexVector(inputs[0].size)).to_numpy()
    if kind == "zip":
        return skelcl.Zip(sources[0])(vector(data=inputs[0]),
                                      vector(data=inputs[1])).to_numpy()
    if kind == "jit_zip":
        return skelcl.Zip(customizer)(vector(data=inputs[0]),
                                      vector(data=inputs[1])).to_numpy()
    if kind == "reduce":
        return skelcl.Reduce(sources[0])(vector(data=inputs[0])).to_numpy()
    if kind == "reduce_max":
        return skelcl.Reduce(sources[0], identity=identity)(
            vector(data=inputs[0])).to_numpy()
    if kind == "scan":
        return skelcl.Scan(sources[0])(vector(data=inputs[0])).to_numpy()
    if kind == "scan_max":
        return skelcl.Scan(sources[0], identity=identity)(
            vector(data=inputs[0])).to_numpy()
    if kind == "mapoverlap":
        return skelcl.MapOverlap(sources[0], 1, nearest)(vector(data=inputs[0])).to_numpy()
    if kind == "mapoverlap_neutral":
        return skelcl.MapOverlap(sources[0], 1, neutral, 0)(
            vector(data=inputs[0])).to_numpy()
    if kind == "mapoverlap2d":
        return skelcl.MapOverlap(sources[0], 1, neutral, 0)(
            matrix(data=inputs[0])).to_numpy()
    if kind == "mapoverlap2d_nearest":
        return skelcl.MapOverlap(sources[0], 1, nearest)(matrix(data=inputs[0])).to_numpy()
    if kind == "allpairs":
        pairs = skelcl.AllPairs(skelcl.Reduce(sources[1]), skelcl.Zip(sources[0]))
        return pairs(matrix(data=inputs[0]), matrix(data=inputs[1])).to_numpy()
    if kind == "allpairs_raw":
        return skelcl.AllPairs(source=sources[0])(
            matrix(data=inputs[0]), matrix(data=inputs[1])).to_numpy()
    raise ValueError(f"unknown program kind {kind!r}")


class BuildLifecycle(Workload):
    name = "build_lifecycle"
    why = ("each op brings one new program up cold, from the on-disk program "
           "cache and from the in-memory cache: preprocess/parse/typecheck/lint/"
           "compile/progcache dominate and execution is trivial")
    #: Every template in every element type: 4 rounds of the corpus.
    window_steps = period = 4 * len(corpus.TEMPLATES)

    def setup(self) -> None:
        self.session = skelcl.init(num_devices=1)

    def prepare(self, index: int):
        program = corpus.program(self.seed, index)
        reference = oracles.build_program(program.shape, program.constants,
                                          program.inputs)
        return program, reference

    def step(self, payload):
        program, _ = payload
        customizer = None
        if program.kind.startswith("jit"):
            customizer = skelcl.jit(_define_python(
                program.sources[0], f"<bench corpus {program.index}>"))
        cold = _launch(program, customizer)
        ocl.clear_build_cache()
        from_disk = _launch(program, customizer)
        from_memory = _launch(program, customizer)
        return [cold, from_disk, from_memory]

    def check(self, payload, result) -> int:
        _, reference = payload
        return 0 if _all_match(result, [reference] * 3) else 1


class FusedPipeline(Workload):
    name = "fused_pipeline"
    why = ("the skeletons of dispatch_small through the lazy planner "
           "(defer, rewrite, compose, flush) at n=32768: two pipelines fuse, "
           "one falls back")
    window_steps = 64
    elements = 32768
    constants = tuple(0.5 * k for k in range(1, 9))
    #: Once through every constant: composed sources are then cached.
    warmup_steps = period = len(constants)

    def setup(self) -> None:
        rng = np.random.RandomState(self.seed)
        self.a = _dyadic(rng, self.elements, 64, 128)
        self.b = _dyadic(rng, self.elements, 64, 128)
        self.references = [oracles.fused_pipelines(self.a, self.b, c)
                           for c in self.constants]
        self.session = skelcl.init(devices=["tesla", "tesla"], lazy=True)
        self.total = skelcl.Reduce("float s(float x, float y) { return x + y; }")
        self.product = skelcl.Zip("float h(float x, float y) { return x * y; }")
        self.laplace = skelcl.MapOverlap(
            "float k(const float* v) { return get(v, -1) + get(v, 1)"
            " - 2.0f * get(v, 0); }", 1, skelcl.BoundaryMode.NEAREST)
        self.stages = [
            (skelcl.Map(f"float f(float x) {{ return x * {c!r}f + 1.0f; }}"),
             skelcl.Map(f"float g(float x) {{ return x - {c + 0.5!r}f; }}"))
            for c in self.constants]

    def prepare(self, index: int):
        return index % len(self.constants)

    def step(self, which: int):
        f, g = self.stages[which]
        a, b = skelcl.Vector(data=self.a), skelcl.Vector(data=self.b)
        return [
            self.total(g(f(a))).get_value(),
            self.total(self.product(f(a), g(b))).get_value(),
            self.total(self.laplace(f(a))).get_value(),
        ]

    def check(self, which: int, result) -> int:
        return 0 if _all_match(result, self.references[which]) else 1


class ServeMixed(Workload):
    name = "serve_mixed"
    why = ("three tenants submit graph and batchable map jobs to a DRR server "
           "with the strict race detector: the only workload with scheduler, "
           "admission, batching and happens-before bookkeeping on the clock")
    waves = 4
    ops_per_step = 3 * waves
    window_steps = 100
    signal_elements = 4096
    point_elements = 512
    edge_threshold = 16
    escape_limit = 24
    escape_bound = 900

    def setup(self) -> None:
        rng = np.random.RandomState(self.seed)
        self.signal = rng.randint(0, 256, self.signal_elements).astype(np.int32)
        self.points = rng.randint(0, 1024, self.point_elements).astype(np.int32)
        self.x = _dyadic(rng, self.signal_elements, 64, 128)
        self.y = _dyadic(rng, self.signal_elements, 64, 128)
        self.references = [
            (oracles.serve_edges(self.signal, self.edge_threshold), None),
            (oracles.serve_escape(self.points, self.escape_limit, self.escape_bound), None),
            oracles.serve_dot(self.x, self.y),
        ]
        self.server = serve.Server(["tesla", "tesla"], policy="drr",
                                   detect_races="strict")
        self.session = self.server.session
        self.imaging = self.server.client("imaging", weight=2.0)
        self.fractal = self.server.client("fractal")
        self.linalg = self.server.client("linalg")
        self.gradient = skelcl.MapOverlap(
            "int f(const int* v) { int g = get(v, 1) - get(v, -1);"
            " return g < 0 ? -g : g; }", 1, skelcl.BoundaryMode.NEUTRAL, 0)
        self.edges = skelcl.Map(
            f"int t(int x) {{ return x > {self.edge_threshold} ? 1 : 0; }}")
        self.escape = skelcl.Map(
            "int e(int c) { int z = 0; int it = 0;"
            f" while (it < {self.escape_limit} && z < {self.escape_bound})"
            " { z = (z * z + c) & 1023; ++it; } return it; }")
        self.multiply = skelcl.Zip("float m(float x, float y) { return x * y; }")
        self.total = skelcl.Reduce("float s(float x, float y) { return x + y; }")
        self.job_log: List = []  # every accepted Job, for the modeled latencies

    def _submissions(self):
        """One wave: the three job kinds, each a thunk that submits it."""
        def edges():
            signal = skelcl.Vector(data=self.signal)
            return self.imaging.submit(lambda: self.edges(self.gradient(signal)))

        def escape():
            return self.fractal.submit_map(self.escape, self.points)

        def dot():
            x, y = skelcl.Vector(data=self.x), skelcl.Vector(data=self.y)
            return self.linalg.submit(lambda: self.total(self.multiply(x, y)))

        return (edges, escape, dot)

    def step(self, payload):
        """One round: submit ``waves`` x 3 jobs, drain, read every result
        back.  Returns ``[(submit time, drain time, value or error)]``."""
        submitted = []
        for _ in range(self.waves):
            for submit in self._submissions():
                started = time.perf_counter()
                try:
                    submitted.append((started, submit()))
                except serve.ServeError as refusal:  # Backpressure / QuotaExceeded
                    submitted.append((started, refusal))
        self.server.drain()
        drained = time.perf_counter()
        out = []
        for started, job in submitted:
            value = job
            if isinstance(job, serve.Job):
                self.job_log.append(job)
                value = job.result()
                if not isinstance(value, np.ndarray):
                    value = value.to_numpy()
            out.append((started, drained, value))
        return out

    def latencies(self, started: float, ended: float, result) -> List[float]:
        return [drained - submitted for submitted, drained, _ in result]

    def check(self, payload, result) -> int:
        failed = 0
        for position, (_, _, value) in enumerate(result):
            reference, tolerance = self.references[position % 3]
            if isinstance(value, Exception) or not oracles.compare(
                    value, reference, tolerance):
                failed += 1
        return failed + (self.ops_per_step - len(result))

    def modeled_ns(self) -> int:
        return self.server.now_ns

    def modeled_latencies(self) -> Dict[str, float]:
        skip = self.warmup_steps * self.ops_per_step
        window = [job.latency_ns for job in
                  self.job_log[skip: skip + self.window_steps * self.ops_per_step]]
        return {"serve.modeled_latency_p50_ns": stats.percentile(window, 50),
                "serve.modeled_latency_p99_ns": stats.percentile(window, 99)}

    def close(self) -> None:
        self.server.close()


WORKLOADS: Dict[str, type] = {cls.name: cls for cls in (
    DispatchSmall, StencilFrames, FallbackPeritem, BuildLifecycle,
    FusedPipeline, ServeMixed)}
