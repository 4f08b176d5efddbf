"""Kernel-source composition for fused skeletons.

Fusion never splices Python callables: it generates a new OpenCL-C
source string that defines every stage's (renamed) helper functions
plus one wrapper function calling them in sequence, and instantiates an
ordinary :class:`~repro.skelcl.map.Map` / :class:`~repro.skelcl.zip.Zip`
from it.  The fused kernel therefore goes through the same ``kernelc``
front-end, lint pass, SkelSan access-mode extraction, vectorizer and
counters as any hand-written one.

Bit-exactness at the fusion seams: the eager pipeline *stores* every
intermediate at its declared element type and reloads it, which rounds
(floats) or wraps (integers) the value.  The composed wrapper inserts
an explicit cast to the intermediate's type at every seam —
``f1((T0)(f0(x)))`` — reproducing that store/load conversion exactly,
so fused and unfused runs agree bit for bit.

Composed skeletons are memoized on the stage sources, so hot loops pay
the parse/build once (and the program build cache already de-duplicates
the generated source globally).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..analysis.affine import AffineForm, UExpr, cached_kernel_summary
from ..kernelc.parser import parse
from ..ocl.errors import BuildError
from ..skelcl.map import Map
from ..skelcl.skeleton import rename_function
from ..skelcl.zip import Zip

_FUNCTION_NAMES: Dict[str, Tuple[str, ...]] = {}


def _function_names(source: str) -> Tuple[str, ...]:
    """Every function defined in ``source`` (already preprocessed)."""
    names = _FUNCTION_NAMES.get(source)
    if names is None:
        program = parse(source, "<fused stage>")
        names = tuple(fn.name for fn in program.functions)
        _FUNCTION_NAMES[source] = names
    return names


def _suffixed(user, suffix: str) -> Tuple[str, str]:
    """Rename *every* function ``user``'s source defines with ``suffix``
    (helpers included), so stages with colliding helper names coexist in
    one fused source.  Returns (renamed source, renamed customizing
    function name)."""
    source = user.source
    for name in _function_names(user.source):
        source = rename_function(source, name, f"{name}{suffix}")
    return source, f"{user.name}{suffix}"


def _chain_expr(stages: Sequence[Map], parts: List[str], params: List[str],
                seed_expr: str, tag: str, cast_last: bool) -> str:
    """Append each stage's renamed source to ``parts`` and its extra
    parameters to ``params``; return the nested call expression applying
    the stages to ``seed_expr``.  Seams get an explicit cast to the
    stage's output type; ``cast_last`` casts the final stage too (needed
    when the chain's result feeds another function rather than a store,
    which would perform the conversion itself)."""
    expr = seed_expr
    for index, stage in enumerate(stages):
        source, fname = _suffixed(stage.user, f"__{tag}{index}")
        parts.append(source)
        extra_names = []
        for j, ctype in enumerate(stage.extra_types):
            name = f"SCL_{tag.upper()}{index}_{j}"
            params.append(f"{ctype.name} {name}")
            extra_names.append(name)
        call = f"{fname}({expr}{''.join(', ' + n for n in extra_names)})"
        if cast_last or index < len(stages) - 1:
            expr = f"({stage.out_type.name})({call})"
        else:
            expr = call
    return expr


_MAP_CACHE: Dict[tuple, Map] = {}
_ZIP_CACHE: Dict[tuple, Zip] = {}
_PREMAP_CACHE: Dict[tuple, "Premap"] = {}
_FOOTPRINT_CACHE: Dict[str, bool] = {}

# The access pattern fusion relies on, per generated-kernel parameter:
# reads at ``gid0 + <offset param>`` (the runtime-managed chunk offset),
# writes at exactly ``gid0``.  Anything else — a shifted read like
# ``SCL_IN[SCL_ID + SCL_OFFSET + 1]``, a strided store, a second write
# site — breaks the elementwise contract ``fused(i) == eager(i)``.
_MAP_FOOTPRINT_SPEC = {"SCL_IN": ("r", "SCL_OFFSET"), "SCL_OUT": ("w", None)}
_ZIP_FOOTPRINT_SPEC = {
    "SCL_LEFT": ("r", "SCL_LEFT_OFFSET"),
    "SCL_RIGHT": ("r", "SCL_RIGHT_OFFSET"),
    "SCL_OUT": ("w", None),
}


def _elementwise_key(offset_param):
    base = (UExpr.sym(("param", offset_param)) if offset_param
            else UExpr.const(0))
    return AffineForm(base, {("gid", 0): UExpr.const(1)}).key()


def _footprints_ok(skeleton, source: str, name: str,
                   spec: Dict[str, tuple]) -> bool:
    # Built through the skeleton's own program table: the launch that
    # follows (if the node is not fused away) reuses the program, and
    # the summary is the one its lint pass already computed.
    try:
        program = skeleton._program(source, name).compiled.program
    except BuildError:
        return False
    kernels = program.kernels()
    if len(kernels) != 1:
        return False
    summary = cached_kernel_summary(program, kernels[0])
    for name, psum in summary.params.items():
        expected = spec.get(name)
        if expected is None or not psum.affine:
            return False
        mode, offset_param = expected
        want = _elementwise_key(offset_param)
        for fp in psum.footprints:
            if fp.mode != mode or fp.index.key() != want:
                return False
    return True


def footprints_fusable(skeleton) -> bool:
    """Footprint legality gate for fusion: the skeleton's generated
    kernel must *prove* (via its SkelAccess summary) that it touches
    global memory in the elementwise pattern fusion assumes.  A shape
    check alone would accept any Map/Zip subclass; this rejects ones
    whose kernel source deviates.  Memoized on the kernel source."""
    kind, spec = (("zip", _ZIP_FOOTPRINT_SPEC) if isinstance(skeleton, Zip)
                  else ("map", _MAP_FOOTPRINT_SPEC))
    try:
        source = skeleton.kernel_source()
    except Exception:
        return False
    cached = _FOOTPRINT_CACHE.get(source)
    if cached is None:
        cached = _footprints_ok(
            skeleton, source, f"skelcl_{kind}_{skeleton.user.name}", spec)
        _FOOTPRINT_CACHE[source] = cached
    return cached


def _map_key(stages: Sequence[Map]) -> tuple:
    return tuple(s.user.source for s in stages) + (stages[-1].work_group_size,)


def fused_map(stages: Sequence[Map]) -> Map:
    """One Map computing ``stages[-1] ∘ ... ∘ stages[0]``.  Extra
    arguments of all stages are concatenated in stage order."""
    key = _map_key(stages)
    cached = _MAP_CACHE.get(key)
    if cached is not None:
        return cached
    parts: List[str] = []
    params: List[str] = [f"{stages[0].in_type.name} SCL_X"]
    expr = _chain_expr(stages, parts, params, "SCL_X", "m", cast_last=False)
    wrapper = (f"{stages[-1].out_type.name} SCL_FUSED({', '.join(params)}) {{\n"
               f"    return {expr};\n}}\n")
    fused = Map("\n".join(parts + [wrapper]),
                work_group_size=stages[-1].work_group_size)
    _MAP_CACHE[key] = fused
    return fused


def fused_zip(left_stages: Sequence[Map], right_stages: Sequence[Map],
              zip_skeleton: Zip, post_stages: Sequence[Map]) -> Zip:
    """One Zip computing ``post ∘ zip(left_chain, right_chain)``.  Extra
    arguments are concatenated left-chain, right-chain, zip, post-chain
    (matching :func:`fused_zip_extras`)."""
    key = (tuple(s.user.source for s in left_stages),
           tuple(s.user.source for s in right_stages),
           zip_skeleton.user.source,
           tuple(s.user.source for s in post_stages),
           zip_skeleton.work_group_size)
    cached = _ZIP_CACHE.get(key)
    if cached is not None:
        return cached
    parts: List[str] = []
    left_in = left_stages[0].in_type if left_stages else zip_skeleton.left_type
    right_in = right_stages[0].in_type if right_stages else zip_skeleton.right_type
    params: List[str] = [f"{left_in.name} SCL_L", f"{right_in.name} SCL_R"]
    left_expr = _chain_expr(left_stages, parts, params, "SCL_L", "l", cast_last=True)
    right_expr = _chain_expr(right_stages, parts, params, "SCL_R", "r", cast_last=True)
    zip_source, zip_name = _suffixed(zip_skeleton.user, "__z")
    parts.append(zip_source)
    zip_extra_names = []
    for j, ctype in enumerate(zip_skeleton.extra_types):
        name = f"SCL_Z_{j}"
        params.append(f"{ctype.name} {name}")
        zip_extra_names.append(name)
    expr = (f"{zip_name}({left_expr}, {right_expr}"
            f"{''.join(', ' + n for n in zip_extra_names)})")
    if post_stages:
        expr = f"({zip_skeleton.out_type.name})({expr})"
        expr = _chain_expr(post_stages, parts, params, expr, "p", cast_last=False)
        out_type = post_stages[-1].out_type
    else:
        out_type = zip_skeleton.out_type
    wrapper = (f"{out_type.name} SCL_FUSED({', '.join(params)}) {{\n"
               f"    return {expr};\n}}\n")
    fused = Zip("\n".join(parts + [wrapper]),
                work_group_size=zip_skeleton.work_group_size)
    _ZIP_CACHE[key] = fused
    return fused


@dataclass(frozen=True)
class Premap:
    """A composed elementwise stage fused into Reduce's first pass: the
    full source (helpers + wrapper), the wrapper's name, its input type,
    and the extra parameter types the reduce kernel must thread
    through.  ``extras`` (the call-time values) ride alongside."""
    source: str
    name: str
    in_type: object  # ScalarType
    extra_types: tuple
    extras: tuple = ()

    def with_extras(self, extras: Sequence) -> "Premap":
        return Premap(self.source, self.name, self.in_type,
                      self.extra_types, tuple(extras))


def premap_of(stages: Sequence[Map]) -> Premap:
    """The composed elementwise function of a map chain, packaged for
    :meth:`repro.skelcl.reduce.Reduce._execute`'s fused first pass.
    The final seam cast is left to the reduce kernel template (which
    casts the premap result to the element type, reproducing the eager
    store of the chain's output)."""
    key = _map_key(stages)
    cached = _PREMAP_CACHE.get(key)
    if cached is not None:
        return cached
    parts: List[str] = []
    params: List[str] = [f"{stages[0].in_type.name} SCL_X"]
    expr = _chain_expr(stages, parts, params, "SCL_X", "m", cast_last=False)
    wrapper = (f"{stages[-1].out_type.name} SCL_PREMAP({', '.join(params)}) {{\n"
               f"    return {expr};\n}}\n")
    extra_types = []
    for stage in stages:
        extra_types.extend(stage.extra_types)
    premap = Premap("\n".join(parts + [wrapper]), "SCL_PREMAP",
                    stages[0].in_type, tuple(extra_types))
    _PREMAP_CACHE[key] = premap
    return premap


def chain_label(stages: Sequence, site_label: str, kind: str = "Map") -> str:
    """A trace span name for a fused chain, keeping the *final* call's
    site: ``Fused[Map f∘g]@app.py:12``."""
    names = "∘".join(s.user.name for s in reversed(list(stages)))
    _, _, site = (site_label or "").rpartition("@")
    suffix = f"@{site}" if site else ""
    return f"Fused[{kind} {names}]{suffix}"
