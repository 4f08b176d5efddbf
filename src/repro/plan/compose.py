"""Kernel-source composition for fused skeletons.

Fusion never splices Python callables: it generates a new OpenCL-C
source string that defines every stage's (renamed) helper functions
plus one wrapper function returning their nested call expression
(:func:`_compose`, the only place that emits either), and instantiates
an ordinary :class:`~repro.skelcl.map.Map` / :class:`~repro.skelcl.zip.Zip`
— or a :class:`Premap` for Reduce's first pass — from it.  The fused
kernel therefore goes through the same ``kernelc`` front-end, lint pass,
SkelSan access-mode extraction, vectorizer and counters as any
hand-written one.

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
from typing import Dict, List, Tuple

from ..analysis.affine import AffineForm, UExpr, cached_kernel_summary
from ..ocl.errors import BuildError
from ..skelcl.map import Map
from ..skelcl.zip import Zip

_COMPOSED: Dict[tuple, object] = {}
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
                   spec: Dict[str, tuple], session) -> bool:
    # Built through the skeleton's own program table: the launch that
    # follows (if the node is not fused away) reuses the program, and
    # the summary is the one its lint pass already computed.
    try:
        program = skeleton._built(source, name, session).compiled.program
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


def footprints_fusable(skeleton, session=None) -> bool:
    """Footprint legality gate for fusion: the skeleton's generated
    kernel must *prove* (via its SkelAccess summary) that it touches
    global memory in the elementwise pattern fusion assumes.  A shape
    check alone would accept any Map/Zip subclass; this rejects ones
    whose kernel source deviates.  Memoized on the kernel source; the
    build a miss costs is counted on ``session`` (the planner's)."""
    kind, spec = (("zip", _ZIP_FOOTPRINT_SPEC) if isinstance(skeleton, Zip)
                  else ("map", _MAP_FOOTPRINT_SPEC))
    try:
        source = skeleton.kernel_source()
    except Exception:
        return False
    cached = _FOOTPRINT_CACHE.get(source)
    if cached is None:
        cached = _footprints_ok(
            skeleton, source, f"skelcl_{kind}_{skeleton.user.name}", spec, session)
        _FOOTPRINT_CACHE[source] = cached
    return cached


@dataclass(frozen=True)
class Premap:
    """A composed elementwise stage fused into Reduce's first pass: the
    full source (helpers + wrapper), the wrapper's name, its input type,
    and the extra parameter types the reduce kernel must thread
    through (their call-time values arrive as the call's extras)."""
    source: str
    name: str
    in_type: object  # ScalarType
    extra_types: tuple


def _compose(tree, wrapper: str) -> Tuple[str, list, list]:
    """The one generator of fused sources: the renamed stage sources in
    post-order (left chain, right chain, zip, post chain) plus a
    ``wrapper`` function returning the nested call expression of
    ``tree``.  Returns (source, leaf types, extra parameter types);
    leaf parameters come first, extras follow in post-order.

    A ``tree`` is ``(skeleton, child, ...)`` with one child per input of
    the skeleton: another tree for an inlined producer, ``None`` for an
    input leaf.  Names derive from the tree position: a pure map chain
    is ``__m{i}`` over ``SCL_X``; under a Zip (``__z``) the chains are
    ``__l{i}`` / ``__r{i}`` over ``SCL_L`` / ``SCL_R`` and the Maps
    above it ``__p{i}``.  Every inlined edge gets an explicit cast to
    the producer's output type; the root does not — the store (or the
    reduce template) performs that conversion itself."""
    parts: List[str] = []
    leaves: List[tuple] = []  # (ctype, parameter name)
    extras: List[tuple] = []

    def emit(node, tag: str, leaf_type) -> Tuple[str, str, int]:
        """(expression, tag, index) — the last two name the next stage
        of the chain ``node`` ends."""
        if node is None:
            name = "SCL_X" if tag == "m" else f"SCL_{tag.upper()}"
            leaves.append((leaf_type, name))
            return name, tag, 0
        skeleton, *children = node
        if len(children) == 2:
            args = [emit(child, side, ctype)[0] for child, side, ctype in
                    zip(children, "lr", (skeleton.left_type, skeleton.right_type))]
            suffix, prefix, tag, index = "__z", "SCL_Z_", "p", 0
        else:
            arg, tag, index = emit(children[0], tag, skeleton.in_type)
            args = [arg]
            suffix, prefix = f"__{tag}{index}", f"SCL_{tag.upper()}{index}_"
            index += 1
        source, fname = skeleton.user.renamed(suffix)
        parts.append(source)
        for j, ctype in enumerate(skeleton.extra_types):
            extras.append((ctype, f"{prefix}{j}"))
            args.append(f"{prefix}{j}")
        call = f"{fname}({', '.join(args)})"
        if node is not tree:
            call = f"({skeleton.out_type.name})({call})"
        return call, tag, index

    expr = emit(tree, "m", None)[0]
    params = ", ".join(f"{ctype.name} {name}" for ctype, name in leaves + extras)
    parts.append(f"{tree[0].out_type.name} {wrapper}({params}) {{\n"
                 f"    return {expr};\n}}\n")
    return ("\n".join(parts), [ctype for ctype, _ in leaves],
            [ctype for ctype, _ in extras])


def _tree_key(tree):
    return tree and (tree[0].user.source, *map(_tree_key, tree[1:]))


def _composed(kind, tree, wrapper: str, instantiate):
    """``instantiate(source, leaf types, extra types)`` of the composed
    ``tree``, memoized on the stage sources."""
    key = (kind, _tree_key(tree), tree[0].work_group_size)
    cached = _COMPOSED.get(key)
    if cached is None:
        cached = _COMPOSED[key] = instantiate(*_compose(tree, wrapper))
    return cached


def fused_map(tree) -> Map:
    """One Map computing a single-leaf ``tree`` (a map chain).  Extra
    arguments of all stages are concatenated in stage order."""
    return _composed(Map, tree, "SCL_FUSED", lambda source, *_: Map(
        source, work_group_size=tree[0].work_group_size))


def fused_zip(tree) -> Zip:
    """One Zip computing a two-leaf ``tree``: ``post ∘ zip(left chain,
    right chain)``, extra arguments concatenated in that order."""
    return _composed(Zip, tree, "SCL_FUSED", lambda source, *_: Zip(
        source, work_group_size=tree[0].work_group_size))


def premap_of(tree) -> Premap:
    """The composed elementwise function of a map chain, packaged for
    :meth:`repro.skelcl.reduce.Reduce._execute`'s fused first pass."""
    return _composed(Premap, tree, "SCL_PREMAP", lambda source, leaves, extras: Premap(
        source, "SCL_PREMAP", leaves[0], tuple(extras)))


def chain_label(tree, site_label: str, kind: str) -> str:
    """A trace span name for a fused step, keeping the *final* call's
    site: ``Fused[Map g∘f]@app.py:12``.  Names follow the tree's spine
    from the root down to the first Zip."""
    names = []
    while tree is not None:
        names.append(tree[0].user.name)
        tree = tree[1] if len(tree) == 2 else None
    _, _, site = (site_label or "").rpartition("@")
    suffix = f"@{site}" if site else ""
    return f"Fused[{kind} {'∘'.join(names)}]{suffix}"
