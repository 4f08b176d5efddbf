"""The MapOverlap skeleton (§3.4): stencil computations on vectors and
matrices.

The customizing function receives a pointer to the current element and
reads neighbours through the ``get`` accessor with *relative* indices::

    m = MapOverlap('''
        float func(float* m) {
            float sum = 0.0f;
            for (int i = -1; i <= 1; ++i)
                for (int j = -1; j <= 1; ++j)
                    sum += get(m, i, j);
            return sum;
        }''', 1, BoundaryMode.NEUTRAL, 0.0)

Boundary handling follows the paper: outside the container ``get``
yields the *neutral value* (``SCL_NEUTRAL``) or the nearest valid
element (``SCL_NEAREST``).  Accesses beyond the declared overlap ``d``
are rejected by a runtime range check in ``get`` (the checks the paper
proposes eliminating statically — see
:mod:`repro.kernelc.boundcheck`).

**Implementation** (mirrors the real SkelCL, cf. §4.2: "the NVIDIA
implementation and the MapOverlap skeleton of SkelCL" use fast local
memory): each work-group cooperatively stages its block plus a
``d``-wide halo in local memory; boundary handling happens once during
the staged load, so ``get`` is a plain tile read.  On multiple GPUs the
input uses the *overlap* distribution (Fig. 1d/2d), making all stencil
reads device-local.

Code generation note: the hidden tile-stride parameter ``get`` needs is
appended to the customizing function's signature by a source rewrite,
and a ``#define`` splices it into every ``get`` call site — the same
source-to-source approach the SkelCL library uses.
"""

from __future__ import annotations

import enum

from ..kernelc.boundcheck import analyze_get_bounds
from .distribution import Copy, Distribution, Overlap, Single
from .funcparse import append_hidden_params, pointer_param, scalar_return
from .matrix import Matrix
from .runtime import SkelCLError
from .skeleton import Skeleton, scalar_literal
from .types_ import dtype_for_ctype


class BoundaryMode(enum.Enum):
    NEUTRAL = "neutral"
    NEAREST = "nearest"


# Paper-style constant aliases.
SCL_NEUTRAL = BoundaryMode.NEUTRAL
SCL_NEAREST = BoundaryMode.NEAREST

# Work-group geometry baked into generated sources.
_VEC_WG = 256
_MAT_WG = 16

_VECTOR_GET_CHECKED = """\
{t} SCL_GET_V(const {t}* SCL_M, int SCL_DI) {{
    if (SCL_DI < -{d} || SCL_DI > {d}) {{ __scl_trap(1); }}
    return SCL_M[SCL_DI];
}}

#define get(m, di) SCL_GET_V((m), (di))"""

# When the static analysis proves every offset in range, get() inlines
# to a bare tile access (the paper's §3.4 future-work optimization).
_VECTOR_GET_UNCHECKED = "#define get(m, di) ((m)[(di)])"

_VECTOR_TEMPLATE = """\
{get_accessor}

{user_source}

__attribute__((reqd_work_group_size({wg}, 1, 1)))
__kernel void skelcl_mapoverlap_v(__global const {t}* SCL_IN,
                                  __global {u}* SCL_OUT,
                                  const unsigned int SCL_OWNED,
                                  const long SCL_START,
                                  const long SCL_TOTAL,
                                  const int SCL_HALO,
                                  const int SCL_STORED) {{
    __local {t} SCL_TILE[{wg} + 2 * {d}];
    size_t SCL_LID = get_local_id(0);
    long SCL_BASE = (long)get_group_id(0) * {wg};
    {{
        /* own element */
        long SCL_OFF = SCL_BASE + SCL_LID;
        long SCL_G = SCL_START + SCL_OFF;
{load_body}
        SCL_TILE[SCL_LID + {d}] = SCL_V;
    }}
    for (int SCL_I = (int)SCL_LID; SCL_I < 2 * {d}; SCL_I += {wg}) {{
        /* halo elements (2*d of them, loaded by the first work-items) */
        int SCL_T = SCL_I < {d} ? SCL_I : {wg} + SCL_I;
        long SCL_OFF = SCL_BASE + SCL_T - {d};
        long SCL_G = SCL_START + SCL_OFF;
{load_body}
        SCL_TILE[SCL_T] = SCL_V;
    }}
    barrier(CLK_LOCAL_MEM_FENCE);
    size_t SCL_ID = get_global_id(0);
    if (SCL_ID < SCL_OWNED) {{
        SCL_OUT[SCL_ID] = {func}(&SCL_TILE[SCL_LID + {d}]);
    }}
}}
"""

_VECTOR_LOAD_NEUTRAL = """\
        {t} SCL_V = {neutral};
        if (SCL_G >= 0 && SCL_G < SCL_TOTAL && SCL_OFF + SCL_HALO < SCL_STORED) {{
            SCL_V = SCL_IN[SCL_OFF + SCL_HALO];
        }}"""

_VECTOR_LOAD_NEAREST = """\
        long SCL_C = SCL_G;
        if (SCL_C < 0) {{ SCL_C = 0; }}
        if (SCL_C >= SCL_TOTAL) {{ SCL_C = SCL_TOTAL - 1; }}
        long SCL_IDX = SCL_C - SCL_START + SCL_HALO;
        if (SCL_IDX >= SCL_STORED) {{ SCL_IDX = SCL_STORED - 1; }}
        if (SCL_IDX < 0) {{ SCL_IDX = 0; }}
        {t} SCL_V = SCL_IN[SCL_IDX];"""

_MATRIX_GET_CHECKED = """\
{t} SCL_GET_M(const {t}* SCL_M, int SCL_DX, int SCL_DY, int SCL_STRIDE) {{
    if (SCL_DX < -{d} || SCL_DX > {d} || SCL_DY < -{d} || SCL_DY > {d}) {{ __scl_trap(1); }}
    return SCL_M[SCL_DY * SCL_STRIDE + SCL_DX];
}}

#define get(m, dx, dy) SCL_GET_M((m), (dx), (dy), _stride)"""

_MATRIX_GET_UNCHECKED = "#define get(m, dx, dy) ((m)[(dy) * _stride + (dx)])"

_MATRIX_TEMPLATE = """\
{get_accessor}

{user_source}

__attribute__((reqd_work_group_size({wg}, {wg}, 1)))
__kernel void skelcl_mapoverlap_m(__global const {t}* SCL_IN,
                                  __global {u}* SCL_OUT,
                                  const int SCL_W,
                                  const int SCL_H,
                                  const int SCL_ROW0,
                                  const int SCL_ROWS_OWNED,
                                  const int SCL_HALO,
                                  const int SCL_STORED_ROWS) {{
    __local {t} SCL_TILE[{wg} + 2 * {d}][{wg} + 2 * {d}];
    const int SCL_LX = get_local_id(0);
    const int SCL_LY = get_local_id(1);
    const long SCL_CX0 = (long)get_group_id(0) * {wg} - {d};
    const long SCL_RY0 = (long)get_group_id(1) * {wg} - {d};
    const int SCL_SPAN = {wg} + 2 * {d};
    {{
        /* own element */
        long SCL_SX = SCL_CX0 + SCL_LX + {d};
        long SCL_SR = SCL_RY0 + SCL_LY + {d};
        long SCL_GY = SCL_ROW0 + SCL_SR;
{load_body}
        SCL_TILE[SCL_LY + {d}][SCL_LX + {d}] = SCL_V;
    }}
    const int SCL_BORDER = SCL_SPAN * SCL_SPAN - {wg} * {wg};
    for (int SCL_I = SCL_LY * {wg} + SCL_LX; SCL_I < SCL_BORDER;
         SCL_I += {wg} * {wg}) {{
        /* halo cells: top band, bottom band, then the side columns */
        int SCL_K = SCL_I;
        int SCL_TX;
        int SCL_TY;
        if (SCL_K < {d} * SCL_SPAN) {{
            SCL_TY = SCL_K / SCL_SPAN;
            SCL_TX = SCL_K % SCL_SPAN;
        }} else if (SCL_K < 2 * {d} * SCL_SPAN) {{
            SCL_K -= {d} * SCL_SPAN;
            SCL_TY = SCL_SPAN - {d} + SCL_K / SCL_SPAN;
            SCL_TX = SCL_K % SCL_SPAN;
        }} else {{
            SCL_K -= 2 * {d} * SCL_SPAN;
            SCL_TY = {d} + SCL_K / (2 * {d});
            int SCL_COL = SCL_K % (2 * {d});
            SCL_TX = SCL_COL < {d} ? SCL_COL : {wg} + SCL_COL;
        }}
        long SCL_SX = SCL_CX0 + SCL_TX;
        long SCL_SR = SCL_RY0 + SCL_TY;
        long SCL_GY = SCL_ROW0 + SCL_SR;
{load_body}
        SCL_TILE[SCL_TY][SCL_TX] = SCL_V;
    }}
    barrier(CLK_LOCAL_MEM_FENCE);
    long _gx = get_global_id(0);
    long SCL_LROW = get_global_id(1);
    if (_gx < SCL_W && SCL_LROW < SCL_ROWS_OWNED) {{
        int _stride = SCL_SPAN;
        SCL_OUT[SCL_LROW * SCL_W + _gx] =
            {func}(&SCL_TILE[SCL_LY + {d}][SCL_LX + {d}], _stride);
    }}
}}
"""

_MATRIX_LOAD_NEUTRAL = """\
        {t} SCL_V = {neutral};
        if (SCL_SX >= 0 && SCL_SX < SCL_W && SCL_GY >= 0 && SCL_GY < SCL_H
                && SCL_SR + SCL_HALO < SCL_STORED_ROWS) {{
            SCL_V = SCL_IN[(SCL_SR + SCL_HALO) * SCL_W + SCL_SX];
        }}"""

_MATRIX_LOAD_NEAREST = """\
        long SCL_CX = SCL_SX;
        if (SCL_CX < 0) {{ SCL_CX = 0; }}
        if (SCL_CX >= SCL_W) {{ SCL_CX = SCL_W - 1; }}
        long SCL_CY = SCL_GY;
        if (SCL_CY < 0) {{ SCL_CY = 0; }}
        if (SCL_CY >= SCL_H) {{ SCL_CY = SCL_H - 1; }}
        long SCL_RIDX = SCL_CY - SCL_ROW0 + SCL_HALO;
        if (SCL_RIDX >= SCL_STORED_ROWS) {{ SCL_RIDX = SCL_STORED_ROWS - 1; }}
        if (SCL_RIDX < 0) {{ SCL_RIDX = 0; }}
        {t} SCL_V = SCL_IN[SCL_RIDX * SCL_W + SCL_CX];"""


class MapOverlap(Skeleton):
    def __init__(self, source, overlap: int,
                 boundary: BoundaryMode = BoundaryMode.NEUTRAL, neutral=0,
                 static_bounds: bool = True):
        super().__init__(source)
        if self.user is None:
            # A jit customizer left unspecialized: its pointer parameter
            # carries no intent annotation, so the element type (and the
            # bounds proof below) cannot be derived.
            raise SkelCLError(
                "a @skelcl.jit MapOverlap function must annotate its "
                "neighbourhood parameter with an intent, e.g. "
                "m: skelcl.READ[np.float32]"
            )
        if overlap < 0:
            raise SkelCLError(f"overlap range must be non-negative, got {overlap}")
        self.overlap = overlap
        self.boundary = boundary
        self.neutral = neutral
        # Static bounds proof (the paper's §3.4 future work): when every
        # get() offset is provably within ±d, the runtime range checks
        # are compiled out.
        self.bounds_proof = analyze_get_bounds(self.user.definition, overlap)
        self.checks_elided = static_bounds and self.bounds_proof.proven

    def _bind_user(self) -> None:
        if self.user.arity != 1:
            raise SkelCLError(
                "a MapOverlap customizing function takes exactly one pointer parameter"
            )
        self.pointer_type = pointer_param(self.user, 0)
        self.in_type = self.pointer_type.pointee
        self.out_type = scalar_return(self.user)

    @property
    def effective_overlap(self) -> int:
        """The halo width actually staged and transferred.

        When the bounds proof pins every ``get`` offset inside a reach
        smaller than the declared overlap, the tile halo and the overlap
        distribution shrink to the proven reach — halo bytes beyond it
        are never read, so they are never shipped (footprint-driven
        transfers; the saving is counted in
        ``skelcl_transfer_bytes_saved_total``)."""
        if not self.checks_elided:
            return self.overlap
        reach = 0
        for intervals in self.bounds_proof.accesses:
            for interval in intervals:
                if interval.is_top:
                    return self.overlap
                reach = max(reach, int(max(abs(interval.lo), abs(interval.hi))))
        return min(reach, self.overlap)

    # -- code generation ------------------------------------------------------

    def _neutral_literal(self) -> str:
        return scalar_literal(self.neutral, self.in_type)

    def vector_source(self) -> str:
        load_template = (
            _VECTOR_LOAD_NEUTRAL if self.boundary is BoundaryMode.NEUTRAL else _VECTOR_LOAD_NEAREST
        )
        load_body = load_template.format(t=self.in_type.name, neutral=self._neutral_literal())
        accessor = (
            _VECTOR_GET_UNCHECKED
            if self.checks_elided
            else _VECTOR_GET_CHECKED.format(t=self.in_type.name, d=self.overlap)
        )
        return _VECTOR_TEMPLATE.format(
            t=self.in_type.name,
            u=self.out_type.name,
            get_accessor=accessor,
            load_body=load_body,
            user_source=self.user.source,
            func=self.user.name,
            d=self.effective_overlap,
            wg=_VEC_WG,
        )

    def matrix_source(self) -> str:
        load_template = (
            _MATRIX_LOAD_NEUTRAL if self.boundary is BoundaryMode.NEUTRAL else _MATRIX_LOAD_NEAREST
        )
        load_body = load_template.format(t=self.in_type.name, neutral=self._neutral_literal())
        accessor = (
            _MATRIX_GET_UNCHECKED
            if self.checks_elided
            else _MATRIX_GET_CHECKED.format(t=self.in_type.name, d=self.overlap)
        )
        user = append_hidden_params(self.user, "int _stride")
        return _MATRIX_TEMPLATE.format(
            t=self.in_type.name,
            u=self.out_type.name,
            get_accessor=accessor,
            load_body=load_body,
            user_source=user,
            func=self.user.name,
            d=self.effective_overlap,
            wg=_MAT_WG,
        )

    # -- distribution policy -----------------------------------------------------

    def _resolve_distribution(self, container) -> Distribution:
        current = container.distribution
        halo = self.effective_overlap
        if isinstance(current, (Single, Copy)):
            return current  # whole data present: no halo needed
        if isinstance(current, Overlap) and current.overlap >= halo:
            return current
        # The halo is grown around a block-distributed input's owned ranges.
        return Overlap(halo)

    def _count_halo_savings(self, session, chunks, total: int, row_bytes: int) -> None:
        """Credit ``skelcl_transfer_bytes_saved_total`` with the halo
        rows/elements the proven reach let us *not* ship, relative to
        the declared overlap (``row_bytes`` is the size of one halo
        unit: an element for vectors, a row for matrices)."""
        saved_units = 0
        for chunk, _buffer in chunks:
            full_before = min(self.overlap, chunk.owned_start)
            full_after = min(self.overlap, total - chunk.owned_end)
            saved_units += max(0, full_before - chunk.halo_before)
            saved_units += max(0, full_after - chunk.halo_after)
        if saved_units:
            session.metrics.counter(
                "skelcl_transfer_bytes_saved_total"
            ).inc(saved_units * row_bytes)

    # -- execution -------------------------------------------------------------------

    def _validate(self, inputs, extras) -> None:
        if inputs[0].dtype != dtype_for_ctype(self.in_type):
            raise SkelCLError(
                f"MapOverlap input dtype {inputs[0].dtype} does not match {self.in_type}"
            )

    def _execute(self, node):
        # Halo exchange makes MapOverlap unfusable — under the planner it
        # defers as an eager-at-force node (docs/planner.md, "Fallbacks").
        session, (container,) = node.session, node.inputs
        distribution = self._resolve_distribution(container)
        if isinstance(container, Matrix):
            width, height = container.cols, container.rows
            source, kernel_name, local_size = (
                self.matrix_source, "skelcl_mapoverlap_m", (_MAT_WG, _MAT_WG))

            def chunk_args(_out_chunk, chunk):
                return ((width, height, chunk.owned_start, chunk.owned_size,
                         chunk.halo_before, chunk.stored_size),
                        (width, chunk.owned_size))
        else:
            total = container.size
            source, kernel_name, local_size = (
                self.vector_source, "skelcl_mapoverlap_v", (_VEC_WG,))

            def chunk_args(_out_chunk, chunk):
                return ((chunk.owned_size, chunk.owned_start, total,
                         chunk.halo_before, chunk.stored_size),
                        (chunk.owned_size,))

        out = self._launch(
            node, node.inputs, [distribution], self.output_distribution(distribution),
            source, f"skelcl_mapoverlap_{self.user.name}", kernel_name, local_size,
            chunk_args)
        if distribution.kind == "overlap" and self.effective_overlap < self.overlap:
            self._count_halo_savings(
                session, container.chunk_buffers(), container._units,
                container._unit_elements * container.dtype.itemsize)
        return out
