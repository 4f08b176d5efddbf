"""The AllPairs skeleton (§3.5): ``C[i,j] = A_i ⊕ B_j`` over all row
pairs of an ``n×d`` matrix A and an ``m×d`` matrix B.

Two customization forms are supported, as in SkelCL:

* **zip/reduce composition** — the row operator is
  ``⊕(a, b) = reduce(zip(a, b))``, supplied as a :class:`Zip` and a
  :class:`Reduce`; the generated kernel fuses both (e.g. matrix
  multiplication: zip = multiply, reduce = add)::

      mult = Zip("float func(float x, float y) { return x * y; }")
      plus = Reduce("float func(float x, float y) { return x + y; }")
      matmul = AllPairs(plus, mult)
      C = matmul(A, B_transposed)

* **raw row function** — a function receiving both row pointers and the
  row length: ``float func(const float* a, const float* b, int d)``.

Default distributions: A block (rows), B copy, C block — each device
computes the C rows matching its A rows, which is the scalable
multi-GPU decomposition the paper's distribution mechanism enables.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..jit import JitFunction
from .distribution import Block, Copy
from .funcparse import pointer_param, scalar_return
from .matrix import Matrix
from .reduce import Reduce
from .runtime import SkelCLError
from .skeleton import Skeleton
from .types_ import dtype_for_ctype
from .zip import Zip

_FUSED_TEMPLATE = """\
{zip_source}

{reduce_source}

__kernel void skelcl_allpairs(__global const {t}* SCL_A,
                              __global const {t}* SCL_B,
                              __global {u}* SCL_C,
                              const unsigned int SCL_N,
                              const unsigned int SCL_M,
                              const unsigned int SCL_D) {{
    size_t SCL_COL = get_global_id(0);
    size_t SCL_ROW = get_global_id(1);
    if (SCL_ROW < SCL_N && SCL_COL < SCL_M) {{
        {u} SCL_ACC = {identity};
        for (unsigned int SCL_K = 0; SCL_K < SCL_D; ++SCL_K) {{
            SCL_ACC = SCL_RED_F(SCL_ACC,
                                SCL_ZIP_F(SCL_A[SCL_ROW * SCL_D + SCL_K],
                                          /* generic variant: the tiled
                                             kernel below is the coalesced
                                             path.
                                             skelcl-lint: allow(strided-global-read) */
                                          SCL_B[SCL_COL * SCL_D + SCL_K]));
        }}
        SCL_C[SCL_ROW * SCL_M + SCL_COL] = SCL_ACC;
    }}
}}
"""

_TILED_TEMPLATE = """\
{zip_source}

{reduce_source}

#define TILE {tile}

__kernel void skelcl_allpairs(__global const {t}* SCL_A,
                              __global const {t}* SCL_B,
                              __global {u}* SCL_C,
                              const unsigned int SCL_N,
                              const unsigned int SCL_M,
                              const unsigned int SCL_D) {{
    __local {t} SCL_AT[TILE][TILE];
    __local {t} SCL_BT[TILE][TILE];
    const int SCL_LX = get_local_id(0);
    const int SCL_LY = get_local_id(1);
    const long SCL_COL = get_global_id(0);
    const long SCL_ROW = get_global_id(1);
    const long SCL_COL0 = (long)get_group_id(0) * TILE;
    {u} SCL_ACC = {identity};
    for (int SCL_T = 0; SCL_T < SCL_D; SCL_T += TILE) {{
        int SCL_AX = SCL_T + SCL_LX;
        {t} SCL_AV = 0;
        if (SCL_ROW < SCL_N && SCL_AX < SCL_D) {{
            SCL_AV = SCL_A[SCL_ROW * SCL_D + SCL_AX];
        }}
        SCL_AT[SCL_LY][SCL_LX] = SCL_AV;
        long SCL_BROW = SCL_COL0 + SCL_LX;
        int SCL_BX = SCL_T + SCL_LY;
        {t} SCL_BV = 0;
        if (SCL_BROW < SCL_M && SCL_BX < SCL_D) {{
            SCL_BV = SCL_B[SCL_BROW * SCL_D + SCL_BX];
        }}
        SCL_BT[SCL_LY][SCL_LX] = SCL_BV;
        barrier(CLK_LOCAL_MEM_FENCE);
        if (SCL_ROW < SCL_N && SCL_COL < SCL_M) {{
            int SCL_KMAX = SCL_D - SCL_T;
            if (SCL_KMAX > TILE) {{ SCL_KMAX = TILE; }}
            for (int SCL_K = 0; SCL_K < SCL_KMAX; ++SCL_K) {{
                SCL_ACC = SCL_RED_F(SCL_ACC,
                                    SCL_ZIP_F(SCL_AT[SCL_LY][SCL_K],
                                              SCL_BT[SCL_K][SCL_LX]));
            }}
        }}
        barrier(CLK_LOCAL_MEM_FENCE);
    }}
    if (SCL_ROW < SCL_N && SCL_COL < SCL_M) {{
        SCL_C[SCL_ROW * SCL_M + SCL_COL] = SCL_ACC;
    }}
}}
"""

_RAW_TEMPLATE = """\
{user_source}

__kernel void skelcl_allpairs(__global const {t}* SCL_A,
                              __global const {t}* SCL_B,
                              __global {u}* SCL_C,
                              const unsigned int SCL_N,
                              const unsigned int SCL_M,
                              const unsigned int SCL_D) {{
    size_t SCL_COL = get_global_id(0);
    size_t SCL_ROW = get_global_id(1);
    if (SCL_ROW < SCL_N && SCL_COL < SCL_M) {{
        SCL_C[SCL_ROW * SCL_M + SCL_COL] =
            {func}(SCL_A + SCL_ROW * SCL_D, SCL_B + SCL_COL * SCL_D, (int)SCL_D);
    }}
}}
"""


class AllPairs(Skeleton):
    """AllPairs skeleton.

    ``tiled=True`` (zip/reduce form only) enables the local-memory
    tiling optimization the SkelCL authors describe in their follow-up
    work: both row tiles are staged in local memory and the reduction
    runs chunkwise, cutting global loads by the tile factor.  The raw
    (opaque function) form cannot be tiled — the library needs to *see*
    the zip/reduce structure to restructure the loop, which is exactly
    the argument for structured customization.
    """

    n_inputs = 2
    accepts = (Matrix,)

    def __init__(self, reduce: Optional[Reduce] = None, zip: Optional[Zip] = None,
                 source: Optional[str] = None, tiled: bool = False, tile: int = 16):
        self.tiled = tiled
        self.tile = tile
        if source is not None:
            if reduce is not None or zip is not None:
                raise SkelCLError("AllPairs takes either (reduce, zip) or a raw source, not both")
            if tiled:
                raise SkelCLError(
                    "the tiled AllPairs optimization requires the zip/reduce form "
                    "(an opaque row function cannot be restructured)"
                )
            if isinstance(source, JitFunction):
                # AllPairs never sees a container element type directly
                # (the row function takes pointers), so a jit row
                # function must be fully annotated — lower_source raises
                # with the unannotated parameter otherwise.
                source = source.lower_source()
            self._mode = "raw"
            super().__init__(source)
        else:
            super().__init__()
            if reduce is None or zip is None:
                raise SkelCLError("AllPairs needs a Reduce and a Zip (or a raw source)")
            if zip._user is None or reduce._user is None:
                raise SkelCLError(
                    "AllPairs needs specialized operators: annotate the "
                    "@skelcl.jit zip/reduce functions so their element "
                    "types are known at construction"
                )
            if zip.left_type != zip.right_type:
                raise SkelCLError("AllPairs zip operator must combine equal element types")
            if reduce.element_type != zip.out_type:
                raise SkelCLError(
                    f"zip produces {zip.out_type} but reduce combines {reduce.element_type}"
                )
            self.reduce = reduce
            self.zip = zip
            self.element_type = zip.left_type
            self.out_type = reduce.element_type
            self._mode = "fused"

    # -- code generation -------------------------------------------------------

    def kernel_source(self) -> str:
        if self._mode == "raw":
            return _RAW_TEMPLATE.format(
                user_source=self.user.source,
                t=self.element_type.name,
                u=self.out_type.name,
                func=self.user.name,
            )
        zip_source, _ = self.zip.user.renamed("__zip", "SCL_ZIP_F")
        reduce_source, _ = self.reduce.user.renamed("__red", "SCL_RED_F")
        template = _TILED_TEMPLATE if self.tiled else _FUSED_TEMPLATE
        return template.format(
            zip_source=zip_source,
            reduce_source=reduce_source,
            t=self.element_type.name,
            u=self.out_type.name,
            identity=self.reduce.identity,
            tile=self.tile,
        )

    # -- execution ----------------------------------------------------------------

    def _bind_user(self) -> None:
        if self.user.arity != 3:
            raise SkelCLError(
                "a raw AllPairs function must be f(const T* a, const T* b, int d)"
            )
        self.element_type = pointer_param(self.user, 0).pointee
        self.out_type = scalar_return(self.user)

    @property
    def func_name(self) -> str:
        if self._mode == "raw":
            return self.user.name
        return f"{self.reduce.user.name}∘{self.zip.user.name}"

    def _validate(self, inputs, extras) -> None:
        a, b = inputs
        if a.cols != b.cols:
            raise SkelCLError(
                f"AllPairs inputs must share the entity dimension d: {a.shape} vs {b.shape}"
            )
        element_dtype = dtype_for_ctype(self.element_type)
        if a.dtype != element_dtype or b.dtype != element_dtype:
            raise SkelCLError("AllPairs input dtypes do not match the customizing functions")

    def _output_shape(self, inputs) -> tuple:
        return (inputs[0].rows, inputs[1].rows)

    def _execute(self, node):
        # The B-side Copy distribution makes AllPairs unfusable — under
        # the planner it defers as an eager-at-force node (docs/planner.md).
        a, b = node.inputs
        d, m = a.cols, b.rows
        if b is a:
            # Aliased inputs (e.g. allpairs(P, P) in n-body): A needs a
            # Block distribution while B needs Copy, and redistributing
            # one side of the shared container would tear down the other
            # side's chunks mid-flight.  Materialize an independent copy
            # for the B side instead.
            b = Matrix(data=np.array(a.to_numpy(), copy=True))
        # A's rows split over the devices; B is replicated, and the
        # output rows follow A.
        a_dist = Block()
        local = self.tile if self.tiled else 16
        return self._launch(
            node, (a, b), (a_dist, Copy()), a_dist,
            self.kernel_source, "skelcl_allpairs", "skelcl_allpairs", (local, local),
            lambda _c_chunk, a_chunk, _b_chunk: ((a_chunk.owned_size, m, d),
                                                 (m, a_chunk.owned_size)))
