"""The Map skeleton: ``map f [c1..cn] = [f(c1)..f(cn)]`` (§3.3).

Works on vectors and matrices (elementwise, flat).  The customizing
function takes the element as its first parameter; any further scalar
parameters become *additional arguments* supplied at call time::

    neg = Map("float func(float x) { return -x; }")
    result = neg(input_vector)

    scale = Map("float func(float x, float s) { return x * s; }")
    result = scale(input_vector, 2.5)
"""

from __future__ import annotations

from ..kernelc.ctypes_ import LONG
from .distribution import Block
from .funcparse import scalar_param, scalar_return
from .index import IndexMatrix, IndexVector
from .matrix import Matrix
from .runtime import SkelCLError
from .skeleton import DEFAULT_WORK_GROUP_SIZE, Skeleton
from .types_ import dtype_for_ctype
from .vector import Vector

_KERNEL_TEMPLATE = """\
{user_source}

__kernel void skelcl_map(__global const {in_type}* SCL_IN,
                         __global {out_type}* SCL_OUT,
                         const unsigned int SCL_N,
                         const unsigned int SCL_OFFSET{extra_params}) {{
    size_t SCL_ID = get_global_id(0);
    if (SCL_ID < SCL_N) {{
        SCL_OUT[SCL_ID] = {func}(SCL_IN[SCL_ID + SCL_OFFSET]{extra_call});
    }}
}}
"""

# Map over an IndexVector: the element IS the global index, so there is
# no input buffer at all (SCL_FIRST is the chunk's first index).
_INDEX_KERNEL_TEMPLATE = """\
{user_source}

__kernel void skelcl_map_index(__global {out_type}* SCL_OUT,
                               const unsigned int SCL_N,
                               const long SCL_FIRST{extra_params}) {{
    size_t SCL_ID = get_global_id(0);
    if (SCL_ID < SCL_N) {{
        SCL_OUT[SCL_ID] = {func}(({in_type})(SCL_FIRST + SCL_ID){extra_call});
    }}
}}
"""

# Map over an IndexMatrix: the customizing function receives (row, col).
_INDEX_MATRIX_KERNEL_TEMPLATE = """\
{user_source}

__kernel void skelcl_map_index_m(__global {out_type}* SCL_OUT,
                                 const int SCL_COLS,
                                 const int SCL_ROWS_OWNED,
                                 const long SCL_ROW0{extra_params}) {{
    long SCL_COL = get_global_id(0);
    long SCL_LROW = get_global_id(1);
    if (SCL_COL < SCL_COLS && SCL_LROW < SCL_ROWS_OWNED) {{
        SCL_OUT[SCL_LROW * SCL_COLS + SCL_COL] =
            {func}(({row_type})(SCL_ROW0 + SCL_LROW), ({col_type})SCL_COL{extra_call});
    }}
}}
"""


class Map(Skeleton):
    takes_extras = True
    accepts = (Vector, Matrix, IndexVector, IndexMatrix)
    call_options = ("sample_fraction",)
    plan_entry = "defer_map"

    def __init__(self, source, work_group_size: int = DEFAULT_WORK_GROUP_SIZE):
        self.work_group_size = work_group_size
        super().__init__(source)

    def _bind_user(self) -> None:
        if self.user.arity < 1:
            raise SkelCLError("a Map customizing function needs at least one parameter")
        self.in_type = scalar_param(self.user, 0)
        self.out_type = scalar_return(self.user)
        self.extra_types = [scalar_param(self.user, 1 + i)
                            for i in range(self.user.arity - 1)]

    def _hints(self, inputs, extras):
        """Index containers supply ``long`` index parameters."""
        (container,) = inputs
        if isinstance(container, IndexMatrix):
            return [LONG, LONG] + super()._hints((), extras)
        if isinstance(container, IndexVector):
            return [LONG] + super()._hints((), extras)
        return super()._hints(inputs, extras)

    def kernel_source(self) -> str:
        return _KERNEL_TEMPLATE.format(
            user_source=self.user.source,
            in_type=self.in_type.name,
            out_type=self.out_type.name,
            func=self.user.name,
            extra_params=self.extra_param_source(self.extra_types),
            extra_call=self.extra_call_source(self.extra_types),
        )

    def index_kernel_source(self) -> str:
        return _INDEX_KERNEL_TEMPLATE.format(
            user_source=self.user.source,
            in_type=self.in_type.name,
            out_type=self.out_type.name,
            func=self.user.name,
            extra_params=self.extra_param_source(self.extra_types),
            extra_call=self.extra_call_source(self.extra_types),
        )

    def index_matrix_kernel_source(self) -> str:
        return _INDEX_MATRIX_KERNEL_TEMPLATE.format(
            user_source=self.user.source,
            row_type=self.in_type.name,
            col_type=self.user.param_types[1].name,
            out_type=self.out_type.name,
            func=self.user.name,
            extra_params=self.extra_param_source(self.extra_types[1:]),
            extra_call=self.extra_call_source(self.extra_types[1:]),
        )

    def _validate(self, inputs, extras) -> None:
        (container,) = inputs
        extra_types = self.extra_types
        if isinstance(container, IndexMatrix):
            if self.user.arity < 2:
                raise SkelCLError(
                    "Map over an IndexMatrix needs a customizing function taking "
                    "(row, col) as its first two parameters"
                )
            col_type = self.user.param_types[1]
            if not (self.in_type.is_integer() and getattr(col_type, "is_integer", lambda: False)()):
                raise SkelCLError(
                    "Map over an IndexMatrix needs integer (row, col) parameters"
                )
            extra_types = extra_types[1:]
        elif isinstance(container, IndexVector):
            if not self.in_type.is_integer():
                raise SkelCLError(
                    f"Map over an IndexVector needs an integer parameter, "
                    f"the customizing function takes {self.in_type}"
                )
        elif container.dtype != dtype_for_ctype(self.in_type):
            raise SkelCLError(
                f"Map input has dtype {container.dtype}, but the customizing "
                f"function takes {self.in_type}"
            )
        self.check_extra_args(extra_types, extras)

    def _execute(self, node, sample_fraction=None):
        (container,) = node.inputs
        wg = self.work_group_size
        if isinstance(container, IndexMatrix):
            # The customizing function receives (row, col): no input buffer.
            cols = container.cols
            return self._launch(
                node, (), (), container.distribution,
                self.index_matrix_kernel_source,
                f"skelcl_map_index_m_{self.user.name}", "skelcl_map_index_m", (16, 16),
                lambda chunk: ((cols, chunk.owned_size, chunk.owned_start),
                               (cols, chunk.owned_size)),
                sample_fraction)
        if isinstance(container, IndexVector):
            # No input buffer, elements are indices.
            return self._launch(
                node, (), (), container.distribution,
                self.index_kernel_source,
                f"skelcl_map_index_{self.user.name}", "skelcl_map_index", (wg,),
                lambda chunk: ((chunk.owned_size, chunk.owned_start), (chunk.owned_size,)),
                sample_fraction)
        distribution = container.distribution or Block()
        unit_elements = container._unit_elements

        def chunk_args(_out_chunk, chunk):
            n = chunk.owned_size * unit_elements
            return (n, chunk.halo_before * unit_elements), (n,)

        return self._launch(
            node, node.inputs, [distribution], self.output_distribution(distribution),
            self.kernel_source, f"skelcl_map_{self.user.name}", "skelcl_map", (wg,),
            chunk_args, sample_fraction)
