"""The Zip skeleton: elementwise combination of two containers (§3.3)::

    add = Zip("float func(float x, float y) { return x + y; }")
    result = add(left_vector, right_vector)

Additional scalar arguments after the two elements are supported, as in
Map.
"""

from __future__ import annotations

from .distribution import Block
from .funcparse import scalar_param, scalar_return
from .matrix import Matrix
from .runtime import SkelCLError
from .skeleton import DEFAULT_WORK_GROUP_SIZE, Skeleton
from .types_ import dtype_for_ctype

_KERNEL_TEMPLATE = """\
{user_source}

__kernel void skelcl_zip(__global const {left_type}* SCL_LEFT,
                         __global const {right_type}* SCL_RIGHT,
                         __global {out_type}* SCL_OUT,
                         const unsigned int SCL_N,
                         const unsigned int SCL_LEFT_OFFSET,
                         const unsigned int SCL_RIGHT_OFFSET{extra_params}) {{
    size_t SCL_ID = get_global_id(0);
    if (SCL_ID < SCL_N) {{
        SCL_OUT[SCL_ID] = {func}(SCL_LEFT[SCL_ID + SCL_LEFT_OFFSET],
                                 SCL_RIGHT[SCL_ID + SCL_RIGHT_OFFSET]{extra_call});
    }}
}}
"""


class Zip(Skeleton):
    n_inputs = 2
    takes_extras = True
    plan_entry = "defer_zip"

    def __init__(self, source, work_group_size: int = DEFAULT_WORK_GROUP_SIZE):
        self.work_group_size = work_group_size
        super().__init__(source)

    def _bind_user(self) -> None:
        if self.user.arity < 2:
            raise SkelCLError("a Zip customizing function needs at least two parameters")
        self.left_type = scalar_param(self.user, 0)
        self.right_type = scalar_param(self.user, 1)
        self.out_type = scalar_return(self.user)
        self.extra_types = [scalar_param(self.user, 2 + i) for i in range(self.user.arity - 2)]

    def kernel_source(self) -> str:
        return _KERNEL_TEMPLATE.format(
            user_source=self.user.source,
            left_type=self.left_type.name,
            right_type=self.right_type.name,
            out_type=self.out_type.name,
            func=self.user.name,
            extra_params=self.extra_param_source(self.extra_types),
            extra_call=self.extra_call_source(self.extra_types),
        )

    def _validate(self, inputs, extras) -> None:
        left, right = inputs
        if type(left) is not type(right):
            raise SkelCLError("Zip inputs must both be vectors or both be matrices")
        left_size = left.shape if isinstance(left, Matrix) else left.size
        right_size = right.shape if isinstance(right, Matrix) else right.size
        if left_size != right_size:
            raise SkelCLError(f"Zip inputs differ in size: {left_size} vs {right_size}")
        if left.dtype != dtype_for_ctype(self.left_type):
            raise SkelCLError(f"left input dtype {left.dtype} does not match {self.left_type}")
        if right.dtype != dtype_for_ctype(self.right_type):
            raise SkelCLError(f"right input dtype {right.dtype} does not match {self.right_type}")
        self.check_extra_args(self.extra_types, extras)

    def _execute(self, node):
        inputs = node.inputs
        distribution = inputs[0].distribution or Block()
        unit_elements = inputs[0]._unit_elements

        def chunk_args(_out_chunk, left, right):
            n = left.owned_size * unit_elements
            return (n, left.halo_before * unit_elements,
                    right.halo_before * unit_elements), (n,)

        return self._launch(
            node, inputs, [distribution] * 2, self.output_distribution(distribution),
            self.kernel_source, f"skelcl_zip_{self.user.name}", "skelcl_zip",
            (self.work_group_size,), chunk_args)
