"""The Reduce skeleton: ``red (+) [v1..vn] = v1 + ... + vn`` (§3.3).

Implemented in the classical two-stage GPU form:

1. per device, a grid-stride pass accumulates elements into one partial
   per work-item and a local-memory tree reduction produces one partial
   per work-group (the devices' passes are sibling launches, collected
   before any is enqueued);
2. all partials are gathered on the first device and a single-work-group
   launch of the same kernel folds them into the final value, which is
   returned as a :class:`Scalar`.

The customizing operator must be associative (the paper's requirement);
``identity`` supplies its neutral element (default ``0``), used to pad
inactive lanes.
"""

from __future__ import annotations

import numpy as np

from .. import ocl
from .distribution import Block
from .funcparse import scalar_param, scalar_return
from .runtime import SkelCLError
from .scalar import Scalar
from .skeleton import DEFAULT_WORK_GROUP_SIZE, Launch, Skeleton, _RecipeCall
from .types_ import dtype_for_ctype

# Stage 1 launches at most this many work-groups per device (grid-stride).
_MAX_GROUPS = 64

# One template, instantiated two ways.  Plain: ``{load}`` is the input
# element.  Stage 1 with a fused elementwise stage (map∘reduce): each
# grid-stride iteration applies the composed map chain to the *original*
# input instead of loading a pre-materialized element, and the explicit
# cast to the element type reproduces the store the eager pipeline would
# have performed on the intermediate, keeping results bit-exact.
_KERNEL_TEMPLATE = """\
{sources}

__kernel void {kernel}(__global const {in_t}* SCL_IN,
{pad}__global {t}* SCL_OUT,
{pad}const unsigned int SCL_N,
{pad}const unsigned int SCL_OFFSET{params}) {{
    __local {t} SCL_SCRATCH[{wg}];
    size_t SCL_LID = get_local_id(0);
    {t} SCL_ACC = {identity};
    for (size_t SCL_I = get_global_id(0); SCL_I < SCL_N; SCL_I += get_global_size(0)) {{
        SCL_ACC = {func}(SCL_ACC, {load});
    }}
    SCL_SCRATCH[SCL_LID] = SCL_ACC;
    barrier(CLK_LOCAL_MEM_FENCE);
    for (unsigned int SCL_S = {wg} / 2; SCL_S > 0; SCL_S = SCL_S / 2) {{
        if (SCL_LID < SCL_S) {{
            SCL_SCRATCH[SCL_LID] = {func}(SCL_SCRATCH[SCL_LID], SCL_SCRATCH[SCL_LID + SCL_S]);
        }}
        barrier(CLK_LOCAL_MEM_FENCE);
    }}
    if (SCL_LID == 0) {{
        SCL_OUT[get_group_id(0)] = SCL_SCRATCH[0];
    }}
}}
"""


class Reduce(Skeleton):
    plan_entry = "reduce_now"

    def __init__(self, source, identity: str = "0",
                 work_group_size: int = DEFAULT_WORK_GROUP_SIZE):
        self.identity = identity
        self.work_group_size = work_group_size
        super().__init__(source)

    def _bind_user(self) -> None:
        if self.user.arity != 2:
            raise SkelCLError("a Reduce customizing function needs exactly two parameters")
        self.element_type = scalar_param(self.user, 0)
        if scalar_param(self.user, 1) != self.element_type or scalar_return(self.user) != self.element_type:
            raise SkelCLError("a Reduce operator must have type T (T, T)")
        self.out_type = self.element_type

    def _hints(self, inputs, extras):
        return super()._hints(inputs * 2, ())  # T (T, T): both operands are elements

    def kernel_source(self, premap=None) -> str:
        """The reduction kernel; with ``premap`` (a composed map chain
        from :mod:`repro.plan.compose`) the stage-1 variant applying it
        to every loaded element."""
        t = self.element_type.name
        kernel, sources, in_t, params = "skelcl_reduce", self.user.source, t, ""
        load = "SCL_IN[SCL_I + SCL_OFFSET]"
        if premap is not None:
            kernel = "skelcl_reduce_fused"
            sources = f"{premap.source}\n{sources}"
            in_t = premap.in_type.name
            params = self.extra_param_source(premap.extra_types)
            load = (f"({t})({premap.name}({load}"
                    f"{self.extra_call_source(premap.extra_types)}))")
        return _KERNEL_TEMPLATE.format(
            sources=sources, kernel=kernel, pad=" " * len(f"__kernel void {kernel}("),
            in_t=in_t, t=t, params=params, load=load, func=self.user.name,
            identity=self.identity, wg=self.work_group_size,
        )

    def _validate(self, inputs, extras) -> None:
        if inputs[0].dtype != dtype_for_ctype(self.element_type):
            raise SkelCLError(
                f"Reduce input dtype {inputs[0].dtype} does not match {self.element_type}"
            )

    def _output_shape(self, inputs) -> tuple:
        return ()

    def _execute(self, node, premap=None) -> Scalar:
        """``premap`` (planner only) is a composed map chain applied to
        every element as it is loaded: the node's input is then the
        chain's original input, already validated when the chain was
        deferred, and its extras the chain's additional arguments.  The
        launches of both stages come from the call's launch recipe
        (``skeleton._RecipeCall``)."""
        session, (input_container,), out = node.session, node.inputs, node.output
        dtype = dtype_for_ctype(self.element_type)
        name = f"skelcl_reduce_{self.user.name}"
        call = _RecipeCall(self, node, lambda: [
            self._program(self.kernel_source(), name, session),
            premap and self._program(self.kernel_source(premap), f"{name}_fused", session)])
        distribution = input_container.distribution or Block()
        chunks = input_container.ensure_on_devices(distribution, session)
        call.staged((tuple(chunk for chunk, _ in chunks),))
        program, fused = call.programs

        unit_elements = input_container._unit_elements
        itembytes = dtype.itemsize
        wg = self.work_group_size

        work = []  # (position, chunk, buffer, partial buffer, n, groups)
        for position, (chunk, buffer) in enumerate(chunks):
            n = chunk.owned_size * unit_elements
            if n == 0:
                continue
            if distribution.kind == "copy" and work:
                break  # every device holds the same data; reduce once
            groups = min(_MAX_GROUPS, (n + wg - 1) // wg)
            work.append((position, chunk, buffer, session.context.create_buffer(
                groups * itembytes, session.devices[chunk.device_index],
                name="reduce_partials"), n, groups))
        stage1 = call.step(lambda: ocl.SiblingPlan(session.devices, [
            (chunk.device_index,
             (fused or program).create_kernel("skelcl_reduce_fused" if fused else "skelcl_reduce")
             .set_args(buffer, partial, n, chunk.halo_before * unit_elements, *node.extras),
             (groups * wg,), (wg,))
            for _, chunk, buffer, partial, n, groups in work]))

        partials = []
        partial_reads = []
        for (_, chunk, _, partial_buffer, _, groups), event in zip(work, self._enqueue(
                node, stage1, [Launch((buffer, partial), input_container.chunk_events(position),
                                      [(input_container, position)])
                               for position, _, buffer, partial, _, _ in work])):
            data, read_event = session.queue(chunk.device_index).enqueue_read_buffer(
                partial_buffer, dtype, groups, event_wait_list=[event]
            )
            partial_buffer.release()
            partials.append(data)
            partial_reads.append(read_event)

        if not partials:
            raise SkelCLError("Reduce over an empty container")
        gathered = np.concatenate(partials)
        if len(gathered) == 1:
            return out.assign(gathered[0], dtype)

        # Final stage: fold all partials in a single work-group on
        # device 0.  The gathered array depends on every partial
        # download, so the stage-2 upload waits on them all — the only
        # cross-device synchronization point of the reduction.
        device0 = session.devices[0]
        queue0 = session.queue(0)
        in_buffer = session.context.create_buffer(gathered.nbytes, device0, name="reduce_stage2_in")
        out_buffer = session.context.create_buffer(itembytes, device0, name="reduce_stage2_out")
        write_event = queue0.enqueue_write_buffer(in_buffer, gathered,
                                                  event_wait_list=partial_reads)
        stage2 = call.step(lambda: ocl.SiblingPlan(session.devices, [
            (0, program.create_kernel("skelcl_reduce").set_args(
                in_buffer, out_buffer, len(gathered), 0), (wg,), (wg,))]))
        (launch2,) = self._enqueue(node, stage2, [Launch((in_buffer, out_buffer), [write_event])])
        result, _event = queue0.enqueue_read_buffer(out_buffer, dtype, 1,
                                                    event_wait_list=[launch2])
        in_buffer.release()
        out_buffer.release()
        return out.assign(result[0], dtype)
