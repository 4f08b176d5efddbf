"""The Scan skeleton (inclusive prefix computation, §3.3)::

    prefix_sum = Scan("float func(float x, float y) { return x + y; }")
    result = prefix_sum(input_vector)

Implementation: the classical three-phase GPU scan of every device's
chunk, the devices' launches of each phase sibling launches (one
lockstep run where they can share one) —

1. each work-group performs a Hillis–Steele inclusive scan of its block
   in local memory and emits its block total,
2. the block totals are scanned (recursively, same kernel, level by
   level across the devices),
3. every block (but the first) folds the preceding blocks' total into
   its elements.

Across devices, each device scans its block-distributed chunk; the
per-device totals are scanned in a single tiny launch on device 0 and
folded into the trailing devices' chunks — the inter-device pattern the
paper's distribution mechanism makes implicit.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .. import ocl
from .distribution import Block
from .funcparse import scalar_param, scalar_return
from .runtime import SkelCLError
from .skeleton import Launch, Skeleton, _RecipeCall
from .types_ import dtype_for_ctype
from .vector import Vector

# Hillis-Steele uses one element per work-item; 256 matches the SkelCL
# default work-group size.
_SCAN_WG = 256

_KERNEL_TEMPLATE = """\
{user_source}

__kernel void skelcl_scan_block(__global const {t}* SCL_IN,
                                __global {t}* SCL_OUT,
                                __global {t}* SCL_SUMS,
                                const unsigned int SCL_N,
                                const unsigned int SCL_OFFSET) {{
    __local {t} SCL_BUF[{wg}];
    size_t SCL_GID = get_global_id(0);
    size_t SCL_LID = get_local_id(0);
    {t} SCL_X = {identity};
    if (SCL_GID < SCL_N) {{
        SCL_X = SCL_IN[SCL_GID + SCL_OFFSET];
    }}
    SCL_BUF[SCL_LID] = SCL_X;
    barrier(CLK_LOCAL_MEM_FENCE);
    for (unsigned int SCL_D = 1; SCL_D < {wg}; SCL_D = SCL_D * 2) {{
        {t} SCL_T = SCL_BUF[SCL_LID];
        if (SCL_LID >= SCL_D) {{
            SCL_T = {func}(SCL_BUF[SCL_LID - SCL_D], SCL_T);
        }}
        barrier(CLK_LOCAL_MEM_FENCE);
        SCL_BUF[SCL_LID] = SCL_T;
        barrier(CLK_LOCAL_MEM_FENCE);
    }}
    if (SCL_GID < SCL_N) {{
        SCL_OUT[SCL_GID] = SCL_BUF[SCL_LID];
    }}
    if (SCL_LID == {wg} - 1) {{
        SCL_SUMS[get_group_id(0)] = SCL_BUF[SCL_LID];
    }}
}}

__kernel void skelcl_scan_add_blocks(__global {t}* SCL_OUT,
                                     __global const {t}* SCL_SCANNED_SUMS,
                                     const unsigned int SCL_N) {{
    size_t SCL_GID = get_global_id(0);
    size_t SCL_G = get_group_id(0);
    if (SCL_G > 0 && SCL_GID < SCL_N) {{
        SCL_OUT[SCL_GID] = {func}(SCL_SCANNED_SUMS[SCL_G - 1], SCL_OUT[SCL_GID]);
    }}
}}

__kernel void skelcl_scan_add_offset(__global {t}* SCL_OUT,
                                     const {t} SCL_OFF,
                                     const unsigned int SCL_N) {{
    size_t SCL_GID = get_global_id(0);
    if (SCL_GID < SCL_N) {{
        SCL_OUT[SCL_GID] = {func}(SCL_OFF, SCL_OUT[SCL_GID]);
    }}
}}
"""


class Scan(Skeleton):
    accepts = (Vector,)

    def __init__(self, source, identity: str = "0"):
        self.identity = identity
        super().__init__(source)

    def _bind_user(self) -> None:
        if self.user.arity != 2:
            raise SkelCLError("a Scan customizing function needs exactly two parameters")
        self.element_type = scalar_param(self.user, 0)
        if scalar_param(self.user, 1) != self.element_type or scalar_return(self.user) != self.element_type:
            raise SkelCLError("a Scan operator must have type T (T, T)")
        self.out_type = self.element_type

    def _hints(self, inputs, extras):
        return super()._hints(inputs * 2, ())  # T (T, T): both operands are elements

    def kernel_source(self) -> str:
        return _KERNEL_TEMPLATE.format(
            user_source=self.user.source,
            t=self.element_type.name,
            func=self.user.name,
            identity=self.identity,
            wg=_SCAN_WG,
        )

    def _validate(self, inputs, extras) -> None:
        if inputs[0].dtype != dtype_for_ctype(self.element_type):
            raise SkelCLError(
                f"Scan input dtype {inputs[0].dtype} does not match {self.element_type}"
            )

    def _execute(self, node) -> Vector:
        session, (input_vector,), out = node.session, node.inputs, node.output
        dtype = dtype_for_ctype(self.element_type)
        distribution = Block()  # Scan requires ordered, disjoint chunks
        call = _RecipeCall(self, node, lambda: [self._program(
            self.kernel_source(), f"skelcl_scan_{self.user.name}", session)])
        chunks = input_vector.ensure_on_devices(distribution, session)
        out_chunks = out.prepare_as_output(distribution, session)
        call.staged(tuple(tuple(chunk for chunk, _ in pairs) for pairs in (chunks, out_chunks)))

        # Phase A: scan each device's chunk independently — the per-chunk
        # dependency chains run concurrently across devices.
        scans = [(position, (in_chunk.device_index, in_buffer, out_buffer, in_chunk.owned_size,
                             in_chunk.halo_before,
                             input_vector.chunk_events(position)
                             + out.chunk_write_events(position)))
                 for position, ((in_chunk, in_buffer), (_out_chunk, out_buffer))
                 in enumerate(zip(chunks, out_chunks)) if in_chunk.owned_size > 0]
        finals = self._scan_level(node, call, [scan for _position, scan in scans])
        for (position, _scan), final in zip(scans, finals):
            input_vector.record_chunk_reader(position, final)
            out.record_chunk_event(position, final)

        if len(scans) > 1:
            self._apply_device_offsets(node, call, out, out_chunks, dtype)
        return out

    # -- per-device multi-block scans, level by level -----------------------

    def _scan_level(self, node, call, scans) -> List["ocl.Event"]:
        """Scan one buffer per device — ``scans`` lists ``(device_index,
        in_buffer, out_buffer, n, offset, wait_for)`` — as sibling
        launches, level by level: every device's block scan, then the
        scan of the block sums of each device with more than one block
        (recursively, one level deeper), then those devices' add-blocks
        passes.  Each device's commands keep the order a scan of its
        buffer alone has.  The launches of every level are steps of the
        call's launch recipe.  Returns per scan the event producing the
        final contents of its out buffer."""
        session, (program,) = node.session, call.programs
        itemsize = dtype_for_ctype(self.element_type).itemsize
        sums, groups = [], []
        for device_index, _in, _out, n, _offset, _wait in scans:
            groups.append((n + _SCAN_WG - 1) // _SCAN_WG)
            sums.append(session.context.create_buffer(
                max(groups[-1], 1) * itemsize, session.devices[device_index], name="scan_sums"))
        step = call.step(lambda: ocl.SiblingPlan(session.devices, [
            (device_index, program.create_kernel("skelcl_scan_block").set_args(
                in_buffer, out_buffer, sums_buffer, n, offset),
             (count * _SCAN_WG,), (_SCAN_WG,))
            for (device_index, in_buffer, out_buffer, n, offset, _), sums_buffer, count
            in zip(scans, sums, groups)]))
        finals = blocks = self._enqueue(node, step, [
            Launch((in_buffer, out_buffer, sums_buffer), wait_for)
            for (_, in_buffer, out_buffer, _, _, wait_for), sums_buffer in zip(scans, sums)])
        deeper = [index for index, count in enumerate(groups) if count > 1]
        if deeper:
            scanned = [session.context.create_buffer(
                groups[index] * itemsize, session.devices[scans[index][0]],
                name="scan_sums_scanned") for index in deeper]
            sums_scans = self._scan_level(node, call, [
                (scans[index][0], sums[index], scanned_sums, groups[index], 0, [blocks[index]])
                for index, scanned_sums in zip(deeper, scanned)])
            step = call.step(lambda: ocl.SiblingPlan(session.devices, [
                (scans[index][0], program.create_kernel("skelcl_scan_add_blocks").set_args(
                    scans[index][2], scanned_sums, scans[index][3]),
                 (groups[index] * _SCAN_WG,), (_SCAN_WG,))
                for index, scanned_sums in zip(deeper, scanned)]))
            finals = list(blocks)
            for index, event in zip(deeper, self._enqueue(node, step, [
                    Launch((scans[index][2], scanned_sums), [blocks[index], sums_scan])
                    for index, scanned_sums, sums_scan in zip(deeper, scanned, sums_scans)])):
                finals[index] = event
            for buffer in scanned:
                buffer.release()
        for buffer in sums:
            buffer.release()
        return finals

    # -- cross-device offsets --------------------------------------------------

    def _apply_device_offsets(self, node, call, out, out_chunks, dtype) -> None:
        # Gather per-device totals (the last element of each scanned chunk).
        session, (program,) = node.session, call.programs
        totals = []
        active = []
        total_reads = []
        for position, (chunk, buffer) in enumerate(out_chunks):
            if chunk.owned_size == 0:
                continue
            queue = session.queue(chunk.device_index)
            data, read_event = queue.enqueue_read_buffer(
                buffer, dtype, 1, (chunk.owned_size - 1) * dtype.itemsize,
                event_wait_list=out.chunk_events(position),
            )
            out.record_chunk_reader(position, read_event)
            totals.append(data[0])
            active.append((position, chunk, buffer))
            total_reads.append(read_event)
        if len(active) <= 1:
            return
        # Scan the totals with the user operator in one tiny launch on
        # device 0; the upload waits on every per-device total download.
        device0 = session.devices[0]
        queue0 = session.queue(0)
        totals_array = np.asarray(totals, dtype=dtype)
        tot_in = session.context.create_buffer(totals_array.nbytes, device0, name="scan_dev_totals")
        tot_out = session.context.create_buffer(totals_array.nbytes, device0, name="scan_dev_offsets")
        sums_scratch = session.context.create_buffer(dtype.itemsize, device0, name="scan_dev_sums")
        write_event = queue0.enqueue_write_buffer(tot_in, totals_array,
                                                  event_wait_list=total_reads)
        step = call.step(lambda: ocl.SiblingPlan(session.devices, [
            (0, program.create_kernel("skelcl_scan_block").set_args(
                tot_in, tot_out, sums_scratch, len(totals), 0), (_SCAN_WG,), (_SCAN_WG,))]))
        (launch,) = self._enqueue(node, step, [Launch((tot_in, tot_out, sums_scratch),
                                                      [write_event])])
        scanned, scanned_read = queue0.enqueue_read_buffer(tot_out, dtype, len(totals),
                                                           event_wait_list=[launch])
        for buffer in (tot_in, tot_out, sums_scratch):
            buffer.release()
        # Fold the preceding devices' total into each later chunk; the
        # folds on distinct devices proceed concurrently once the scanned
        # offsets are on the host.  Their scalar comes from the data, so
        # they are planned per call, never kept in the recipe.
        folds = [(chunk.device_index, program.create_kernel("skelcl_scan_add_offset").set_args(
                      buffer, scanned[index - 1], chunk.owned_size),
                  ((chunk.owned_size + _SCAN_WG - 1) // _SCAN_WG * _SCAN_WG,), (_SCAN_WG,))
                 for index, (_, chunk, buffer) in enumerate(active[1:], start=1)]
        self._enqueue(node, ocl.SiblingPlan(session.devices, folds), [
            Launch((buffer,), [scanned_read] + out.chunk_write_events(position),
                   output=out, position=position)
            for position, _, buffer in active[1:]])
