"""The plan IR: one node per deferred skeleton call.

A :class:`PlanNode` remembers the validated call (skeleton, inputs,
extras, output, label): everything needed to run it later through the
skeleton's ordinary run-now entry (``Skeleton._run``), and the
structured fields the fusion rewrite needs to compose user functions
instead.

Node lifecycle::

    pending --> running --> done          (executed, eagerly or fused)
       \\
        +--> elided [--> running --> done]

``elided`` marks an intermediate that a fusion rule folded away: its
container was never materialized.  The node is kept (off the pending
list, still registered on its containers) so a later host access can
*recompute* it from its still-live inputs — the planner's host-mutation
taint rules guarantee those inputs cannot change under it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class PlanNode:
    PENDING = "pending"
    RUNNING = "running"
    ELIDED = "elided"
    DONE = "done"

    __slots__ = ("planner", "op", "skeleton", "inputs", "output", "extras",
                 "label", "fusable", "seq", "state")

    def __init__(self, planner, op: str, skeleton, inputs: Sequence,
                 output, *, fusable: bool, label: Optional[str],
                 extras: tuple = (), seq: int = 0):
        self.planner = planner
        self.op = op  # "map" | "zip" | "reduce" | "scan" | "mapoverlap" | "allpairs"
        self.skeleton = skeleton
        self.inputs: List = list(inputs)
        self.output = output
        self.extras = extras
        self.label = label
        self.fusable = fusable
        self.seq = seq
        self.state = PlanNode.PENDING

    @property
    def done(self) -> bool:
        return self.state == PlanNode.DONE

    def __repr__(self) -> str:
        name = getattr(getattr(self.skeleton, "user", None), "name", "?")
        return f"<PlanNode #{self.seq} {self.op}({name}) {self.state}>"
