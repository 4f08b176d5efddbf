"""The call record: one node per skeleton call, eager or lazy.

``Skeleton.__call__`` — the only place that constructs one — fills a
:class:`PlanNode` with the validated call: the session it was made on,
the (bound) skeleton, inputs, additional arguments, output container,
trace label and call options.  Everything a call produces while it runs
lands on its node as well: launches take ``node.label`` and append to
``node.events``.  The skeleton keeps nothing of a call but a pointer to
its latest node, so one skeleton object can be called from several
sessions and threads at once.

An eager call runs its node at once (``Skeleton._run``); a lazy session
hands it to its :class:`~repro.plan.planner.Planner`, which fills in the
rewrite fields (``op``, ``fusable``, ``seq``) and runs it later through
the same entry — possibly rewritten into a fused launch.

Node lifecycle::

    pending --> running --> done          (run, on its own or fused)
       \\
        +--> elided [--> running --> done]

``elided`` marks an intermediate that a fusion rule folded away: its
container was never materialized.  The node is kept (off the pending
list, still registered on its containers) so a later host access can
*recompute* it from its still-live inputs — the planner's host-mutation
taint rules guarantee those inputs cannot change under it.  It shares
the event list of the launch that covered it.

What stays reachable from a node that is not going to run — through a
skeleton's latest-node pointer, or a finished serve job — is the label
and the events, never buffers: a ``done`` node has let go of its
containers, and an ``elided`` one keeps its inputs only as long as the
container it could still be asked to fill is alive.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence


class PlanNode:
    PENDING = "pending"
    RUNNING = "running"
    ELIDED = "elided"
    DONE = "done"

    __slots__ = ("session", "skeleton", "inputs", "extras", "output", "label",
                 "options", "events", "op", "fusable", "seq", "state")

    def __init__(self, session, skeleton, inputs: Sequence, extras: Sequence,
                 output, label: str, options: Dict[str, object]):
        self.session = session
        self.skeleton = skeleton
        self.inputs = tuple(inputs)
        self.extras = tuple(extras)
        self.output = output
        self.label = label
        self.options = options
        self.events: List = []  # ocl.Event, appended by the call's launches
        # The planner's fields, filled in when it records the node.
        self.op: Optional[str] = None  # "map" | "zip" | "reduce" | "scan" | ...
        self.fusable = False
        self.seq = 0
        self.state = PlanNode.PENDING

    @property
    def planner(self):
        """The planner of the session the call was made on."""
        return self.session.planner

    @property
    def done(self) -> bool:
        return self.state == PlanNode.DONE

    def force(self) -> None:
        """Have the call run now if it is still waiting to; one that ran
        or was fused away has its events already."""
        if self.state == PlanNode.PENDING:
            self.planner.force_node(self)

    def elide(self, events: List) -> None:
        """Fused away into a launch reporting ``events``.  From here on
        the output container is held weakly (:meth:`Planner._recompute`
        takes it back), and the node finishes when that container dies:
        nobody is left to ask for a recompute."""
        self.state = PlanNode.ELIDED
        self.events = events
        self.output = weakref.ref(self.output, lambda _: self.finish())

    def finish(self) -> None:
        """The call ran, was discarded or can no longer be asked for:
        let go of its containers."""
        self.state = PlanNode.DONE
        self.inputs = ()
        self.output = None

    def __repr__(self) -> str:
        name = getattr(self.skeleton.user, "name", "?")
        return f"<PlanNode #{self.seq} {self.op}({name}) {self.state}>"
