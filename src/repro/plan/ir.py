"""The call record: one node per skeleton call, eager or lazy.

``Skeleton.__call__`` — the only place that constructs one — fills a
:class:`PlanNode` with the validated call: the session it was made on,
the (bound) skeleton, inputs, additional arguments, output container,
trace label and call options.  Everything a call produces while it runs
lands on its node as well: launches take ``node.label`` and append to
``node.events``.  The skeleton keeps nothing of a call but a pointer to
its latest node, so one skeleton object can be called from several
sessions and threads at once.

An eager call runs its node at once; a lazy session hands it to its
:class:`~repro.plan.planner.Planner`, which fills in the rewrite fields
(``op``, ``fusable``, ``seq``) and runs it later — possibly rewritten
into a fused launch.  Either way the call runs in :meth:`PlanNode.run`
and ends in :meth:`PlanNode.finish`, nowhere else.

Node lifecycle::

    pending --> running --> done | failed   (run, on its own or fused)
       \\  \\
        \\  +--> failed                      (cancelled: an input's producer failed)
         +--> elided [--> running --> done | failed]

``elided`` marks an intermediate that a fusion rule folded away: its
container was never materialized.  The node is kept (still registered on
its containers) so a later host access can *recompute* it from its
still-live inputs — the planner's host-mutation taint rules guarantee
those inputs cannot change under it.  It shares the event list of the
launch that covered it.

The node is the *producer* of its output (``output._pending``) from the
moment it is recorded (lazy) or starts to run (eager) until it finishes
successfully, and :meth:`PlanNode.finish` is the one place the output
becomes ready: the producer pointer is cleared and a container's
validity flags flip there, after the last launch — never before one.  A
call that raised ends ``failed`` and *stays* the producer: the output is
poisoned, and every later force of it (:meth:`PlanNode.force`) raises
the call's error again — same type, message and attributes, the message
naming the failed call's label.  The recorded calls still waiting to read a
poisoned output are cancelled on the spot — failed with the same error,
without launching anything.

What stays reachable from a node that is not going to run — through a
skeleton's latest-node pointer, a poisoned container or a finished serve
job — is the label, the events and the error, never buffers: a ``done``
or ``failed`` node has let go of its containers (and the error it keeps
is a copy without the frames that raised it), and an ``elided`` one
keeps its inputs only as long as the container it could still be asked
to fill is alive.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence


class Produced:
    """What a skeleton call fills — the base of ``Container`` and
    ``Scalar``: the producer pointer and the force points every such
    value shares."""

    #: The call that fills this value, until it has: recorded and still
    #: to run, running, fused away (recomputable) or failed.
    _pending: Optional["PlanNode"] = None
    #: The recorded calls still to read this value (containers only).
    _pending_readers: Sequence["PlanNode"] = ()

    def _force_pending(self) -> None:
        """The read-side force point (host access, device use as an
        input): have the producer run now if it has not, and raise its
        error if it failed."""
        node = self._pending
        if node is not None:
            node.force()

    def _before_write(self, whole: bool = False) -> None:
        """Force point ahead of any in-place mutation (host writes,
        ``out=`` reuse, redistribution): materialize our own deferred
        contents, then run every deferred reader so it consumes the
        *current* values, not the about-to-be-written ones.  When our
        producer is the one running, it is the writer and the recorded
        readers read what it writes.  A failed producer is replaced by a
        write of the ``whole`` content; any other write raises its
        error."""
        producer = self._pending
        if producer is not None:
            if producer.state == PlanNode.RUNNING:
                return
            if whole and producer.state == PlanNode.FAILED:
                self._pending = None
            else:
                producer.force()
        for node in list(self._pending_readers):
            node.force()  # ... and, finishing, leaves the list

    def _produced(self, ok: bool) -> None:
        """Called by :meth:`PlanNode.finish` when the call filling this
        value ran to its end (``ok``) or failed."""


def _kept(error: BaseException) -> BaseException:
    """A copy of ``error`` to keep on a node and to raise again: same
    type, message and attributes, no traceback — what a poisoned
    container keeps alive is never the frames (and through them the
    containers and buffers) of the failed call or of an earlier reader."""
    kept = type(error).__new__(type(error), *error.args)
    kept.__dict__.update(error.__dict__)
    return kept


class PlanNode:
    PENDING = "pending"
    RUNNING = "running"
    ELIDED = "elided"
    DONE = "done"
    FAILED = "failed"

    __slots__ = ("session", "skeleton", "inputs", "extras", "output", "label",
                 "options", "events", "op", "fusable", "seq", "state", "error")

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
        self.error: Optional[BaseException] = None  # what a failed call raised

    def force(self) -> None:
        """Have the call's result be there: run it now if it is still
        waiting to (recompute it if it was fused away); a failed call
        raises its error again."""
        if self.state == PlanNode.FAILED:
            raise _kept(self.error)
        if self.state in (PlanNode.PENDING, PlanNode.ELIDED):
            self.session.planner.force_node(self)

    def run(self, skeleton=None):
        """Run the call now — with its own skeleton's kernels, or those
        of the composed ``skeleton`` of the fused step the planner
        rewrote it into — and end it; returns the output.  The only
        place a call runs: the eager tail of ``Skeleton.__call__`` and
        the planner's forcing and recomputing all come here."""
        output = self.output
        try:
            if output._pending is not self:
                # An eager call becomes the producer as its run starts,
                # once the overwrite has forced what it must not
                # overtake.  (An in-place call reads what it replaces:
                # no poison there.)
                output._before_write(whole=output not in self.inputs)
                output._pending = self
            self.state = PlanNode.RUNNING
            (skeleton or self.skeleton)._execute(self, **self.options)
        except BaseException as error:
            if not hasattr(error, "call_label"):
                # The first call an error passes through is the one that
                # failed: every later raise names it.
                error.call_label = self.label
                error.args = (f"{error} [in {self.label}]",)
            self.finish(_kept(error))
            raise
        self.finish()
        return output

    def elide(self, root: "PlanNode") -> None:
        """Fused away into the launch of ``root``, whose events it
        reports and which no longer reads this node's output (it reads
        the fused expression's leaves).  From here on the output
        container is held weakly (:meth:`Planner._recompute` takes it
        back), and the node finishes when that container dies: nobody is
        left to ask for a recompute."""
        self.state = PlanNode.ELIDED
        self.events = root.events
        if root in self.output._pending_readers:
            self.output._pending_readers.remove(root)
        self.output = weakref.ref(self.output, lambda _: self.finish())

    def finish(self, error: Optional[BaseException] = None) -> None:
        """The one end of a call: it ran, raised ``error``, was
        cancelled with the ``error`` of a producer it depends on, was
        discarded, or can no longer be asked for.  The node stops
        reading its inputs and lets go of its containers; an output that
        was written becomes ready, one that was to be written and was
        not stays poisoned."""
        state, output = self.state, self.output
        if self.op is not None:  # recorded: registered on its input containers
            for container in self.inputs:
                if self in container._pending_readers:
                    container._pending_readers.remove(self)
        self.inputs, self.output = (), None
        if error is None:
            self.state = PlanNode.DONE
            if state != PlanNode.ELIDED:  # else: its container has died
                output._pending = None
                if state == PlanNode.RUNNING:
                    output._produced(True)
            return
        self.state, self.error = PlanNode.FAILED, error
        self.session.metrics.counter(
            "skelcl_calls_failed_total", skeleton=type(self.skeleton).__name__,
            error=type(error).__name__).inc()
        if output._pending is self:  # else: it never got to be the producer
            output._produced(False)
            for reader in list(output._pending_readers):
                if reader.state == PlanNode.PENDING:
                    reader.finish(error)

    def __repr__(self) -> str:
        name = getattr(self.skeleton.user, "name", "?")
        return f"<PlanNode #{self.seq} {self.op}({name}) {self.state}>"
