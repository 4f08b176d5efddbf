"""The lazy planner: record, rewrite (fuse), force.

One :class:`Planner` hangs off a lazy :class:`~repro.skelcl.runtime.Session`.
``Skeleton.__call__`` routes here instead of running the call: it hands
over the :class:`~repro.plan.ir.PlanNode` recording the call it has
already validated, labelled and given an output container (same errors,
same call site as eager mode), and the planner keeps the node pending.
Every entry takes that one node.

Force points — the complete list, each under the hook through which it
reaches the planner (``docs/planner.md`` gives the user-visible triggers
of each; ``tests/test_docs.py`` keeps the two lists identical):

* ``ensure_host`` — reading a container on the host → its producer,
* ``Scalar.to_numpy`` — reading a Scalar (every read) → its producer,
* ``ensure_on_devices`` — using a container on devices → its producer,
* ``distribution`` — asking a result about its placement → its
  producer,
* ``last_events`` — asking a skeleton about its last call → that call,
  if still pending,
* ``_before_write`` — host mutation / ``out=`` overwrite /
  redistribution → the producer *and* every pending reader, so deferred
  consumers still observe the pre-mutation value,
* ``_record`` — recording a call whose input is still pending on
  *another* session's planner → that producer, run by its own planner on
  its own session (and a call on a poisoned input is refused here),
* ``reduce_now`` — ``Reduce`` outside a record window (its Scalar result
  is synchronous, so the node is forced as soon as it is recorded),
* ``_flush_plan`` — ``Session.finish_all()`` / metrics / trace export /
  timeline / ``rebalance()`` / profile exit / close → ``flush``,
* ``flush_subset`` — a serve dispatch → that job's recorded nodes.

Each of them goes through :meth:`PlanNode.force
<repro.plan.ir.PlanNode.force>` (or ``flush``), and a producer that
failed raises its error there instead of running.

Forcing (:meth:`Planner._force`) gathers the targets' pending ancestors,
runs the rewrite pass (:meth:`Planner._rewrite`) that inlines fusable
producers into their consumers, and executes the resulting steps in
recording order through the entry every call runs through
(``PlanNode.run``) — the async command graph, coherence protocol and
SkelSan see exactly the commands an eager program would have issued,
minus the fused-away ones.  A step that raises ends its root ``failed``
(``PlanNode.finish``), which cancels the recorded calls waiting on the
result; the rest of the batch stays pending.

Intermediates folded away by fusion are *elided*: never materialized,
but recomputable (their nodes keep their inputs, and host mutation of
any input materializes them first), so a later host read of a fused-out
temporary still sees the right values.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Sequence

from . import compose
from .ir import PlanNode

#: The fusable consumers: op -> (``skelcl_fusion_total`` rule label, leaf
#: budget).  A fused Map/Zip kernel reads at most two inputs, the first
#: pass of a Reduce exactly one.
_RULES = {"map": ("map_map", 2), "zip": ("zip_map", 2), "reduce": ("map_reduce", 1)}


class _Step:
    """One launch after rewriting: ``root`` materializes its output, the
    other covered ``nodes`` are inlined into its kernel.  The expression
    tree is implicit: an input of a covered node is an inner edge if a
    covered node produces it, a leaf otherwise."""

    __slots__ = ("root", "nodes")

    def __init__(self, root: PlanNode):
        self.root = root
        self.nodes = [root]

    @property
    def leaves(self) -> int:
        """Input leaves, per occurrence (every covered node but the root
        feeds exactly one inner edge)."""
        return sum(len(n.inputs) for n in self.nodes) - len(self.nodes) + 1


class Planner:
    def __init__(self, session):
        self.session = session
        self._recorded: List[PlanNode] = []
        self._seq = 0
        self._captures: List[List[PlanNode]] = []

    # -- observability -----------------------------------------------------

    def _count(self, name: str, **labels) -> None:
        self.session.metrics.counter(name, **labels).inc()

    # -- recording ---------------------------------------------------------

    def _prune(self) -> List[PlanNode]:
        self._recorded = [n for n in self._recorded if n.state == PlanNode.PENDING]
        return self._recorded

    pending = property(_prune, doc="""
        The recorded calls still waiting to run, in recording order.  A
        node leaves by changing state — run, fused away, failed,
        cancelled, discarded — wherever that happens.""")

    @property
    def recording(self) -> bool:
        """True inside a :meth:`record` window (a serve-job submit):
        every skeleton call defers, including Reduce — otherwise a
        synchronous force point — so the whole job stays a graph."""
        return bool(self._captures)

    @contextmanager
    def record(self):
        """Capture one job's command graph: yields a list that collects
        every :class:`PlanNode` recorded in the window.  Nested windows
        each capture their own nodes (inner nodes appear in both)."""
        captured: List[PlanNode] = []
        self._captures.append(captured)
        try:
            yield captured
        finally:
            self._captures.remove(captured)

    def _record(self, op: str, node: PlanNode, *, fusable: bool = False):
        """Keep ``node`` pending as an ``op``; returns its output."""
        node.op, node.fusable, node.seq = op, fusable, self._seq
        self._seq += 1
        for container in node.inputs:
            producer = container._pending
            if producer is not None and (producer.state == PlanNode.FAILED
                                         or producer.session is not self.session):
                # A poisoned input refuses the call.  Another session's
                # deferred result runs there, now, and reaches this
                # session's devices as plain data.
                producer.force()
        for container in node.inputs:
            container._pending_readers.append(node)
        node.output._pending = node
        self._recorded.append(node)
        for capture in self._captures:
            capture.append(node)
        self._count("skelcl_plan_deferred_total", op=op)
        return node.output

    def _defer_elementwise(self, op: str, node: PlanNode):
        fusable = compose.footprints_fusable(node.skeleton, self.session)
        if not fusable:
            self._count("skelcl_plan_fallback_total", reason="footprint")
        return self._record(op, node, fusable=fusable)

    def defer_map(self, node: PlanNode):
        return self._defer_elementwise("map", node)

    def defer_zip(self, node: PlanNode):
        return self._defer_elementwise("zip", node)

    def defer_opaque(self, node: PlanNode):
        """Defer a skeleton with no fusion rules (Scan, MapOverlap,
        AllPairs): it executes through its eager path at force time,
        node by node — the documented fallback."""
        op = type(node.skeleton).__name__.lower()
        self._count("skelcl_plan_fallback_total", reason=op)
        return self._record(op, node)

    def defer_reduce(self, node: PlanNode):
        """Record a Reduce: a node like any other, and the one fusable
        consumer that is never a producer.  Its Scalar result stays a
        placeholder until the node runs; reading it forces the node."""
        return self._record("reduce", node, fusable=True)

    def reduce_now(self, node: PlanNode):
        """Reduce's plan entry: record the node and — outside a
        :meth:`record` window — force it, its Scalar result being
        synchronous."""
        out = self.defer_reduce(node)
        if not self.recording:
            self.force_node(node)
        return out

    # -- forcing -----------------------------------------------------------

    def _force(self, nodes: Sequence[PlanNode]) -> bool:
        """Rewrite and execute the pending ones of ``nodes`` together
        with their pending ancestors (fusion within that batch); False
        if there was nothing to do."""
        batch = self._closure(nodes)
        for step in self._rewrite(batch):
            self._run_step(step)
        self._prune()
        return bool(batch)

    def force_node(self, node: PlanNode) -> None:
        """The read-side force point of one container / Scalar / call."""
        if node.state == PlanNode.ELIDED:
            self._recompute(node)
        else:
            self._force([node])

    def flush(self) -> None:
        """Execute everything still pending (with fusion across the whole
        remaining graph) — the ``finish_all()`` force point."""
        while self._force(self.pending):
            pass

    def flush_subset(self, nodes: Sequence[PlanNode]) -> None:
        """Execute exactly ``nodes`` (plus any pending ancestors), with
        fusion *within* the subset — the serve dispatcher's force point:
        one job's recorded graph runs without dragging other tenants'
        pending work along."""
        self._force(nodes)

    def discard(self, nodes: Sequence[PlanNode], error=None) -> None:
        """Throw away recorded-but-unwanted nodes (a serve submit that
        raised, or whose admission was rejected *after* recording): each
        pending node ends without ever executing.  Containers the
        discarded nodes were going to produce keep their placeholder
        contents — or, given the ``error`` of the serve job whose graph
        failed midway, are poisoned with it."""
        for node in nodes:
            if node.state == PlanNode.PENDING:
                node.finish(error)
                self._count("skelcl_plan_discarded_total", op=node.op)

    def _closure(self, targets: Sequence[PlanNode]) -> List[PlanNode]:
        """The pending ones of ``targets`` plus their pending ancestors,
        in recording order.  Elided ancestors encountered on the way are
        recomputed first (their values are inputs of the batch)."""
        found: Dict[int, PlanNode] = {}
        for target in targets:
            self._visit(target, found)
        return sorted(found.values(), key=lambda n: n.seq)

    def _visit(self, node: PlanNode, found: Dict[int, PlanNode]) -> None:
        if node.state != PlanNode.PENDING or id(node) in found:
            return
        found[id(node)] = node
        for container in node.inputs:
            producer = container._pending
            if producer is not None and producer.state == PlanNode.ELIDED:
                self._recompute(producer)
            elif producer is not None:
                self._visit(producer, found)

    # -- rewrite: the one fusion rule --------------------------------------

    def _rewrite(self, batch: List[PlanNode]) -> List[_Step]:
        """Walk ``batch`` in recording order; a fusable consumer inlines
        the step producing one of its inputs when (1) that step's root
        is fusable, (2) the merged expression stays within the
        consumer's leaf budget and (3) the intermediate has exactly one
        pending use.  Only (3) failing counts a ``multi_consumer``
        fallback."""
        uses = {id(n.output): sum(reader.state == PlanNode.PENDING
                                  for reader in n.output._pending_readers)
                for n in batch}
        steps: Dict[int, _Step] = {}  # by id(root output), in execution order
        for node in batch:
            step = _Step(node)
            # A budget of 0 inlines nothing: opaque and unproven nodes.
            rule, budget = _RULES[node.op] if node.fusable else (None, 0)
            for container in node.inputs:
                prev = steps.get(id(container))
                if (prev is None or not prev.root.fusable
                        or step.leaves + prev.leaves - 1 > budget):
                    continue
                if uses[id(container)] > 1:
                    self._count("skelcl_plan_fallback_total", reason="multi_consumer")
                    continue
                del steps[id(container)]
                step.nodes = prev.nodes + step.nodes
                self._count("skelcl_fusion_total", rule=rule)
            steps[id(node.output)] = step
        return list(steps.values())

    # -- execution ---------------------------------------------------------

    def _tree(self, node: PlanNode, inside: Dict[int, PlanNode],
              leaves: List, extras: List) -> tuple:
        """The expression tree below ``node`` (see
        :func:`compose._compose`); collects its input leaves and the
        covered nodes' extras in post-order."""
        children = []
        for container in node.inputs:
            producer = inside.get(id(container))
            if producer is None:
                leaves.append(container)
            children.append(producer and self._tree(producer, inside, leaves, extras))
        extras.extend(node.extras)
        return (node.skeleton, *children)

    def _run_step(self, step: _Step) -> None:
        """Launch ``step`` as the call its root records.  A lone node
        runs as recorded.  A fused step rewrites the root into the
        fused call — inputs the tree's leaves, extras the covered nodes'
        extras, label the chain's — run by the skeleton composed from
        its expression tree (a Reduce root runs itself, with the chain
        as ``premap``); every inlined node is elided and shares the
        launch's event list — also when the launch then fails: the
        root's output is poisoned, the inlined intermediates stay
        recomputable."""
        root = step.root
        skeleton = root.skeleton
        inside = {id(n.output): n for n in step.nodes if n is not root}
        if inside:
            leaves, extras = [], []
            expr = self._tree(root, inside, leaves, extras)
            if root.op == "reduce":
                root.options = {"premap": compose.premap_of(expr[1])}
            else:
                build = compose.fused_map if len(leaves) == 1 else compose.fused_zip
                skeleton = build(expr)
            root.inputs, root.extras = tuple(leaves), tuple(extras)
            root.label = compose.chain_label(expr, root.label, type(skeleton).__name__)
            for node in inside.values():
                node.elide(root)
                self._count("skelcl_plan_elided_total", op=node.op)
        root.run(skeleton)

    def _recompute(self, node: PlanNode) -> None:
        """Materialize an elided intermediate after all: run its eager
        path now (its inputs are still live — the write hooks force
        recomputation *before* any input mutation).  The recompute is a
        launch of its own, with its own event list."""
        for container in node.inputs:
            container._force_pending()
        self._count("skelcl_plan_recompute_total", op=node.op)
        node.output, node.events = node.output(), []  # asked for by that container
        node.run()
