"""The lazy planner: record, rewrite (fuse), force.

One :class:`Planner` hangs off a lazy :class:`~repro.skelcl.runtime.Session`.
``Skeleton.__call__`` routes here instead of enqueueing: it hands over
the call it has already validated, labelled and given an output
container (same errors, same call site as eager mode), and the planner
records a :class:`~repro.plan.ir.PlanNode`.  Every entry takes the same
``(skeleton, inputs, extras, out, label)``.

Force points (see ``docs/planner.md``):

* reading a container on the host (``ensure_host`` → producer),
* using it on devices (``ensure_on_devices`` → producer),
* host mutation / ``out=`` overwrite / redistribution
  (``_before_write`` → producer *and* every pending reader, so deferred
  consumers still observe the pre-mutation value),
* ``Session.finish_all()`` / metrics / trace export (→ ``flush``),
* ``Reduce`` (its Scalar result is synchronous, so it forces its
  ancestor chain immediately — the map∘reduce fusion window).

Forcing gathers the target's pending ancestors, runs the rewrite pass
(:meth:`Planner._rewrite`) that merges fusable producer/consumer chains
into steps, and executes the steps oldest-first through the skeletons'
ordinary run-now entry (``Skeleton._run``) — the async command graph, coherence protocol and
SkelSan see exactly the commands an eager program would have issued,
minus the fused-away ones.

Intermediates folded away by fusion are *elided*: never materialized,
but recomputable (their nodes keep their inputs, and host mutation of
any input materializes them first), so a later host read of a fused-out
temporary still sees the right values.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence

from . import compose
from .ir import PlanNode


class _Step:
    """One unit of execution after rewriting: either a single node run
    eagerly, or a fused chain (``map``: a pipeline of Map nodes; ``zip``:
    optional Map chains on both inputs, the Zip, and optional Map nodes
    after it)."""

    __slots__ = ("kind", "nodes", "left", "right", "zip_node", "post")

    def __init__(self, kind: str, nodes: List[PlanNode]):
        self.kind = kind  # "eager" | "map" | "zip"
        self.nodes = nodes  # covered nodes, seq order
        self.left: List[PlanNode] = []
        self.right: List[PlanNode] = []
        self.zip_node: Optional[PlanNode] = None
        self.post: List[PlanNode] = []

    @property
    def final(self) -> PlanNode:
        return self.nodes[-1]

    @property
    def output(self):
        return self.nodes[-1].output

    @property
    def can_extend(self) -> bool:
        """Whether a later fusable Map consuming this step's output can
        be folded into it."""
        return self.kind in ("map", "zip") and all(n.fusable for n in self.nodes)


class Planner:
    def __init__(self, session):
        self.session = session
        self.pending: List[PlanNode] = []
        self._seq = 0
        self._executing = 0
        self._recording = 0
        self._captures: List[List[PlanNode]] = []

    # -- observability -----------------------------------------------------

    @property
    def executing(self) -> bool:
        """True while the planner itself is running plan steps; the
        container write hooks skip reader-forcing then (ordering inside
        a batch is the planner's job, and the event graph carries the
        actual dependencies)."""
        return self._executing > 0

    def _count(self, name: str, **labels) -> None:
        self.session.metrics.counter(name, **labels).inc()

    # -- recording ---------------------------------------------------------

    @property
    def recording(self) -> bool:
        """True inside a :meth:`record` window (a serve-job submit):
        every skeleton call defers, including Reduce — otherwise a
        synchronous force point — so the whole job stays a graph."""
        return self._recording > 0

    @contextmanager
    def record(self):
        """Capture one job's command graph: yields a list that collects
        every :class:`PlanNode` recorded in the window.  Nested windows
        each capture their own nodes (inner nodes appear in both)."""
        captured: List[PlanNode] = []
        self._captures.append(captured)
        self._recording += 1
        try:
            yield captured
        finally:
            self._recording -= 1
            self._captures.remove(captured)

    def _record(self, op: str, skeleton, inputs: Sequence, output,
                label: str, extras: Sequence = (), *, fusable: bool = False):
        node = PlanNode(self, op, skeleton, inputs, output,
                        fusable=fusable, label=label, extras=tuple(extras),
                        seq=self._seq)
        self._seq += 1
        for container in node.inputs:
            container._pending_readers.append(node)
        output._pending = node
        self.pending.append(node)
        for capture in self._captures:
            capture.append(node)
        self._count("skelcl_plan_deferred_total", op=op)
        return output

    def _defer_elementwise(self, op: str, skeleton, inputs, extras, out, label):
        fusable = compose.footprints_fusable(skeleton)
        if not fusable:
            self._count("skelcl_plan_fallback_total", reason="footprint")
        return self._record(op, skeleton, inputs, out, label, extras,
                            fusable=fusable)

    def defer_map(self, skeleton, inputs, extras, out, label: str):
        return self._defer_elementwise("map", skeleton, inputs, extras, out, label)

    def defer_zip(self, skeleton, inputs, extras, out, label: str):
        return self._defer_elementwise("zip", skeleton, inputs, extras, out, label)

    def defer_opaque(self, skeleton, inputs, extras, out, label: str):
        """Defer a skeleton with no fusion rules (Scan, MapOverlap,
        AllPairs): it executes through its eager path at force time,
        node by node — the documented fallback."""
        op = type(skeleton).__name__.lower()
        self._count("skelcl_plan_fallback_total", reason=op)
        return self._record(op, skeleton, inputs, out, label)

    # -- reduce: the synchronous force point -------------------------------

    def defer_reduce(self, skeleton, inputs, extras, out, label: str):
        """Record a Reduce without forcing (recording mode only): the
        Scalar result stays a placeholder until the node runs — reading
        it forces the node, like any container force point.  Recorded
        reductions skip the map∘reduce premap fusion window (counted as
        a fallback); correctness is unchanged."""
        self._count("skelcl_plan_fallback_total", reason="recorded_reduce")
        return self._record("reduce", skeleton, inputs, out, label)

    def reduce_now(self, skeleton, inputs, extras, out, label: str):
        """Record-and-force for Reduce.  If the reduction's input is the
        sole-consumer output of a fusable map chain, the chain becomes
        the ``premap`` of the reduction's first pass (map∘reduce); the
        chain's containers are elided."""
        if self.recording:
            return self.defer_reduce(skeleton, inputs, extras, out, label)
        (input_container,) = inputs
        premap = None
        producer = input_container._pending
        if producer is not None and producer.state == PlanNode.PENDING:
            batch = self._closure(producer)
            steps = self._rewrite(batch)
            last = steps[-1]
            if (last.output is input_container and last.kind == "map"
                    and last.can_extend
                    and self._pending_uses(input_container) == 0):
                chain_extras: List = []
                for node in last.nodes:
                    chain_extras.extend(node.extras)
                premap = compose.premap_of(
                    [n.skeleton for n in last.nodes]).with_extras(chain_extras)
                self._execute_steps(steps[:-1])
                self._elide_step(last)
                self._count("skelcl_fusion_total", rule="map_reduce")
                label = compose.chain_label(
                    [n.skeleton for n in last.nodes] + [skeleton],
                    label, kind="Reduce")
                input_container = last.nodes[0].inputs[0]
            else:
                if last.output is input_container and last.kind == "map":
                    self._count("skelcl_plan_fallback_total",
                                reason="multi_consumer")
                self._execute_steps(steps)
        return skeleton._run(self.session, [input_container], (), out, label,
                             premap=premap)

    # -- forcing -----------------------------------------------------------

    def force_node(self, node: PlanNode) -> None:
        if node.state in (PlanNode.DONE, PlanNode.RUNNING):
            return
        if node.state == PlanNode.ELIDED:
            self._recompute(node)
            return
        self._execute_steps(self._rewrite(self._closure(node)))

    def flush(self) -> None:
        """Execute everything still pending (with fusion across the whole
        remaining graph) — the ``finish_all()`` force point."""
        while True:
            batch = [n for n in self.pending if n.state == PlanNode.PENDING]
            if not batch:
                return
            self._execute_steps(self._rewrite(batch))

    def flush_subset(self, nodes: Sequence[PlanNode]) -> None:
        """Execute exactly ``nodes`` (plus any pending ancestors), with
        fusion *within* the subset — the serve dispatcher's force point:
        one job's recorded graph runs without dragging other tenants'
        pending work along."""
        seen = set()
        batch: List[PlanNode] = []
        for node in nodes:
            if node.state != PlanNode.PENDING:
                continue
            for ancestor in self._closure(node):
                if ancestor.state == PlanNode.PENDING \
                        and id(ancestor) not in seen:
                    seen.add(id(ancestor))
                    batch.append(ancestor)
        if batch:
            self._execute_steps(self._rewrite(
                sorted(batch, key=lambda n: n.seq)))

    def discard(self, nodes: Sequence[PlanNode]) -> None:
        """Throw away recorded-but-unwanted nodes (a serve submit whose
        admission was rejected *after* recording): each pending node is
        detached without ever executing.  Containers the discarded nodes
        were going to produce keep their placeholder contents."""
        for node in nodes:
            if node.state != PlanNode.PENDING:
                continue
            node.state = PlanNode.DONE
            self._detach(node)
            self._count("skelcl_plan_discarded_total", op=node.op)

    def _closure(self, target: PlanNode) -> List[PlanNode]:
        """``target`` plus its pending ancestors, in recording order.
        Elided ancestors encountered on the way are recomputed first
        (their values are inputs of the batch)."""
        seen = set()
        order: List[PlanNode] = []

        def visit(node: PlanNode) -> None:
            if id(node) in seen:
                return
            seen.add(id(node))
            for container in node.inputs:
                producer = getattr(container, "_pending", None)
                if producer is None:
                    continue
                if producer.state == PlanNode.PENDING:
                    visit(producer)
                elif producer.state == PlanNode.ELIDED:
                    self._recompute(producer)
            order.append(node)

        visit(target)
        return sorted(order, key=lambda n: n.seq)

    # -- rewrite: the fusion pass ------------------------------------------

    def _pending_uses(self, container) -> int:
        """How many times pending nodes read ``container`` — the
        multi-consumer fusion guard."""
        return sum(node.inputs.count(container) for node in self.pending
                   if node.state == PlanNode.PENDING)

    def _rewrite(self, batch: List[PlanNode]) -> List[_Step]:
        steps: List[_Step] = []
        by_output: Dict[int, _Step] = {}

        def declined(container) -> None:
            if self._pending_uses(container) > 1:
                self._count("skelcl_plan_fallback_total", reason="multi_consumer")

        for node in batch:
            if node.op == "map" and node.fusable:
                source = node.inputs[0]
                prev = by_output.get(id(source))
                if (prev is not None and prev.can_extend
                        and self._pending_uses(source) == 1):
                    if prev.kind == "map":
                        prev.nodes.append(node)
                    else:
                        prev.nodes.append(node)
                        prev.post.append(node)
                    by_output.pop(id(source))
                    by_output[id(node.output)] = prev
                    self._count("skelcl_fusion_total", rule="map_map")
                    continue
                if prev is not None:
                    declined(source)
                step = _Step("map", [node])
                steps.append(step)
                by_output[id(node.output)] = step
            elif node.op == "zip" and node.fusable:
                left, right = node.inputs
                step = _Step("zip", [node])
                step.zip_node = node
                for side, container in (("left", left), ("right", right)):
                    prev = by_output.get(id(container))
                    if (prev is not None and prev.kind == "map"
                            and prev.can_extend and not prev.post
                            and self._pending_uses(container) == 1):
                        setattr(step, side, prev.nodes)
                        step.nodes = sorted(step.nodes + prev.nodes,
                                            key=lambda n: n.seq)
                        steps.remove(prev)
                        by_output.pop(id(container))
                        self._count("skelcl_fusion_total", rule="zip_map")
                    elif prev is not None:
                        declined(container)
                steps.append(step)
                by_output[id(node.output)] = step
            else:
                step = _Step("eager", [node])
                steps.append(step)
                by_output[id(node.output)] = step
        return steps

    # -- execution ---------------------------------------------------------

    def _execute_steps(self, steps: Sequence[_Step]) -> None:
        self._executing += 1
        try:
            for step in steps:
                self._run_step(step)
        finally:
            self._executing -= 1

    def _run_step(self, step: _Step) -> None:
        if len(step.nodes) == 1:
            self._run_single(step.nodes[0])
            return
        for node in step.nodes:
            node.state = PlanNode.RUNNING
        try:
            if step.kind == "map":
                stages = step.nodes
                fused = compose.fused_map([n.skeleton for n in stages])
                extras: List = []
                for node in stages:
                    extras.extend(node.extras)
                label = compose.chain_label([n.skeleton for n in stages],
                                            stages[-1].label)
                fused._run(self.session, [stages[0].inputs[0]], extras,
                           step.output, label)
            else:
                zip_node = step.zip_node
                fused = compose.fused_zip(
                    [n.skeleton for n in step.left],
                    [n.skeleton for n in step.right],
                    zip_node.skeleton,
                    [n.skeleton for n in step.post])
                extras = []
                for node in step.left:
                    extras.extend(node.extras)
                for node in step.right:
                    extras.extend(node.extras)
                extras.extend(zip_node.extras)
                for node in step.post:
                    extras.extend(node.extras)
                left_in = step.left[0].inputs[0] if step.left else zip_node.inputs[0]
                right_in = step.right[0].inputs[0] if step.right else zip_node.inputs[1]
                label = compose.chain_label(
                    [zip_node.skeleton] + [n.skeleton for n in step.post],
                    step.final.label, kind="Zip")
                fused._run(self.session, [left_in, right_in], extras,
                           step.output, label)
        finally:
            for node in step.nodes:
                if node is step.final:
                    node.state = PlanNode.DONE
                    self._detach(node)
                else:
                    self._elide(node)

    def _elide_step(self, step: _Step) -> None:
        """Mark every node of a chain consumed by a reduce as elided
        (none of its containers materialize)."""
        for node in step.nodes:
            self._elide(node)

    def _elide(self, node: PlanNode) -> None:
        node.state = PlanNode.ELIDED
        try:
            self.pending.remove(node)
        except ValueError:
            pass
        self._count("skelcl_plan_elided_total", op=node.op)

    def _run_single(self, node: PlanNode) -> None:
        node.state = PlanNode.RUNNING
        self._executing += 1
        try:
            node.skeleton._run(self.session, node.inputs, node.extras,
                               node.output, node.label)
        finally:
            self._executing -= 1
            node.state = PlanNode.DONE
            self._detach(node)

    def _recompute(self, node: PlanNode) -> None:
        """Materialize an elided intermediate after all: run its eager
        path now (its inputs are still live — the write hooks force
        recomputation *before* any input mutation)."""
        if node.state != PlanNode.ELIDED:
            return
        for container in node.inputs:
            producer = getattr(container, "_pending", None)
            if producer is not None and producer is not node \
                    and producer.state in (PlanNode.PENDING, PlanNode.ELIDED):
                self.force_node(producer)
        self._count("skelcl_plan_recompute_total", op=node.op)
        self._run_single(node)

    def _detach(self, node: PlanNode) -> None:
        try:
            self.pending.remove(node)
        except ValueError:
            pass
        if node.output is not None and node.output._pending is node:
            node.output._pending = None
        for container in node.inputs:
            readers = getattr(container, "_pending_readers", None)
            if readers:
                container._pending_readers = [n for n in readers if n is not node]
