"""Skeleton base class and shared kernel-source utilities (§3.3).

A skeleton is a higher-order function: it is constructed with a
customizing function (an OpenCL-C source string) and called with
containers.  Calling a skeleton:

1. resolves the input/output distributions (explicit or default),
2. ensures input data is on the devices (implicit transfers),
3. launches the generated kernel on every device owning a chunk (the
   launches collected first and enqueued as siblings, which share one
   lockstep run where they can: ``ocl.SiblingPlan``),
4. marks outputs device-resident (host copies update lazily).

Generated kernel sources are deterministic strings, so the simulated
OpenCL build cache makes repeated executions cheap — mirroring SkelCL's
kernel caching.  One level up, what a call derives from its *shape* —
programs, per-chunk arguments, NDRanges, sibling grouping, access rows
— is its *launch recipe*, made once per shape and kept by the skeleton
(:class:`_RecipeCall`): a repeated call stages, binds its buffers
and enqueues.
"""

from __future__ import annotations

import copy
import os.path
from collections import OrderedDict
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .. import ocl
from ..callsite import call_site
from ..jit import JitFunction
from ..jit.lower import WEAK_FLOAT, WEAK_INT
from ..kernelc.ctypes_ import ScalarType, ctype_from_numpy
from ..plan.ir import PlanNode
from .container import Container
from .distribution import Block, Distribution, Overlap
from .funcparse import UserFunction, parse_user_function
from .matrix import Matrix
from .runtime import Session, SkelCLError, get_runtime
from .scalar import Scalar
from .types_ import ctype_for_dtype, dtype_for_ctype
from .vector import Vector

# SkelCL's default work-group size (§4.1: "SkelCL uses its default
# work-group size of 256").
DEFAULT_WORK_GROUP_SIZE = 256

_SKELCL_DIR = os.path.dirname(os.path.abspath(__file__))

#: Launch recipes a skeleton keeps (least recently used dropped): a
#: skeleton is called in a handful of shapes, so this bounds memory, not
#: the hit rate.
MAX_LAUNCH_RECIPES = 64


class Launch(NamedTuple):
    """What one kernel launch of a skeleton call binds
    (:meth:`Skeleton._enqueue`): the ``buffers`` of its pointer slots, in
    order.

    ``wait_for`` lists the events producing the buffers it reads or
    overwrites (RAW/WAW/WAR edges).  ``inputs`` lists the ``(container,
    position)`` chunks it reads: the event is recorded as a *reader* of
    those, so a later writer orders itself after this launch.  With an
    ``output`` container the event becomes the gate of its chunk at
    ``position``, so downstream consumers — downloads,
    redistributions, later skeletons — wait on it."""

    buffers: Sequence[ocl.Buffer]
    wait_for: Sequence[ocl.Event]
    inputs: Sequence[Tuple[Container, int]] = ()
    output: Optional[Container] = None
    position: Optional[int] = None


def default_label(skeleton_name: str, func_name: str) -> str:
    """The trace span name for an unlabelled call: skeleton + user
    function + the user code that invoked the skeleton (one frame walk
    per skeleton *call*, not per command), e.g.
    ``MapOverlap(func)@sobel.py:38``."""
    site = call_site(_SKELCL_DIR)
    label = f"{skeleton_name}({func_name})"
    return f"{label}@{site}" if site else label


def round_up(value: int, multiple: int) -> int:
    if multiple <= 0:
        return value
    return ((value + multiple - 1) // multiple) * multiple


def scalar_literal(value, ctype: ScalarType) -> str:
    """An OpenCL-C literal of ``value`` at type ``ctype``."""
    if ctype.is_float():
        text = repr(float(value))
        return f"{text}f" if ctype.name == "float" else text
    return repr(int(value))


class _RecipeCall:
    """The launch recipe of a call (:meth:`Skeleton._launch`, Reduce,
    Scan): what the call derives from its shape, made once per shape and
    kept (LRU-bounded by :data:`MAX_LAUNCH_RECIPES`) on the bound
    skeleton.  The shape is the operands' kinds, shapes, dtypes and
    aliasing, the additional arguments, the options, the session's
    strict mode and device limits — and the chunk layout the call stages
    (:meth:`staged`), where its distributions and the session partition
    show.  The memo maps the key to ``(programs, layouts)``, and
    ``layouts`` a staged layout to the recipe's steps: by position among
    the call's ``_enqueue`` calls, what each launches (an
    :class:`ocl.SiblingPlan`, with the chunk positions for ``_launch``).
    Both levels keep their :data:`MAX_LAUNCH_RECIPES` most recently used
    entries.

    On a miss ``programs()`` builds the call's programs when the call
    starts, before anything is staged (a failed build stages nothing),
    and each step is made (:meth:`step`) when the call reaches it; a hit
    made them before.  Either way the call stages, allocates, binds its
    buffers and enqueues: a hit and a miss launch the same kernels with
    the same arguments.  Counted in ``skelcl_launch_recipes_total``."""

    def __init__(self, skeleton: "Skeleton", node: PlanNode, programs: Callable[[], list]):
        session, operands = node.session, (*node.inputs, node.output)
        key = (tuple((type(c), shape_of(c), c.dtype, operands.index(c)) for c in operands),
               tuple(map(repr, node.extras)),  # -0.0 is not 0.0
               tuple(node.options.items()), session.settings.sanitize == "strict",
               tuple(device.max_work_group_size for device in session.devices))
        memo, self.metrics, self.at = skeleton._recipes, session.metrics, 0
        # pop + re-insert (as KernelSummary.launch_shapes): a hit moves to
        # the recent end, safe beside other threads' calls.
        self.entry = memo.pop(key, None) or (programs(), OrderedDict())
        memo[key] = self.entry
        if len(memo) > MAX_LAUNCH_RECIPES:
            memo.popitem(last=False)
        self.programs = self.entry[0]

    def staged(self, layout: tuple) -> None:
        """The call staged its operands' chunks as ``layout``: the
        recipe of that layout is a hit, none a miss that starts one."""
        layouts, self.layout = self.entry[1], layout
        steps = layouts.pop(layout, None)
        layouts[layout] = self.steps = {} if steps is None else steps
        if len(layouts) > MAX_LAUNCH_RECIPES:
            layouts.popitem(last=False)
        self.metrics.counter("skelcl_launch_recipes_total",
                             result="miss" if steps is None else "hit").inc()

    def step(self, derive: Callable[[], object]):
        """The call's next step, ``derive()`` the first time a call of
        its recipe reaches it.  A ``derive()`` that raises (a work-group
        size the device refuses) drops the layout's recipe: the next call
        of the shape misses and derives again."""
        steps, self.at = self.steps, self.at + 1
        step = steps.get(self.at)
        if step is None:
            try:
                step = steps.setdefault(self.at, derive())
            except Exception:
                self.entry[1].pop(self.layout, None)
                raise
        return step


def shape_of(container) -> tuple:
    """``()`` for a Scalar, ``(size,)`` for a vector, ``(rows, cols)``
    for a matrix (index containers included)."""
    if isinstance(container, Scalar):
        return ()
    return getattr(container, "shape", None) or (container.size,)


class Skeleton:
    """Base of all skeletons: the call protocol, program caching and the
    per-chunk launch loop.

    A skeleton is a value: customized once, at construction, and not
    assigned to by its calls.  A call is one record — a
    :class:`~repro.plan.ir.PlanNode` carrying the session, operands,
    label and events — and all a skeleton keeps of its calls is the
    pointer to the latest record (besides memo fills: built programs,
    bound specializations).  One skeleton object can therefore be called
    from several sessions and threads at once.

    A skeleton is customized either by an OpenCL-C source string or by
    a :class:`repro.jit.JitFunction` (a ``@skelcl.jit``-decorated Python
    function).  A jitted customizer is *specialized* — lowered to
    OpenCL-C at concrete parameter types.  When every parameter is
    annotated that happens at construction, and the skeleton is
    indistinguishable from the string path.  Otherwise the types come
    from each call's containers: the call resolves its type key to a
    *bound specialization* — a copy of this skeleton customized by the
    source lowered at those types, created once per key and never
    changed afterwards — and it is the bound skeleton the call record
    names, so code generation, caching, fusion and the analyses all run
    unchanged and a deferred call keeps the types it was recorded with.

    Subclasses *declare* what differs between the patterns: the class
    attributes below, ``_bind_user`` (signature-driven types, including
    ``out_type``), ``_validate`` and ``_execute`` — which for every
    single-launch skeleton is one :meth:`_launch` call naming the kernel,
    the distributions and the per-chunk arguments.
    """

    #: How many leading positionals are input containers.
    n_inputs = 1
    #: Whether further positionals are additional (scalar) arguments; if
    #: not, they are a positional ``out`` and rejected.
    takes_extras = False
    #: Container types accepted as inputs.
    accepts: Tuple[type, ...] = (Vector, Matrix)
    #: Call keywords beyond ``out=``/``label=``.
    call_options: Tuple[str, ...] = ()
    #: The :class:`repro.plan.planner.Planner` method a lazy session
    #: hands the call to (skeletons without fusion rules defer opaquely).
    plan_entry = "defer_opaque"

    def __init__(self, source: Union[str, JitFunction, None] = None):
        self._programs: Dict[str, ocl.Program] = {}
        self._recipes: "OrderedDict[tuple, tuple]" = OrderedDict()
        #: The record of the most recent call — the one attribute calls
        #: assign.
        self._latest: Optional[PlanNode] = None
        self.jit: Optional[JitFunction] = None
        self._user: Optional[UserFunction] = None
        #: Type key -> bound specialization, when the customizer's types
        #: come from the call; None for a skeleton that is its own.
        self._bound: Optional[Dict[tuple, "Skeleton"]] = None
        if isinstance(source, JitFunction):
            self.jit = source
            if source.is_fully_annotated() and (
                    source.n_outputs is None or source.component is not None):
                self._customize(source.lower_source())
            else:
                self._bound = {}
        elif source is not None:
            self._customize(source)

    def _customize(self, source: str) -> None:
        self._user = parse_user_function(source)
        self._bind_user()

    # -- the call protocol ---------------------------------------------------

    def __call__(self, *args, out=None, label: Optional[str] = None, **options):
        """Call the skeleton: ``skeleton(*inputs, *additional_arguments,
        out=None, label=None)``.  The one call path of all six patterns
        (docs/skelcl_api.md, "Call protocol"):

        1. split the positionals into input containers and additional
           arguments (a positional ``out`` is a :class:`TypeError`) and
           check the container kinds,
        2. resolve a jit customizer's bound specialization from the
           call's argument types,
        3. validate the call (the class's ``_validate``),
        4. fix the trace label (``label=`` or skeleton + function + site),
        5. check ``out=`` against the result's kind, shape and dtype — or
           create the result container,
        6. record the validated call as one node, and hand the node to
           the session's lazy planner or run it now.

        Nothing is enqueued before step 6, so a rejected call leaves the
        session untouched.  An ``out=`` container is overwritten in
        place — a force point — so such calls (and index-container or
        sampled ones) always run now."""
        name = type(self).__name__
        session = get_runtime()
        if len(args) < self.n_inputs:
            raise TypeError(f"{name}() takes {self.n_inputs} input container(s), "
                            f"{len(args)} given")
        inputs, extras = args[:self.n_inputs], args[self.n_inputs:]
        if extras and not self.takes_extras:
            # The pre-unification calling convention passed the output
            # container positionally; it went through a
            # DeprecationWarning cycle and is now an error.
            raise TypeError(
                f"{name}() no longer accepts a positional output "
                f"container ({len(extras)} extra positional argument(s) given); "
                "pass it as the keyword out=..."
            )
        for option in options:
            if option not in self.call_options:
                raise TypeError(f"{name}() got an unexpected keyword argument {option!r}")
        options = {key: value for key, value in options.items() if value is not None}
        for container in inputs:
            if not isinstance(container, self.accepts):
                raise SkelCLError(
                    f"{name} operates on "
                    f"{', '.join(kind.__name__ for kind in self.accepts)} "
                    f"containers, got {type(container).__name__}"
                )
        bound = self if self._bound is None else self._bound_for(self._hints(inputs, extras))
        bound._validate(inputs, extras)
        label = label or default_label(name, bound.func_name)
        shape = bound._output_shape(inputs)
        dtype = dtype_for_ctype(bound.out_type)
        overwrites = isinstance(out, Container)
        if out is None:
            if len(shape) == 2:
                out = Matrix(shape, dtype=dtype)
            else:
                out = Vector(shape[0], dtype=dtype) if shape else Scalar(0, dtype)
        else:
            kind = (Scalar, Vector, Matrix)[len(shape)]
            if not isinstance(out, kind):
                raise SkelCLError(
                    f"{name} out= must be a {kind.__name__}, got {type(out).__name__}")
            if shape_of(out) != shape:
                raise SkelCLError(
                    f"output container has shape {shape_of(out)}, expected {shape}")
            if overwrites and out.dtype != dtype:
                raise SkelCLError(
                    f"output container dtype {out.dtype} does not match {bound.out_type}")
        node = self._latest = PlanNode(session, bound, inputs, extras, out, label, options)
        planner = session.planner
        if (planner is not None and not overwrites and not options
                and all(isinstance(c, Container) for c in inputs)):
            return getattr(planner, self.plan_entry)(node)
        return bound._run(node)

    def _run(self, node: PlanNode):
        """Run the recorded call ``node`` now, with this skeleton's
        kernels (:meth:`PlanNode.run`, where every call runs and ends)."""
        return node.run(self)

    @property
    def user(self) -> Optional[UserFunction]:
        """The customizing function.  A jit customizer whose types come
        from the call has one per bound specialization: this is the
        latest call's (None before the first)."""
        if self._bound is not None and self._latest is not None:
            return self._latest.skeleton._user
        return self._user

    @property
    def func_name(self) -> str:
        """The customizing function's name, as shown in trace labels."""
        return self._user.name

    def _hints(self, inputs: Sequence, extras: Sequence) -> List:
        """Call-site type hints for jit specialization: one element
        ctype per input container, then one hint per additional
        argument."""
        hints: List = [ctype_for_dtype(c.dtype) for c in inputs]
        hints.extend(self._hint_for_extra(v) for v in extras)
        return hints

    def _validate(self, inputs: Sequence, extras: Sequence) -> None:
        """Raise :class:`SkelCLError` unless the inputs' dtypes/shapes
        and the additional arguments fit the customizing function."""
        raise NotImplementedError

    def _output_shape(self, inputs: Sequence) -> tuple:
        """The result's shape (see :func:`shape_of`); elementwise by
        default."""
        return shape_of(inputs[0])

    def _execute(self, node: PlanNode, **options):
        """Enqueue the commands of the call ``node`` records and return
        its output container."""
        raise NotImplementedError

    # -- jit specialization --------------------------------------------------

    def _bind_user(self) -> None:
        """Validate ``self.user`` and extract the signature-driven
        attributes (element/output/extra types).  Subclasses override;
        called once, when the skeleton is customized."""

    def _bound_for(self, hints: Sequence) -> "Skeleton":
        """The bound specialization for a call with ``hints``: this
        skeleton customized by the jit function lowered at the
        parameter types the annotations and the hints resolve to.  Made
        on the first call at those types and memoized."""
        key = self.jit.resolve_param_ctypes(hints)
        bound = self._bound.get(key)
        if bound is None:
            bound = copy.copy(self)
            bound._bound = bound._latest = None
            bound._recipes = OrderedDict()
            bound._customize(self.jit.lower_source(key))
            bound = self._bound.setdefault(key, bound)
        return bound

    @staticmethod
    def _hint_for_extra(value):
        """The type hint one additional (scalar) argument contributes.

        Plain Python scalars stay *weak* — inside the kernel they take
        part in NumPy's weak-scalar promotion exactly like the Python
        value does in the host function.  NumPy scalars are strong."""
        if isinstance(value, (np.integer, np.floating)):
            return ctype_from_numpy(value.dtype)
        if isinstance(value, (bool, int)):
            return WEAK_INT
        if isinstance(value, float):
            return WEAK_FLOAT
        return None

    # -- programs ------------------------------------------------------------

    def _built(self, source: str, name: str,
               session: Optional[Session] = None) -> ocl.Program:
        """The built program of ``source``, cached per skeleton; a build
        is counted on the metrics of the ``session`` that asked."""
        program = self._programs.get(source)
        if program is None:
            create = ocl.Program if session is None else session.context.create_program
            program = self._programs[source] = create(source, name).build()
        return program

    def _program(self, source: str, name: str, session: Session) -> ocl.Program:
        """:meth:`_built`, for a launch on ``session``: a lint error
        fails the build when that session resolved ``sanitize="strict"``
        (``Program.build`` enforces the mode of the session that built
        it, and a skeleton's programs are shared between sessions)."""
        program = self._built(source, name, session)
        if session.settings.sanitize == "strict":
            program.fail_on_lint_errors()
        return program

    # -- launches ---------------------------------------------------------------

    @property
    def last_events(self) -> List[ocl.Event]:
        """The events of the most recent call.  In a lazy session a force
        point for that call (a failed call raises its error); a call
        fusion folded into another launch reports that launch's events."""
        node = self._latest
        if node is None:
            return []
        if node.state != PlanNode.ELIDED:
            node.force()
        return node.events

    @property
    def last_kernel_time_ns(self) -> int:
        """Simulated kernel time of the most recent call: the critical-path
        window over the call's kernel events — latest completion minus
        earliest start, as scheduled on the command graph.  Kernels that
        overlap (different devices, or hidden behind transfers) are
        counted once, matching what ``clGetEventProfilingInfo`` timelines
        would report."""
        kernels = [e for e in self.last_events if e.command_type == "ndrange_kernel"]
        if not kernels:
            return 0
        return max(e.end_ns for e in kernels) - min(e.start_ns for e in kernels)

    def _enqueue(self, node: PlanNode, step: ocl.SiblingPlan,
                 launches: Sequence[Launch]) -> List[ocl.Event]:
        """Launch the sibling launches ``step`` plans — one kernel's
        launches on different devices, which share one lockstep run
        where they can — for the call ``node``, each with the buffers of
        its :class:`Launch`.  Each event, in launch order, takes the
        call's label, joins its events and is recorded on the launch's
        containers before the next launch's event is recorded; returns
        the events."""
        session, events = node.session, []
        for launch, event in zip(launches, step.enqueue(
                [session.queue(index) for index in step.devices],
                [launch.buffers for launch in launches],
                [launch.wait_for for launch in launches])):
            for container, position in launch.inputs:
                container.record_chunk_reader(position, event)
            if launch.output is not None:
                launch.output.record_chunk_event(launch.position, event)
            event.label = node.label
            node.events.append(event)
            events.append(event)
        return events

    def _launch(
        self,
        node: PlanNode,
        inputs: Sequence[Container],
        distributions: Sequence[Distribution],
        out_distribution: Distribution,
        source: Callable[[], str],
        program_name: str,
        kernel_name: str,
        local_size: Tuple[int, ...],
        chunk_args: Callable[..., Tuple[tuple, Tuple[int, ...]]],
        sample_fraction: Optional[float] = None,
    ):
        """The per-chunk launch loop of every single-launch skeleton.

        Builds the program of ``source()`` (a failed build enqueues
        nothing), stages ``inputs`` on the call's session under their
        ``distributions`` (implicit transfers), prepares the call's
        output under ``out_distribution``, and on every device owning a
        non-empty chunk launches ``kernel_name`` with the arguments
        ``(*input_buffers, out_buffer, *scalars, *node.extras)``.
        ``chunk_args(out_chunk, *input_chunks)`` returns the chunk's
        ``scalars`` and its work-item extent, which is rounded up to
        ``local_size`` per dimension.  ``source`` and ``chunk_args`` run
        only when the call misses its launch recipe (:class:`_RecipeCall`).
        Each launch waits on the producers of the chunks it reads and on
        the producers and readers of the chunk it overwrites, and is
        recorded as reader / writer of those chunks.  The launches are
        siblings (:meth:`_enqueue`)."""
        session, out = node.session, node.output
        call = _RecipeCall(self, node, lambda: [self._program(source(), program_name, session)])
        staged = [container.ensure_on_devices(distribution, session)
                  for container, distribution in zip(inputs, distributions)]
        # Taken before the output is prepared, which drops the chunk
        # events of an input that is also the output under another
        # distribution (``out=`` the input, in place).
        read_waits = [[event for container in inputs for event in container.chunk_events(position)]
                      for position in range(len(session.devices))]
        staged.append(out.prepare_as_output(out_distribution, session))
        call.staged(tuple(tuple(chunk for chunk, _ in pairs) for pairs in staged))
        by_position = list(zip(*staged))

        def derive():
            (program,), launches, positions = call.programs, [], []
            for position, (*in_pairs, (out_chunk, _)) in enumerate(by_position):
                scalars, extent = chunk_args(out_chunk, *(chunk for chunk, _ in in_pairs))
                if 0 in extent:
                    continue
                kernel = program.create_kernel(kernel_name).set_args(
                    *(buffer for _, buffer in by_position[position]), *scalars, *node.extras)
                launches.append((out_chunk.device_index, kernel,
                                 tuple(round_up(n, wg) for n, wg in zip(extent, local_size)),
                                 local_size))
                positions.append(position)
            return positions, ocl.SiblingPlan(session.devices, launches, sample_fraction)

        positions, step = call.step(derive)
        self._enqueue(node, step, [Launch(
            [buffer for _, buffer in by_position[position]],
            read_waits[position] + out.chunk_write_events(position),
            [(container, position) for container in inputs], out, position)
            for position in positions])
        return out

    # -- distribution policy -------------------------------------------------------

    @staticmethod
    def output_distribution(input_distribution: Distribution) -> Distribution:
        """Outputs follow the input's distribution; overlap inputs
        produce block outputs (each device owns its block of results)."""
        if isinstance(input_distribution, Overlap):
            return Block()
        return input_distribution

    # -- extra ("additional") arguments -----------------------------------------

    def extra_param_source(self, extra_types: Sequence[ScalarType]) -> str:
        parts = []
        for index, ctype in enumerate(extra_types):
            parts.append(f", const {ctype.name} SCL_EXTRA{index}")
        return "".join(parts)

    def extra_call_source(self, extra_types: Sequence[ScalarType]) -> str:
        return "".join(f", SCL_EXTRA{index}" for index in range(len(extra_types)))

    def check_extra_args(self, extra_types: Sequence[ScalarType], extra_args: Sequence) -> None:
        if len(extra_args) != len(extra_types):
            raise SkelCLError(
                f"skeleton customized with {len(extra_types)} additional argument(s), "
                f"called with {len(extra_args)}"
            )
        for value in extra_args:
            if not isinstance(value, (bool, int, float, np.integer, np.floating)):
                raise SkelCLError(
                    f"additional arguments must be scalars, got {type(value).__name__}"
                )
