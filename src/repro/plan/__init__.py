"""Lazy skeleton planner: a small DAG IR over deferred skeleton calls.

With ``skelcl.init(lazy=True)`` (or ``SKELCL_LAZY=1``), skeleton calls
no longer enqueue kernels immediately: their call records
(:class:`~repro.plan.ir.PlanNode`) join a plan, which is *forced* on
read-back, ``out=`` materialization, ``finish_all()``, or any
side-effecting access.  At force time a rewrite pass fuses producer/consumer chains —
map∘map, zip∘(map, map) and map∘reduce — into single generated kernels,
emitted through the ordinary ``kernelc`` front-end so lint, SkelSan,
the vectorizer and the execution counters apply unchanged.

See ``docs/planner.md`` for the IR, the rewrite-rule catalogue, the
force points and the fallback conditions.

The package root exports only the call record: ``repro.skelcl`` builds
one per call, while :class:`repro.plan.planner.Planner` imports
``repro.skelcl`` (it composes Map and Zip skeletons) and is therefore
imported by the session that needs one.
"""

from .ir import PlanNode

__all__ = ["PlanNode"]
