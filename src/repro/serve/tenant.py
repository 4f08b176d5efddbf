"""Tenants: per-client queues, weights, and quotas.

Each :class:`~repro.serve.server.ClientSession` is backed by one
:class:`Tenant` on the server.  The tenant owns the client's FIFO job
queue and all the accounting state the scheduler and admission
controller read: the scheduling weight, the DRR deficit, the rolling
device-ns window, and the in-flight byte total.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Deque, Optional

from .jobs import Job, ServeError


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant resource limits.

    ``max_queue_depth`` bounds the number of queued jobs (admission
    control: submits beyond it raise :class:`~repro.serve.Backpressure`).
    ``max_inflight_bytes`` bounds the declared input bytes of queued +
    running jobs (:class:`~repro.serve.QuotaExceeded`).
    ``max_device_ns_per_window`` caps the modeled kernel-ns a tenant may
    be charged inside one ``window_ns`` stretch of serving time; a
    tenant at its cap is skipped by the scheduler until its window
    rolls (time fast-forwards when every backlogged tenant is capped).
    """

    max_queue_depth: int = 64
    max_inflight_bytes: Optional[int] = None
    max_device_ns_per_window: Optional[int] = None
    window_ns: int = 10_000_000

    def __post_init__(self):
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")
        if self.max_inflight_bytes is not None and self.max_inflight_bytes < 1:
            raise ValueError("max_inflight_bytes must be positive")
        if self.max_device_ns_per_window is not None \
                and self.max_device_ns_per_window < 1:
            raise ValueError("max_device_ns_per_window must be positive")
        if self.window_ns < 1:
            raise ValueError("window_ns must be positive")


class Tenant:
    def __init__(self, name: str, index: int, weight: float = 1.0,
                 quota: Optional[TenantQuota] = None, metrics=None):
        if not name or not isinstance(name, str):
            raise ServeError("a tenant needs a non-empty string name")
        if not (weight > 0):
            raise ServeError(f"tenant weight must be positive, got {weight!r}")
        self.name = name
        self.index = index  # stable: drives the tenant's trace tracks
        # What the dispatcher annotates each of the tenant's commands with.
        self.tags = MappingProxyType({"tenant": name, "tenant_track": index + 1})
        self.weight = float(weight)
        self.quota = quota if quota is not None else TenantQuota()
        self.metrics = metrics  # the server's registry: job outcomes land there
        self.queue: Deque[Job] = deque()
        self.deficit = 0.0          # DRR credit, in modeled kernel-ns
        self.inflight_bytes = 0
        self.device_ns_total = 0
        self.window_start_ns = 0
        self.window_used_ns = 0
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_rejected = 0

    # -- window quota ------------------------------------------------------

    def window_allows(self, now_ns: int) -> bool:
        """Whether the device-ns window quota permits dispatching for
        this tenant right now (rolls the window first if it expired)."""
        cap = self.quota.max_device_ns_per_window
        if cap is None:
            return True
        if now_ns - self.window_start_ns >= self.quota.window_ns:
            self.window_start_ns = now_ns
            self.window_used_ns = 0
        return self.window_used_ns < cap

    def next_window_ns(self) -> int:
        """When the current window rolls (the fast-forward target)."""
        return self.window_start_ns + self.quota.window_ns

    # -- accounting --------------------------------------------------------

    def charge(self, cost_ns: int) -> None:
        self.device_ns_total += cost_ns
        self.window_used_ns += cost_ns

    def __repr__(self) -> str:
        return (f"<Tenant {self.name!r} weight={self.weight} "
                f"queued={len(self.queue)} ns={self.device_ns_total}>")
