"""Happens-before race detection over the recorded command graph.

The asynchronous engine (PR 2) orders commands *only* through wait-list
edges: ``event_wait_list=None`` adds an implicit edge on the previously
enqueued command, an explicit list adds exactly those edges (plus any
active queue barrier).  Everything else — engine serialization, the
accident that two commands happened not to overlap in one simulated
schedule — is a scheduling artifact, not a guarantee.  Two commands
**race** when

* their access sets conflict (same buffer, overlapping byte ranges, at
  least one write), and
* neither is an ancestor of the other in the wait-list DAG.

Wait lists may only reference already-enqueued events, so global enqueue
order is a topological order of the DAG.  That makes *incremental*
checking at submit time both sound and complete: when command *e* is
enqueued, every command it could race with is already recorded, and no
later event can ever create an ordering path between two earlier events.
Each command therefore only needs its ancestor set (kept as a bitset
over enqueue indices) and a per-buffer index of prior accesses.

Modes: ``report`` warns (:class:`RaceWarning`) at the racy enqueue and
keeps going; ``strict`` raises :class:`RaceError` right there, so the
traceback points at the enqueue site that missed the edge.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import settings
from .access import BufferAccess


class SanitizeMode(enum.Enum):
    OFF = "off"
    REPORT = "report"
    STRICT = "strict"


def resolve_sanitize_mode(explicit=None) -> SanitizeMode:
    """Turn a ``Context(detect_races=...)`` argument into a mode.

    ``None`` defers to the configuration chain
    (``skelcl.configure(sanitize=...)``, then the ``SKELCL_SANITIZE``
    environment variable, default off); otherwise accepts a
    :class:`SanitizeMode`, a mode string, or a bool (``True`` →
    strict) — the spellings :mod:`repro.settings` accepts, validated
    there (:class:`ValueError`)."""
    return SanitizeMode(settings.get("sanitize", explicit))


class RaceWarning(UserWarning):
    """Emitted (``report`` mode) when an unordered conflicting pair is found."""


class RaceError(RuntimeError):
    """Raised (``strict`` mode) at the enqueue that completed a race."""


def _describe_event(event) -> str:
    parts = [f"{event.command_type} {event.name!r} (device {event.device_index}"]
    site = getattr(event, "enqueue_site", None)
    if site:
        parts.append(f", enqueued at {site}")
    parts.append(")")
    return "".join(parts)


@dataclass
class Race:
    """An unordered conflicting command pair, in enqueue order."""

    earlier: object  # Event
    later: object  # Event
    earlier_access: BufferAccess
    later_access: BufferAccess

    def __str__(self) -> str:
        return (
            f"data race on {self.later_access.buffer_name}"
            f"#{self.later_access.buffer_uid}: "
            f"{_describe_event(self.earlier)} {self.earlier_access.describe()} "
            f"while {_describe_event(self.later)} {self.later_access.describe()}, "
            f"and no wait-list path orders them"
        )


class RaceDetector:
    """Observes every submitted command and reports unordered conflicts.

    Attach one per :class:`~repro.ocl.Context`; the context installs it
    on each queue as ``queue._sanitizer`` and ``CommandQueue._submit``
    calls :meth:`observe` with the event after its wait list is final.
    """

    def __init__(self, mode: SanitizeMode = SanitizeMode.REPORT):
        self.mode = mode
        self.races: List[Race] = []
        self._index: Dict[int, int] = {}  # id(event) -> enqueue index
        self._events: List[object] = []
        self._ancestors: List[int] = []  # bitset of ancestor enqueue indices
        self._by_buffer: Dict[int, List[Tuple[int, BufferAccess]]] = {}

    @property
    def enabled(self) -> bool:
        return self.mode is not SanitizeMode.OFF

    def reset(self) -> None:
        """Forget the recorded graph (e.g. between benchmark runs)."""
        self.races.clear()
        self._index.clear()
        self._events.clear()
        self._ancestors.clear()
        self._by_buffer.clear()

    def observe(self, event) -> None:
        """Record ``event`` and check it against all prior commands."""
        if not self.enabled:
            return
        ancestors = 0
        for dep in event.wait_for:
            dep_idx = self._index.get(id(dep))
            if dep_idx is not None:  # deps from before a reset() are unknown
                ancestors |= self._ancestors[dep_idx] | (1 << dep_idx)
        accesses: Sequence[BufferAccess] = getattr(event, "accesses", ())
        found: List[Race] = []
        reported: set = set()  # one race per (earlier, later) pair
        for access in accesses:
            for prior_idx, prior_access in self._by_buffer.get(access.buffer_uid, ()):
                if prior_idx in reported:
                    continue
                if not access.conflicts_with(prior_access):
                    continue
                if (ancestors >> prior_idx) & 1:
                    continue
                reported.add(prior_idx)
                found.append(Race(self._events[prior_idx], event,
                                  prior_access, access))
        index = len(self._events)
        self._events.append(event)
        self._ancestors.append(ancestors)
        self._index[id(event)] = index
        for access in accesses:
            self._by_buffer.setdefault(access.buffer_uid, []).append((index, access))
        for race in found:
            self.races.append(race)
            if self.mode is SanitizeMode.STRICT:
                raise RaceError(str(race))
            warnings.warn(RaceWarning(str(race)), stacklevel=4)

    def __repr__(self) -> str:
        return (
            f"<RaceDetector mode={self.mode.value} "
            f"commands={len(self._events)} races={len(self.races)}>"
        )
