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
Each command therefore only needs its ancestor set and a per-buffer
index of prior accesses.  An ancestor set is an *offset set*: its lowest
enqueue index plus a bitset above it, so it costs the span of the
command's ancestry, not the number of commands since the last reset.
The access records of a buffer are dropped when the buffer is garbage
collected: no later command can name it, so none can race with them.

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
        self._index: Dict[object, int] = {}  # event -> enqueue index
        self._events: List[object] = []
        # Ancestor set of command i as an offset set: bit k of
        # ``_ancestor_bits[i]`` is enqueue index ``_ancestor_low[i] + k``.
        # ``_ancestor_low[i]`` is the lowest ancestor, or i itself when
        # there is none, so it never exceeds i.
        self._ancestor_low: List[int] = []
        self._ancestor_bits: List[int] = []
        self._by_buffer: Dict[int, List[Tuple[int, BufferAccess]]] = {}

    @property
    def enabled(self) -> bool:
        return self.mode is not SanitizeMode.OFF

    def reset(self) -> None:
        """Forget the recorded graph (e.g. between benchmark runs)."""
        self.races.clear()
        self._index.clear()
        self._events.clear()
        self._ancestor_low.clear()
        self._ancestor_bits.clear()
        self._by_buffer.clear()

    def forget_buffer(self, buffer_uid: int) -> None:
        """Drop the access records of a buffer that was garbage
        collected: no later command can name it.  Called from
        ``Buffer.__del__``, so also from inside :meth:`observe` when the
        cyclic collector runs there; it only pops one key."""
        self._by_buffer.pop(buffer_uid, None)

    def observe(self, event) -> None:
        """Record ``event`` and check it against all prior commands."""
        if not self.enabled:
            return
        index = len(self._events)
        lows, bits = self._ancestor_low, self._ancestor_bits
        # The union of the dependencies' offset sets, each with the
        # dependency's own bit set (a low never exceeds its index).
        # A lower low re-bases what is united so far.
        low, ancestors = index, 0
        for dep in event.wait_for:
            dep_idx = self._index.get(dep)
            if dep_idx is None:  # deps from before a reset() are unknown
                continue
            dep_low = lows[dep_idx]
            dep_bits = bits[dep_idx] | (1 << (dep_idx - dep_low))
            if dep_low < low:
                ancestors = (ancestors << (low - dep_low)) | dep_bits
                low = dep_low
            else:
                ancestors |= dep_bits << (dep_low - low)
        accesses: Sequence[BufferAccess] = getattr(event, "accesses", ())
        found: List[Race] = []
        reported: set = set()  # one race per (earlier, later) pair
        for access in accesses:
            for prior_idx, prior_access in self._by_buffer.get(access.buffer_uid, ()):
                if prior_idx in reported:
                    continue
                if not access.conflicts_with(prior_access):
                    continue
                if prior_idx >= low and (ancestors >> (prior_idx - low)) & 1:
                    continue
                reported.add(prior_idx)
                found.append(Race(self._events[prior_idx], event,
                                  prior_access, access))
        self._events.append(event)
        lows.append(low)
        bits.append(ancestors)
        self._index[event] = index
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
