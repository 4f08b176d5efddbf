"""SkelScope structured tracer: Chrome trace-event export + validation.

Converts a command graph into the Chrome trace-event JSON
format (the ``traceEvents`` array consumed by Perfetto and
``chrome://tracing``):

* one *process* per simulated device, one *thread* (track) per device
  engine (compute / transfer / sync), named via ``M`` metadata events —
  commands tagged by the serve runtime additionally get one track per
  tenant and engine (``compute [tenant-a]``, …);
* one complete (``X``) slice per command, carrying the four OpenCL
  lifecycle timestamps (QUEUED/SUBMITTED/RUNNING/COMPLETE), byte
  counts, buffer access sets (``buffer#uid[start:stop]``) and execution
  counters in ``args``;
* zero-duration sync commands (markers/barriers) as instant (``i``)
  events;
* one flow (``s``/``f``) pair per wait-list edge, so Perfetto draws the
  dependency arrows between slices across devices and engines.

Timestamps are emitted in microseconds (the trace format's unit) but
the exact simulated nanoseconds are preserved in ``args`` — the schema
checker (:func:`validate_trace`) verifies against the exact values.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

# Engine → thread id (track) inside a device's process.
ENGINE_TIDS = {"compute": 0, "transfer": 1, "sync": 2}
_TID_ENGINES = {tid: engine for engine, tid in ENGINE_TIDS.items()}

# Serve-mode tenant tracks: commands dispatched for tenant k (1-based
# ``tenant_track`` in ``event.annotations``, set by the serve
# dispatcher) render on tid = engine + 3*k, so each tenant gets its own
# compute/transfer row per device.  ``tid % 3`` always recovers the
# engine.
_ENGINE_TRACKS = len(ENGINE_TIDS)


def event_tid(event) -> int:
    """The trace track of ``event``: its engine's base tid, offset by
    the tenant track when the serve runtime tagged the command."""
    base = ENGINE_TIDS[event.engine]
    track = event.annotations.get("tenant_track", 0)
    return base + _ENGINE_TRACKS * int(track)


def _track_name(tid: int, tenant: Optional[str]) -> str:
    engine = _TID_ENGINES[tid % _ENGINE_TRACKS]
    return f"{engine} [{tenant}]" if tenant else engine


def _collect_events(context) -> List[object]:
    events: List[object] = []
    for queue in context.queues:
        events.extend(queue.events)
    return events


def _event_args(event) -> Dict[str, object]:
    args: Dict[str, object] = {
        "seq": event.seq,
        "queued_ns": event.queued_ns,
        "submitted_ns": event.submit_ns,
        "start_ns": event.start_ns,
        "end_ns": event.end_ns,
        "device": event.device_index,
        "engine": event.engine,
        "command": event.command_type,
    }
    if event.label:
        args["label"] = event.label
    if event.enqueue_site:
        args["enqueue_site"] = event.enqueue_site
    if event.wait_for:
        args["wait_for"] = [dep.seq for dep in event.wait_for]
    accesses = [access.describe() for access in event.accesses
                if hasattr(access, "describe")]
    if accesses:
        args["buffers"] = accesses
    for key, value in event.info.items():
        args[key] = value
    return args


def trace_events(context) -> List[Dict[str, object]]:
    """The ``traceEvents`` list for ``context``'s command graph.  Adds
    no commands to the graph (the tracer only *reads* the per-queue
    event records, final since each was enqueued)."""
    out: List[Dict[str, object]] = []
    events = _collect_events(context)
    used_tracks: Dict[int, Dict[int, Optional[str]]] = {}
    for event in events:
        tenant = event.annotations.get("tenant")
        used_tracks.setdefault(event.device_index, {})[event_tid(event)] = tenant
    for queue in context.queues:
        device = queue.device
        out.append({
            "ph": "M", "name": "process_name", "pid": device.index, "tid": 0,
            "args": {"name": f"GPU{device.index} ({device.name})"},
        })
        for tid, tenant in sorted(used_tracks.get(device.index, {}).items()):
            out.append({
                "ph": "M", "name": "thread_name", "pid": device.index, "tid": tid,
                "args": {"name": _track_name(tid, tenant)},
            })
    for event in events:
        tid = event_tid(event)
        name = event.label or event.name
        common = {
            "name": name,
            "cat": event.command_type,
            "pid": event.device_index,
            "tid": tid,
            "args": _event_args(event),
        }
        if event.engine == "sync" or event.duration_ns == 0:
            out.append({"ph": "i", "ts": event.start_ns / 1e3, "s": "t", **common})
        else:
            out.append({
                "ph": "X",
                "ts": event.start_ns / 1e3,
                "dur": event.duration_ns / 1e3,
                **common,
            })
        for dep in event.wait_for:
            flow_id = f"{dep.seq}->{event.seq}"
            out.append({
                "ph": "s", "id": flow_id, "name": "dep", "cat": "dep",
                "pid": dep.device_index, "tid": event_tid(dep),
                "ts": dep.end_ns / 1e3,
                "args": {"from_ns": dep.end_ns},
            })
            out.append({
                "ph": "f", "bp": "e", "id": flow_id, "name": "dep", "cat": "dep",
                "pid": event.device_index, "tid": tid,
                "ts": event.start_ns / 1e3,
                "args": {"to_ns": event.start_ns},
            })
    return out


def chrome_trace(context) -> Dict[str, object]:
    """The full Chrome trace JSON object (load in Perfetto or
    ``chrome://tracing``)."""
    return {
        "traceEvents": trace_events(context),
        "displayTimeUnit": "ns",
        "otherData": {
            "producer": "SkelScope",
            "devices": [device.name for device in context.devices],
            "critical_path_ns": context.finish_all(),
        },
    }


def write_trace(context, path: str) -> str:
    """Export the context's trace to ``path``; returns the path."""
    with open(path, "w") as handle:
        json.dump(chrome_trace(context), handle, indent=1)
    return path


# -- schema checking ---------------------------------------------------------


def validate_trace(trace) -> List[str]:
    """Schema-check a Chrome trace produced by :func:`chrome_trace` (or
    its parsed-from-disk form).  Returns a list of problems — empty
    means valid:

    * every event carries the keys its phase requires;
    * slice timestamps are exact, non-negative and *monotonic per
      track* (engines serialize, so slices on one track never overlap);
    * each device uses at most one track per engine, and every used
      track is named by a ``thread_name`` metadata event;
    * every flow event has both endpoints (``s`` and ``f`` with the
      same id) and each endpoint binds to a slice or instant that
      exists on its track at that timestamp.
    """
    problems: List[str] = []
    if isinstance(trace, dict):
        events = trace.get("traceEvents")
        if events is None:
            return ["trace object has no 'traceEvents' key"]
    else:
        events = trace
    if not isinstance(events, list):
        return ["'traceEvents' is not a list"]

    slices: Dict[Tuple[int, int], List[Tuple[int, int, str]]] = {}
    instants: Dict[Tuple[int, int], List[Tuple[int, str]]] = {}
    thread_names: Dict[Tuple[int, int], str] = {}
    flows: Dict[str, Dict[str, Tuple[int, int, float]]] = {}

    for index, event in enumerate(events):
        ph = event.get("ph")
        if ph is None:
            problems.append(f"event #{index} has no phase ('ph')")
            continue
        if ph == "M":
            if event.get("name") == "thread_name":
                thread_names[(event["pid"], event["tid"])] = event["args"]["name"]
            continue
        for key in ("name", "pid", "tid", "ts"):
            if key not in event:
                problems.append(f"event #{index} ({ph!r}) is missing {key!r}")
        if {"name", "pid", "tid", "ts"} - set(event):
            continue
        track = (event["pid"], event["tid"])
        if ph == "X":
            args = event.get("args", {})
            start = args.get("start_ns", round(event["ts"] * 1e3))
            end = args.get("end_ns", round((event["ts"] + event.get("dur", 0)) * 1e3))
            if "dur" not in event:
                problems.append(f"slice #{index} {event['name']!r} has no 'dur'")
                continue
            if start < 0 or end < start:
                problems.append(
                    f"slice #{index} {event['name']!r} has bad timestamps "
                    f"[{start}, {end}]"
                )
            seq = ("queued_ns", "submitted_ns", "start_ns", "end_ns")
            if all(key in args for key in seq):
                stamps = [args[key] for key in seq]
                if stamps != sorted(stamps):
                    problems.append(
                        f"slice #{index} {event['name']!r} lifecycle timestamps "
                        f"not monotonic: {stamps}"
                    )
            slices.setdefault(track, []).append((start, end, event["name"]))
        elif ph == "i":
            args = event.get("args", {})
            ts_ns = args.get("start_ns", round(event["ts"] * 1e3))
            instants.setdefault(track, []).append((ts_ns, event["name"]))
        elif ph in ("s", "f"):
            flow_id = event.get("id")
            if flow_id is None:
                problems.append(f"flow event #{index} has no id")
                continue
            side = "begin" if ph == "s" else "end"
            flows.setdefault(str(flow_id), {})[side] = (
                event["pid"], event["tid"], event["ts"])

    # One track per engine (plus per-tenant overlays at tid + 3k): the
    # engine is recoverable from tid % 3, and every used track must be
    # named by a thread_name metadata event.
    for (pid, tid) in set(slices) | set(instants):
        if tid % _ENGINE_TRACKS not in _TID_ENGINES or tid < 0:
            problems.append(f"device {pid} uses unknown track tid={tid}")
        if (pid, tid) not in thread_names:
            problems.append(f"track (pid={pid}, tid={tid}) has no thread_name metadata")

    # Monotonic, non-overlapping slices per track.
    for track, entries in slices.items():
        entries.sort()
        for (s1, e1, n1), (s2, e2, n2) in zip(entries, entries[1:]):
            if s2 < e1:
                problems.append(
                    f"track {track}: slices {n1!r} [{s1},{e1}] and "
                    f"{n2!r} [{s2},{e2}] overlap"
                )

    # Flow endpoints must exist and must land on a real event.
    def _binds(pid: int, tid: int, ts_us: float) -> bool:
        ts_ns = ts_us * 1e3
        eps = 1.0  # float microsecond round-trip slack, in ns
        for start, end, _name in slices.get((pid, tid), ()):
            if start - eps <= ts_ns <= end + eps:
                return True
        for ts, _name in instants.get((pid, tid), ()):
            if abs(ts - ts_ns) <= eps:
                return True
        return False

    for flow_id, sides in flows.items():
        for side in ("begin", "end"):
            if side not in sides:
                problems.append(f"flow {flow_id!r} is missing its {side} event")
                continue
            pid, tid, ts = sides[side]
            if not _binds(pid, tid, ts):
                problems.append(
                    f"flow {flow_id!r} {side} at (pid={pid}, tid={tid}, "
                    f"ts={ts}us) binds to no slice"
                )
    return problems


def assert_valid_trace(trace) -> None:
    """Raise ``ValueError`` listing every schema problem, if any."""
    problems = validate_trace(trace)
    if problems:
        raise ValueError(
            "invalid Chrome trace:\n" + "\n".join(f"  - {p}" for p in problems)
        )
