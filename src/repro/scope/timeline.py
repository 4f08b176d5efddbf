"""ASCII timeline renderer: the trace for terminals.

Draws one lane per device engine over a shared time axis, so the
overlap structure (kernels hiding transfers, devices running
concurrently) is visible without leaving the shell::

    0 ns                                                    1,406,000 ns
    GPU0.compute   |      ######################                      |
    GPU0.transfer  |======                      ====                  |
    GPU1.compute   |      ######################                      |
    GPU1.transfer  |======                      ====                  |

``#`` marks kernel time, ``=`` transfer time; overlapping commands in
one lane merge (markers and barriers take no lane).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

_ENGINE_CHAR = {"compute": "#", "transfer": "="}
_ENGINE_ORDER = {"compute": 0, "transfer": 1}


def render_timeline(context, width: int = 64) -> str:
    """Render the timelines of ``context`` as ASCII lanes.

    ``width`` is the number of columns the time axis spans; lanes are
    one per (device, engine) that executed at least one command."""
    lanes: Dict[Tuple[int, str], List[Tuple[int, int]]] = {}
    for queue in context.queues:
        for event in queue.events:
            if event.engine == "sync":
                continue
            lanes.setdefault((queue.device.index, event.engine), []).append(
                (event.start_ns, event.end_ns)
            )
    if not lanes:
        return "(no commands recorded)"
    total = max(end for spans in lanes.values() for _s, end in spans)
    total = max(total, 1)
    labels = {
        key: f"GPU{key[0]}.{key[1]}"
        for key in lanes
    }
    label_width = max(len(label) for label in labels.values())
    header = f"{'0 ns'.ljust(label_width + 2)}|{' ' * max(0, width - len(f'{total:,} ns'))}{total:,} ns"
    lines = [header]
    for key in sorted(lanes, key=lambda k: (k[0], _ENGINE_ORDER.get(k[1], 9))):
        cells = [" "] * width
        char = _ENGINE_CHAR.get(key[1], "?")
        for start, end in lanes[key]:
            first = min(width - 1, int(start * width / total))
            last = min(width - 1, int(max(end - 1, start) * width / total))
            for cell in range(first, last + 1):
                cells[cell] = char
        lines.append(f"{labels[key].ljust(label_width)}  |{''.join(cells)}|")
    return "\n".join(lines)
