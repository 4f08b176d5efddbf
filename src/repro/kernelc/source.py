"""Source text handling: locations, spans and snippet extraction.

Every token and AST node produced by the kernelc front-end carries a
:class:`Span` pointing back into the original OpenCL-C source string so
that diagnostics can show precise carets, exactly like a real compiler.
"""

from __future__ import annotations

import bisect
import re
from typing import Dict, NamedTuple, Optional, Tuple

# Origin markers emitted by the jit frontend: ``/*@py:file.py:12*/``
# maps a generated line back to the Python source it was lowered from;
# ``/*@intent:func.param=rw*/`` records a declared access intent that
# the access analysis consumes verbatim.
_ORIGIN_MARKER = re.compile(r"/\*@py:([^:*]+):(\d+)\*/")
_INTENT_MARKER = re.compile(r"/\*@intent:(\w+)\.(\w+)=(r|w|rw)\*/")
_NEWLINE = re.compile("\n")


class Location(NamedTuple):
    """A point in a source file (1-based line and column)."""

    line: int
    column: int
    offset: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class Span(NamedTuple):
    """A half-open range ``[start, end)`` of source offsets."""

    start: Location
    end: Location

    def __str__(self) -> str:
        return str(self.start)

    def merge(self, other: "Span") -> "Span":
        """Smallest span covering both ``self`` and ``other``; of two
        points at the same offset, ``self``'s is kept."""
        start = self.start if self.start.offset <= other.start.offset else other.start
        end = self.end if self.end.offset >= other.end.offset else other.end
        return Span(start, end)


# A span used for synthesized nodes that have no source counterpart.
BUILTIN_LOCATION = Location(0, 0, 0)
BUILTIN_SPAN = Span(BUILTIN_LOCATION, BUILTIN_LOCATION)


class SourceFile:
    """A named source string with fast offset → line/column mapping."""

    def __init__(self, text: str, name: str = "<kernel>"):
        self.text = text
        self.name = name
        self._line_starts = [0, *(match.end() for match in _NEWLINE.finditer(text))]
        # Python-origin markers (jit-lowered code): 1-based generated
        # line → (python file, python line).
        self.origins: Dict[int, Tuple[str, int]] = {}
        # Declared access intents: (function, parameter) → mode.
        self.declared_intents: Dict[Tuple[str, str], str] = {}
        if "/*@" in text:
            for line_number, line in enumerate(text.split("\n"), start=1):
                match = _ORIGIN_MARKER.search(line)
                if match:
                    self.origins[line_number] = (match.group(1), int(match.group(2)))
                for intent in _INTENT_MARKER.finditer(line):
                    key = (intent.group(1), intent.group(2))
                    self.declared_intents[key] = intent.group(3)

    def origin(self, line: int) -> Optional[Tuple[str, int]]:
        """The Python ``(file, line)`` a generated line was lowered
        from, if the line carries an origin marker."""
        return self.origins.get(line)

    def location(self, offset: int) -> Location:
        """Map a character offset to a 1-based :class:`Location`."""
        offset = max(0, min(offset, len(self.text)))
        line_index = bisect.bisect_right(self._line_starts, offset) - 1
        column = offset - self._line_starts[line_index] + 1
        return Location(line_index + 1, column, offset)

    def span(self, start_offset: int, end_offset: int) -> Span:
        return Span(self.location(start_offset), self.location(end_offset))

    def line_text(self, line: int) -> str:
        """Return the text of a 1-based line, without its newline."""
        if line < 1 or line > len(self._line_starts):
            return ""
        start = self._line_starts[line - 1]
        end = self.text.find("\n", start)
        if end == -1:
            end = len(self.text)
        return self.text[start:end]

    def snippet(self, span: Span) -> str:
        """Render a caret-annotated snippet for ``span``."""
        line = span.start.line
        text = self.line_text(line)
        caret_start = max(span.start.column - 1, 0)
        if span.end.line == line:
            width = max(span.end.column - span.start.column, 1)
        else:
            width = max(len(text) - caret_start, 1)
        pointer = " " * caret_start + "^" * width
        return f"{text}\n{pointer}"
