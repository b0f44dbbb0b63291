"""Source-text bookkeeping: files, positions, spans.

The lexer stamps every token with a :class:`Span`; later phases propagate
spans onto AST nodes, kernel statements and error messages so that a
diagnostic for a generated EFSM transition can still point at the ECL line
it came from.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass


@dataclass(frozen=True)
class Position:
    """A 1-based line/column position inside a named source buffer."""

    line: int
    column: int

    def __str__(self):
        return "%d:%d" % (self.line, self.column)


@dataclass(frozen=True)
class Span:
    """A contiguous region of one source buffer."""

    filename: str
    start: Position
    end: Position

    def __str__(self):
        return "%s:%s" % (self.filename, self.start)

    @staticmethod
    def point(filename, line, column):
        """A zero-width span, for synthesized constructs."""
        pos = Position(line, column)
        return Span(filename, pos, pos)

    def merge(self, other):
        """The smallest span covering ``self`` and ``other``."""
        if other is None:
            return self
        first, last = self, other
        if (last.start.line, last.start.column) < (first.start.line, first.start.column):
            first, last = last, first
        return Span(self.filename, first.start, last.end)


#: Span used for nodes the compiler invents (glue code, expansions).
SYNTHETIC = Span.point("<synthetic>", 0, 0)


class SourceBuffer:
    """A named piece of program text with line/column arithmetic."""

    def __init__(self, text, filename="<string>"):
        self.text = text
        self.filename = filename
        # Offsets of the first character of each line, for offset->position.
        self._line_starts = [0]
        index = text.find("\n")
        while index >= 0:
            self._line_starts.append(index + 1)
            index = text.find("\n", index + 1)

    def position_at(self, offset):
        """Translate a character offset into a :class:`Position`."""
        if offset < 0:
            offset = 0
        if offset > len(self.text):
            offset = len(self.text)
        line = bisect_right(self._line_starts, offset)
        return Position(line, offset - self._line_starts[line - 1] + 1)

    def span(self, start_offset, end_offset):
        """A :class:`Span` between two character offsets."""
        return Span(
            self.filename,
            self.position_at(start_offset),
            self.position_at(end_offset),
        )

    def line_text(self, line):
        """The text of a 1-based line, without its newline."""
        if line < 1 or line > len(self._line_starts):
            return ""
        start = self._line_starts[line - 1]
        end = self.text.find("\n", start)
        if end < 0:
            end = len(self.text)
        return self.text[start:end]
