"""Line-oriented text formats for matrices, frame lists, and point samples.

Matrix format: a `dim` field with the dimension, then an `entries` field
followed by d rows of d rational tokens (`p/q`, or a plain integer `n`).
Whitespace is free-form and an optional colon after a field name is
accepted, so both of these parse:

    dim 3            dim: 3
    entries          entries:
    1 1 1            1 1/1 1
    0 1 2            0 1 2
    0 0 1            0 0 1

A flags file is a sequence of `frame` blocks, each introducing one matrix
in the format above.  A sample file is a sequence of records, each a
`point p q` line followed by a `frame` block.  A points file is one `p q`
pair per line (a leading `point` token is accepted).

Every integer in a token (a numerator, a denominator, a dimension or a
coordinate) may have at most MAX_DIGITS digits, the interpreter's default
int/str conversion limit; a longer one is a ParseError.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .linalg import Matrix

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")
_INT = re.compile(r"^[+-]?\d+$")

MAX_DIGITS = 4300


def _check_digits(tok: str):
    digits = max(len(part.lstrip("+-")) for part in tok.split("/"))
    if digits > MAX_DIGITS:
        raise ParseError(
            f"integer of {digits} digits in token '{tok[:20]}...'; "
            f"the limit is {MAX_DIGITS} digits"
        )


def _tokens(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0]
        out.extend(line.replace(":", " ").split())
    return out


class _Cursor:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, word: str):
        tok = self.take()
        if tok != word:
            raise ParseError(f"expected '{word}', got '{tok}'")

    def take_int(self, what: str) -> int:
        tok = self.take()
        if not _INT.match(tok):
            raise ParseError(f"expected integer {what}, got '{tok}'")
        _check_digits(tok)
        return int(tok)

    def take_rational(self) -> Fraction:
        tok = self.take()
        if not _RATIONAL.match(tok):
            raise ParseError(f"expected rational entry, got '{tok}'")
        _check_digits(tok)
        try:
            return Fraction(tok)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in entry '{tok}'") from None

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.tokens)


def _read_matrix(cur: _Cursor) -> Matrix:
    cur.expect("dim")
    d = cur.take_int("dimension")
    if d < 1:
        raise ParseError(f"dimension must be positive, got {d}")
    cur.expect("entries")
    rows = [[cur.take_rational() for _ in range(d)] for _ in range(d)]
    return Matrix(rows)


def parse_matrix(text: str) -> Matrix:
    cur = _Cursor(_tokens(text))
    m = _read_matrix(cur)
    if not cur.exhausted:
        raise ParseError(f"trailing content after matrix: '{cur.peek()}'")
    return m


def format_matrix(m: Matrix) -> str:
    lines = [f"dim {m.dim}", "entries"]
    for i in range(1, m.dim + 1):
        lines.append(" ".join(str(x) for x in m.row(i)))
    return "\n".join(lines) + "\n"


def parse_frames(text: str) -> list[Matrix]:
    cur = _Cursor(_tokens(text))
    frames = []
    while not cur.exhausted:
        cur.expect("frame")
        frames.append(_read_matrix(cur))
    if not frames:
        raise ParseError("no frames found")
    return frames


def format_frames(frames: list[Matrix]) -> str:
    return "".join("frame\n" + format_matrix(m) for m in frames)


def parse_points(text: str) -> list[tuple[int, int]]:
    cur = _Cursor(_tokens(text))
    points = []
    while not cur.exhausted:
        if cur.peek() == "point":
            cur.take()
        p = cur.take_int("point coordinate")
        q = cur.take_int("point coordinate")
        points.append((p, q))
    if not points:
        raise ParseError("no points found")
    return points


def format_points(points: list[tuple[int, int]]) -> str:
    return "".join(f"point {p} {q}\n" for p, q in points)


def parse_sample(text: str) -> list[tuple[tuple[int, int], Matrix]]:
    """Parse a sample file: records of a point and its frame."""
    cur = _Cursor(_tokens(text))
    records = []
    while not cur.exhausted:
        cur.expect("point")
        p = cur.take_int("point coordinate")
        q = cur.take_int("point coordinate")
        cur.expect("frame")
        records.append(((p, q), _read_matrix(cur)))
    if not records:
        raise ParseError("no sample records found")
    return records


def format_sample(records: list[tuple[tuple[int, int], Matrix]]) -> str:
    out = []
    for (p, q), m in records:
        out.append(f"point {p} {q}\nframe\n{format_matrix(m)}")
    return "".join(out)
