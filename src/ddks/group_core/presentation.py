"""Finite presentations and the text format that describes them.

Format, line oriented::

    # comment
    gens: x y z          # exactly one gens: line, before any rel: line
    rel: x^2             # one relator per rel: line
    rel: [x, y] z^-1     # [u, v] = u v u^-1 v^-1

A word is a whitespace-separated sequence of atoms; an atom is a generator
name, ``name^k`` with k a nonzero integer, or a commutator ``[W1, W2]`` of
two words.  ``#`` starts a comment anywhere on a line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .words import Word, commutator

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?[0-9]+")
_KEYWORD_RE = re.compile(r"^(\s*)([A-Za-z_]+):")


class PresentationError(ValueError):
    """Parse or validation failure, with 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(message + loc)


@dataclass(frozen=True)
class Presentation:
    """Generator names together with relator words over them."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        if not self.generators:
            raise PresentationError("presentation has no generators")
        if len(set(self.generators)) != len(self.generators):
            raise PresentationError("duplicate generator name")
        for name in self.generators:
            if not _NAME_RE.fullmatch(name):
                raise PresentationError(f"invalid generator name {name!r}")
        for rel in self.relators:
            if rel.max_generator() >= len(self.generators):
                raise PresentationError(
                    f"relator uses generator index {rel.max_generator()} "
                    f"but only {len(self.generators)} generators are declared"
                )

    @property
    def ngens(self) -> int:
        return len(self.generators)


class _Cursor:
    """Character cursor over one line, tracking 1-based columns for errors."""

    def __init__(self, text: str, line_no: int):
        self.text = text
        self.pos = 0
        self.line_no = line_no

    def error(self, message: str, pos: int | None = None):
        col = (self.pos if pos is None else pos) + 1
        raise PresentationError(message, self.line_no, col)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_name(self) -> str:
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            self.error("expected generator name")
        self.pos = m.end()
        return m.group()

    def take_int(self) -> int:
        m = _INT_RE.match(self.text, self.pos)
        if not m:
            self.error("expected integer exponent")
        self.pos = m.end()
        return int(m.group())


def _parse_word(cur: _Cursor, gen_index: dict[str, int], stop: str = "") -> Word:
    """Parse atoms until end of line or one of the `stop` characters.

    The cursor is left on the stop character (not consumed).
    """
    atoms: list[Word] = []
    while True:
        cur.skip_ws()
        if cur.at_end() or cur.peek() in stop:
            break
        start = cur.pos
        ch = cur.peek()
        if ch == "[":
            cur.pos += 1
            w1 = _parse_word(cur, gen_index, stop=",]")
            if cur.peek() != ",":
                cur.error("expected ',' in commutator")
            cur.pos += 1
            w2 = _parse_word(cur, gen_index, stop=",]")
            if cur.peek() != "]":
                cur.error("expected ']' closing commutator")
            cur.pos += 1
            if w1.is_identity or w2.is_identity:
                cur.error("empty word inside commutator", pos=start)
            atoms.append(commutator(w1, w2))
        else:
            name = cur.take_name()
            if name not in gen_index:
                cur.error(f"undeclared generator {name!r}", pos=start)
            exp = 1
            if cur.peek() == "^":
                cur.pos += 1
                exp = cur.take_int()
                if exp == 0:
                    cur.error("exponent must be nonzero")
            atoms.append(Word.gen(gen_index[name]) ** exp)
        # atoms must be separated by whitespace (or end/stop character)
        if not cur.at_end() and cur.peek() not in stop and not cur.peek().isspace():
            cur.error("expected whitespace between atoms")
    word = Word(())
    for a in atoms:
        word = word * a
    return word


def word_from_str(text: str, generators: tuple[str, ...] | list[str]) -> Word:
    """Parse a single word given the generator name list."""
    gen_index = {name: i for i, name in enumerate(generators)}
    cur = _Cursor(text.split("#", 1)[0], 1)
    word = _parse_word(cur, gen_index)
    cur.skip_ws()
    if not cur.at_end():
        cur.error(f"unexpected character {cur.peek()!r}")
    return word


def parse_presentation(text: str) -> Presentation:
    """Parse the line-oriented presentation format."""
    generators: tuple[str, ...] | None = None
    gen_index: dict[str, int] = {}
    relators: list[Word] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = _KEYWORD_RE.match(line)
        if not m:
            col = len(line) - len(line.lstrip()) + 1
            raise PresentationError(
                "expected 'gens:' or 'rel:' line", line_no, col
            )
        keyword = m.group(2)
        cur = _Cursor(line, line_no)
        cur.pos = m.end()
        if keyword == "gens":
            if generators is not None:
                cur.error("duplicate 'gens:' line")
            names: list[str] = []
            while True:
                cur.skip_ws()
                if cur.at_end():
                    break
                start = cur.pos
                name = cur.take_name()
                if name in gen_index:
                    cur.error(f"duplicate generator {name!r}", pos=start)
                gen_index[name] = len(names)
                names.append(name)
                if not cur.at_end() and not cur.peek().isspace():
                    cur.error("expected whitespace between generator names")
            if not names:
                cur.error("empty generator list")
            generators = tuple(names)
        elif keyword == "rel":
            if generators is None:
                cur.error("'rel:' before 'gens:'")
            word = _parse_word(cur, gen_index)
            cur.skip_ws()
            if not cur.at_end():
                cur.error(f"unexpected character {cur.peek()!r}")
            if word.is_identity:
                cur.error("empty relator")
            relators.append(word)
        else:
            raise PresentationError(
                f"unknown directive {keyword!r}", line_no, m.start(2) + 1
            )
    if generators is None:
        raise PresentationError("no 'gens:' line found")
    return Presentation(generators, tuple(relators))
