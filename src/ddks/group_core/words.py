"""Words in a free group over an indexed generator alphabet.

A letter is a nonzero int: ``+k`` is generator ``k-1`` (0-based index),
``-k`` is its inverse.  Words are stored freely reduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[int] = []
    for let in letters:
        if not isinstance(let, int) or let == 0:
            raise ValueError(f"invalid letter {let!r}")
        if out and out[-1] == -let:
            out.pop()
        else:
            out.append(let)
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word; the group operation is concatenation."""

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        reduced = free_reduce(self.letters)
        if reduced != tuple(self.letters):
            object.__setattr__(self, "letters", reduced)

    # -- constructors -------------------------------------------------

    @staticmethod
    def gen(index: int) -> "Word":
        """The word consisting of generator `index` (0-based)."""
        if index < 0:
            raise ValueError("generator index must be >= 0")
        return Word((index + 1,))

    # -- group operations ---------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-l for l in reversed(self.letters)))

    def __pow__(self, k: int) -> "Word":
        if k == 0:
            return Word(())
        base = self if k > 0 else self.inverse()
        return Word(base.letters * abs(k))

    # -- queries ------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def max_generator(self) -> int:
        """Largest 0-based generator index used; -1 for the empty word."""
        return max((abs(l) for l in self.letters), default=0) - 1

    def format(self, names: list[str] | tuple[str, ...]) -> str:
        """Render as e.g. ``x y^-2 x``, collapsing runs of one generator."""
        parts: list[str] = []
        i = 0
        lets = self.letters
        while i < len(lets):
            j = i
            while j < len(lets) and lets[j] == lets[i]:
                j += 1
            name = names[abs(lets[i]) - 1]
            exp = (j - i) if lets[i] > 0 else -(j - i)
            parts.append(name if exp == 1 else f"{name}^{exp}")
            i = j
        return " ".join(parts) if parts else "1"


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1."""
    return u * v * u.inverse() * v.inverse()
