"""Cayley-table groups, subgroup machinery, and the CCT predicate.

Elements of a ``FiniteGroup`` are the indices ``0..order-1`` with the
identity fixed at index 0.  Groups built by :func:`realize` number their
elements by the deterministic coset enumeration, so identical presentations
always yield identical tables.

Conventions: ``[x, y] = x y x^-1 y^-1``; ``conjugate(x, g) = g x g^-1``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from . import toddcox
from .presentation import Presentation
from .words import Word


def _coset_cap() -> int:
    return int(os.environ.get("DDK_COSETS", toddcox.DEFAULT_MAX_COSETS))


class FiniteGroup:
    """A finite group as a dense Cayley table."""

    def __init__(
        self,
        cayley: Sequence[Sequence[int]],
        generator_elements: Sequence[int] = (),
        generator_names: Sequence[str] | None = None,
        element_words: Sequence[Word] | None = None,
    ):
        self.cayley = [list(row) for row in cayley]
        self.order = len(self.cayley)
        if self.order == 0:
            raise ValueError("empty Cayley table")
        rng = range(self.order)
        full = set(rng)
        for row in self.cayley:
            if len(row) != self.order or set(row) != full:
                raise ValueError("Cayley table is not a Latin square")
        for j in rng:
            if len({self.cayley[i][j] for i in rng}) != self.order:
                raise ValueError("Cayley table is not a Latin square")
        if any(self.cayley[0][x] != x or self.cayley[x][0] != x for x in rng):
            raise ValueError("identity is not at index 0")

        self.inverse = [0] * self.order
        for a in rng:
            b = self.cayley[a].index(0)
            if self.cayley[b][a] != 0:
                raise ValueError("one-sided inverse; table is not a group")
            self.inverse[a] = b

        if self.order <= 64:
            cay = self.cayley
            for a in rng:
                row_a = cay[a]
                for b in rng:
                    ab = row_a[b]
                    row_b = cay[b]
                    for c in rng:
                        if cay[ab][c] != row_a[row_b[c]]:
                            raise ValueError("Cayley table is not associative")

        self.generator_elements = tuple(generator_elements)
        if generator_names is None:
            generator_names = tuple(f"g{i}" for i in range(len(self.generator_elements)))
        self.generator_names = tuple(generator_names)
        # optional: a word in the generators reaching each element
        self.element_words = tuple(element_words) if element_words is not None else None

        self.element_order = [0] * self.order
        for x in rng:
            k, y = 1, x
            while y != 0:
                y = self.cayley[y][x]
                k += 1
            self.element_order[x] = k

    # -- basic operations ---------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def commutator(self, a: int, b: int) -> int:
        cay = self.cayley
        return cay[cay[cay[a][b]][self.inverse[a]]][self.inverse[b]]

    def conjugate(self, x: int, g: int) -> int:
        """g x g^-1."""
        return self.cayley[self.cayley[g][x]][self.inverse[g]]

    def elements(self) -> range:
        return range(self.order)

    def evaluate_word(self, w: Word | Iterable[int], assignment: Sequence[int]) -> int:
        """Left-to-right product of assigned generator images along w."""
        out = 0
        for letter in w:
            idx = abs(letter) - 1
            if idx >= len(assignment):
                raise IndexError(
                    f"word uses generator index {idx} but assignment has "
                    f"{len(assignment)} entries"
                )
            g = assignment[idx]
            if letter < 0:
                g = self.inverse[g]
            out = self.cayley[out][g]
        return out

    # -- structure ----------------------------------------------------

    @cached_property
    def is_abelian(self) -> bool:
        cay = self.cayley
        return all(
            cay[a][b] == cay[b][a]
            for a in range(self.order)
            for b in range(a + 1, self.order)
        )

    def center(self) -> "ElementSet":
        cay = self.cayley
        members = [
            g
            for g in range(self.order)
            if all(cay[g][x] == cay[x][g] for x in range(self.order))
        ]
        return ElementSet(self, tuple(members))

    def centralizer(self, x: int) -> "ElementSet":
        cay = self.cayley
        members = [g for g in range(self.order) if cay[g][x] == cay[x][g]]
        return ElementSet(self, tuple(members))

    def subgroup_generated(self, gens: Iterable[int]) -> "ElementSet":
        gens = sorted(set(gens) | {0})
        step = gens + [self.inverse[g] for g in gens]
        seen = set(gens)
        frontier = list(gens)
        while frontier:
            x = frontier.pop()
            for s in step:
                y = self.cayley[x][s]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return ElementSet(self, tuple(sorted(seen)))

    def normal_closure(self, seed: Iterable[int]) -> "ElementSet":
        conjugates = {
            self.conjugate(s, g) for s in seed for g in range(self.order)
        }
        return self.subgroup_generated(conjugates)

    def derived_subgroup(self) -> "ElementSet":
        comms = {
            self.commutator(a, b)
            for a in range(self.order)
            for b in range(self.order)
        }
        return self.subgroup_generated(comms)

    def socle(self) -> "ElementSet":
        """Intersection of the normal closures of all non-identity elements.

        Equals the intersection of all non-trivial normal subgroups, since
        each such subgroup contains the normal closure of each of its
        non-identity members.
        """
        if self.order == 1:
            raise ValueError("socle undefined for the trivial group")
        meet = set(range(self.order))
        for g in range(1, self.order):
            meet &= set(self.normal_closure((g,)))
            if len(meet) == 1:
                break
        return ElementSet(self, tuple(sorted(meet)))

    def is_cct(self) -> bool:
        """Commutativity transitive on non-central elements; equivalently,
        every non-central element has abelian centralizer."""
        if self.is_abelian:
            raise ValueError("CCT undefined for abelian groups")
        centre = set(self.center())
        for x in range(self.order):
            if x in centre:
                continue
            cent = self.centralizer(x)
            if not cent.is_abelian():
                return False
        return True

    def quotient(self, n_set: "ElementSet | Iterable[int]") -> tuple["FiniteGroup", list[int]]:
        """Quotient by a normal subgroup; returns (G/N, projection map)."""
        members = tuple(sorted(set(n_set)))
        nset = ElementSet(self, members)
        if not nset.is_subgroup():
            raise ValueError("quotient requires a subgroup")
        if not nset.is_normal():
            raise ValueError("quotient requires a normal subgroup")
        rep = [min(self.cayley[x][n] for n in members) for x in range(self.order)]
        if rep[0] != 0:
            raise AssertionError("the identity's coset is not represented by the identity")
        reps = sorted(set(rep))
        index_of = {r: i for i, r in enumerate(reps)}
        proj = [index_of[rep[x]] for x in range(self.order)]
        cay = [
            [proj[self.cayley[a][b]] for b in reps]
            for a in reps
        ]
        q = FiniteGroup(
            cay,
            generator_elements=tuple(proj[g] for g in self.generator_elements),
            generator_names=self.generator_names,
        )
        return q, proj

    def join_closure(self, atoms: Iterable[Iterable[int]]) -> set[frozenset[int]]:
        """The trivial subgroup and every join of the subgroups `atoms`."""
        atoms = {frozenset(a) for a in atoms}
        found = {frozenset({0})} | atoms
        frontier = list(atoms)
        while frontier:
            h = frontier.pop()
            new = {frozenset(self.subgroup_generated(h | a)) for a in atoms if not a <= h} - found
            found |= new
            frontier += new
        return found

    def normal_subgroups(self) -> list["ElementSet"]:
        """All normal subgroups: the joins of the elements' normal closures."""
        found = self.join_closure(self.normal_closure((g,)) for g in range(1, self.order))
        return [ElementSet(self, tuple(sorted(s))) for s in sorted(found, key=lambda s: (len(s), sorted(s)))]

    def nilpotency_class(self) -> int | None:
        """Length of the lower central series; None if not nilpotent."""
        current = set(range(self.order))
        k = 0
        while len(current) > 1:
            nxt = self.subgroup_generated(
                {self.commutator(g, x) for g in range(self.order) for x in current}
            )
            if set(nxt) == current:
                return None
            current = set(nxt)
            k += 1
        return k


@dataclass(frozen=True)
class ElementSet:
    """A sorted set of element indices in an ambient group."""

    ambient: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        if tuple(sorted(set(self.members))) != self.members:
            raise ValueError("members must be sorted and distinct")

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def is_subgroup(self) -> bool:
        g = self.ambient
        mem = set(self.members)
        if 0 not in mem:
            return False
        return all(g.cayley[a][b] in mem for a in mem for b in mem)

    def is_normal(self) -> bool:
        g = self.ambient
        mem = set(self.members)
        return all(g.conjugate(x, h) in mem for x in mem for h in range(g.order))

    def is_abelian(self) -> bool:
        g = self.ambient
        return all(
            g.cayley[a][b] == g.cayley[b][a]
            for a in self.members
            for b in self.members
            if a < b
        )


@dataclass(frozen=True)
class Homomorphism:
    """A map Presentation -> FiniteGroup given by generator images.

    Relator preservation is verified at construction.
    """

    source: Presentation
    target: FiniteGroup
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.source.ngens:
            raise ValueError(
                f"{self.source.ngens} generators but {len(self.images)} images"
            )
        for rel in self.source.relators:
            if self.target.evaluate_word(rel, self.images) != 0:
                raise ValueError(
                    f"relator {rel.format(self.source.generators)} "
                    f"not satisfied by images {list(self.images)}"
                )

    def image_of_word(self, w: Word) -> int:
        return self.target.evaluate_word(w, self.images)

    def image_elements(self) -> ElementSet:
        return self.target.subgroup_generated(self.images)

    def is_surjective(self) -> bool:
        return len(self.image_elements()) == self.target.order


def realize(p: Presentation) -> FiniteGroup:
    """Realize a presentation as a concrete group via coset enumeration.

    Enumerates cosets of the trivial subgroup (so cosets are exactly the
    group elements), then converts the regular action into a Cayley table.
    A degenerate presentation collapsing to the trivial group returns the
    order-1 group, not an error.  The coset cap is DDK_COSETS, else
    DEFAULT_MAX_COSETS.
    """
    table = toddcox.coset_table(p.ngens, [r.letters for r in p.relators], _coset_cap())
    n = len(table)
    # a word (as column indices) reaching each coset from 0, by BFS
    word_to: list[list[int] | None] = [None] * n
    word_to[0] = []
    queue = [0]
    while queue:
        c = queue.pop(0)
        for col in range(2 * p.ngens):
            d = table[c][col]
            if word_to[d] is None:
                word_to[d] = word_to[c] + [col]
                queue.append(d)
    if any(w is None for w in word_to):
        raise AssertionError("a coset is not reachable from coset 0")

    cayley = []
    for i in range(n):
        row = []
        for j in range(n):
            c = i
            for col in word_to[j]:
                c = table[c][col]
            row.append(c)
        cayley.append(row)

    def cols_to_word(cols: list[int]) -> Word:
        return Word(tuple(
            (col // 2 + 1) if col % 2 == 0 else -(col // 2 + 1) for col in cols
        ))

    return FiniteGroup(
        cayley,
        generator_elements=tuple(table[0][2 * g] for g in range(p.ngens)),
        generator_names=p.generators,
        element_words=[cols_to_word(w) for w in word_to],
    )


# -- module-level alias (the benchmark's catalog workload imports it) --

def is_cct(G: FiniteGroup) -> bool:
    return G.is_cct()
