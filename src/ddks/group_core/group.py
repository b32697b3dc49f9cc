"""Cayley-table groups, subgroup machinery, and the CCT predicate.

Elements of a ``FiniteGroup`` are the indices ``0..order-1`` with the
identity fixed at index 0.  Groups built by :func:`realize` number their
elements by the deterministic coset enumeration, so identical presentations
always yield identical tables.

Conventions: ``[x, y] = x y x^-1 y^-1`` (`commutators`); conjugation by g
is ``x -> g x g^-1`` (`conjugates`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import toddcox
from .presentation import Presentation
from .words import Word


class FiniteGroup:
    """A finite group as a dense Cayley table.

    The constructor checks the table once and keeps three arrays, read-only
    at their source (`read_only`): `table` (|G| x |G|) and `inverses` in
    the smallest unsigned dtype that holds |G| - 1, and `orders`, the
    element orders, in the smallest that holds |G|.  `cayley`, `inverse`
    and `element_order` are the same data as lists, for scalar code, where
    a list index beats a numpy scalar.  `commutators` (read-only too) and
    `normal_subgroups()` are kept once built."""

    def __init__(
        self,
        cayley: Sequence[Sequence[int]] | np.ndarray,
        generator_elements: Sequence[int] = (),
        generator_names: Sequence[str] | None = None,
        element_words: Sequence[Word] | None = None,
    ):
        n = self.order = len(cayley)
        if n == 0:
            raise ValueError("empty Cayley table")
        if any(len(row) != n for row in cayley):
            raise ValueError("Cayley table is not a Latin square")
        raw = np.asarray(cayley)
        rng = np.arange(n)
        if raw.dtype.kind not in "iu" or not (
            (np.sort(raw, axis=1) == rng).all() and (np.sort(raw, axis=0) == rng[:, None]).all()
        ):
            raise ValueError("Cayley table is not a Latin square")
        table = np.array(raw, dtype=np.min_scalar_type(n - 1), order="C")
        if not ((table[0] == rng).all() and (table[:, 0] == rng).all()):
            raise ValueError("identity is not at index 0")
        inverses = table.argmin(axis=1).astype(table.dtype)  # each row's one 0
        if (table[inverses, rng] != 0).any():
            raise ValueError("one-sided inverse; table is not a group")
        if n <= 64 and (table[table] != table[:, table]).any():  # (ab)c against a(bc)
            raise ValueError("Cayley table is not associative")
        # x^k by right multiplication, which permutes G, so it returns to 0
        orders = np.ones(n, dtype=np.min_scalar_type(n))
        power, live = rng, rng != 0
        while live.any():
            power = table[power, rng]
            orders += live
            live &= power != 0
        self.table, self.inverses, self.orders = map(read_only, (table, inverses, orders))
        self.cayley, self.inverse, self.element_order = table.tolist(), inverses.tolist(), orders.tolist()

        self.generator_elements = tuple(generator_elements)
        if generator_names is None:
            generator_names = tuple(f"g{i}" for i in range(len(self.generator_elements)))
        self.generator_names = tuple(generator_names)
        # optional: a word in the generators reaching each element
        self.element_words = tuple(element_words) if element_words is not None else None

    # -- basic operations ---------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

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
        return bool((self.table == self.table.T).all())

    @cached_property
    def commutators(self) -> np.ndarray:
        """Read-only: [a, b] = ((a b) a^-1) b^-1 at row a, column b."""
        return read_only(self.table[self.table[self.table, self.inverses[:, None]], self.inverses])

    def center(self) -> "ElementSet":
        return ElementSet(self, tuple(np.flatnonzero((self.table == self.table.T).all(axis=1)).tolist()))

    def subgroup_generated(self, gens: Iterable[int]) -> "ElementSet":
        """What `spanning_tree` reaches over gens: in a finite group each
        inverse is a positive power, so this is the subgroup they generate."""
        return ElementSet(self, tuple(sorted(spanning_tree(self.table[:, sorted(set(gens))].tolist())[0])))

    def conjugates(self, xs: Iterable[int]) -> np.ndarray:
        """g x g^-1 for every g (rows) and every x in xs (columns)."""
        return self.table[self.table[:, list(xs)], self.inverses[:, None]]

    def normal_closure(self, seed: Iterable[int]) -> "ElementSet":
        return self.subgroup_generated(self.conjugates(seed).ravel().tolist())

    def derived_subgroup(self) -> "ElementSet":
        return self.subgroup_generated(self.commutators.ravel().tolist())

    def socle(self) -> "ElementSet":
        """The intersection of the non-trivial normal subgroups, the set the
        prestructure shortcut needs (`structures._search_setup`).  It is the
        textbook socle, the join of the minimal normal subgroups, only when
        there is one minimal normal subgroup; otherwise it is trivial."""
        if self.order == 1:
            raise ValueError("socle undefined for the trivial group")
        nontrivial = self.normal_subgroups()[1:]  # the trivial subgroup is the smallest
        return ElementSet(self, tuple(sorted(set.intersection(*map(set, nontrivial)))))

    def is_cct(self) -> bool:
        """Commutativity transitive on non-central elements; equivalently,
        every non-central element has abelian centralizer."""
        if self.is_abelian:
            raise ValueError("CCT undefined for abelian groups")
        commute = self.table == self.table.T
        rows = commute[~commute.all(axis=1)]  # the centralizers of the non-central elements
        block = max(1, 2 ** 20 // self.order ** 2)  # rows a broadcast takes: 2^20 flags at most
        blocks = np.split(rows, range(block, len(rows), block))
        return not any((c[:, :, None] & c[:, None, :] & ~commute).any() for c in blocks)

    def quotient(self, n_set: "ElementSet | Iterable[int]") -> tuple["FiniteGroup", list[int]]:
        """Quotient by a normal subgroup; returns (G/N, projection map)."""
        members = tuple(sorted(set(n_set)))
        nset = ElementSet(self, members)
        if not nset.is_subgroup():
            raise ValueError("quotient requires a subgroup")
        if not nset.is_normal():
            raise ValueError("quotient requires a normal subgroup")
        rep = self.table[:, members].min(axis=1)  # each coset xN's least element
        if rep[0] != 0:
            raise AssertionError("the identity's coset is not represented by the identity")
        is_rep = np.zeros(self.order, dtype=bool)
        is_rep[rep] = True
        proj = (np.cumsum(is_rep) - 1)[rep]
        reps = np.flatnonzero(is_rep)
        q = FiniteGroup(
            proj[self.table[np.ix_(reps, reps)]],
            generator_elements=tuple(proj[list(self.generator_elements)].tolist()),
            generator_names=self.generator_names,
        )
        return q, proj.tolist()

    def join_closure(self, atoms: Iterable[Iterable[int]]) -> set[frozenset[int]]:
        """The trivial subgroup and every join of the subgroups `atoms`.

        The join of H and A is the product set HA when HA = AH, since HA
        is then a subgroup, as it always is for normal subgroups; else
        `subgroup_generated` builds it."""
        def join(h: frozenset[int], a: frozenset[int]) -> frozenset[int]:
            ha = frozenset(self.table[list(h)][:, list(a)].ravel().tolist())
            if ha == frozenset(self.table[list(a)][:, list(h)].ravel().tolist()):
                return ha
            return frozenset(self.subgroup_generated(h | a))

        atoms = {frozenset(a) for a in atoms}
        found = {frozenset({0})} | atoms
        frontier = list(atoms)
        while frontier:
            h = frontier.pop()
            new = {join(h, a) for a in atoms if not a <= h} - found
            found |= new
            frontier += new
        return found

    def normal_subgroups(self) -> tuple["ElementSet", ...]:
        """All normal subgroups by size, computed once: joins of normal closures."""
        return self._normal_subgroups

    @cached_property
    def _normal_subgroups(self) -> tuple["ElementSet", ...]:
        found = self.join_closure(self.normal_closure((g,)) for g in range(1, self.order))
        return tuple(ElementSet(self, tuple(sorted(s))) for s in sorted(found, key=lambda s: (len(s), sorted(s))))

    def nilpotency_class(self) -> int | None:
        """Length of the lower central series; None if not nilpotent."""
        current, k = tuple(self.elements()), 0
        while len(current) > 1:  # [G, current] from the columns of `commutators`
            nxt = self.subgroup_generated(self.commutators[:, current].ravel().tolist()).members
            if nxt == current:
                return None
            current, k = nxt, k + 1
        return k


def read_only(a: np.ndarray) -> np.ndarray:
    """A copy of the array `a` in a bytearray, read through a read-only
    memoryview: neither its writeable flag nor that of any array over those
    bytes can be set (ValueError), unlike an owner's flag set to False,
    which the owner can set back.  For the small tables the system hands out."""
    buf = bytearray(a.nbytes)
    np.frombuffer(buf, a.dtype).reshape(a.shape)[...] = a
    return np.frombuffer(memoryview(buf).toreadonly(), a.dtype).reshape(a.shape)


def check_elements(G: FiniteGroup, values: np.ndarray | Sequence[int], what: str = "elements") -> None:
    """The one check of element indices: ValueError unless `values`, an
    integer ndarray or a sequence of ints and numpy integers (bools refused),
    lie in 0 .. |G| - 1.  It reads `values` and neither copies nor converts them."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "iu":
            raise ValueError(f"element indices must be integers, got dtype {values.dtype}")
        in_range = not values.size or ((values.dtype.kind == "u" or values.min() >= 0) and values.max() < G.order)
    else:
        if not all(issubclass(t, (int, np.integer)) and t is not bool for t in set(map(type, values))):
            raise ValueError(f"{what} must be element indices, got {list(values)}")
        in_range = not values or (min(values) >= 0 and max(values) < G.order)
    if not in_range:
        raise ValueError("element index out of range for the group")


@dataclass(frozen=True)
class ElementSet:
    """A sorted set of element indices in an ambient group."""

    ambient: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        check_elements(self.ambient, self.members, "members")
        if tuple(sorted(set(self.members))) != self.members:
            raise ValueError("members must be sorted and distinct")

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def _inside(self) -> np.ndarray:
        inside = np.zeros(self.ambient.order, dtype=bool)
        inside[list(self.members)] = True
        return inside

    def is_subgroup(self) -> bool:
        return 0 in self.members and bool(self._inside()[self.ambient.table[np.ix_(self.members, self.members)]].all())

    def is_normal(self) -> bool:
        return bool(self._inside()[self.ambient.conjugates(self.members)].all())


@dataclass(frozen=True)
class Homomorphism:
    """A map Presentation -> FiniteGroup given by generator images.

    The images must be element indices of the target, and relator
    preservation is verified at construction.  `source` is the one
    presentation H_1 reads (`homology.first_homology`), and surjectivity
    has its one check in `homology.schreier_transversal`.
    """

    source: Presentation
    target: FiniteGroup
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.source.ngens:
            raise ValueError(
                f"{self.source.ngens} generators but {len(self.images)} images"
            )
        check_elements(self.target, self.images, "images")
        for rel in self.source.relators:
            if self.target.evaluate_word(rel, self.images) != 0:
                raise ValueError(
                    f"relator {rel.format(self.source.generators)} "
                    f"not satisfied by images {list(self.images)}"
                )


def spanning_tree(step: Sequence[Sequence[int]]) -> tuple[list[int], list[int], list[int]]:
    """(order, parent, column): the elements in the order a breadth-first
    walk from 0 over step[x][c] = x times the c-th step reaches them, and
    the parent and column that first reach each one (-1 for 0 and for the
    elements not reached, which the caller checks).  Columns are tried in
    order, so over x1, x1^-1, x2, ... each tree path is shortlex-least."""
    order, parent, column = [0], [-1] * len(step), [-1] * len(step)
    for x in order:
        for c, y in enumerate(step[x]):
            if parent[y] < 0 and y != 0:
                parent[y], column[y] = x, c
                order.append(y)
    return order, parent, column


def tree_words(parent: Sequence[int], column: Sequence[int]) -> list[Word]:
    """Each element's word along its tree path from 0, columns 2g and
    2g + 1 read as generator g + 1 and its inverse; ValueError for an
    element with no such path."""
    letters: list[tuple[int, ...] | None] = [()] + [None] * (len(parent) - 1)
    for v in range(len(parent)):
        path = [v]  # v and its ancestors still without a word: a path to 0 repeats no element
        while letters[path[-1]] is None and parent[path[-1]] >= 0 and len(path) <= len(parent):
            path.append(parent[path[-1]])
        if letters[path[-1]] is None:
            raise ValueError(f"element {v} has no tree path from 0")
        for u in reversed(path[:-1]):
            letters[u] = letters[parent[u]] + ((column[u] // 2 + 1) * (-1) ** column[u],)
    return [Word(w) for w in letters]


def realize(p: Presentation) -> FiniteGroup:
    """Realize a presentation as a concrete group via coset enumeration.

    Enumerates cosets of the trivial subgroup (so cosets are exactly the
    group elements), then converts the regular action into a Cayley table
    along the coset table's `spanning_tree`: column d, the cosets times d's
    tree word (its `element_words` entry), is one gather from its parent's.
    A degenerate presentation collapsing to the trivial group returns the
    order-1 group, not an error.  The coset cap is DEFAULT_MAX_COSETS.
    """
    table = toddcox.coset_table(p.ngens, [r.letters for r in p.relators])
    n = len(table)
    order, parent, column = spanning_tree(table)
    if len(order) != n:
        raise AssertionError("a coset is not reachable from coset 0")
    action = np.array(table, dtype=np.min_scalar_type(n - 1))
    columns = np.empty((n, n), dtype=action.dtype)
    columns[0] = np.arange(n)
    for d in order[1:]:
        columns[d] = action[columns[parent[d]], column[d]]
    return FiniteGroup(
        columns.T,
        generator_elements=tuple(table[0][2 * g] for g in range(p.ngens)),
        generator_names=p.generators,
        element_words=tree_words(parent, column),
    )


# -- module-level alias (the benchmark's catalog workload imports it) --

def is_cct(G: FiniteGroup) -> bool:
    return G.is_cct()
