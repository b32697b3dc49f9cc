"""The built-in catalog of nonabelian groups of order 24 and 32.

Entries are presentation sources in the text grammar, keyed by IdSmallGroup
label ``G(order,t)``.  The symmetric group entry is labeled ``S4`` (alias
``G(24,12)``) and the alternating group ``A4`` (order 12) is included as a
standalone entry; both come from permutation generators — (12),(1234) and
(12)(34),(123) — via their triangle-quotient presentations, which tests
check against the literal permutation groups.

Chains of equalities like ``i^2=j^2=k^2=ijk`` are encoded as adjacent
relators (``i^2 j^-2``, ``j^2 k^-2``, ``k^2 (ijk)^-1``); a relation
``a b a^-1 = W`` becomes the relator ``a b a^-1 W^-1``.  Direct products
are flattened: factor relators plus all cross-factor commutators.
"""

from __future__ import annotations

from functools import lru_cache

from .group import FiniteGroup, realize
from .presentation import Presentation, parse_presentation

# -- extra-special groups ---------------------------------------------


def extra_special_text(b: int, p: int, variant: str) -> str:
    """Presentation source for the order-p^(2b+1) extra-special group.

    Variant "H": all generators have order p (exponent p for odd p).
    Variant "G": the last pair satisfies r_b^p = t_b^p = z instead.
    In both, z is central, same-letter generators commute, and
    [r_j, t_k] = z^(-1 if j == k else 0).
    """
    variant = variant.upper()
    if variant not in ("H", "G"):
        raise ValueError(f"variant must be 'H' or 'G', got {variant!r}")
    if b < 1:
        raise ValueError("b must be >= 1")
    gens: list[str] = []
    for j in range(1, b + 1):
        gens += [f"r{j}", f"t{j}"]
    gens.append("z")
    rels: list[str] = []
    for j in range(1, b + 1):
        for s in ("r", "t"):
            if variant == "G" and j == b:
                rels.append(f"{s}{j}^{p} z^-1")
            else:
                rels.append(f"{s}{j}^{p}")
    rels.append(f"z^{p}")
    for j in range(1, b + 1):
        rels += [f"[r{j}, z]", f"[t{j}, z]"]
    for s in ("r", "t"):
        for j in range(1, b + 1):
            for k in range(j + 1, b + 1):
                rels.append(f"[{s}{j}, {s}{k}]")
    for j in range(1, b + 1):
        for k in range(1, b + 1):
            rels.append(f"[r{j}, t{k}]" + (" z" if j == k else ""))
    return "gens: " + " ".join(gens) + "\n" + "".join(f"rel: {r}\n" for r in rels)


def extra_special(b: int, p: int, variant: str) -> FiniteGroup:
    """Realize the extra-special group of order p^(2b+1), variant H or G."""
    g = realize(parse_presentation(extra_special_text(b, p, variant)))
    if g.order != p ** (2 * b + 1):
        raise AssertionError(f"extra-special group has order {g.order}, not {p ** (2 * b + 1)}")
    return g


# -- catalog sources --------------------------------------------------

CATALOG_SOURCES: dict[str, str] = {
    # ---- order 24 ----
    "G(24,1)": """
        # D_{8,3,-1}
        gens: x y
        rel: x^8
        rel: y^3
        rel: x y x^-1 y
    """,
    "G(24,3)": """
        # SL(2,F_3): x^3 = y^3 = z^2 = xyz
        gens: x y z
        rel: x^3 y^-3
        rel: y^3 z^-2
        rel: z^2 z^-1 y^-1 x^-1
    """,
    "G(24,4)": """
        # Q_24: x^6 = y^2 = z^2 = xyz
        gens: x y z
        rel: x^6 y^-2
        rel: y^2 z^-2
        rel: z^2 z^-1 y^-1 x^-1
    """,
    "G(24,5)": """
        # D_{2,12,5}
        gens: x y
        rel: x^2
        rel: y^12
        rel: x y x^-1 y^-5
    """,
    "G(24,6)": """
        # D_24
        gens: x y
        rel: x^2
        rel: y^12
        rel: x y x^-1 y
    """,
    "G(24,7)": """
        # Z_2 x D_{4,3,-1}
        gens: z x y
        rel: z^2
        rel: x^4
        rel: y^3
        rel: x y x^-1 y
        rel: [z, x]
        rel: [z, y]
    """,
    "G(24,8)": """
        # ((Z_2)^2 x Z_3) : Z_2
        gens: x y z w
        rel: x^2
        rel: y^2
        rel: z^2
        rel: w^3
        rel: [y, z]
        rel: [y, w]
        rel: [z, w]
        rel: x y x^-1 y^-1
        rel: x z x^-1 y^-1 z^-1
        rel: x w x^-1 w
    """,
    "G(24,10)": """
        # Z_3 x D_8
        gens: z x y
        rel: z^3
        rel: x^2
        rel: y^4
        rel: x y x^-1 y
        rel: [z, x]
        rel: [z, y]
    """,
    "G(24,11)": """
        # Z_3 x Q_8, with i^2 = j^2 = k^2 = ijk
        gens: z i j k
        rel: z^3
        rel: i^2 j^-2
        rel: j^2 k^-2
        rel: k^2 k^-1 j^-1 i^-1
        rel: [z, i]
        rel: [z, j]
        rel: [z, k]
    """,
    "S4": """
        # symmetric group on 4 letters, from x = (12), y = (1234)
        gens: x y
        rel: x^2
        rel: y^4
        rel: x y x y x y
    """,
    "G(24,13)": """
        # Z_2 x A_4, alternating factor from x = (12)(34), y = (123)
        gens: z x y
        rel: z^2
        rel: x^2
        rel: y^3
        rel: x y x y x y
        rel: [z, x]
        rel: [z, y]
    """,
    "G(24,14)": """
        # (Z_2)^2 x S_3, symmetric factor from x = (12), y = (123)
        gens: z w x y
        rel: z^2
        rel: w^2
        rel: [z, w]
        rel: x^2
        rel: y^3
        rel: x y x y
        rel: [z, x]
        rel: [z, y]
        rel: [w, x]
        rel: [w, y]
    """,
    "A4": """
        # alternating group on 4 letters, from x = (12)(34), y = (123)
        gens: x y
        rel: x^2
        rel: y^3
        rel: x y x y x y
    """,
    # ---- order 32 ----
    "G(32,2)": """
        # (Z_4 x Z_2) : Z_4
        gens: x y z
        rel: x^4
        rel: y^4
        rel: z^2
        rel: [x, y] z^-1
        rel: [x, z]
        rel: [y, z]
    """,
    "G(32,4)": """
        # D_{4,8,5}
        gens: x y
        rel: x^4
        rel: y^8
        rel: x y x^-1 y^-5
    """,
    "G(32,5)": """
        # (Z_8 x Z_2) : Z_2
        gens: x y z
        rel: x^8
        rel: y^2
        rel: z^2
        rel: [x, y]
        rel: z x z^-1 y^-1 x^-5
        rel: z y z^-1 y^-1
    """,
    "G(32,6)": """
        # (Z_2)^3 : Z_4
        gens: x y z w
        rel: x^2
        rel: y^2
        rel: z^2
        rel: w^4
        rel: [x, y]
        rel: [x, z]
        rel: [y, z]
        rel: w x w^-1 x^-1
        rel: w y w^-1 y^-1 x^-1
        rel: w z w^-1 z^-1 y^-1
    """,
    "G(32,7)": """
        # (Z_8 : Z_2) : Z_2
        gens: x y z u w
        rel: y^2
        rel: z^2
        rel: w^2
        rel: u^2 w
        rel: x^2 u^-1
        rel: y z y z
        rel: y u^-1 y u^-1
        rel: u z u^-1 z
        rel: x y z x^-1 y
    """,
    "G(32,8)": """
        # (Z_2)^2 . (Z_4 x Z_2)
        gens: x y z
        rel: x^8
        rel: y^2
        rel: z^2 x^-4
        rel: x y x^-5 y^-1
        rel: [y, z]
        rel: x z y x^-1 z^-1
    """,
    "G(32,9)": """
        # (Z_8 x Z_2) : Z_2
        gens: x y z
        rel: x^8
        rel: y^2
        rel: z^2
        rel: [x, y]
        rel: z x z^-1 y^-1 x^-3
        rel: z y z^-1 y^-1
    """,
    "G(32,10)": """
        # Q_8 : Z_4
        gens: i j k x
        rel: i^2 j^-2
        rel: j^2 k^-2
        rel: k^2 k^-1 j^-1 i^-1
        rel: x^4
        rel: x i x^-1 j^-1
        rel: x j x^-1 i^-1
        rel: x k x^-1 k
    """,
    "G(32,11)": """
        # (Z_4)^2 : Z_2, swap action
        gens: x y z
        rel: x^4
        rel: y^4
        rel: [x, y]
        rel: z^2
        rel: z x z^-1 y^-1
        rel: z y z^-1 x^-1
    """,
    "G(32,12)": """
        # D_{8,4,3}
        gens: x y
        rel: x^8
        rel: y^4
        rel: x y x^-1 y^-3
    """,
    "G(32,13)": """
        # D_{4,8,3}
        gens: x y
        rel: x^4
        rel: y^8
        rel: x y x^-1 y^-3
    """,
    "G(32,14)": """
        # D_{4,8,-1}
        gens: x y
        rel: x^4
        rel: y^8
        rel: x y x^-1 y
    """,
    "G(32,15)": """
        # Z_4 . D_8
        gens: x y z u w
        rel: w^2
        rel: z^2 u^-2
        rel: u^2 w
        rel: x^2 u^-1
        rel: y^2 z^-1
        rel: x z x^-1 z
        rel: [y, u]
        rel: x y x u y
    """,
    "G(32,17)": """
        # D_{2,16,9}
        gens: x y
        rel: x^2
        rel: y^16
        rel: x y x^-1 y^-9
    """,
    "G(32,18)": """
        # D_32
        gens: x y
        rel: x^2
        rel: y^16
        rel: x y x^-1 y
    """,
    "G(32,19)": """
        # QD_32
        gens: x y
        rel: x^2
        rel: y^16
        rel: x y x^-1 y^-7
    """,
    "G(32,20)": """
        # Q_32: x^8 = y^2 = z^2 = xyz
        gens: x y z
        rel: x^8 y^-2
        rel: y^2 z^-2
        rel: z^2 z^-1 y^-1 x^-1
    """,
    "G(32,22)": """
        # Z_2 x ((Z_4 x Z_2) : Z_2)
        gens: w x y z
        rel: w^2
        rel: x^4
        rel: y^2
        rel: z^2
        rel: [x, y]
        rel: z x z^-1 y^-1 x^-1
        rel: z y z^-1 y^-1
        rel: [w, x]
        rel: [w, y]
        rel: [w, z]
    """,
    "G(32,23)": """
        # Z_2 x D_{4,4,3}
        gens: z x y
        rel: z^2
        rel: x^4
        rel: y^4
        rel: x y x^-1 y^-3
        rel: [z, x]
        rel: [z, y]
    """,
    "G(32,24)": """
        # (Z_4)^2 : Z_2
        gens: x y z
        rel: x^4
        rel: y^4
        rel: z^2
        rel: [x, y]
        rel: z x z^-1 x^-1
        rel: z y z^-1 y^-1 x^-2
    """,
    "G(32,25)": """
        # Z_4 x D_8
        gens: z x y
        rel: z^4
        rel: x^2
        rel: y^4
        rel: x y x^-1 y
        rel: [z, x]
        rel: [z, y]
    """,
    "G(32,26)": """
        # Z_4 x Q_8
        gens: z i j k
        rel: z^4
        rel: i^2 j^-2
        rel: j^2 k^-2
        rel: k^2 k^-1 j^-1 i^-1
        rel: [z, i]
        rel: [z, j]
        rel: [z, k]
    """,
    "G(32,27)": """
        # (Z_2)^3 : (Z_2)^2
        gens: x y z a b
        rel: x^2
        rel: y^2
        rel: z^2
        rel: a^2
        rel: b^2
        rel: [x, y]
        rel: [y, z]
        rel: [x, z]
        rel: [a, b]
        rel: a x a^-1 x^-1
        rel: a y a^-1 y^-1
        rel: a z a^-1 z^-1 x^-1
        rel: b x b^-1 x^-1
        rel: b y b^-1 y^-1
        rel: b z b^-1 z^-1 y^-1
    """,
    "G(32,28)": """
        # (Z_4 x (Z_2)^2) : Z_2
        gens: x y z w
        rel: x^4
        rel: y^2
        rel: z^2
        rel: w^2
        rel: [x, y]
        rel: [x, z]
        rel: [y, z]
        rel: w x w^-1 x
        rel: w y w^-1 z^-1
        rel: w z w^-1 y^-1
    """,
    "G(32,29)": """
        # (Z_2 x Q_8) : Z_2
        gens: x i j k z
        rel: x^2
        rel: z^2
        rel: i^2 j^-2
        rel: j^2 k^-2
        rel: k^2 k^-1 j^-1 i^-1
        rel: [x, i]
        rel: [x, j]
        rel: [x, k]
        rel: z x z^-1 x^-1
        rel: z i z^-1 i^-1
        rel: z j z^-1 j x^-1
    """,
    "G(32,30)": """
        # (Z_4 x (Z_2)^2) : Z_2
        gens: x y z w
        rel: x^4
        rel: y^2
        rel: z^2
        rel: w^2
        rel: [x, y]
        rel: [x, z]
        rel: [y, z]
        rel: w x w^-1 y^-1 x^-1
        rel: w y w^-1 y^-1
        rel: w z w^-1 z^-1 x^-2
    """,
    "G(32,31)": """
        # (Z_4)^2 : Z_2
        gens: x y z
        rel: x^4
        rel: y^4
        rel: [x, y]
        rel: z^2
        rel: z x z^-1 y^-2 x^-1
        rel: z y z^-1 y^-1 x^-2
    """,
    "G(32,32)": """
        # (Z_2)^2 . (Z_2)^3
        gens: x y z u w
        rel: u^2
        rel: w^2
        rel: u z^-2
        rel: u x^2
        rel: w y^2
        rel: y x y^-1 x
        rel: [y, z]
        rel: x z x w z
    """,
    "G(32,33)": """
        # (Z_4)^2 : Z_2
        gens: x y z
        rel: x^4
        rel: y^4
        rel: [x, y]
        rel: z^2
        rel: z x z^-1 y^-2 x^-1
        rel: z y z^-1 y x^-2
    """,
    "G(32,34)": """
        # (Z_4)^2 : Z_2, inversion action
        gens: x y z
        rel: x^4
        rel: y^4
        rel: [x, y]
        rel: z^2
        rel: z x z^-1 x
        rel: z y z^-1 y
    """,
    "G(32,35)": """
        # Z_4 : Q_8
        gens: x i j k
        rel: x^4
        rel: i^2 j^-2
        rel: j^2 k^-2
        rel: k^2 k^-1 j^-1 i^-1
        rel: i x i^-1 x
        rel: j x j^-1 x
        rel: k x k^-1 x^-1
    """,
    "G(32,37)": """
        # (Z_8 x Z_2) : Z_2
        gens: x y z
        rel: x^8
        rel: y^2
        rel: z^2
        rel: [x, y]
        rel: z x z^-1 x^-5
        rel: z y z^-1 y^-1
    """,
    "G(32,38)": """
        # (Z_8 x Z_2) : Z_2
        gens: x y z
        rel: x^8
        rel: y^2
        rel: z^2
        rel: [x, y]
        rel: z x z^-1 x^-1
        rel: z y z^-1 y^-1 x^-4
    """,
    "G(32,39)": """
        # Z_2 x D_16
        gens: z x y
        rel: z^2
        rel: x^2
        rel: y^8
        rel: x y x^-1 y
        rel: [z, x]
        rel: [z, y]
    """,
    "G(32,40)": """
        # Z_2 x QD_16
        gens: z x y
        rel: z^2
        rel: x^2
        rel: y^8
        rel: x y x^-1 y^-3
        rel: [z, x]
        rel: [z, y]
    """,
    "G(32,41)": """
        # Z_2 x Q_16: x^4 = y^2 = z^2 = xyz
        gens: w x y z
        rel: w^2
        rel: x^4 y^-2
        rel: y^2 z^-2
        rel: z^2 z^-1 y^-1 x^-1
        rel: [w, x]
        rel: [w, y]
        rel: [w, z]
    """,
    "G(32,42)": """
        # (Z_8 x Z_2) : Z_2
        gens: x y z
        rel: x^8
        rel: y^2
        rel: z^2
        rel: [x, y]
        rel: z x z^-1 x^-3
        rel: z y z^-1 y^-1 x^-4
    """,
    "G(32,43)": """
        # Z_8 : (Z_2)^2
        gens: x y z
        rel: x^8
        rel: y^2
        rel: z^2
        rel: [y, z]
        rel: y x y^-1 x
        rel: z x z^-1 x^-5
    """,
    "G(32,44)": """
        # (Z_2 x Q_8) : Z_2
        gens: x i j k z
        rel: x^2
        rel: z^2
        rel: i^2 j^-2
        rel: j^2 k^-2
        rel: k^2 k^-1 j^-1 i^-1
        rel: [x, i]
        rel: [x, j]
        rel: [x, k]
        rel: z x z^-1 i^-2 x^-1
        rel: z i z^-1 j^-1
        rel: z j z^-1 i^-1
    """,
    "G(32,46)": """
        # (Z_2)^2 x D_8
        gens: z w x y
        rel: z^2
        rel: w^2
        rel: [z, w]
        rel: x^2
        rel: y^4
        rel: x y x^-1 y
        rel: [z, x]
        rel: [z, y]
        rel: [w, x]
        rel: [w, y]
    """,
    "G(32,47)": """
        # (Z_2)^2 x Q_8
        gens: z w i j k
        rel: z^2
        rel: w^2
        rel: [z, w]
        rel: i^2 j^-2
        rel: j^2 k^-2
        rel: k^2 k^-1 j^-1 i^-1
        rel: [z, i]
        rel: [z, j]
        rel: [z, k]
        rel: [w, i]
        rel: [w, j]
        rel: [w, k]
    """,
    "G(32,48)": """
        # (Z_4 x (Z_2)^2) : Z_2
        gens: x y z w
        rel: x^4
        rel: y^2
        rel: z^2
        rel: w^2
        rel: [x, y]
        rel: [x, z]
        rel: [y, z]
        rel: w x w^-1 x^-1
        rel: w y w^-1 y^-1
        rel: w z w^-1 z^-1 x^-2
    """,
    "G(32,49)": extra_special_text(2, 2, "H"),
    "G(32,50)": extra_special_text(2, 2, "G"),
}

ALIASES = {"G(24,12)": "S4"}

EXPECTED_ORDER = {
    label: (12 if label == "A4" else 24 if label == "S4" else int(label.split("(")[1].split(",")[0]))
    for label in CATALOG_SOURCES
}


def catalog_labels() -> list[str]:
    return list(CATALOG_SOURCES)


def resolve_label(label: str) -> str:
    label = ALIASES.get(label, label)
    if label not in CATALOG_SOURCES:
        raise KeyError(f"unknown catalog label {label!r}")
    return label


@lru_cache(maxsize=None)
def get_presentation(label: str) -> Presentation:
    return parse_presentation(CATALOG_SOURCES[resolve_label(label)])


def catalog() -> list[tuple[str, Presentation]]:
    """All catalog entries as (label, Presentation) pairs."""
    return [(label, get_presentation(label)) for label in CATALOG_SOURCES]


@lru_cache(maxsize=None)
def realize_label(label: str) -> FiniteGroup:
    g = realize(get_presentation(label))
    expected = EXPECTED_ORDER[resolve_label(label)]
    if g.order != expected:
        raise AssertionError(
            f"{label} realized to order {g.order}, expected {expected}"
        )
    return g
