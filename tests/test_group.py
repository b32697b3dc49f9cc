import hashlib
import json

import numpy as np
import pytest

from ddks.group_core import (
    ElementSet,
    FiniteGroup,
    Homomorphism,
    Word,
    catalog,
    extra_special,
    parse_presentation,
    realize,
    realize_label,
    spanning_tree,
    tree_words,
)
from optimizetools import raised_under_optimize


LATIN = "Cayley table is not a Latin square"
# a Latin square with two-sided identity that is not a group: smallest
# examples live at order 5
NON_ASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def klein_four():
    return realize(parse_presentation("gens: x y\nrel: x^2\nrel: y^2\nrel: [x,y]"))


def cyclic(n):
    return realize(parse_presentation(f"gens: x\nrel: x^{n}"))


def test_identity_and_inverse_invariants():
    g = realize_label("G(32,49)")
    for x in g.elements():
        assert g.mul(0, x) == x == g.mul(x, 0)
        assert g.mul(x, g.inverse[x]) == 0
        assert g.element_order[x] >= 1


def test_latin_square_validation():
    with pytest.raises(ValueError, match="Latin"):
        FiniteGroup([[0, 1], [0, 1]])


def test_identity_position_validation():
    # Z2 table written with the identity at index 1
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup([[1, 0], [0, 1]])


def test_associativity_validation():
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup(NON_ASSOCIATIVE_LOOP)


@pytest.mark.parametrize("n", [1, 6, 255, 256, 300])
def test_checked_arrays_match_the_lists(n):
    """`table` and `inverses` hold |G| - 1, `orders` holds |G| (the order
    of a generator of Z_256 does not fit in uint8); all three are read-only."""
    g = cyclic(n)
    small = np.uint8 if n <= 256 else np.uint16
    assert (g.table.dtype, g.inverses.dtype) == (small, small)
    assert g.orders.dtype == (np.uint8 if n <= 255 else np.uint16)
    assert g.table.tolist() == g.cayley
    assert g.inverses.tolist() == g.inverse
    assert g.orders.tolist() == g.element_order
    assert max(g.element_order) == n
    for a in (g.table, g.inverses, g.orders):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_catalog_digest_is_pinned():
    """One SHA-256 over every catalog group's table, inverses, orders,
    generators, words, normal subgroups, centre, derived subgroup, socle,
    CCT verdict and quotient by the centre: any change to what the group
    core computes on the catalog shows here."""
    h = hashlib.sha256()
    for label, p in catalog():
        G = realize(p)
        q, proj = G.quotient(G.center())
        record = [
            label, G.cayley, G.inverse, G.element_order, list(G.generator_elements),
            [list(w.letters) for w in G.element_words],
            [list(N) for N in G.normal_subgroups()],
            list(G.center()), list(G.derived_subgroup()),
            list(G.socle()) if G.order > 1 else None,
            G.is_abelian, None if G.is_abelian else G.is_cct(),
            q.cayley, proj,
        ]
        h.update(json.dumps(record).encode())
    assert h.hexdigest()[:16] == "a63c02b94983e389"


def test_power_and_commutator():
    g = realize_label("S4")
    x, y = g.generator_elements
    assert g.commutators[x, x] == 0
    assert g.commutators[x, y] == scalar_commutator(g, x, y)
    # conjugation convention: conjugates([x])[g, 0] = g x g^-1
    assert g.conjugates([x])[y, 0] == g.mul(g.mul(y, x), g.inverse[y])


def test_evaluate_word():
    g = realize_label("G(32,49)")
    r1, t1, r2, t2, z = g.generator_elements
    w = parse_presentation("gens: r1 t1 r2 t2 z\nrel: [r1, t1]").relators[0]
    assert g.evaluate_word(w, g.generator_elements) == z
    w2 = parse_presentation("gens: r1 t1 r2 t2 z\nrel: [r1, t2]").relators[0]
    assert g.evaluate_word(w2, g.generator_elements) == 0
    assert g.evaluate_word(Word(()), g.generator_elements) == 0
    with pytest.raises(IndexError):
        g.evaluate_word(Word((6,)), g.generator_elements)


def test_center_and_centralizer():
    g = realize_label("G(32,49)")
    z = g.generator_elements[4]
    assert tuple(g.center()) == (0, z)
    # center elements commute with everything, so their centralizer is G
    assert (g.table[:, z] == g.table[z]).all()
    s4 = realize_label("S4")
    assert len(s4.center()) == 1


def test_centralizer_in_sl2f3_is_cyclic_6():
    g = realize_label("G(24,3)")
    x = g.generator_elements[0]
    x2 = g.mul(x, x)
    cent = [c for c in g.elements() if g.mul(c, x2) == g.mul(x2, c)]
    assert len(cent) == 6
    assert all(g.mul(a, b) == g.mul(b, a) for a in cent for b in cent)
    assert max(g.element_order[c] for c in cent) == 6  # cyclic of order 6


def test_subgroup_generated():
    g = realize_label("S4")
    assert tuple(g.subgroup_generated({0})) == (0,)
    assert len(g.subgroup_generated(g.generator_elements)) == 24
    y = g.generator_elements[1]
    assert len(g.subgroup_generated({y})) == 4


def test_normal_closure_of_3cycle_is_a4():
    g = realize_label("S4")
    three_cycles = [x for x in g.elements() if g.element_order[x] == 3]
    ncl = g.normal_closure({three_cycles[0]})
    assert len(ncl) == 12
    assert ncl.is_normal()


def test_derived_subgroups():
    assert len(klein_four().derived_subgroup()) == 1
    assert len(realize_label("S4").derived_subgroup()) == 12
    g = realize_label("G(32,49)")
    assert tuple(g.derived_subgroup()) == tuple(g.center())


def test_socle():
    s4 = realize_label("S4")
    soc = s4.socle()
    assert len(soc) == 4
    assert sorted(s4.element_order[x] for x in soc) == [1, 2, 2, 2]  # V4

    z6 = cyclic(6)
    assert tuple(z6.socle()) == (0,)

    with pytest.raises(ValueError):
        cyclic(1).socle()


def test_quotient_by_center():
    g = realize_label("G(32,49)")
    q, proj = g.quotient(g.center())
    assert q.order == 16
    assert q.is_abelian
    assert all(q.element_order[x] <= 2 for x in q.elements())
    assert proj[0] == 0
    for a in g.elements():
        for b in g.elements():
            assert proj[g.mul(a, b)] == q.mul(proj[a], proj[b])


def test_quotient_rejects_bad_input():
    g = realize_label("S4")
    with pytest.raises(ValueError, match="subgroup"):
        g.quotient([0, 1, 2])  # not closed in general
    x = g.generator_elements[0]
    sub = g.subgroup_generated({x})
    with pytest.raises(ValueError, match="normal"):
        g.quotient(sub)


def test_normal_subgroups_of_s4():
    g = realize_label("S4")
    sizes = sorted(len(n) for n in g.normal_subgroups())
    assert sizes == [1, 4, 12, 24]


def scalar_commutator(G, a, b):
    """[a, b] = a b a^-1 b^-1 from `mul` and `inverse`, not from `commutators`."""
    return G.mul(G.mul(G.mul(a, b), G.inverse[a]), G.inverse[b])


def scalar_nilpotency_class(G):
    """The lower central series from scalar commutators, set by set."""
    current, k = set(G.elements()), 0
    while len(current) > 1:
        nxt = set(G.subgroup_generated({scalar_commutator(G, g, x) for g in G.elements() for x in current}))
        if nxt == current:
            return None
        current, k = nxt, k + 1
    return k


def test_commutator_table_matches_the_scalar_commutator():
    """`commutators` against the scalar commutator, built from `mul` and
    `inverse`, on every pair of every catalog group, and the nilpotency
    class it gives against the scalar lower central series."""
    for label, _ in catalog():
        G = realize_label(label)
        table = G.commutators
        assert table is G.commutators and not table.flags.writeable
        want = [[scalar_commutator(G, a, b) for b in G.elements()] for a in G.elements()]
        assert table.tolist() == want, label
        assert G.nilpotency_class() == scalar_nilpotency_class(G), label


def test_nilpotency_class():
    assert realize_label("G(32,49)").nilpotency_class() == 2
    assert realize_label("S4").nilpotency_class() is None
    assert cyclic(6).nilpotency_class() == 1
    assert cyclic(1).nilpotency_class() == 0


def test_homomorphism_validation():
    p = parse_presentation("gens: x\nrel: x^2")
    z4 = cyclic(4)
    x = z4.generator_elements[0]
    with pytest.raises(ValueError, match="not satisfied"):
        Homomorphism(p, z4, (x,))
    h = Homomorphism(p, z4, (z4.mul(x, x),))
    assert len(z4.subgroup_generated(h.images)) == 2


def test_homomorphism_refuses_images_outside_the_group():
    p = parse_presentation("gens: x\nrel: x^2")
    G = realize_label("G(32,49)")
    assert G.element_order[31] == 2  # so list indexing would accept -1
    for image in (-1, 40):
        with pytest.raises(ValueError, match="element index out of range for the group"):
            Homomorphism(p, G, (image,))
    snippet = (
        "from ddks.group_core import Homomorphism, parse_presentation, realize_label\n"
        "Homomorphism(parse_presentation('gens: x\\nrel: x^2'), realize_label('G(32,49)'), (-1,))\n"
    )
    assert raised_under_optimize(snippet) == "ValueError element index out of range for the group"


def test_element_set_refuses_non_integer_members():
    """1.5 and True pass the sorted-and-distinct test and the range test,
    and "3" cannot be sorted with 0: only the type check stops them."""
    G = realize_label("S4")
    for bad in (1.5, True, np.bool_(True), "3"):
        with pytest.raises(ValueError, match=r"^members must be element indices, got \[0, "):
            ElementSet(G, (0, bad))
    assert ElementSet(G, (0, np.uint8(3))).members == (0, 3)


def test_homomorphism_refuses_non_integer_images():
    """With no relator to evaluate, only the type check stops a float or
    a bool, which the range check passes, and a string, which it cannot
    compare."""
    p = parse_presentation("gens: x")
    G = realize_label("G(32,49)")
    for image in (1.5, "3", True, np.bool_(True)):
        with pytest.raises(ValueError, match="images must be element indices"):
            Homomorphism(p, G, (image,))
    assert Homomorphism(p, G, (np.uint8(3),)).images == (3,)


def loop_cct(G):
    """The oracle for `is_cct`, one element at a time: the centralizer of
    every non-central element is abelian."""
    commute = G.table == G.table.T
    return all(commute[np.ix_(c, c)].all() for c in commute[~commute.all(axis=1)])


def test_is_cct():
    with pytest.raises(ValueError, match="abelian"):
        klein_four().is_cct()
    assert realize_label("G(24,6)").is_cct()
    assert not realize_label("S4").is_cct()


def test_cct_matches_the_centralizer_loop():
    """The broadcast against the loop on the 57 catalog groups (49 CCT)
    and on the extra-special group of order 128 (not CCT), whose 126
    non-central rows take two blocks of 64."""
    groups = [realize(p) for _, p in catalog()] + [extra_special(3, 2, "H")]
    verdicts = [G.is_cct() for G in groups]
    assert verdicts == [loop_cct(G) for G in groups]
    assert (len(verdicts), verdicts.count(True), verdicts[-1]) == (58, 49, False)


def test_spanning_tree_walks_breadth_first():
    """Z6 over x, x^-1: FIFO, each element's columns in order; over the
    column of x^2 only <x^2> is reached, the rest keeps -1, and over no
    column only the identity."""
    z6 = cyclic(6)
    x = z6.generator_elements[0]
    power = [0]
    for _ in range(5):
        power.append(z6.mul(power[-1], x))
    step = z6.table[:, [x, z6.inverse[x]]].tolist()
    order, parent, column = spanning_tree(step)
    assert order == [power[k] for k in (0, 1, 5, 2, 4, 3)]
    assert [(parent[power[k]], column[power[k]]) for k in range(6)] == [
        (-1, -1), (0, 0), (power[1], 0), (power[2], 0), (power[5], 1), (0, 1),
    ]
    assert [w.letters for w in tree_words(parent, column)] == [
        w.letters for w in z6.element_words
    ]
    assert [tree_words(parent, column)[power[k]].letters for k in (3, 4)] == [(1, 1, 1), (-1, -1)]
    order, parent, column = spanning_tree(z6.table[:, [power[2]]].tolist())
    assert sorted(order) == sorted(power[k] for k in (0, 2, 4))
    assert [parent[power[k]] for k in (1, 3, 5)] == [-1, -1, -1]
    with pytest.raises(ValueError, match="no tree path"):
        tree_words(parent, column)
    assert spanning_tree(z6.table[:, []].tolist())[0] == [0]
    assert tuple(z6.subgroup_generated(())) == (0,)


@pytest.mark.parametrize(
    "snippet, raised",
    [
        # {1} is not a subgroup of Z2, so the coset of the identity is {1}
        pytest.param(
            """
import ddks.group_core.group as group
group.ElementSet.is_subgroup = group.ElementSet.is_normal = lambda self: True
group.realize(group.Presentation(("y",), (group.Word.gen(0) ** 2,))).quotient((1,))
""",
            "AssertionError the identity's coset is not represented by the identity",
            id="quotient",
        ),
        pytest.param(
            """
from ddks.group_core import ElementSet, realize_label
ElementSet(realize_label("S4"), (1, 0))
""",
            "ValueError members must be sorted and distinct",
            id="element-set",
        ),
        # the array predicates would read -1 as the last element
        pytest.param(
            """
from ddks.group_core import ElementSet, realize_label
ElementSet(realize_label("S4"), (-1, 0))
""",
            "ValueError element index out of range for the group",
            id="element-set-range",
        ),
        pytest.param(
            """
from ddks.group_core import ElementSet, realize_label
ElementSet(realize_label("S4"), (0, 24))
""",
            "ValueError element index out of range for the group",
            id="element-set-above",
        ),
        pytest.param(
            """
from ddks.group_core import ElementSet, realize_label
ElementSet(realize_label("S4"), (0, 1.5))
""",
            "ValueError members must be element indices, got [0, 1.5]",
            id="element-set-float",
        ),
        # a table whose second coset no column reaches
        pytest.param(
            """
import ddks.group_core.group as group
group.toddcox.coset_table = lambda *args: [[0, 0], [1, 1]]
group.realize(group.Presentation(("x",), ()))
""",
            "AssertionError a coset is not reachable from coset 0",
            id="unreachable-coset",
        ),
    ],
)
def test_group_checks_survive_optimize(snippet, raised):
    assert raised_under_optimize(snippet) == raised


@pytest.mark.parametrize(
    "table, message",
    [
        pytest.param([[0, 0], [1, 1]], LATIN, id="latin-row"),
        pytest.param([[0, 1, 2], [1, 2, 0], [2, 1, 0]], LATIN, id="latin-column"),
        pytest.param([[0, 1], [1]], LATIN, id="ragged"),
        pytest.param([[0, -1], [-1, 0]], LATIN, id="negative-entry"),
        pytest.param([[1, 0], [0, 1]], "identity is not at index 0", id="identity"),
        pytest.param(NON_ASSOCIATIVE_LOOP, "Cayley table is not associative", id="associativity"),
    ],
)
def test_table_checks_survive_optimize(table, message):
    snippet = f"from ddks.group_core import FiniteGroup\nFiniteGroup({table!r})"
    assert raised_under_optimize(snippet) == f"ValueError {message}"


def test_every_table_is_read_only_at_its_source():
    """The tables the system hands out are read-only at their source
    (`read_only`): neither a table's writeable flag nor that of the array
    it views can be set back, so a write cannot go through.  The group is
    realized afresh, so every table is built here."""
    from ddks import certify
    from ddks.automorphisms import automorphism_group
    from ddks.group_core import get_presentation
    from ddks.structures import bulk_relator_filter, example_structure, inner_automorphism_table, relations_for_type
    from ddks.symplectic import induced_space, reduced_structure_array

    G = realize(get_presentation("G(32,49)"))
    space = induced_space(G)
    s = example_structure(G)
    bulk_relator_filter(G, np.array([s.elements], dtype=np.uint8), relations_for_type(s.stype))  # certifier tables
    tables = {
        "table": G.table, "inverses": G.inverses, "orders": G.orders, "commutators": G.commutators,
        "Inn": inner_automorphism_table(G), "Aut": automorphism_group(G, get_presentation("G(32,49)")),
        "projection": space.projection_table, "section": space.section_table,
        "pair": space.pair_table, "q": space.q_table, "reduced": reduced_structure_array(space),
        **{f"certifier {i}": flat for i, flat in enumerate(certify._GROUP_TABLES[G].values())},
    }
    assert len(tables) > 11
    for name, table in tables.items():
        for array in (table, table.base):
            if isinstance(array, np.ndarray):
                with pytest.raises(ValueError, match="WRITEABLE"):
                    array.flags.writeable = True
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 1
