import pytest

from ddks.group_core import (
    EXPECTED_ORDER,
    Homomorphism,
    catalog,
    catalog_labels,
    extra_special,
    extra_special_text,
    get_presentation,
    parse_presentation,
    realize_label,
    resolve_label,
)
from permtools import perm_from_cycles, perm_group, perm_mul
from optimizetools import raised_under_optimize


def test_catalog_shape():
    labels = catalog_labels()
    assert len(labels) == 57
    assert sum(1 for l in labels if l.startswith("G(24,")) == 11
    assert sum(1 for l in labels if l.startswith("G(32,")) == 44
    assert "S4" in labels and "A4" in labels
    assert "G(24,12)" not in labels
    assert resolve_label("G(24,12)") == "S4"
    with pytest.raises(KeyError):
        resolve_label("G(99,1)")


def test_every_entry_realizes_to_advertised_order():
    for label, pres in catalog():
        g = realize_label(label)
        assert g.order == EXPECTED_ORDER[label], label
        assert len(g.generator_elements) == pres.ngens
        assert not g.is_abelian, label


def test_g32_49_presentation_as_printed():
    p = get_presentation("G(32,49)")
    assert p.ngens == 5
    assert len(p.relators) == 15
    assert p.generators == ("r1", "t1", "r2", "t2", "z")


def test_g32_50_is_the_g_variant():
    assert get_presentation("G(32,50)") == parse_presentation(
        extra_special_text(2, 2, "G")
    )


def test_sl2f3_lookup():
    p = get_presentation("G(24,3)")
    assert p.ngens == 3
    assert len(p.relators) == 3


def test_special_group_center_orders():
    for label in ["G(32,6)", "G(32,7)", "G(32,8)", "G(32,43)", "G(32,44)",
                  "G(32,49)", "G(32,50)"]:
        g = realize_label(label)
        assert len(g.center()) == 2, label


def test_cct_classification_is_exact():
    non_cct = {label for label, _ in catalog() if not realize_label(label).is_cct()}
    assert non_cct == {
        "S4",
        "G(32,6)", "G(32,7)", "G(32,8)",
        "G(32,43)", "G(32,44)", "G(32,49)", "G(32,50)",
    }


def test_center_quotient_cyclic_implies_abelian():
    # contrapositive over the whole catalog: all entries are non-abelian,
    # so no G/Z(G) may be cyclic
    for label, _ in catalog():
        g = realize_label(label)
        q, _ = g.quotient(g.center())
        max_order = max(q.element_order)
        assert max_order < q.order, label


def test_nilpotency_classes_of_order32_entries():
    for t, expected in [(6, 3), (7, 3), (8, 3), (43, 3), (44, 3),
                        (49, 2), (50, 2)]:
        assert realize_label(f"G(32,{t})").nilpotency_class() == expected


# -- extra-special constructors ---------------------------------------

def test_extra_special_b1_variants():
    d8 = extra_special(1, 2, "H")
    assert d8.order == 8
    assert sorted(d8.element_order) == [1, 2, 2, 2, 2, 2, 4, 4]  # D8
    q8 = extra_special(1, 2, "G")
    assert q8.order == 8
    assert sorted(q8.element_order) == [1, 2, 4, 4, 4, 4, 4, 4]  # Q8
    assert sum(1 for x in q8.elements() if q8.element_order[x] == 2) == 1


def test_extra_special_b2_order4_counts():
    h5 = extra_special(2, 2, "H")
    assert sum(1 for x in h5.elements() if h5.element_order[x] == 4) == 12
    g5 = extra_special(2, 2, "G")
    assert sum(1 for x in g5.elements() if g5.element_order[x] == 4) == 20


def test_extra_special_center_and_derived():
    for variant in ("H", "G"):
        g = extra_special(2, 2, variant)
        centre = g.center()
        assert len(centre) == 2
        assert tuple(g.derived_subgroup()) == tuple(centre)
        assert tuple(g.socle()) == tuple(centre)
        q, _ = g.quotient(centre)
        assert q.is_abelian and all(q.element_order[x] <= 2 for x in q.elements())


def test_extra_special_p3():
    g = extra_special(2, 3, "H")
    assert g.order == 243
    assert len(g.center()) == 3


def test_extra_special_delta_identities():
    # [r_j^-1, t_k] = z^(delta_jk) and [r_j^-1, t_k^-1] = z^(-delta_jk)
    for variant in ("H", "G"):
        g = extra_special(2, 2, variant)
        p = get_presentation("G(32,49)")
        r = [g.generator_elements[0], g.generator_elements[2]]
        t = [g.generator_elements[1], g.generator_elements[3]]
        z = g.generator_elements[4]
        for j in range(2):
            for k in range(2):
                zjk = z if j == k else 0
                lhs1 = g.commutators[g.inverse[r[j]], t[k]]
                assert lhs1 == zjk
                lhs2 = g.commutators[g.inverse[r[j]], g.inverse[t[k]]]
                assert lhs2 == g.inverse[zjk]
                assert g.commutators[r[j], t[k]] == g.inverse[zjk]


def test_extra_special_rejects_bad_args():
    with pytest.raises(ValueError):
        extra_special(2, 2, "X")
    with pytest.raises(ValueError):
        extra_special(0, 2, "H")


# -- permutation cross-checks -----------------------------------------

def test_perm_composition_convention():
    # (13)(12) = (123), composing right-to-left
    a = perm_from_cycles(3, (1, 3))
    b = perm_from_cycles(3, (1, 2))
    assert perm_mul(a, b) == perm_from_cycles(3, (1, 2, 3))


@pytest.mark.parametrize(
    "label,n,cycles",
    [
        ("S4", 4, [[(1, 2)], [(1, 2, 3, 4)]]),
        ("A4", 4, [[(1, 2), (3, 4)], [(1, 2, 3)]]),
    ],
)
def test_presentations_match_permutation_groups(label, n, cycles):
    perms = [perm_from_cycles(n, *cyc) for cyc in cycles]
    literal = perm_group(n, perms)
    presented = realize_label(label)
    assert literal.order == presented.order
    # the defining map generator -> permutation is a surjective homomorphism
    # between groups of equal order, hence an isomorphism
    h = Homomorphism(get_presentation(label), literal, literal.generator_elements)
    assert len(literal.subgroup_generated(h.images)) == literal.order


def test_s3_factor_presentation():
    from ddks.group_core import realize
    p = parse_presentation("gens: x y\nrel: x^2\nrel: y^3\nrel: x y x y")
    literal = perm_group(3, [perm_from_cycles(3, (1, 2)), perm_from_cycles(3, (1, 2, 3))])
    assert realize(p).order == 6
    h = Homomorphism(p, literal, literal.generator_elements)
    assert len(literal.subgroup_generated(h.images)) == literal.order


def test_q8_factor_of_catalog_entry_has_unique_involution():
    g = realize_label("G(24,11)")  # Z3 x Q8; Q8 part is <i, j, k>
    sub = g.subgroup_generated(g.generator_elements[1:])
    assert len(sub) == 8
    assert sum(1 for x in sub if g.element_order[x] == 2) == 1


def test_extra_special_order_check_survives_optimize():
    snippet = """
from importlib import import_module
catalog = import_module("ddks.group_core.catalog")  # the package exports a function of that name
z2 = catalog.realize(catalog.parse_presentation("gens: y\\nrel: y^2"))
catalog.realize = lambda *args: z2
catalog.extra_special(1, 2, "H")
"""
    assert raised_under_optimize(snippet) == (
        "AssertionError extra-special group has order 2, not 8"
    )
