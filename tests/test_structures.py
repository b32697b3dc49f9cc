import copy
import gc
import hashlib
import weakref
from functools import lru_cache
from itertools import islice, product
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddks.group_core import (
    EXPECTED_ORDER,
    FiniteGroup,
    Presentation,
    Word,
    catalog_labels,
    commutator,
    get_presentation,
    parse_presentation,
    realize,
    realize_label,
)
from ddks import certify, structures
from ddks.automorphisms import automorphism_group
from ddks.paper import SMALL_GROUP_SOURCES, SUBSET_LABELS, Rows, check_structure_count
from ddks.group_core.catalog import extra_special_text
from ddks.structures import (
    DDKStructure,
    StructureType,
    all_subgroup_masks,
    braid_presentation,
    bulk_relator_filter,
    certified_type,
    certify_structure_rows,
    example_structure,
    generation_mask_filter,
    genus2_rows,
    inner_automorphism_table,
    iter_prestructure_tuples,
    k_subgroups,
    labeled_relations_for_type,
    maximal_subgroup_masks,
    pack_rows,
    prestructure_relations,
    prestructure_report,
    reference_prestructures,
    relations_for_type,
    slot_index,
    structure_from_dict,
    structure_rows,
    structure_to_dict,
    unpack_keys,
    verify_structure,
)
from ddks.symplectic import symplectic_structure_rows
from optimizetools import raised_under_optimize
from structuretools import (
    labeled_simplified_relations_for_type,
    oracle_subgroup_masks,
    prestructure_rows,
    simplified_relations_for_type,
    slot_names,
    structure_to_hom,
    verify_prestructure,
)

T22 = StructureType(2, 2)


def fmt(w: Word, b: int = 2) -> str:
    return w.format(slot_names(b))


# ---------------------------------------------------------------- layout

def test_slot_layout():
    assert slot_names(2) == ["r11", "t11", "r12", "t12", "r21", "t21", "r22", "t22", "z"]
    for b in (2, 3):
        names = slot_names(b)
        for i in (1, 2):
            for j in range(1, b + 1):
                for kind in ("r", "t"):
                    assert names[slot_index(i, kind, j, b)] == f"{kind}{i}{j}"
        assert names[slot_index(0, "z", 0, b)] == "z"
        assert len(names) == 4 * b + 1


def test_type_validation():
    with pytest.raises(ValueError):
        StructureType(1, 2)
    with pytest.raises(ValueError):
        StructureType(2, 1)
    assert StructureType(3, 4).tuple_length == 13
    # StructureType(2.5, 2) once gave tuples of length 11.0
    for b, n in ((2.5, 2), (2, 2.0), (True, 2), (2, "3"), (None, 2)):
        with pytest.raises(ValueError, match=r"^b and n must be integers, got \["):
            StructureType(b, n)
    assert StructureType(np.int64(3), np.uint8(4)).tuple_length == 13


# ------------------------------------------------------- relation system

def test_relation_counts_and_labels():
    rels = labeled_relations_for_type(T22)
    assert len(rels) == 22
    assert [lab for lab, _ in rels] == (
        ["S1", "S2"] + [f"R{i}" for i in range(1, 11)] + [f"T{i}" for i in range(1, 11)]
    )
    assert len(labeled_relations_for_type(StructureType(3, 2))) == 44
    assert len(prestructure_relations()) == 20
    assert all(not lab.startswith("S") for lab, _ in prestructure_relations())


def test_relator_words_frozen_spot_checks():
    rels = dict(labeled_relations_for_type(T22))
    # relation LHS = RHS is stored as the relator LHS * RHS^-1
    assert fmt(rels["R4"]) == "r11 t21 r11^-1 t21^-1 z"
    assert fmt(rels["R1"]) == "r11 r22 r11^-1 r22^-1"
    assert fmt(rels["R3"]) == "r11 t22 r11^-1 t22^-1"
    assert fmt(rels["R8"]) == "r12 t22 r12^-1 t22^-1 z"
    assert fmt(rels["T2"]) == "t11 r21 t11^-1 r21^-1 t21^-1 z^-1 t21"
    assert fmt(rels["T4"]) == "t11 t21 t11^-1 t21^-1 z t21^-1 z^-1 t21"
    assert fmt(rels["R5"]) == "r11 z r11^-1 r21^-1 z^-1 r21"
    assert (
        fmt(rels["R7"])
        == "r12 r21 r12^-1 r22^-1 z^-1 r22 r21^-1 z"
    )
    assert (
        fmt(rels["T9"])
        == "t12 t21 t12^-1 t22^-1 z t22 z^-1 t21^-1 z t22^-1 z^-1 t22"
    )
    assert (
        fmt(rels["S1"])
        == "r12^-1 t12^-1 r12 r11^-1 t11^-1 r11 t11 t12 z^-1"
    )
    assert (
        fmt(rels["S2"])
        == "r21^-1 t21 r21 r22^-1 t22 r22 t22^-1 t21^-1 z"
    )


def test_simplified_relation_counts():
    simp = labeled_simplified_relations_for_type(T22)
    assert len(simp) == 26
    assert len(labeled_simplified_relations_for_type(StructureType(3, 2))) == 50
    d = dict(simp)
    assert fmt(d["S1'"]) == "r12^-1 t12^-1 r12 t12 r11^-1 t11^-1 r11 t11 z^-1"
    assert fmt(d["S2'"]) == "r21^-1 t21 r21 t21^-1 r22^-1 t22 r22 t22^-1 z"
    assert fmt(d["C1"]) == "r11 z r11^-1 z^-1"


def test_braid_presentation_shape():
    p = braid_presentation(2)
    assert p.generators == (
        "rho11", "tau11", "rho12", "tau12",
        "rho21", "tau21", "rho22", "tau22", "A12",
    )
    assert len(p.relators) == 22
    assert braid_presentation(3).ngens == 13


# ------------------------------------------------- the explicit example

@pytest.fixture(scope="module")
def H5():
    return realize_label("G(32,49)")


@pytest.fixture(scope="module")
def G5():
    return realize_label("G(32,50)")


def test_example_structure_valid_on_both(H5, G5):
    for G in (H5, G5):
        s = example_structure(G)
        ok, diag = verify_structure(G, s.elements, s.stype)
        assert ok, diag
        data = k_subgroups(s)
        assert data.strong and data.m1 == 1 and data.m2 == 1
        assert len(data.K1) == 32 and len(data.K2) == 32


def test_example_structure_words(H5):
    s = example_structure(H5)
    words = s.words()
    assert words is not None
    assert len(words) == 9
    assert words[0] == "r1" and words[-1] == "z"


def test_example_structure_hom(H5):
    s = example_structure(H5)
    hom = structure_to_hom(s)
    assert len(H5.subgroup_generated(hom.images)) == H5.order
    a12 = hom.images[-1]
    assert H5.element_order[a12] == 2


def test_verify_structure_diagnostics(H5):
    s = example_structure(H5)
    elems = list(s.elements)
    bad = elems.copy()
    bad[-1] = 0
    ok, diag = verify_structure(H5, bad, T22)
    assert not ok and diag == "o(z) >= 2 violated"
    ok, diag = verify_structure(H5, s.elements, StructureType(2, 3))
    assert not ok and diag == "o(z) = 3 violated (o(z) = 2)"
    bad = elems.copy()
    bad[slot_index(2, "t", 1, 2)] = 0  # t21 := identity
    ok, diag = verify_structure(H5, bad, T22)
    assert not ok and diag == "relation R4 violated"
    with pytest.raises(ValueError, match="expected 9"):
        verify_structure(H5, elems[:5], T22)


# The example structure shifted by -32: negative indices wrap around in
# list indexing, so without the range check these pass all 22 relators.
SHIFTED_EXAMPLE = """
from ddks.group_core import realize_label
from ddks.structures import StructureType, example_structure, verify_structure
G = realize_label("G(32,49)")
verify_structure(G, [x - 32 for x in example_structure(G).elements], StructureType(2, 2))
"""


def test_verify_structure_rejects_out_of_range_elements(H5):
    elems = example_structure(H5).elements
    for bad in ([x - 32 for x in elems], elems[:-1] + (32,)):
        with pytest.raises(ValueError, match="out of range"):
            verify_structure(H5, bad, T22)
    assert raised_under_optimize(SHIFTED_EXAMPLE) == (
        "ValueError element index out of range for the group"
    )


def product_group_and_lift(k: int = 2) -> tuple[FiniteGroup, tuple[int, ...]]:
    """G(32,49) x Z_k (an extra central generator of order k, an
    involution by default), with the example structure's words evaluated
    in it."""
    src = extra_special_text(2, 2, "H")
    p = parse_presentation(src)
    names = p.generators + ("w",)
    rels = list(p.relators) + [Word((6,) * k)]
    for g in range(1, 6):
        rels.append(Word((g, 6, -g, -6)))
    big = realize(Presentation(names, tuple(rels)))
    small = realize_label("G(32,49)")
    s = example_structure(small)
    lifted = tuple(
        big.evaluate_word(small.element_words[e], big.generator_elements[:5])
        for e in s.elements
    )
    return big, lifted


def test_generation_diagnostic():
    # embed the extra-special group in a direct product with an extra
    # central involution: all relations hold but the tuple cannot generate
    big, lifted = product_group_and_lift()
    assert big.order == 64
    ok, diag = verify_structure(big, lifted, T22)
    assert not ok and diag == "generation violated"
    rows = np.array([lifted], dtype=np.uint8)
    assert bulk_relator_filter(big, rows, relations_for_type(T22)).all()
    assert not generation_mask_filter(big, rows).any()


def test_verify_prestructure(H5):
    s = example_structure(H5)
    ok, diag = verify_prestructure(H5, s.elements)
    assert ok, diag
    q, proj = H5.quotient(H5.center())
    image = tuple(proj[e] for e in s.elements)
    ok, diag = verify_prestructure(q, image)
    assert not ok and diag == "o(z) >= 2 violated"
    with pytest.raises(ValueError):
        verify_prestructure(H5, s.elements[:4])


# ----------------------------------------------------- subgroup lattice

def test_subgroup_mask_counts():
    counts = {"S4": 30, "A4": 10}
    for label, expected in counts.items():
        G = realize_label(label)
        assert len(all_subgroup_masks(G)) == expected
    d8 = small_group("H")
    q8 = small_group("G")
    assert len(all_subgroup_masks(d8)) == 10
    assert len(all_subgroup_masks(q8)) == 6
    assert len(maximal_subgroup_masks(d8)) == 3
    assert len(maximal_subgroup_masks(q8)) == 3


@pytest.mark.parametrize("label", ["S4", "G(24,3)", "G(32,6)", "G(32,49)", "G(32,50)"])
def test_subgroup_lattices_match_the_extension_oracle(label):
    G = realize_label(label)
    masks = oracle_subgroup_masks(G)
    assert all_subgroup_masks(G) == masks
    members = [[x for x in G.elements() if m >> x & 1] for m in masks]
    normal = [
        h for h in members
        if all({G.mul(G.mul(g, x), G.inverse[g]) for x in h} == set(h) for g in G.elements())
    ]
    normal.sort(key=lambda h: (len(h), h))
    assert [list(n) for n in G.normal_subgroups()] == normal


def lattice_maximal_masks(G: FiniteGroup) -> list[int]:
    """The oracle for `maximal_subgroup_masks`: the maximal members of the
    subgroup lattice."""
    full = (1 << G.order) - 1
    proper = [m for m in all_subgroup_masks(G) if m != full]
    return [m for m in proper if not any(m != o and m & ~o == 0 for o in proper)]


CATALOG_2_GROUPS = [label for label in catalog_labels() if EXPECTED_ORDER[label] & EXPECTED_ORDER[label] - 1 == 0]
ODD_P_GROUPS = {  # name: (p, presentation)
    "Z9": (3, "gens: x\nrel: x^9"),
    "Z3^2": (3, "gens: x y\nrel: x^3\nrel: y^3\nrel: [x, y]"),
    "Z25": (5, "gens: x\nrel: x^25"),
    "Heisenberg 27": (3, extra_special_text(1, 3, "H")),
}


def test_frattini_masks_match_the_lattice():
    assert len(CATALOG_2_GROUPS) == 44
    groups = [(label, 2, realize_label(label)) for label in CATALOG_2_GROUPS]
    groups += [(name, p, realize(parse_presentation(src))) for name, (p, src) in ODD_P_GROUPS.items()]
    for name, p, G in groups:
        want = lattice_maximal_masks(G)
        assert structures._frattini_maximal_masks(G, p) == want, name
        assert maximal_subgroup_masks(G) == want, name


FORGED_FRATTINI = {
    "order": (
        'structures._frattini_maximal_masks(realize_label("S4"), 2)',
        "ValueError the Frattini quotient needs |G| = p^k, got order 24 for p = 2",
    ),
    # Phi forged as {1, x} in Z8 (x is element 1): x^2 is missing
    "closed": (
        'G = realize(parse_presentation("gens: x\\nrel: x^8"))\n'
        'with mock.patch.object(G, "subgroup_generated", lambda gens: (0, 1)):\n'
        "    structures._frattini_maximal_masks(G, 2)",
        "AssertionError Phi(G) is not closed under products",
    ),
    # Phi forged as a subgroup of order 3 of the Heisenberg group of order
    # 27 that is not normal, so its cosets do not form a group
    "labelled twice": (
        f"G = realize(parse_presentation({extra_special_text(1, 3, 'H')!r}))\n"
        'with mock.patch.object(G, "subgroup_generated", lambda gens: (0, 14, 17)):\n'
        "    structures._frattini_maximal_masks(G, 3)",
        "AssertionError G/Phi(G) is not elementary abelian: a coset is labelled twice",
    ),
    # Phi forged as the trivial subgroup of Z4, which is not elementary abelian
    "additive": (
        'G = realize(parse_presentation("gens: x\\nrel: x^4"))\n'
        'with mock.patch.object(G, "subgroup_generated", lambda gens: (0,)):\n'
        "    structures._frattini_maximal_masks(G, 2)",
        "AssertionError G/Phi(G) is not elementary abelian: the coordinates are not additive",
    ),
    # the zero vector as a hyperplane's normal: its preimage is all of G
    "index": (
        'G = realize_label("G(32,49)")\n'
        'with mock.patch.object(structures, "_hyperplanes", lambda p, d: np.zeros((1, d), dtype=np.int64)):\n'
        "    structures._frattini_maximal_masks(G, 2)",
        "AssertionError a hyperplane's preimage is not a subgroup of index p",
    ),
}
FORGED_PRELUDE = """
from unittest import mock
import numpy as np
from ddks import structures
from ddks.group_core import parse_presentation, realize, realize_label
"""


@pytest.mark.parametrize("premise", FORGED_FRATTINI)
def test_frattini_premises_raise_on_forged_inputs(premise):
    snippet, message = FORGED_FRATTINI[premise]
    kind, text = message.split(" ", 1)
    with pytest.raises({"ValueError": ValueError, "AssertionError": AssertionError}[kind]) as raised:
        exec(FORGED_PRELUDE + snippet, {})
    assert str(raised.value) == text
    assert raised_under_optimize(FORGED_PRELUDE + snippet) == message


def cyclic(order: int) -> FiniteGroup:
    return realize(parse_presentation(f"gens: x\nrel: x^{order}"))


INPUT_CHECK_PRELUDE = """
import numpy as np
from ddks import structures
from ddks.automorphisms import automorphism_group, orbit_count
from ddks.group_core import Homomorphism, get_presentation, parse_presentation, realize, realize_label
from ddks.homology import h1_of_surface
from ddks.invariants import fibration_data
from ddks.structures import (
    DDKStructure, StructureType, bulk_relator_filter, example_structure, generation_mask_filter, genus2_rows,
    inner_automorphism_table, pack_rows, relations_for_type, structure_from_dict, unpack_keys, verify_structure,
)
from ddks.symplectic import induced_space, symplectic_structure_rows, verify_reduced

G = realize_label("G(32,49)")
row = np.array([example_structure(G).elements], dtype=np.uint8)
"""


@pytest.mark.parametrize(
    "snippet, message",
    [
        (
            'orbit_count(G, np.repeat(row, 2, axis=0), automorphism_group(G, get_presentation("G(32,49)")), "sample")',
            "ValueError orbit_count needs pairwise distinct rows; two checked rows are equal",
        ),
        (
            'orbit_count(G, symplectic_structure_rows(G)[:1152], automorphism_group(G, get_presentation("G(32,49)")), "full")',
            "ValueError freeness 'full' needs the very rows a route returned for this group",
        ),
        ("unpack_keys(np.array([1 << 63], dtype=np.uint64))", f"ValueError row keys hold 54 bits, got the key {1 << 63}"),
        ('inner_automorphism_table(realize(parse_presentation("gens: x\\nrel: x^65")))',
         "ValueError search cap is order 64"),
        ("genus2_rows(G, [(40, 0)])", "ValueError element index out of range for the group"),
        ('Homomorphism(parse_presentation("gens: x\\nrel: x^2"), G, (1.5,))',
         "ValueError images must be element indices, got [1.5]"),
        ("verify_structure(G, [1.5] + row[0, 1:].tolist(), StructureType(2, 2))",
         "ValueError elements must be element indices, got [1.5, 2, 14, 13, 13, 14, 3, 4, 5]"),
        ('structure_from_dict(G, {"b": True, "n": 2, "elements": row[0].tolist()})',
         "ValueError malformed structure data: b and n must be integers, got [True, 2]"),
        ("StructureType(2.5, 2)", "ValueError b and n must be integers, got [2.5, 2]"),
        ("DDKStructure(G, StructureType(2, 2), (0,) * 9)", "ValueError not a structure: o(z) >= 2 violated"),
        ('fibration_data(realize(get_presentation("G(32,49)")), example_structure(G))',
         "ValueError the structure lies in another group"),
        ('h1_of_surface(realize(get_presentation("G(32,49)")), example_structure(G))',
         "ValueError the structure lies in another group"),
        ("pack_rows(G, row.tolist())", "ValueError rows must be a 2-D array, got list"),
        ("generation_mask_filter(G, row.tolist())", "ValueError rows must be a 2-D array, got list"),
        ("bulk_relator_filter(G, row.tolist(), relations_for_type(StructureType(2, 2)))",
         "ValueError rows must be a 2-D array, got list"),
        ("verify_reduced(induced_space(G), (99,) * 8)",
         "ValueError vectors must lie in V, integers in 0 .. 15, got [99, 99, 99, 99, 99, 99, 99, 99]"),
        ('automorphism_group(G, parse_presentation("gens: x\\nrel: x^2"))',
         "ValueError presentation does not match the realization"),
        ('orbit_count(G, symplectic_structure_rows(G)[:1000], automorphism_group(G, get_presentation("G(32,49)")))',
         "AssertionError |Aut| = 1152 does not divide 1000 structures"),
        ('structures._search_setup = lambda G, mode: ("full", (1,), None)\n'
         'structures.prestructure_report(realize_label("S4"))',
         "AssertionError the z pool is not closed under Inn(G)"),
        ("structures.prestructure_relations = lambda: ()\n"
         'structures._search_setup(realize_label("G(32,6)"), "auto")',
         "AssertionError the abelian-quotient lemma needs R4 = r11 t21 r11^-1 t21^-1 z"),
    ],
    ids=[
        "repeated-rows", "uncertified-rows", "key-above-54-bits", "inn-search-cap", "cell-out-of-range",
        "float-image", "float-element", "bool-b", "float-b", "not-a-structure", "fibration-other-group",
        "homology-other-group", "pack-list", "generation-list", "relator-list", "reduced-out-of-range",
        "aut-generator-count", "orbit-divisibility", "pool-not-closed", "r4-premise",
    ],
)
def test_input_checks_raise_under_optimize(snippet, message):
    assert raised_under_optimize(INPUT_CHECK_PRELUDE + snippet) == message


def test_caps_raise_value_errors():
    z65 = cyclic(65)
    with pytest.raises(ValueError, match="search cap"):
        structure_rows(z65, T22)
    with pytest.raises(ValueError, match="search cap"):
        list(iter_prestructure_tuples(z65, mode="full"))
    with pytest.raises(ValueError, match="order <= 64"):
        generation_mask_filter(z65, np.zeros((1, 9), dtype=np.uint8))
    with pytest.raises(ValueError, match="order <= 64"):
        maximal_subgroup_masks(z65)
    with pytest.raises(ValueError, match="automorphism search cap"):
        automorphism_group(cyclic(33), parse_presentation("gens: x\nrel: x^33"))
    with pytest.raises(ValueError, match="certifier cap is order 256"):
        bulk_relator_filter(cyclic(257), np.zeros((1, 9), dtype=np.uint8), relations_for_type(T22))
    with pytest.raises(ValueError, match="search cap"):
        inner_automorphism_table(z65)
    with pytest.raises(ValueError, match="stabilizer masks hold 64"):
        genus2_rows(cyclic(4), [(2, 0)], np.tile(np.arange(4, dtype=np.uint8), (65, 1)))


def test_generation_mask_filter_cyclic():
    z6 = realize(parse_presentation("gens: x\nrel: x^6"))
    rows = np.array([[g] for g in range(6)], dtype=np.uint8)
    ok = generation_mask_filter(z6, rows)
    assert [bool(v) for v in ok] == [z6.element_order[g] == 6 for g in range(6)]


def scan_generation_mask(G: FiniteGroup, rows: np.ndarray) -> np.ndarray:
    """The oracle for `generation_mask_filter`: each row's element set as
    one uint64, tested against every maximal subgroup in turn."""
    maximal = maximal_subgroup_masks(G)
    masks = np.zeros(len(rows), dtype=np.uint64)
    one = np.uint64(1)
    for col in range(rows.shape[1]):
        masks |= one << rows[:, col].astype(np.uint64)
    ok = np.ones(len(rows), dtype=bool)
    for m in maximal:
        ok &= (masks & ~np.uint64(m)) != 0
    return ok


def generation_rows(G: FiniteGroup, columns: int, seed: int) -> np.ndarray:
    """Seeded random rows, then as many drawn inside random maximal subgroups."""
    rng = np.random.default_rng(seed)
    inside = []
    for m in rng.choice(maximal_subgroup_masks(G), size=200):
        members = [x for x in range(G.order) if int(m) >> x & 1]
        inside.append(rng.choice(members, size=columns))
    free = rng.integers(0, G.order, size=(200, columns))
    return np.concatenate([free, np.array(inside)]).astype(np.uint8)


@pytest.mark.parametrize("label", ["S4", "A4", "Q8", "G(32,49)", "G(32,50)", "order 64"])
def test_generation_filter_matches_subgroup_scan(label):
    G, _ = certifier_group(label)
    for columns in (5, 9):
        rows = generation_rows(G, columns, seed=columns)
        want = scan_generation_mask(G, rows)
        assert want.any() and not want.all(), columns
        assert np.array_equal(generation_mask_filter(G, rows), want), columns
        assert np.array_equal(generation_mask_filter(G, rows[::-1].T.copy().T), want[::-1])


def test_generation_filter_on_the_strong_generation_slices(H5, rows_cache, monkeypatch):
    rows = rows_cache.backtrack("G(32,49)")[::61]
    monkeypatch.setattr("ddks.structures._CHUNK", 1000)  # several partial chunks
    for cols in ([0, 1, 2, 3, 8], [4, 5, 6, 7, 8], [0, 2, 4, 8], [1, 8]):
        part = rows[:, cols]
        want = scan_generation_mask(H5, part)
        assert np.array_equal(generation_mask_filter(H5, part), want), cols
    assert not scan_generation_mask(H5, rows[:, [1, 8]]).all()


def test_generation_filter_caps(monkeypatch):
    s4 = realize_label("S4")
    with pytest.raises(ValueError, match="out of range"):
        generation_mask_filter(s4, np.full((1, 9), 24, dtype=np.uint8))
    empty = generation_mask_filter(s4, np.zeros((0, 9), dtype=np.uint8))
    assert empty.dtype == bool and empty.shape == (0,)
    monkeypatch.setattr(structures, "maximal_subgroup_masks", lambda G: [0] * 65)
    with pytest.raises(ValueError, match="64 maximal subgroups, got 65"):
        generation_mask_filter(s4, np.zeros((1, 9), dtype=np.uint8))


@pytest.mark.parametrize("label", ["S4", "G(32,49)", "order 64"])
def test_generation_filter_in_every_width(label, monkeypatch):
    # pairs of columns are gathered together and an odd last column alone;
    # the rows that generate are sorted first, so that some 16-row chunks
    # stop early and the rest run to the end
    G, _ = certifier_group(label)
    monkeypatch.setattr("ddks.structures._CHUNK", 16)
    for columns in range(1, 10):
        rows = generation_rows(G, columns, seed=20 + columns)
        want = scan_generation_mask(G, rows)
        order = np.argsort(~want, kind="stable")
        rows, want = rows[order], want[order]
        assert not want.all(), columns
        for variant in (rows, rows.astype(np.int64), np.asfortranarray(rows), rows[:, ::-1]):
            assert np.array_equal(generation_mask_filter(G, variant), want), columns
        assert np.array_equal(generation_mask_filter(G, rows[::-3]), want[::-3]), columns
        assert np.array_equal(generation_mask_filter(G, rows[1:]), want[1:]), columns  # a view at an offset
    empty = generation_mask_filter(G, np.zeros((3, 0), dtype=np.uint8))
    assert empty.tolist() == [False] * 3


def test_generation_filter_stops_a_chunk_once_every_row_generates(H5, monkeypatch):
    rows = generation_rows(H5, 9, seed=29)
    want = scan_generation_mask(H5, rows)
    order = np.argsort(~want, kind="stable")
    rows, want = rows[order], want[order]
    # a chunk takes the pair gathers up to the first prefix of columns on
    # which all its rows generate, and all five gathers if there is none
    expected = 0
    for start in range(0, len(rows), 16):
        chunk = rows[start:start + 16]
        expected += next((k for k in range(1, 5) if scan_generation_mask(H5, chunk[:, :2 * k]).all()), 5)
    assert 5 * len(range(0, len(rows), 16)) > expected
    monkeypatch.setattr("ddks.structures._CHUNK", 16)
    gathers = []
    take = np.take
    monkeypatch.setattr(np, "take", lambda *args, **kwargs: gathers.append(1) or take(*args, **kwargs))
    assert np.array_equal(generation_mask_filter(H5, rows), want)
    assert len(gathers) == expected


def test_generation_filter_on_order_256():
    big, lifted = product_group_and_lift(8)  # G(32,49) x Z8
    assert big.order == 256 and len(maximal_subgroup_masks(big)) == 31
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 256, size=(120, 9)).astype(np.uint8)
    rows[:60, :8] = lifted[:8]  # these generate iff z's image generates Z8
    want = np.array([len(big.subgroup_generated(row)) == big.order for row in rows.tolist()])
    assert want[:60].any() and not want[:60].all() and want[60:].any()
    assert np.array_equal(generation_mask_filter(big, rows), want)


# ------------------------------------------------ backtracking searches

def small_group(variant: str) -> FiniteGroup:
    return realize(parse_presentation(extra_special_text(1, 2, variant)))


def oracle_prestructures(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Independent pruned exhaustive search, assigning slots in the fixed
    order r11, t11, r21, t21, r22, t22, r12, t12 and checking each
    conjugacy relation as soon as its slots are assigned."""
    order = [0, 1, 4, 5, 6, 7, 2, 3]
    rels = prestructure_relations()
    ready: list[list[Word]] = [[] for _ in range(8)]
    for _, rel in rels:
        slots = {abs(letter) - 1 for letter in rel if abs(letter) - 1 != 8}
        pos = max(order.index(s) for s in slots)
        ready[pos].append(rel)
    found = []
    assign = [0] * 9

    def extend(pos: int):
        if pos == 8:
            found.append(tuple(assign))
            return
        slot = order[pos]
        for g in range(G.order):
            assign[slot] = g
            if all(G.evaluate_word(rel, assign) == 0 for rel in ready[pos]):
                extend(pos + 1)
        assign[slot] = 0

    for z in range(G.order):
        if G.element_order[z] < 2:
            continue
        assign[8] = z
        extend(0)
    return sorted(found)


def dfs_key(row):
    """The order of a full-mode depth-first search: z (the candidates in
    ascending order), r11, then the search's variable order t21, r12, t22,
    t11, r21, t12, r22."""
    return row[8], row[0], row[5], row[2], row[7], row[1], row[4], row[3], row[6]


@pytest.mark.parametrize("variant", ["H", "G"])
def test_prestructures_dual_route_order8(variant):
    G = small_group(variant)
    expected = oracle_prestructures(G)
    stream = list(iter_prestructure_tuples(G, mode="full"))
    assert stream == sorted(stream, key=dfs_key)
    assert sorted(stream) == expected
    assert list(iter_prestructure_tuples(G, mode="auto")) == stream  # "full" to order 24


def test_prestructures_abelian_empty():
    z4 = realize(parse_presentation("gens: x\nrel: x^4"))
    assert list(iter_prestructure_tuples(z4, mode="full")) == []
    assert oracle_prestructures(z4) == []


@pytest.mark.parametrize("name", [*SMALL_GROUP_SOURCES, "H", "G"])
def test_reference_matches_the_scalar_oracle(name):
    if name in SMALL_GROUP_SOURCES:
        G = realize(parse_presentation(SMALL_GROUP_SOURCES[name]))
    else:
        G = small_group(name)
    assert reference_prestructures(G) == oracle_prestructures(G)


@pytest.mark.parametrize("name", ["S3", "D8"])
def test_reference_matches_the_oracle_on_a_relator_subset(monkeypatch, name):
    # no small group has a prestructure; under R1-R5 and T1-T5 alone these
    # have 648 and 24 576 tuples, so the comparison sees every slot
    part = tuple((label, w) for label, w in prestructure_relations() if label in SUBSET_LABELS)
    monkeypatch.setitem(globals(), "prestructure_relations", lambda: part)  # for the oracle
    G = realize(parse_presentation(SMALL_GROUP_SOURCES[name]))
    found = reference_prestructures(G, part)
    assert len(found) >= 600
    assert found == oracle_prestructures(G)


def test_prestructure_report_s4_empty():
    G = realize_label("S4")
    rep_full = prestructure_report(G, mode="full")
    assert rep_full.count == 0 and rep_full.mode == "full"
    assert prestructure_report(G, mode="auto") == rep_full
    for mode in ("socle", "bogus"):
        with pytest.raises(ValueError, match="unknown search mode"):
            prestructure_report(G, mode=mode)


def test_socle_mode_computes_the_normal_subgroups_once(monkeypatch):
    """The shortcut walks the normal subgroups and then meets the
    non-trivial ones for the socle: one list of them, from one normal
    closure per non-identity element, serves both."""
    calls = {"normal_closure": [], "join_closure": []}
    for name, calls_of in calls.items():
        method = getattr(FiniteGroup, name)
        monkeypatch.setattr(
            FiniteGroup, name,
            lambda self, arg, method=method, calls_of=calls_of: calls_of.append(self) or method(self, arg),
        )
    G = realize(get_presentation("G(32,6)"))
    report = prestructure_report(G, mode="auto")
    assert report.mode == "socle" and report.count == 0 and report.socle_z_candidates == 1
    assert calls["normal_closure"].count(G) == G.order - 1
    assert calls["join_closure"].count(G) == 1


def test_the_shortcut_searches_in_full_after_a_non_empty_quotient():
    """G(32,49) x Z2 has G(32,49), which has prestructures, as a quotient:
    the scan stops there and every z is searched.  Its socle is trivial (two
    central involutions span two minimal normal subgroups), so a shortcut
    that read past that quotient would search no z at all."""
    G, _ = product_group_and_lift()
    searched, zs, orders = structures._search_setup(G, "auto")
    assert (searched, orders) == ("full", (32, 32))
    assert zs == tuple(range(1, 64)) and len(G.socle()) == 1


EXTRA_SPECIAL = ("G(32,49)", "G(32,50)")


def test_the_theorem_at_orders_24_and_32_by_search_alone():
    """The paper's bound at orders 24 and 32, by the engine alone, without
    the CCT lemma: of the 57 catalog groups only the two extra-special
    ones have prestructures, 5 160 960 each.  Those two are the positive
    control of the decider's orbit search: one that found no row would
    report them empty.  Their samples are the head of the full stream."""
    labels = list(catalog_labels())
    assert len(labels) == 57 and set(EXTRA_SPECIAL) <= set(labels)
    for label in labels:
        G = realize_label(label)
        report = prestructure_report(G, "full")
        assert report.mode == "full" and report.quotient_orders_checked is None, label
        if label in EXTRA_SPECIAL:
            assert report.count == 5160960, label
            assert report.sample == tuple(islice(iter_prestructure_tuples(G, "full"), 10)), label
        else:
            assert (report.count, report.sample) == (0, ()), label


def test_abelian_groups_have_no_prestructures():
    """The lemma behind the shortcut's abelian quotients, checked against
    the engine: R4 makes z a commutator, so z = 1 in an abelian group and
    the full stream is empty on every abelian group of the property suite."""
    abelian = [
        G for G in (realize(parse_presentation(source)) for source in SMALL_GROUP_SOURCES.values())
        if G.is_abelian
    ]
    assert len(abelian) >= 10 and max(G.order for G in abelian) == 8
    for G in abelian:
        assert list(iter_prestructure_tuples(G, "full")) == []


@pytest.mark.parametrize("change", ["dropped", "z inverted"])
def test_the_abelian_lemma_checks_its_premise(monkeypatch, change):
    """The shortcut skips abelian quotients only while R4 reads
    r11 t21 r11^-1 t21^-1 z; a relator list without it raises."""
    r4 = commutator(Word.gen(0), Word.gen(5)) * Word.gen(8).inverse()  # r11 t21 r11^-1 t21^-1 z^-1
    changed = tuple(
        (label, r4 if label == "R4" else w)
        for label, w in prestructure_relations()
        if not (label == "R4" and change == "dropped")
    )
    monkeypatch.setattr(structures, "prestructure_relations", lambda: changed)
    with pytest.raises(AssertionError, match="needs R4"):
        structures._search_setup(realize_label("G(32,6)"), "auto")


def test_prestructure_report_refuses_a_pool_not_closed_under_inn(monkeypatch):
    """Emptiness on orbit representatives needs a z pool that Inn(G)
    keeps: in S4, whose centre is trivial, one involution is not such a pool."""
    G = realize_label("S4")
    z = next(x for x in G.elements() if G.element_order[x] == 2)
    monkeypatch.setattr(structures, "_search_setup", lambda G, mode: ("full", (z,), None))
    with pytest.raises(AssertionError, match="not closed under Inn"):
        prestructure_report(G, "full")


def test_prestructure_stream_objects(H5):
    # the order-8 groups have no prestructures, so the stream is read on H5
    stream = list(islice(iter_prestructure_tuples(H5), 50))
    assert len(stream) == 50
    for p in stream:
        assert len(p) == 9
        assert verify_prestructure(H5, p)[0]


def test_no_structures_below_order_32():
    for make in ("H", "G"):
        G = small_group(make)
        assert len(structure_rows(G, T22)) == 0
    s4 = realize_label("S4")
    assert len(structure_rows(s4, StructureType(2, 4))) == 0
    # |Inn| = 24 (trivial centre) and |Inn| = 1 (abelian)
    z4 = cyclic(4)
    assert len(inner_automorphism_table(s4)) == 24 and len(inner_automorphism_table(z4)) == 1
    for G in (s4, z4):
        rows = structure_rows(G, T22)
        assert rows.dtype == np.uint8 and rows.shape == (0, 9)


def test_structure_cell_contains_example(H5):
    s = example_structure(H5)
    arr = genus2_rows(H5, [(s.z, s.elements[0])])
    assert arr.dtype == np.uint8 and arr.shape[1] == 9
    assert s.elements in set(map(tuple, arr.tolist()))
    assert bulk_relator_filter(H5, arr, relations_for_type(T22)).all()
    assert generation_mask_filter(H5, arr).all()
    # in a group whose commutator subgroup is generated by z, every
    # structure's z slot is forced to the central involution
    assert (arr[:, -1] == s.z).all()


def test_prestructure_stream_prefix_in_dfs_order(H5):
    stream = list(islice(iter_prestructure_tuples(H5, mode="full"), 70000))
    assert len(stream) == 70000
    assert stream == sorted(set(stream), key=dfs_key)
    assert all(verify_prestructure(H5, row)[0] for row in stream[::997])


def test_genus2_rows_refuses_cells_outside_the_group(H5):
    for cell in ((40, 0), (0, 32), (-1, 0), (300, 0)):
        with pytest.raises(ValueError, match="element index out of range for the group"):
            genus2_rows(H5, [cell])
    with pytest.raises(ValueError, match="must be integers"):
        genus2_rows(H5, [(1.5, 0)])


def test_cell_rows_match_structure_rows(H5, rows_cache):
    s = example_structure(H5)
    cell = genus2_rows(H5, [(s.z, s.elements[0])])
    rows = rows_cache.backtrack("G(32,49)")
    mine = rows[(rows[:, 8] == s.z) & (rows[:, 0] == s.elements[0])]
    assert len(cell) == len(mine) > 0
    assert np.array_equal(cell[np.lexsort(cell.T[::-1])], mine)


@pytest.mark.parametrize("budget", [1, 3])
@pytest.mark.parametrize("label", ["H", "G", "S4"])
def test_row_budget_does_not_change_output_small(monkeypatch, label, budget):
    G = small_group(label) if len(label) == 1 else realize_label(label)
    cells = [(z, r11) for z in range(1, G.order) for r11 in range(G.order)]
    searches = (genus2_rows, prestructure_rows)
    expected = [search(G, cells) for search in searches]
    monkeypatch.setattr("ddks.structures._ROW_BUDGET", budget)
    for search, want in zip(searches, expected):
        got = search(G, cells)
        assert got.dtype == np.uint8 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("structure_mode", [True, False])
def test_row_budget_does_not_change_output_order32(monkeypatch, H5, structure_mode):
    s = example_structure(H5)
    cells = [(s.z, s.elements[0])]
    search = genus2_rows if structure_mode else prestructure_rows
    expected = search(H5, cells)
    assert len(expected) > 0
    monkeypatch.setattr("ddks.structures._ROW_BUDGET", 97)
    got = search(H5, cells)
    assert got.dtype == np.uint8 and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("label", ["Z4", "S4"])
def test_search_empties_mid_way(label):
    G = cyclic(4) if label == "Z4" else realize_label(label)
    cells = [(z, r11) for z in range(1, G.order) for r11 in range(G.order)]
    for search in (genus2_rows, prestructure_rows):
        rows = search(G, cells)
        assert rows.dtype == np.uint8 and rows.shape == (0, 9)
    assert genus2_rows(G, []).shape == (0, 9)


# ------------------------------------------------------ the search plan

# r11 and z come from the cells; the levels assign the other seven slots
SEARCH_ORDER = ["r11", "z", "t21", "r12", "t22", "t11", "r21", "t12", "r22"]


@pytest.mark.parametrize(
    "relators",
    [prestructure_relations(), labeled_relations_for_type(T22)],
    ids=["prestructure", "structure"],
)
def test_plan_closes_each_relator_once_at_its_last_slot(relators):
    names = slot_names(2)
    plan = structures._search_plan(relators)
    assert [names[level.slot] for level in plan] == SEARCH_ORDER[2:]
    placed = {}  # label -> [(its target slot, the level its test runs at)]
    for i, level in enumerate(plan):
        targets = [program.target for program in level.programs]
        assert len(set(targets)) == len(targets) and all(t >= i for t in targets)
        for program in level.programs:
            assert len(program.tests) == len(program.labels) > 0
            for label in program.labels:
                placed.setdefault(label, []).append((names[plan[program.target].slot], i))
    assert len(placed) == len(relators) in (20, 22)
    for label, rel in relators:
        slots = {names[abs(l) - 1] for l in rel}
        last = max(slots, key=SEARCH_ORDER.index)
        # level i's columns hold r11, z and the slots of the levels below i
        first = max([0] + [SEARCH_ORDER.index(s) - 1 for s in slots - {last}])
        assert placed[label] == [(last, first)], label
    # R7 reads r12, r21 and z, so it empties r22's candidates a level early
    assert placed["R7"] == [("r22", SEARCH_ORDER.index("t12") - 2)]


def test_plan_rejects_relators_it_cannot_solve():
    r11, t21, z = (Word.gen(slot_index(i, k, 1, 2)) for i, k in ((1, "r"), (2, "t"), (0, "z")))
    with pytest.raises(ValueError, match="relator X"):
        structures._search_plan((("X", t21 * t21 * r11),))
    with pytest.raises(ValueError, match="relator Y"):
        structures._search_plan((("Y", commutator(r11, z)),))  # closes on a cell


def test_a_column_with_an_empty_pending_mask_is_never_expanded(monkeypatch):
    # on G(32,6) every partial tuple that reaches t12 dies at r22, and R7
    # says so before t12 is expanded; every mask a level receives is live
    G = realize_label("G(32,6)")
    expanded, carried = set(), []
    expand, descend = structures._expand, structures._descend

    def spy_expand(f, masks, counts, slot):
        expanded.add(slot_names(2)[slot])
        return expand(f, masks, counts, slot)

    def spy_descend(tab, plan, f, level, pending, *rest):
        carried.extend(bool((m != 0).all()) for m in pending.values())
        return descend(tab, plan, f, level, pending, *rest)

    monkeypatch.setattr(structures, "_expand", spy_expand)
    monkeypatch.setattr(structures, "_descend", spy_descend)
    assert prestructure_report(G, "full").count == 0
    assert expanded == {"t21", "r12", "t22", "t11", "r21"}
    assert len(carried) > 10 and all(carried)


# sha256 prefixes of the ordered streams, as uint8 rows, pinned before the
# search ran its tests at the first level that knows their inputs
SUBSET_STREAMS = [("S3", 648, "3f9ddf678dceb85c"), ("D8", 24576, "6a32703a711d3658"), ("Q8", 24576, "1e2419c93ad8fb07")]
PREFIX_STREAMS = [("G(32,49)", "1d80ea762d04bb79"), ("G(32,50)", "963c73e9dc7e54f4")]
REPRESENTATIVE_STREAMS = [("G(32,49)", "2fd030f06a6d3c43"), ("G(32,50)", "f950444ddefdd6e3")]


def stream_digest(rows) -> str:
    return hashlib.sha256(np.array(list(rows), dtype=np.uint8).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize(("name", "count", "prefix"), SUBSET_STREAMS)
def test_prestructure_stream_digest_on_a_relator_subset(name, count, prefix):
    G = realize(parse_presentation(SMALL_GROUP_SOURCES[name]))
    part = tuple((label, w) for label, w in prestructure_relations() if label in SUBSET_LABELS)
    stream = list(iter_prestructure_tuples(G, "full", relators=part))
    assert len(stream) == count
    assert stream_digest(stream) == prefix
    with pytest.raises(ValueError, match="mode 'full'"):
        next(iter_prestructure_tuples(G, "auto", relators=part))


@pytest.mark.parametrize(("label", "prefix"), PREFIX_STREAMS)
def test_prestructure_stream_prefix_digest(label, prefix):
    stream = islice(iter_prestructure_tuples(realize_label(label), "full"), 100000)
    assert stream_digest(stream) == prefix


@pytest.mark.parametrize(("label", "prefix"), REPRESENTATIVE_STREAMS)
def test_inn_representative_stream_digest(label, prefix):
    G = realize_label(label)
    cells = [(z, r11) for z in G.elements() if G.element_order[z] == 2 for r11 in G.elements()]
    rows = genus2_rows(G, cells, inner_automorphism_table(G))
    assert len(rows) == 138240
    assert stream_digest(rows) == prefix


@pytest.mark.parametrize("part", [slice(0, 8), slice(8, 15), slice(15, 22)])
def test_plan_matches_brute_force_on_relator_subsets(part):
    # "E" closes at t21 with (WU)^-1 empty, so the identity register is read
    G = realize(parse_presentation(SMALL_GROUP_SOURCES["S3"]))
    w_r11, w_t21, w_z = (Word.gen(slot_index(i, k, 1, 2)) for i, k in ((1, "r"), (2, "t"), (0, "z")))
    extra = ("E", w_t21 * commutator(w_r11, w_z) * w_t21.inverse())
    relators = labeled_relations_for_type(T22)[part] + (extra,)
    cells = [(z, r11) for z in (1, 3) for r11 in range(G.order)]
    got = [block.T for block in structures._genus2_blocks(G, cells, relators)]
    free = np.indices((G.order,) * 7).reshape(7, -1).T  # t21, r12, ..., r22 in DFS order
    want = []
    for z, r11 in cells:
        rows = np.zeros((len(free), 9), dtype=np.uint8)
        rows[:, 8], rows[:, 0], rows[:, [5, 2, 7, 1, 4, 3, 6]] = z, r11, free
        want.append(rows[bulk_relator_filter(G, rows, [w for _, w in relators])])
    assert len(np.concatenate(want)) > 0
    assert np.concatenate(got).tobytes() == np.concatenate(want).tobytes()


@pytest.mark.parametrize("label", ["S4", "Q8", "G(32,49)"])
def test_conjugator_table_matches_brute_force(label):
    G = realize(parse_presentation(SMALL_GROUP_SOURCES[label])) if label == "Q8" else realize_label(label)
    C = structures._Tables(G).C.reshape(64, 64)
    for v in range(G.order):
        for d in range(G.order):
            want = sum(1 << x for x in G.elements() if G.mul(G.mul(x, v), G.inverse[x]) == d)
            assert int(C[v, d]) == want, (v, d)


def test_full_vs_simplified_on_class_two(H5):
    assert H5.nilpotency_class() == 2
    rng = np.random.default_rng(7)
    rand = rng.integers(0, 32, size=(20000, 9), dtype=np.uint8)
    s = example_structure(H5)
    rows = np.vstack([rand, np.array([s.elements], dtype=np.uint8)])
    full = bulk_relator_filter(H5, rows, relations_for_type(T22))
    simp = bulk_relator_filter(H5, rows, simplified_relations_for_type(T22))
    assert (full == simp).all()
    assert full[-1]


# ------------------------------------------------- the relator certifier

RELATOR_LISTS = {
    "structure": relations_for_type(T22),
    "prestructure": [w for _, w in prestructure_relations()],
    "simplified": simplified_relations_for_type(T22),
}


def certifier_group(label: str) -> tuple[FiniteGroup, list[tuple[int, ...]]]:
    """The group, and rows of it that satisfy every structure relator."""
    if label in ("order 64", "order 256"):
        G, lifted = product_group_and_lift(int(label.split()[1]) // 32)
        return G, [lifted]
    if label == "Q8":
        return realize(parse_presentation(SMALL_GROUP_SOURCES[label])), []
    G = realize_label(label)
    return G, [example_structure(G).elements] if G.order == 32 else []


def certifier_rows(G: FiniteGroup, good: list[tuple[int, ...]], seed: int) -> np.ndarray:
    """Seeded random rows; rows inside a cyclic subgroup with z = 1, which
    satisfy all three relator lists; `good`, and each of its rows with one
    entry changed."""
    rng = np.random.default_rng(seed)
    out = [rng.integers(0, G.order, size=(150, 9))]
    for g in rng.integers(0, G.order, size=50):
        powers, x = [0], int(g)
        while x:
            powers.append(x)
            x = G.mul(x, int(g))
        row = rng.choice(powers, size=9)
        row[8] = 0
        out.append(row[None, :])
    for row in good:
        near = np.repeat(np.array([row]), 21, axis=0)
        near[np.arange(1, 21), rng.integers(0, 9, size=20)] = rng.integers(0, G.order, size=20)
        out.append(near)
    return np.concatenate(out).astype(np.uint8)


def word_mask(G: FiniteGroup, rows: np.ndarray, relators) -> np.ndarray:
    """The certifier's answer, one `evaluate_word` per row and relator."""
    return np.array(
        [all(G.evaluate_word(w, row) == 0 for w in relators) for row in rows.tolist()],
        dtype=bool,
    )


@pytest.mark.parametrize("label", ["S4", "Q8", "G(32,49)", "G(32,50)", "order 64", "order 256"])
def test_certifier_matches_word_evaluation(label):
    G, good = certifier_group(label)
    rows = certifier_rows(G, good, seed=11)
    for name, relators in RELATOR_LISTS.items():
        want = word_mask(G, rows, relators)
        assert want.any() and not want.all(), name
        assert np.array_equal(bulk_relator_filter(G, rows, relators), want), name


def test_certifier_edge_cases():
    G = realize_label("S4")
    rows = certifier_rows(G, [], seed=5)
    words = [
        Word((1, 2, -1, -2, 1)),  # [a, b] overlaps [b, a^-1]
        Word((1, 2, -1)),  # a conjugate
        Word((1, 2, -1, 3)),  # a conjugate, then a letter
        Word((-1, 2, 1)),  # a conjugate by an inverse letter
        Word((1, 2, -1, -2, -1)),  # a commutator, then an inverse letter
        Word((1, 2, 1)),  # not a conjugate
        Word((-1, 2, -1)),
        Word((2, 1, 2, -1, -2)),  # a commutator after one letter
        Word((1, 2, -1, -2, 1, 2, -1, -2)),
        Word((-1, -2, 1, 2, 9)),
        Word((3,)),
        Word((9, 9)),
    ]
    for w in words:
        assert np.array_equal(bulk_relator_filter(G, rows, [w]), word_mask(G, rows, [w])), w
    want = word_mask(G, rows, words)
    assert want.any() and not want.all()
    assert np.array_equal(bulk_relator_filter(G, rows, words + [Word(())]), want)
    assert bulk_relator_filter(G, rows, [Word(())]).all()
    assert bulk_relator_filter(G, rows, []).all()
    empty = bulk_relator_filter(G, np.zeros((0, 9), dtype=np.uint8), relations_for_type(T22))
    assert empty.dtype == bool and empty.shape == (0,)
    with pytest.raises(ValueError, match="out of range"):
        bulk_relator_filter(G, rows + 24, words)
    with pytest.raises(ValueError, match="relators use 5 columns, the rows have 2"):
        bulk_relator_filter(G, rows[:, :2], [Word((1, 5))])


def test_certifier_refuses_rows_that_are_not_integers(H5):
    rows = np.array([example_structure(H5).elements]) + 0.5
    with pytest.raises(ValueError, match="must be integers, got dtype float64"):
        bulk_relator_filter(H5, rows, relations_for_type(T22))
    with pytest.raises(ValueError, match="must be integers, got dtype float64"):
        generation_mask_filter(H5, rows)
    with pytest.raises(ValueError, match="must be integers, got dtype bool"):
        bulk_relator_filter(H5, rows > 1, relations_for_type(T22))


def stage_column(stage: certify.Stage, wide: int) -> int:
    """The row column that wide register `wide` holds, shifted or not."""
    if wide >= len(stage.loads):
        wide = stage.shifts[wide - len(stage.loads)][0]
    return stage.loads[wide]


def test_certifier_program_shape():
    relators = relations_for_type(T22)
    for s in (5, 6, 8):
        width = certify.table_width(s)
        assert width == (3 if s == 5 else 2)
        program = certify._relator_program((tuple(relators),), width)
        (stage,) = program.stages
        assert program.columns == 9
        wide = len(stage.loads) + len(stage.shifts)
        assert all(i < len(stage.loads) and 1 <= m < width for i, m in stage.shifts)
        for k, (table, operands) in enumerate(stage.steps):
            # at most W earlier registers; register p at bits s * (width - 1 - p),
            # so the packed index is below 2^(s * width) <= 2^16
            assert len(operands) == table.width <= width and table.width * s <= 16
            for p, (bank, i) in enumerate(operands):
                shift = 0 if bank or i < len(stage.loads) else stage.shifts[i - len(stage.loads)][1]
                assert shift == table.width - 1 - p
                assert i < (k if bank else wide)
                assert bank == 0 or p == table.width - 1  # a chain's previous value, packed last
        # each relator over at most W columns sits in exactly one flags
        # table, tested alone; each wider one has its own test of one or two
        # values
        flags = [k for k, (table, _) in enumerate(stage.steps) if table.flags]
        folded = sorted(
            tuple((stage_column(stage, operands[abs(l) - 1][1]) + 1) * (1 if l > 0 else -1) for l in w)
            for table, operands in (stage.steps[k] for k in flags)
            for w in table.words
        )
        narrow = [w.letters for w in relators if len({abs(l) for l in w.letters}) <= width]
        assert folded == sorted(narrow), s
        values = [t for t in stage.tests if not stage.steps[t[0]][0].flags]
        assert sorted(stage.tests) == sorted([(k,) for k in flags] + values)
        assert len(values) == len(relators) - len(narrow)
        if s == 5:  # 11 flags tables, 13 value tables: 24 gathers, 18 tests
            assert len(stage.steps) <= 25 and len(stage.tests) == 18
    # an inverse letter is a one-column flags table
    assert certify._relator_program(((Word((-3,)),),), 3) == certify.Program(
        3, (certify.Stage((2,), (), ((certify.Table(1, ((-1,),), True), ((0, 0),)),), ((0,),)),)
    )


def step_indices(G: FiniteGroup, stage: certify.Stage, row: Sequence[int]) -> list[int]:
    """The table index each step of `stage` reads on `row`, by the
    stage's register semantics, one row at a time."""
    s = certify.register_bits(G.order)
    wide = [int(row[c]) for c in stage.loads]
    wide += [wide[i] << s * m for i, m in stage.shifts]
    narrow: list[int] = []
    indices = []
    for table, operands in stage.steps:
        index = 0
        for bank, i in operands:
            index |= narrow[i] if bank else wide[i]
        indices.append(index)
        narrow.append(int(certify._group_table(G, s, table)[index]))
    return indices


def test_a_flipped_table_entry_is_caught(G5, monkeypatch):
    relators = relations_for_type(T22)
    row = np.array([example_structure(G5).elements], dtype=np.uint8)
    assert word_mask(G5, row, relators).all() and bulk_relator_filter(G5, row, relators).all()
    (stage,) = certify._relator_program((tuple(relators),), certify.table_width(5)).stages
    tables = certify._GROUP_TABLES[G5]
    for (table, _), index in zip(stage.steps, step_indices(G5, stage, row[0])):
        original = tables[table]
        flipped = original.copy()
        flipped[index] ^= 1  # a flag set, or another element
        monkeypatch.setitem(tables, table, flipped)
        assert not bulk_relator_filter(G5, row, relators).any(), table
        monkeypatch.setitem(tables, table, original)


@pytest.mark.parametrize("label", ["S4", "G(32,50)"])
def test_certifier_tables_match_word_evaluation(label):
    G = realize_label(label)
    s = certify.register_bits(G.order)
    tables = {
        table
        for relators in RELATOR_LISTS.values()
        for stage in certify._relator_program((tuple(relators),), certify.table_width(s)).stages
        for table, _ in stage.steps
    }
    for table in tables:
        flat = certify._group_table(G, s, table)
        assert flat.dtype == np.uint8 and flat.shape == (1 << s * table.width,)
        points = list(product(range(G.order), repeat=table.width))
        index = [sum(x << s * (table.width - 1 - p) for p, x in enumerate(xs)) for xs in points]
        values = [[G.evaluate_word(w, xs) for xs in points] for w in table.words]
        want = np.array(values[0]) if not table.flags else np.any(np.array(values) != 0, axis=0)
        assert np.array_equal(flat[index], want), table
        assert not np.delete(flat, index).any(), table  # no element tuple packs there


LETTERS = st.sampled_from([l for g in range(1, 10) for l in (g, -g)])


@st.composite
def relator_words(draw) -> Word:
    """Words over letters 1-9 of both signs, 0-12 letters long: random
    ones, single inverse letters, and a commutator or a conjugate split
    across the word's wrap-around, so only a rotation shows it whole."""
    shape = draw(st.sampled_from(["random", "inverse letter", "comm", "conj"]))
    if shape == "random":
        return Word(tuple(draw(st.lists(LETTERS, max_size=12))))
    if shape == "inverse letter":
        return Word((-draw(st.integers(1, 9)),))
    a, b = draw(LETTERS), draw(LETTERS)
    core = [a, b, -a, -b] if shape == "comm" else [a, b, -a]
    lets = core + draw(st.lists(LETTERS, max_size=12 - len(core)))
    k = draw(st.integers(1, len(core) - 1))
    return Word(tuple(lets[k:] + lets[:k]))


@lru_cache(maxsize=None)
def hypothesis_rows(label: str) -> tuple[FiniteGroup, np.ndarray]:
    G, good = certifier_group(label)
    return G, certifier_rows(G, good, seed=17)


# s = 5 (tables over 3 registers), 6 and 8 (over 2, so sides of 3 columns
# are chains; at s = 8 a packed index takes all 16 bits)
@pytest.mark.parametrize("label", ["S4", "G(32,50)", "order 64", "order 256"])
@settings(max_examples=60, deadline=None)
@given(relators=st.lists(relator_words(), min_size=1, max_size=4))
def test_certifier_matches_word_evaluation_on_random_words(label, relators):
    G, rows = hypothesis_rows(label)
    assert np.array_equal(bulk_relator_filter(G, rows, relators), word_mask(G, rows, relators))
    assert len(certify._GROUP_TABLES.get(G, {})) <= certify.CACHED_TABLES


def test_certifier_caches_are_bounded(monkeypatch):
    monkeypatch.setattr(certify, "CACHED_TABLES", 3)
    G = realize(parse_presentation(extra_special_text(1, 2, "H")))  # nothing cached on it
    rows = np.array(list(product(range(G.order), repeat=2)))
    built = []
    for k in range(2, 7):  # x^k, one flags table each
        relators = [Word((1,) * k)]
        assert np.array_equal(bulk_relator_filter(G, rows, relators), word_mask(G, rows, relators))
        built += list(certify._GROUP_TABLES[G].keys() - built)
    assert len(built) == 5 and list(certify._GROUP_TABLES[G]) == built[-3:]  # oldest out first
    assert certify._relator_program.cache_info().maxsize == certify.CACHED_PROGRAMS


def test_a_copy_of_a_group_shares_no_derived_table(monkeypatch):
    G = realize(parse_presentation(extra_special_text(1, 2, "H")))  # nothing cached on it
    own = set(vars(G))
    rows = np.array(list(product(range(G.order), repeat=2)))
    relators = [Word((1, 2, -1, -2))]
    maximal = maximal_subgroup_masks(G)
    bulk_relator_filter(G, rows, relators)
    # the group itself gains only its own members, such as `commutators`
    assert all(hasattr(FiniteGroup, name) for name in set(vars(G)) - own)
    h = copy.copy(G)
    assert h not in structures._MAXIMAL_MASKS and h not in certify._GROUP_TABLES
    built = []
    frattini = structures._frattini_maximal_masks
    monkeypatch.setattr(structures, "_frattini_maximal_masks", lambda G, p: built.append(G) or frattini(G, p))
    assert maximal_subgroup_masks(h) == maximal and built == [h]
    assert maximal_subgroup_masks(h) is maximal_subgroup_masks(h) and built == [h]  # kept for h
    assert np.array_equal(bulk_relator_filter(h, rows, relators), bulk_relator_filter(G, rows, relators))
    assert certify._GROUP_TABLES[h] is not certify._GROUP_TABLES[G]
    assert certify._GROUP_TABLES[h].keys() == certify._GROUP_TABLES[G].keys()


def test_a_freed_group_takes_its_tables_with_it():
    G = realize(parse_presentation(extra_special_text(1, 2, "H")))
    q, _ = G.quotient(G.center())  # (Z2)^2, as in the prestructure shortcut
    gc.collect()  # groups freed by earlier tests leave the caches now
    sizes = len(structures._MAXIMAL_MASKS), len(certify._GROUP_TABLES)
    assert len(maximal_subgroup_masks(q)) == 3
    rows = np.array(list(product(range(q.order), repeat=2)))
    assert bulk_relator_filter(q, rows, [Word((1, 2, -1, -2))]).all()
    assert (len(structures._MAXIMAL_MASKS), len(certify._GROUP_TABLES)) == (sizes[0] + 1, sizes[1] + 1)
    freed = weakref.ref(q)
    del q
    gc.collect()
    assert freed() is None
    assert (len(structures._MAXIMAL_MASKS), len(certify._GROUP_TABLES)) == sizes


@pytest.mark.parametrize("chunk", [1, 7])
def test_certifier_chunk_does_not_change_mask(monkeypatch, H5, chunk):
    rows = certifier_rows(H5, [example_structure(H5).elements], seed=3)
    assert len(rows) % 7 != 0
    want = bulk_relator_filter(H5, rows, relations_for_type(T22))
    assert want.any() and not want.all()
    monkeypatch.setattr("ddks.certify._CERTIFY_CHUNK", chunk)
    assert np.array_equal(bulk_relator_filter(H5, rows, relations_for_type(T22)), want)


def test_certifier_is_independent_of_the_search_plan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the certifier used the search plan")

    for name in ("_Tables", "_search_plan", "_compile_level"):
        monkeypatch.setattr(structures, name, refuse)
    G = realize(parse_presentation(extra_special_text(2, 2, "H")))  # nothing cached on it
    rows = certifier_rows(G, [example_structure(G).elements], seed=4)
    for name, relators in RELATOR_LISTS.items():
        assert np.array_equal(bulk_relator_filter(G, rows, relators), word_mask(G, rows, relators)), name


def join_relators(rng: np.random.Generator, columns: int) -> list[Word]:
    """Seeded relators over `columns` letters: commutators, powers and
    conjugates a b a^-1 = c, with the empty word."""
    def letter() -> int:
        return int(rng.integers(1, columns + 1)) * int(rng.choice([1, -1]))

    out = [Word(())]
    for shape in rng.choice(["comm", "power", "conj"], size=3):
        a, b, c = letter(), letter(), letter()
        if shape == "comm":
            out.append(Word((a, b, -a, -b)))
        elif shape == "power":
            out.append(Word((a,) * int(rng.integers(2, 5))))
        else:
            out.append(Word((a, b, -a, -c)))
    return out


@pytest.mark.parametrize("label", ["S4", "G(32,50)"])
@pytest.mark.parametrize("seed", [1, 2, 3, 5])
def test_relator_join_matches_a_scalar_product(label, seed):
    G = realize_label(label)
    rng = np.random.default_rng(seed)
    columns = 3 + seed % 2
    candidates = [rng.permutation(G.order)[:rng.integers(6, 11)] for _ in range(columns)]
    relators = join_relators(rng, columns)
    want = [
        row for row in product(*candidates)
        if all(G.evaluate_word(w, row) == 0 for w in relators)
    ]
    assert want
    rows = certify.relator_join(G, candidates, relators, cap=1 << 16)
    assert rows.dtype == np.uint8 and rows.shape == (len(want), columns)
    assert rows.tolist() == [list(row) for row in want]
    candidates[1] = np.zeros(0, dtype=np.int64)  # an empty column leaves no row
    assert certify.relator_join(G, candidates, relators, cap=1 << 16).shape == (0, columns)


def test_relator_join_cases_with_a_known_answer():
    G = realize_label("S4")
    elements = np.arange(G.order)
    assert len(certify.relator_join(G, [elements] * 3, [], cap=G.order ** 3)) == G.order ** 3
    squares = certify.relator_join(G, [elements], [Word((1, 1))], cap=G.order)
    assert squares[:, 0].tolist() == [x for x in G.elements() if G.element_order[x] <= 2]
    assert certify.relator_join(G, [], [Word(())], cap=1).shape == (1, 0)
    with pytest.raises(ValueError, match="frontier cap is 100 rows, column 1 needs 576"):
        certify.relator_join(G, [elements] * 3, [], cap=100)
    with pytest.raises(ValueError, match="uses generator 3 of 2 columns"):
        certify.relator_join(G, [elements] * 2, [Word((1, -3))], cap=1 << 16)
    for bad in (261, -255):  # as uint8, elements 5 and 1
        with pytest.raises(ValueError, match="element index out of range for the group"):
            certify.relator_join(G, [elements, np.array([0, bad])], [], cap=1 << 16)


def test_structure_rows_determinism_across_jobs():
    s4 = realize_label("S4")
    a = structure_rows(s4, T22, jobs=1)
    b = structure_rows(s4, T22, jobs=2)
    assert a.shape == b.shape == (0, 9)
    g = small_group("G")
    assert np.array_equal(
        structure_rows(g, T22, jobs=1), structure_rows(g, T22, jobs=2)
    )


@pytest.mark.parametrize(
    "label, prefix",
    [("G(32,49)", "863ecae2908f73d8"), ("G(32,50)", "9d16df7bef8ed0ea")],
)
def test_structure_rows_digests_are_pinned(label, prefix, rows_cache):
    for rows in (rows_cache.backtrack(label), rows_cache.symplectic(label)):
        assert rows.dtype == np.uint8 and rows.shape == (2211840, 9)
        assert hashlib.sha256(rows.tobytes()).hexdigest()[:16] == prefix


@pytest.mark.parametrize("chunk", [700, 1 << 14])
def test_row_keys_sort_as_the_rows(monkeypatch, chunk):
    monkeypatch.setattr("ddks.structures._CHUNK", chunk)
    G = cyclic(64)
    rng = np.random.default_rng(8)
    rows = rng.integers(0, 64, size=(3000, 9)).astype(np.uint8)
    rows[:1000, :6] = rows[0, :6]  # long shared prefixes
    rows[1000] = 63
    rows[1001:1010] = np.where(np.eye(9, dtype=bool), 63, 0)
    keys = pack_rows(G, rows)
    assert keys.dtype == np.uint64 and keys.max() == (1 << 54) - 1
    assert np.array_equal(unpack_keys(keys), rows)
    assert np.array_equal(unpack_keys(np.sort(keys)), rows[np.lexsort(rows.T[::-1])])
    assert unpack_keys(pack_rows(G, rows[:0])).shape == (0, 9)
    with pytest.raises(ValueError, match="below 64, got order 65"):
        pack_rows(cyclic(65), rows)


def test_row_keys_and_z_order_refuse_non_elements(H5):
    """An entry of 70 used to pack as 6 and -1 as 63 in every field, and
    z = -1 read the order of the last element.  The tail reads o(z) only
    after `bulk_relator_filter` has range-checked every entry."""
    good = np.array([example_structure(H5).elements])
    for bad in (70, -1, 32):
        for column in (0, 8):
            rows = good.copy()
            rows[0, column] = bad
            with pytest.raises(ValueError, match="out of range"):
                pack_rows(H5, rows)
    with pytest.raises(ValueError, match="must be integers"):
        pack_rows(H5, good.astype(float))
    z_above = pack_rows(H5, good) | np.uint64(32)  # z >= 32, no element of H5
    with pytest.raises(ValueError, match="out of range"):
        certify_structure_rows(H5, z_above, T22, "{} bad", "repeated")


def test_unpack_keys_refuses_bits_above_54():
    """The key 2^63 once unpacked to a row of zeros."""
    for key in (1 << 54, 1 << 63, (1 << 64) - 1):
        with pytest.raises(ValueError, match=f"^row keys hold 54 bits, got the key {key}$"):
            unpack_keys(np.array([0, key], dtype=np.uint64))
    assert unpack_keys(np.array([(1 << 54) - 1], dtype=np.uint64)).tolist() == [[63] * 9]


def test_row_functions_refuse_other_shapes(H5):
    """`pack_rows` used to key the first nine columns of wider rows; 1-D
    rows raised a bare IndexError, 3-D rows a numpy broadcast error in
    the generation filter, and a list of rows AttributeError."""
    row = np.array(example_structure(H5).elements, dtype=np.uint8)
    checks = {
        "pack_rows": lambda rows: pack_rows(H5, rows),
        "generation_mask_filter": lambda rows: generation_mask_filter(H5, rows),
        "bulk_relator_filter": lambda rows: bulk_relator_filter(H5, rows, relations_for_type(T22)),
    }
    for name, check in checks.items():
        assert check(row[None]).shape == (1,), name
        for bad in (row, row[None, None], np.zeros((2, 3, 9), dtype=np.uint8)):
            with pytest.raises(ValueError, match=f"^rows must be a 2-D array, got {bad.ndim}-D$"):
                check(bad)
        with pytest.raises(Exception) as raised:
            check(row[None].tolist())
        assert (raised.type, str(raised.value)) == (ValueError, "rows must be a 2-D array, got list"), name
    for width in (8, 10):
        with pytest.raises(ValueError, match=f"^rows must have 9 columns, got {width}$"):
            pack_rows(H5, np.zeros((1, width), dtype=np.uint8))


def test_certify_tail_rejects_bad_and_repeated_rows(H5):
    good = np.array([example_structure(H5).elements], dtype=np.uint8)
    bad = good.copy()
    bad[0, 8] = 0  # z = 1 breaks o(z) = 2
    rows = certify_structure_rows(H5, pack_rows(H5, good), T22, "{} bad", "repeated")
    assert np.array_equal(rows, good)
    # the relators do not depend on n, so only o(z) = 4 fails here
    assert relations_for_type(StructureType(2, 4)) == relations_for_type(T22)
    with pytest.raises(AssertionError, match="^1 bad$"):
        certify_structure_rows(H5, pack_rows(H5, good), StructureType(2, 4), "{} bad", "repeated")
    with pytest.raises(AssertionError, match="^1 bad$"):
        certify_structure_rows(H5, pack_rows(H5, np.vstack([bad, good])), T22, "{} bad", "repeated")
    with pytest.raises(AssertionError, match="^repeated$"):
        certify_structure_rows(H5, pack_rows(H5, np.vstack([good, good])), T22, "{} bad", "repeated")


def test_the_tail_hands_out_read_only_rows_and_keeps_no_array(H5):
    good = np.array([example_structure(H5).elements], dtype=np.uint8)
    rows = certify_structure_rows(H5, pack_rows(H5, good), T22, "{} bad", "repeated")
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 0
    for array in (rows, rows.base):  # no owner behind the rows can be made writeable
        with pytest.raises(ValueError, match="WRITEABLE"):
            array.flags.writeable = True
    assert certified_type(H5, rows) == T22
    entry = structures._CERTIFIED[id(rows)]
    assert entry[0]() is rows and not any(isinstance(x, np.ndarray) for x in entry)
    key = id(rows)
    del rows, entry  # the record dies with the rows
    assert key not in structures._CERTIFIED


def test_a_record_certifies_only_the_array_it_points_at(monkeypatch, H5):
    """A record found by id certifies nothing unless its weakref points at
    the very array looked up, as after an id is reused."""
    good = np.array([example_structure(H5).elements], dtype=np.uint8)
    rows = certify_structure_rows(H5, pack_rows(H5, good), T22, "{} bad", "repeated")
    other = rows.copy()
    monkeypatch.setitem(structures._CERTIFIED, id(other), structures._CERTIFIED[id(rows)])
    assert certified_type(H5, rows) == T22
    assert certified_type(H5, other) is None


def test_route_rows_are_read_only_and_only_they_are_certified(H5, G5, rows_cache):
    for rows in (rows_cache.backtrack("G(32,49)"), rows_cache.symplectic("G(32,49)")):
        assert not rows.flags.writeable
        with pytest.raises(ValueError, match="WRITEABLE"):
            rows.base.flags.writeable = True
        assert certified_type(H5, rows) == T22
        assert certified_type(G5, rows) is None
        for other in (rows[:1152], rows[:], rows.copy()):
            assert certified_type(H5, other) is None


def slot_order_keys(rows: np.ndarray) -> np.ndarray:
    """Each row as one integer, comparing as the row does in slot order."""
    key = np.zeros(len(rows), dtype=np.int64)
    for name in SEARCH_ORDER:
        key = key << 6 | rows[:, slot_names(2).index(name)].astype(np.int64)
    return key


@pytest.mark.parametrize("label", ["G(32,49)", "G(32,50)"])
def test_representatives_are_minimal_images(label):
    G = realize_label(label)
    inn = inner_automorphism_table(G)
    assert inn.dtype == np.uint8 and inn.shape == (16, 32)
    assert np.array_equal(inn[0], np.arange(32))
    zs = [z for z in G.elements() if G.element_order[z] == 2]
    reps = genus2_rows(G, [(z, r11) for z in zs for r11 in range(32)], inn)
    assert len(reps) == 138240 == 2211840 // len(inn)
    key = slot_order_keys(reps)
    for h in inn[1:]:
        assert (slot_order_keys(h[reps]) > key).all()


def test_duplicated_inner_automorphism_is_caught(monkeypatch, H5):
    inn = inner_automorphism_table(H5)
    monkeypatch.setattr(structures, "inner_automorphism_table", lambda G: np.vstack([inn, inn[5:6]]))
    with pytest.raises(AssertionError, match="one Inn"):
        structure_rows(H5, T22)


def test_duplicated_representative_is_caught(monkeypatch, H5):
    search = structures.genus2_rows

    def doubled(*args):
        reps = search(*args)
        return np.concatenate([reps, reps[-3:-2]])

    monkeypatch.setattr(structures, "genus2_rows", doubled)
    with pytest.raises(AssertionError, match="one Inn"):
        structure_rows(H5, T22)


def test_image_keys_are_the_packed_images(monkeypatch, H5):
    inn = inner_automorphism_table(H5)
    zs = [z for z in H5.elements() if H5.element_order[z] == 2]
    reps = genus2_rows(H5, [(z, r11) for z in zs for r11 in range(32)], inn)
    rng = np.random.default_rng(12)
    perms = np.array([rng.permutation(64) for _ in range(3)], dtype=np.uint8)
    rows = rng.integers(0, 64, size=(3000, 9)).astype(np.uint8)
    rows[0], rows[1] = 63, 0
    for chunk in (700, 1 << 14):  # several partial chunks, then one
        monkeypatch.setattr("ddks.structures._CHUNK", chunk)
        for G, table, part in ((H5, inn, reps), (cyclic(64), perms, rows)):
            keys = structures._image_keys(G, part, table)
            assert keys.shape == (len(table) * len(part),)
            for i, h in enumerate(table):
                block = keys[i * len(part):(i + 1) * len(part)]
                assert np.array_equal(block, pack_rows(G, np.take(h, part))), (G.order, chunk, i)
    assert structures._image_keys(H5, reps[:0], inn).shape == (0,)


TAIL_CHECKS = ("bulk_relator_filter", "generation_mask_filter")
ROUTES = (lambda G: structure_rows(G, T22), symplectic_structure_rows)


def spy_tail_checks(monkeypatch) -> dict[str, list]:
    """The arrays each check of the certify tail is called on, from now on."""
    seen = {name: [] for name in TAIL_CHECKS}
    for name in TAIL_CHECKS:
        check = getattr(structures, name)

        def spy(G, rows, *args, check=check, calls=seen[name]):
            calls.append(rows)
            return check(G, rows, *args)

        monkeypatch.setattr(structures, name, spy)
    return seen


def certified_once(monkeypatch, route, G) -> np.ndarray:
    """route(G), after asserting that each check of the certify tail ran
    once, on the returned array itself, and so saw every returned row once."""
    seen = spy_tail_checks(monkeypatch)
    rows = route(G)
    for name, calls in seen.items():
        assert len(calls) == 1 and calls[0] is rows, name
    return rows


def fresh_h5() -> FiniteGroup:
    """G(32,49) realized anew, so no array is certified for it yet."""
    return realize(get_presentation("G(32,49)"))


def test_certified_rows_are_the_returned_rows(monkeypatch):
    """A route certifies its own rows unless an array certified for the
    same group object is alive; while one is, the other route runs no check
    and returns a read-only view of it with its own certificate."""
    G = fresh_h5()
    with monkeypatch.context() as m:
        first = certified_once(m, ROUTES[0], G)
    with monkeypatch.context() as m:
        seen = spy_tail_checks(m)
        second = ROUTES[1](G)
        assert seen == {name: [] for name in TAIL_CHECKS}
    assert second is not first and np.shares_memory(second, first)
    assert np.array_equal(second, first) and second.shape == (2211840, 9)
    assert certified_type(G, second) == T22
    with pytest.raises(ValueError):
        second.flags.writeable = True
    with monkeypatch.context() as m:  # a group realized anew shares nothing
        other = fresh_h5()
        assert certified_type(other, certified_once(m, ROUTES[1], other)) == T22
    dropped = weakref.ref(first.base)
    del first, second  # nor does the group once its certified rows are gone
    assert dropped() is None
    with monkeypatch.context() as m:
        assert certified_once(m, ROUTES[1], G).shape == (2211840, 9)


def test_a_changed_backtracking_row_is_certified_in_full_and_fails_criterion_4(monkeypatch, rows_cache):
    """One entry of one backtracking row changed, while the symplectic rows
    are certified for the group: the keys no longer unpack to those rows, so
    the full certifier runs on all of them and the structure count fails.
    The row changed is the last in key order, far past the first chunk, and
    its z becomes the identity, which no structure has, so it repeats no
    row."""
    label = "G(32,49)"
    symplectic = rows_cache.symplectic(label)
    G = realize_label(label)
    assert certified_type(G, symplectic) == T22 and G.element_order[0] == 1
    image_keys = structures._image_keys

    def one_entry_changed(G, rows, perms):
        keys = image_keys(G, rows, perms)
        keys[keys.argmax()] &= ~np.uint64(63)  # slot 8, z, packs into the low 6 bits
        return keys

    class FreshBacktrack(Rows):
        def symplectic(self, label):
            return rows_cache.symplectic(label)

    monkeypatch.setattr(structures, "_image_keys", one_entry_changed)
    seen = spy_tail_checks(monkeypatch)
    with pytest.raises(AssertionError, match="^backtracking emitted 1 invalid tuples$"):
        check_structure_count(FreshBacktrack(), quick=False)
    for name, calls in seen.items():
        assert [len(rows) for rows in calls] == [2211840], name


def test_certified_once_fails_on_a_tail_that_checks_part_of_the_keys(monkeypatch, H5):
    def tail_checking_half(G, keys, t, failure, duplicate):
        keys.sort()
        rows = unpack_keys(keys)
        part = rows[: len(rows) // 2]
        ok = structures.bulk_relator_filter(G, part, relations_for_type(t))
        ok &= G.orders[part[:, 8]] == t.n
        ok &= structures.generation_mask_filter(G, part)
        if not ok.all():
            raise AssertionError(failure.format(int((~ok).sum())))
        return rows

    monkeypatch.setattr(structures, "certify_structure_rows", tail_checking_half)
    with pytest.raises(AssertionError, match="bulk_relator_filter"):
        certified_once(monkeypatch, ROUTES[0], H5)


def test_enumerate_structures_stream(H5, rows_cache):
    rows = rows_cache.backtrack("G(32,49)")
    s = DDKStructure(H5, T22, tuple(int(x) for x in rows[0]))
    ok, diag = verify_structure(H5, s.elements, T22)
    assert ok, diag
    data = k_subgroups(s)
    assert data.strong


# --------------------------------------------------------- serialization

def test_structure_round_trip(H5):
    s = example_structure(H5)
    data = structure_to_dict(s, label="G(32,49)")
    assert data["group"] == "G(32,49)"
    assert data["b"] == 2 and data["n"] == 2
    assert data["elements"] == list(s.elements)
    assert data["words"][0] == "r1"
    again = structure_from_dict(H5, data)
    assert again.elements == s.elements
    with pytest.raises(ValueError, match="malformed"):
        structure_from_dict(H5, {"b": 2, "n": 2})
    with pytest.raises(ValueError, match="out of range"):
        structure_from_dict(H5, {"b": 2, "n": 2, "elements": [99] * 9})


def test_non_integer_elements_are_refused(H5):
    """1.5, True and "3" are no element indices, though int() reads them as
    1, 1 and 3; b and n are checked the same way."""
    data = structure_to_dict(example_structure(H5))
    for bad in (1.5, True, "3", np.bool_(True), None):
        elements = [bad] + data["elements"][1:]
        with pytest.raises(ValueError, match=r"^elements must be element indices, got \["):
            verify_structure(H5, elements, T22)
        with pytest.raises(ValueError, match="^malformed structure data: elements must be element indices"):
            structure_from_dict(H5, {**data, "elements": elements})
        for field in ("b", "n"):
            with pytest.raises(ValueError, match="^malformed structure data: b and n must be integers"):
                structure_from_dict(H5, {**data, field: bad})
    numpy_ints = [np.int64(x) for x in data["elements"]]
    assert verify_structure(H5, numpy_ints, T22) == (True, None)
    again = structure_from_dict(H5, {**data, "b": np.uint8(2), "elements": numpy_ints})
    assert again.elements == example_structure(H5).elements
    assert all(type(x) is int for x in again.elements + (again.stype.b,))


def test_relation_count_check_survives_optimize():
    # every loop of the relation builder skips its first index
    snippet = """
import builtins
from ddks import structures
t = structures.StructureType(2, 2)
structures.range = lambda *args: builtins.range(*args)[1:]
structures.labeled_relations_for_type(t)
"""
    assert raised_under_optimize(snippet) == "AssertionError 8 relations, expected 22"
