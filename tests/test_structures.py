import hashlib
from functools import lru_cache
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddks.group_core import (
    FiniteGroup,
    Presentation,
    Word,
    commutator,
    parse_presentation,
    realize,
    realize_label,
)
from ddks import certify, structures
from ddks.automorphisms import automorphism_group
from ddks.paper import SMALL_GROUP_SOURCES
from ddks.group_core.catalog import extra_special_text
from ddks.structures import (
    DDKStructure,
    StructureType,
    all_subgroup_masks,
    braid_presentation,
    bulk_relator_filter,
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
    prestructure_search_info,
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
    assert hom.is_surjective()
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


def order64_group_and_lift() -> tuple[FiniteGroup, tuple[int, ...]]:
    """G(32,49) x Z2 (an extra central involution), with the example
    structure's words evaluated in it."""
    src = extra_special_text(2, 2, "H")
    p = parse_presentation(src)
    names = p.generators + ("w",)
    rels = list(p.relators) + [Word((6, 6))]
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
    big, lifted = order64_group_and_lift()
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
        if all({G.conjugate(x, g) for x in h} == set(h) for g in G.elements())
    ]
    normal.sort(key=lambda h: (len(h), h))
    assert [list(n) for n in G.normal_subgroups()] == normal


def cyclic(order: int) -> FiniteGroup:
    return realize(parse_presentation(f"gens: x\nrel: x^{order}"))


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


def dfs_key(z_candidates):
    """The order of a depth-first search: z candidate, r11, then the
    search's variable order t21, r12, t22, t11, r21, t12, r22."""
    zpos = {z: i for i, z in enumerate(z_candidates)}
    return lambda row: (zpos[row[8]], row[0], row[5], row[2], row[7], row[1], row[4], row[3], row[6])


@pytest.mark.parametrize("variant", ["H", "G"])
def test_prestructures_dual_route_order8(variant):
    G = small_group(variant)
    expected = oracle_prestructures(G)
    stream = list(iter_prestructure_tuples(G, mode="full"))
    zs = prestructure_search_info(G, mode="full").z_candidates
    assert stream == sorted(stream, key=dfs_key(zs))
    assert sorted(stream) == expected
    # the socle shortcut must reproduce the same set
    assert sorted(iter_prestructure_tuples(G, mode="socle")) == expected
    info = prestructure_search_info(G, mode="socle")
    assert info.mode == "socle" and info.evidence.all_empty
    assert len(info.z_candidates) == 1  # the central involution


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
    part = tuple((label, w) for label, w in prestructure_relations() if int(label[1:]) <= 5)
    monkeypatch.setattr(structures, "prestructure_relations", lambda: part)
    monkeypatch.setitem(globals(), "prestructure_relations", lambda: part)
    G = realize(parse_presentation(SMALL_GROUP_SOURCES[name]))
    found = reference_prestructures(G)
    assert len(found) >= 600
    assert found == oracle_prestructures(G)


def test_prestructure_report_s4_empty():
    G = realize_label("S4")
    rep_full = prestructure_report(G, mode="full")
    assert rep_full.count == 0 and rep_full.mode == "full"
    rep_socle = prestructure_report(G, mode="socle")
    assert rep_socle.count == 0
    assert prestructure_report(G, mode="auto").count == 0
    with pytest.raises(ValueError, match="unknown search mode"):
        prestructure_search_info(G, mode="bogus")


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
    zs = prestructure_search_info(H5, mode="full").z_candidates
    assert stream == sorted(set(stream), key=dfs_key(zs))
    assert all(verify_prestructure(H5, row)[0] for row in stream[::997])


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
    placed = [(label, names[level.slot]) for level in plan for label in level.labels]
    expected = [
        (label, max((names[abs(l) - 1] for l in rel), key=SEARCH_ORDER.index))
        for label, rel in relators
    ]
    assert len(placed) == len(relators) in (20, 22)
    assert sorted(placed) == sorted(expected)
    assert all(len(level.tests) == len(level.labels) for level in plan)


def test_plan_rejects_relators_it_cannot_solve():
    r11, t21, z = (Word.gen(slot_index(i, k, 1, 2)) for i, k in ((1, "r"), (2, "t"), (0, "z")))
    with pytest.raises(ValueError, match="relator X"):
        structures._search_plan((("X", t21 * t21 * r11),))
    with pytest.raises(ValueError, match="relator Y"):
        structures._search_plan((("Y", commutator(r11, z)),))  # closes on a cell


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
            want = sum(1 << x for x in G.elements() if G.conjugate(v, x) == d)
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
    if label == "order 64":
        G, lifted = order64_group_and_lift()
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


@pytest.mark.parametrize("label", ["S4", "Q8", "G(32,49)", "G(32,50)", "order 64"])
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


def test_certifier_program_shape():
    relators = tuple(relations_for_type(T22))
    columns, steps, tests = certify._relator_program(relators)
    # the 140 letters take at most 40 table gathers, each reading earlier
    # registers, and one equality test per relator
    assert columns == 9 and len(tests) == 22
    assert len(steps) <= 40
    for k, (op, si, sj, i, j) in enumerate(steps, columns):
        assert op in ("mul", "comm", "conj") and {si, sj} <= {1, -1}
        assert 0 <= i < k and 0 <= j < k
    assert all(0 <= i < columns + len(steps) for test in tests for i in test if i is not None)
    # an inverse letter is a table operand, or compared as it stands
    assert certify._relator_program((Word((-3,)),)) == (3, (), ((2, None),))
    assert certify._relator_program((Word((1, -2)),)) == (2, (), ((0, 1),))


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


@pytest.mark.parametrize("label", ["S4", "G(32,50)"])
@settings(max_examples=60, deadline=None)
@given(relators=st.lists(relator_words(), min_size=1, max_size=4))
def test_certifier_matches_word_evaluation_on_random_words(label, relators):
    G, rows = hypothesis_rows(label)
    assert np.array_equal(bulk_relator_filter(G, rows, relators), word_mask(G, rows, relators))


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
    assert getattr(G, "_search_tables", None) is None


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


def test_certify_tail_rejects_bad_and_repeated_rows(H5):
    good = np.array([example_structure(H5).elements], dtype=np.uint8)
    bad = good.copy()
    bad[0, 8] = 0  # z = 1 breaks o(z) = 2
    rows = certify_structure_rows(H5, pack_rows(H5, good), T22, "{} bad", "repeated")
    assert np.array_equal(rows, good)
    with pytest.raises(AssertionError, match="^1 bad$"):
        certify_structure_rows(H5, pack_rows(H5, np.vstack([bad, good])), T22, "{} bad", "repeated")
    with pytest.raises(AssertionError, match="^repeated$"):
        certify_structure_rows(H5, pack_rows(H5, np.vstack([good, good])), T22, "{} bad", "repeated")


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


TAIL_CHECKS = ("bulk_relator_filter", "z_order_filter", "generation_mask_filter")
ROUTES = (lambda G: structure_rows(G, T22), symplectic_structure_rows)


def certified_once(monkeypatch, route, G) -> np.ndarray:
    """route(G), after asserting that each check of the certify tail ran
    once, on the returned array itself, and so saw every returned row once."""
    seen = {name: [] for name in TAIL_CHECKS}
    for name in TAIL_CHECKS:
        check = getattr(structures, name)

        def spy(G, rows, *args, check=check, calls=seen[name]):
            calls.append(rows)
            return check(G, rows, *args)

        monkeypatch.setattr(structures, name, spy)
    rows = route(G)
    for name, calls in seen.items():
        assert len(calls) == 1 and calls[0] is rows, name
    return rows


def test_certified_rows_are_the_returned_rows(monkeypatch, H5):
    for route in ROUTES:
        with monkeypatch.context() as m:
            assert certified_once(m, route, H5).shape == (2211840, 9)


def test_certified_once_fails_on_a_tail_that_checks_part_of_the_keys(monkeypatch, H5):
    def tail_checking_half(G, keys, t, failure, duplicate):
        keys.sort()
        rows = unpack_keys(keys)
        part = rows[: len(rows) // 2]
        ok = structures.bulk_relator_filter(G, part, relations_for_type(t))
        ok &= structures.z_order_filter(G, part, t.n)
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
