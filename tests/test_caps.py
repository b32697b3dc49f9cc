"""The caps: each driven to its limit, where it must pass, and one step
past it, where it must raise its named error."""

import numpy as np
import pytest

from ddks.automorphisms import AUT_ORDER_CAP, automorphism_group
from ddks.group_core import (
    DEFAULT_MAX_COSETS,
    CosetEnumerationError,
    FiniteGroup,
    coset_table,
    parse_presentation,
    realize,
    toddcox,
)
from ddks import certify, structures
from ddks.homology import _eliminate_unit_pivots
from ddks.paper import SMALL_GROUP_SOURCES, SUBSET_LABELS, SUBSET_ROWS
from ddks.structures import (
    SEARCH_ORDER_CAP,
    StructureType,
    generation_mask_filter,
    genus2_rows,
    inner_automorphism_table,
    maximal_subgroup_masks,
    prestructure_relations,
    reference_prestructures,
    structure_rows,
)


def elementary_abelian(k: int) -> FiniteGroup:
    """(Z2)^k, with one `rel:` a line."""
    gens = [f"x{i}" for i in range(k)]
    rels = [f"{g}^2" for g in gens]
    rels += [f"[{a}, {b}]" for i, a in enumerate(gens) for b in gens[i + 1:]]
    return realize(parse_presentation(f"gens: {' '.join(gens)}\n" + "".join(f"rel: {r}\n" for r in rels)))


def cyclic(order: int) -> FiniteGroup:
    return realize(parse_presentation(f"gens: x\nrel: x^{order}"))


def test_generation_masks_hold_64_maximal_subgroups():
    e6 = elementary_abelian(6)
    assert e6.order == 64 and len(maximal_subgroup_masks(e6)) == 63
    basis = np.array([e6.generator_elements], dtype=np.uint8)
    rows = np.vstack([basis, basis[:, [0, 1, 2, 3, 4, 4]]])
    assert generation_mask_filter(e6, rows).tolist() == [True, False]
    e7 = elementary_abelian(7)
    assert e7.order == 128
    with pytest.raises(ValueError, match="^generation masks hold 64 maximal subgroups, got 127$"):
        generation_mask_filter(e7, np.zeros((1, 9), dtype=np.uint8))


def test_generation_masks_read_elements_as_bytes():
    z256 = cyclic(256)
    x = z256.generator_elements[0]
    rows = np.array([[x, 0], [z256.mul(x, x), 255]], dtype=np.uint8)
    want = [len(z256.subgroup_generated(row)) == 256 for row in rows.tolist()]
    assert generation_mask_filter(z256, rows).tolist() == want
    with pytest.raises(ValueError, match="^generation masks read elements as bytes, so order <= 256, got 512$"):
        generation_mask_filter(cyclic(512), np.zeros((1, 9), dtype=np.uint8))


def test_the_subgroup_lattice_holds_order_64():
    # Z65 is not a p-group, so its maximal subgroups need the lattice
    z65 = cyclic(65)
    with pytest.raises(ValueError, match="order <= 64, got 65"):
        maximal_subgroup_masks(z65)
    with pytest.raises(ValueError, match="order <= 64, got 65"):
        generation_mask_filter(z65, np.zeros((1, 9), dtype=np.uint8))


@pytest.mark.parametrize("index", [1, 2, 64, 100])
def test_coset_cap_holds_the_index(index):
    # <x | x^k> has index k: k cosets pass a cap of k, and k - 1 raise
    relators = [[1] * index]
    assert len(coset_table(1, relators, max_cosets=index)) == index
    if index > 1:
        with pytest.raises(CosetEnumerationError, match=f"^coset enumeration exceeded the cap of {index - 1} live cosets$"):
            coset_table(1, relators, max_cosets=index - 1)


def test_realize_runs_under_the_default_coset_cap(monkeypatch):
    caps = []

    class Spy(toddcox._Enumerator):
        def __init__(self, ngens, max_cosets):
            caps.append(max_cosets)
            super().__init__(ngens, max_cosets)

    monkeypatch.setattr(toddcox, "_Enumerator", Spy)
    assert cyclic(6).order == 6
    assert caps == [DEFAULT_MAX_COSETS] == [4096]


def test_pivot_ranks_hold_fewer_than_2_31_entries():
    # zero-copy: a broadcast scalar, refused from its shape before any read.
    # The passing side, 2^31 - 1 entries, is not run: np.nonzero would read them all.
    for shape in ((2**16, 2**15), (2**31, 1), (1, 2**31)):
        huge = np.broadcast_to(np.int64(0), shape)
        with pytest.raises(ValueError, match="^the pivot ranks need fewer than 2\\^31 matrix entries$"):
            _eliminate_unit_pivots(huge)


def test_search_cap_holds_order_64():
    e6 = elementary_abelian(6)
    assert e6.order == SEARCH_ORDER_CAP == 64
    # no element of order 3, so no cells: the search runs and finds nothing
    assert structure_rows(e6, StructureType(2, 3)).shape == (0, 9)
    assert genus2_rows(e6, []).shape == (0, 9)
    assert inner_automorphism_table(e6).tolist() == [list(range(64))]
    # order 65 raises in test_caps_raise_value_errors


def test_aut_cap_holds_order_32():
    z32 = cyclic(AUT_ORDER_CAP)
    auts = automorphism_group(z32, parse_presentation("gens: x\nrel: x^32"))
    assert len(auts) == 16  # the units mod 32; order 33 raises in test_caps_raise_value_errors


def test_reference_frontier_cap_holds_the_largest_level(monkeypatch):
    # S3 under (R1)-(R5), (T1)-(T5): column 4 (t21) is the largest level, 1728 rows
    s3 = realize(parse_presentation(SMALL_GROUP_SOURCES["S3"]))
    subset = tuple((label, w) for label, w in prestructure_relations() if label in SUBSET_LABELS)
    levels = []  # the rows of each level the join builds
    stage_mask = certify._stage_mask

    def spy(G, rows, stage):
        levels.append(len(rows))
        return stage_mask(G, rows, stage)

    monkeypatch.setattr(certify, "_stage_mask", spy)
    monkeypatch.setattr(structures, "REFERENCE_FRONTIER_CAP", 1728)
    assert len(reference_prestructures(s3, subset)) == SUBSET_ROWS["S3"] == 648
    assert len(levels) == 9 and max(levels) == levels[4] == 1728
    levels.clear()
    monkeypatch.setattr(structures, "REFERENCE_FRONTIER_CAP", 1727)
    with pytest.raises(ValueError, match="^relator join frontier cap is 1727 rows, column 4 needs 1728$"):
        reference_prestructures(s3, subset)
    assert len(levels) == 4  # the cap is checked before column 4 is built
