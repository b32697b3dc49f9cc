"""The caps: each driven to its limit, where it must pass, and one step
past it, where it must raise its named ValueError."""

import numpy as np
import pytest

from ddks.group_core import FiniteGroup, parse_presentation, realize
from ddks.structures import generation_mask_filter, maximal_subgroup_masks


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
