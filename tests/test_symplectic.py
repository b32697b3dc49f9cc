import hashlib
from textwrap import dedent

import numpy as np
import pytest

from ddks import symplectic
from ddks.group_core import parse_presentation, realize, realize_label
from ddks.structures import StructureType, certified_type, example_structure, structure_rows
from ddks.symplectic import (
    ReducedStructure,
    aut_order,
    enumerate_reduced_structures,
    induced_space,
    lift_reduced,
    reduced_structure_array,
    symplectic_structure_rows,
)
from optimizetools import raised_under_optimize
from symplectictools import (
    _span_dim,
    arf_invariant,
    enumerate_symplectic_bases,
    form_type,
    orthogonal_order,
    reduce_structure,
    sp_order,
    verify_reduced,
)


@pytest.fixture(scope="module")
def H5():
    return realize_label("G(32,49)")


@pytest.fixture(scope="module")
def G5():
    return realize_label("G(32,50)")


@pytest.fixture(scope="module")
def spaceH(H5):
    return induced_space(H5)


@pytest.fixture(scope="module")
def spaceG(G5):
    return induced_space(G5)


# ------------------------------------------------------------ the space

def test_space_rejects_non_extra_special():
    s4 = realize_label("S4")
    with pytest.raises(ValueError, match="Z\\(G\\)"):
        induced_space(s4)
    z4 = realize(parse_presentation("gens: x\nrel: x^4"))
    with pytest.raises(ValueError):
        induced_space(z4)
    # center of order 2 but G/Z not elementary abelian
    d16 = realize(
        parse_presentation("gens: r s\nrel: r^8\nrel: s^2\nrel: [s,r] r^-2")
    )
    assert d16.order == 16
    with pytest.raises(ValueError, match="elementary abelian"):
        induced_space(d16)


# Each constructor check in order, on an input that passes every check
# before it.  The first six inputs are groups.  No group fails a later
# check (commutators and squares are constant on the cosets of Z(G)), so
# the other inputs are G(32,49) with forged arrays: an inverse table whose
# flips by z add eta(x) + eta(y) to the commutator [x, y]; a table in
# which 1 * 1 = z; and, for the squares, a table that answers the gather
# of its diagonal with one forged square, since any table forged at x * x
# also changes the commutator [x, x], which reads that entry.
SPACE_CHECK_SETUP = """
import numpy as np
from ddks.group_core import FiniteGroup, extra_special_text, parse_presentation, realize, realize_label
from ddks.symplectic import SymplecticSpace

g = realize_label("G(32,49)")
space = SymplecticSpace(g)
z, proj = space.z_element, space.projection_table


def forged(table=None, eta=None):
    h = FiniteGroup(g.table, g.generator_elements, g.generator_names, g.element_words)
    if table is not None:
        h.table = table
    if eta is not None:
        h.inverses = np.where(eta, g.table[g.inverses, z], g.inverses)
    return h
"""

SPACE_CHECKS = [
    pytest.param(
        'SymplecticSpace(realize_label("S4"))',
        "ValueError extra-special input needed: |Z(G)| must be 2",
        id="center",
    ),
    pytest.param(
        'SymplecticSpace(realize(parse_presentation("gens: r s\\nrel: r^8\\nrel: s^2\\nrel: [s,r] r^-2")))',
        "ValueError G/Z(G) is not elementary abelian",
        id="exponent",
    ),
    pytest.param(
        'SymplecticSpace(realize(parse_presentation("gens: x\\nrel: x^2")))',
        "ValueError extra-special input needed: [G, G] must equal Z(G)",
        id="derived",
    ),
    pytest.param(
        "SymplecticSpace(FiniteGroup(g.table, (1, 2, 3, z)))",
        "ValueError generator images do not give a basis of G/Z(G)",
        id="basis-size",
    ),
    pytest.param(
        "SymplecticSpace(FiniteGroup(g.table, (1, 2, 3, int(g.table[1, 3]), z)))",
        "ValueError generator images do not give a basis of G/Z(G)",
        id="basis-dependent",
    ),
    pytest.param(  # an extra-special group whose generator images pair r̄1 with bit 2
        'text = extra_special_text(2, 2, "H").replace("gens: r1 t1 r2 t2 z", "gens: r1 r2 t1 t2 z")\n'
        "SymplecticSpace(realize(parse_presentation(text)))",
        "ValueError generator images are not an ordered symplectic basis",
        id="symplectic-basis",
    ),
    pytest.param(
        "t = g.table.copy()\nt[0, 0] = z\nSymplecticSpace(forged(table=t))",
        "AssertionError pairing is not alternating",
        id="alternating",
    ),
    pytest.param(
        "SymplecticSpace(forged(eta=space.pair_table[15][proj]))",  # then 15 pairs to 0 with all of V
        "AssertionError pairing is degenerate",
        id="degenerate",
    ),
    pytest.param(
        "SymplecticSpace(forged(eta=proj == 3))",  # then (3, 0) pairs to 1
        "AssertionError parallelogram law fails",
        id="parallelogram",
    ),
    pytest.param(
        # one element that is not a section lift: the tables stay, its commutators move
        "SymplecticSpace(forged(eta=np.arange(32) == g.table[space.section_table[3], z]))",
        "AssertionError pairing disagrees with commutators",
        id="commutators",
    ),
    pytest.param(
        dedent("""
            x0 = int(g.table[space.section_table[3], z])  # not a section lift


            class Table(np.ndarray):
                def __getitem__(self, index):
                    out = np.asarray(self)[index]
                    if isinstance(index, tuple) and all(
                        isinstance(i, np.ndarray) and np.array_equal(i, np.arange(32)) for i in index
                    ):
                        out = out.copy()
                        out[x0] = g.table[out[x0], z]
                    return out


            SymplecticSpace(forged(table=g.table.view(Table)))
        """),
        "AssertionError form disagrees with squares",
        id="squares",
    ),
]


@pytest.mark.parametrize("snippet, raised", SPACE_CHECKS)
def test_space_checks_raise_in_order(snippet, raised):
    kind, _, message = raised.partition(" ")
    with pytest.raises((ValueError, AssertionError)) as info:
        exec(SPACE_CHECK_SETUP + snippet, {})
    assert (type(info.value).__name__, str(info.value)) == (kind, message)


@pytest.mark.parametrize("snippet, raised", SPACE_CHECKS)
def test_space_checks_survive_optimize(snippet, raised):
    assert raised_under_optimize(SPACE_CHECK_SETUP + snippet) == raised


def test_space_shape(spaceH, H5):
    assert spaceH.dim == 4 and spaceH.b == 2
    assert H5.element_order[spaceH.z_element] == 2
    # projection is 2-to-1 and the section inverts it
    fibers = {}
    for x in H5.elements():
        fibers.setdefault(spaceH.projection_table[x], []).append(x)
    assert len(fibers) == 16
    assert all(len(f) == 2 for f in fibers.values())
    for v in range(16):
        assert spaceH.projection_table[spaceH.section_table[v]] == v
        assert spaceH.section_table[v] == min(fibers[v])


def test_gram_matrix_block_diagonal(spaceH, spaceG):
    expected = [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]
    assert spaceH.gram == expected
    assert spaceG.gram == expected


def test_pairing_from_commutators_and_lift_independence(spaceH, spaceG, H5, G5):
    """The tables against every commutator and square of the group, by the
    scalar group operations; each section value is the least element of
    its fibre, and x and xz share a vector."""
    for space, G in ((spaceH, H5), (spaceG, G5)):
        z = space.z_element
        assert space.pair_table.dtype == space.q_table.dtype == np.uint8
        assert space.pair_table.shape == (16, 16) and space.q_table.shape == (16,)
        fibres = {}
        for x in G.elements():
            u = space.projection_table[x]
            fibres.setdefault(u, []).append(x)
            assert space.projection_table[G.mul(x, z)] == u
            assert space.q_table[u] == (G.mul(x, x) == z)
            for y in G.elements():
                commutator = G.mul(G.mul(G.mul(x, y), G.inverse[x]), G.inverse[y])
                assert space.pair_table[u, space.projection_table[y]] == (commutator == z)
        assert sorted(fibres) == list(range(16))
        assert space.section_table.tolist() == [min(fibres[v]) for v in range(16)]


def test_parallelogram_law(spaceH, spaceG):
    for space in (spaceH, spaceG):
        q, pair = space.q_table.tolist(), space.pair_table.tolist()
        for u in range(16):
            for v in range(16):
                assert q[u ^ v] == (q[u] + q[v] + pair[u][v]) % 2


def test_quadratic_normal_forms(spaceH, spaceG):
    for v in range(16):
        xi1, psi1, xi2, psi2 = v & 1, (v >> 1) & 1, (v >> 2) & 1, (v >> 3) & 1
        assert spaceH.q_table[v] == (xi1 * psi1 + xi2 * psi2) % 2
        assert spaceG.q_table[v] == (xi1 * psi1 + xi2 * psi2 + xi2 + psi2) % 2


def test_form_type_and_arf(spaceH, spaceG):
    assert form_type(spaceH) == 1
    assert np.count_nonzero(spaceH.q_table == 0) == 10
    assert form_type(spaceG) == -1
    assert np.count_nonzero(spaceG.q_table == 0) == 6
    assert arf_invariant(spaceH) == 0
    assert arf_invariant(spaceG) == 1


# --------------------------------------------------------- group orders

def test_closed_form_orders():
    assert sp_order(1) == 6
    assert sp_order(2) == 720
    assert orthogonal_order(2, 1) == 72
    assert orthogonal_order(2, -1) == 120
    assert aut_order(2, 1) == 1152
    assert aut_order(2, -1) == 1920
    assert aut_order(2, 1) == 16 * orthogonal_order(2, 1)
    assert aut_order(2, -1) == 16 * orthogonal_order(2, -1)
    with pytest.raises(ValueError):
        orthogonal_order(2, 0)
    with pytest.raises(ValueError):
        sp_order(0)


def test_symplectic_bases(spaceH):
    bases = list(enumerate_symplectic_bases(spaceH))
    assert len(bases) == sp_order(2) == 720
    assert len(set(bases)) == 720
    assert (1, 2, 4, 8) in bases
    pair = spaceH.pair_table
    for e1, f1, e2, f2 in bases[::37]:
        assert pair[e1, f1] == 1 and pair[e2, f2] == 1
        assert pair[e1, e2] == 0 and pair[e1, f2] == 0
        assert pair[f1, e2] == 0 and pair[f1, f2] == 0
    # the array's case-(a) rows run over the same bases in the same order,
    # six coefficient matrices each, with (r11, t11, r22, t22) = (e1, f1, e2, f2)
    case_a = reduced_structure_array(spaceH)[:4320]
    assert case_a[::6][:, [0, 1, 6, 7]].tolist() == [list(b) for b in bases]


# ---------------------------------------------------- reduced structures

def staged_filter_reduced(space) -> set[tuple[int, ...]]:
    """Independent enumeration of all reduced structures: nested loops over
    V with each pairing constraint applied as soon as possible."""
    pair = space.pair_table.item
    out = set()
    vecs = range(16)
    for r11 in vecs:
        for t11 in vecs:
            for r21 in vecs:
                if pair(r11, r21) != 0 or pair(t11, r21) != 1:
                    continue
                for t21 in vecs:
                    if pair(r11, t21) != 1 or pair(t11, t21) != 0:
                        continue
                    for r22 in vecs:
                        if pair(r11, r22) != 0 or pair(t11, r22) != 0:
                            continue
                        for t22 in vecs:
                            if pair(r11, t22) != 0 or pair(t11, t22) != 0:
                                continue
                            if (pair(r21, t21) + pair(r22, t22)) % 2 != 1:
                                continue
                            for r12 in vecs:
                                if (
                                    pair(r12, t21) != 0
                                    or pair(r12, r21) != 0
                                    or pair(r12, r22) != 0
                                    or pair(r12, t22) != 1
                                ):
                                    continue
                                for t12 in vecs:
                                    if (
                                        pair(t12, r21) != 0
                                        or pair(t12, t21) != 0
                                        or pair(t12, r22) != 1
                                        or pair(t12, t22) != 0
                                    ):
                                        continue
                                    if (pair(r12, t12) + pair(r11, t11)) % 2 != 1:
                                        continue
                                    tup = (r11, t11, r12, t12, r21, t21, r22, t22)
                                    ok, _ = verify_reduced(space, tup)
                                    if ok:
                                        out.add(tup)
    return out


@pytest.mark.parametrize("fixture", ["spaceH", "spaceG"])
def test_reduced_structures_against_staged_filter(fixture, request):
    space = request.getfixturevalue(fixture)
    produced = list(enumerate_reduced_structures(space))
    tuples = [r.vectors for r in produced]
    assert len(tuples) == 8640
    assert len(set(tuples)) == 8640
    by_case = {"a": 0, "b": 0}
    for r in produced:
        by_case[r.case_tag] += 1
    assert by_case == {"a": 4320, "b": 4320}
    assert set(tuples) == staged_filter_reduced(space)


@pytest.mark.parametrize("fixture", ["spaceH", "spaceG"])
def test_reduced_structure_order_is_pinned(fixture, request):
    """The order of the reduced structures in V-coordinates, the same on
    both groups; the benchmark's H1 panel picks structures by index."""
    space = request.getfixturevalue(fixture)
    produced = list(enumerate_reduced_structures(space))
    vectors = np.array([r.vectors for r in produced], dtype=np.uint8)
    assert hashlib.sha256(vectors.tobytes()).hexdigest()[:16] == "876a2bf04703b23b"
    assert "".join(r.case_tag for r in produced) == "a" * 4320 + "b" * 4320
    array = reduced_structure_array(space)
    assert array.dtype == np.uint8 and not array.flags.writeable
    assert np.array_equal(array, vectors)


def test_forged_rows_raise_in_the_array_path(monkeypatch, H5):
    """The case tag is the one check on the array.  With ad + bc = 0,
    r12, t12 = r22, t22 and r21, t21 = r11, t11, so (r12, t12) pairs to 1
    and the case (b) rows, which lead with it, carry the wrong tag; so do
    case (b) rows equal to case (a) ones."""
    monkeypatch.setattr(symplectic, "_COEFF_MATRICES", ((0, 0, 0, 0),))
    with pytest.raises(AssertionError, match="case tag disagrees"):
        symplectic_structure_rows(H5)
    monkeypatch.undo()
    monkeypatch.setattr(symplectic, "_J_SWAP", tuple(range(8)))
    with pytest.raises(AssertionError, match="case tag disagrees"):
        symplectic_structure_rows(H5)


@pytest.mark.parametrize("other_route_alive", [False, True])
def test_a_forged_reduced_row_is_refused_by_the_certify_tail(monkeypatch, other_route_alive):
    """A reduced row with one bit flipped breaks a pairing condition, so
    none of its 256 lifts is a structure, and the certify tail refuses
    them: in full, or, with the backtracking route's rows for the group
    alive, after the key comparison finds a difference."""
    G = realize_label("G(32,49)")
    alive = structure_rows(G, StructureType(2, 2)) if other_route_alive else None
    space = induced_space(G)
    forged = reduced_structure_array(space).copy()
    forged[0, 0] ^= 1
    assert verify_reduced(space, forged[0].tolist())[0] is False
    monkeypatch.setattr(symplectic, "reduced_structure_array", lambda space: forged)
    with pytest.raises(AssertionError, match="^256 lifted candidates failed verification$"):
        symplectic_structure_rows(G)
    assert alive is None or certified_type(G, alive) == StructureType(2, 2)


def test_reduced_case_patterns_and_isotropy(spaceH):
    seen_patterns = set()
    for r in enumerate_reduced_structures(spaceH):
        v = r.vectors
        pattern = (
            spaceH.pair_table.item(v[2], v[3]),  # (r12, t12)
            spaceH.pair_table.item(v[0], v[1]),  # (r11, t11)
            spaceH.pair_table.item(v[4], v[5]),  # (r21, t21)
            spaceH.pair_table.item(v[6], v[7]),  # (r22, t22)
        )
        seen_patterns.add(pattern)
    # cases (c) and (d) never occur
    assert seen_patterns == {(0, 1, 0, 1), (1, 0, 1, 0)}
    # case (a): the non-basis quadruple spans a 2-dim isotropic subspace
    for r in enumerate_reduced_structures(spaceH):
        if r.case_tag != "a":
            continue
        w = [r.vectors[i] for i in (2, 3, 4, 5)]
        assert _span_dim(spaceH, w) == 2
        for u in w:
            for v in w:
                assert spaceH.pair_table[u, v] == 0
        break


def test_verify_reduced_diagnostics(spaceH):
    good = next(enumerate_reduced_structures(spaceH)).vectors
    ok, diag = verify_reduced(spaceH, good)
    assert ok and diag is None
    bad = list(good)
    bad[0] = good[0] ^ good[1]
    ok, diag = verify_reduced(spaceH, tuple(bad))
    assert not ok
    with pytest.raises(ValueError):
        verify_reduced(spaceH, good[:5])
    with pytest.raises(ValueError):
        ReducedStructure(good, "c")
    # 99 once raised IndexError from the pairing table, and -1 read its last
    # row, a diagnostic as if it were vector 15; 1.5 and True are no vectors
    for bad in ((99,) * 8, (-1,) * 8, (16,) + good[1:], (1.5,) + good[1:], (True,) + good[1:]):
        with pytest.raises(Exception) as raised:
            verify_reduced(spaceH, bad)
        assert (raised.type, str(raised.value)) == (
            ValueError, f"vectors must lie in V, integers in 0 .. 15, got {list(bad)}"
        )
    assert verify_reduced(spaceH, tuple(map(np.uint8, good))) == (True, None)


# ---------------------------------------------------------------- lifts

def test_lift_reduced_all_verify(spaceH, H5):
    r = next(enumerate_reduced_structures(spaceH))
    lifts = list(lift_reduced(spaceH, r, H5))
    assert len(lifts) == 256
    assert len({s.elements for s in lifts}) == 256
    for s in lifts[::51]:
        assert reduce_structure(spaceH, s).vectors == r.vectors


def test_example_appears_among_lifts_of_its_projection(spaceH, H5):
    s = example_structure(H5)
    r = reduce_structure(spaceH, s)
    assert s.elements in {t.elements for t in lift_reduced(spaceH, r, H5)}


def test_lift_rejects_foreign_group(spaceH, G5):
    r = next(enumerate_reduced_structures(spaceH))
    with pytest.raises(ValueError, match="not built from"):
        next(lift_reduced(spaceH, r, G5))


def test_lift_refuses_vectors_outside_the_space(spaceH, H5):
    """99 once raised IndexError from the section table, and -1 would read
    its last entry; 1.5 and True are no vectors.  Vectors of V that are no
    reduced structure give lifts that are no structures."""
    good = next(enumerate_reduced_structures(spaceH)).vectors
    for bad in ((99,) * 8, (-1,) + good[1:], (16,) + good[1:], (1.5,) + good[1:], (True,) + good[1:]):
        with pytest.raises(Exception) as raised:
            next(lift_reduced(spaceH, ReducedStructure(bad, "a"), H5))
        assert (raised.type, str(raised.value)) == (
            ValueError, f"vectors must lie in V, integers in 0 .. 15, got {list(bad)}"
        )
    with pytest.raises(ValueError, match="^not a structure: "):
        next(lift_reduced(spaceH, ReducedStructure((0,) * 8, "a"), H5))
    assert len(list(lift_reduced(spaceH, ReducedStructure(tuple(map(np.uint8, good)), "a"), H5))) == 256
    snippet = (
        "from ddks.group_core import realize_label\n"
        "from ddks.symplectic import ReducedStructure, induced_space, lift_reduced\n"
        "G = realize_label('G(32,49)')\n"
        "next(lift_reduced(induced_space(G), ReducedStructure((99,) * 8, 'a'), G))\n"
    )
    assert raised_under_optimize(snippet) == (
        "ValueError vectors must lie in V, integers in 0 .. 15, got [99, 99, 99, 99, 99, 99, 99, 99]"
    )


# ------------------------------------------- the central cross-validation

@pytest.mark.parametrize("label", ["G(32,49)", "G(32,50)"])
def test_symplectic_route_matches_backtracking(label, rows_cache):
    via_lifts = rows_cache.symplectic(label)
    assert via_lifts.shape == (2211840, 9)
    via_backtracking = rows_cache.backtrack(label)
    assert np.array_equal(via_lifts, via_backtracking)


def test_duplicated_lift_is_caught(monkeypatch, H5):
    reduced_all = symplectic.reduced_structure_array

    def doubled(space):
        reduced = reduced_all(space)
        return np.concatenate([reduced, reduced[7:8]])  # its 256 lifts are already there

    monkeypatch.setattr(symplectic, "reduced_structure_array", doubled)
    with pytest.raises(AssertionError, match="two lifts give the same row"):
        symplectic_structure_rows(H5)
