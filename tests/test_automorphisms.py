import hashlib
import time

import numpy as np
import pytest

import ddks.automorphisms
import ddks.certify
import ddks.structures
from ddks.group_core import (
    catalog_labels,
    get_presentation,
    parse_presentation,
    realize,
    realize_label,
)
from ddks.automorphisms import FreenessError, automorphism_group, orbit_count, out_order
from ddks.structures import example_structure, inner_automorphism_table
from ddks.symplectic import aut_order, induced_space
from optimizetools import raised_under_optimize
from orbittools import (
    act,
    automorphisms_by_brute_force,
    closed_under_composition,
    compose,
    fixed_by_nonidentity,
    induced_symplectic_map,
    inverse,
    is_identity,
    orbit_of,
    orbits_via_unionfind,
    translation_table,
)
from symplectictools import orthogonal_order


@pytest.fixture(scope="module")
def H5():
    return realize_label("G(32,49)")


@pytest.fixture(scope="module")
def G5():
    return realize_label("G(32,50)")


@pytest.fixture(scope="module")
def autsH(H5):
    return automorphism_group(H5, get_presentation("G(32,49)"))


@pytest.fixture(scope="module")
def autsG(G5):
    return automorphism_group(G5, get_presentation("G(32,50)"))


# ------------------------------------------------------------ aut groups

def test_aut_orders_match_closed_formulas(autsH, autsG):
    assert len(autsH) == 1152 == aut_order(2, 1)
    assert len(autsG) == 1920 == aut_order(2, -1)


def test_aut_table_is_sorted_read_only_and_cached(H5, autsH):
    assert autsH.dtype == np.uint8 and autsH.shape == (1152, 32)
    order = np.lexsort(autsH.T[::-1])
    assert (order == np.arange(len(autsH))).all()
    with pytest.raises(ValueError, match="read-only"):
        autsH[0, 0] = 1
    assert np.array_equal(automorphism_group(H5, get_presentation("G(32,49)")), autsH)


def test_s4_is_complete():
    g = realize_label("S4")
    auts = automorphism_group(g, get_presentation("S4"))
    assert len(auts) == 24
    assert len(inner_automorphism_table(g)) == 24
    assert out_order(auts, inner_automorphism_table(g)) == 1


def test_inner_and_out(H5, G5, autsH, autsG):
    assert len(inner_automorphism_table(H5)) == 16
    assert len(inner_automorphism_table(G5)) == 16
    assert out_order(autsH, inner_automorphism_table(H5)) == 72 == orthogonal_order(2, 1)
    assert out_order(autsG, inner_automorphism_table(G5)) == 120 == orthogonal_order(2, -1)
    with pytest.raises(AssertionError, match="divide"):
        out_order(autsH[:100], inner_automorphism_table(H5))


def test_inner_checks_center_index(monkeypatch):
    g = realize(get_presentation("S4"))
    monkeypatch.setattr(g, "center", lambda: (0, 1))
    with pytest.raises(AssertionError, match="Z\\(G\\)"):
        inner_automorphism_table(g)


def test_inner_of_abelian_is_trivial():
    z6 = realize(parse_presentation("gens: x\nrel: x^6"))
    inner = inner_automorphism_table(z6)
    assert len(inner) == 1 and is_identity(inner[0])


def test_automorphisms_are_multiplicative(H5, autsH):
    cayley = np.array(H5.cayley, dtype=np.int64)
    for a in autsH:
        perm = a.astype(np.int64)
        assert perm[0] == 0
        # phi(xy) = phi(x) phi(y) for all 1024 pairs
        assert np.array_equal(perm[cayley], cayley[perm][:, perm])


def test_automorphisms_preserve_element_orders(H5, autsH):
    orders = H5.element_order
    for a in autsH[::97]:
        for x in H5.elements():
            assert orders[a[x]] == orders[x]


def test_compose_and_inverse(autsH):
    a, b = autsH[3], autsH[1101]
    c = compose(a, b)
    assert all(c[x] == a[b[x]] for x in range(32))
    assert is_identity(compose(a, inverse(a)))
    assert is_identity(compose(inverse(a), a))


def test_inner_are_among_all_automorphisms(H5, autsH):
    all_perms = {a.tobytes() for a in autsH}
    for a in inner_automorphism_table(H5):
        assert a.tobytes() in all_perms


SMALL_GROUPS = {
    "S3": "gens: a b\nrel: a^2\nrel: b^3\nrel: a b a b",
    "D8": "gens: r s\nrel: r^4\nrel: s^2\nrel: r s r s",
    "Q8": "gens: i j\nrel: i^4\nrel: i^2 j^-2\nrel: j i j^-1 i",
    "Z2xZ2xZ2": "gens: a b c\nrel: a^2\nrel: b^2\nrel: c^2\nrel: [a,b]\nrel: [a,c]\nrel: [b,c]",
    "A4": None,
    "S4": None,
}


@pytest.mark.parametrize("name", list(SMALL_GROUPS))
def test_join_matches_brute_force_over_all_tuples(name):
    text = SMALL_GROUPS[name]
    p = get_presentation(name) if text is None else parse_presentation(text)
    g = realize(p)
    auts = automorphism_group(g, p)
    assert [a.tobytes() for a in auts] == automorphisms_by_brute_force(g, p)
    want = {"S3": 6, "D8": 8, "Q8": 24, "Z2xZ2xZ2": 168, "A4": 24, "S4": 24}
    assert len(auts) == want[name]


@pytest.mark.parametrize("label", ["S4", "G(32,49)", "G(32,50)"])
def test_automorphisms_closed_under_composition(label, autsH, autsG):
    auts = {"G(32,49)": autsH, "G(32,50)": autsG}.get(label)
    if auts is None:
        auts = automorphism_group(realize_label(label), get_presentation(label))
    assert closed_under_composition(auts)
    assert not closed_under_composition(np.delete(auts, 1, axis=0))


def test_inner_automorphisms_in_aut_on_the_catalog():
    for label in catalog_labels():
        g = realize_label(label)
        auts = automorphism_group(g, get_presentation(label))
        inner = inner_automorphism_table(g)
        assert {a.tobytes() for a in inner} <= {a.tobytes() for a in auts}, label
        assert len(auts) % len(inner) == 0, label


def test_permutation_digests_are_pinned(autsH, autsG):
    # sha256 of the table's bytes: its rows, in the returned order
    def digest(auts):
        return hashlib.sha256(auts.tobytes()).hexdigest()

    assert digest(autsH) == "5afe270f132bc8411f74df4cb6ef06a7262cd1a895e594401ed429a2d38103a6"
    assert digest(autsG) == "fa9fc35e03cc64423e5105e653ad614bc7d6eba5334727aa3d215d413606c287"


def test_frontier_cap_rejected():
    # Z2^5 has |GL(5,2)| = 9 999 360 automorphisms; its relators prune
    # nothing, so the fifth generator would need 31^5 rows
    src = "gens: a b c d e\n" + "".join(f"rel: {x}^2\n" for x in "abcde") + "".join(
        f"rel: [{x},{y}]\n" for i, x in enumerate("abcde") for y in "abcde"[i + 1:]
    )
    g = realize(parse_presentation(src))
    assert g.order == 32
    start = time.perf_counter()
    with pytest.raises(ValueError, match="frontier cap"):
        automorphism_group(g, parse_presentation(src))
    assert time.perf_counter() - start < 10


def test_non_generating_tuples_are_rejected(monkeypatch):
    # (a, a) satisfies the relators of Z2 x Z2 but maps b and ab wrongly
    src = "gens: a b\nrel: a^2\nrel: b^2\nrel: [a,b]"
    g = realize(parse_presentation(src))
    monkeypatch.setattr(
        ddks.automorphisms, "generation_mask_filter", lambda G, rows: np.ones(len(rows), bool)
    )
    with pytest.raises(AssertionError, match="bijection"):
        automorphism_group(g, parse_presentation(src))


def test_tuples_failing_the_relators_are_rejected(monkeypatch):
    # Z8 with y = x^2: without the relators y may be either element of
    # order 4.  The tree extension of every tuple is then a bijection, but
    # it is multiplicative only when y = x^2.
    src = "gens: x y\nrel: x^8\nrel: y x^-2"
    g = realize(parse_presentation(src))
    join = ddks.automorphisms.relator_join
    monkeypatch.setattr(
        ddks.automorphisms, "relator_join", lambda G, images, rels, cap: join(G, images, [], cap)
    )
    with pytest.raises(AssertionError, match="homomorphism"):
        automorphism_group(g, parse_presentation(src))


def test_cap_rejected():
    src = "gens: a b\nrel: a^8\nrel: b^8\nrel: [a,b]"
    g = realize(parse_presentation(src))
    assert g.order == 64
    with pytest.raises(ValueError, match="cap"):
        automorphism_group(g, parse_presentation(src))


# -------------------------------------------------- action on structures

def test_act_identity_and_images(H5, autsH):
    s = example_structure(H5)
    identity = next(a for a in autsH if is_identity(a))
    assert act(identity, s).elements == s.elements
    for a in autsH[::149]:
        image = act(a, s)  # re-verified inside
        assert image.ambient is H5


def test_orbit_of_example_has_aut_size(H5, autsH):
    s = example_structure(H5)
    orbit = orbit_of(s, autsH)
    assert len(orbit) == len(autsH) == 1152


def test_orbit_counts(H5, G5, autsH, autsG, rows_cache):
    rows49 = rows_cache.backtrack("G(32,49)")
    rows50 = rows_cache.backtrack("G(32,50)")
    assert orbit_count(H5, rows49, autsH) == 1920
    assert orbit_count(G5, rows50, autsG) == 1152


UNCERTIFIED = "^freeness 'full' needs the very rows a route returned for this group$"


def test_orbit_count_freeness_violation(H5, autsH):
    fixed_by_everything = np.zeros((1, 9), dtype=np.uint8)
    with pytest.raises(FreenessError, match="generate"):
        orbit_count(H5, fixed_by_everything, autsH, freeness="sample")
    with pytest.raises(ValueError, match=UNCERTIFIED):
        orbit_count(H5, fixed_by_everything, autsH, freeness="full")
    with pytest.raises(ValueError, match="freeness"):
        orbit_count(H5, fixed_by_everything, autsH, freeness="maybe")


def test_freeness_mode_chooses_the_rows(H5, autsH, rows_cache):
    rows = rows_cache.backtrack("G(32,49)")[:2 * 1152].copy()
    rows[1] = 0  # not among the 1000 evenly spaced sample indices
    assert orbit_count(H5, rows, autsH, freeness="sample") == 2
    with pytest.raises(ValueError, match=UNCERTIFIED):
        orbit_count(H5, rows, autsH, freeness="full")
    for sample_size in (0, -1):  # no sample would check no row
        with pytest.raises(ValueError, match="sample_size"):
            orbit_count(H5, rows, autsH, freeness="sample", sample_size=sample_size)


def test_orbit_count_refuses_repeated_rows(H5, autsH, rows_cache):
    # 1152 copies of one row once counted as one orbit
    rows = rows_cache.backtrack("G(32,49)")
    copies = np.repeat(rows[:1], len(autsH), axis=0)
    with pytest.raises(ValueError, match="^orbit_count needs pairwise distinct rows"):
        orbit_count(H5, copies, autsH, freeness="sample")
    doubled = rows.copy()
    doubled[1] = doubled[0]
    for repeated in (copies, doubled):
        with pytest.raises(ValueError, match=UNCERTIFIED):
            orbit_count(H5, repeated, autsH, freeness="full")
    # row 1 is not among the 1000 evenly spaced sample rows
    assert orbit_count(H5, doubled, autsH, freeness="sample") == 1920


def test_full_mode_refuses_rows_no_route_certified(H5, G5, autsH, autsG, rows_cache):
    """Each of these once counted: the first 1152 sorted rows as 1 orbit."""
    rows = rows_cache.symplectic("G(32,49)")
    for other in (rows[:1152], rows.copy(), np.roll(rows, 1, axis=0)):
        with pytest.raises(ValueError, match=UNCERTIFIED):
            orbit_count(H5, other, autsH, freeness="full")
    with pytest.raises(ValueError, match=UNCERTIFIED):  # G(32,49)'s rows with G(32,50)
        orbit_count(G5, rows, autsG, freeness="full")
    assert orbit_count(H5, rows, autsH, freeness="full") == 1920


AUTS_PRELUDE = """
import numpy as np
from ddks.automorphisms import automorphism_group, orbit_count
from ddks.group_core import get_presentation, realize_label
from ddks.symplectic import symplectic_structure_rows
G = realize_label("G(32,49)")
auts = automorphism_group(G, get_presentation("G(32,49)"))
rows = symplectic_structure_rows(G)
"""


def test_orbit_count_refuses_auts_that_are_not_a_table(H5, autsH, rows_cache):
    """On the route's rows, a table one column too wide once raised numpy's
    broadcast error, a float table IndexError and one row AxisError."""
    rows = rows_cache.symplectic("G(32,49)")
    cases = [
        (np.column_stack([autsH, autsH[:, :1]]), "^auts must have 32 columns, got 33$"),
        (autsH.astype(np.float64), "^element indices must be integers, got dtype float64$"),
        (autsH[0], "^auts must be a 2-D array, got 1-D$"),
        (autsH.tolist(), "^auts must be a 2-D array, got list$"),
    ]
    for auts, message in cases:
        for freeness in ("sample", "full"):
            with pytest.raises(ValueError, match=message):
                orbit_count(H5, rows, auts, freeness=freeness)
    assert orbit_count(H5, rows, autsH.astype(np.int64), freeness="full") == 1920


@pytest.mark.parametrize(
    "auts, raised",
    [
        ("np.column_stack([auts, auts[:, :1]])", "auts must have 32 columns, got 33"),
        ("auts.astype(np.float64)", "element indices must be integers, got dtype float64"),
        ("auts[0]", "auts must be a 2-D array, got 1-D"),
        ("auts.tolist()", "auts must be a 2-D array, got list"),
    ],
    ids=["wide", "float", "one-row", "list"],
)
def test_auts_checks_survive_optimize(auts, raised):
    assert raised_under_optimize(AUTS_PRELUDE + f"orbit_count(G, rows, {auts})") == f"ValueError {raised}"


def test_automorphism_group_refuses_a_presentation_of_another_generator_count(H5):
    """One generator against G(32,49)'s five: the join would search images
    for generators the presentation does not name."""
    with pytest.raises(ValueError, match="^presentation does not match the realization$"):
        automorphism_group(H5, parse_presentation("gens: x\nrel: x^2"))


def test_automorphism_group_refuses_a_permutation_off_its_generator_images():
    """Z4 realized with both generators at one element, (1, 1), against a
    presentation that leaves them independent.  The join gives 4 image
    rows, and the tree extends each from its first entry alone, into one
    of Aut(Z4)'s two automorphisms.  Both permutations are homomorphisms,
    so only the generator-image check sees that two rows are not; without
    it the table would hold 4 rows, two duplicate pairs."""
    z4 = realize(parse_presentation("gens: x y\nrel: x^4\nrel: y x^-1"))
    assert z4.generator_elements == (1, 1)
    with pytest.raises(AssertionError, match="^a permutation moves a generator off its image$"):
        automorphism_group(z4, parse_presentation("gens: a b\nrel: a^4\nrel: b^4\nrel: [a,b]"))


def test_orbit_count_refuses_rows_that_are_no_union_of_orbits(H5, autsH, rows_cache):
    """1000 distinct generating rows pass the sample check, but no union of
    orbits of 1152 rows each has 1000 rows."""
    rows = rows_cache.symplectic("G(32,49)")[:1000]
    with pytest.raises(AssertionError, match=r"^\|Aut\| = 1152 does not divide 1000 structures$"):
        orbit_count(H5, rows, autsH)


def test_inner_automorphism_table_is_read_only(H5):
    """Inn(G) is handed out read-only, as Aut(G) is."""
    inn = inner_automorphism_table(H5)
    assert not inn.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        inn[0, 0] = 1


def test_inner_automorphisms_build_no_search_tables(monkeypatch):
    """Inn(G) reads `G.conjugates`, not the search's own tables."""
    built = []
    monkeypatch.setattr(ddks.structures._Tables, "__init__", lambda self, G: built.append(G))
    g = realize(get_presentation("G(32,49)"))
    assert len(inner_automorphism_table(g)) == 16
    assert built == []
    with pytest.raises(ValueError, match="^search cap is order 64$"):
        inner_automorphism_table(realize(parse_presentation("gens: x\nrel: x^65")))


@pytest.mark.parametrize("label", ["G(32,49)", "G(32,50)"])
def test_freeness_proof_matches_permutation_scan(label, H5, G5, autsH, autsG, rows_cache):
    G, auts = (H5, autsH) if label == "G(32,49)" else (G5, autsG)
    rows = rows_cache.backtrack(label)
    assert not fixed_by_nonidentity(rows[::97], auts).any()
    assert fixed_by_nonidentity(np.zeros((1, 9), dtype=np.uint8), auts).all()
    assert orbit_count(G, rows, auts, freeness="full") == len(rows) // len(auts)


@pytest.mark.parametrize("freeness", ["sample", "full"])
def test_orbit_count_checks_the_automorphisms(H5, autsH, rows_cache, freeness):
    rows = rows_cache.backtrack("G(32,49)")
    broken = autsH.copy()
    broken[5, [1, 2]] = broken[5, [2, 1]]
    assert broken[5].tobytes() not in {a.tobytes() for a in autsH}
    with pytest.raises(FreenessError, match="multiplicative"):
        orbit_count(H5, rows, broken, freeness=freeness)
    doubled = autsH.copy()
    doubled[7] = doubled[8]
    with pytest.raises(FreenessError, match="same permutation"):
        orbit_count(H5, rows, doubled, freeness=freeness)


def test_orbit_count_needs_the_identity(H5, autsH, rows_cache):
    # an empty table once divided by zero; every group holds the identity
    rows = rows_cache.backtrack("G(32,49)")
    assert (autsH[0] == np.arange(32)).all()
    for auts in (autsH[:0], autsH[1:]):
        with pytest.raises(FreenessError, match="identity"):
            orbit_count(H5, rows, auts)


def test_union_find_on_known_orbits(H5, autsH, rows_cache):
    rows = rows_cache.backtrack("G(32,49)")
    seeds = [rows[0], rows[len(rows) // 2], rows[-1]]
    tables = [a.tobytes() for a in autsH]
    closed = set()
    for seed in seeds:
        rb = seed.tobytes()
        for t in tables:
            closed.add(rb.translate(translation_table(t)))
    arr = np.frombuffer(b"".join(sorted(closed)), dtype=np.uint8).reshape(-1, 9)
    n_orbits = orbits_via_unionfind(arr, autsH)
    assert len(arr) % 1152 == 0
    assert n_orbits == len(arr) // 1152
    with pytest.raises(ValueError, match="not closed"):
        orbits_via_unionfind(arr[:5], autsH)


# ------------------------------------------------- induced maps on V

@pytest.mark.parametrize("fixture", ["H", "G"])
def test_induced_maps_preserve_forms(fixture, H5, G5, autsH, autsG):
    G, auts = (H5, autsH) if fixture == "H" else (G5, autsG)
    space = induced_space(G)
    q, pair = space.q_table.tolist(), space.pair_table.tolist()
    for a in auts:
        table = induced_symplectic_map(space, a)
        for u in range(16):
            assert q[table[u]] == q[u]
            for v in range(16):
                if pair[table[u]][table[v]] != pair[u][v]:
                    raise AssertionError("pairing not preserved")


def test_induced_map_of_inner_is_identity(H5):
    space = induced_space(H5)
    for a in inner_automorphism_table(H5):
        table = induced_symplectic_map(space, a)
        assert table == list(range(16))
