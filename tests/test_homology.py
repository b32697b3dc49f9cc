import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, islice

import numpy as np
import pytest
from sympy import Matrix

import ddks
from ddks.automorphisms import automorphism_group
from ddks.group_core import (
    Homomorphism,
    Presentation,
    Word,
    catalog,
    get_presentation,
    parse_presentation,
    realize,
    realize_label,
)
from ddks import homology
from ddks.homology import (
    HomologyInvariants,
    Transversal,
    _distinct_rows,
    _eliminate_unit_pivots,
    _exact_matmul,
    _unit_pivot_residual,
    abelianized_relator_matrix,
    first_homology,
    h1_of_surface,
    integer_determinant,
    orbifold_presentation,
    schreier_transversal,
    smith_invariants,
    smith_normal_form,
)
from ddks.invariants import fibration_data, with_homology
from ddks.structures import DDKStructure, StructureType, example_structure
from ddks.symplectic import enumerate_reduced_structures, induced_space, lift_reduced
from optimizetools import raised_under_optimize
import snftools

# (reduced structure, lift mask) pairs of the benchmark's fixed H1 panel
H1_PANEL = ((0, 0x00), (2880, 0x5A), (5760, 0xA5))


@pytest.fixture(scope="module")
def trivial_group():
    return realize(parse_presentation("gens: e\nrel: e"))


@pytest.fixture(scope="module")
def orbifold_hom():
    g = realize_label("G(32,49)")
    p = orbifold_presentation(2, 2)
    return g, p, Homomorphism(p, g, example_structure(g).elements)


@pytest.fixture(scope="module")
def panel_homs():
    """(label, homomorphism) for the example structure and the H1_PANEL
    lifts of both extra-special groups of order 32."""
    p = orbifold_presentation(2, 2)
    homs = []
    for label in ("G(32,49)", "G(32,50)"):
        g = realize_label(label)
        structures = [example_structure(g)]
        space = induced_space(g)
        reduced = list(enumerate_reduced_structures(space))
        for index, mask in H1_PANEL:
            lifts = lift_reduced(space, reduced[index], g)
            structures.append(next(islice(lifts, mask, None)))
        homs += [(label, Homomorphism(p, g, s.elements)) for s in structures]
    return p, homs


# ----------------------------------------------------------- transversal

def test_transversal_trivial_target(trivial_group):
    p = Presentation(("x",), ())
    hom = Homomorphism(p, trivial_group, (0,))
    t = schreier_transversal(hom)
    assert t.representative_words == (Word(()),)


def test_transversal_free_onto_z2():
    z2 = realize(parse_presentation("gens: y\nrel: y^2"))
    hom = Homomorphism(Presentation(("x",), ()), z2, (1,))
    t = schreier_transversal(hom)
    assert t.representative_words == (Word(()), Word.gen(0))


def test_transversal_rejects_non_surjective():
    z4 = realize(parse_presentation("gens: y\nrel: y^4"))
    square = z4.mul(1, 1)
    hom = Homomorphism(parse_presentation("gens: x\nrel: x^2"), z4, (square,))
    with pytest.raises(ValueError, match="surjective"):
        schreier_transversal(hom)


def test_transversal_is_shortest_and_prefix_closed(orbifold_hom):
    g, p, hom = orbifold_hom
    t = schreier_transversal(hom)
    assert len(t.parent) == 32
    assert t.representative_words[0].is_identity

    # independent BFS distances over generator and inverse edges
    dist = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for img in hom.images:
                for v in (g.mul(u, img), g.mul(u, g.inverse[img])):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
        frontier = nxt
    for u, rep in enumerate(t.representative_words):
        assert len(rep) == dist[u]
        for cut in range(len(rep)):
            prefix = Word(rep.letters[:cut])
            assert prefix in t.representative_words


# -------------------------------------------------------- relator matrix

def test_orbifold_matrix_dimensions(orbifold_hom):
    g, p, hom = orbifold_hom
    matrix = abelianized_relator_matrix(hom, schreier_transversal(hom))
    assert matrix.shape == (32 * 23, 32 * 9 - 31) == (736, 257)
    longest = max(len(rel) for rel in p.relators)
    assert int(np.abs(matrix).max()) <= longest


def test_trivial_target_gives_plain_abelianization(trivial_group):
    p = parse_presentation("gens: a b\nrel: a^2 b^-3\nrel: [a,b]")
    hom = Homomorphism(p, trivial_group, (0, 0))
    matrix = abelianized_relator_matrix(hom, schreier_transversal(hom))
    assert matrix.tolist() == [[2, -3], [0, 0]]


def test_genus2_onto_trivial_single_zero_row(trivial_group):
    p = parse_presentation("gens: a1 b1 a2 b2\nrel: [a1,b1] [a2,b2]")
    hom = Homomorphism(p, trivial_group, (0,) * 4)
    matrix = abelianized_relator_matrix(hom, schreier_transversal(hom))
    assert matrix.shape == (1, 4)
    assert not matrix.any()


def test_index_two_rewriting_by_hand():
    # Z4 -> Z2: kernel Z2; both rewritten rows give twice the lone column
    z2 = realize(parse_presentation("gens: y\nrel: y^2"))
    p = parse_presentation("gens: x\nrel: x^4")
    hom = Homomorphism(p, z2, (1,))
    matrix = abelianized_relator_matrix(hom, schreier_transversal(hom))
    assert matrix.tolist() == [[2], [2]]
    assert first_homology(hom) == HomologyInvariants(0, (2,))


def _relator_matrix_by_words(hom: Homomorphism, t: Transversal) -> np.ndarray:
    """Reference rewriting, one coset and one letter at a time: (u, x) is a
    tree edge when the word rep(u) x is rep(u x), or rep(u x) x^-1 is
    rep(u), tested by building the words."""
    G, p = hom.target, hom.source
    reps = t.representative_words
    columns = {}
    for u, rep in enumerate(reps):
        for x, image in enumerate(hom.images):
            v = G.mul(u, image)
            if Word(rep.letters + (x + 1,)) == reps[v]:
                continue
            if Word(reps[v].letters + (-(x + 1),)) == rep:
                continue
            columns[(u, x)] = len(columns)
    matrix = np.zeros((G.order * len(p.relators), len(columns)), dtype=np.int64)
    for u in range(G.order):
        for j, rel in enumerate(p.relators):
            c = u
            for letter in rel.letters:
                x = abs(letter) - 1
                if letter > 0:
                    key, sign = (c, x), 1
                    c = G.mul(c, hom.images[x])
                else:
                    c = G.mul(c, G.inverse[hom.images[x]])
                    key, sign = (c, x), -1
                if key in columns:
                    matrix[u * len(p.relators) + j, columns[key]] += sign
            assert c == u
    return matrix


def test_relator_matrix_matches_word_rewriting(panel_homs):
    _, homs = panel_homs
    assert len(homs) == 8
    for label, hom in homs:
        t = schreier_transversal(hom)
        matrix = abelianized_relator_matrix(hom, t)
        assert matrix.dtype == np.int64 and matrix.shape == (736, 257)
        assert np.array_equal(matrix, _relator_matrix_by_words(hom, t)), label


def test_relator_matrix_of_small_presentations_matches_word_rewriting(trivial_group):
    z2 = realize(parse_presentation("gens: y\nrel: y^2"))
    s3 = realize(parse_presentation("gens: a b\nrel: a^2\nrel: b^3\nrel: a b a b"))
    cases = [
        (parse_presentation("gens: a b\nrel: a^2 b^-3\nrel: [a,b]"), trivial_group, (0, 0)),
        (parse_presentation("gens: x\nrel: x^4"), z2, (1,)),
        (parse_presentation("gens: x y\nrel: x^2\nrel: y^3\nrel: x y x y"), s3, s3.generator_elements),
        (
            parse_presentation("gens: x y\nrel: x^-2\nrel: y^-3 x^4 y^3\nrel: x^-1 y^-2 x^-1 y^-2"),
            s3, s3.generator_elements,
        ),
    ]
    for p, target, images in cases:
        hom = Homomorphism(p, target, images)
        t = schreier_transversal(hom)
        assert np.array_equal(
            abelianized_relator_matrix(hom, t), _relator_matrix_by_words(hom, t)
        )


def test_non_schreier_transversal_is_rejected():
    """Forged parent arrays: a step that is no edge of the Cayley graph
    (refused by the relator matrix), a cycle that never reaches the
    identity (refused by `Transversal` itself), and a coset left out."""
    z3 = realize(parse_presentation("gens: y\nrel: y^3"))
    hom = Homomorphism(Presentation(("x",), ()), z3, (1,))
    assert schreier_transversal(hom) == Transversal((-1, 0, 0), (-1, 0, 1))  # 2 is x^-1
    # 0 x is 1, not 2
    with pytest.raises(AssertionError, match="not an edge of the Cayley graph"):
        abelianized_relator_matrix(hom, Transversal((-1, 0, 0), (-1, 0, 0)))
    # Klein four, x -> a, y -> b: b and ab are each other's parent by x
    v4 = realize(parse_presentation("gens: a b\nrel: a^2\nrel: b^2\nrel: [a,b]"))
    a, b = v4.generator_elements
    ab = v4.mul(a, b)
    hom = Homomorphism(parse_presentation("gens: x y"), v4, (a, b))
    parent, step = [-1] * 4, [-1] * 4
    parent[a], parent[b], parent[ab] = 0, ab, b
    step[a] = step[b] = step[ab] = 0
    with pytest.raises(ValueError, match="no tree path"):
        Transversal(tuple(parent), tuple(step))
    with pytest.raises(AssertionError, match="a parent and a step per coset"):
        abelianized_relator_matrix(hom, Transversal((-1, 0, 0), (-1, 0, 0)))


def test_walk_outputs_are_pinned(panel_homs):
    """One SHA-256 over what the breadth-first walks of G build: every
    catalog group's Cayley table and element words, the Aut(G) tables of
    both extra-special groups of order 32, and the benchmark panel's
    transversal words and relator matrices."""
    h = hashlib.sha256()
    for label, presentation in catalog():
        G = realize(presentation)
        h.update(json.dumps([label, G.cayley, [list(w.letters) for w in G.element_words]]).encode())
    for label in ("G(32,49)", "G(32,50)"):
        h.update(automorphism_group(realize_label(label), get_presentation(label)).tobytes())
    _, homs = panel_homs
    for label, hom in homs:
        t = schreier_transversal(hom)
        h.update(json.dumps([label, [list(w.letters) for w in t.representative_words]]).encode())
        h.update(abelianized_relator_matrix(hom, t).tobytes())
    assert h.hexdigest()[:16] == "b174f6d5f2d0bdb3"


# ----------------------------------------------------- Smith normal form

def test_snf_examples():
    snf = smith_normal_form([[2, 0], [0, 3]])
    assert snf.invariant_factors == (1, 6) and snf.rank == 2
    snf = smith_normal_form([[1, 0], [0, 0]])
    assert snf.invariant_factors == (1,) and snf.rank == 1
    assert smith_normal_form([[-2, 0], [0, 3]]).invariant_factors == (1, 6)
    assert smith_normal_form([[6, 0, 0], [0, 4, 0], [0, 0, 10]]).invariant_factors == (2, 2, 60)
    assert smith_normal_form([[0, 0], [0, 0]]).rank == 0
    assert smith_normal_form([[5]]).invariant_factors == (5,)


def test_snf_transforms_reassemble():
    rng = random.Random(7)
    for _ in range(10):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        A = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(A)
        product = (
            snf.left.astype(object) @ np.array(A, dtype=object) @ snf.right.astype(object)
        )
        assert np.array_equal(product, snf.diagonal.astype(object))
        for i in range(snf.rank - 1):
            assert snf.invariant_factors[i + 1] % snf.invariant_factors[i] == 0


def test_snf_deterministic():
    A = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    first = smith_normal_form(A)
    second = smith_normal_form(A)
    assert np.array_equal(first.left, second.left)
    assert np.array_equal(first.right, second.right)
    assert np.array_equal(first.diagonal, second.diagonal)


def test_snf_huge_entries_stay_exact():
    snf = smith_normal_form([[2 ** 40, 1], [1, 2 ** 40]])
    assert snf.invariant_factors == (1, 2 ** 80 - 1)


def test_snf_moves_only_the_array_that_overflows():
    # M reaches 2^80 - 1, while the transforms keep entries of at most 2^40
    snf = smith_normal_form([[2 ** 40, 1], [1, 2 ** 40]])
    assert snf.diagonal.dtype == object
    assert snf.left.dtype == snf.right.dtype == np.int64
    product = snf.left.astype(object) @ np.array([[2 ** 40, 1], [1, 2 ** 40]], dtype=object)
    assert np.array_equal(product @ snf.right.astype(object), snf.diagonal)


@pytest.mark.parametrize("size", range(1, 7))
def test_integer_determinant_matches_sympy(size):
    rng = random.Random(400 + size)
    for trial in range(20):
        A = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        if trial % 4 == 1 and size > 1:  # singular: a repeated row
            A[-1] = list(A[0])
        if trial % 4 == 2:  # a zero leading pivot: the first row swap
            A[0][0] = 0
        if trial % 4 == 3 and size > 1:  # a zero second pivot after one step
            A[1] = [2 * v for v in A[0]]
            A[1][-1] += 1
        assert integer_determinant(A) == Matrix(A).det(), A


def _minor_gcd(A: list[list[int]], k: int) -> int:
    rows, cols = len(A), len(A[0])
    g = 0
    for rsel in combinations(range(rows), k):
        for csel in combinations(range(cols), k):
            g = math.gcd(g, integer_determinant([[A[r][c] for c in csel] for r in rsel]))
    return g


@pytest.mark.parametrize("size", [2, 3, 4, 6])
def test_snf_matches_gcd_of_minors(size):
    rng = random.Random(100 + size)
    for _ in range(8):
        A = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        snf = smith_normal_form(A)
        product = 1
        for k, d in enumerate(snf.invariant_factors, start=1):
            product *= d
            assert product == _minor_gcd(A, k)
        if snf.rank < size:
            assert _minor_gcd(A, snf.rank + 1) == 0


# The divisibility fix at position 2 used to refill the 3 x 3 block below
# it without eliminating it again, and the diagonal of that block gave
# (1, 1, 2, 2, 19128), whose product is twice |det|.
DIVISIBILITY_FIX = [
    [6, 12, 6, 2, 6],
    [0, 0, 0, 2, -2],
    [0, 5, 0, 12, 12],
    [5, 12, 0, -2, 12],
    [12, 0, -9, 2, 0],
]
HUGE = [[2 ** 40, 3], [5, 2 ** 40]]
HUGE_WITH_UNITS = [[1, 2 ** 70, 0], [2, 3, 2 ** 65], [0, 1, 5], [-1, 4, 2 ** 64]]


def test_snf_rediagonalizes_after_a_divisibility_fix():
    A = DIVISIBILITY_FIX
    snf = smith_normal_form(A)
    assert np.count_nonzero(snf.diagonal) == snf.rank == 5
    product = 1
    for k, d in enumerate(snf.invariant_factors, start=1):
        product *= d
        assert product == _minor_gcd(A, k)


def _assert_matches_numpy_oracle(A):
    """The Python-int SNF equals the numpy one of `snftools` entry for
    entry, with the same dtypes."""
    got, want = smith_normal_form(A), snftools.smith_normal_form(A)
    assert (got.rank, got.invariant_factors) == (want.rank, want.invariant_factors)
    for name in ("left", "right", "diagonal"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y), name


def test_snf_matches_numpy_oracle_on_small_matrices():
    rng = random.Random(22)
    for _ in range(200):
        rows, cols = rng.randint(2, 4), rng.randint(2, 4)
        _assert_matches_numpy_oracle([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize(
    "A",
    [DIVISIBILITY_FIX, HUGE, HUGE_WITH_UNITS, np.zeros((0, 3), dtype=np.int64),
     np.zeros((3, 0), dtype=np.int64)],
    ids=["divisibility-fix", "huge", "huge-with-units", "0x3", "3x0"],
)
def test_snf_matches_numpy_oracle_on_edge_cases(A):
    _assert_matches_numpy_oracle(A)


@pytest.mark.parametrize("label", ["G(32,49)", "G(32,50)"])
def test_snf_matches_numpy_oracle_on_distinct_rows(label):
    # phase two's input on each group's example structure
    g = realize_label(label)
    p = orbifold_presentation(2, 2)
    hom = Homomorphism(p, g, example_structure(g).elements)
    residual = _unit_pivot_residual(abelianized_relator_matrix(hom, schreier_transversal(hom)))[1]
    D = _distinct_rows(residual)[0]
    assert D.dtype == np.int64 and len(D) in (42, 123)
    _assert_matches_numpy_oracle(D)


@pytest.mark.parametrize(
    "function", [smith_normal_form, smith_invariants, integer_determinant],
    ids=["snf", "invariants", "determinant"],
)
@pytest.mark.parametrize("bad", [1.5, 2.0, "2", Fraction(3, 2)], ids=["float", "whole-float", "str", "Fraction"])
def test_non_integer_entries_are_refused(function, bad):
    # each entry used to be truncated or carried along: [[1.5, 0], [0, 2]]
    # gave the factors (1, 2) and the determinant 2
    with pytest.raises(ValueError, match="is not an integer"):
        function([[bad, 0], [0, 2]])
    with pytest.raises(ValueError, match="is not an integer"):
        function(np.array([[bad, 0], [0, 2]], dtype=object))


def test_numpy_integer_entries_are_accepted():
    for A in ([[np.int64(2), 0], [0, np.uint8(3)]], np.array([[2, 0], [0, 3]], dtype=np.int32)):
        assert smith_normal_form(A).invariant_factors == (1, 6)
        assert smith_invariants(A) == (2, (1, 6))
        assert integer_determinant(A) == 6
    assert smith_normal_form(np.array([[2 ** 63]], dtype=np.uint64)).diagonal.dtype == object


@pytest.mark.parametrize("call", ["smith_normal_form", "smith_invariants", "integer_determinant"])
def test_non_integer_entries_are_refused_under_optimize(call):
    snippet = f"import ddks.homology as h\nh.{call}([[1.5, 0], [0, 2]])"
    assert raised_under_optimize(snippet) == "ValueError matrix entry 1.5 is not an integer"


SNF_MUTANT = """
import ddks.homology as h

real_eliminate, real_matmul = h._eliminate_at, h._exact_matmul
{mutant}
h.smith_normal_form({matrix})
"""


# Each mutant breaks what one of the four final checks guards, and that
# check, the first of the four to see the break, must raise.
@pytest.mark.parametrize(
    "mutant, matrix, message",
    [
        # a pivot lost after its row and column were cleared: factors (2, 0)
        pytest.param(
            "def lossy(M, L, R, k):\n"
            "    done = real_eliminate(M, L, R, k)\n"
            "    if k == 1:\n"
            "        M[1][1] = 0\n"
            "    return done\n"
            "h._eliminate_at = lossy",
            [[2, 0], [0, 4]], "invariant factor is not positive", id="positive",
        ),
        # an entry left beside the first pivot
        pytest.param(
            "def leaky(M, L, R, k):\n"
            "    done = real_eliminate(M, L, R, k)\n"
            "    if k == 0:\n"
            "        M[0][1] = 1\n"
            "    return done\n"
            "h._eliminate_at = leaky",
            [[2, 0], [0, 4]], "the reduced matrix is not diagonal", id="diagonal",
        ),
        # no divisibility fix: factors (2, 3) instead of (1, 6)
        pytest.param(
            "h._enforce_divisibility = lambda M, L, R, rank: None",
            [[2, 0], [0, 3]], "invariant factors do not form a divisibility chain", id="chain",
        ),
        # a product with one entry off by one
        pytest.param(
            "def off_by_one(X, Y):\n"
            "    product = real_matmul(X, Y).copy()\n"
            "    product[0, 0] += 1\n"
            "    return product\n"
            "h._exact_matmul = off_by_one",
            [[2, 0], [0, 4]], "transform check failed", id="transform",
        ),
    ],
)
def test_snf_checks_survive_optimize(mutant, matrix, message):
    snippet = SNF_MUTANT.format(mutant=mutant, matrix=matrix)
    assert raised_under_optimize(snippet) == "AssertionError " + message


# ------------------------------------------- unit-pivot reduction oracle

def _dense_oracle(A) -> tuple[int, tuple[int, ...]]:
    snf = snftools.smith_normal_form(A)
    return snf.rank, snf.invariant_factors


def test_reduction_matches_dense_snf_on_random_sparse():
    rng = random.Random(2)
    for _ in range(300):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.choice((0.15, 0.3, 0.6))
        A = [
            [rng.randint(-2, 2) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        assert smith_invariants(A) == _dense_oracle(A), A


@pytest.mark.parametrize(
    "A",
    [
        [[0, 0, 0], [0, 0, 0]],
        [[0, 2, -1, 3, 1]],
        [[2, 4, 0], [6, -2, 2], [0, 4, 8]],
        HUGE,
        HUGE_WITH_UNITS,
    ],
    ids=["zero", "one-row", "no-unit", "huge", "huge-with-units"],
)
def test_reduction_matches_dense_snf_on_edge_cases(A):
    assert smith_invariants(A) == _dense_oracle(A)


@pytest.mark.parametrize("seed", range(3))
def test_rounds_engine_matches_dense_snf(seed):
    # sparse matrices up to 40 x 30 whose unit pivots take several rounds
    rng = random.Random(400 + seed)
    several = 0
    for _ in range(25):
        rows, cols = rng.randint(10, 40), rng.randint(8, 30)
        density = rng.choice((0.08, 0.15, 0.3))
        A = np.array(
            [[rng.randint(-2, 2) if rng.random() < density else 0 for _ in range(cols)]
             for _ in range(rows)],
            dtype=np.int64,
        )
        rounds = _eliminate_unit_pivots(A)[2][2]
        several += len(rounds) > 0 and rounds.max() > 0
        assert smith_invariants(A) == _dense_oracle(A), A.tolist()
    assert several >= 20


def test_rounds_engine_moves_to_python_ints_in_a_later_round():
    # Each row meets one pivot column a round, so round 0 makes entries of
    # at most B (1 + B) < 2^63 in int64; round 1 multiplies B^2 by B^2 and
    # must run on Python ints.  det = 1 - B^4.
    B = 2 ** 30
    A = np.array([[1, B, 0, 0], [0, 1, B, 0], [0, 0, 1, B], [B, 0, 0, 1]], dtype=np.int64)
    (rows, cols, values), ops, (_, _, rounds) = _eliminate_unit_pivots(A)
    assert rounds.tolist() == [0, 1, 2]
    assert values.dtype == object and max(abs(v) for v in values) == B ** 4 - 1
    assert smith_invariants(A) == _dense_oracle(A) == (4, (1, 1, 1, B ** 4 - 1))


def test_rounds_engine_refuses_matrices_its_ranks_cannot_order():
    A = np.broadcast_to(np.int64(0), (2 ** 16, 2 ** 15))
    with pytest.raises(ValueError, match="2\\^31 matrix entries"):
        _eliminate_unit_pivots(A)


def test_rounds_engine_is_deterministic(orbifold_hom):
    g, p, hom = orbifold_hom
    A = abelianized_relator_matrix(hom, schreier_transversal(hom))
    first, second = _eliminate_unit_pivots(A), _eliminate_unit_pivots(A)
    for part, again in zip(first, second):
        for x, y in zip(part, again):
            assert x.dtype == y.dtype and np.array_equal(x, y)
    assert len(first[2][0]) == 245


@pytest.mark.parametrize(
    "A, torsion",
    [
        ([[1, 2, 0], [0, 4, 0], [-1, 2, 0]], (4,)),
        ([[1, 1, 1], [1, 3, 1], [0, 0, 4]], (2, 4)),
    ],
)
def test_reduction_leaves_torsion_to_residual(A, torsion):
    units, residual = _unit_pivot_residual(np.array(A, dtype=np.int64))
    assert units >= 1
    assert smith_normal_form(residual).invariant_factors == torsion
    got = smith_invariants(A)
    assert got == _dense_oracle(A)
    assert got[1][units:] == torsion


def _rank_mod2(A: np.ndarray) -> int:
    M = (A % 2).astype(bool)
    rank = 0
    for col in range(M.shape[1]):
        hits = np.flatnonzero(M[rank:, col])
        if not len(hits):
            continue
        pivot = rank + hits[0]
        M[[rank, pivot]] = M[[pivot, rank]]
        others = np.flatnonzero(M[:, col])
        others = others[others != rank]
        M[others] ^= M[rank]
        rank += 1
        if rank == M.shape[0]:
            break
    return rank


TAMPERED_ELIMINATION = """
import numpy as np
import ddks.homology as h

real = h._eliminate_unit_pivots


def tampered(A):
    M, ops, pivots = real(A)
    rows, cols, values = M
{tamper}
    return M, ops, pivots


h._eliminate_unit_pivots = tampered
h.smith_invariants([[1, 0], [1, 2], [0, 4]])
"""

# The real elimination pivots row 0 on column 0 in round 0 with the one op
# (1, 0, 1), leaving the survivors [0, 2] and [0, 4]: the cokernel is Z_2,
# so (rank, factors) is (2, (1, 2)).  M = (rows, cols, values) holds the
# final nonzeros (0, 0, 1), (1, 1, 2) and (2, 1, 4); ops = (s, r, f).
@pytest.mark.parametrize(
    "tamper, message",
    [
        pytest.param(
            "    values[(rows == 1) & (cols == 1)] += 1",
            "row transform check failed",
            id="survivor-row",
        ),
        pytest.param(
            "    ops[2][0] += 1",
            "row transform check failed",
            id="multiplier",
        ),
        # A = F @ M still holds, but F = [[1, -1], [1, 1]] on the survivors
        # has determinant 2: without the order check the residual [[3], [1]]
        # would report (2, (1, 1)).
        pytest.param(
            "    values[rows == 1], values[rows == 2] = 3, 1\n"
            "    ops = tuple(np.append(a, b) for a, b in zip(ops, ([1, 2], [2, 1], [-1, 1])))",
            "a row operation reads a later row",
            id="later-row",
        ),
    ],
)
def test_unit_pivot_certificate_survives_optimize(tamper, message):
    snippet = TAMPERED_ELIMINATION.replace("{tamper}", tamper)
    assert raised_under_optimize(snippet) == "AssertionError " + message


FORGED_ELIMINATION = """
import numpy as np
import ddks.homology as h

forged = tuple(
    tuple(np.array(a, dtype=np.int64) for a in part) for part in ({M}, {ops}, {pivots})
)
h._eliminate_unit_pivots = lambda A: forged
h.smith_invariants({matrix})
"""


# Each forged certificate rebuilds its matrix exactly (A = F @ M), so only
# the checks on M's entries, its pivot block and its pivot columns can
# refuse it; the answers in the comments are what it would give without
# them.  M = (rows, cols, values), ops = (s, r, f), pivots = (rows, cols,
# rounds).
@pytest.mark.parametrize(
    "matrix, M, ops, pivots, raised",
    [
        # true (2, (1, 2)); would give (2, (1, 1))
        pytest.param(
            [[1, 0], [1, 2], [0, 4]], ([0, 1, 2], [0, 1, 1], [1, 2, 4]), ([1], [0], [1]),
            ([0, 1], [0, 1], [0, 1]), "unit pivot check failed", id="non-unit",
        ),
        # true rank 1; would give 2
        pytest.param(
            [[1, 1], [1, 1]], ([0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 1]), ([], [], []),
            ([0, 1], [0, 1], [0, 1]), "pivot block is not triangular", id="lower-entry",
        ),
        # the same two pivots in one round, each row nonzero in the other's
        # column: true rank 1; would give 2
        pytest.param(
            [[1, 1], [1, 1]], ([0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 1]), ([], [], []),
            ([0, 1], [0, 1], [0, 0]), "two pivots of one round conflict", id="round-conflict",
        ),
        # true rank 1; would give 2
        pytest.param(
            [[1, 0], [1, 0]], ([0, 1], [0, 0], [1, 1]), ([], [], []),
            ([0], [0], [0]), "a pivot column survived", id="pivot-column",
        ),
        pytest.param(
            [[1, 0], [1, 2], [0, 4]], ([0, 1, 2], [0, 1, 1], [1, 2, 4]), ([1], [0], [1]),
            ([0, 0], [0, 0], [0, 0]), "a pivot row or column repeats", id="repeat",
        ),
        # row 0 lists (0, 1) twice, as 1 and 0: the replay of row 0 reads
        # the last, the op's product reads both, so the survivor is [0, 1]:
        # true (2, (1, 2)); would give (2, (1, 1))
        pytest.param(
            [[1, 0], [1, 2]], ([0, 0, 0, 1], [0, 1, 1, 1], [1, 1, 0, 1]), ([1], [0], [1]),
            ([0], [0], [0]), "the final rows are not sorted by position", id="repeated-entry",
        ),
    ],
)
def test_unit_pivot_block_checks_survive_optimize(matrix, M, ops, pivots, raised):
    snippet = FORGED_ELIMINATION.format(M=M, ops=ops, pivots=pivots, matrix=matrix)
    assert raised_under_optimize(snippet) == "AssertionError " + raised


TAMPERED_REWRITING = """
from ddks.group_core import Homomorphism, parse_presentation, realize
from ddks.homology import abelianized_relator_matrix, schreier_transversal

z2 = realize(parse_presentation("gens: y\\nrel: y^2"))
{tamper}
"""


@pytest.mark.parametrize(
    "tamper, message",
    [
        # x -> 1 does not reach the odd coset of Z2
        pytest.param(
            "schreier_transversal(Homomorphism(parse_presentation('gens: x'), z2, (0,)))",
            "ValueError homomorphism is not surjective",
            id="missing-coset",
        ),
        # x^3 is not a relator of the map x -> y onto Z2: a forged source,
        # as the constructor refuses it
        pytest.param(
            "hom = Homomorphism(parse_presentation('gens: x'), z2, (1,))\n"
            "object.__setattr__(hom, 'source', parse_presentation('gens: x\\nrel: x^3'))\n"
            "abelianized_relator_matrix(hom, schreier_transversal(hom))",
            "AssertionError relator does not map to the identity",
            id="relator",
        ),
    ],
)
def test_rewriting_checks_survive_optimize(tamper, message):
    snippet = TAMPERED_REWRITING.replace("{tamper}", tamper)
    assert raised_under_optimize(snippet) == message


# ------------------------------------------------ residual row lattice

# Phase two hands the SNF the residual's distinct rows up to sign, which
# span its row lattice; the tests keep the names of the echelon basis
# that step replaced.

LATTICE_ENTRIES = (0, 0, 0, 2, -2, 3, -4, 6, -9, 12)


def _assert_distinct_rows(R, D, at, source):
    """D is R's rows up to sign, each once with its first nonzero entry
    positive, sorted; R[i] = +-D[at[i]] and D[j] = +-R[source[j]]."""
    assert D.dtype == R.dtype and D.shape[1] == R.shape[1]
    signed = {max(row, tuple(-v for v in row)) for row in map(tuple, R.tolist())}
    assert D.tolist() == [list(row) for row in sorted(signed)]
    for i, row in enumerate(R.tolist()):
        assert D[at[i]].tolist() in (row, [-v for v in row])
    for j, row in enumerate(D.tolist()):
        assert R[source[j]].tolist() in (row, [-v for v in row])


@pytest.mark.parametrize("seed", range(4))
def test_row_lattice_basis_matches_dense_snf(seed):
    # tall matrices without unit entries, with zero rows and zero columns:
    # phase one pivots on nothing and drops the zero rows
    rng = random.Random(300 + seed)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 40), rng.randint(1, 8)
        R = np.array(
            [[rng.choice(LATTICE_ENTRIES) for _ in range(ncols)] for _ in range(nrows)],
            dtype=np.int64,
        )
        R[rng.sample(range(nrows), nrows // 4)] = 0
        R[:, rng.sample(range(ncols), ncols // 4)] = 0
        units, residual = _unit_pivot_residual(R)
        assert units == 0 and residual.shape == (np.count_nonzero(R.any(axis=1)), ncols)
        D, at, source = _distinct_rows(residual)
        _assert_distinct_rows(residual, D, at, source)
        snf = smith_normal_form(D)
        assert (snf.rank, snf.invariant_factors) == _dense_oracle(R) == smith_invariants(R), R.tolist()


@pytest.mark.parametrize(
    "R",
    [
        # int64 rows, one repeated with its sign flipped, whose SNF's first
        # update, q * p with q about 2^61 / 3, needs Python ints
        np.array([[2 ** 61, 3], [2 ** 61 + 1, 5], [3, 2 ** 61], [-2 ** 61 - 1, -5]], dtype=np.int64),
        np.array([[2 ** 70, 6], [2 ** 70 + 4, 10], [0, 0], [-2 ** 70, -6]], dtype=object),
    ],
    ids=["int64-overflows", "object"],
)
def test_row_lattice_basis_in_python_ints(R):
    D, at, source = _distinct_rows(R)
    _assert_distinct_rows(R, D, at, source)
    assert len(D) == 3
    snf = smith_normal_form(D)
    assert (snf.rank, snf.invariant_factors) == _dense_oracle(R) == smith_invariants(R)


def test_row_lattice_basis_of_panel_residuals(orbifold_hom):
    g, p, hom = orbifold_hom
    A = abelianized_relator_matrix(hom, schreier_transversal(hom))
    units, residual = _unit_pivot_residual(A)
    D, at, source = _distinct_rows(residual)
    _assert_distinct_rows(residual, D, at, source)
    assert residual.shape[0] > 300 and D.shape == (123, residual.shape[1])
    assert smith_normal_form(D).invariant_factors == smith_normal_form(residual).invariant_factors


TAMPERED_DISTINCT = """
import numpy as np
import ddks.homology as h

real = h._distinct_rows


def tampered(R):
    D, at, source = real(R)
{tamper}
    return D, at, source


h._distinct_rows = tampered
h.smith_invariants([[2, 0], [4, 0], [0, 3], [-2, 0]])
"""


# Phase one finds no unit entry, so the residual is the matrix itself; its
# distinct rows are D = [[0, 3], [2, 0], [4, 0]] with at = [1, 2, 0, 1] and
# source = [2, 0, 1], and (rank, factors) is (2, (1, 6)).  The answers in
# the comments are what each forged step would give without the check.
@pytest.mark.parametrize(
    "tamper",
    [
        # (1, (2,))
        pytest.param("    D, at, source = D[1:], np.maximum(at - 1, 0), source[1:]", id="dropped-basis-row"),
        # (2, (2, 6))
        pytest.param("    D[0, 1] = 6", id="basis-row"),
        # every residual row is still +-1 times a row of D: (2, (1, 3))
        pytest.param("    D, source = np.vstack([D, [1, 0]]), np.append(source, 0)", id="extra-row"),
    ],
)
def test_row_lattice_certificate_survives_optimize(tamper):
    assert smith_invariants([[2, 0], [4, 0], [0, 3], [-2, 0]]) == (2, (1, 6))
    snippet = TAMPERED_DISTINCT.replace("{tamper}", tamper)
    assert raised_under_optimize(snippet) == "AssertionError distinct row check failed"


# ------------------------------------------------------ exact products

def _python_product(X, Y) -> list[list[int]]:
    return [
        [sum(int(X[i, k]) * int(Y[k, j]) for k in range(X.shape[1])) for j in range(Y.shape[1])]
        for i in range(X.shape[0])
    ]


def test_exact_matmul_takes_int64_for_object_arrays_that_fit():
    rng = np.random.default_rng(3)
    X = rng.integers(-2 ** 20, 2 ** 20, size=(7, 5)).astype(object)
    Y = rng.integers(-2 ** 20, 2 ** 20, size=(5, 4)).astype(object)
    product = _exact_matmul(X, Y)
    assert product.dtype == np.int64
    assert product.tolist() == _python_product(X, Y)


@pytest.mark.parametrize(
    "X, Y",
    [
        # the sum is exactly 2^63, one past int64
        (np.array([[2 ** 31, 2 ** 31]]), np.array([[2 ** 31], [2 ** 31]])),
        (np.array([[2 ** 62, -3]]), np.array([[4], [2 ** 62]])),
        (np.array([[2 ** 70, 1]], dtype=object), np.array([[3], [2 ** 65]], dtype=object)),
    ],
    ids=["sum", "int64-inputs", "object"],
)
def test_exact_matmul_stays_exact_above_2_63(X, Y):
    product = _exact_matmul(X, Y)
    assert product.dtype == object
    assert product.tolist() == _python_product(X, Y)


def test_exact_matmul_keeps_int64_in_the_columns_that_fit():
    # column 0 fits int64, column 1 needs Python ints: 2^62 * 3 + 5 * 2^62
    X = np.array([[3, 5], [-7, 1]])
    Y = np.array([[1, 2 ** 62], [-2, 2 ** 62]], dtype=object)
    product = _exact_matmul(X, Y)
    assert product.dtype == object
    assert product.tolist() == _python_product(X, Y)
    assert all(type(v) is int for v in product.flat)


def test_first_homology_multiplies_no_floats(orbifold_hom, monkeypatch):
    g, p, hom = orbifold_hom
    calls = []
    real = homology._exact_matmul

    def integer_only(X, Y):
        product = real(X, Y)
        for array in (X, Y, product):
            assert array.dtype == np.int64 or array.dtype == object, array.dtype
        calls.append(product.shape)
        return product

    monkeypatch.setattr(homology, "_exact_matmul", integer_only)
    assert first_homology(hom) == HomologyInvariants(8, (2, 2, 2, 2))
    assert calls == [(123, 12), (123, 12)]


@pytest.mark.parametrize("label", ["G(32,49)", "G(32,50)"])
def test_reduction_on_orbifold_matrix(label):
    g = realize_label(label)
    p = orbifold_presentation(2, 2)
    hom = Homomorphism(p, g, example_structure(g).elements)
    A = abelianized_relator_matrix(hom, schreier_transversal(hom))
    rank, factors = smith_invariants(A)
    assert (rank, factors) == _dense_oracle(A)
    even = sum(1 for d in factors if d % 2 == 0)
    assert rank - _rank_mod2(A) == even == 4


# --------------------------------------------------------------- pipeline

def test_first_homology_small_cases(trivial_group):
    surf = parse_presentation("gens: a1 b1 a2 b2\nrel: [a1,b1] [a2,b2]")
    hom = Homomorphism(surf, trivial_group, (0,) * 4)
    assert first_homology(hom) == HomologyInvariants(4, ())

    z4 = parse_presentation("gens: x\nrel: x^4")
    hom = Homomorphism(z4, trivial_group, (0,))
    assert first_homology(hom) == HomologyInvariants(0, (4,))


def test_orbifold_onto_trivial(trivial_group):
    # the branching generator dies integrally: its exponent sum in the two
    # long relators is -1 / +1, so no torsion survives at index one
    p = orbifold_presentation(2, 2)
    hom = Homomorphism(p, trivial_group, (0,) * 9)
    assert first_homology(hom) == HomologyInvariants(8, ())


def test_orbifold_presentation_shape():
    p = orbifold_presentation(2, 2)
    assert len(p.generators) == 9
    assert len(p.relators) == 23
    assert p.relators[-1] == Word.gen(8) ** 2
    assert orbifold_presentation(2, 3).relators[-1] == Word.gen(8) ** 3


def test_invariants_chain_validation():
    with pytest.raises(ValueError, match="chain"):
        HomologyInvariants(0, (2, 3))
    with pytest.raises(ValueError, match=">= 2"):
        HomologyInvariants(0, (1,))
    assert HomologyInvariants(3, (2, 4)).to_dict() == {
        "free_rank": 3,
        "torsion": [2, 4],
    }


# -------------------------------------------------------- surface result

@pytest.mark.parametrize("label", ["G(32,49)", "G(32,50)"])
def test_surface_homology_of_example(label):
    g = realize_label(label)
    inv, maximal = h1_of_surface(g, example_structure(g))
    assert inv == HomologyInvariants(8, (2, 2, 2, 2))
    assert maximal


def test_surface_homology_stable_across_structures(rows_cache):
    rng = random.Random(5)
    for label in ("G(32,49)", "G(32,50)"):
        g = realize_label(label)
        rows = rows_cache.backtrack(label)
        for _ in range(3):
            row = rows[rng.randrange(len(rows))]
            s = DDKStructure(g, StructureType(2, 2), tuple(int(v) for v in row))
            inv, maximal = h1_of_surface(g, s)
            assert inv == HomologyInvariants(8, (2, 2, 2, 2))
            assert maximal


def test_first_homology_on_the_benchmark_panel(panel_homs):
    _, homs = panel_homs
    for label, hom in homs:
        assert first_homology(hom) == HomologyInvariants(8, (2, 2, 2, 2)), label


def test_surface_homology_rejects_non_structures():
    """A tuple that is no structure is refused where it is made, so
    `h1_of_surface` checks only that the structure lies in G itself."""
    g = realize_label("G(32,49)")
    with pytest.raises(ValueError, match="^not a structure: o\\(z\\) >= 2 violated$"):
        DDKStructure(g, StructureType(2, 2), (0,) * 9)
    copy = realize(get_presentation("G(32,49)"))  # the same table, another group object
    with pytest.raises(ValueError, match="^the structure lies in another group$"):
        h1_of_surface(copy, example_structure(g))


def test_betti_number_feeds_hodge_numbers():
    g = realize_label("G(32,49)")
    s = example_structure(g)
    inv, _ = h1_of_surface(g, s)
    report = with_homology(fibration_data(g, s), inv.free_rank)
    assert (report.q_irr, report.p_g, report.maximal) == (4, 47, True)


# numpy 2's np.unique without return flags imports numpy.ma on its first
# call, about 19 ms and 1.3 MB in a fresh process; H1, Inn(G) and Aut(G)
# run in the benchmark's timed parts, so none of them may call it.
NO_MASKED_ARRAYS = """
import sys
from ddks.automorphisms import automorphism_group
from ddks.group_core import get_presentation, realize_label
from ddks.homology import h1_of_surface
from ddks.structures import example_structure, inner_automorphism_table
from ddks.symplectic import induced_space

g = realize_label("G(32,49)")
h1_of_surface(g, example_structure(g))
inner_automorphism_table(g)
induced_space(g)
automorphism_group(g, get_presentation("G(32,49)"))
print("numpy.ma" in sys.modules)
"""


def test_h1_inn_and_aut_do_not_import_numpy_ma():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ddks.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS], env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
