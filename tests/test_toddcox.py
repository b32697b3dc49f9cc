import pytest

from ddks.group_core import CosetEnumerationError, coset_table
from optimizetools import raised_under_optimize


def trace(table: list[list[int]], start: int, letters) -> int:
    """Apply a word (signed 1-based letters) to a coset: generator g acts
    by column 2g, its inverse by column 2g + 1."""
    c = start
    for l in letters:
        c = table[c][2 * (abs(l) - 1) + (l < 0)]
    return c


def test_cyclic_group():
    table = coset_table(1, [[1, 1, 1, 1, 1]])
    assert len(table) == 5
    # columns: generator, inverse
    assert [row[0] for row in table] == [1, 2, 3, 4, 0]


def test_trivial_subgroup_of_s3():
    # <x, y | x^2, y^3, (xy)^2> has order 6
    rels = [[1, 1], [2, 2, 2], [1, 2, 1, 2]]
    table = coset_table(2, rels)
    assert len(table) == 6


def test_collapse_to_trivial():
    table = coset_table(2, [[1], [2]])
    assert len(table) == 1
    assert table[0] == [0, 0, 0, 0]
    # and via a less direct collapse: x = y = x^2 forces x = y = 1
    table2 = coset_table(2, [[1, -2], [2, -1, -1], [1, 1, 1]])
    assert len(table2) == 1


def test_cap_exceeded():
    # free group on 2 generators: never closes
    with pytest.raises(CosetEnumerationError):
        coset_table(2, [], max_cosets=100)


def test_table_is_regular_action():
    rels = [[1, 1, 1, 1], [2, 2], [2, 1, 2, 1]]  # D8
    table = coset_table(2, rels)
    assert len(table) == 8
    for r in rels:
        for c in range(len(table)):
            assert trace(table, c, r) == c
    # mutually inverse columns
    for c, row in enumerate(table):
        for col, d in enumerate(row):
            assert table[d][col ^ 1] == c


def test_determinism():
    rels = [[1, 1], [2, 2, 2], [1, 2, 1, 2]]
    assert coset_table(2, rels) == coset_table(2, rels)


def test_quaternion_indices():
    # i^2 = j^2 = (ij)^2 reversed chain form; Q8 has order 8
    rels = [[1, 1, -2, -2], [2, 2, -1, -2, -1, -2]]
    table = coset_table(2, rels)
    assert len(table) == 8


TAMPERED_TABLE = """
import ddks.group_core.toddcox as tc

real = tc._verify_table


def tampered(table, rel_cols):
{tamper}
    real(table, rel_cols)


tc._verify_table = tampered
tc.coset_table(1, [[1, 1, 1]])
"""

# Z3 closes with the table [[1, 2], [2, 0], [0, 1]]: columns x, x^-1.
@pytest.mark.parametrize(
    "tamper, message",
    [
        pytest.param("    table[0][0] = 3", "table entry out of range", id="range"),
        pytest.param("    table[0][0] = 2", "columns not mutually inverse", id="inverse"),
        pytest.param("    rel_cols = rel_cols + [[0]]", "relator does not close", id="relator"),
    ],
)
def test_table_certificate_survives_optimize(tamper, message):
    snippet = TAMPERED_TABLE.replace("{tamper}", tamper)
    assert raised_under_optimize(snippet) == "AssertionError " + message
