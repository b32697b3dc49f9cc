from hypothesis import given, strategies as st

from ddks.group_core import Word, commutator, free_reduce

letters = st.integers(min_value=-5, max_value=5).filter(lambda x: x != 0)


def test_free_reduce_basic():
    assert free_reduce([1, -1]) == ()
    assert free_reduce([1, 2, -2, -1]) == ()
    assert free_reduce([1, 2, -2, 1]) == (1, 1)
    assert free_reduce([]) == ()


def test_free_reduce_rejects_zero():
    import pytest
    with pytest.raises(ValueError):
        free_reduce([1, 0])


def test_word_normalizes_on_construction():
    assert Word((1, -1, 2)).letters == (2,)
    assert Word(()).is_identity


def test_gen_and_mul():
    x, y = Word.gen(0), Word.gen(1)
    assert (x * y).letters == (1, 2)
    assert (x * x.inverse()).is_identity
    assert (x ** 3).letters == (1, 1, 1)
    assert (x ** -2).letters == (-1, -1)
    assert (x ** 0).is_identity


def test_commutator_expansion():
    x, y = Word.gen(0), Word.gen(1)
    assert commutator(x, y).letters == (1, 2, -1, -2)


def test_format():
    names = ("x", "y")
    assert (Word.gen(0) ** 2 * Word.gen(1) ** -1).format(names) == "x^2 y^-1"
    assert Word(()).format(names) == "1"


@given(st.lists(letters, max_size=30))
def test_reduction_is_idempotent(ls):
    once = free_reduce(ls)
    assert free_reduce(once) == once


@given(st.lists(letters, max_size=30))
def test_no_adjacent_inverse_pairs(ls):
    reduced = free_reduce(ls)
    assert all(reduced[i] != -reduced[i + 1] for i in range(len(reduced) - 1))


@given(st.lists(letters, max_size=20))
def test_inverse_cancels(ls):
    w = Word(tuple(ls))
    assert (w * w.inverse()).is_identity
    assert (w.inverse() * w).is_identity


@given(st.lists(letters, max_size=12), st.lists(letters, max_size=12))
def test_mul_matches_concatenation(a, b):
    assert Word(tuple(a)) * Word(tuple(b)) == Word(tuple(a) + tuple(b))
