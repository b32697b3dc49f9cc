import pytest

from ddks.group_core import (
    Presentation,
    PresentationError,
    Word,
    parse_presentation,
    word_from_str,
)


def test_klein_four():
    p = parse_presentation("gens: x y\nrel: x^2\nrel: y^2\nrel: [x,y]")
    assert p.generators == ("x", "y")
    assert len(p.relators) == 3
    assert p.relators[2].letters == (1, 2, -1, -2)


def test_comments_and_blank_lines():
    p = parse_presentation(
        """
        # leading comment
        gens: a b   # trailing comment

        rel: a b^-1  # another
        """
    )
    assert p.generators == ("a", "b")
    assert p.relators == (Word((1, -2)),)


def test_undeclared_generator():
    with pytest.raises(PresentationError, match="undeclared generator 'y'"):
        parse_presentation("gens: x\nrel: [x,y]")


def test_error_positions():
    try:
        parse_presentation("gens: x\nrel: x^0")
    except PresentationError as e:
        assert e.line == 2
        assert "nonzero" in str(e)
    else:
        pytest.fail("expected error")

    try:
        parse_presentation("gens: x\nrel: x y")
    except PresentationError as e:
        assert (e.line, e.col) == (2, 8)
    else:
        pytest.fail("expected error")


def test_empty_gens_is_error():
    with pytest.raises(PresentationError, match="empty generator list"):
        parse_presentation("gens:\nrel: x")


def test_missing_gens_line():
    with pytest.raises(PresentationError, match="no 'gens:' line"):
        parse_presentation("# nothing here\n")
    with pytest.raises(PresentationError, match="before 'gens:'"):
        parse_presentation("rel: x\ngens: x")


def test_duplicate_gens_line():
    with pytest.raises(PresentationError, match="duplicate 'gens:'"):
        parse_presentation("gens: x\ngens: y")
    with pytest.raises(PresentationError, match="duplicate generator"):
        parse_presentation("gens: x x")


def test_unknown_directive():
    with pytest.raises(PresentationError, match="unknown directive"):
        parse_presentation("gens: x\nfoo: bar")


def test_atoms_need_whitespace():
    with pytest.raises(PresentationError, match="whitespace between atoms"):
        parse_presentation("gens: x y\nrel: x[x,y]")


def test_exponents():
    p = parse_presentation("gens: x\nrel: x^-3")
    assert p.relators[0].letters == (-1, -1, -1)


def test_nested_commutator():
    w = word_from_str("[[x, y], z]", ("x", "y", "z"))
    inner = (1, 2, -1, -2)
    expected = inner + (3,) + tuple(-l for l in reversed(inner)) + (-3,)
    assert w.letters == expected


def test_commutator_of_words():
    w = word_from_str("[x y, z^2]", ("x", "y", "z"))
    assert w.letters == (1, 2, 3, 3, -2, -1, -3, -3)


def test_word_from_str_rejects_trailing():
    with pytest.raises(PresentationError):
        word_from_str("x ]", ("x",))


def test_relator_index_validation():
    with pytest.raises(PresentationError):
        Presentation(("x",), (Word((2,)),))


def test_round_trip_via_format():
    src = "gens: x y\nrel: x^4\nrel: y^2\nrel: x y x^-1 y"
    p = parse_presentation(src)
    text = "gens: x y\n" + "".join(f"rel: {r.format(p.generators)}\n" for r in p.relators)
    again = parse_presentation(text)
    assert again == p
