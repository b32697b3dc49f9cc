from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddks.group_core import get_presentation, realize, realize_label
from ddks.invariants import (
    FibrationReport,
    base_genus,
    branch_weight,
    chern_invariants,
    fibration_data,
    fibre_genus,
    hodge_numbers,
    report_to_dict,
    signature,
    signature_scan,
    slope_in_window,
    with_homology,
)
from ddks.structures import (
    DDKStructure,
    StructureType,
    example_structure,
)
from optimizetools import raised_under_optimize

admissible = st.tuples(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=2, max_value=9),
)


EXPECTED_32 = FibrationReport(
    group_order=32,
    b=2,
    n=2,
    frak_n=Fraction(1, 2),
    m1=1,
    m2=1,
    b1=2,
    b2=2,
    g1=41,
    g2=41,
    c1sq=368,
    c2=160,
    slope=Fraction(23, 10),
    sigma=16,
    chi=44,
)


# ------------------------------------------------------------- formulas

def test_signature_values():
    assert signature(32, 2, 2) == 16
    assert signature(243, 2, 3) == 144


def test_signature_rejects_non_integer_and_bad_input():
    with pytest.raises(ValueError, match="not an integer"):
        signature(33, 2, 2)
    with pytest.raises(ValueError, match="genus"):
        signature(32, 1, 2)
    with pytest.raises(ValueError, match="branching"):
        signature(32, 2, 1)
    with pytest.raises(ValueError, match="order"):
        signature(0, 2, 2)


def test_chern_values():
    assert chern_invariants(32, 2, 2) == (368, 160, Fraction(23, 10))
    assert chern_invariants(243, 2, 3) == (3024, 1296, Fraction(7, 3))


def test_slope_window_exact():
    assert slope_in_window(Fraction(23, 10))
    assert slope_in_window(Fraction(7, 3))
    assert not slope_in_window(Fraction(2))
    assert not slope_in_window(Fraction(5, 2))
    # 6 - 4*sqrt(2) = 0.34314...; 2 + 12/35 = 2.34285... is still inside
    assert slope_in_window(Fraction(2) + Fraction(12, 35))
    assert not slope_in_window(Fraction(2) + Fraction(12, 34))


@settings(max_examples=100)
@given(admissible)
def test_signature_is_chern_combination(triple):
    order, b, n = triple
    raw = Fraction(order * (2 * b - 2), 3) * (1 - Fraction(1, n * n))
    try:
        c1sq, c2, _ = chern_invariants(order, b, n)
    except ValueError:
        return
    assert raw == Fraction(c1sq - 2 * c2, 3)
    try:
        assert signature(order, b, n) == raw
    except ValueError:
        assert raw.denominator != 1


@settings(max_examples=200)
@given(admissible)
def test_signature_positive_and_odd_branching_mod_16(triple):
    order, b, n = triple
    try:
        sigma = signature(order, b, n)
    except ValueError:
        return
    assert sigma > 0
    if n % 2:
        assert sigma % 16 == 0


@settings(max_examples=200)
@given(admissible)
def test_slope_always_in_window(triple):
    try:
        _, _, slope = chern_invariants(*triple)
    except ValueError:
        return
    assert slope_in_window(slope)


@settings(max_examples=200)
@given(st.integers(min_value=32, max_value=4096),
       st.integers(min_value=2, max_value=6),
       st.integers(min_value=2, max_value=9))
def test_signature_lower_bound(order, b, n):
    try:
        assert signature(order, b, n) >= 16
    except ValueError:
        pass


# ---------------------------------------------------------------- genera

def test_genus_formulas():
    assert base_genus(2, 1) == 2
    assert base_genus(2, 2) == 3
    assert fibre_genus(32, 2, 2, 1) == 41
    assert fibre_genus(32, 2, 2, 2) == 21
    assert fibre_genus(243, 2, 3, 1) == 325
    with pytest.raises(ValueError, match="divide"):
        fibre_genus(32, 2, 2, 3)


def test_branch_weight():
    assert branch_weight(2) == Fraction(1, 2)
    assert branch_weight(3) == Fraction(2, 3)
    with pytest.raises(ValueError):
        branch_weight(1)


# ---------------------------------------------------------------- reports

@pytest.mark.parametrize("label", ["G(32,49)", "G(32,50)"])
def test_example_structure_report(label):
    g = realize_label(label)
    report = fibration_data(g, example_structure(g))
    assert report == EXPECTED_32


@pytest.mark.parametrize("label", ["G(32,49)", "G(32,50)"])
def test_enumerated_structures_share_one_report(label, rows_cache):
    g = realize_label(label)
    rows = rows_cache.backtrack(label)
    t = StructureType(2, 2)
    for row in rows[:: max(1, len(rows) // 20)]:
        s = DDKStructure(g, t, tuple(int(x) for x in row))
        assert fibration_data(g, s) == EXPECTED_32


def test_fibration_data_rejects_non_structures():
    """A tuple that is no structure is refused where it is made, so
    `fibration_data` checks only that the structure lies in G itself."""
    g = realize_label("G(32,49)")
    with pytest.raises(ValueError, match="^not a structure: o\\(z\\) >= 2 violated$"):
        DDKStructure(g, StructureType(2, 2), (0,) * 9)
    copy = realize(get_presentation("G(32,49)"))  # the same table, another group object
    with pytest.raises(ValueError, match="^the structure lies in another group$"):
        fibration_data(copy, example_structure(g))


def test_hodge_numbers():
    assert hodge_numbers(368, 160, 8, 2) == (44, 4, 47, True)
    assert hodge_numbers(0, 12, 0, 2) == (1, 0, 0, False)
    assert hodge_numbers(368, 160, 10, 2) == (44, 5, 48, False)
    with pytest.raises(ValueError, match="even"):
        hodge_numbers(368, 160, 7, 2)
    with pytest.raises(ValueError, match="chi"):
        hodge_numbers(1, 1, 0, 2)


def test_with_homology_and_serialization():
    g = realize_label("G(32,49)")
    report = fibration_data(g, example_structure(g))
    bare = report_to_dict(report)
    assert bare["slope"] == "23/10"
    assert bare["frak_n"] == "1/2"
    assert "first_betti" not in bare and "q_irr" not in bare
    assert "p_g" not in bare and "maximal" not in bare

    full = with_homology(report, 8)
    assert (full.first_betti, full.q_irr, full.p_g, full.maximal) == (8, 4, 47, True)
    d = report_to_dict(full)
    assert d["q_irr"] == 4 and d["p_g"] == 47 and d["maximal"] is True
    assert d["sigma"] == 16 and d["chi"] == 44 and d["g1"] == 41

    not_max = with_homology(report, 10)
    assert not_max.maximal is False


TAMPERED_IDENTITIES = """
from fractions import Fraction
from ddks import invariants, symplectic
from ddks.group_core import realize_label
from ddks.structures import example_structure

g = realize_label("G(32,49)")
{tamper}
"""


# On the example structure c1^2 = 368, c2 = 160, slope 23/10, sigma = 16
# and chi = 44; each tamper breaks one identity the code checks.
@pytest.mark.parametrize(
    "tamper, message",
    [
        pytest.param(
            "invariants.signature = lambda *a: 12\n"
            "invariants.fibration_data(g, example_structure(g))",
            "sigma is not (c1^2 - 2 c2) / 3",
            id="sigma",
        ),
        pytest.param(
            "invariants.signature = lambda *a: 6\n"
            "invariants.chern_invariants = lambda *a: (58, 20, Fraction(29, 10))\n"
            "invariants.fibration_data(g, example_structure(g))",
            "sigma = 6 is not a positive multiple of 4",
            id="sigma-mod-4",
        ),
        pytest.param(
            "invariants.slope_in_window = lambda slope: False\n"
            "invariants.fibration_data(g, example_structure(g))",
            "slope 23/10 is outside (2, 8 - 4 sqrt 2)",
            id="slope",
        ),
        pytest.param(
            "invariants.hodge_numbers = lambda *a: (45, 4, 48, True)\n"
            "invariants.with_homology(invariants.fibration_data(g, example_structure(g)), 8)",
            "chi from the Betti number differs from the report's",
            id="chi",
        ),
        # Z_2: its centre has order 2, but [G, G] is trivial
        pytest.param(
            "from ddks.group_core import parse_presentation, realize\n"
            "symplectic.SymplecticSpace(realize(parse_presentation('gens: x\\nrel: x^2')))",
            "extra-special input needed: [G, G] must equal Z(G)",
            id="derived-subgroup",
        ),
    ],
)
def test_identity_checks_survive_optimize(tamper, message):
    raised = raised_under_optimize(TAMPERED_IDENTITIES.replace("{tamper}", tamper))
    assert raised.partition(" ")[2] == message


# ------------------------------------------------------------------ scan

def test_scan_minimum_is_unique():
    table = signature_scan()
    assert min(table.values()) == 16
    minimizers = [key for key, value in table.items() if value == 16]
    assert minimizers == [(32, 2, 2)]
    assert all(value >= 16 for value in table.values())
