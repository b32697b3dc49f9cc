"""Closed-form invariants of the double fibrations attached to structures.

Everything here is exact rational arithmetic (no floats): Chern numbers,
slope, signature, holomorphic Euler characteristic, base/fibre genera of
the two induced fibrations, and the Hodge numbers once the homology module
supplies a first Betti number.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping

from .group_core import FiniteGroup
from .structures import DDKStructure, k_subgroups

__all__ = [
    "FibrationReport",
    "base_genus",
    "branch_weight",
    "chern_invariants",
    "fibration_data",
    "fibre_genus",
    "hodge_numbers",
    "report_to_dict",
    "signature",
    "signature_scan",
    "slope_in_window",
    "with_homology",
]


def _check_admissible(group_order: int, b: int, n: int) -> None:
    if group_order < 1:
        raise ValueError(f"group order must be >= 1, got {group_order}")
    if b < 2:
        raise ValueError(f"genus must be >= 2, got {b}")
    if n < 2:
        raise ValueError(f"branching order must be >= 2, got {n}")


def branch_weight(n: int) -> Fraction:
    """The rational weight 1 - 1/n attached to branching order n."""
    if n < 2:
        raise ValueError(f"branching order must be >= 2, got {n}")
    return 1 - Fraction(1, n)


def _as_integer(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ValueError(f"{what} = {value} is not an integer")
    return int(value)


def signature(group_order: int, b: int, n: int) -> int:
    """Signature |G|(2b-2)(1 - 1/n^2)/3; raises if not an integer."""
    _check_admissible(group_order, b, n)
    sigma = Fraction(group_order * (2 * b - 2), 3) * (1 - Fraction(1, n * n))
    return _as_integer(sigma, "signature")


def chern_invariants(group_order: int, b: int, n: int) -> tuple[int, int, Fraction]:
    """(c1^2, c2, slope) with c1^2 = |G|(2b-2)(4b-4+4n'-n'^2),
    c2 = |G|(2b-2)(2b-2+n') for n' = 1 - 1/n, slope = c1^2/c2."""
    _check_admissible(group_order, b, n)
    nn = branch_weight(n)
    scale = group_order * (2 * b - 2)
    c1sq = _as_integer(scale * (4 * b - 4 + 4 * nn - nn * nn), "c1^2")
    c2 = _as_integer(scale * (2 * b - 2 + nn), "c2")
    return c1sq, c2, Fraction(c1sq, c2)


def slope_in_window(slope: Fraction) -> bool:
    """Exact test for 0 < slope - 2 < 6 - 4*sqrt(2), no irrationals:
    the upper bound holds iff 6 - s > 0 and (6 - s)^2 > 32."""
    s = slope - 2
    return s > 0 and 6 - s > 0 and (6 - s) ** 2 > 32


def base_genus(b: int, m: int) -> int:
    """Genus of the quotient base: b_i - 1 = m_i (b - 1)."""
    return m * (b - 1) + 1


def fibre_genus(group_order: int, b: int, n: int, m: int) -> int:
    """Fibre genus from 2g - 2 = (|G|/m)(2b - 2 + n')."""
    _check_admissible(group_order, b, n)
    if m < 1 or group_order % m:
        raise ValueError(f"index m={m} does not divide the group order")
    rhs = Fraction(group_order, m) * (2 * b - 2 + branch_weight(n))
    return _as_integer((rhs + 2) / 2, "fibre genus")


@dataclass(frozen=True)
class FibrationReport:
    group_order: int
    b: int
    n: int
    frak_n: Fraction
    m1: int
    m2: int
    b1: int
    b2: int
    g1: int
    g2: int
    c1sq: int
    c2: int
    slope: Fraction
    sigma: int
    chi: int
    # Filled in only when the homology module has supplied a first Betti
    # number; absent (None) fields are omitted from serialized reports.
    first_betti: int | None = None
    q_irr: int | None = None
    p_g: int | None = None
    maximal: bool | None = None


def fibration_data(G: FiniteGroup, s: DDKStructure) -> FibrationReport:
    """Full numeric report for the surface of s, a structure on G itself (else ValueError)."""
    if s.ambient is not G:
        raise ValueError("the structure lies in another group")
    b, n = s.stype.b, s.stype.n
    ks = k_subgroups(s)
    c1sq, c2, slope = chern_invariants(G.order, b, n)
    sigma = signature(G.order, b, n)
    if sigma * 3 != c1sq - 2 * c2:
        raise AssertionError("sigma is not (c1^2 - 2 c2) / 3")
    if sigma <= 0 or sigma % (16 if n % 2 else 4):
        raise AssertionError(f"sigma = {sigma} is not a positive multiple of {16 if n % 2 else 4}")
    if not slope_in_window(slope):
        raise AssertionError(f"slope {slope} is outside (2, 8 - 4 sqrt 2)")
    chi = _as_integer(Fraction(c1sq + c2, 12), "chi")
    return FibrationReport(
        group_order=G.order,
        b=b,
        n=n,
        frak_n=branch_weight(n),
        m1=ks.m1,
        m2=ks.m2,
        b1=base_genus(b, ks.m1),
        b2=base_genus(b, ks.m2),
        g1=fibre_genus(G.order, b, n, ks.m1),
        g2=fibre_genus(G.order, b, n, ks.m2),
        c1sq=c1sq,
        c2=c2,
        slope=slope,
        sigma=sigma,
        chi=chi,
    )


def hodge_numbers(
    c1sq: int, c2: int, first_betti: int, b: int
) -> tuple[int, int, int, bool]:
    """(chi, q, p_g, maximal): chi = (c1^2 + c2)/12, q = b_1/2,
    p_g = chi - 1 + q, maximal iff b_1 = 4b."""
    if first_betti % 2:
        raise ValueError(f"first Betti number must be even, got {first_betti}")
    chi = _as_integer(Fraction(c1sq + c2, 12), "chi")
    q_irr = first_betti // 2
    return chi, q_irr, chi - 1 + q_irr, first_betti == 4 * b


def with_homology(report: FibrationReport, first_betti: int) -> FibrationReport:
    """Attach Hodge numbers derived from a computed first Betti number."""
    chi, q_irr, p_g, maximal = hodge_numbers(
        report.c1sq, report.c2, first_betti, report.b
    )
    if chi != report.chi:
        raise AssertionError("chi from the Betti number differs from the report's")
    return replace(
        report, first_betti=first_betti, q_irr=q_irr, p_g=p_g, maximal=maximal
    )


def report_to_dict(report: FibrationReport) -> dict:
    """JSON-ready dict: Fractions become "num/den", absent fields omitted."""
    out: dict = {}
    for name, value in vars(report).items():
        if value is None:
            continue
        if isinstance(value, Fraction):
            value = f"{value.numerator}/{value.denominator}"
        out[name] = value
    return out


SCAN_ORDERS = range(32, 65)
SCAN_GENERA = (2, 3)
SCAN_BRANCH_ORDERS = (2, 3)


def signature_scan() -> Mapping[tuple[int, int, int], int]:
    """All integral signatures over the box |G| in SCAN_ORDERS, b in
    SCAN_GENERA and n in SCAN_BRANCH_ORDERS."""
    table: dict[tuple[int, int, int], int] = {}
    for order in SCAN_ORDERS:
        for b in SCAN_GENERA:
            for n in SCAN_BRANCH_ORDERS:
                try:
                    table[(order, b, n)] = signature(order, b, n)
                except ValueError:
                    continue
    return table
