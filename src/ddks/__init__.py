"""Exact finite-group machinery for diagonal double Kodaira structures.

Subpackages / modules:

- ``group_core``   presentations, coset enumeration, the group catalog, one
  checked read-only Cayley table per group (the only one any module reads),
  subgroup/quotient machinery and the CCT test
- ``structures``   prestructures and diagonal double Kodaira structures of a
  finite group, plus the backtracking enumerator
- ``certify``      the relator certifier that re-checks every enumerated row,
  independent of the search
- ``symplectic``   the mod-2 symplectic/quadratic layer and the closed-form
  structure count for the two extra-special target groups
- ``automorphisms``  Aut(G) computation and orbit counting on structure sets
- ``invariants``   exact (rational) surface invariants of the associated
  fibred surfaces
- ``homology``     Schreier rewriting and Smith normal form: first homology of
  finite covers of the configuration space, by sparse elimination of the
  unit pivots, certified by replaying its multipliers as one scatter, then a
  dense SNF of the residual's distinct rows
- ``cli``          the ``ddks`` command-line interface
"""

__version__ = "0.1.0"
