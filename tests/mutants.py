"""Named mutants of `ddks`, each paired with the test that must fail under
it (mutation testing: DeMillo, Lipton and Sayward, "Hints on test data
selection", 1978).  `test_mutants.py` runs every one in-process.

A mutant is applied through a `pytest.MonkeyPatch`, so it is undone when
the run ends: either an object is replaced, or one function is recompiled
from its own source with one edit (`edited`).  An edit that no longer
matches the source raises, so a mutant cannot pass for want of a target.
"""

from __future__ import annotations

import __future__
import importlib
import inspect
import sys
import textwrap
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import pytest

from ddks import automorphisms, certify, homology, invariants, structures, symplectic
from ddks.automorphisms import automorphism_group
from ddks.group_core import FiniteGroup, Homomorphism, get_presentation, parse_presentation, realize, realize_label
from ddks.group_core import group
from ddks.paper import Rows
from ddks.structures import prestructure_relations
from ddks.symplectic import induced_space


def edited(owner, name: str, old: str, new: str):
    """`owner.name` (a function of a module or class) recompiled from its
    source with the one occurrence of `old` replaced by `new`, reading the
    globals of the module that defines it."""
    function = inspect.unwrap(getattr(owner, name))
    source = textwrap.dedent(inspect.getsource(function))
    if source.count(old) != 1:
        raise AssertionError(f"{name}: the edit matches {source.count(old)} times, not once")
    module = importlib.import_module(function.__module__)
    code = compile(
        source.replace(old, new), inspect.getsourcefile(function), "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    scope: dict = {}
    exec(code, vars(module), scope)
    return scope[name]


def patch_edited(monkeypatch: pytest.MonkeyPatch, owner, name: str, old: str, new: str) -> None:
    """`edited` in place of `owner.name`, also in every loaded module that
    imported the function by name, as a test module does."""
    original = getattr(owner, name)
    mutant = edited(owner, name, old, new)
    monkeypatch.setattr(owner, name, mutant)
    if inspect.ismodule(owner):
        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get(name) is original:
                monkeypatch.setattr(module, name, mutant)


class OneSlot(dict):
    """A cache that keeps one entry whatever the key."""

    def get(self, key, default=None):
        return super().get(None, default)

    def __setitem__(self, key, value):
        super().__setitem__(None, value)


def drop_folded_relators(monkeypatch: pytest.MonkeyPatch) -> None:
    """Relators folded into a wider flags table are lost.  The compiled
    programs get a fresh, empty cache, so the mutant is seen and leaves no
    program behind."""
    patch_edited(monkeypatch, certify, "_folded", "host[1].append(w)", "pass")
    compile_program = certify._relator_program.__wrapped__
    monkeypatch.setattr(certify, "_relator_program", lru_cache(maxsize=None)(compile_program))


@dataclass(frozen=True)
class Mutant:
    name: str
    test: str  # "module::function"
    apply: Callable[[pytest.MonkeyPatch], None]
    # the test's arguments other than `monkeypatch`, built when it runs
    arguments: Callable[[], dict] = dict


MUTANTS = (
    # the per-group caches
    Mutant(
        "certifier tables never evicted",
        "test_structures::test_certifier_caches_are_bounded",
        lambda mp: patch_edited(
            mp, certify, "_group_table", "if len(cache) >= CACHED_TABLES:", "if False:"
        ),
    ),
    Mutant(
        "maximal masks in one shared slot",
        "test_structures::test_a_copy_of_a_group_shares_no_derived_table",
        lambda mp: mp.setattr(structures, "_MAXIMAL_MASKS", OneSlot()),
    ),
    Mutant(
        "certifier tables stored on the group",
        "test_structures::test_a_copy_of_a_group_shares_no_derived_table",
        lambda mp: patch_edited(
            mp, certify, "_group_table",
            "_GROUP_TABLES.setdefault(G, {})", 'G.__dict__.setdefault("_group_tables", {})',
        ),
    ),
    # one checked Cayley table per group
    Mutant(
        "associativity unchecked",
        "test_group::test_associativity_validation",
        lambda mp: patch_edited(
            mp, FiniteGroup, "__init__",
            "if n <= 64 and (table[table] != table[:, table]).any():", "if False:",
        ),
    ),
    Mutant(
        "structure range check removed",
        "test_structures::test_verify_structure_rejects_out_of_range_elements",
        lambda mp: patch_edited(
            mp, group, "check_elements",
            "in_range = not values or (min(values) >= 0 and max(values) < G.order)", "in_range = True",
        ),
        lambda: {"H5": realize_label("G(32,49)")},
    ),
    Mutant(
        "structure built without its verify call",
        "test_invariants::test_fibration_data_rejects_non_structures",
        lambda mp: patch_edited(
            mp, structures.DDKStructure, "__post_init__",
            "ok, diag = verify_structure(self.ambient, self.elements, self.stype)", "ok, diag = True, None",
        ),
    ),
    Mutant(
        "fibration data for a structure on another group",
        "test_invariants::test_fibration_data_rejects_non_structures",
        lambda mp: patch_edited(mp, invariants, "fibration_data", "if s.ambient is not G:", "if False:"),
    ),
    Mutant(
        "surface homology for a structure on another group",
        "test_homology::test_surface_homology_rejects_non_structures",
        lambda mp: patch_edited(mp, homology, "h1_of_surface", "if s.ambient is not G:", "if False:"),
    ),
    # the Smith normal form on Python ints
    Mutant(
        "integer check removed",
        "test_homology::test_non_integer_entries_are_refused",
        lambda mp: patch_edited(
            mp, homology, "_integer", "if not isinstance(v, (int, np.integer)):", "if False:",
        ),
        lambda: {"function": homology.smith_normal_form, "bad": 1.5},
    ),
    # the forward-checked search plan
    Mutant(
        "relator tests placed one level early",
        "test_structures::test_plan_closes_each_relator_once_at_its_last_slot",
        lambda mp: patch_edited(
            mp, structures, "_search_plan", "cases[known]", "cases[max(known - 1, 0)]",
        ),
        lambda: {"relators": prestructure_relations()},
    ),
    # the relator certifier
    Mutant(
        "last certifier test skipped",
        "test_structures::test_certifier_edge_cases",
        lambda mp: patch_edited(
            mp, certify, "_stage_mask", "for test in stage.tests]", "for test in stage.tests[:-1]]",
        ),
    ),
    Mutant(
        "folded relators dropped",
        "test_structures::test_certifier_edge_cases",
        drop_folded_relators,
    ),
    # the certify tail and its certificate
    Mutant(
        "o(z) unchecked in the tail",
        "test_structures::test_certify_tail_rejects_bad_and_repeated_rows",
        lambda mp: patch_edited(
            mp, structures, "certify_structure_rows", "ok &= G.orders[rows[:, 8]] == t.n", "pass",
        ),
        lambda: {"H5": realize_label("G(32,49)")},
    ),
    Mutant(
        "tail rows left writeable",
        "test_structures::test_the_tail_hands_out_read_only_rows_and_keeps_no_array",
        lambda mp: patch_edited(mp, structures, "unpack_keys", "memoryview(buf).toreadonly()", "buf"),
        lambda: {"H5": realize_label("G(32,49)")},
    ),
    Mutant(
        # the rows a read-only view of an owner flagged read-only, whose flag can be set back
        "tail returns its base, whose flag can be set back",
        "test_structures::test_the_tail_hands_out_read_only_rows_and_keeps_no_array",
        lambda mp: patch_edited(
            mp, structures, "unpack_keys",
            "return np.frombuffer(memoryview(buf).toreadonly(), np.uint8).reshape(-1, 9)",
            "base = rows.copy()\n    base.flags.writeable = False\n    return base[:]",
        ),
        lambda: {"H5": realize_label("G(32,49)")},
    ),
    # one certification per group
    Mutant(
        "certified rows shared without the comparison",
        "test_structures::test_a_changed_backtracking_row_is_certified_in_full_and_fails_criterion_4",
        lambda mp: patch_edited(mp, structures, "certify_structure_rows", "if all(", "if True or all("),
        lambda: {"rows_cache": Rows()},
    ),
    Mutant(
        "only the first chunk compared",
        "test_structures::test_a_changed_backtracking_row_is_certified_in_full_and_fails_criterion_4",
        lambda mp: patch_edited(
            mp, structures, "certify_structure_rows",
            "for start in range(0, len(keys), _CHUNK)", "for start in range(0, min(len(keys), _CHUNK), _CHUNK)",
        ),
        lambda: {"rows_cache": Rows()},
    ),
    Mutant(
        "certified rows shared across groups",
        "test_structures::test_certified_rows_are_the_returned_rows",
        lambda mp: patch_edited(mp, structures, "certify_structure_rows", "g is G and ", ""),
    ),
    Mutant(
        "certified rows shared across types",
        "test_structures::test_certify_tail_rejects_bad_and_repeated_rows",
        lambda mp: patch_edited(mp, structures, "certify_structure_rows", "u == t and ", ""),
        lambda: {"H5": realize_label("G(32,49)")},
    ),
    Mutant(
        "certificate lookup without its identity test",
        "test_structures::test_a_record_certifies_only_the_array_it_points_at",
        lambda mp: patch_edited(mp, structures, "certified_type", "entry[0]() is rows and ", ""),
        lambda: {"H5": realize_label("G(32,49)")},
    ),
    Mutant(
        "full mode skips the certificate lookup",
        "test_automorphisms::test_full_mode_refuses_rows_no_route_certified",
        lambda mp: patch_edited(
            mp, automorphisms, "orbit_count",
            'if freeness == "full" and certified_type(G, rows) is None:', "if False:",
        ),
        lambda: {
            "H5": realize_label("G(32,49)"),
            "G5": realize_label("G(32,50)"),
            "autsH": automorphism_group(realize_label("G(32,49)"), get_presentation("G(32,49)")),
            "autsG": automorphism_group(realize_label("G(32,50)"), get_presentation("G(32,50)")),
            "rows_cache": Rows(),
        },
    ),
    Mutant(
        "row keys unpacked above 54 bits",
        "test_structures::test_unpack_keys_refuses_bits_above_54",
        lambda mp: patch_edited(mp, structures, "unpack_keys", "if keys.max(initial=0) >> 54:", "if False:"),
    ),
    # the prestructure shortcut and the decider's orbit search
    Mutant(
        "shortcut reads past a non-empty quotient",
        "test_structures::test_the_shortcut_searches_in_full_after_a_non_empty_quotient",
        lambda mp: patch_edited(mp, structures, "_search_setup", "break", "pass"),
    ),
    Mutant(
        "abelian skip applied to every quotient",
        "test_structures::test_the_shortcut_searches_in_full_after_a_non_empty_quotient",
        lambda mp: patch_edited(mp, structures, "_search_setup", "if derived <= set(nsub):", "if True:"),
    ),
    Mutant(
        "minimal images keep no slot value",
        "test_structures::test_the_theorem_at_orders_24_and_32_by_search_alone",
        lambda mp: patch_edited(mp, structures._OrbitTables, "least", "return out", "return out & np.uint64(0)"),
    ),
    Mutant(
        "z pool taken without its closure check",
        "test_structures::test_prestructure_report_refuses_a_pool_not_closed_under_inn",
        lambda mp: patch_edited(
            mp, structures, "prestructure_report", "if not np.isin(inn[:, list(zs)], zs).all():", "if False:",
        ),
    ),
    # element indices at the input boundary
    Mutant(
        "homomorphism images unchecked",
        "test_group::test_homomorphism_refuses_images_outside_the_group",
        lambda mp: patch_edited(
            mp, Homomorphism, "__post_init__", 'check_elements(self.target, self.images, "images")', "pass",
        ),
    ),
    Mutant(
        "search cells unchecked",
        "test_structures::test_genus2_rows_refuses_cells_outside_the_group",
        lambda mp: patch_edited(mp, structures, "_genus2_blocks", "check_elements(G, cells)", "pass"),
        lambda: {"H5": realize_label("G(32,49)")},
    ),
    Mutant(
        "homomorphism accepts a float image",
        "test_group::test_homomorphism_refuses_non_integer_images",
        lambda mp: patch_edited(
            mp, group, "check_elements",
            "issubclass(t, (int, np.integer))", "issubclass(t, (int, float, np.integer))",
        ),
    ),
    Mutant(
        "element check accepts bools",
        "test_group::test_element_set_refuses_non_integer_members",
        lambda mp: patch_edited(mp, group, "check_elements", " and t is not bool", ""),
    ),
    Mutant(
        "orbit count takes any auts table",
        "test_automorphisms::test_orbit_count_refuses_auts_that_are_not_a_table",
        lambda mp: patch_edited(mp, automorphisms, "orbit_count", 'check_rows(auts, G.order, "auts")', "pass"),
        lambda: {
            "H5": realize_label("G(32,49)"),
            "autsH": automorphism_group(realize_label("G(32,49)"), get_presentation("G(32,49)")),
            "rows_cache": Rows(),
        },
    ),
    Mutant(
        "row check reads the shape of a list",
        "test_structures::test_row_functions_refuse_other_shapes",
        lambda mp: patch_edited(mp, certify, "check_rows", "if not isinstance(rows, np.ndarray):", "if False:"),
        lambda: {"H5": realize_label("G(32,49)")},
    ),
    Mutant(
        "reduced vectors unchecked",
        "test_symplectic::test_verify_reduced_diagnostics",
        lambda mp: patch_edited(mp, symplectic, "verify_reduced", "_check_vectors(space, vectors)", "pass"),
        lambda: {"spaceH": induced_space(realize_label("G(32,49)"))},
    ),
    # Aut(G), Inn(G) and the orbit count
    Mutant(
        "automorphisms from a presentation of another generator count",
        "test_automorphisms::test_automorphism_group_refuses_a_presentation_of_another_generator_count",
        lambda mp: patch_edited(
            mp, automorphisms, "automorphism_group", "if p.ngens != len(G.generator_elements):", "if False:",
        ),
        lambda: {"H5": realize_label("G(32,49)")},
    ),
    Mutant(
        "orbit count without the divisibility check",
        "test_automorphisms::test_orbit_count_refuses_rows_that_are_no_union_of_orbits",
        lambda mp: patch_edited(mp, automorphisms, "orbit_count", "if len(rows) % len(auts) != 0:", "if False:"),
        lambda: {
            "H5": realize_label("G(32,49)"),
            "autsH": automorphism_group(realize_label("G(32,49)"), get_presentation("G(32,49)")),
            "rows_cache": Rows(),
        },
    ),
    Mutant(
        "Inn(G) left writeable",
        "test_automorphisms::test_inner_automorphism_table_is_read_only",
        lambda mp: patch_edited(mp, structures, "inner_automorphism_table", "return read_only(inn)", "return inn"),
        lambda: {"H5": realize_label("G(32,49)")},
    ),
    Mutant(
        "read-only helper hands out a writeable array",
        "test_group::test_every_table_is_read_only_at_its_source",
        lambda mp: patch_edited(mp, group, "read_only", "memoryview(buf).toreadonly()", "buf"),
    ),
    # the one breadth-first walk and its readers
    Mutant(
        "transversal ignores an unreached coset",
        "test_homology::test_transversal_rejects_non_surjective",
        lambda mp: patch_edited(mp, homology, "schreier_transversal", "if len(order) != G.order:", "if False:"),
    ),
    Mutant(
        "inverse tree edge put on the parent",
        "test_homology::test_relator_matrix_of_small_presentations_matches_word_rewriting",
        lambda mp: patch_edited(mp, homology, "_schreier_columns", "tree[tail, x] = True", "tree[u, x] = True"),
        lambda: {"trivial_group": realize(parse_presentation("gens: e\nrel: e"))},
    ),
    # the CCT broadcast
    Mutant(
        "CCT without the non-commuting mask",
        "test_group::test_cct_matches_the_centralizer_loop",
        lambda mp: patch_edited(mp, FiniteGroup, "is_cct", " & ~commute", ""),
    ),
)
