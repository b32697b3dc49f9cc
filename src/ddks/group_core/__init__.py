"""Core group machinery: words, presentations, realization, subgroups, CCT."""

from .words import Word, commutator, free_reduce
from .presentation import (
    Presentation,
    PresentationError,
    parse_presentation,
    word_from_str,
)
from .toddcox import DEFAULT_MAX_COSETS, CosetEnumerationError, coset_table
from .group import (
    ElementSet,
    FiniteGroup,
    Homomorphism,
    check_elements,
    is_cct,
    read_only,
    realize,
    spanning_tree,
    tree_words,
)
from .catalog import (
    ALIASES,
    CATALOG_SOURCES,
    EXPECTED_ORDER,
    catalog,
    catalog_labels,
    extra_special,
    extra_special_text,
    get_presentation,
    realize_label,
    resolve_label,
)

__all__ = [
    "Word", "commutator", "free_reduce",
    "Presentation", "PresentationError", "parse_presentation", "word_from_str",
    "DEFAULT_MAX_COSETS", "CosetEnumerationError", "coset_table",
    "ElementSet", "FiniteGroup", "Homomorphism", "check_elements",
    "is_cct", "read_only", "realize", "spanning_tree", "tree_words",
    "ALIASES", "CATALOG_SOURCES", "EXPECTED_ORDER", "catalog",
    "catalog_labels", "extra_special", "extra_special_text",
    "get_presentation", "realize_label", "resolve_label",
]
