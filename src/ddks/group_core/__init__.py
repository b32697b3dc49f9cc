"""Core group machinery: words, presentations, realization, subgroups, CCT."""

from .words import Word, commutator, free_reduce, product
from .presentation import (
    Presentation,
    PresentationError,
    parse_presentation,
    word_from_str,
)
from .toddcox import CosetEnumerationError, coset_table
from .group import (
    DEFAULT_MAX_COSETS,
    ElementSet,
    FiniteGroup,
    Homomorphism,
    is_cct,
    realize,
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
    "Word", "commutator", "free_reduce", "product",
    "Presentation", "PresentationError", "parse_presentation", "word_from_str",
    "CosetEnumerationError", "coset_table",
    "DEFAULT_MAX_COSETS", "ElementSet", "FiniteGroup", "Homomorphism",
    "is_cct", "realize",
    "ALIASES", "CATALOG_SOURCES", "EXPECTED_ORDER", "catalog",
    "catalog_labels", "extra_special", "extra_special_text",
    "get_presentation", "realize_label", "resolve_label",
]
