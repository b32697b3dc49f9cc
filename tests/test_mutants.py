"""Each named mutant of `mutants.py` makes its paired test fail."""

import importlib
import inspect

import pytest

from mutants import MUTANTS


def test_mutant_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS) >= 6


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_fails_its_test(mutant):
    module, _, name = mutant.test.partition("::")
    test = getattr(importlib.import_module(module), name)
    arguments = mutant.arguments()
    with pytest.MonkeyPatch.context() as mutate:
        mutant.apply(mutate)
        with pytest.MonkeyPatch.context() as monkeypatch:
            if "monkeypatch" in inspect.signature(test).parameters:
                arguments["monkeypatch"] = monkeypatch
            try:
                test(**arguments)
            except (AssertionError, pytest.fail.Exception):
                return
    pytest.fail(f"{mutant.test} passed under the mutant {mutant.name!r}")
