"""The mutation catalogue of tests/mutants.py stays in step with the code it mutates and the tests it names."""

import re

import pytest

from mutants import EQUIVALENT, MUTANTS, ROOT, mutate


def test_every_old_text_occurs_once_and_every_named_test_is_defined():
    problems = []
    for mutant in MUTANTS + EQUIVALENT:
        try:
            mutate((ROOT / mutant.file).read_text(encoding="utf-8"), mutant)
        except ValueError as exc:
            problems.append(str(exc))
        for node in mutant.tests:
            path, *names = node.split("::")
            source = (ROOT / path).read_text(encoding="utf-8")
            if not all(re.search(rf"^\s*(def|class) {name}\b", source, re.MULTILINE) for name in names):
                problems.append(f"{mutant.what!r} names {node}, which is not defined")
    assert problems == []
    with pytest.raises(ValueError, match="occurs 0 times, not once$"):
        mutate("", MUTANTS[0])
