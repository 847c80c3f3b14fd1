"""The mutant catalogue of ``tests/mutants.py`` stays applicable.

Running the mutants takes a pytest process each (``python tests/mutants.py``);
this only checks, at tier-1 cost, that no entry has gone stale: its old text
occurs exactly once in its file, and every test it names exists.
"""

import re
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize(
    "file, old, new, tests",
    MUTANTS,
    ids=[f"{i:02d}-{Path(entry[0]).stem}" for i, entry in enumerate(MUTANTS)],
)
def test_entry_applies(file, old, new, tests):
    assert old != new
    assert (ROOT / "src" / file).read_text(encoding="utf-8").count(old) == 1
    assert tests
    for node in tests:
        path, *names = node.split("::")
        text = (ROOT / path).read_text(encoding="utf-8")
        for name in names:
            name = name.split("[")[0]
            assert re.search(rf"^\s*(def|class) {name}\b", text, re.M), node
