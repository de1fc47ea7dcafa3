"""The mutation gauntlet's list, bench/mutants.py, against this tree."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_mutant_matches_its_source_once():
    # The gauntlet itself runs in CI; here each frozen edit must still find
    # its source text exactly once, and its test modules must exist, so the
    # list cannot rot silently.
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "bench" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.problems() == []
