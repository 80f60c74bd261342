import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_mutant_edits_one_site_and_maps_to_test_files(monkeypatch):
    # tools/mutants.py refuses a source text it does not find exactly once,
    # but only when it runs; this catches a verdict site that moved on every
    # test run, without running a mutant
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool adds tools/ to it
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert (ROOT / m.path).read_text().count(m.source) == 1, m.name
        assert m.mutant != m.source, m.name
        assert m.tests and all((ROOT / test).is_file() for test in m.tests), m.name
