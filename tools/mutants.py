"""Run each mutant of the verdict sites against the tests that should kill it.

Run from anywhere inside a checkout:

    python3 tools/mutants.py

The working tree's tracked files (``git ls-files``, as they are on disk) are
copied into a temporary directory, as ``tools/pairs.py`` copies them. The
test files of every mutant in ``MUTANTS`` first run once on the unmutated
copy, which must pass. Then, for each mutant, its file's source text, which
must occur in it exactly once, is replaced by the mutant's, ``python -m
pytest -q -x`` runs the mutant's test files in the copy (``src`` on
``PYTHONPATH``, no bytecode written), and the file is restored. A mutant the
tests fail on is killed; one they pass survived.

One line per mutant: ``killed`` or ``survived``, its name, the seconds its
run took, pytest's summary line and the id of the test that failed first. A
survivor that ``MUTANTS`` marks as equivalent is printed with its argument.
The exit status is 1 if a survivor is not marked equivalent, 2 if the
unmutated tests fail or a mutant's source text is not found exactly once,
else 0. Nothing is written into the checkout. Only the standard library is
used. ``tests/test_tools.py`` checks ``MUTANTS`` in the test suite without
running a mutant: each source text occurs exactly once in its file, and each
mapped test file exists.
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
from pairs import _copy_working_tree  # noqa: E402


class Mutant(NamedTuple):
    """One source edit at a verdict site. ``equivalent`` is None, or the
    argument that no input tells the mutant from the program."""

    name: str
    path: str
    source: str
    mutant: str
    tests: tuple
    equivalent: str | None = None


RIPCHECK, OMP, LINALG = "src/omplab/ripcheck.py", "src/omplab/omp.py", "src/omplab/linalg.py"
EXPERIMENTS = "src/omplab/experiments.py"

MUTANTS = (
    Mutant("ric-condition-strict", RIPCHECK, "return delta_k1 < sharp_ric_bound(K)",
           "return delta_k1 <= sharp_ric_bound(K)",
           ("tests/test_ripcheck.py", "tests/test_experiments.py")),
    Mutant("magnitude-condition-strict", RIPCHECK, "return min_magnitude > floor",
           "return min_magnitude >= floor",
           ("tests/test_ripcheck.py", "tests/test_experiments.py")),
    Mutant("rank-deficient-inclusive", LINALG, "return smallest <= DEFAULT_RANK_TOL * largest",
           "return smallest < DEFAULT_RANK_TOL * largest",
           ("tests/test_linalg.py", "tests/test_omp.py")),
    Mutant("stop-rule-count-inclusive", OMP, "return iterations >= self.k",
           "return iterations > self.k", ("tests/test_omp.py",)),
    Mutant("stop-rule-residual-inclusive", OMP, "return residual_norm <= self.epsilon",
           "return residual_norm < self.epsilon", ("tests/test_omp.py",)),
    Mutant("magnitude-floor-2-eps", RIPCHECK,
           "return 2.0 * epsilon / (1.0 - math.sqrt(K + 1.0) * delta_k1)",
           "return 1.0 * epsilon / (1.0 - math.sqrt(K + 1.0) * delta_k1)",
           ("tests/test_ripcheck.py",)),
    Mutant("witness-delta-both-ends", RIPCHECK, "return np.maximum(hi - 1.0, 1.0 - lo), subsets",
           "return hi - 1.0, subsets", ("tests/test_ripcheck.py", "tests/test_properties.py")),
    Mutant("recovered-exactly-k", EXPERIMENTS, "return np.array_equal(np.sort(picks), support)",
           "return np.array_equal(np.sort(picks[: len(support)]), support)",
           ("tests/test_experiments.py",)),
    Mutant("fits-budget-inclusive", RIPCHECK, "return math.comb(n, K) <= budget",
           "return math.comb(n, K) < budget",
           ("tests/test_ripcheck.py", "tests/test_experiments.py")),
)


def _pytest(copy, tests):
    """Run pytest on ``tests`` in ``copy``: (passed, seconds, its summary
    line and the first failing test's id, if any)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=copy, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines() or [""]
    failed = [line.split(" - ")[0] for line in lines if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode == 0, time.perf_counter() - start, " ".join([lines[-1], *failed[:1]])


def main():
    with tempfile.TemporaryDirectory() as copy:
        _copy_working_tree(Path(copy))
        for m in MUTANTS:
            found = (Path(copy) / m.path).read_text().count(m.source)
            if found != 1:
                print(f"{m.name}: source text found {found} times in {m.path}", file=sys.stderr)
                return 2
        tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        passed, seconds, summary = _pytest(copy, tests)
        print(f"unmutated {seconds:.1f}s: {summary}")
        if not passed:
            return 2
        survivors = 0
        for m in MUTANTS:
            path = Path(copy) / m.path
            original = path.read_text()
            path.write_text(original.replace(m.source, m.mutant))
            passed, seconds, summary = _pytest(copy, m.tests)
            path.write_text(original)
            print(f"{'survived' if passed else 'killed'} {m.name} {seconds:.1f}s: {summary}")
            if passed and m.equivalent:
                print(f"  equivalent: {m.equivalent}")
            survivors += passed and not m.equivalent
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
