"""Run the benchmark in alternated pairs: a git revision against this checkout.

Run from anywhere inside a checkout:

    python3 tools/pairs.py REV [--pairs N] [--seconds S] [--workload W ...]

REV (``HEAD``, a commit id, a branch) is copied with ``git archive``, and the
working tree's tracked files (``git ls-files``, as they are on disk) are
copied beside it, each into a temporary directory, so that neither copy
carries ``__pycache__``; every run has ``PYTHONDONTWRITEBYTECODE=1``. For
each workload (by default every one ``BENCHMARK.json`` declares) and each
seed s = 1..N, the benchmark command of ``BENCHMARK.json`` runs once in each
copy as ``--workload W --seed s --seconds S --trace 0``: REV first on odd
seeds and second on even ones, so that a drift in the machine's speed falls
on both sides. A run's result is the JSON object on its last line of output.

For each workload and end-to-end metric the script prints every run, both
sides' medians and quartiles, and in how many pairs the change was better,
the direction taken from the metric's ``better`` in ``BENCHMARK.json``.
Progress goes to stderr. Nothing is written into the checkout. The exit
status is 1 if any run printed no result, was not ``correct`` or had
``failed > 0``, else 0. Only the standard library is used.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _copy_revision(rev, dest):
    """Extract the tree of ``rev`` into ``dest``."""
    subprocess.run(["tar", "-x", "-C", str(dest)], input=_git("archive", rev), check=True)


def _copy_working_tree(dest):
    """Copy the working tree's tracked files into ``dest``; a tracked file
    deleted from the working tree is left out."""
    for name in filter(None, _git("ls-files", "-z").split(b"\0")):
        source = ROOT / os.fsdecode(name)
        if source.is_file():
            target = dest / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def _run(command, copy, workload, seed, seconds):
    """One benchmark run in ``copy``: its result object, or None if its last
    line of output is not one."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode or not isinstance(result, dict):
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return result


def _ok(result):
    return result is not None and result.get("correct") is True and result.get("failed") == 0


def _fmt(value):
    return f"{value:,.0f}" if abs(value) >= 100 else f"{value:.4g}"


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _report(workload, metric, rev, pairs):
    """Print one metric's runs, medians, quartiles and the change's wins;
    ``pairs`` holds (REV's value, the change's value) per seed."""
    name, better = metric["name"], metric["better"]
    old, new = [p[0] for p in pairs], [p[1] for p in pairs]
    wins = sum((b > a) if better == "higher" else (b < a) for a, b in pairs)
    m_old, m_new = statistics.median(old), statistics.median(new)
    change = f" ({(m_new - m_old) / m_old:+.1%})" if m_old else ""
    print(f"{workload} {name} ({metric['unit']}, {better} is better)")
    print(f"  {rev}: " + " ".join(map(_fmt, old)))
    print("  change: " + " ".join(map(_fmt, new)))
    (q1_old, q3_old), (q1_new, q3_new) = _quartiles(old), _quartiles(new)
    print(f"  median {_fmt(m_old)} -> {_fmt(m_new)}{change}; quartiles "
          f"{_fmt(q1_old)}-{_fmt(q3_old)} -> {_fmt(q1_new)}-{_fmt(q3_new)}; "
          f"change better in {wins} of {len(pairs)}")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare the working tree against")
    parser.add_argument("--pairs", type=int, default=10, help="seeds 1..N, one pair each")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    bad = 0
    labels = (args.rev, "change")
    with tempfile.TemporaryDirectory() as parent, tempfile.TemporaryDirectory() as child:
        _copy_revision(args.rev, Path(parent))
        _copy_working_tree(Path(child))
        for workload in args.workload:
            results = []  # [REV's result, the change's result] per seed
            for seed in range(1, args.pairs + 1):
                runs = [None, None]
                for side in (0, 1) if seed % 2 else (1, 0):
                    runs[side] = _run(spec["command"], (parent, child)[side], workload, seed,
                                      args.seconds)
                    ok = _ok(runs[side])
                    print(f"{workload} seed {seed} {labels[side]}: {'ok' if ok else 'NOT CORRECT'}",
                          file=sys.stderr)
                    bad += not ok
                results.append(runs)
            for metric in spec["end_to_end"]:
                pairs = [tuple(r["metrics"][metric["name"]]["value"] for r in pair)
                         for pair in results if all(map(_ok, pair))]
                if pairs:
                    _report(workload, metric, args.rev, pairs)
    if bad:
        print(f"{bad} run(s) printed no result, were not correct or failed work",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
