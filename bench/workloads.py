"""The four benchmark workloads: seeded inputs, one pass through the CLI, and
the checks that decide whether a pass's outputs are correct.

Every workload drives ``omplab.cli.main`` in-process with the same argument
vectors a user would type. The program sees only the config and matrix files
written here. A workload seed folds onto one of ``FAMILIES`` input families;
the reference outputs of every family were recorded at the seed commit by
``record_reference.py`` and live in ``reference.json``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

from omplab import cli

#: Seeds fold onto this many input families, each with recorded references.
FAMILIES = 32

#: Oracle tolerance for RIC values and lemma margins.
RIC_TOL = 1e-9

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass(frozen=True)
class Call:
    """One CLI invocation: its argv, the work units it covers and the file it
    writes (``None`` when its output is what it prints)."""

    argv: tuple
    items: int
    output: str | None = None


@dataclass(frozen=True)
class CallResult:
    rc: int | None
    output: bytes
    error: str | None = None


def run_call(call):
    """Run one call in-process, in the current directory, and capture its
    output bytes. An exception escaping ``main`` is a failed call, never a
    benchmark crash.
    """
    _clear_output(call)
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(call.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the program's traceback fails the call
        error = f"{type(exc).__name__}: {exc}"
    if rc and not error:
        error = err.getvalue().strip() or f"exit code {rc}"
    return CallResult(rc=rc, output=_output(call, out.getvalue().encode()), error=error)


#: What the console script ``omplab`` runs.
_CLI = "import sys; from omplab import cli; sys.exit(cli.main(sys.argv[1:]))"


def run_call_in_child(call, env):
    """Run one call as a user would: a fresh interpreter running the CLI, in
    the current directory. Returns the result and the peak resident set, in
    KiB, of that process and the pool workers it waited for."""
    _clear_output(call)
    with open("child.stdout", "w+b") as out, open("child.stderr", "w+b") as err:
        proc = subprocess.Popen([sys.executable, "-c", _CLI, *call.argv], env=env,
                                stdout=out, stderr=err)
        # wait4, not wait: its usage covers the child and its waited-for children.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    os.remove("child.stdout")
    os.remove("child.stderr")
    error = (stderr.decode(errors="replace").strip() or f"exit code {rc}") if rc else None
    return CallResult(rc=rc, output=_output(call, stdout), error=error), usage.ru_maxrss


def _clear_output(call):
    if call.output and os.path.exists(call.output):
        os.remove(call.output)


def _output(call, stdout):
    """The bytes a call produced: its output file, or what it printed."""
    if not call.output:
        return stdout
    try:
        with open(call.output, "rb") as fh:
            return fh.read()
    except OSError:
        return b""


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def _csv_rows(data):
    return list(csv.DictReader(io.StringIO(data.decode())))


def _config_text(**fields):
    lines = []
    for key, value in fields.items():
        if isinstance(value, (tuple, list)):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _write_matrix(path, A):
    """The program's matrix text format: a ``rows cols`` header, then rows of
    17-significant-digit decimals, which round-trip float64 exactly."""
    lines = [f"{A.shape[0]} {A.shape[1]}"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in A]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class Workload:
    """Base class. Subclasses set ``name``, ``why`` and ``item``, write their
    inputs in ``__init__`` (under ``family<k>/`` of the current directory)
    and define ``calls``, ``_invariants``, ``reference_of`` and ``_matches``."""

    name = ""
    why = ""
    item = ""
    #: the parallelism timed passes run at; above 1, a serial pass of the
    #: same inputs must give the same bytes
    parallelism = 1
    #: run one untimed pass first, so caches fill before timing
    warmup = True
    #: consecutive timed passes cycle through this many input families
    #: (seed, seed + 1, ...), so the work a run measures hardly depends on
    #: its seed; that needs a run to make about this many passes
    cycle = 8

    def __init__(self, seed, quick=False):
        self.family = int(seed) % FAMILIES
        self.mode = "quick" if quick else "full"
        self.reference = load_references(self.mode, self.name, self.family)
        self.dir = f"family{self.family}"
        os.makedirs(self.dir, exist_ok=True)

    def path(self, name):
        return os.path.join(self.dir, name)

    def calls(self, parallelism=None):
        raise NotImplementedError

    @property
    def items(self):
        return sum(c.items for c in self.calls())

    def check(self, index, result):
        """Problems with one call's result: exit status, invariants and the
        recorded reference output. An empty list means correct."""
        problems = self.check_invariants(index, result)
        if self.reference is None:
            problems.append(f"no reference recorded for family {self.family}")
        elif not problems:
            problems += self._matches(index, result.output, self.reference[index])
        return problems

    def check_invariants(self, index, result):
        """Problems visible without a reference: exit status and invariants."""
        if result.rc != 0 or result.error:
            return [f"exit {result.rc}: {result.error}"]
        try:
            return self._invariants(index, result.output)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def _invariants(self, index, data):
        raise NotImplementedError

    def reference_of(self, index, data):
        return sha256(data)

    def _matches(self, index, data, expected):
        digest = sha256(data)
        if digest != expected:
            return [f"sha256 {digest[:12]} differs from reference {expected[:12]}"]
        return []


class Theorem1(Workload):
    name = "theorem1"
    why = (
        "headline verdict on the acceptance grid; nearly all time is the eigen "
        "kernel inside exact_ric, serial baseline"
    )
    item = "trial"

    def __init__(self, seed, quick=False):
        super().__init__(seed, quick)
        if quick:
            grid = dict(m=(16,), n=(18,), k=(1, 2), epsilon=(0, 0.05))
        else:
            grid = dict(m=(12, 16, 20), n=(18, 24), k=(1, 2, 3), epsilon=(0, 0.01, 0.05))
        self.trials = 3 if quick else 2
        self.cells = math.prod(len(v) for v in grid.values())
        with open(self.path("theorem1.cfg"), "w") as fh:
            fh.write(_config_text(
                **grid, trials=self.trials, min_mag_policy="theorem_bound",
                margin_factor=1.01, master_seed=self.family,
            ))

    def calls(self, parallelism=None):
        p = parallelism or self.parallelism
        out = self.path("theorem1.csv")
        argv = ("validate-theorem1", "--config", self.path("theorem1.cfg"),
                "--out", out, "--parallelism", str(p))
        return [Call(argv, self.cells * self.trials, out)]

    def _invariants(self, index, data):
        rows = _csv_rows(data)
        problems = []
        if len(rows) != self.cells:
            problems.append(f"{len(rows)} rows, expected {self.cells}")
        held = 0
        for r in rows:
            count = int(r["conditions_held_count"])
            held += count
            if count and float(r["conditional_success_rate"]) != 1.0:
                problems.append(f"conditional success rate {r['conditional_success_rate']} in {r}")
        if not held:
            problems.append("no trial held the conditions; the check is vacuous")
        return problems


class PhaseOmp(Workload):
    name = "phase_omp"
    why = (
        "phase table beyond the subset budget: no RIC, time is matrix draws, "
        "omp_run and one pool per cell at P=2"
    )
    item = "trial"
    parallelism = 2

    def __init__(self, seed, quick=False):
        super().__init__(seed, quick)
        if quick:
            grid = dict(m=(64,), n=(256,), k=(4,), epsilon=(0, 0.05))
        else:
            grid = dict(m=(64, 128), n=(256, 512), k=(4, 8, 16), epsilon=(0, 0.05))
        self.trials = 4 if quick else 20
        self.cells = math.prod(len(v) for v in grid.values())
        with open(self.path("phase.cfg"), "w") as fh:
            fh.write(_config_text(**grid, trials=self.trials, master_seed=self.family))

    def calls(self, parallelism=None):
        p = parallelism or self.parallelism
        out = self.path("phase.csv")
        argv = ("phase", "--config", self.path("phase.cfg"), "--out", out,
                "--parallelism", str(p))
        return [Call(argv, self.cells * self.trials, out)]

    def _invariants(self, index, data):
        rows = _csv_rows(data)
        problems = []
        if len(rows) != self.cells:
            problems.append(f"{len(rows)} rows, expected {self.cells}")
        if any(r["conditions_held_count"] for r in rows):
            problems.append("a cell checked conditions; every cell should exceed the budget")
        return problems


class LemmaSweep(Workload):
    name = "lemma_sweep"
    why = (
        "many small exact_ric calls plus verify_lemma1 and least squares, so "
        "per-call cost and the subset cache matter"
    )
    item = "instance"
    _INTS = ("instances", "lemma1_checks", "lemma1_skipped", "violations")
    _MARGINS = ("min_margin_lemma1", "min_margin_lemma2", "min_margin_lemma3",
                "min_margin_lemma4")

    def __init__(self, seed, quick=False):
        super().__init__(seed, quick)
        self.instances = 10 if quick else 150

    def calls(self, parallelism=None):
        argv = ("lemmas", "--seed", str(self.family), "--instances", str(self.instances))
        return [Call(argv, self.instances)]

    def _invariants(self, index, data):
        report = json.loads(data)
        problems = []
        if report["violations"] != 0:
            problems.append(f"{report['violations']} lemma violations")
        if report["instances"] != self.instances:
            problems.append(f"{report['instances']} instances, expected {self.instances}")
        if report["lemma1_checks"] < 1:
            problems.append("no selection-inequality check ran")
        return problems

    # Margins are compared at the oracle tolerance rather than by hash: an
    # eigensolver swap legitimately moves them in the last digits.
    def reference_of(self, index, data):
        report = json.loads(data)
        return {k: report[k] for k in self._INTS + self._MARGINS}

    def _matches(self, index, data, expected):
        report = json.loads(data)
        problems = [f"{k} = {report[k]}, reference {expected[k]}"
                    for k in self._INTS if report[k] != expected[k]]
        problems += [f"{k} = {report[k]!r}, reference {expected[k]!r}"
                     for k in self._MARGINS
                     if not abs(report[k] - expected[k]) <= RIC_TOL]
        return problems


class RicStream(Workload):
    name = "ric_stream"
    why = (
        "exact RIC above the subset-cache limit on a wide and a tall matrix: "
        "the streamed path, largest Gram stacks, peak memory"
    )
    item = "subset"
    warmup = False
    # A pass takes about 10 s, so a run makes two: both of one family. The
    # work does not depend on the family either: each call's batched Jacobi
    # kernel runs 6 sweeps over all C(32, 5) Gram matrices in every family.
    cycle = 1

    def __init__(self, seed, quick=False):
        super().__init__(seed, quick)
        n, self.order = (12, 3) if quick else (32, 5)
        self.shapes = ((20, n), (64 if quick else 128, n))
        rng = np.random.default_rng([0x51C5, self.family])
        self.matrices = []
        for i, (m, cols) in enumerate(self.shapes):
            A = rng.standard_normal((m, cols)) / math.sqrt(m)
            A /= np.linalg.norm(A, axis=0)
            _write_matrix(self.path(f"matrix{i}.txt"), A)
            self.matrices.append(A)

    def calls(self, parallelism=None):
        count = math.comb(self.shapes[0][1], self.order)
        return [Call(("ric", "--matrix", self.path(f"matrix{i}.txt"), "--order", str(self.order)),
                     count)
                for i in range(len(self.shapes))]

    def _invariants(self, index, data):
        report = json.loads(data)
        A = self.matrices[index]
        n = A.shape[1]
        problems = []
        if report["order"] != self.order:
            problems.append(f"order {report['order']}, expected {self.order}")
        if report["subsets_examined"] != math.comb(n, self.order):
            problems.append(f"{report['subsets_examined']} subsets examined")
        w = report["witness"]
        if len(set(w)) != self.order or w != sorted(w) or not all(0 <= i < n for i in w):
            return problems + [f"malformed witness {w}"]
        cols = A[:, w]
        lam = np.linalg.eigvalsh(cols.T @ cols)
        delta = max(lam[-1] - 1.0, 1.0 - lam[0])
        for key, want in (("delta", delta), ("lambda_min", lam[0]), ("lambda_max", lam[-1])):
            if not abs(report[key] - want) <= RIC_TOL:
                problems.append(f"{key} {report[key]!r} does not re-derive from the "
                                f"witness Gram ({want!r})")
        return problems

    def reference_of(self, index, data):
        report = json.loads(data)
        return {"delta": report["delta"], "witness": report["witness"]}

    def _matches(self, index, data, expected):
        report = json.loads(data)
        problems = []
        if report["witness"] != expected["witness"]:
            problems.append(f"witness {report['witness']}, reference {expected['witness']}")
        if not abs(report["delta"] - expected["delta"]) <= RIC_TOL:
            problems.append(f"delta {report['delta']!r}, reference {expected['delta']!r}")
        return problems


WORKLOADS = {w.name: w for w in (Theorem1, PhaseOmp, LemmaSweep, RicStream)}


def load_references(mode, name, family):
    """The recorded reference outputs of one family, or None if absent."""
    try:
        with open(REFERENCE_PATH) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(mode, {}).get(name, {}).get(str(family))
