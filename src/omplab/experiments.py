"""Monte Carlo harnesses: guarantee validation, phase tables, lemma sweeps
and the sharpness probe.

Every experiment is a pure function of (config, master_seed). Trial t draws
its randomness from ``master_seed ^ splitmix64(t)`` with t a global trial
index, so runs are reproducible, order-insensitive, and byte-identical
across parallelism levels. A run executes in work units, each of which draws
its trials' matrices into one stack per m and solves each cell's trials in
lockstep by one ``_omp_stack`` call. One budget rule, ``_fits_budget``,
decides which cells check the RIC condition: those whose order-(K+1)
enumeration has subsets and fits the subset budget (theorem1 refuses any
other cell). Their trials, grouped by (n, K + 1) across cells, first take
one Gram stack per unit from those matrices, and one certify stage
(``_certify``) gives each its record: delta, magnitude floor, the witness
subset that decided the verdict, and whether the witness pass settled it.
One witness call covers the stack, which can settle "at or above
1/sqrt(K+1)", and the Grams it leaves open reach the RIC kernel in stacks
sized for its bound entries; a theorem1 trial that fails the condition is
not solved. The other trials run cell by cell. A serial run executes the
units in-process; above parallelism 1 one process pool, shared by every
cell, receives the same units, the largest first (by m*n, then K), so that
its workers finish together. Results are reduced in trial order. Harness
trials validate at the public entry points and trust their own draws: the
config refuses what a draw would (an unknown sign pattern, a fixed floor
whose magnitude range overflows) before any trial runs, and a trial forms
y = A x + v itself (``_measurement``) and is handed its floor. Signals and
RICs stay arrays: a trial holds its signal as (support, values), the draw of
``random_sparse_signal``, and reads its delta from the RIC search's arrays
(``_ric_search``), so no trial builds a SparseSignal or a RicReport. Each
trial has one record from the certify stage on, which the solve completes;
it keeps the trial's delta, floor and witness, so only a theorem1 failure,
replayed for its record, becomes a SparseSignal and a ProblemInstance, and
the replay reads its delta and floor off the record: it computes no RIC, and
its delta is the one that decided its verdict. ``FailureInstance`` is the
one counterexample verdict: apart from the exact tie at t = 1/sqrt(K+1),
``sharpness_probe`` returns None exactly when it refuses.

Reporting separates the conditional claim from unconditioned context: the
recovery guarantee is conditional on the exactly computed RIC, so
``theorem1_validation`` enforces a conditional success rate of exactly 1.0
and fails loudly (serializing the counterexample) on any violation, while
unconditioned success rates belong to ``phase_table``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .linalg import SingularSystemError, _least_squares, as_epsilon
from .omp import (
    STOPPED_RANK_FAILURE,
    GuaranteeViolation,
    StopRule,
    _omp_stack,
    omp_run,
    write_trace_csv,
)
from .ripcheck import (
    DEFAULT_SUBSET_BUDGET,
    _check_budget,
    _fits_budget,
    _grams,
    _lemma1_sides,
    _magnitude_condition,
    _magnitude_floor,
    _ric_condition,
    _ric_search,
    _witness_deltas,
    exact_ric,
    sharp_ric_bound,
)
from .sensing import (
    MASK64,
    SIGN_PATTERNS,
    ProblemInstance,
    SparseSignal,
    _gaussian_draw,
    _keyed,
    _measurement,
    _signal_draw,
    generate_measurement,
    lemma1_example_instance,
    load_problem_instance,
    noise_vector,
    save_problem_instance,
    splitmix64,
)

ENSEMBLES = ("gaussian_normalized", "gaussian_raw", "lemma1_family")
MIN_MAG_POLICIES = ("theorem_bound", "fixed")
LEMMA1_DELTAS = (0.1, 0.2, 0.3, 0.4, 0.5)

_MATRIX_TAG = 0x11
_SIGNAL_TAG = 0x22
_NOISE_TAG = 0x33


def _derived_seed(trial_seed, tag):
    return splitmix64((trial_seed ^ tag) & MASK64)


#: Most trials in one run. A run holds every trial's task and record until
#: its last trial is done: a tracemalloc peak of 571 bytes a trial on a
#: 20,000-trial theorem1 run and 533 on a phase run (m = 12, n = 14, K = 1,
#: epsilon 0 and 0.05; each RIC-checked record keeps its witness subset), so
#: about 0.6 GB at this ceiling.
MAX_RUN_TRIALS = 1_000_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Reproducible sweep description.

    ``m_values`` x ``n_values`` x ``k_values`` x ``epsilon_values`` defines
    the cell grid (in that order); ``trials`` run per cell. The signal
    magnitude floor follows ``min_mag_policy``:

    * ``theorem_bound``: margin_factor times the magnitude bound at the
      trial's exact RIC. Where the bound is undefined (no exact RIC, as in
      over-budget phase cells, or an RIC at or above the threshold) the
      RIC-0 value ``2 eps`` stands in, and a floor of exactly 0 (noiseless
      cells) is replaced by a unit floor, since the guarantee then imposes
      no constraint.
    * ``fixed``: always ``min_mag_fixed``, which must be a normal float: at
      a subnormal floor y = A x rounds to multiples of 5e-324 and loses the
      signal. ``theorem_bound`` ignores the field.

    A floor whose magnitude range (times ``dynamic_range``) overflows is
    refused here, before any trial runs: ``min_mag_fixed``, or under
    ``theorem_bound`` the smallest floor, ``margin_factor * 2 eps``, of
    any epsilon. So is an epsilon that a residual stop rule refuses
    (``StopRule``: its square must be 0 or a normal float), and a run of
    more than ``MAX_RUN_TRIALS`` trials, as MemoryError, counted from the
    four lengths. Every grid rule (m, n and K positive, K <= n, and the
    ``lemma1_family`` shape: every m and n 3, every K 2) is checked on the
    value tuples, not on the cell list: a refusal names the first offending
    cell in product order, and constructing a config, or ``replace`` on one,
    costs O(values), however many cells the grid has.
    """

    m_values: tuple
    n_values: tuple
    k_values: tuple
    epsilon_values: tuple
    trials: int
    min_mag_policy: str = "theorem_bound"
    margin_factor: float = 1.01
    min_mag_fixed: float = 1.0
    dynamic_range: float = 10.0
    sign_pattern: str = "random"
    ensemble: str = "gaussian_normalized"
    lemma1_deltas: tuple = LEMMA1_DELTAS
    master_seed: int = 0
    parallelism: int = 1
    subset_budget: int = DEFAULT_SUBSET_BUDGET
    failure_dir: str = "theorem1-failures"

    def __post_init__(self):
        for name in ("m_values", "n_values", "k_values", "epsilon_values"):
            vals = tuple(getattr(self, name))
            if not vals:
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, vals)
        object.__setattr__(self, "lemma1_deltas", tuple(self.lemma1_deltas))
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.min_mag_policy not in MIN_MAG_POLICIES:
            raise ValueError(f"min_mag_policy must be one of {MIN_MAG_POLICIES}")
        if not math.isfinite(self.margin_factor):
            raise ValueError("margin_factor must be finite")
        if self.min_mag_policy == "theorem_bound" and self.margin_factor <= 1.0:
            raise ValueError("margin_factor must exceed 1 for theorem_bound policy")
        if not (0 < self.min_mag_fixed < math.inf):
            raise ValueError("min_mag_fixed must be positive and finite")
        if self.min_mag_policy == "fixed" and self.min_mag_fixed < np.finfo(float).tiny:
            raise ValueError(f"min_mag_fixed must be a normal float, got {self.min_mag_fixed!r}")
        if not (1 <= self.dynamic_range < math.inf):
            raise ValueError("dynamic_range must be finite and at least 1")
        if self.min_mag_policy == "fixed" and math.isinf(self.min_mag_fixed * self.dynamic_range):
            raise ValueError("min_mag_fixed * dynamic_range must be finite")
        if self.sign_pattern not in SIGN_PATTERNS:
            raise ValueError(f"sign_pattern must be one of {SIGN_PATTERNS}")
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"ensemble must be one of {ENSEMBLES}")
        if self.parallelism < 1:
            raise ValueError("parallelism must be positive")
        if self.subset_budget < 1:
            raise ValueError("subset_budget must be positive")
        for eps in self.epsilon_values:
            as_epsilon(eps)
            # a trial's floor is at least margin_factor * 2 eps (see _build_trial)
            if self.min_mag_policy == "theorem_bound" and math.isinf(
                    2.0 * eps * self.margin_factor * self.dynamic_range):
                raise ValueError("margin_factor * 2 * epsilon * dynamic_range must be finite")
            StopRule.residual_at_most(eps)  # a noisy cell's stop rule, refused before any draw
        cells = math.prod(map(len, (self.m_values, self.n_values, self.k_values,
                                    self.epsilon_values)))
        if cells * self.trials > MAX_RUN_TRIALS:  # before any cell list is built
            raise MemoryError(f"{cells} cells of {self.trials} trials are {cells * self.trials} "
                              f"trials, above the ceiling of {MAX_RUN_TRIALS} trials per run")
        if min(self.m_values + self.n_values + self.k_values) < 1:
            raise ValueError("m, n and K must all be positive")
        for n, k in itertools.product(self.n_values, self.k_values):
            if k > n:  # m is not read, so the first such cell has the first m
                raise ValueError(f"cell (m={self.m_values[0]}, n={n}, K={k}) has K > n")
        if self.ensemble == "lemma1_family":
            if not self.lemma1_deltas:
                raise ValueError("lemma1_deltas must be non-empty for lemma1_family")
            if not all(0.0 <= d < 1.0 for d in self.lemma1_deltas):
                raise ValueError("lemma1_deltas must lie in [0, 1)")
            if {*self.m_values, *self.n_values} != {3} or {*self.k_values} != {2}:
                raise ValueError("lemma1_family requires m = n = 3 and K = 2 cells")

    def cells(self):
        """Cell grid in deterministic (m, n, k, epsilon) product order."""
        return list(
            itertools.product(
                self.m_values, self.n_values, self.k_values, self.epsilon_values
            )
        )


def _values(kind):
    """The parser of a comma- or space-separated list of ``kind`` values."""
    return lambda value: tuple(kind(tok) for tok in value.replace(",", " ").split())


# config key -> (ExperimentConfig field, value parser)
_CONFIG_KEYS = {
    "m": ("m_values", _values(int)),
    "n": ("n_values", _values(int)),
    "k": ("k_values", _values(int)),
    "epsilon": ("epsilon_values", _values(float)),
    "lemma1_deltas": ("lemma1_deltas", _values(float)),
    "trials": ("trials", int),
    "master_seed": ("master_seed", int),
    "parallelism": ("parallelism", int),
    "subset_budget": ("subset_budget", int),
    "margin_factor": ("margin_factor", float),
    "min_mag_fixed": ("min_mag_fixed", float),
    "dynamic_range": ("dynamic_range", float),
    "min_mag_policy": ("min_mag_policy", str),
    "sign_pattern": ("sign_pattern", str),
    "ensemble": ("ensemble", str),
    "failure_dir": ("failure_dir", str),
}


def parse_config(text):
    """Parse the flat ``key = value`` config format (lists are comma-separated).

    Required keys: m, n, k, epsilon, trials. Lines starting with '#' and
    blank lines are ignored; unknown and repeated keys are an error, and so
    is a value that does not parse, named by its key and line.
    """
    kwargs = {}
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ValueError(
                f"config key {key!r} repeated on lines {seen[key]} and {lineno}"
            )
        seen[key] = lineno
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r} on line {lineno}")
        name, parse = _CONFIG_KEYS[key]
        try:
            kwargs[name] = parse(value)
        except ValueError as exc:
            raise ValueError(f"config key {key!r} on line {lineno}: {exc}") from None
    missing = [k for k in ("m", "n", "k", "epsilon", "trials") if k not in seen]
    if missing:
        raise ValueError(f"config is missing required keys: {missing}")
    return ExperimentConfig(**kwargs)


def read_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


@dataclass(frozen=True)
class ExperimentRow:
    """Aggregated outcome of one (m, n, K, epsilon) cell.

    ``exact_support_rate`` counts exact recoveries over all trials of the
    cell (trials skipped for failing the RIC precondition count as
    non-recoveries there). Conditions fields are None when condition
    checking was not performed; ``conditional_success_rate`` is None when no
    trial held the conditions.
    """

    m: int
    n: int
    k: int
    epsilon: float
    trials: int
    exact_support_rate: float
    conditions_held_count: int | None
    conditional_success_rate: float | None
    mean_iterations: float | None
    rank_failures: int


EXPERIMENT_CSV_HEADER = (
    "m,n,K,epsilon,trials,exact_support_rate,conditions_held_count,"
    "conditional_success_rate,mean_iterations,rank_failures"
)


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ExperimentRow's field order is the CSV column order.
_row_values = attrgetter(*(f.name for f in fields(ExperimentRow)))


def rows_csv_text(rows):
    lines = [EXPERIMENT_CSV_HEADER]
    lines += (",".join(_csv_cell(v) for v in _row_values(r)) for r in rows)
    return "\n".join(lines) + "\n"


def write_rows_csv(path, rows):
    with open(path, "w") as fh:
        fh.write(rows_csv_text(rows))


# ---------------------------------------------------------------------------
# Trial execution. Workers are pure functions of a picklable task (the frozen
# config plus the cell and the trial seed), so pool results are identical to
# serial results regardless of worker count. One pool serves every cell of a
# run.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _TrialTask:
    config: ExperimentConfig
    mode: str  # "theorem1" | "phase"
    m: int
    n: int
    k: int
    epsilon: float
    trial_seed: int
    check_conditions: bool


class _TrialOutcome(NamedTuple):
    """One trial's record, from the certify stage on; the defaults are a
    trial that checks no RIC and is not solved. The certify stage (_certify)
    fills ``delta``, the trial's exact order-(K+1) RIC where its magnitude
    ``floor`` is finite (None elsewhere), ``floor``, +inf where no guarantee
    applies, ``witness``, the sorted subset whose delta decided the verdict
    (None where no RIC is checked), and ``settled``, whether the witness
    pass decided it; _solve fills the rest. A theorem1 trial that fails the
    RIC condition keeps its certified record unsolved. None of these four
    fields is written to a CSV. A named tuple, since every RIC-checked trial
    builds one: it builds in about a third of a frozen dataclass's time, and
    pickles across the pool faster."""

    held: bool = False
    attempted: bool = False
    success: bool = False
    iterations: int = 0
    rank_failure: bool = False
    delta: float | None = None
    floor: float = math.inf
    witness: tuple[int, ...] | None = None
    settled: bool = False


def _stop_rule(task):
    # Noiseless cells reduce to the K-iteration guarantee; a residual
    # threshold of exactly zero is never reached in floating point.
    if task.epsilon > 0.0:
        return StopRule.residual_at_most(task.epsilon)
    return StopRule.max_iterations(task.k)


def _build_trial(task, A, floor):
    """The trial's signal x as (support, values), the draw of
    ``random_sparse_signal``, sphere noise v and measurement y = A x + v.
    The signal's magnitude floor is min_mag_fixed, or margin_factor times
    ``floor``, the guarantee's (_magnitude_floor), where +inf (no RIC
    checked, or the RIC condition fails) stands for no guarantee and its
    RIC-0 value 2 eps is used; and 1 where that is 0. The config has checked
    every argument of the draw but this floor's magnitude range. y is
    sensing._measurement's."""
    config = task.config
    if config.min_mag_policy == "fixed":
        floor = config.min_mag_fixed
    else:
        floor = 2.0 * task.epsilon if floor == math.inf else floor
        floor = floor * config.margin_factor if floor > 0.0 else 1.0
    if math.isinf(floor * config.dynamic_range):
        raise ValueError("min_mag and min_mag * dynamic_range must be finite")
    support, values = _signal_draw(task.n, task.k, floor, config.dynamic_range,
                                   _derived_seed(task.trial_seed, _SIGNAL_TAG), config.sign_pattern)
    v = noise_vector(A.shape[0], task.epsilon, _derived_seed(task.trial_seed, _NOISE_TAG))
    return support, values, v, _measurement(A, support, values, v)


def _draw_stack(tasks):
    """The matrices of trials that share m and n, drawn into one (T, n, m)
    stack: each A^T in C order, that is, A in Fortran order, the layout
    ``gaussian_sensing_matrix`` returns. Gaussian draws are normalized in
    chunks of ``_UNIT_ENTRIES // (m*n)`` matrices (one at least) through one
    scratch buffer; a ``lemma1_family`` trial copies its drawn 3x3 into its
    slot."""
    config, m, n = tasks[0].config, tasks[0].m, tasks[0].n
    seeds = [_derived_seed(task.trial_seed, _MATRIX_TAG) for task in tasks]
    AT = np.empty((len(tasks), n, m))
    if config.ensemble == "lemma1_family":
        deltas = config.lemma1_deltas
        for slot, seed in zip(AT, seeds):
            delta = deltas[int(_keyed(seed).integers(len(deltas)))]
            slot[...] = lemma1_example_instance(delta)[0].T
        return AT
    chunk = max(1, _UNIT_ENTRIES // (m * n))
    scratch = np.empty((min(chunk, len(tasks)), m, n))
    for s in range(0, len(tasks), chunk):
        out = AT[s : s + chunk]
        _gaussian_draw(out, scratch[: len(out)], seeds[s : s + chunk],
                       config.ensemble == "gaussian_normalized")
    return AT


#: Most entries in one batched stack (one matrix at least). A RIC kernel
#: call, and a lemma_sweep chunk, counts C(n, K + 1) bound entries per Gram;
#: a unit's draw and witness pass count n*n Gram entries per trial. A unit is
#: never cut finer than a kernel stack, so it holds
#: ``_UNIT_ENTRIES // min(n*n, C(n, K + 1))`` trials. Larger stacks run no
#: faster and hold more memory.
_UNIT_ENTRIES = 2**14

#: Most matrix entries (m*n per trial) in the stack of any work unit, one
#: matrix at least: 2 MiB of draws.
_STACK_ENTRIES = 2**18


def _certify(G, k, epsilons):
    """The certified record (_TrialOutcome) of each Gram of the stack G at
    order k + 1: its delta, its magnitude floor (_magnitude_floor) at its
    trial's epsilon, +inf where the RIC condition fails, and the witness
    subset of that delta; trusted: its callers check the order and the
    subset budget first. One witness call covers the stack. A Gram whose
    witness delta (_witness_deltas, at most the RIC) fails _ric_condition
    is settled by it, which decides its verdict (a NaN delta would fail it,
    as in _magnitude_floor, but the finite Grams _grams admits give none);
    the others get their exact RICs and the kernel's witnesses from kernel
    calls on at most ``_UNIT_ENTRIES // C(n, k + 1)`` Grams each (one at
    least), each bit for bit as if computed alone."""
    deltas, subsets = _witness_deltas(G, k + 1)
    settled = ~_ric_condition(deltas, k)
    kernel = np.flatnonzero(~settled)  # verdicts no witness settles
    cap = max(1, _UNIT_ENTRIES // math.comb(G.shape[-1], k + 1))
    for s in range(0, len(kernel), cap):
        rows = kernel[s : s + cap]
        deltas[rows], subsets[rows] = _ric_search(G[rows], k + 1)[:2]
    deltas, subsets, settled = deltas.tolist(), subsets.tolist(), settled.tolist()
    floors = [_magnitude_floor(delta, k, eps) for delta, eps in zip(deltas, epsilons)]
    return [_TrialOutcome(delta=delta if floor < math.inf else None, floor=floor,
                          witness=tuple(subset), settled=done)
            for delta, floor, subset, done in zip(deltas, floors, subsets, settled)]


def _recovered(picks, support):
    """The one recovery verdict: the picks, in any order, are exactly the
    sorted ``support``, so a K-sparse signal took exactly K iterations."""
    return np.array_equal(np.sort(picks), support)


def _solve(AT, trials):
    """The records of one cell's trials, each a (task, record) whose matrix
    is its row of the stack AT and whose record holds its certified floor:
    each trial is built (_build_trial) and one _omp_stack call solves them
    in lockstep. That call reorders AT in place, so nothing reads it after.
    Success is _recovered, and the conditions held where
    _magnitude_condition holds on the signal's smallest magnitude and the
    floor."""
    built = [_build_trial(task, A.T, record.floor) for (task, record), A in zip(trials, AT)]
    runs = _omp_stack(AT, np.array([y for *_, y in built]), _stop_rule(trials[0][0]))
    return [record._replace(held=_magnitude_condition(float(np.abs(values).min()), record.floor),
                            success=_recovered(run.picks, support),
                            attempted=True, iterations=run.picks.size,
                            rank_failure=run.stopped_by == STOPPED_RANK_FAILURE)
            for (_, record), (support, values, _, _), run in zip(trials, built, runs)]


def _run_unit(tasks):
    """Records of one work unit (see _work_units); a pool worker returns
    only these. Its three stages: the draw, one stack per m (_draw_stack),
    since epsilon does not touch the matrix; the certify stage, where a
    RIC-checked unit's trials share (n, K + 1), each stack's Grams come from
    one stacked product, they form one stack, and _certify gives each its
    record (the default record where no RIC is checked); and the solve, one
    _solve call per cell, which completes the records of every phase trial
    and of the theorem1 trials that hold the RIC condition; the others
    skip."""
    draws = {}  # m: positions in tasks
    for i, task in enumerate(tasks):
        draws.setdefault(task.m, []).append(i)
    stacks = [_draw_stack([tasks[i] for i in members]) for members in draws.values()]
    outcomes = [_TrialOutcome()] * len(tasks)
    if tasks[0].check_conditions:
        drawn = list(itertools.chain(*draws.values()))
        G = np.concatenate([_grams(AT.swapaxes(1, 2)) for AT in stacks])
        for i, record in zip(drawn, _certify(G, tasks[0].k, [tasks[i].epsilon for i in drawn])):
            outcomes[i] = record
    for members, AT in zip(draws.values(), stacks):
        cells = {}  # epsilon: rows of AT to solve
        for row, i in enumerate(members):
            if tasks[i].mode == "phase" or outcomes[i].floor < math.inf:
                cells.setdefault(tasks[i].epsilon, []).append(row)
        for rows in cells.values():
            solved = [members[row] for row in rows]
            cell = AT if len(rows) == len(AT) else AT[rows]
            for i, record in zip(solved, _solve(cell, [(tasks[i], outcomes[i]) for i in solved])):
                outcomes[i] = record
    return outcomes


def _work_units(tasks, workers):
    """Task index lists, largest first: trials sorted by (m*n, K), the sort
    stable, so equal sizes keep trial order, and units ordered by their
    first trial. The RIC-checked trials of one (n, K + 1), across cells, are
    cut into units of ``_UNIT_ENTRIES // min(n*n, C(n, K + 1))`` trials: as
    few as the draw and witness pass allow, and never more than the
    kernel's stacks (see _UNIT_ENTRIES). The other trials are cut cell by
    cell into units of len(tasks) // (16 * workers) trials, so no worker is
    left alone with the costliest cell at the end. Every unit holds at most
    ``_STACK_ENTRIES // (m*n)`` trials as well, m*n the largest of its group
    (its first trial's), which bounds its matrix stacks; and one at least."""
    sizes = [(t.m * t.n, t.k) for t in tasks]
    order = sorted(range(len(tasks)), key=sizes.__getitem__, reverse=True)
    groups = {}  # (n, K) of RIC-checked trials, or the cell: positions in order
    for p, i in enumerate(order):
        t = tasks[i]
        key = (t.n, t.k) if t.check_conditions else (t.m, t.n, t.k, t.epsilon)
        groups.setdefault(key, []).append(p)
    chunk = max(1, len(tasks) // (workers * 16))
    units = []
    for members in groups.values():
        first = tasks[order[members[0]]]
        size = chunk
        if first.check_conditions:
            size = _UNIT_ENTRIES // min(first.n**2, math.comb(first.n, first.k + 1))
        size = max(1, min(size, _STACK_ENTRIES // (first.m * first.n)))
        units += (members[s : s + size] for s in range(0, len(members), size))
    units.sort()
    return [[order[p] for p in unit] for unit in units]


def _map_trials(tasks, parallelism):
    """Outcomes of ``tasks`` in task order, run as the work units of
    _work_units: in-process, or on a pool that receives the largest first."""
    workers = min(parallelism, len(tasks), os.cpu_count() or 1)
    units = _work_units(tasks, workers)
    batches = [[tasks[i] for i in unit] for unit in units]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_unit, batches))
    else:
        done = map(_run_unit, batches)
    outcomes = [None] * len(tasks)
    for unit, unit_outcomes in zip(units, done):
        for i, outcome in zip(unit, unit_outcomes):
            outcomes[i] = outcome
    return outcomes


def _run_cells(config, mode):
    """Run every trial of the run in one ``_map_trials`` call; returns
    ``(cell, tasks, outcomes)`` per cell in cell order. Trial j of cell ci has
    global index t = ci * trials + j. One rule decides every cell's RIC
    check: its trials check the conditions where the order-(K+1)
    enumeration has subsets (K < n) and _fits_budget holds. Theorem1
    refuses every cell that would not, before it gets here. The config has
    refused a run of more than ``MAX_RUN_TRIALS`` trials."""
    cells = config.cells()
    tasks = []
    for ci, (m, n, k, eps) in enumerate(cells):
        check = k < n and _fits_budget(n, k + 1, config.subset_budget)
        for j in range(config.trials):
            t = ci * config.trials + j
            trial_seed = (config.master_seed ^ splitmix64(t)) & MASK64
            tasks.append(_TrialTask(config, mode, m, n, k, eps, trial_seed, check))
    outcomes = _map_trials(tasks, config.parallelism)
    per = config.trials
    return [
        (cell, tasks[ci * per:(ci + 1) * per], outcomes[ci * per:(ci + 1) * per])
        for ci, cell in enumerate(cells)
    ]


def _aggregate_cell(cell, outcomes, with_conditions):
    m, n, k, eps = cell
    trials = len(outcomes)
    successes = sum(1 for o in outcomes if o.success)
    attempted = [o for o in outcomes if o.attempted]
    rank_failures = sum(1 for o in attempted if o.rank_failure)
    mean_iters = (
        sum(o.iterations for o in attempted) / len(attempted) if attempted else None
    )
    if with_conditions:
        held = [o for o in outcomes if o.held]
        cond_count = len(held)
        cond_rate = (
            sum(1 for o in held if o.success) / cond_count if cond_count else None
        )
    else:
        cond_count = cond_rate = None
    return ExperimentRow(
        m=m,
        n=n,
        k=k,
        epsilon=float(eps),
        trials=trials,
        exact_support_rate=successes / trials,
        conditions_held_count=cond_count,
        conditional_success_rate=cond_rate,
        mean_iterations=mean_iters,
        rank_failures=rank_failures,
    )


def _write_record(directory, instance, result=None, report=None):
    """Write a failure record: the problem instance directory, plus the
    solver trace (``trace.csv``) and a JSON report (``report.json``) when
    given."""
    save_problem_instance(directory, instance)
    if result is not None:
        write_trace_csv(os.path.join(directory, "trace.csv"), result)
    if report is not None:
        with open(os.path.join(directory, "report.json"), "w") as fh:
            json.dump(report, fh, indent=2)


def theorem1_validation(config):
    """Validate the support-recovery guarantee cell by cell.

    Every cell needs K + 1 <= n, and its C(n, K + 1) subsets within the
    subset budget (CapacityError otherwise), before any trial runs; both
    are checked on the (n, K) pairs, and a refusal names the first
    offending cell in product order, (``m_values[0]``, n, K). Per
    trial: draw the matrix, certify its order-(K+1) RIC (``_certify``: exact
    below 1/sqrt(K+1), a witness delta may stand in at or above it), skip
    and count trials violating the RIC condition, draw the signal at the
    magnitude floor, add sphere noise, run the solver and record whether the
    exact support came back in exactly K iterations. Once every trial has
    run, the first condition-holding trial that failed (cells in order, then
    trials in order) is replayed alone, with the delta and floor its record
    keeps, serialized under ``config.failure_dir``, and raises
    GuaranteeViolation: the conditional success rate must be exactly 1.0.
    """
    for n, k in itertools.product(config.n_values, config.k_values):
        cell = f"cell (m={config.m_values[0]}, n={n}, K={k})"  # no rule reads m
        if k + 1 > n:
            raise ValueError(f"{cell} needs K+1 <= n")
        _check_budget(n, k + 1, config.subset_budget, f"required by {cell}")
    rows = []
    for cell, tasks, outcomes in _run_cells(config, "theorem1"):
        for j, outcome in enumerate(outcomes):
            if outcome.held and not outcome.success:
                m, n, k, eps = cell
                A = _draw_stack(tasks[j : j + 1])[0].T
                support, values, v, y = _build_trial(tasks[j], A, outcome.floor)
                result = omp_run(A, y, _stop_rule(tasks[j]), true_support=support)
                instance = ProblemInstance(A, SparseSignal(n, support, values), v, y)
                directory = os.path.join(
                    config.failure_dir,
                    f"cell_m{m}_n{n}_K{k}_eps{eps}_trial{j}",
                )
                _write_record(directory, instance, result, {
                    "delta": outcome.delta,
                    "ric_bound": sharp_ric_bound(k),
                    "epsilon": eps,
                    "recovered_support": [int(i) for i in result.recovered_support],
                    "true_support": [int(i) for i in instance.signal.support],
                })
                raise GuaranteeViolation(
                    f"recovery guarantee violated in cell {cell}, trial {j}; "
                    f"instance serialized to {directory}"
                )
        rows.append(_aggregate_cell(cell, outcomes, with_conditions=True))
    return rows


def phase_table(config):
    """Unconditioned exact-support-recovery rate per cell.

    Condition checking is performed where the enumeration budget allows it
    (conditions columns are empty elsewhere). Output is a pure function of
    (config, master_seed), byte-identical across parallelism settings. A
    noiseless cell runs K iterations, so it needs K <= min(m, n); the
    config has refused K > n, so this is K <= m, checked on the (m, K)
    pairs before any trial runs, and a refusal names the first offending
    cell in product order, (m, ``n_values[0]``, K, the first zero epsilon).
    """
    zero = [eps for eps in config.epsilon_values if eps == 0.0][:1]
    for m, k, eps in itertools.product(config.m_values, config.k_values, zero):
        if k > m:  # the config has refused K > n, so no rule reads n
            raise ValueError(f"cell (m={m}, n={config.n_values[0]}, K={k}, epsilon={eps}) "
                             "needs K <= min(m, n) for its K-iteration run")
    return [
        _aggregate_cell(cell, outcomes, tasks[0].check_conditions)
        for cell, tasks, outcomes in _run_cells(config, "phase")
    ]


# ---------------------------------------------------------------------------
# Sharpness probe: build a matrix at a prescribed RIC where greedy selection
# provably goes wrong on the first iteration, and verify it end to end.
# ---------------------------------------------------------------------------

#: Largest K that sharpness_probe builds. The instance is a dense
#: (K+1) x (K+1) matrix and its K-step verification run costs O(K^3); at
#: K = 1024 building and verifying takes about 1.3 s on a 2-core machine.
MAX_SHARPNESS_K = 1024


@dataclass(frozen=True, eq=False)
class FailureInstance:
    """A verified counterexample: RIC at or above the sharp bound, greedy miss.

    The instance computes ``verified_delta``, the exact order-(K+1) RIC of
    its own matrix, ``sharp_bound``, 1/sqrt(K+1) of the signal's K, and
    ``omp_trace``, the noiseless K-iteration run on y = A x (not
    sensing._measurement's: adding a zero v would turn a -0.0 of A x into
    +0.0). The RIC may not sit below that bound (such an instance would
    contradict the guarantee), and the run must fail _recovered on the
    signal support. This is the package's one counterexample verdict: the
    probe and the loader both construct through it. The RIC enumerates
    C(n, K+1) subsets within the default subset budget and raises
    CapacityError above it.
    """

    matrix: np.ndarray
    signal: SparseSignal
    verified_delta: float = field(init=False)
    sharp_bound: float = field(init=False)
    omp_trace: object = field(init=False)

    def __post_init__(self):
        K = self.signal.sparsity
        object.__setattr__(self, "verified_delta", exact_ric(self.matrix, K + 1).delta)
        object.__setattr__(self, "sharp_bound", sharp_ric_bound(K))
        if self.verified_delta < self.sharp_bound - 1e-10:
            raise ValueError(
                "verified delta sits below the sharp bound; not a valid counterexample"
            )
        y = self.matrix @ self.signal.to_dense()
        rule = StopRule.max_iterations(K)
        trace = omp_run(self.matrix, y, rule, true_support=self.signal.support)
        if _recovered(trace.recovered_support, self.signal.support):
            raise ValueError("trace recovers the true support; not a failure")
        object.__setattr__(self, "omp_trace", trace)


def sharpness_probe(K, t):
    """Build a verified greedy-failure instance with RIC t.

    Equicorrelated-column construction (cf. Mo & Shen, IEEE TIT 2012):
    orthonormal support columns 1..K and an off-support column 0 of squared
    norm 1 + 2/K correlating c/K with each, c = sqrt((t^2 (K+1)^2 - 1) / K),
    the Gram scaled by K/(K+1) and factored by Cholesky. Its spectrum is
    {1 - t, K/(K+1) (K-1 times), 1 + t}, so delta_{K+1} = t, as
    1/(K+1) < t, and with x = 1 on the support, column 0 wins the first
    selection by the factor c > 1.

    K must be an integer in [2, MAX_SHARPNESS_K] (an integral float such
    as 2.0 is accepted; 2.9 is refused, not truncated). An exact RIC
    computation and a noiseless K-iteration solver run verify the instance:
    ``None`` means FailureInstance, the one counterexample verdict,
    rejected them, or, close to t = 1, that rounding left the scaled Gram
    not positive definite, so it has no Cholesky factor and no instance is
    built. At t == 1/sqrt(K+1) c = 1, so the first
    selection is an exact tie that rounding decides and no instance is
    claimed; a few ulps above the bound rounding can still break the tie
    toward the support (at K = 4, for one), and FailureInstance rejects it.
    """
    if not (2 <= K <= MAX_SHARPNESS_K and K == int(K)):
        raise ValueError(f"K must lie in [2, {MAX_SHARPNESS_K}] and be an integer, got {K!r}")
    K = int(K)
    sharp = sharp_ric_bound(K)
    if not (sharp <= t < 1.0):
        raise ValueError(f"t must lie in [1/sqrt(K+1), 1) = [{sharp:.6f}, 1)")
    if t == sharp:
        return None
    c = math.sqrt((t * t * (K + 1) ** 2 - 1.0) / K)
    G = np.eye(K + 1)
    G[0, 0] = 1.0 + 2.0 / K
    G[0, 1:] = G[1:, 0] = c / K
    signal = SparseSignal(
        dimension=K + 1, support=np.arange(1, K + 1), values=np.ones(K)
    )
    try:  # near t = 1 rounding can leave G not positive definite: LinAlgError
        A = np.linalg.cholesky(G * (K / (K + 1.0))).T
        return FailureInstance(A, signal)
    except ValueError:
        return None


def save_failure_instance(directory, fi):
    """Serialize a FailureInstance as an instance directory plus trace/report."""
    instance = generate_measurement(fi.matrix, fi.signal)
    _write_record(directory, instance, fi.omp_trace, {
        "verified_delta": fi.verified_delta,
        "sharp_bound": fi.sharp_bound,
        "k": fi.signal.sparsity,
        "recovered_support": [int(i) for i in fi.omp_trace.recovered_support],
    })


def load_failure_instance(directory):
    """Reload a FailureInstance from its instance directory alone.

    The constructor recomputes the RIC and re-runs the solver; ``report.json``
    is written for readers and never read back, so a record without one
    loads. A record whose C(n, K+1) exceeds the default subset budget raises
    CapacityError.
    """
    instance = load_problem_instance(directory)
    return FailureInstance(instance.matrix, instance.signal)


# ---------------------------------------------------------------------------
# Lemma sweep: randomized verification of the four supporting inequalities,
# with exactly computed RICs throughout.
# ---------------------------------------------------------------------------

# Shapes rotate per instance. The selection inequality needs an exact RIC
# below 1 at order K+1, which random designs only deliver when rows
# comfortably exceed columns, so higher K uses taller matrices; the diagonal
# worked-example family covers K = 2 at exactly known RIC, and identity
# instances pin the zero-RIC closed forms.
_SWEEP_SHAPES = (
    ("gaussian", 12, 18, 1),
    ("gaussian", 64, 16, 2),
    ("gaussian", 128, 14, 3),
    ("lemma1_family", 3, 3, 2),
    ("identity", 8, 8, 2),
)


@dataclass(frozen=True)
class LemmaSweepReport:
    """Margins and counters from one lemma sweep. Zero violations expected."""

    instances: int
    lemma1_checks: int
    lemma1_skipped: int
    min_margin_lemma1: float
    min_margin_lemma2: float
    min_margin_lemma3: float
    min_margin_lemma4: float
    violations: int


def lemma_sweep(seed, instances, failure_dir="lemma-sweep-failures"):
    """Check the four supporting inequalities on randomized instances.

    Per instance: exact RICs at all orders up to K+1 feed a monotonicity
    check; a random ambient vector checks the correlation-energy bound
    ||A_S^T w||^2 <= (1 + delta_k) ||w||^2; a random coefficient vector
    checks the projected-energy sandwich (1 - delta) ||u||^2 <=
    ||P A_{S2 minus S1} u||^2 <= (1 + delta) ||u||^2; and every proper subset
    of the support feeds the selection inequality when the order-(K+1) RIC is
    below 1 (else it claims nothing; the instance counts as skipped).

    Each instance draws from its own seeds, but the instances of one
    ``_SWEEP_SHAPES`` row are drawn (``_sweep_draws``, a Gaussian row's
    matrices in one stacked draw) and checked (``_sweep_checks``) together,
    each value bit for bit as if checked alone, in chunks of at most
    ``_UNIT_ENTRIES // C(n, K + 1)`` of them (one at least), so memory stays
    bounded. Results are reduced in instance order: the first instance that
    violates an inequality is serialized and raises GuaranteeViolation, and
    the first whose check raises re-raises.
    """
    if instances < 1:
        raise ValueError("instances must be positive")
    margins = {1: math.inf, 2: math.inf, 3: math.inf, 4: math.inf}
    lemma1_checks = 0
    lemma1_skipped = 0
    shapes = len(_SWEEP_SHAPES)
    subsets = {K: np.array([[j in S for j in range(K)] for size in range(K)
                            for S in itertools.combinations(range(K), size)])
               for _, _, _, K in _SWEEP_SHAPES}  # one row per proper subset
    results = {}  # of the instances checked but not yet reduced
    for i in range(instances):
        if i not in results:  # i is its shape's first unchecked instance
            _, _, n, K = _SWEEP_SHAPES[i % shapes]
            chunk = range(i, instances, shapes)[: max(1, _UNIT_ENTRIES // math.comb(n, K + 1))]
            results.update(zip(chunk, _sweep_results(seed, chunk, subsets)))
        result = results.pop(i)
        if isinstance(result, Exception):
            raise result
        lemma2, margin3, margin4, lemma1, holds = result
        # monotonicity of the RIC in the order
        margins[2] = min(margins[2], *lemma2)
        violations = [(i, "lemma2", d) for d in lemma2 if d < -1e-10]
        margins[3] = min(margins[3], margin3)
        if margin3 < -1e-9:
            violations.append((i, "lemma3", margin3))
        margins[4] = min(margins[4], margin4)
        if margin4 < -1e-9:
            violations.append((i, "lemma4", margin4))
        if lemma1 is None:
            lemma1_skipped += 1
        else:
            lemma1_checks += len(lemma1)
            margins[1] = min(margins[1], *lemma1)
            violations += [(i, "lemma1", d) for d, ok in zip(lemma1, holds) if not ok]
        if violations:
            A, signal = _sweep_instance(seed, i)[:2]
            instance = generate_measurement(A, signal)
            directory = os.path.join(failure_dir, f"instance_{i}")
            _write_record(directory, instance)
            raise GuaranteeViolation(
                f"lemma violations {violations}; instance serialized to "
                f"{directory}"
            )

    return LemmaSweepReport(
        instances=instances,
        lemma1_checks=lemma1_checks,
        lemma1_skipped=lemma1_skipped,
        min_margin_lemma1=margins[1],
        min_margin_lemma2=margins[2],
        min_margin_lemma3=margins[3],
        min_margin_lemma4=margins[4],
        violations=0,
    )


def _sweep_instance(seed, i):
    """Instance i of a lemma sweep, the chunk-of-one view of _sweep_draws:
    its matrix A, signal, ambient vector w, projected-energy split (S1,
    rest) and coefficients u."""
    AT, support, values, w, s1, rest, u = _sweep_draws(seed, [i])
    return AT[0].T, SparseSignal(AT.shape[1], support[0], values[0]), w[0], s1[0], rest[0], u[0]


def _sweep_draws(seed, chunk):
    """The draws of ``chunk``, indices of one _SWEEP_SHAPES row: its matrices
    as one (T, n, m) stack AT, row j of AT[t] column j of instance t's A (a
    Gaussian chunk is one _gaussian_draw call, each matrix in the Fortran
    order it is drawn in); its signals' supports and values, (T, K) arrays,
    the draws of ``random_sparse_signal``; its ambient vectors w, (T, m);
    and per instance its projected-energy split, S1 and rest, and
    coefficients u. S1 alternates inside and outside the support; w, then u,
    come from one generator."""
    seeds = [(int(seed) ^ splitmix64(i)) & MASK64 for i in chunk]
    kind, m, n, K = _SWEEP_SHAPES[chunk[0] % len(_SWEEP_SHAPES)]
    T = len(chunk)
    AT, w = np.empty((T, n, m)), np.empty((T, m))
    support, values = np.empty((T, K), dtype=np.intp), np.empty((T, K))
    if kind == "gaussian":
        _gaussian_draw(AT, np.empty((T, m, n)),
                       [_derived_seed(s, _MATRIX_TAG) for s in seeds], True)
    elif kind == "identity":
        AT[:] = np.eye(n)
    else:  # each worked example built once
        examples = [lemma1_example_instance(delta)[:2] for delta in LEMMA1_DELTAS]
    s1, rest, u = [], [], []
    for t, (i, trial_seed) in enumerate(zip(chunk, seeds)):
        if kind == "lemma1_family":
            A, signal = examples[i % len(LEMMA1_DELTAS)]
            AT[t], support[t], values[t] = A.T, signal.support, signal.values
        else:
            support[t], values[t] = _signal_draw(n, K, 1.0, 10.0,
                                                 _derived_seed(trial_seed, _SIGNAL_TAG), "random")
        if i % 2 == 0 and K >= 2:
            s1.append(support[t, : K // 2])
            rest.append(support[t, K // 2 :])
        else:  # the first column off the support
            s1.append(np.flatnonzero(np.bincount(support[t], minlength=n) == 0)[:1])
            rest.append(support[t])
        rng = _keyed(_derived_seed(trial_seed, 0x77))
        w[t] = rng.standard_normal(m)
        u.append(rng.standard_normal(rest[t].size))
    return AT, support, values, w, s1, rest, u


def _sweep_results(seed, chunk, subsets):
    """_sweep_checks of ``chunk``, or where a draw or check raises, of each
    instance alone, the exception of one that raises standing in for its
    result."""
    try:
        return _sweep_checks(seed, chunk, subsets)
    except (ArithmeticError, ValueError, SingularSystemError) as exc:
        if len(chunk) == 1:
            return [exc]
        return [r for i in chunk for r in _sweep_results(seed, [i], subsets)]


def _sweep_checks(seed, chunk, subsets):
    """Per instance of ``chunk``, indices of one _SWEEP_SHAPES row: its RIC
    monotonicity margins, correlation-energy and projected-energy margins,
    and the selection inequality's margins and verdicts per row of
    ``subsets[K]``, both None where delta_{K+1} >= 1. Each check is one
    batched call on the chunk's stack of draws (_sweep_draws), each matrix in
    the Fortran order it is drawn in, so that each value is bit for bit its
    own."""
    AT, support, values, w, s1, rest, u = _sweep_draws(seed, chunk)
    K, t = support.shape[1], np.arange(len(chunk))[:, None]
    A = AT.swapaxes(1, 2)  # the draws, each in Fortran order, held once

    def dots(v):  # v[t] @ v[t] for each t, one BLAS dot each
        return (v[:, None, :] @ v[:, :, None]).ravel()

    G = _grams(A)
    deltas = np.array([_ric_search(G, order)[0] for order in range(1, K + 2)]).T

    # correlation energy against a random ambient vector; as np.linalg.norm ** 2
    norms = np.sqrt(dots((AT[t, support] @ w[:, :, None])[..., 0]))
    margin3 = (1.0 + deltas[:, K - 1]) * dots(w) - [v**2 for v in norms]

    # projected-energy sandwich, one stacked projection per (|S1|, |rest|)
    energy, uu = np.empty(len(chunk)), np.empty(len(chunk))
    splits = [(a.size, b.size) for a, b in zip(s1, rest)]
    for split in dict.fromkeys(splits):
        j = [k for k, key in enumerate(splits) if key == split]
        U = np.array([u[k] for k in j])
        A_S = AT[t[j], np.array([s1[k] for k in j])].swapaxes(1, 2)
        y = (AT[t[j], np.array([rest[k] for k in j])].swapaxes(1, 2) @ U[:, :, None])[..., 0]
        energy[j] = dots(y - (A_S @ _least_squares(A_S, y)[:, :, None])[..., 0])
        uu[j] = dots(U)
    d_union = deltas[t[:, 0], [sum(split) - 1 for split in splits]]
    low, high = energy - (1.0 - d_union) * uu, (1.0 + d_union) * uu - energy

    # selection inequality, one row per proper subset of the support
    held = deltas[:, K] < 1.0
    # a view, not a copy, if it can: always copying, lemma_sweep ran 2.7% slower
    # (median of 10 alternated bench pairs on a 2-core machine)
    rows = slice(None) if held.all() else held
    lhs, rhs, holds = _lemma1_sides(A[rows], support[rows], values[rows],
                                    deltas[rows, K], subsets[K])
    lemma1 = iter(zip((lhs - rhs).tolist(), holds.tolist()))
    return [(lemma2, m3, min(lo, hi), *(next(lemma1) if h else (None, None)))
            for lemma2, m3, lo, hi, h in zip(np.diff(deltas).tolist(), margin3.tolist(),
                                             low.tolist(), high.tolist(), held)]
