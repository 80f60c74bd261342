"""Orthogonal matching pursuit with full per-iteration tracing.

Each iteration correlates the residual against every column (one A^T r
product), selects the largest magnitude with ties broken by smallest index,
refits by least squares on the selected set and recomputes the residual. The
refit reuses a thin QR factorization grown by one column per iteration
(Gram-Schmidt with one reorthogonalization pass); a from-scratch solve per
iteration serves as the correctness oracle in the tests.

Two stopping rules are supported: a fixed iteration count, and a residual
threshold ||r|| <= eps. Either is decided by ``StopRule.met`` at the top of
each pass, before any column is selected, so a measurement already inside
the noise ball yields an empty support.
Rank failure during a refit is reported as an outcome rather than raised:
experiment harnesses must be able to count such trials.

There is one iteration loop, ``_omp_stack``, which runs a stack of
same-shape trials in lockstep, every numpy call covering the whole stack.
Per trial it makes the same BLAS calls as a stack of one, so each trial's
run is bit for bit its own. ``omp_run`` is its view of one trial: it
validates, runs a stack of one, and builds the trace and the refit.

Given a true support, the run also reports each step's selection margin, the
inequality the recovery proof turns on: the winning correlation against the
best correlation of an unselected column outside the support.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import DEFAULT_RANK_TOL, as_epsilon, as_matrix, as_vector
from .sensing import SparseSignal

STOP_MAX_ITERATIONS = "max_iterations"
STOP_RESIDUAL = "residual_at_most"

STOPPED_RULE_MET = "rule_met"
STOPPED_BUDGET = "budget_exhausted"
STOPPED_RANK_FAILURE = "rank_failure"


class GuaranteeViolation(Exception):
    """A proven guarantee failed numerically; indicates an implementation bug."""


@dataclass(frozen=True)
class StopRule:
    """Stopping rule: exactly one of the two kinds is active.

    A residual rule compares each residual norm, the square root of a
    squared norm, against ``epsilon``, so a nonzero epsilon must have a
    normal float square (about 1.5e-154 to 1.3e154): outside that range the
    squares underflow to 0 or overflow, and the stop is decided wrongly.
    Such an epsilon is refused (ValueError); 0 is accepted."""

    kind: str
    k: int = 0
    epsilon: float = 0.0

    @classmethod
    def max_iterations(cls, k):
        return cls(kind=STOP_MAX_ITERATIONS, k=k)

    @classmethod
    def residual_at_most(cls, epsilon):
        return cls(kind=STOP_RESIDUAL, epsilon=epsilon)

    def __post_init__(self):
        if self.kind == STOP_MAX_ITERATIONS:
            if not (1 <= self.k < math.inf and self.k == int(self.k)):
                raise ValueError(f"iteration count must be a positive integer, got {self.k!r}")
            object.__setattr__(self, "k", int(self.k))
        elif self.kind == STOP_RESIDUAL:
            object.__setattr__(self, "epsilon", float(as_epsilon(self.epsilon)))
            if self.epsilon and not np.finfo(float).tiny <= self.epsilon * self.epsilon < math.inf:
                raise ValueError(f"epsilon**2 must be 0 or a normal float, got {self.epsilon!r}")
        else:
            raise ValueError(f"unknown stop rule kind {self.kind!r}")

    def met(self, iterations, residual_norm):
        """Whether the solver stops at this state of its run. Given an array
        of residual norms, one per trial of a stack at the same iteration,
        a residual rule decides each; a count rule's one decision holds for
        all."""
        if self.kind == STOP_MAX_ITERATIONS:
            return iterations >= self.k
        return residual_norm <= self.epsilon


@dataclass(frozen=True)
class OmpIterationRecord:
    """One iteration: selected column, winning correlation, residual norm.
    Given a true support, whether the pick is in it, and the largest
    |a_j . r| over unselected columns outside it (0.0 where there is none),
    taken on the residual the pick was made from; it equals ``correlation``
    on a wrong pick. The trace CSV does not carry it."""

    iteration: int
    selected_index: int
    correlation: float
    residual_norm: float
    in_true_support: bool | None = None
    off_support_correlation: float | None = None


@dataclass(frozen=True, eq=False)
class OmpResult:
    """Solver outcome: sorted support, refit estimate, trace, stop cause."""

    recovered_support: np.ndarray
    estimate: SparseSignal
    trace: tuple
    stopped_by: str

    @property
    def iterations(self):
        return len(self.trace)


def omp_run(A, y, rule, true_support=None):
    """Run orthogonal matching pursuit on (A, y) under ``rule``.

    Args:
        A: m x n sensing matrix.
        y: length-m measurement.
        rule: StopRule, asked through ``rule.met`` before every selection.
            ``max_iterations(K)`` requires K <= min(m, n). At most min(m, n)
            iterations run; the result then reports ``budget_exhausted``.
        true_support: optional ground-truth support used only to annotate the
            trace, with each pick's membership and each step's best
            off-support correlation; the solver never reads it for decisions.
            Indices outside range(n) match no column.

    Returns:
        OmpResult. A rank-deficient refit is reported as
        ``stopped_by == "rank_failure"`` with the trace truncated before the
        failing iteration, not raised.

    The run is ``_omp_stack``'s on a stack of one trial.
    """
    A = as_matrix(A)
    y = as_vector(y, "y")
    m, n = A.shape
    if m != y.size:
        raise ValueError(f"matrix has {m} rows but y has {y.size} entries")
    budget = min(m, n)
    if rule.kind == STOP_MAX_ITERATIONS and rule.k > budget:
        raise ValueError(
            f"max_iterations({rule.k}) exceeds min(rows, cols) = {budget}"
        )
    truth = off = None
    if true_support is not None:
        truth = set(map(int, np.asarray(true_support).reshape(-1).tolist()))
        off = ~np.isin(np.arange(n), list(truth))[None]

    [run] = _omp_stack(A.T[None], y[None], rule, off)
    support, estimate = _refit(n, run)
    offs = itertools.repeat(None) if off is None else run.off_correlations.tolist()
    records = tuple(
        OmpIterationRecord(
            iteration=i,
            selected_index=j,
            correlation=c,
            residual_norm=r,
            in_true_support=None if truth is None else (j in truth),
            off_support_correlation=o,
        )
        for i, j, c, r, o in zip(
            itertools.count(1), run.picks.tolist(), run.correlations.tolist(),
            run.norms.tolist(), offs,
        )
    )
    return OmpResult(
        recovered_support=support,
        estimate=estimate,
        trace=records,
        stopped_by=run.stopped_by,
    )


def _refit(n, run):
    """A run's sorted support and its refit estimate: beta solves
    R beta = Q^T y; an exactly-zero coefficient leaves the estimate."""
    order = run.picks.argsort()
    support = run.picks[order]
    if not support.size:
        return support, SparseSignal(dimension=n, support=[], values=[])
    values = np.linalg.solve(run.R, run.qty)[order]
    nonzero = values != 0.0
    return support, SparseSignal(dimension=n, support=support[nonzero], values=values[nonzero])


class _StackRun(NamedTuple):
    """One trial's run in ``_omp_stack``: the stop cause, the refit's
    upper-triangular R, the selected indices in order, the winning
    correlations and the residual norms after each selection, the refit's
    Q^T y, and with a mask the best off-support correlations."""

    stopped_by: str
    R: np.ndarray
    picks: np.ndarray
    correlations: np.ndarray
    norms: np.ndarray
    qty: np.ndarray
    off_correlations: np.ndarray | None = None


def _to_front(keep, arrays):
    """Move the rows ``keep`` (ascending positions) of every array in front
    of the others, in place: each dropped row below len(keep) takes a kept
    row from beyond it. Returns the arrays' views of the kept rows."""
    size = len(keep)
    holes = np.setdiff1d(np.arange(size), keep).tolist()
    for h, s in zip(holes, keep[size - len(holes):].tolist()):
        for a in arrays:
            a[h] = a[s]
    return [a[:size] for a in arrays]


def _omp_stack(AT, Y, rule, off=None):
    """Orthogonal matching pursuit on a stack of same-shape trials, run in
    lockstep: trial t solves A_t x = Y[t], where AT[t] is A_t^T, C-ordered
    (A_t in Fortran order). Returns one ``_StackRun`` per trial.

    ``off``, an optional (T, n) boolean mask of each trial's off-support
    columns, makes every iteration also record per trial the largest
    correlation over unselected masked columns, or 0.0 where there is none.
    It is taken before the pick is marked, so it equals the winning
    correlation on a wrong pick. A max is exact, so it too is bit for bit
    the same in any stack; without a mask, nothing is computed.

    Every numpy call covers the live trials of the stack, and each hands
    BLAS, per trial, the call with the strides a stack of one makes: numpy's
    matmul loop runs gemv once per stack item, and ``np.vecdot`` runs the dot
    that a 1-D ``a @ b`` does. So a trial's run is bit for bit the same in
    any stack. ``rule.met`` decides the stops on the vector of residual
    norms, before any selection; then the budget (k == min(m, n)) and the
    rank test stop trials one by one. When trials stop, the live ones move
    forward in place in AT, Y, ``off`` and the kernel's own stacks (``_to_front``),
    and the loop works on the prefix; a stack of one is never written.
    """
    T, n, m = AT.shape
    budget = min(m, n)
    # a count rule's runs end by iteration K, so K columns hold them
    width = min(budget, rule.k) if rule.kind == STOP_MAX_ITERATIONS else budget
    QT = np.empty((T, width, m))  # row i of QT[t] is column i of trial t's Q
    R = np.empty((T, width, width))  # only the upper triangle is written
    qty = np.empty((T, width))
    picks = np.empty((T, width), dtype=np.intp)
    corrs, norms = np.empty((T, width)), np.empty((T, width))
    offs = None if off is None else np.empty((T, width))
    selected = np.zeros((T, n), dtype=bool)
    # The rank test compares the smallest and largest |R_ii|, the new rho
    # included; R's diagonal is the accepted rhos, so their extremes suffice.
    # Iteration 0 sets them (rho_min and rho_max start as placeholders).
    failed, failures = np.zeros(T, dtype=bool), 0
    trial = np.arange(T)  # the trial at each position
    runs = [None] * T
    # flat indices (trial * n + column) reach a column's entries of every
    # trial in one call: of corr, selected and the rows of AT's columns
    offset, columns = trial * n, AT.reshape(-1, m)
    QF = QT.transpose(0, 2, 1)  # QF[t] is trial t's Q, in Fortran order
    # Norms are sqrt(v . v), numpy's own formula for a 1-D norm, so the bits
    # match np.linalg.norm without its per-call overhead.
    r = Y
    rnorm = rho_min = rho_max = np.sqrt(np.vecdot(r, r))
    k = 0
    while True:
        met = rule.met(k, rnorm)
        if k == budget or failures or np.count_nonzero(met):
            met = failed | met  # an array, as failed is
            ended = met | (k == budget)
            keep = (~ended).nonzero()[0]
            for p in ended.nonzero()[0].tolist():
                i, cause = k, STOPPED_RULE_MET if met[p] else STOPPED_BUDGET
                if failed[p]:  # the failing iteration is not part of the run
                    i, cause = k - 1, STOPPED_RANK_FAILURE
                run = (picks[p, :i], corrs[p, :i], norms[p, :i], qty[p, :i])
                if offs is not None:
                    run += (offs[p, :i],)
                if p < keep.size:  # _to_front writes over this position
                    run = [a.copy() for a in run]
                runs[trial[p]] = _StackRun(cause, np.triu(R[p, :i, :i]), *run)
            if not keep.size:
                return runs
            moved = (AT, Y, r, QT, R, qty, picks, corrs, norms, selected, rho_min, rho_max,
                     trial) + (() if off is None else (off, offs))
            AT, Y, r, QT, R, qty, picks, corrs, norms, selected, rho_min, rho_max, trial, \
                *masked = _to_front(keep, moved)
            if masked:
                off, offs = masked
            offset, columns = offset[: keep.size], AT.reshape(-1, m)
            QF = QT.transpose(0, 2, 1)

        corr = (AT @ r[:, :, None])[:, :, 0]
        np.abs(corr, out=corr)
        # the refit makes selected correlations zero anyway; masking guards
        # against float noise and bars reselection even when all remaining
        # correlations are exactly zero
        np.putmask(corr, selected, -1.0)
        if off is not None:  # selected columns read -1.0, below the initial 0.0
            np.max(corr, axis=1, initial=0.0, where=off, out=offs[:, k])
        j = corr.argmax(axis=1, out=picks[:, k])  # first max: smallest index wins ties
        flat = offset + j
        corrs[:, k] = corr.take(flat)
        selected.put(flat, True)

        u = columns.take(flat, axis=0)
        if k:  # Gram-Schmidt against Q, with one reorthogonalization pass
            Qk, QkF, u = QT[:, :k], QF[:, :, :k], u[:, :, None]
            w = Qk @ u
            u = u - QkF @ w
            w2 = Qk @ u
            u -= QkF @ w2
            u = u[:, :, 0]
            np.add(w, w2, out=R[:, :k, k, None])
        rho = np.sqrt(np.vecdot(u, u))
        lo, hi = (np.fmin(rho_min, rho), np.fmax(rho_max, rho)) if k else (rho, rho)
        failed = lo <= DEFAULT_RANK_TOL * hi  # lo is 0 where rho is
        failures = np.count_nonzero(failed)
        if failures:  # these trials stop at the top; spare their division
            rho[failed] = 1.0
        rho_min, rho_max = lo, hi
        np.divide(u, rho[:, None], out=QT[:, k])
        R[:, k, k] = rho
        np.vecdot(QT[:, k], Y, out=qty[:, k])
        r = Y - (QF[:, :, : k + 1] @ qty[:, : k + 1, None])[:, :, 0]
        rnorm = np.sqrt(np.vecdot(r, r), out=norms[:, k])
        k += 1


@dataclass(frozen=True)
class ResidualBoundRecord:
    """Measured residual norm against its proven bound at one iteration."""

    iteration: int
    residual_norm: float
    bound: float
    kind: str  # "lower" before the last iteration, "final" at it
    margin: float
    holds: bool


def residual_bound_probe(instance, result, delta_k1):
    """Check the proof's residual bounds along a correct solver trace.

    For a trace that selected only true-support indices and ran exactly
    |support| iterations on ``instance``: every intermediate residual must
    satisfy ||r_k|| >= sqrt(1 - delta_{K+1}) * min|x_i| - eps - 1e-9, and the
    final one ||r_K|| <= eps + 1e-9, where eps = ||v|| of the instance.

    Returns the list of per-iteration ResidualBoundRecord on success.

    Raises:
        ValueError: the trace is not a complete correct-selection trace
            (the probe is only meaningful on one).
        GuaranteeViolation: a bound fails, which means a bug.
    """
    K = instance.signal.sparsity
    if result.iterations != K:
        raise ValueError(
            f"trace has {result.iterations} iterations, expected {K}"
        )
    if any(rec.in_true_support is not True for rec in result.trace):
        raise ValueError("probe requires a trace with all-correct selections")
    eps = float(np.linalg.norm(instance.noise))
    min_mag = instance.signal.min_magnitude()
    lower = math.sqrt(max(1.0 - delta_k1, 0.0)) * min_mag - eps
    records = []
    for rec in result.trace:
        if rec.iteration < K:
            bound = lower
            kind = "lower"
            margin = rec.residual_norm - bound
            holds = rec.residual_norm >= bound - 1e-9
        else:
            bound = eps
            kind = "final"
            margin = bound - rec.residual_norm
            holds = rec.residual_norm <= bound + 1e-9
        records.append(
            ResidualBoundRecord(
                iteration=rec.iteration,
                residual_norm=rec.residual_norm,
                bound=bound,
                kind=kind,
                margin=margin,
                holds=holds,
            )
        )
    bad = [r for r in records if not r.holds]
    if bad:
        raise GuaranteeViolation(
            f"residual bound violated at iterations "
            f"{[r.iteration for r in bad]}: {bad}"
        )
    return records


# ---------------------------------------------------------------------------
# Trace export: one CSV row per iteration.
# ---------------------------------------------------------------------------

TRACE_CSV_HEADER = "k,selected_index,correlation,residual_norm,in_true_support"


def trace_csv_text(result):
    buf = io.StringIO()
    buf.write(TRACE_CSV_HEADER + "\n")
    for rec in result.trace:
        flag = "" if rec.in_true_support is None else str(rec.in_true_support).lower()
        buf.write(
            f"{rec.iteration},{rec.selected_index},{rec.correlation!r},"
            f"{rec.residual_norm!r},{flag}\n"
        )
    return buf.getvalue()


def write_trace_csv(path, result):
    with open(path, "w") as fh:
        fh.write(trace_csv_text(result))


def omp_result_json(result):
    final = result.trace[-1].residual_norm if result.trace else None
    return json.dumps(
        {
            "recovered_support": [int(i) for i in result.recovered_support],
            "estimate": {
                "dimension": result.estimate.dimension,
                "support": [int(i) for i in result.estimate.support],
                "values": [float(v) for v in result.estimate.values],
            },
            "iterations": result.iterations,
            "stopped_by": result.stopped_by,
            "final_residual_norm": final,
        },
        indent=2,
    )
