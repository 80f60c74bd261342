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
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

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
    """Stopping rule: exactly one of the two kinds is active."""

    kind: str
    k: int = 0
    epsilon: float = 0.0

    @classmethod
    def max_iterations(cls, k):
        if int(k) < 1:
            raise ValueError("iteration count must be positive")
        return cls(kind=STOP_MAX_ITERATIONS, k=int(k))

    @classmethod
    def residual_at_most(cls, epsilon):
        return cls(kind=STOP_RESIDUAL, epsilon=float(as_epsilon(epsilon)))

    def __post_init__(self):
        if self.kind not in (STOP_MAX_ITERATIONS, STOP_RESIDUAL):
            raise ValueError(f"unknown stop rule kind {self.kind!r}")

    def met(self, iterations, residual_norm):
        """Whether the solver stops at this state of its run."""
        if self.kind == STOP_MAX_ITERATIONS:
            return iterations >= self.k
        return residual_norm <= self.epsilon


@dataclass(frozen=True)
class OmpIterationRecord:
    """One iteration: selected column, winning correlation, residual norm."""

    iteration: int
    selected_index: int
    correlation: float
    residual_norm: float
    in_true_support: bool | None = None


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
            trace; the solver never reads it for decisions.

    Returns:
        OmpResult. A rank-deficient refit is reported as
        ``stopped_by == "rank_failure"`` with the trace truncated before the
        failing iteration, not raised.
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
    truth = None
    if true_support is not None:
        truth = set(int(i) for i in np.asarray(true_support).reshape(-1))

    chosen = []
    records = []
    selected = np.zeros(n, dtype=bool)
    Q = np.zeros((m, budget), order="F")
    R = np.zeros((budget, budget))
    qty = np.zeros(budget)
    r = y
    # Norms are sqrt(v . v), numpy's own formula for a 1-D norm, so the bits
    # match np.linalg.norm without its per-call overhead.
    rnorm = math.sqrt(float(r @ r))
    # The rank test compares the smallest and largest |R_ii|, the new rho
    # included; R's diagonal is the accepted rhos, so their extremes suffice.
    rho_min = math.inf
    rho_max = 0.0

    k = 0
    while True:
        if rule.met(k, rnorm):
            stopped_by = STOPPED_RULE_MET
            break
        if k == budget:
            stopped_by = STOPPED_BUDGET
            break
        corr = A.T @ r
        np.abs(corr, out=corr)
        # the refit makes selected correlations zero anyway; masking guards
        # against float noise and bars reselection even when all remaining
        # correlations are exactly zero
        corr[selected] = -1.0
        j = int(np.argmax(corr))  # first max: smallest index wins ties
        winning = float(corr[j])

        col = A[:, j]
        Qk = Q[:, :k]
        w = Qk.T @ col
        u = col - Qk @ w
        w2 = Qk.T @ u  # one reorthogonalization pass
        u -= Qk @ w2
        rho = math.sqrt(float(u @ u))
        lo, hi = min(rho_min, rho), max(rho_max, rho)
        if rho == 0.0 or lo <= DEFAULT_RANK_TOL * hi:
            stopped_by = STOPPED_RANK_FAILURE
            break
        rho_min, rho_max = lo, hi
        Q[:, k] = u / rho
        R[:k, k] = w + w2
        R[k, k] = rho
        qty[k] = float(Q[:, k] @ y)
        r = y - Q[:, : k + 1] @ qty[: k + 1]
        rnorm = math.sqrt(float(r @ r))

        chosen.append(j)
        selected[j] = True
        k += 1
        records.append(
            OmpIterationRecord(
                iteration=k,
                selected_index=j,
                correlation=winning,
                residual_norm=rnorm,
                in_true_support=None if truth is None else (j in truth),
            )
        )

    if k:
        beta = np.linalg.solve(R[:k, :k], qty[:k])
        order = np.argsort(chosen)
        support = np.asarray(chosen, dtype=np.intp)[order]
        values = np.asarray(beta)[order]
        nonzero = values != 0.0  # an exactly-zero coefficient leaves the estimate
        estimate = SparseSignal(
            dimension=n, support=support[nonzero], values=values[nonzero]
        )
    else:
        support = np.zeros(0, dtype=np.intp)
        estimate = SparseSignal(dimension=n, support=[], values=[])

    return OmpResult(
        recovered_support=support,
        estimate=estimate,
        trace=tuple(records),
        stopped_by=stopped_by,
    )


def selection_margin(A, residual, omega, S):
    """Strongest in-support vs off-support correlation with ``residual``.

    Args:
        A: the sensing matrix.
        residual: current residual vector.
        omega: candidate true support, a proper subset of the column range.
        S: already-selected indices, a subset of ``omega``.

    Returns:
        (lhs, rhs): lhs = max over omega minus S of |A_i . residual|,
        rhs = max over the complement of omega of |A_j . residual|. A
        positive gap certifies that a greedy step picks inside omega.
    """
    A = as_matrix(A)
    residual = as_vector(residual, "residual")
    if A.shape[0] != residual.size:
        raise ValueError("residual length must match matrix rows")
    omega = np.asarray(list(omega), dtype=np.intp)
    S = np.asarray(list(S), dtype=np.intp)
    if omega.size == 0 or np.unique(omega).size != omega.size:
        raise ValueError("omega must be nonempty without duplicates")
    if omega.min() < 0 or omega.max() >= A.shape[1]:
        raise IndexError("omega index out of range")
    if S.size and not np.all(np.isin(S, omega)):
        raise ValueError("S must be a subset of omega")
    comp = np.setdiff1d(np.arange(A.shape[1]), omega)
    if comp.size == 0:
        raise ValueError("omega must be a proper subset of the column range")
    rest = np.setdiff1d(omega, S)
    if rest.size == 0:
        raise ValueError("omega minus S is empty")
    lhs = float(np.abs(A[:, rest].T @ residual).max())
    rhs = float(np.abs(A[:, comp].T @ residual).max())
    return lhs, rhs


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
