"""Exact restricted-isometry analysis and the recovery-condition checkers.

The order-K restricted isometry constant (RIC) of A is the smallest delta
with (1 - delta)||x||^2 <= ||A x||^2 <= (1 + delta)||x||^2 over all K-sparse
x; equivalently the worst deviation of any K-column Gram spectrum from 1.
Computing it is NP-hard in general, and the guarantees this package checks
are statements about the exact constant, so :func:`exact_ric` enumerates
every K-subset under a hard budget and refuses (loudly) beyond it. Each
subset's deviation is bounded above by the trace bound of Wolkowicz and
Styan on a Frobenius norm built on its tail's, and only subsets whose bound
can still reach the largest deviation found so far are eigensolved; the
result is the same, bit for bit, as eigensolving all of them. No
approximation is ever silently substituted.

The headline sufficient condition for exact support recovery of a K-sparse
signal from y = A x + v with ||v|| <= eps is

    delta_{K+1} < 1 / sqrt(K + 1)          (RIC condition)
    min |x_i|   > 2 eps / (1 - sqrt(K+1) delta_{K+1})   (magnitude condition)

and both strict inequalities are evaluated with zero tolerance: adding slack
here would blur the sharpness experiments, which probe the boundary.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .linalg import as_epsilon, as_matrix, projection_residual

#: Hard ceiling on the number of subsets exact_ric will enumerate.
DEFAULT_SUBSET_BUDGET = 2_000_000

#: Most entries (rows times columns) in a subset table or a batch of Grams.
_ENTRY_LIMIT = 500_000

#: Enumerations of at most this many subsets are eigensolved whole, without
#: bounds: bounding so few costs more than it saves.
_UNBOUNDED = 64

#: Subsets eigensolved first in each block, those with the largest bounds, to
#: set the deviation the other subsets' bounds must reach.
_LEAD = 16

#: The rounding guard of the pruning rule, in units of K * u (see exact_ric).
_GUARD_C = 64


class CapacityError(Exception):
    """Exhaustive enumeration would exceed the subset budget."""

    def __init__(self, n, K, count, budget, context=None):
        self.n = int(n)
        self.K = int(K)
        self.count = int(count)
        self.budget = int(budget)
        message = (
            f"C({self.n}, {self.K}) = {self.count} subsets exceeds the "
            f"enumeration budget {self.budget}"
        )
        if context:
            message = f"{message} ({context})"
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class RicReport:
    """Exact order-K RIC plus the witnessing subset's Gram eigenvalue extremes.

    ``subsets_examined`` is C(n, K); ``subsets_eigensolved`` counts the Gram
    matrices handed to the eigensolver, at most that many.
    """

    order: int
    delta: float
    witness_subset: np.ndarray
    lambda_min: float
    lambda_max: float
    subsets_examined: int
    subsets_eigensolved: int


@dataclass(frozen=True)
class ConditionVerdict:
    """Joint verdict on the RIC and minimum-magnitude recovery conditions.

    ``min_mag_bound`` is +inf when the RIC condition fails (the magnitude
    bound's denominator is then non-positive and the bound is undefined).
    """

    ric_ok: bool
    ric_bound: float
    min_mag_ok: bool
    min_mag_bound: float
    overall: bool
    delta: float


class Lemma1Check(NamedTuple):
    """Sides of the greedy-selection inequality; holds means lhs >= rhs - 1e-10."""

    lhs: float
    rhs: float
    holds: bool


@functools.lru_cache(maxsize=64)
def _cached_subsets(n, K):
    """All K-subsets of range(n) as a read-only (C(n, K), K) array, rows in
    lexicographic order."""
    full = _subsets(n, K)
    full.flags.writeable = False
    return full


def _subsets(n, k):
    """All k-subsets of range(n) as a (C(n, k), k) array in Fortran layout,
    rows in lexicographic order, built in place level by level. Level j, the
    j-subsets of range(k - j, n), is the first C(n - k + j, j) rows of the
    last j columns; its rows (f, *tail) take the last C(n - f - 1, j - 1)
    rows of level j - 1 as tails."""
    table = np.empty((math.comb(n, k), k), dtype=np.intp, order="F")
    rows = 1  # level 0: one empty subset
    for j in range(1, k + 1):
        below, rows = rows, 0
        for f in range(k - j, n - j + 1):
            c = math.comb(n - f - 1, j - 1)
            table[rows : rows + c, k - j] = f
            if rows:
                table[rows : rows + c, k - j + 1 :] = table[below - c : below, k - j + 1 :]
            rows += c
    return table


def _pair_squares(G):
    """P[i, j] = |G_ji - I_ji|**2, doubled off the diagonal, for i <= j: the
    terms of ||M_S - I||_F**2, M_S the lower triangle of G_S mirrored."""
    P = 2.0 * np.square(G.T, order="C")
    np.fill_diagonal(P, np.square(G.diagonal() - 1.0))
    return P


def _table_squares(P, table):
    """||M_S - I||_F**2 of each row S of ``table`` (see _subsets), level by
    level: a row (f, *tail) adds P[f, f] and P[f, tail], then its tail's
    squared norm, so a term passes through at most k additions."""
    n, k = len(P), table.shape[1]
    if k == 0:
        return np.zeros(1)
    flat = P.ravel()
    squares = P.diagonal()[k - 1 :]
    for j in range(2, k + 1):
        level = table[: math.comb(n - k + j, j), k - j :]
        row = level[:, 0] * n
        new = flat.take(row + level[:, 0])
        for column in level[:, 1:].T:
            new += flat.take(row + column)
        new += np.concatenate([squares[len(squares) - math.comb(n - f - 1, j - 1) :]
                               for f in range(k - j, n - j + 1)])
        squares = new
    return squares


def _bounded_blocks(G, K, count):
    """Yield (prefix, tails, bounds): the K-subsets (*prefix, *tail) of
    range(n) in lexicographic order and their bounds b_S (see exact_ric).
    Within ``_ENTRY_LIMIT``, one cached block (bounds +inf up to
    ``_UNBOUNDED`` rows); beyond it, one per prefix of the shortest length L
    whose tails, the (K - L)-subsets of range(L, n), fit: built uncached, so
    memory stays bounded whatever K is."""
    n = len(G)
    if count <= _UNBOUNDED and count * K <= _ENTRY_LIMIT:  # all eigensolved
        yield np.empty(0, dtype=np.intp), _cached_subsets(n, K), np.full(count, np.inf)
        return
    offset, spread = np.abs(G.diagonal() - 1.0).max(), math.sqrt((K - 1) / K)

    def bounds(squares):  # at K = 1, F_S is delta_S itself, and may be +inf
        b = np.sqrt(squares)
        return np.minimum(b, offset + spread * b, out=b) if K > 1 else b

    if count * K <= _ENTRY_LIMIT:
        table = _cached_subsets(n, K)
        squares = _table_squares(_pair_squares(G), table)
        yield np.empty(0, dtype=np.intp), table, bounds(squares)
        return
    P = np.triu(_pair_squares(G))  # a prefix's row sums read below the diagonal
    L = 1
    while math.comb(n - L, K - L) * (K - L) > _ENTRY_LIMIT:
        L += 1
    lower = _subsets(n - L, K - L)
    lower_squares = _table_squares(P[L:, L:], lower)
    lower += L
    for prefix in itertools.combinations(range(n - K + L), L):
        start = len(lower) - math.comb(n - prefix[-1] - 1, K - L)
        prefix = np.array(prefix, dtype=np.intp)
        col = P[prefix].sum(axis=0)  # what the prefix adds to each element
        tails = lower[start:]
        squares = np.full(len(tails), col[prefix].sum())
        for column in tails.T:
            squares += col.take(column)
        squares += lower_squares[start:]
        yield prefix, tails, bounds(squares)


def exact_ric(A, K, budget=DEFAULT_SUBSET_BUDGET):
    """Exact order-K RIC of A by exhaustive subset enumeration.

    Every K-subset S is enumerated and its deviation delta_S = ||E_S||_2
    bounded above, where E_S = M_S - I and M_S is the lower triangle of G_S
    mirrored, as ``eigvalsh`` reads it. The trace bound of Wolkowicz and
    Styan ("Bounds for eigenvalues using traces", Linear Algebra Appl. 29,
    1980), |lambda(E)| <= |tr E| / K + s ||E - (tr E / K) I||_F with
    s = sqrt((K - 1) / K), is at most o + s F_S, where F_S = ||E_S||_F and
    o = max_i |G_ii - 1| over all columns. So b_S = min(F_S, o + s F_S), about
    s F_S with unit-norm columns: delta_S itself at K = 2. F_S**2 adds up
    over pairs of elements, so a subset (f, *tail) adds K terms of
    ``_pair_squares`` row f to its tail's (``_bounded_blocks``). An
    enumeration of at most ``_UNBOUNDED`` subsets is eigensolved whole,
    unbounded. Otherwise, per block, the ``_LEAD`` largest bounds are
    eigensolved first (batched LAPACK ``eigvalsh`` calls on at most
    ``_ENTRY_LIMIT`` Gram entries each), which sets the incumbent: the
    largest delta found so far, carried across blocks. The other subsets are
    eigensolved only if b_S + g_S >= incumbent, with the rounding guard
    g_S = c K u (1 + b_S), c = ``_GUARD_C`` = 64 and u = 2**-53. Each subset
    is eigensolved at most once.

    The guard makes the pruning exact for the computed values, not just the
    true ones. A term of F_S**2 costs at most three roundings (a subtraction
    and a square on the diagonal, a square off it; doubling is exact), and
    passes through at most K additions, or K + L - 1 < 2K in a block with a
    prefix of length L. The terms are non-negative, so F_S**2 is off by less
    than (2K + 2) u F_S**2, and F_S by (K + 2) u F_S. The offset costs one
    rounding (G_ii - 1); s (a quotient and a square root), s F_S and the sum
    cost three more, so b_S is off by less than (K + 6) u b_S. The symmetric
    eigensolver is backward stable: its eigenvalues of G_S are off by at
    most p(K) u ||G_S||_2 <= p(K) u (1 + delta_S), with p a modest function
    of K (about K in practice), and forming delta_S adds one more rounding.
    So a computed delta_S exceeds b_S by less than (p(K) + K + 8) u (1 + b_S),
    which c K u (1 + b_S) covers for p(K) up to about 60 K. A pruned
    subset's computed delta is therefore below a delta that was computed, so
    it can be neither the maximum nor tied with it, and the result is
    bit-identical to eigensolving every subset.

    Ties on delta are broken by the lexicographically smallest witness subset
    (enumeration is lexicographic, the argmax of a block takes its smallest
    row, and only strictly larger deltas replace the incumbent).

    Args:
        A: the sensing matrix.
        K: subset order, 1 <= K <= A.shape[1].
        budget: refuse enumerations beyond this many subsets. It counts
            subsets, not work: an eigensolve costs O(K**3).

    Raises:
        ValueError: K out of range, ``budget`` below 1, or A^T A overflows
            (A is finite but its Gram matrix is not).
        CapacityError: C(n, K) exceeds ``budget``.
    """
    A = as_matrix(A)
    n = A.shape[1]
    if not (1 <= K <= n):
        raise ValueError(f"order must lie in [1, {n}], got {K}")
    if budget < 1:
        raise ValueError(f"subset budget must be positive, got {budget}")
    count = math.comb(n, K)
    if count > budget:
        raise CapacityError(n, K, count, budget)
    with np.errstate(over="ignore", invalid="ignore"):
        G = A.T @ A
    if not np.isfinite(G).all():
        raise ValueError("A^T A overflows: the Gram matrix has non-finite entries")
    guard = _GUARD_C * K * np.finfo(float).eps / 2
    best_delta = -math.inf
    best_subset = None
    best_lo = best_hi = None
    solved = 0
    batch = max(1, _ENTRY_LIMIT // (K * K))  # Grams gathered at once
    lead = _LEAD if count > _UNBOUNDED else count
    for prefix, tails, bound in _bounded_blocks(G, K, count):
        reach = bound + guard * (1.0 + bound)
        todo = reach >= best_delta
        rows = todo.nonzero()[0]
        if not rows.size:
            continue
        if rows.size > lead:
            rows = rows[np.argpartition(bound[rows], -lead)[-lead:]]
        deltas = np.full(len(tails), -np.inf)
        lo, hi = np.empty((2, len(tails)))
        while rows.size:
            rows = rows[:batch]
            sub = np.empty((rows.size, K), dtype=np.intp)
            sub[:, : prefix.size] = prefix
            sub[:, prefix.size :] = tails[rows]
            w = np.linalg.eigvalsh(G[sub[:, :, None], sub[:, None, :]])
            lo[rows], hi[rows] = w[:, 0], w[:, -1]
            deltas[rows] = np.maximum(w[:, -1] - 1.0, 1.0 - w[:, 0])
            solved += rows.size
            todo[rows] = False
            todo &= reach >= max(best_delta, deltas.max())
            rows = todo.nonzero()[0]
        i = int(np.argmax(deltas))
        if deltas[i] > best_delta:
            best_delta = float(deltas[i])
            best_subset = np.concatenate((prefix, tails[i]))
            best_lo, best_hi = float(lo[i]), float(hi[i])
    return RicReport(
        order=int(K),
        delta=best_delta,
        witness_subset=best_subset,
        lambda_min=best_lo,
        lambda_max=best_hi,
        subsets_examined=count,
        subsets_eigensolved=solved,
    )


def sharp_ric_bound(K):
    """The sharp RIC threshold 1 / sqrt(K + 1) for K-sparse recovery."""
    if K < 1:
        raise ValueError("K must be at least 1")
    return 1.0 / math.sqrt(K + 1.0)


def min_magnitude_bound(delta_k1, K, epsilon):
    """Magnitude floor 2 eps / (1 - sqrt(K+1) delta_{K+1}).

    Defined only for delta_k1 in [0, 1/sqrt(K+1)); outside that range the
    denominator is non-positive and a domain error is raised.
    """
    bound = sharp_ric_bound(K)  # rejects K < 1
    as_epsilon(epsilon)
    if not (0.0 <= delta_k1 < bound):
        raise ValueError(
            f"delta_k1 = {delta_k1} outside [0, 1/sqrt({K + 1})); "
            "the magnitude bound is undefined there"
        )
    return 2.0 * epsilon / (1.0 - math.sqrt(K + 1.0) * delta_k1)


def check_theorem1_conditions(A, signal, epsilon):
    """Evaluate both recovery conditions for (A, x, eps) with exact RIC.

    Strict inequalities, zero tolerance. Returns a ConditionVerdict; an RIC
    enumeration beyond the default subset budget propagates as CapacityError.
    """
    A = as_matrix(A)
    if A.shape[1] != signal.dimension:
        raise ValueError("matrix columns must match signal dimension")
    K = signal.sparsity
    if K < 1:
        raise ValueError("signal must have nonempty support")
    if K + 1 > A.shape[1]:
        raise ValueError("need at least K+1 columns to check order K+1")
    as_epsilon(epsilon)
    report = exact_ric(A, K + 1)
    bound = sharp_ric_bound(K)
    ric_ok = report.delta < bound
    if ric_ok:
        mm_bound = min_magnitude_bound(report.delta, K, epsilon)
        min_mag_ok = signal.min_magnitude() > mm_bound
    else:
        mm_bound = math.inf
        min_mag_ok = False
    return ConditionVerdict(
        ric_ok=bool(ric_ok),
        ric_bound=bound,
        min_mag_ok=bool(min_mag_ok),
        min_mag_bound=mm_bound,
        overall=bool(ric_ok and min_mag_ok),
        delta=report.delta,
    )


def verify_lemma1(A, signal, S, delta_k1=None):
    """Numerically check the selection inequality behind support recovery.

    For a proper subset S of the support Omega of x, with P the orthogonal
    complement projector of span(A_S) and z = A_{Omega\\S} x_{Omega\\S}:

        || A_{Omega\\S}^T P z ||_inf  -  || A_{Omega^c}^T P z ||_inf
            >=  (1 - sqrt(r + 1) * delta_{K+1}) * || x_{Omega\\S} || / sqrt(r)

    where r = |Omega| - |S| and delta_{K+1} is the exact RIC at order
    |Omega| + 1 (computed here unless supplied by the caller). The check is
    numerical only; no tightness claim is made.

    Returns:
        Lemma1Check(lhs, rhs, holds) with holds = (lhs >= rhs - 1e-10).
    """
    A = as_matrix(A)
    if A.shape[1] != signal.dimension:
        raise ValueError("matrix columns must match signal dimension")
    omega = signal.support
    given = np.asarray(list(S), dtype=np.intp)
    S = np.unique(given)
    if S.size != given.size:
        raise ValueError("S contains duplicates")
    # omega and S are sorted, so S is a subset iff omega holds each S[i] at
    # its insertion point
    pos = np.searchsorted(omega, S)
    if np.any(pos == omega.size) or not np.array_equal(omega[pos], S):
        raise ValueError("S must be a subset of the signal support")
    if S.size >= omega.size:
        raise ValueError("S must be a proper subset of the support")
    rest_mask = np.ones(omega.size, dtype=bool)
    rest_mask[pos] = False
    rest = omega[rest_mask]
    x_rest = signal.values[rest_mask]
    if delta_k1 is None:
        if omega.size + 1 > A.shape[1]:
            raise ValueError("need |support|+1 <= columns to compute the RIC")
        delta_k1 = exact_ric(A, omega.size + 1).delta
    A_rest = A[:, rest]
    p = projection_residual(A[:, S], A_rest @ x_rest)
    lhs_in = float(np.abs(A_rest.T @ p).max())
    lhs_out = float(np.abs(np.delete(A, omega, axis=1).T @ p).max(initial=0.0))
    lhs = lhs_in - lhs_out
    r = omega.size - S.size
    rhs = (
        (1.0 - math.sqrt(r + 1.0) * delta_k1)
        * float(np.linalg.norm(x_rest))
        / math.sqrt(r)
    )
    return Lemma1Check(lhs=lhs, rhs=rhs, holds=bool(lhs >= rhs - 1e-10))


# ---------------------------------------------------------------------------
# Comparison against the strongest previously published sufficient condition
# (the Chang-Wu bounds), which this package's condition must dominate.
# ---------------------------------------------------------------------------


def chang_wu_ric_bound(K):
    """Prior best RIC threshold (sqrt(4K+1) - 1) / (2K)."""
    if K < 1:
        raise ValueError("K must be at least 1")
    return (math.sqrt(4.0 * K + 1.0) - 1.0) / (2.0 * K)


def chang_wu_min_mag_bound(delta, K, epsilon):
    """Prior magnitude floor; +inf when its denominator is non-positive."""
    if K < 1:
        raise ValueError("K must be at least 1")
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    as_epsilon(epsilon)
    denom = 1.0 - delta - math.sqrt(1.0 - delta) * math.sqrt(K) * delta
    if denom <= 0.0:
        return math.inf
    return (math.sqrt(1.0 + delta) + 1.0) * epsilon / denom


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side of this package's recovery condition and the prior best.

    ``ric_bound_weaker`` records that the prior RIC threshold is strictly
    below ours (so our condition admits more matrices). The magnitude
    verdicts compare the floors the two conditions impose; ours is never
    larger, strictly smaller once delta > 0. Undefined bounds are +inf.
    """

    k: int
    delta_k1: float
    epsilon: float
    chang_wu_ric_bound: float
    sharp_ric_bound: float
    ric_bound_weaker: bool
    chang_wu_min_mag: float
    chang_wu_min_mag_defined: bool
    sharp_min_mag: float
    sharp_min_mag_defined: bool
    min_mag_weaker: bool
    min_mag_strictly_weaker: bool


def comparison_report(K, delta_k1, epsilon):
    """Compare both recovery conditions at (K, delta_{K+1}, eps)."""
    cw_ric = chang_wu_ric_bound(K)  # both bound functions reject K < 1
    our_ric = sharp_ric_bound(K)
    cw_mm = chang_wu_min_mag_bound(delta_k1, K, epsilon)  # checks delta, eps
    if delta_k1 < our_ric:
        our_mm = min_magnitude_bound(delta_k1, K, epsilon)
        our_defined = True
    else:
        our_mm = math.inf
        our_defined = False
    cw_defined = math.isfinite(cw_mm)
    weaker = our_defined and cw_mm >= our_mm
    strictly = our_defined and cw_mm > our_mm
    return ComparisonReport(
        k=int(K),
        delta_k1=float(delta_k1),
        epsilon=float(epsilon),
        chang_wu_ric_bound=cw_ric,
        sharp_ric_bound=our_ric,
        ric_bound_weaker=bool(cw_ric < our_ric),
        chang_wu_min_mag=cw_mm,
        chang_wu_min_mag_defined=bool(cw_defined),
        sharp_min_mag=our_mm,
        sharp_min_mag_defined=bool(our_defined),
        min_mag_weaker=bool(weaker),
        min_mag_strictly_weaker=bool(strictly),
    )


def ric_report_json(report):
    """Stable key/value rendering of a RicReport."""
    return json.dumps(
        {
            "order": report.order,
            "delta": report.delta,
            "witness": [int(i) for i in report.witness_subset],
            "lambda_min": report.lambda_min,
            "lambda_max": report.lambda_max,
            "subsets_examined": report.subsets_examined,
        },
        indent=2,
    )


def condition_verdict_json(verdict):
    """Stable key/value rendering of a ConditionVerdict (keys in field order)."""
    return json.dumps(asdict(verdict), indent=2)
